//! Panic-freedom of the ZigBee, BLE and 802.11b overlay decoders (the
//! 802.11n one has `wifi_n_robustness.rs`): whatever IQ arrives — any
//! length, NaN or ±∞ samples, the wrong sample rate, with or without a
//! real overlay carrier underneath — `decode` returns `Ok` or `Err`,
//! never panics.

use msc_core::overlay::{params_for, Mode};
use msc_dsp::{Complex64, IqBuf, SampleRate};
use msc_phy::protocol::Protocol;
use msc_rx::{BleOverlayLink, WifiBOverlayLink, ZigBeeOverlayLink};
use proptest::prelude::*;

const BAD: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// The three links, each with a real carrier of a few productive units.
struct Links {
    zigbee: (ZigBeeOverlayLink, IqBuf),
    ble: (BleOverlayLink, IqBuf),
    wifi_b: (WifiBOverlayLink, IqBuf),
}

fn links(mode: Mode) -> Links {
    let zigbee = ZigBeeOverlayLink::new(params_for(Protocol::ZigBee, mode));
    let zc = zigbee.make_carrier(&[3, 9, 12, 0]);
    let ble = BleOverlayLink::new(params_for(Protocol::Ble, mode));
    let bc = ble.make_carrier(&[1, 0, 1, 1, 0, 0]);
    let wifi_b = WifiBOverlayLink::new(params_for(Protocol::WifiB, mode));
    let wc = wifi_b.make_carrier(&[1, 1, 0, 1, 0, 0, 1, 0]);
    Links { zigbee: (zigbee, zc), ble: (ble, bc), wifi_b: (wifi_b, wc) }
}

/// `len` samples: the frame's first samples (if any) under small
/// periodic noise, with NaN/±∞ written at the laced positions, at
/// `rate` (the frame's own rate when `None`).
fn received(
    frame: Option<&IqBuf>,
    len: usize,
    noise: &[(f64, f64)],
    laced: &[(prop::sample::Index, usize)],
    rate: Option<SampleRate>,
) -> IqBuf {
    let clean = frame.map(|f| f.samples()).unwrap_or(&[]);
    let mut samples: Vec<Complex64> = (0..len)
        .map(|k| {
            let (re, im) = noise[k % noise.len()];
            clean.get(k).copied().unwrap_or(Complex64::ZERO) + Complex64::new(0.05 * re, 0.05 * im)
        })
        .collect();
    if !samples.is_empty() {
        for (at, which) in laced {
            let k = at.index(samples.len());
            let bad = BAD[*which];
            samples[k] =
                if k % 2 == 0 { Complex64::new(bad, 0.0) } else { Complex64::new(0.3, bad) };
        }
    }
    let native = frame.map(|f| f.rate()).unwrap_or(SampleRate::mhz(8.0));
    IqBuf::new(samples, rate.unwrap_or(native))
}

/// Runs every decoder on its own carrier under the same corruption;
/// returning is the property.
fn exercise(
    l: &Links,
    with_frame: bool,
    len: usize,
    noise: &[(f64, f64)],
    laced: &[(prop::sample::Index, usize)],
    rate: Option<SampleRate>,
    n_productive: usize,
) {
    let rx = |f: &IqBuf| received(with_frame.then_some(f), len, noise, laced, rate);
    let _ = l.zigbee.0.decode(&rx(&l.zigbee.1));
    let _ = l.ble.0.decode(&rx(&l.ble.1), n_productive);
    let _ = l.wifi_b.0.decode(&rx(&l.wifi_b.1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn overlay_decoders_never_panic(
        mode2 in any::<bool>(),
        with_frame in any::<bool>(),
        len in prop_oneof![0usize..=3, 0usize..=9000],
        noise in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..64),
        laced in prop::collection::vec((any::<prop::sample::Index>(), 0usize..3), 0..8),
        // 0 keeps each carrier's own rate; the rest are wrong for all three.
        rate_mhz in prop_oneof![Just(0.0), Just(1.0), Just(4.0), Just(11.0), Just(20.0), Just(40.0)],
        n_productive in 0usize..=12,
    ) {
        let l = links(if mode2 { Mode::Mode2 } else { Mode::Mode1 });
        let rate = (rate_mhz > 0.0).then(|| SampleRate::mhz(rate_mhz));
        exercise(&l, with_frame, len, &noise, &laced, rate, n_productive);
    }
}

#[test]
fn overlay_decoders_handle_degenerate_buffers() {
    let l = links(Mode::Mode1);
    // The carriers the properties corrupt decode when left clean.
    assert!(l.zigbee.0.decode(&l.zigbee.1).is_ok());
    assert!(l.ble.0.decode(&l.ble.1, 6).is_ok());
    assert!(l.wifi_b.0.decode(&l.wifi_b.1).is_ok());
    let quiet = [(0.0, 0.0)];
    for len in 0..=3 {
        for with_frame in [false, true] {
            exercise(&l, with_frame, len, &quiet, &[], None, 6);
        }
    }
    // Every sample non-finite, at each link's native rate.
    for bad in BAD {
        for (re, im) in [(bad, bad), (bad, 0.0), (0.3, bad)] {
            let all = |f: &IqBuf| IqBuf::new(vec![Complex64::new(re, im); 4000], f.rate());
            let _ = l.zigbee.0.decode(&all(&l.zigbee.1));
            let _ = l.ble.0.decode(&all(&l.ble.1), 6);
            let _ = l.wifi_b.0.decode(&all(&l.wifi_b.1));
        }
    }
}
