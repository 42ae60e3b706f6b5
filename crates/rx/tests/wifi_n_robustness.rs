//! Panic-freedom of the 802.11n decode path: whatever IQ arrives —
//! any length, NaN or ±∞ samples, the wrong sample rate — the overlay
//! decoder and the full demodulator return `Ok` or `Err`, never panic.
//! The sync search reads a slice of the buffer through a vectorized
//! correlator, so this also pins that neither reads out of bounds.

use msc_core::overlay::{params_for, Mode};
use msc_dsp::{Complex64, IqBuf, SampleRate};
use msc_phy::protocol::Protocol;
use msc_phy::wifi_n::{Mcs, WifiNDemodulator};
use msc_rx::WifiNOverlayLink;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wifi_n_decode_never_panics(
        len in 0usize..=8000,
        // A real overlay carrier under the noise makes sync succeed, so
        // the channel estimate, HT-SIG and symbol loop see the bad
        // samples too, not just the sync search.
        with_frame in any::<bool>(),
        mcs_sel in 0usize..3,
        noise in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..64),
        laced in prop::collection::vec(
            (any::<prop::sample::Index>(), prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)]),
            0..8,
        ),
        rate_mhz in prop_oneof![Just(20.0), Just(1.0), Just(4.0), Just(10.0), Just(40.0)],
    ) {
        let mcs = [Mcs::Mcs0, Mcs::Mcs1, Mcs::Mcs3][mcs_sel];
        let link = WifiNOverlayLink::new(params_for(Protocol::WifiN, Mode::Mode1)).with_mcs(mcs);
        let frame = if with_frame { link.make_carrier(&[1, 0, 1, 1]).samples().to_vec() } else { Vec::new() };
        let mut samples: Vec<Complex64> = (0..len)
            .map(|k| {
                let (re, im) = noise[k % noise.len()];
                frame.get(k).copied().unwrap_or(Complex64::ZERO) + Complex64::new(0.05 * re, 0.05 * im)
            })
            .collect();
        if !samples.is_empty() {
            for (at, bad) in &laced {
                let k = at.index(samples.len());
                samples[k] = if k % 2 == 0 { Complex64::new(*bad, 0.0) } else { Complex64::new(0.3, *bad) };
            }
        }
        let buf = IqBuf::new(samples, SampleRate::mhz(rate_mhz));
        // Either outcome is fine; returning at all is the property. The
        // link stops at the symbol stage; `demodulate` adds the BCC stage.
        let _ = link.decode(&buf);
        let _ = WifiNDemodulator::new().demodulate(&buf);
    }
}

#[test]
fn wifi_n_decode_handles_degenerate_buffers() {
    let link = WifiNOverlayLink::new(params_for(Protocol::WifiN, Mode::Mode1));
    let demod = WifiNDemodulator::new();
    let carrier = link.make_carrier(&[0, 1, 1, 0]);
    let mut cases: Vec<Vec<Complex64>> = vec![
        Vec::new(),
        vec![Complex64::new(1.0, 0.0)],
        vec![Complex64::new(f64::NAN, f64::NAN); 5000],
        vec![Complex64::new(f64::INFINITY, f64::NEG_INFINITY); 319],
    ];
    // A clean frame cut just short of and just past the 320-sample
    // legacy preamble, and one with its data symbols cut off.
    for cut in [319, 320, 400, carrier.len() - 1] {
        cases.push(carrier.samples()[..cut].to_vec());
    }
    for samples in cases {
        let buf = IqBuf::new(samples, SampleRate::mhz(20.0));
        assert!(link.decode(&buf).is_err(), "{} samples decoded", buf.len());
        assert!(demod.demodulate(&buf).is_err());
    }
}
