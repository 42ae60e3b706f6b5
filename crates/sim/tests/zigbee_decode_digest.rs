//! Pins `ZigBeeDemodulator::demodulate`'s full-search path — no engine
//! sync hint, so the CFO estimate and correction and the full-buffer
//! matched filter all run — on a fixed set of noisy overlay frames: the
//! `abl-gamma` grid (γ 2/4/6 at SNR −2/2/6 dB), with a carrier offset
//! the estimator must remove and leading silence the sync must find.
//!
//! The frames are built with scalar reference arithmetic only
//! (`Complex64::rotate` and `complex_gaussian`), so the digest moves only
//! when the receiver does. The digest covers every decision the overlay
//! decoder consumes — PSDU, FCS verdict, symbols, PHR start and the sign
//! of every soft chip — plus the symbol qualities to four decimals, and
//! the error kind for frames that fail. A vectorized kernel that changes
//! a soft value by rounding alone keeps the digest; one that changes a
//! decision does not.

use msc_channel::awgn::complex_gaussian;
use msc_core::overlay::{OverlayParams, TagOverlayModulator};
use msc_core::tag::payload_start_seconds;
use msc_dsp::units::db_to_lin;
use msc_dsp::{Complex64, IqBuf};
use msc_phy::bits::random_bits;
use msc_phy::protocol::Protocol;
use msc_phy::zigbee::{ZigBeeConfig, ZigBeeDemodulator};
use msc_rx::ZigBeeOverlayLink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a digest of the canonical decode transcript below.
const DIGEST: u64 = 0x2ed0_c41a_64ec_18cb;

/// One noisy frame: overlay carrier → tag modulation → unit power →
/// 12.5 kHz carrier offset → leading zero samples → AWGN at `snr_db`.
fn frame(gamma: usize, snr_db: f64, seed: u64) -> IqBuf {
    let params = OverlayParams::new(2 * gamma, gamma);
    let link = ZigBeeOverlayLink::new(params);
    let mut rng = StdRng::seed_from_u64(seed);
    let productive: Vec<u8> = (0..12).map(|_| rng.gen_range(0..16)).collect();
    let tag_bits = random_bits(&mut rng, link.tag_capacity(12));
    let carrier = link.make_carrier(&productive);
    let start = (payload_start_seconds(Protocol::ZigBee) * 8e6).round() as usize;
    let wave =
        TagOverlayModulator::new(Protocol::ZigBee, params).modulate(&carrier, start, &tag_bits);
    let rate = wave.rate();
    let gain = 1.0 / wave.mean_power().sqrt();
    let step = std::f64::consts::TAU * 12_500.0 / rate.as_hz();
    let lead = 53 + (seed as usize % 7) * 211;
    let noise = 1.0 / db_to_lin(snr_db);
    let mut out = vec![Complex64::ZERO; lead];
    out.extend(
        wave.samples().iter().enumerate().map(|(n, s)| s.scale(gain).rotate(step * n as f64)),
    );
    for s in &mut out {
        *s += complex_gaussian(&mut rng, noise);
    }
    IqBuf::new(out, rate)
}

#[test]
fn full_search_decodes_match_the_pinned_digest() {
    let demod = ZigBeeDemodulator::new(ZigBeeConfig::default());
    let mut transcript = String::new();
    for gamma in [2usize, 4, 6] {
        for snr_db in [6.0, 2.0, -2.0] {
            for k in 0..2u64 {
                let seed = 1000 * gamma as u64 + 10 * (snr_db as i64 + 2) as u64 + k;
                transcript.push_str(&format!("γ{gamma} {snr_db} #{k}: "));
                match demod.demodulate(&frame(gamma, snr_db, seed)) {
                    Ok(d) => {
                        let signs: String = d
                            .raw_chips
                            .iter()
                            .flatten()
                            .map(|&c| if c < 0.0 { '-' } else { '+' })
                            .collect();
                        let quality: Vec<String> =
                            d.symbol_quality.iter().map(|q| format!("{q:.4}")).collect();
                        transcript.push_str(&format!(
                            "psdu {:?} fcs {} symbols {:?} phr {} chips {signs} quality {}\n",
                            d.psdu,
                            d.fcs_ok,
                            d.raw_symbols,
                            d.phr_start,
                            quality.join(",")
                        ));
                    }
                    Err(e) => transcript.push_str(&format!("error {e:?}\n")),
                }
            }
        }
    }
    let digest = msc_obs::archive::fnv1a(transcript.as_bytes());
    assert_eq!(digest, DIGEST, "digest {digest:#018x} of transcript:\n{transcript}");
}
