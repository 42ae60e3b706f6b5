//! Pins the identification traces end to end: `generate_traces_hard`
//! at the four ADC rates and three FM-to-AM slopes, hashed over every
//! acquired sample's `to_bits`, plus each trace's label, jitter and
//! length.
//!
//! The acquisition chain runs vector kernels (the discriminator's
//! `atan2` and the fused resample-and-quantize ADC). A kernel that moves
//! one ADC code — or the tuned reference, which rescales every sample
//! of a trace — moves this digest, and with it every identification
//! report. Make the kernel more accurate; do not re-pin the digest.

use msc_dsp::SampleRate;
use msc_sim::idtraces::{front_end, generate_traces_hard};

/// FNV-1a digest of the per-trace digests below, pinned from the scalar
/// acquisition chain before it was vectorized.
const DIGEST: u64 = 0xfc7d_1e7b_c738_960d;

#[test]
fn hard_traces_match_the_pinned_digest() {
    let rates =
        [SampleRate::ADC_FULL, SampleRate::ADC_HALF, SampleRate::ADC_LOW, SampleRate::ADC_FLOOR];
    // One FNV-1a digest per trace, then one over the list of them.
    let mut digests = Vec::new();
    for rate in rates {
        for fm_slope in [0.0, 0.25, 0.5] {
            let mut fe = front_end(rate);
            fe.fm_slope = fm_slope;
            for t in generate_traces_hard(&fe, 24, 42) {
                let mut bytes = t.truth.label().as_bytes().to_vec();
                bytes.extend_from_slice(&(t.jitter as i64).to_le_bytes());
                bytes.extend_from_slice(&(t.acquired.len() as u64).to_le_bytes());
                for v in &t.acquired {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                digests.extend_from_slice(&msc_obs::archive::fnv1a(&bytes).to_le_bytes());
            }
        }
    }
    assert_eq!(digests.len(), 8 * 4 * 3 * 4 * 24, "one digest per trace");
    let digest = msc_obs::archive::fnv1a(&digests);
    assert_eq!(digest, DIGEST, "digest {digest:#018x}");
}
