//! Property-based equivalence between the fast correlation kernels and
//! their reference formulations: whatever inputs arrive, the bit-packed,
//! prefix-sum, FFT and blocked complex paths must agree with the scalar /
//! per-offset / direct code they replaced.

use msc_dsp::corr::{
    complex_sliding_corr, complex_sliding_corr_direct, complex_sliding_corr_scalar,
    normalized_corr, quantized_corr, sign_quantize, sliding_corr, sliding_corr_direct,
    sliding_corr_fft, PackedBits,
};
use msc_dsp::Complex64;
use proptest::prelude::*;

/// The pre-rewrite sliding correlation: a full `normalized_corr` per
/// offset, re-deriving window statistics each time.
fn sliding_corr_naive(signal: &[f64], template: &[f64]) -> Vec<f64> {
    let l = template.len();
    (0..=signal.len() - l).map(|off| normalized_corr(&signal[off..off + l], template)).collect()
}

/// The pre-blocking complex direct path: one `acc + s * conj(p)` fold per
/// offset.
fn complex_corr_fold(samples: &[Complex64], probe: &[Complex64]) -> Vec<Complex64> {
    let l = probe.len();
    (0..=samples.len() - l)
        .map(|off| {
            samples[off..off + l]
                .iter()
                .zip(probe)
                .fold(Complex64::ZERO, |acc, (&s, &p)| acc + s * p.conj())
        })
        .collect()
}

/// The first offset where two correlation outputs differ in a bit of
/// either part, or a length mismatch.
fn first_bit_mismatch(got: &[Complex64], want: &[Complex64]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("length {} vs {}", got.len(), want.len()));
    }
    got.iter().zip(want).enumerate().find_map(|(off, (g, w))| {
        (g.re.to_bits() != w.re.to_bits() || g.im.to_bits() != w.im.to_bits())
            .then(|| format!("offset {off}: {g:?} vs {w:?}"))
    })
}

/// Samples long enough for `n_off` offsets of an `l`-tap probe, cycled
/// from `raw` with a slowly growing real-part scale.
fn complex_samples(raw: &[(f64, f64)], n_off: usize, l: usize) -> Vec<Complex64> {
    (0..n_off + l - 1)
        .map(|k| {
            let (r, i) = raw[k % raw.len()];
            Complex64::new(r * (1.0 + k as f64 / 97.0), i)
        })
        .collect()
}

/// Checks the dispatched, direct and forced-scalar complex correlators
/// against the reference fold, `to_bits`.
fn check_complex_corr(samples: &[Complex64], probe: &[Complex64]) -> Option<String> {
    let want = complex_corr_fold(samples, probe);
    [
        ("dispatched", complex_sliding_corr(samples, probe)),
        ("direct", complex_sliding_corr_direct(samples, probe)),
        ("scalar", complex_sliding_corr_scalar(samples, probe)),
    ]
    .into_iter()
    .find_map(|(path, got)| first_bit_mismatch(&got, &want).map(|m| format!("{path} {m}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_corr_matches_scalar_quantized(
        raw_a in prop::collection::vec(-1.0f64..1.0, 1..300),
        raw_b in prop::collection::vec(-1.0f64..1.0, 1..300),
        dc in -0.5f64..0.5,
        tie_at in any::<prop::sample::Index>(),
    ) {
        let l = raw_a.len().min(raw_b.len());
        let mut a = raw_a[..l].to_vec();
        let b = &raw_b[..l];
        // Force an exact tie so the x == dc contract is exercised, not
        // just sampled (a uniform draw never hits it).
        a[tie_at.index(l)] = dc;
        let (qa, qb) = (sign_quantize(&a, dc), sign_quantize(b, dc));
        let scalar = quantized_corr(&qa, &qb);
        let packed = PackedBits::from_signal(&a, dc).corr(&PackedBits::from_signal(b, dc));
        prop_assert_eq!(scalar, packed);
        // Packing pre-quantized signs is the same as packing the signal.
        prop_assert_eq!(PackedBits::from_signs(&qa).corr(&PackedBits::from_signs(&qb)), packed);
    }

    #[test]
    fn prefix_sum_sliding_matches_naive(
        signal in prop::collection::vec(-1.0f64..1.0, 64..400),
        template in prop::collection::vec(-1.0f64..1.0, 2..64),
    ) {
        let fast = sliding_corr_direct(&signal, &template);
        let naive = sliding_corr_naive(&signal, &template);
        prop_assert_eq!(fast.len(), naive.len());
        for (off, (f, n)) in fast.iter().zip(&naive).enumerate() {
            prop_assert!((f - n).abs() <= 1e-9, "offset {}: {} vs {}", off, f, n);
        }
    }

    #[test]
    fn fft_sliding_matches_direct(
        signal in prop::collection::vec(-1.0f64..1.0, 128..1024),
        template in prop::collection::vec(-1.0f64..1.0, 32..128),
    ) {
        let direct = sliding_corr_direct(&signal, &template);
        let fft = sliding_corr_fft(&signal, &template);
        prop_assert_eq!(fft.len(), direct.len());
        for (off, (f, d)) in fft.iter().zip(&direct).enumerate() {
            prop_assert!((f - d).abs() <= 1e-9, "offset {}: {} vs {}", off, f, d);
        }
    }

    #[test]
    fn overlap_save_convolution_matches_direct(
        re in prop::collection::vec(-1.0f64..1.0, 64..1200),
        im in prop::collection::vec(-1.0f64..1.0, 64..1200),
        taps in prop::collection::vec(-1.0f64..1.0, 2..160),
    ) {
        let n = re.len().min(im.len());
        let signal: Vec<msc_dsp::Complex64> =
            re[..n].iter().zip(&im[..n]).map(|(&r, &i)| msc_dsp::Complex64::new(r, i)).collect();
        let fir = msc_dsp::Fir::new(taps);
        let direct = fir.convolve_direct(&signal);
        let fast = fir.convolve_overlap_save(&signal);
        prop_assert_eq!(fast.len(), direct.len());
        for (k, (f, d)) in fast.iter().zip(&direct).enumerate() {
            prop_assert!((*f - *d).abs() <= 1e-9, "sample {}: {:?} vs {:?}", k, f, d);
        }
    }

    #[test]
    fn dispatching_sliding_corr_agrees_with_naive(
        signal in prop::collection::vec(-1.0f64..1.0, 64..600),
        template in prop::collection::vec(-1.0f64..1.0, 2..96),
    ) {
        // Whatever path the heuristic picks, the answer is the same.
        let auto = sliding_corr(&signal, &template);
        let naive = sliding_corr_naive(&signal, &template);
        for (off, (a, n)) in auto.iter().zip(&naive).enumerate() {
            prop_assert!((a - n).abs() <= 1e-9, "offset {}: {} vs {}", off, a, n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_complex_corr_is_bit_identical_to_fold(
        probe in prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 1..=200),
        raw in prop::collection::vec((-3.0f64..3.0, -3.0f64..3.0), 64..=256),
        blocks in 0usize..6,
    ) {
        let probe: Vec<Complex64> = probe.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        // Every residue of the offset count mod 8 (the AVX kernel's block
        // size), plus a single offset (samples exactly as long as the
        // probe); the one-tap prefix of the probe rides along.
        for l in [probe.len(), 1] {
            for n_off in std::iter::once(1).chain((0..8).map(|r| 8 * blocks + r)).filter(|&n| n > 0) {
                let mismatch = check_complex_corr(&complex_samples(&raw, n_off, l), &probe[..l]);
                prop_assert!(mismatch.is_none(), "l={} n_off={}: {:?}", l, n_off, mismatch);
            }
        }
    }
}

#[test]
fn complex_corr_edge_sizes() {
    let raw: Vec<(f64, f64)> =
        (0..173).map(|k| ((k as f64 * 0.37).sin(), (k as f64 * 1.13).cos())).collect();
    let probe_of = |l: usize| -> Vec<Complex64> {
        (0..l).map(|i| Complex64::new((i as f64 * 0.71).cos(), -(i as f64 * 0.29).sin())).collect()
    };
    // The longest probe the property draws, and the 802.11n L-STF length.
    for l in [200, 160] {
        for n_off in [1, 7, 8, 9, 8 * 5 + 3] {
            let mismatch = check_complex_corr(&complex_samples(&raw, n_off, l), &probe_of(l));
            assert!(mismatch.is_none(), "l={l} n_off={n_off}: {mismatch:?}");
        }
    }
    let samples = complex_samples(&raw, 16, 1);
    for corr in [complex_sliding_corr, complex_sliding_corr_direct, complex_sliding_corr_scalar] {
        assert!(corr(&samples, &[]).is_empty(), "empty probe");
        assert!(corr(&samples[..3], &samples[..4]).is_empty(), "samples shorter than probe");
        assert!(corr(&[], &[]).is_empty(), "both empty");
    }
}
