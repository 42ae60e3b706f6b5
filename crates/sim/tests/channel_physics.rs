//! The uplink channel against closed forms, not against an earlier copy
//! of itself: the AWGN that `Impairments::apply` adds has power 1/SNR
//! per sample (at the buffer's own sample rate) with independent,
//! equal-variance I and Q, and the flat fading gains have the moments
//! of their distributions. Every bound is a 99.9% interval of the
//! estimator's sampling distribution (χ² for powers, the normal limit
//! for means and correlations), so a failure is a physics error, not a
//! tolerance to widen.

use msc_channel::Fading;
use msc_dsp::units::db_to_lin;
use msc_dsp::{Complex64, IqBuf, SampleRate};
use msc_sim::pipeline::Impairments;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two-sided 99.9% normal quantile.
const Z: f64 = 3.2905;

/// The `z` quantile of χ² with `nu` degrees of freedom, by the
/// Wilson–Hilferty cube (relative error far below the intervals' width
/// at the `nu` used here).
fn chi2_quantile(nu: f64, z: f64) -> f64 {
    let a = 2.0 / (9.0 * nu);
    nu * (1.0 - a + z * a.sqrt()).powi(3)
}

/// Asserts that `sum_sq`, a sum of `nu` squared zero-mean normals of
/// variance `var` each, lies inside its 99.9% χ² interval.
fn assert_chi2(sum_sq: f64, var: f64, nu: f64, what: &str) {
    let x = sum_sq / var;
    let (lo, hi) = (chi2_quantile(nu, -Z), chi2_quantile(nu, Z));
    assert!(lo <= x && x <= hi, "{what}: χ²({nu}) statistic {x:.1} outside [{lo:.1}, {hi:.1}]");
}

/// A waveform of uneven, non-unit power at 8 MHz.
fn wave(n: usize, seed: u64) -> IqBuf {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = (0..n)
        .map(|k| Complex64::cis(k as f64 * 0.41).scale(0.1 + rng.gen_range(0.0..2.0)))
        .collect();
    IqBuf::new(samples, SampleRate::mhz(8.0))
}

#[test]
fn noise_power_is_one_over_snr_per_sample() {
    const N: usize = 16_384;
    let input = wave(N, 1);
    let k = 1.0 / input.mean_power().sqrt();
    for (i, snr_db) in [-5.0, 0.0, 10.0, 20.0].into_iter().enumerate() {
        for (j, fading) in [Fading::None, Fading::los(), Fading::Rayleigh].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(40 + 3 * i as u64 + j as u64);
            // The gain is the channel's first draw.
            let h = fading.sample(&mut rng.clone());
            let mut out = input.clone();
            Impairments::snr(snr_db, fading).apply(&mut rng, &mut out);
            let sum_sq: f64 = out
                .samples()
                .iter()
                .zip(input.samples())
                .map(|(&y, &x)| (y - h * x.scale(k)).norm_sqr())
                .sum();
            // Each of the 2N real components is N(0, σ²/2), σ² = 1/SNR.
            let var = 0.5 / db_to_lin(snr_db);
            assert_chi2(sum_sq, var, 2.0 * N as f64, &format!("{snr_db} dB, {fading:?}"));
        }
    }
}

#[test]
fn noise_i_and_q_have_equal_variance_and_no_correlation() {
    const N: usize = 100_000;
    let mut out = IqBuf::zeros(N, SampleRate::mhz(8.0));
    Impairments::snr(0.0, Fading::None).apply(&mut StdRng::seed_from_u64(7), &mut out);
    let n = N as f64;
    let (mut ii, mut qq, mut iq, mut si, mut sq) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for s in out.samples() {
        (ii, qq, iq, si, sq) =
            (ii + s.re * s.re, qq + s.im * s.im, iq + s.re * s.im, si + s.re, sq + s.im);
    }
    // Unit noise power: each part N(0, 1/2).
    assert_chi2(ii, 0.5, n, "I");
    assert_chi2(qq, 0.5, n, "Q");
    let mean_bound = Z * (0.5 / n).sqrt();
    assert!((si / n).abs() <= mean_bound && (sq / n).abs() <= mean_bound, "means {si} {sq}");
    // ln(ΣI²/ΣQ²) → N(0, 4/N) for equal variances.
    let log_ratio = (ii / qq).ln();
    assert!(log_ratio.abs() <= Z * 2.0 / n.sqrt(), "ln(var I / var Q) = {log_ratio}");
    // The sample correlation of independent parts → N(0, 1/N).
    let r = iq / (ii * qq).sqrt();
    assert!(r.abs() <= Z / n.sqrt(), "I/Q correlation {r}");
}

#[test]
fn rician_gain_has_its_los_mean_and_scatter_variance() {
    const M: usize = 40_000;
    for (k, seed) in [(8.0, 11u64), (2.0, 12)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let h: Vec<Complex64> = (0..M).map(|_| Fading::Rician { k }.sample(&mut rng)).collect();
        let m = M as f64;
        let (los, scatter) = ((k / (k + 1.0)).sqrt(), 1.0 / (k + 1.0));
        let mean = h.iter().fold(Complex64::ZERO, |a, &b| a + b) / m;
        // Each part of the mean has variance (scatter/2)/M.
        let bound = Z * (scatter / 2.0 / m).sqrt();
        assert!((mean.re - los).abs() <= bound, "K {k}: E[h].re {} vs {los}", mean.re);
        assert!(mean.im.abs() <= bound, "K {k}: E[h].im {}", mean.im);
        let sum_sq: f64 = h.iter().map(|&g| (g - Complex64::new(los, 0.0)).norm_sqr()).sum();
        assert_chi2(sum_sq, scatter / 2.0, 2.0 * m, &format!("K {k} scatter"));
    }
}

#[test]
fn rayleigh_gain_has_unit_mean_power() {
    const M: usize = 40_000;
    let mut rng = StdRng::seed_from_u64(13);
    let sum_sq: f64 = (0..M).map(|_| Fading::Rayleigh.sample(&mut rng).norm_sqr()).sum();
    // |h|² of a unit-power circular Gaussian: 2M parts of variance 1/2.
    assert_chi2(sum_sq, 0.5, 2.0 * M as f64, "Rayleigh |h|²");
}
