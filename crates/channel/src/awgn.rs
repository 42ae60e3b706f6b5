//! Additive white Gaussian noise, alone or fused with the uplink's
//! unit-power scale and flat fading gain in one pass, and thermal-noise
//! bookkeeping.

use msc_dsp::units::{db_to_lin, dbm_to_watts, watts_to_dbm};
use msc_dsp::{simd, Complex64, IqBuf};
use rand::Rng;

/// Thermal noise floor in dBm for bandwidth `bw_hz` at 290 K with a
/// receiver noise figure `nf_db`: `-174 + 10·log10(bw) + NF`.
pub fn noise_floor_dbm(bw_hz: f64, nf_db: f64) -> f64 {
    -174.0 + 10.0 * bw_hz.log10() + nf_db
}

/// The Box–Muller uniform pair `(u₁, u₂)`, drawn in the order every
/// Gaussian in the workspace consumes them.
fn box_muller_uniforms<R: Rng>(rng: &mut R) -> (f64, f64) {
    (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0))
}

/// Draws one complex Gaussian sample with total variance `sigma2`
/// (split evenly between I and Q) using Box–Muller.
pub fn complex_gaussian<R: Rng>(rng: &mut R, sigma2: f64) -> Complex64 {
    let (u1, u2) = box_muller_uniforms(rng);
    let r = (-2.0 * u1.ln()).sqrt() * (sigma2 / 2.0).sqrt();
    let theta = std::f64::consts::TAU * u2;
    Complex64::new(r * theta.cos(), r * theta.sin())
}

/// Adds AWGN of total power `noise_power` (linear, same units as the
/// signal's `mean_power`) to a buffer: the RNG stream of [`complex_gaussian`]
/// per sample, within `1e-12` of it ([`scale_fade_add_noise`] with
/// neither scale nor gain).
pub fn add_noise<R: Rng>(rng: &mut R, buf: &mut IqBuf, noise_power: f64) {
    scale_fade_add_noise(rng, buf, None, None, noise_power);
}

/// Scales a buffer by `k`, multiplies it by a flat gain `h` and adds
/// AWGN of total power `noise_power`, in one pass
/// ([`msc_dsp::simd::scale_fade_box_muller`]); `None` skips that step.
/// The noise is [`add_noise`]'s, on the same RNG stream. Without noise
/// (`noise_power ≤ 0`) nothing is drawn, and the scale and gain run as
/// plain passes.
pub fn scale_fade_add_noise<R: Rng>(
    rng: &mut R,
    buf: &mut IqBuf,
    k: Option<f64>,
    h: Option<Complex64>,
    noise_power: f64,
) {
    if noise_power <= 0.0 {
        if let Some(k) = k {
            buf.scale(k);
        }
        if let Some(h) = h {
            simd::mul_by_gain(buf.samples_mut(), h);
        }
        return;
    }
    let amp = (noise_power / 2.0).sqrt();
    simd::scale_fade_box_muller(buf.samples_mut(), k, h, amp, || box_muller_uniforms(rng));
}

/// Adds noise at a target SNR (dB) relative to the buffer's own mean
/// power. Returns the noise power used.
pub fn add_noise_snr<R: Rng>(rng: &mut R, buf: &mut IqBuf, snr_db: f64) -> f64 {
    let p = buf.mean_power();
    let noise = p / db_to_lin(snr_db);
    add_noise(rng, buf, noise);
    noise
}

/// RSSI estimate in dBm of a buffer whose samples are scaled such that
/// unit mean power corresponds to `ref_dbm`.
pub fn rssi_dbm(buf: &IqBuf, ref_dbm: f64) -> f64 {
    let p = buf.mean_power();
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    watts_to_dbm(p * dbm_to_watts(ref_dbm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_dsp::SampleRate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noise_floor_known_values() {
        // 20 MHz, NF 6 dB → ≈ -95 dBm.
        let v = noise_floor_dbm(20e6, 6.0);
        assert!((v - (-95.0)).abs() < 0.1, "floor {v}");
        // 2 MHz (BLE/ZigBee) is 10 dB lower.
        assert!((noise_floor_dbm(2e6, 6.0) - (v - 10.0)).abs() < 0.01);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(71);
        let sigma2 = 2.5;
        let n = 200_000;
        let mut sum = Complex64::ZERO;
        let mut pow = 0.0;
        for _ in 0..n {
            let z = complex_gaussian(&mut rng, sigma2);
            sum += z;
            pow += z.norm_sqr();
        }
        let mean = sum / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean:?}");
        let var = pow / n as f64;
        assert!((var - sigma2).abs() < 0.05, "var {var}");
    }

    #[test]
    fn add_noise_snr_hits_target() {
        let mut rng = StdRng::seed_from_u64(72);
        let clean = IqBuf::new(vec![Complex64::ONE; 50_000], SampleRate::mhz(20.0));
        let mut noisy = clean.clone();
        add_noise_snr(&mut rng, &mut noisy, 10.0);
        // Measured noise power should be ~0.1 of signal power.
        let noise_power: f64 = noisy
            .samples()
            .iter()
            .zip(clean.samples())
            .map(|(&a, &b)| (a - b).norm_sqr())
            .sum::<f64>()
            / clean.len() as f64;
        assert!((noise_power - 0.1).abs() < 0.01, "noise {noise_power}");
    }

    #[test]
    fn add_noise_tracks_complex_gaussian_within_1e12_same_rng_stream() {
        let ramp = |n: usize| -> Vec<Complex64> {
            (0..n).map(|k| Complex64::new((k as f64 * 0.3).sin(), -(k as f64) / n as f64)).collect()
        };
        for n in [1usize, 4, 515] {
            let clean = IqBuf::new(ramp(n), SampleRate::mhz(8.0));
            let seeded = || StdRng::seed_from_u64(74);
            let (mut r_fast, mut r_ref, mut r_scalar) = (seeded(), seeded(), seeded());
            let mut fast = clean.clone();
            add_noise(&mut r_fast, &mut fast, 0.37);
            let mut want = clean.clone();
            for s in want.samples_mut() {
                *s += complex_gaussian(&mut r_ref, 0.37);
            }
            let mut scalar = clean.clone();
            simd::add_box_muller_scalar(scalar.samples_mut(), (0.37f64 / 2.0).sqrt(), || {
                box_muller_uniforms(&mut r_scalar)
            });
            // The scalar kernel is the per-sample reference, bit for bit.
            assert_eq!(scalar, want, "n {n}");
            for (a, b) in fast.samples().iter().zip(want.samples()) {
                assert!((a.re - b.re).abs() <= 1e-12 && (a.im - b.im).abs() <= 1e-12, "n {n}");
            }
            // All three consumed the identical RNG positions.
            let next = r_ref.gen::<u64>();
            assert_eq!(r_fast.gen::<u64>(), next, "n {n}");
            assert_eq!(r_scalar.gen::<u64>(), next, "n {n}");
        }
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = StdRng::seed_from_u64(73);
        let mut buf = IqBuf::new(vec![Complex64::ONE; 16], SampleRate::mhz(1.0));
        add_noise(&mut rng, &mut buf, 0.0);
        assert!(buf.samples().iter().all(|&s| s == Complex64::ONE));
    }

    #[test]
    fn rssi_reference_scaling() {
        let buf = IqBuf::new(vec![Complex64::new(0.1, 0.0); 100], SampleRate::mhz(1.0));
        // mean power 0.01 → -20 dB relative to reference.
        assert!((rssi_dbm(&buf, -30.0) - (-50.0)).abs() < 1e-9);
        assert_eq!(rssi_dbm(&IqBuf::zeros(4, SampleRate::mhz(1.0)), 0.0), f64::NEG_INFINITY);
    }
}
