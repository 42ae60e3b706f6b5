//! Runtime SIMD capability probes and the workspace's vectorized
//! complex-sample kernels.
//!
//! Every vectorized kernel (the FFT butterfly, the correlators, the
//! kernels here) gates on the two probes below, each a `OnceLock`ed
//! `is_x86_feature_detected!` — one relaxed load per call. On non-x86
//! targets both return `false` and every kernel takes its scalar path.
//!
//! This is the one home for vector transcendentals (a four-wide `ln`
//! and `sin`/`cos`). They back [`rotate`], the mixer behind every CFO
//! (the channel's offset and each receiver's correction), and
//! [`add_box_muller`], the AWGN kernel; both stay within `1e-12` of
//! their `*_scalar` twins. [`mul_by_gain`] is bit-identical to
//! `Complex64: Mul`.

use crate::complex::Complex64;

#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// True when the AVX (256-bit float) kernels are usable on this
/// machine. Probed once per process.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn avx_available() -> bool {
    static AVX: OnceLock<bool> = OnceLock::new();
    *AVX.get_or_init(|| std::arch::is_x86_feature_detected!("avx"))
}

/// True when the AVX2 + FMA kernels are usable on this machine. The
/// vectorized `ln`/`sincos` use fused multiply-adds, so the probe
/// requires both features. Probed once per process.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// Non-x86 fallback: no AVX.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn avx_available() -> bool {
    false
}

/// Non-x86 fallback: no AVX2.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn avx2_available() -> bool {
    false
}

/// Multiplies sample `n` by `exp(j·step·n)` in place. The AVX2 path
/// forms the same phase `step·n` and differs from [`rotate_scalar`]
/// only through the vector `sin`/`cos` (≤ 1e-12 per sample).
pub fn rotate(samples: &mut [Complex64], step: f64) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2+FMA support was just probed at runtime.
        unsafe { avx::rotate(samples, step) };
        return;
    }
    rotate_scalar(samples, step);
}

/// [`rotate`]'s scalar reference: `s.rotate(step·n)` per sample.
pub fn rotate_scalar(samples: &mut [Complex64], step: f64) {
    for (n, s) in samples.iter_mut().enumerate() {
        *s = s.rotate(step * n as f64);
    }
}

/// `samples[i] *= h`, bit-identical to `Complex64: Mul` (the AVX path
/// performs the same two products and one commuted addition per part).
pub fn mul_by_gain(samples: &mut [Complex64], h: Complex64) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX support was just probed at runtime.
        unsafe { avx::mul_by_gain(samples, h) };
        return;
    }
    for s in samples {
        *s *= h;
    }
}

/// Adds `amp·√(−2 ln u₁)·e^{j2πu₂}` to every sample, drawing `(u₁, u₂)`
/// from `draw` once per sample, in order. The AVX2 path buffers four
/// draws and vectorizes only the transcendentals, so it consumes the
/// caller's RNG exactly as [`add_box_muller_scalar`] does and lands
/// within `1e-12` of it.
pub fn add_box_muller(samples: &mut [Complex64], amp: f64, mut draw: impl FnMut() -> (f64, f64)) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        let mut quads = samples.chunks_exact_mut(4);
        for quad in &mut quads {
            let (mut u1, mut u2) = ([0.0f64; 4], [0.0f64; 4]);
            for k in 0..4 {
                (u1[k], u2[k]) = draw();
            }
            // SAFETY: AVX2+FMA support was just probed at runtime.
            unsafe { avx::noise_quad(&u1, &u2, amp, quad) };
        }
        add_box_muller_scalar(quads.into_remainder(), amp, draw);
        return;
    }
    add_box_muller_scalar(samples, amp, draw);
}

/// [`add_box_muller`]'s scalar reference, `to_bits`-equal to adding
/// `msc_channel::awgn::complex_gaussian` per sample.
pub fn add_box_muller_scalar(
    samples: &mut [Complex64],
    amp: f64,
    mut draw: impl FnMut() -> (f64, f64),
) {
    for s in samples {
        let (u1, u2) = draw();
        let r = (-2.0 * u1.ln()).sqrt() * amp;
        let theta = std::f64::consts::TAU * u2;
        *s += Complex64::new(r * theta.cos(), r * theta.sin());
    }
}

/// AVX/AVX2 inner loops, reached only behind the runtime probes above.
#[cfg(target_arch = "x86_64")]
mod avx {
    use crate::complex::Complex64;
    use std::arch::x86_64::*;

    /// `samples[i] *= h` using the FFT butterfly's addsub recipe: the
    /// same two products and one (commuted) addition as `Complex64: Mul`.
    /// # Safety
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    pub unsafe fn mul_by_gain(samples: &mut [Complex64], h: Complex64) {
        let (wr, wi) = (_mm256_set1_pd(h.re), _mm256_set1_pd(h.im));
        let mut pairs = samples.chunks_exact_mut(2);
        for pair in &mut pairs {
            let p = pair.as_mut_ptr() as *mut f64;
            let b = _mm256_loadu_pd(p); // [re0, im0, re1, im1]
            let bs = _mm256_permute_pd(b, 0b0101); // [im0, re0, im1, re1]
            _mm256_storeu_pd(p, _mm256_addsub_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(bs, wi)));
        }
        for s in pairs.into_remainder() {
            *s *= h;
        }
    }

    /// `ln` over four doubles in `(0, 1]` (normal, positive): exponent
    /// extraction plus an `atanh` series on `t = (m−1)/(m+1)`.
    /// Truncation error ≤ 4.4e-13 absolute over the Box–Muller input
    /// range; well inside the 1e-12 kernel-equivalence budget.
    // Constants quoted at fdlibm's printed precision; they round to
    // the intended f64 bit patterns (the hi/lo split is the point).
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[allow(clippy::excessive_precision)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn ln_pd(x: __m256d) -> __m256d {
        const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
        const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
        let one = _mm256_set1_pd(1.0);
        let xi = _mm256_castpd_si256(x);
        // Unbiased exponent as f64 via the 2^52 magic-number trick.
        let exp_raw = _mm256_srli_epi64::<52>(xi);
        let magic = _mm256_set1_epi64x(0x4330_0000_0000_0000u64 as i64);
        let e = _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(exp_raw, magic)),
            _mm256_set1_pd(4_503_599_627_370_496.0 + 1023.0),
        );
        // Mantissa in [1, 2); fold into [1/√2, √2) so t stays small.
        let mant = _mm256_set1_epi64x(0x000F_FFFF_FFFF_FFFFu64 as i64);
        let m = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(xi, mant),
            _mm256_set1_epi64x(0x3FF0_0000_0000_0000u64 as i64),
        ));
        let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(m, _mm256_set1_pd(std::f64::consts::SQRT_2));
        let m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), gt);
        let e = _mm256_add_pd(e, _mm256_and_pd(gt, one));
        // atanh series: ln m = 2t·(1 + w/3 + w²/5 + … + w⁷/15), w = t².
        let t = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
        let w = _mm256_mul_pd(t, t);
        let mut poly = _mm256_set1_pd(1.0 / 15.0);
        for c in [1.0 / 13.0, 1.0 / 11.0, 1.0 / 9.0, 1.0 / 7.0, 1.0 / 5.0, 1.0 / 3.0] {
            poly = _mm256_fmadd_pd(poly, w, _mm256_set1_pd(c));
        }
        let two_t = _mm256_add_pd(t, t);
        let ln_m = _mm256_fmadd_pd(_mm256_mul_pd(two_t, w), poly, two_t);
        // ln x = e·LN2_HI + ln m + e·LN2_LO (e ≤ 40 ⇒ e·LN2_HI exact).
        let r = _mm256_fmadd_pd(e, _mm256_set1_pd(LN2_LO), ln_m);
        _mm256_fmadd_pd(e, _mm256_set1_pd(LN2_HI), r)
    }

    /// Four-way `sin`/`cos` with two-term Cody–Waite reduction and the
    /// fdlibm kernel polynomials; accurate to ~1e-15 for the phase
    /// magnitudes the mixers and Box–Muller produce (|θ| ≲ 1e4).
    // PIO2_HI is the high word of the Cody–Waite π/2 split, not a
    // stand-in for FRAC_PI_2; all constants keep fdlibm's printed
    // precision so they round to the intended bit patterns.
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[allow(clippy::approx_constant, clippy::excessive_precision)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sincos_pd(theta: __m256d) -> (__m256d, __m256d) {
        const PIO2_HI: f64 = 1.570_796_326_794_896_558_00e+00;
        const PIO2_LO: f64 = 6.123_233_995_736_766_036e-17;
        const S: [f64; 6] = [
            -1.666_666_666_666_663_243_48e-01,
            8.333_333_333_322_489_461_24e-03,
            -1.984_126_982_985_794_931_34e-04,
            2.755_731_370_707_006_767_89e-06,
            -2.505_076_025_340_686_341_95e-08,
            1.589_690_995_211_550_102_21e-10,
        ];
        const C: [f64; 6] = [
            4.166_666_666_666_660_190_37e-02,
            -1.388_888_888_887_410_957_49e-03,
            2.480_158_728_947_672_941_78e-05,
            -2.755_731_435_139_066_330_35e-07,
            2.087_572_321_298_174_827_90e-09,
            -1.135_964_755_778_819_482_65e-11,
        ];
        let k = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_pd(theta, _mm256_set1_pd(std::f64::consts::FRAC_2_PI)),
        );
        let x = _mm256_fnmadd_pd(k, _mm256_set1_pd(PIO2_HI), theta);
        let x = _mm256_fnmadd_pd(k, _mm256_set1_pd(PIO2_LO), x);
        // Quadrant: low bits of (k + 1.5·2^52); 2^51 ≡ 0 (mod 4) keeps
        // negative k correct.
        let q = _mm256_castpd_si256(_mm256_add_pd(k, _mm256_set1_pd(6_755_399_441_055_744.0)));
        let swap = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            _mm256_and_si256(q, _mm256_set1_epi64x(1)),
            _mm256_set1_epi64x(1),
        ));
        let two = _mm256_set1_epi64x(2);
        let sin_sign = _mm256_castsi256_pd(_mm256_slli_epi64::<62>(_mm256_and_si256(q, two)));
        let cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64::<62>(_mm256_and_si256(
            _mm256_add_epi64(q, _mm256_set1_epi64x(1)),
            two,
        )));
        let z = _mm256_mul_pd(x, x);
        let mut sp = _mm256_set1_pd(S[5]);
        for c in [S[4], S[3], S[2], S[1], S[0]] {
            sp = _mm256_fmadd_pd(sp, z, _mm256_set1_pd(c));
        }
        let sin_x = _mm256_fmadd_pd(_mm256_mul_pd(x, z), sp, x);
        let mut cp = _mm256_set1_pd(C[5]);
        for c in [C[4], C[3], C[2], C[1], C[0]] {
            cp = _mm256_fmadd_pd(cp, z, _mm256_set1_pd(c));
        }
        let cos_x = _mm256_fmadd_pd(
            _mm256_mul_pd(z, z),
            cp,
            _mm256_fnmadd_pd(z, _mm256_set1_pd(0.5), _mm256_set1_pd(1.0)),
        );
        let sin_base = _mm256_blendv_pd(sin_x, cos_x, swap);
        let cos_base = _mm256_blendv_pd(cos_x, sin_x, swap);
        (_mm256_xor_pd(sin_base, sin_sign), _mm256_xor_pd(cos_base, cos_sign))
    }

    /// Adds four Box–Muller samples (uniforms pre-drawn in RNG order)
    /// to four consecutive complex samples.
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn noise_quad(u1: &[f64; 4], u2: &[f64; 4], amp: f64, out: &mut [Complex64]) {
        assert_eq!(out.len(), 4, "the stores below write exactly four samples");
        let u1v = _mm256_loadu_pd(u1.as_ptr());
        let u2v = _mm256_loadu_pd(u2.as_ptr());
        let r = _mm256_mul_pd(
            _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), ln_pd(u1v))),
            _mm256_set1_pd(amp),
        );
        let (s, c) = sincos_pd(_mm256_mul_pd(_mm256_set1_pd(std::f64::consts::TAU), u2v));
        let re = _mm256_mul_pd(r, c);
        let im = _mm256_mul_pd(r, s);
        // Interleave [re_k] / [im_k] into (re, im) pair order.
        let lo = _mm256_unpacklo_pd(re, im); // [re0, im0, re2, im2]
        let hi = _mm256_unpackhi_pd(re, im); // [re1, im1, re3, im3]
        let ab = _mm256_permute2f128_pd::<0x20>(lo, hi);
        let cd = _mm256_permute2f128_pd::<0x31>(lo, hi);
        let p = out.as_mut_ptr() as *mut f64;
        _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), ab));
        _mm256_storeu_pd(p.add(4), _mm256_add_pd(_mm256_loadu_pd(p.add(4)), cd));
    }

    /// In-place rotation: per-sample phase `step·n` (the same product
    /// as the scalar path) with vectorized `sin`/`cos`, applied
    /// through the bit-exact addsub complex multiply.
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn rotate(samples: &mut [Complex64], step: f64) {
        let n4 = samples.len() / 4 * 4;
        let stepv = _mm256_set1_pd(step);
        let p = samples.as_mut_ptr() as *mut f64;
        let mut n = 0usize;
        while n < n4 {
            let idx = _mm256_set_pd((n + 3) as f64, (n + 2) as f64, (n + 1) as f64, n as f64);
            let (s, c) = sincos_pd(_mm256_mul_pd(stepv, idx));
            // Interleave into two [c, s, c, s] rotation vectors.
            let lo = _mm256_unpacklo_pd(c, s); // [c0, s0, c2, s2]
            let hi = _mm256_unpackhi_pd(c, s); // [c1, s1, c3, s3]
            let w01 = _mm256_permute2f128_pd::<0x20>(lo, hi);
            let w23 = _mm256_permute2f128_pd::<0x31>(lo, hi);
            for (off, w) in [(0usize, w01), (2usize, w23)] {
                let wr = _mm256_movedup_pd(w); // [c, c, c, c] per pair
                let wi = _mm256_permute_pd(w, 0b1111); // [s, s, s, s] per pair
                let b = _mm256_loadu_pd(p.add(2 * (n + off)));
                let bs = _mm256_permute_pd(b, 0b0101);
                let y = _mm256_addsub_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(bs, wi));
                _mm256_storeu_pd(p.add(2 * (n + off)), y);
            }
            n += 4;
        }
        for (i, s) in samples.iter_mut().enumerate().skip(n4) {
            *s = s.rotate(step * i as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn samples(seed: u64, n: usize) -> Vec<Complex64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x.re - y.re).abs().max((x.im - y.im).abs()))
            .fold(0.0, f64::max)
    }

    /// Box–Muller uniforms in the order `awgn::complex_gaussian` draws.
    fn uniforms(rng: &mut StdRng) -> (f64, f64) {
        (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0))
    }

    #[test]
    fn mul_by_gain_is_bit_identical_to_complex_mul() {
        for h in [Complex64::new(0.83, -0.41), Complex64::new(-1.7, 2.2e-3)] {
            for n in [0usize, 1, 2, 201] {
                let mut fast = samples(n as u64, n);
                let mut want = fast.clone();
                mul_by_gain(&mut fast, h);
                for s in &mut want {
                    *s *= h;
                }
                for (x, y) in fast.iter().zip(&want) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits(), "h {h:?} n {n}");
                    assert_eq!(x.im.to_bits(), y.im.to_bits(), "h {h:?} n {n}");
                }
            }
        }
    }

    #[test]
    fn noise_tracks_scalar_within_1e12_same_rng_stream() {
        // 515 samples: the odd tail exercises the scalar fallback.
        let (mut fast, mut want) = (samples(3, 515), samples(3, 515));
        let (mut r1, mut r2) = (StdRng::seed_from_u64(0xabc), StdRng::seed_from_u64(0xabc));
        add_box_muller(&mut fast, 0.43, || uniforms(&mut r1));
        add_box_muller_scalar(&mut want, 0.43, || uniforms(&mut r2));
        assert!(max_err(&fast, &want) <= 1e-12, "err {}", max_err(&fast, &want));
        // Both paths end at the same RNG position.
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn noise_moments_are_sane() {
        let mut z = vec![Complex64::ZERO; 40_000];
        let mut rng = StdRng::seed_from_u64(0xabc);
        let sigma2 = 0.5;
        add_box_muller(&mut z, (sigma2 / 2.0f64).sqrt(), || uniforms(&mut rng));
        let n = z.len() as f64;
        let mean: f64 = z.iter().map(|s| s.re + s.im).sum::<f64>() / (2.0 * n);
        let power: f64 = z.iter().map(|s| s.norm_sqr()).sum::<f64>() / n;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((power - sigma2).abs() < 0.02, "power {power}");
    }

    #[test]
    fn rotate_tracks_scalar_within_1e12() {
        // Steps from a receiver's CFO correction (−31.25 kHz at 8 MHz)
        // up to a quarter-rate shift; 1003 samples leave a scalar tail.
        for step in [std::f64::consts::TAU * -31_250.0 / 8e6, 0.37, std::f64::consts::FRAC_PI_2] {
            let (mut fast, mut want) = (samples(5, 1003), samples(5, 1003));
            rotate(&mut fast, step);
            rotate_scalar(&mut want, step);
            assert!(max_err(&fast, &want) <= 1e-12, "step {step}: err {}", max_err(&fast, &want));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_noise_quad_matches_complex_gaussian_within_1e12() {
        if !avx2_available() {
            return;
        }
        // Compare the vector transcendentals against libm across many
        // uniform pairs, including u1 near both ends of (0, 1).
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let mut u1 = [0.0f64; 4];
            let mut u2 = [0.0f64; 4];
            for k in 0..4 {
                (u1[k], u2[k]) = uniforms(&mut rng);
            }
            let mut out = [Complex64::new(0.0, 0.0); 4];
            unsafe { avx::noise_quad(&u1, &u2, 0.7, &mut out) };
            for k in 0..4 {
                let r = (-2.0 * u1[k].ln()).sqrt() * 0.7;
                let theta = std::f64::consts::TAU * u2[k];
                let want = Complex64::new(r * theta.cos(), r * theta.sin());
                assert!(
                    (out[k].re - want.re).abs() <= 1e-12 && (out[k].im - want.im).abs() <= 1e-12,
                    "u1={} u2={} got={:?} want={:?}",
                    u1[k],
                    u2[k],
                    out[k],
                    want
                );
            }
        }
    }

    #[test]
    fn probes_are_stable_and_consistent() {
        // Two calls must agree (OnceLock caches the probe) and AVX2+FMA
        // implies AVX on every real microarchitecture.
        assert_eq!(avx_available(), avx_available());
        assert_eq!(avx2_available(), avx2_available());
        if avx2_available() {
            assert!(avx_available(), "AVX2+FMA without AVX is not a real target");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn matches_direct_detection() {
        assert_eq!(avx_available(), std::arch::is_x86_feature_detected!("avx"));
        assert_eq!(
            avx2_available(),
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        );
    }
}
