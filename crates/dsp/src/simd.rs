//! Runtime SIMD capability probes and the workspace's vectorized
//! complex-sample kernels.
//!
//! Every vectorized kernel (the FFT butterfly, the correlators, the
//! kernels here) gates on the two probes below, each a `OnceLock`ed
//! `is_x86_feature_detected!` — one relaxed load per call. On non-x86
//! targets both return `false` and every kernel takes its scalar path.
//! The uplink noise kernel alone also has an eight-wide AVX-512F/DQ
//! form behind a third, private probe, `to_bits`-equal to its AVX2
//! form.
//!
//! This is the one home for vector transcendentals (a four-wide `ln`,
//! `sin`/`cos` and `atan2`). They back [`rotate`], the mixer behind
//! every CFO (the channel's offset and each receiver's correction),
//! [`scale_fade_box_muller`], the uplink channel's one fused pass of
//! unit-power scale, flat gain and AWGN (and, with neither scale nor
//! gain, [`add_box_muller`]), and [`fm_am_envelope`], the tag's slope
//! detector; all three stay within `1e-12` of their `*_scalar` twins.
//! [`mul_by_gain`] is bit-identical to `Complex64: Mul`, and
//! [`resample_quantize`], the tag's ADC, to its scalar twin.

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

/// True when the AVX-512F/DQ noise kernel is usable: the AVX2 + FMA
/// probe plus both AVX-512 features. Probed once per process.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_available() -> bool {
    static AVX512: OnceLock<bool> = OnceLock::new();
    *AVX512.get_or_init(|| {
        avx2_available()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
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

/// Uniform pairs the AVX2 noise path draws ahead per block: two
/// 2 KiB stack arrays.
const NOISE_BLOCK: usize = 256;

/// Adds `amp·√(−2 ln u₁)·e^{j2πu₂}` to every sample, drawing `(u₁, u₂)`
/// from `draw` once per sample, in order: [`scale_fade_box_muller`]
/// with neither scale nor gain.
pub fn add_box_muller(samples: &mut [Complex64], amp: f64, draw: impl FnMut() -> (f64, f64)) {
    scale_fade_box_muller(samples, None, None, amp, draw);
}

/// [`add_box_muller`]'s scalar reference, `to_bits`-equal to adding
/// `msc_channel::awgn::complex_gaussian` per sample.
pub fn add_box_muller_scalar(
    samples: &mut [Complex64],
    amp: f64,
    draw: impl FnMut() -> (f64, f64),
) {
    scale_fade_box_muller_scalar(samples, None, None, amp, draw);
}

/// The uplink channel's one fused pass: each sample becomes
/// `(s·k)·h + amp·√(−2 ln u₁)·e^{j2πu₂}`, the scale skipped when `k` is
/// `None` and the gain when `h` is, drawing `(u₁, u₂)` from `draw` once
/// per sample, in order. The AVX2 path draws up to 256
/// pairs ahead into two stack arrays and then runs one vector loop over
/// the block, four samples per step. Where AVX-512F/DQ is present the
/// loop runs eight samples per step, every lane the same IEEE
/// operations in the same order (the two widths agree `to_bits`), and
/// draws the next block's pairs while it runs. The `len % 4` tail
/// takes the scalar twin after every full quad. The scale and the `addsub` gain
/// are the same IEEE operations as `Complex64::scale` and `Mul`, so
/// only the vector `ln`/`sincos` separate it from
/// [`scale_fade_box_muller_scalar`] (within `1e-12`), and both consume
/// the caller's RNG identically.
pub fn scale_fade_box_muller(
    samples: &mut [Complex64],
    k: Option<f64>,
    h: Option<Complex64>,
    amp: f64,
    mut draw: impl FnMut() -> (f64, f64),
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        let (quads, tail) = samples.split_at_mut(samples.len() / 4 * 4);
        if avx512_available() {
            // SAFETY: AVX-512F/DQ and AVX2+FMA support were just probed.
            unsafe { avx::scale_fade_box_muller_x8(quads, &mut draw, k, h, amp) };
        } else {
            let (mut u1, mut u2) = ([0.0f64; NOISE_BLOCK], [0.0f64; NOISE_BLOCK]);
            for block in quads.chunks_mut(NOISE_BLOCK) {
                for (a, b) in u1.iter_mut().zip(&mut u2).take(block.len()) {
                    (*a, *b) = draw();
                }
                // SAFETY: AVX2+FMA support was just probed at runtime.
                unsafe { avx::scale_fade_box_muller(block, &u1, &u2, k, h, amp) };
            }
        }
        scale_fade_box_muller_scalar(tail, k, h, amp, draw);
        return;
    }
    scale_fade_box_muller_scalar(samples, k, h, amp, draw);
}

/// [`scale_fade_box_muller`]'s scalar reference: per sample
/// `Complex64::scale`, `Complex64: Mul` and libm Box–Muller.
pub fn scale_fade_box_muller_scalar(
    samples: &mut [Complex64],
    k: Option<f64>,
    h: Option<Complex64>,
    amp: f64,
    mut draw: impl FnMut() -> (f64, f64),
) {
    for s in samples {
        if let Some(k) = k {
            *s = s.scale(k);
        }
        if let Some(h) = h {
            *s *= h;
        }
        let (u1, u2) = draw();
        let r = (-2.0 * u1.ln()).sqrt() * amp;
        let theta = std::f64::consts::TAU * u2;
        *s += Complex64::new(r * theta.cos(), r * theta.sin());
    }
}

/// The FM-to-AM (slope-detector) envelope of a waveform sampled at
/// `rate_hz`: `|s|·max(0, 1 + fm_slope·f)`, where `f` is the one-sample
/// discriminator's instantaneous frequency in MHz, `arg(s·conj(prev))`
/// scaled by the rate. `f` is zero at the first sample and wherever
/// `|prev|² ≤ 1e-20` or `|s| ≤ 1e-10`. The AVX2 path computes `|s|`,
/// the conjugate product and the guards with the same IEEE operations
/// as [`fm_am_envelope_scalar`] and differs only through its vector
/// `atan2`, which is correctly rounded where libm's may be an ulp off
/// (≤ 1e-12 relative). A quad with a non-finite discriminator input
/// takes the scalar path.
pub fn fm_am_envelope(samples: &[Complex64], rate_hz: f64, fm_slope: f64) -> Vec<f64> {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2+FMA support was just probed at runtime.
        return unsafe { avx::fm_am_envelope(samples, rate_hz, fm_slope) };
    }
    fm_am_envelope_scalar(samples, rate_hz, fm_slope)
}

/// [`fm_am_envelope`]'s scalar reference (libm `atan2`).
pub fn fm_am_envelope_scalar(samples: &[Complex64], rate_hz: f64, fm_slope: f64) -> Vec<f64> {
    let mut prev = Complex64::ZERO;
    samples
        .iter()
        .map(|&s| {
            let out = fm_am_sample(s, prev, rate_hz, fm_slope);
            prev = s;
            out
        })
        .collect()
}

/// One sample of [`fm_am_envelope_scalar`].
#[inline]
fn fm_am_sample(s: Complex64, prev: Complex64, rate_hz: f64, fm_slope: f64) -> f64 {
    let amp = s.abs();
    // Instantaneous frequency in MHz via one-sample discriminator.
    let f_mhz = if prev.norm_sqr() > 1e-20 && amp > 1e-10 {
        (s * prev.conj()).arg() * rate_hz / (std::f64::consts::TAU * 1e6)
    } else {
        0.0
    };
    amp * (1.0 + fm_slope * f_mhz).max(0.0)
}

/// A sampling ADC in one pass: linearly resamples `signal` at `ratio`
/// input samples per output sample (`round(len / ratio)` outputs), then
/// quantizes each value to one of `codes` mid-rise levels of `[0,
/// v_ref)`, saturating, and returns the reconstructed voltages. The
/// AVX2 path gathers the two neighbours and performs the same IEEE
/// operations in the same order as [`resample_quantize_scalar`], so
/// the two agree `to_bits`. `codes` must be a power of two, so that
/// multiplying by its reciprocal is exactly the division by it.
pub fn resample_quantize(signal: &[f64], ratio: f64, v_ref: f64, codes: u32) -> Vec<f64> {
    assert!(codes.is_power_of_two(), "codes must be a power of two, got {codes}");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() && signal.len() <= i32::MAX as usize {
        // SAFETY: AVX2 support was just probed at runtime, and the
        // length fits the kernel's 32-bit gather indices.
        return unsafe { avx::resample_quantize(signal, ratio, v_ref, codes) };
    }
    resample_quantize_scalar(signal, ratio, v_ref, codes)
}

/// [`resample_quantize`]'s scalar reference: `resample_linear`'s
/// interpolation, then a saturating truncating quantizer and mid-rise
/// reconstruction, per output sample.
pub fn resample_quantize_scalar(signal: &[f64], ratio: f64, v_ref: f64, codes: u32) -> Vec<f64> {
    (0..crate::resample::resampled_len(signal.len(), ratio))
        .map(|i| {
            let v = crate::resample::lerp_at(signal, i as f64 * ratio);
            quantize_sample(v, v_ref, codes)
        })
        .collect()
}

/// Quantizes `v` to a code of `[0, codes)` against `v_ref` (saturating;
/// truncation, which is `floor` in range) and returns the code's
/// mid-rise voltage.
#[inline]
fn quantize_sample(v: f64, v_ref: f64, codes: u32) -> f64 {
    let n = codes as f64;
    let x = v / v_ref * n;
    let code = if x < 0.0 {
        0
    } else if x >= n {
        codes - 1
    } else {
        x as u32
    };
    (code as f64 + 0.5) * (1.0 / n) * v_ref
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

    /// [`super::scale_fade_box_muller`] over one block of whole quads,
    /// its uniforms drawn ahead into `u1` and `u2`: per quad the Box–Muller
    /// transcendentals, the scale, the `addsub` gain and the noise
    /// addition, each the same IEEE operation on every lane.
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn scale_fade_box_muller(
        out: &mut [Complex64],
        u1: &[f64],
        u2: &[f64],
        k: Option<f64>,
        h: Option<Complex64>,
        amp: f64,
    ) {
        assert!(out.len().is_multiple_of(4) && u1.len() >= out.len() && u2.len() >= out.len());
        let (neg_two, tau, ampv) =
            (_mm256_set1_pd(-2.0), _mm256_set1_pd(std::f64::consts::TAU), _mm256_set1_pd(amp));
        let kv = _mm256_set1_pd(k.unwrap_or(1.0));
        let hv = h.unwrap_or(Complex64::ONE);
        let (wr, wi) = (_mm256_set1_pd(hv.re), _mm256_set1_pd(hv.im));
        let p = out.as_mut_ptr() as *mut f64;
        for q in (0..out.len()).step_by(4) {
            // SAFETY: q + 3 < out.len() ≤ u1.len(), u2.len() (asserted).
            let u1v = _mm256_loadu_pd(u1.as_ptr().add(q));
            let u2v = _mm256_loadu_pd(u2.as_ptr().add(q));
            let r = _mm256_mul_pd(_mm256_sqrt_pd(_mm256_mul_pd(neg_two, ln_pd(u1v))), ampv);
            let (s, c) = sincos_pd(_mm256_mul_pd(tau, u2v));
            let re = _mm256_mul_pd(r, c);
            let im = _mm256_mul_pd(r, s);
            // Interleave [re_k] / [im_k] into (re, im) pair order.
            let lo = _mm256_unpacklo_pd(re, im); // [re0, im0, re2, im2]
            let hi = _mm256_unpackhi_pd(re, im); // [re1, im1, re3, im3]
            let noise =
                [_mm256_permute2f128_pd::<0x20>(lo, hi), _mm256_permute2f128_pd::<0x31>(lo, hi)];
            for (off, n) in [0usize, 4].into_iter().zip(noise) {
                let mut b = _mm256_loadu_pd(p.add(2 * q + off));
                if k.is_some() {
                    b = _mm256_mul_pd(b, kv);
                }
                if h.is_some() {
                    let bs = _mm256_permute_pd(b, 0b0101); // [im0, re0, im1, re1]
                    b = _mm256_addsub_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(bs, wi));
                }
                _mm256_storeu_pd(p.add(2 * q + off), _mm256_add_pd(b, n));
            }
        }
    }

    /// [`ln_pd`] eight lanes wide, each lane the same IEEE operations
    /// (the `√2` fold as a masked blend and a masked add of 1).
    /// # Safety
    /// The CPU must support AVX-512F and AVX-512DQ.
    #[allow(clippy::excessive_precision)]
    #[target_feature(enable = "avx512f", enable = "avx512dq")]
    unsafe fn ln_pd8(x: __m512d) -> __m512d {
        const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
        const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
        let one = _mm512_set1_pd(1.0);
        let xi = _mm512_castpd_si512(x);
        let exp_raw = _mm512_srli_epi64::<52>(xi);
        let magic = _mm512_set1_epi64(0x4330_0000_0000_0000u64 as i64);
        let e = _mm512_sub_pd(
            _mm512_castsi512_pd(_mm512_or_si512(exp_raw, magic)),
            _mm512_set1_pd(4_503_599_627_370_496.0 + 1023.0),
        );
        let mant = _mm512_set1_epi64(0x000F_FFFF_FFFF_FFFFu64 as i64);
        let m = _mm512_castsi512_pd(_mm512_or_si512(
            _mm512_and_si512(xi, mant),
            _mm512_set1_epi64(0x3FF0_0000_0000_0000u64 as i64),
        ));
        let gt = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(m, _mm512_set1_pd(std::f64::consts::SQRT_2));
        let m = _mm512_mask_blend_pd(gt, m, _mm512_mul_pd(m, _mm512_set1_pd(0.5)));
        // `ln_pd` adds 1 or +0 (its `and`); e is never −0, so adding
        // nothing in the lanes that fail is the same value.
        let e = _mm512_mask_add_pd(e, gt, e, one);
        let t = _mm512_div_pd(_mm512_sub_pd(m, one), _mm512_add_pd(m, one));
        let w = _mm512_mul_pd(t, t);
        let mut poly = _mm512_set1_pd(1.0 / 15.0);
        for c in [1.0 / 13.0, 1.0 / 11.0, 1.0 / 9.0, 1.0 / 7.0, 1.0 / 5.0, 1.0 / 3.0] {
            poly = _mm512_fmadd_pd(poly, w, _mm512_set1_pd(c));
        }
        let two_t = _mm512_add_pd(t, t);
        let ln_m = _mm512_fmadd_pd(_mm512_mul_pd(two_t, w), poly, two_t);
        let r = _mm512_fmadd_pd(e, _mm512_set1_pd(LN2_LO), ln_m);
        _mm512_fmadd_pd(e, _mm512_set1_pd(LN2_HI), r)
    }

    /// [`sincos_pd`] eight lanes wide, each lane the same IEEE
    /// operations (the quadrant swap as a mask).
    /// # Safety
    /// The CPU must support AVX-512F and AVX-512DQ.
    #[allow(clippy::approx_constant, clippy::excessive_precision)]
    #[target_feature(enable = "avx512f", enable = "avx512dq")]
    unsafe fn sincos_pd8(theta: __m512d) -> (__m512d, __m512d) {
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
        let k = _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm512_mul_pd(theta, _mm512_set1_pd(std::f64::consts::FRAC_2_PI)),
        );
        let x = _mm512_fnmadd_pd(k, _mm512_set1_pd(PIO2_HI), theta);
        let x = _mm512_fnmadd_pd(k, _mm512_set1_pd(PIO2_LO), x);
        let q = _mm512_castpd_si512(_mm512_add_pd(k, _mm512_set1_pd(6_755_399_441_055_744.0)));
        let swap = _mm512_test_epi64_mask(q, _mm512_set1_epi64(1));
        let two = _mm512_set1_epi64(2);
        let sin_sign = _mm512_castsi512_pd(_mm512_slli_epi64::<62>(_mm512_and_si512(q, two)));
        let cos_sign = _mm512_castsi512_pd(_mm512_slli_epi64::<62>(_mm512_and_si512(
            _mm512_add_epi64(q, _mm512_set1_epi64(1)),
            two,
        )));
        let z = _mm512_mul_pd(x, x);
        let mut sp = _mm512_set1_pd(S[5]);
        for c in [S[4], S[3], S[2], S[1], S[0]] {
            sp = _mm512_fmadd_pd(sp, z, _mm512_set1_pd(c));
        }
        let sin_x = _mm512_fmadd_pd(_mm512_mul_pd(x, z), sp, x);
        let mut cp = _mm512_set1_pd(C[5]);
        for c in [C[4], C[3], C[2], C[1], C[0]] {
            cp = _mm512_fmadd_pd(cp, z, _mm512_set1_pd(c));
        }
        let cos_x = _mm512_fmadd_pd(
            _mm512_mul_pd(z, z),
            cp,
            _mm512_fnmadd_pd(z, _mm512_set1_pd(0.5), _mm512_set1_pd(1.0)),
        );
        let sin_base = _mm512_mask_blend_pd(swap, sin_x, cos_x);
        let cos_base = _mm512_mask_blend_pd(swap, cos_x, sin_x);
        (_mm512_xor_pd(sin_base, sin_sign), _mm512_xor_pd(cos_base, cos_sign))
    }

    /// [`super::scale_fade_box_muller`] over whole quads, eight samples
    /// per step, `to_bits`-equal to the AVX2 kernel: [`ln_pd8`] and
    /// [`sincos_pd8`], and the `addsub` gain as `re·h.re + (−im·h.im)`,
    /// `im·h.re + re·h.im` (IEEE subtraction is addition of the
    /// negation). The uniforms are drawn a block ahead in the same
    /// order: the first block's before any math, each next block's
    /// pairs step by step while this block's math runs, so the scalar
    /// draws overlap the vector work. A trailing quad takes the AVX2
    /// kernel.
    /// # Safety
    /// The CPU must support AVX-512F, AVX-512DQ, AVX2 and FMA.
    #[target_feature(enable = "avx512f", enable = "avx512dq", enable = "avx2", enable = "fma")]
    pub unsafe fn scale_fade_box_muller_x8(
        out: &mut [Complex64],
        draw: &mut impl FnMut() -> (f64, f64),
        k: Option<f64>,
        h: Option<Complex64>,
        amp: f64,
    ) {
        const BLOCK: usize = super::NOISE_BLOCK;
        assert!(out.len().is_multiple_of(4));
        let (neg_two, tau, ampv) =
            (_mm512_set1_pd(-2.0), _mm512_set1_pd(std::f64::consts::TAU), _mm512_set1_pd(amp));
        let kv = _mm512_set1_pd(k.unwrap_or(1.0));
        let hv = h.unwrap_or(Complex64::ONE);
        let (wr, wi) = (_mm512_set1_pd(hv.re), _mm512_set1_pd(hv.im));
        // The sign bit in every real (even) lane.
        let re_sign = _mm512_castsi512_pd(_mm512_set_epi64(
            0,
            i64::MIN,
            0,
            i64::MIN,
            0,
            i64::MIN,
            0,
            i64::MIN,
        ));
        // Pair order from the unpacked [re, im] lanes of two quads.
        let (first, second) = (
            _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0),
            _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4),
        );
        // Two blocks of (u₁, u₂): the one in use and the one being drawn.
        let mut uniforms = [[[0.0f64; BLOCK]; 2]; 2];
        let len = out.len();
        for j in 0..len.min(BLOCK) {
            (uniforms[0][0][j], uniforms[0][1][j]) = draw();
        }
        for (b, block) in out.chunks_mut(BLOCK).enumerate() {
            // Pairs of the next block, drawn while this one runs.
            let (m, ahead) = (block.len(), len.saturating_sub((b + 1) * BLOCK).min(BLOCK));
            let [even, odd] = &mut uniforms;
            let (now, next) = if b % 2 == 0 { (&*even, odd) } else { (&*odd, even) };
            let p = block.as_mut_ptr() as *mut f64;
            let mut q = 0;
            while q < m {
                let step = if q + 8 <= m { 8 } else { 4 };
                for j in q..(q + step).min(ahead) {
                    (next[0][j], next[1][j]) = draw();
                }
                if step == 4 {
                    scale_fade_box_muller(&mut block[q..], &now[0][q..], &now[1][q..], k, h, amp);
                    break;
                }
                // SAFETY: q + 7 < m ≤ BLOCK, the length of both rows.
                let u1v = _mm512_loadu_pd(now[0].as_ptr().add(q));
                let u2v = _mm512_loadu_pd(now[1].as_ptr().add(q));
                let r = _mm512_mul_pd(_mm512_sqrt_pd(_mm512_mul_pd(neg_two, ln_pd8(u1v))), ampv);
                let (s, c) = sincos_pd8(_mm512_mul_pd(tau, u2v));
                let (re, im) = (_mm512_mul_pd(r, c), _mm512_mul_pd(r, s));
                let lo = _mm512_unpacklo_pd(re, im); // [re0, im0, re2, im2, re4, …]
                let hi = _mm512_unpackhi_pd(re, im); // [re1, im1, re3, im3, re5, …]
                let noise =
                    [_mm512_permutex2var_pd(lo, first, hi), _mm512_permutex2var_pd(lo, second, hi)];
                for (off, n) in [0usize, 8].into_iter().zip(noise) {
                    // SAFETY: samples q ..= q + 7 of `block` (q + 7 < m).
                    let mut v = _mm512_loadu_pd(p.add(2 * q + off));
                    if k.is_some() {
                        v = _mm512_mul_pd(v, kv);
                    }
                    if h.is_some() {
                        let vs = _mm512_permute_pd::<0b0101_0101>(v); // [im0, re0, …]
                        let cross = _mm512_xor_pd(_mm512_mul_pd(vs, wi), re_sign);
                        v = _mm512_add_pd(_mm512_mul_pd(v, wr), cross);
                    }
                    _mm512_storeu_pd(p.add(2 * q + off), _mm512_add_pd(v, n));
                }
                q += 8;
            }
        }
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

    /// `atan(k/64)` for `k = 0..=64` as a double-double `[hi, lo]`:
    /// `hi` is the value rounded to `f64`, `lo` the rounding error
    /// rounded to `f64` (both from 300-bit arithmetic). The breakpoints
    /// of [`atan2_pd`]'s argument reduction.
    // The last row is π/4 split in two, not a stand-in for FRAC_PI_4.
    #[allow(clippy::approx_constant)]
    pub static ATAN_K64: [[f64; 2]; 65] = [
        [0.0, 0.0],
        [0.015623728620476831, -4.913600136566304e-19],
        [0.031239833430268277, -1.188442711587748e-18],
        [0.046840712915969654, -1.655677442254952e-19],
        [0.06241880999595735, -1.5490756308295046e-18],
        [0.0779666338315423, 5.804551873143357e-18],
        [0.09347678115858947, -6.2844725995420954e-18],
        [0.10894195698986579, 6.8267122072409585e-18],
        [0.12435499454676144, -3.1253241424539383e-18],
        [0.13970887428916365, -2.9579864247315813e-18],
        [0.15499674192394097, 9.585415594114324e-18],
        [0.1702119252854744, -3.541164079802125e-18],
        [0.18534794999569476, 4.180692268843079e-18],
        [0.2003985538258785, 3.1399542871844493e-18],
        [0.21535769969773805, 4.738160130078733e-19],
        [0.23021958727684372, 1.2313404529142703e-17],
        [0.24497866312686414, 1.0698755618734451e-17],
        [0.2596296294082575, 1.9238754924615304e-17],
        [0.2741674511196588, 8.261353575163773e-18],
        [0.2885873618940774, -1.428369957377257e-17],
        [0.3028848683749714, -1.1010827903001369e-17],
        [0.31705575320914703, -1.893928924292642e-17],
        [0.3310960767041321, -7.952610375793799e-18],
        [0.34500217720710513, -2.2938804755578304e-17],
        [0.35877067027057225, -2.4623815582638635e-17],
        [0.3723984466767542, 1.9612311504845653e-17],
        [0.38588266939807375, 2.378822732491941e-17],
        [0.39922076957525254, 2.246598105617042e-17],
        [0.4124104415973873, -1.587652227770689e-17],
        [0.42544963737004227, 2.3315530741892885e-17],
        [0.43833655985795783, -2.494277030626541e-17],
        [0.4510696559885235, -2.2703795229420475e-17],
        [0.4636476090008061, 2.2698777452961687e-17],
        [0.4760693303227612, 1.4654487332256713e-17],
        [0.48833395105640554, -1.1373236189329585e-17],
        [0.5004408131472942, -4.7181675085518756e-17],
        [0.5123894603107377, -2.5462781472855804e-17],
        [0.5241796287829132, 5.520094119641666e-18],
        [0.5358112379604637, -4.0637956834825575e-18],
        [0.5472843809874369, 4.923709671396255e-17],
        [0.5585993153435624, -5.4556305485916264e-18],
        [0.5697564534829784, 1.2255062085054184e-17],
        [0.5807563535676704, -1.441464378193067e-17],
        [0.5915997103351114, 4.920495453686772e-17],
        [0.6022873461349642, 2.950430737228402e-17],
        [0.6128202021652414, -3.1552061848586226e-17],
        [0.6231993299340659, 2.672403885140095e-17],
        [0.6334258829691446, -2.7290767436015276e-17],
        [0.6435011087932844, 1.5834785051444286e-17],
        [0.6534263411807619, 3.5800634857340095e-17],
        [0.6632029927060933, -3.076054864429649e-17],
        [0.6728325475937632, -1.899315009714705e-17],
        [0.6823165548747481, 6.943223671560008e-18],
        [0.6916566218531999, -8.117151192285796e-18],
        [0.7008544078844502, -1.987626234335816e-17],
        [0.7099116184635249, -4.597166450584887e-17],
        [0.7188299996216245, -2.1478388444456983e-17],
        [0.7276113326265107, 2.569325697391839e-18],
        [0.7362574289814281, 3.473937648299457e-17],
        [0.7447701257160751, 3.708315849135547e-17],
        [0.7531512809621944, -2.4256934659182068e-17],
        [0.7614027698055784, 9.850030332752822e-18],
        [0.7695264804056583, -3.704991905602721e-17],
        [0.7775243103733478, -2.6676490951944502e-17],
        [0.7853981633974483, 3.061616997868383e-17],
    ];

    /// Knuth's two-sum: `a + b = s + err` exactly.
    /// # Safety
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    unsafe fn two_sum(a: __m256d, b: __m256d) -> (__m256d, __m256d) {
        let s = _mm256_add_pd(a, b);
        let bb = _mm256_sub_pd(s, a);
        let err = _mm256_add_pd(_mm256_sub_pd(a, _mm256_sub_pd(s, bb)), _mm256_sub_pd(b, bb));
        (s, err)
    }

    /// Four-way `atan2(y, x)` for finite `x` and `y`, with libm's
    /// quadrants and signed zeros (`atan2(±0, x<0) = ±π`,
    /// `atan2(y≠0, ±0) = ±π/2`, `atan2(±0, −0) = ±π`).
    ///
    /// `t = min(|x|,|y|)/max(|x|,|y|)` is carried with its FMA division
    /// residual, reduced against the nearest `c = k/64` through
    /// `atan t = atan c + atan((t − c)/(1 + t·c))`, and the quadrant
    /// fixes `π/2 − a` and `π − a` run in double-double, so the one
    /// final rounding sees the exact value to about 1e-21 relative: the
    /// result is the correctly rounded `atan2` except within that
    /// distance of a rounding tie.
    /// # Safety
    /// The CPU must support AVX2 and FMA, and every lane of `x` and `y`
    /// must be finite: the table index `k = round(64·t)` lies in 0..=64
    /// only for `t` in [0, 1], and a NaN lane would gather outside it.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn atan2_pd(y: __m256d, x: __m256d) -> __m256d {
        const PI_LO: f64 = 1.224_646_799_147_353_2e-16;
        const PIO2_LO: f64 = 6.123_233_995_736_766e-17;
        let sign = _mm256_set1_pd(-0.0);
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        let (ax, ay) = (_mm256_andnot_pd(sign, x), _mm256_andnot_pd(sign, y));
        let swap = _mm256_cmp_pd::<_CMP_GT_OQ>(ay, ax);
        let num = _mm256_blendv_pd(ay, ax, swap);
        let den = _mm256_blendv_pd(ax, ay, swap);
        // x = y = ±0: t = 0/1 rather than 0/0.
        let den = _mm256_blendv_pd(den, one, _mm256_cmp_pd::<_CMP_EQ_OQ>(den, zero));
        // t + t_lo = num/den: the FMA residual `num − t·den` is exact.
        let t = _mm256_div_pd(num, den);
        let t_lo = _mm256_div_pd(_mm256_fnmadd_pd(t, den, num), den);
        // c = k/64 nearest t; t − c is exact (Sterbenz) and |u| ≤ 1/128.
        let k = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_pd(t, _mm256_set1_pd(64.0)),
        );
        let c = _mm256_mul_pd(k, _mm256_set1_pd(1.0 / 64.0));
        let nh = _mm256_sub_pd(t, c);
        // dh + dl = 1 + (t + t_lo)·c; `1 − dh` is exact for dh ∈ [1, 2].
        let dh = _mm256_fmadd_pd(t, c, one);
        let dl = _mm256_fmadd_pd(t_lo, c, _mm256_fmadd_pd(t, c, _mm256_sub_pd(one, dh)));
        let u = _mm256_div_pd(nh, dh);
        // u_lo = (nh + t_lo)/(dh + dl) − u to first order.
        let u_lo = _mm256_div_pd(
            _mm256_fnmadd_pd(u, dl, _mm256_add_pd(_mm256_fnmadd_pd(u, dh, nh), t_lo)),
            dh,
        );
        // atan(u + u_lo) = u + u·w·P(w) + u_lo/(1 + w), w = u²; the
        // Taylor series to u¹¹ truncates below 1e-22 relative.
        let w = _mm256_mul_pd(u, u);
        let mut poly = _mm256_set1_pd(-1.0 / 11.0);
        for coef in [1.0 / 9.0, -1.0 / 7.0, 1.0 / 5.0, -1.0 / 3.0] {
            poly = _mm256_fmadd_pd(poly, w, _mm256_set1_pd(coef));
        }
        let tail = _mm256_fmadd_pd(_mm256_mul_pd(u, w), poly, _mm256_fnmadd_pd(u_lo, w, u_lo));
        // Table rows are two doubles wide: hi at 2k, lo at 2k + 1.
        let row = _mm_slli_epi32::<1>(_mm256_cvtpd_epi32(k));
        let base = ATAN_K64.as_ptr() as *const f64;
        let a_hi = _mm256_i32gather_pd::<8>(base, row);
        let a_lo = _mm256_i32gather_pd::<8>(base.add(1), row);
        let (h, e) = two_sum(a_hi, u);
        let l = _mm256_add_pd(e, _mm256_add_pd(a_lo, tail));
        // |y| > |x|: π/2 − a.
        let (h2, e2) = two_sum(_mm256_set1_pd(std::f64::consts::FRAC_PI_2), _mm256_xor_pd(h, sign));
        let l2 = _mm256_add_pd(e2, _mm256_sub_pd(_mm256_set1_pd(PIO2_LO), l));
        let (h, l) = (_mm256_blendv_pd(h, h2, swap), _mm256_blendv_pd(l, l2, swap));
        // x's sign bit set (−0 included): π − a.
        let (h3, e3) = two_sum(_mm256_set1_pd(std::f64::consts::PI), _mm256_xor_pd(h, sign));
        let l3 = _mm256_add_pd(e3, _mm256_sub_pd(_mm256_set1_pd(PI_LO), l));
        let (h, l) = (_mm256_blendv_pd(h, h3, x), _mm256_blendv_pd(l, l3, x));
        // y's sign, zeros included.
        let r = _mm256_add_pd(h, l);
        _mm256_or_pd(_mm256_andnot_pd(sign, r), _mm256_and_pd(sign, y))
    }

    /// [`super::fm_am_envelope`] over quads of samples from index 1:
    /// lanes run in `[i, i+2, i+1, i+3]` order after the unpack, and
    /// one cross-lane permute restores it on the store.
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn fm_am_envelope(samples: &[Complex64], rate_hz: f64, fm_slope: f64) -> Vec<f64> {
        let n = samples.len();
        let mut out = vec![0.0f64; n];
        let Some(&first) = samples.first() else {
            return out;
        };
        out[0] = super::fm_am_sample(first, Complex64::ZERO, rate_hz, fm_slope);
        let sign = _mm256_set1_pd(-0.0);
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        let inf = _mm256_set1_pd(f64::INFINITY);
        let rate = _mm256_set1_pd(rate_hz);
        let per_mhz = _mm256_set1_pd(std::f64::consts::TAU * 1e6);
        let slope = _mm256_set1_pd(fm_slope);
        let p = samples.as_ptr() as *const f64;
        let mut i = 1;
        while i + 4 <= n {
            // SAFETY: samples i − 1 ..= i + 3 are in bounds (i ≥ 1,
            // i + 4 ≤ n); each load reads two whole samples.
            let (s01, s23) = (_mm256_loadu_pd(p.add(2 * i)), _mm256_loadu_pd(p.add(2 * i + 4)));
            let (q01, q23) = (_mm256_loadu_pd(p.add(2 * i - 2)), _mm256_loadu_pd(p.add(2 * i + 2)));
            let (re, im) = (_mm256_unpacklo_pd(s01, s23), _mm256_unpackhi_pd(s01, s23));
            let (pre, pim) = (_mm256_unpacklo_pd(q01, q23), _mm256_unpackhi_pd(q01, q23));
            // s·conj(prev) exactly as `Complex64: Mul` forms it.
            let npim = _mm256_xor_pd(pim, sign);
            let x = _mm256_sub_pd(_mm256_mul_pd(re, pre), _mm256_mul_pd(im, npim));
            let y = _mm256_add_pd(_mm256_mul_pd(re, npim), _mm256_mul_pd(im, pre));
            let finite = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(sign, x), inf),
                _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(sign, y), inf),
            );
            // atan2_pd needs finite lanes; a quad with any other takes
            // the scalar path whole.
            if _mm256_movemask_pd(finite) != 0b1111 {
                for j in i..i + 4 {
                    out[j] = super::fm_am_sample(samples[j], samples[j - 1], rate_hz, fm_slope);
                }
                i += 4;
                continue;
            }
            let amp = _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(re, re), _mm256_mul_pd(im, im)));
            let prev_pow = _mm256_add_pd(_mm256_mul_pd(pre, pre), _mm256_mul_pd(pim, pim));
            let guard = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GT_OQ>(prev_pow, _mm256_set1_pd(1e-20)),
                _mm256_cmp_pd::<_CMP_GT_OQ>(amp, _mm256_set1_pd(1e-10)),
            );
            let f_mhz =
                _mm256_and_pd(guard, _mm256_div_pd(_mm256_mul_pd(atan2_pd(y, x), rate), per_mhz));
            // MAXPD returns its second operand for a NaN, as f64::max.
            let gain = _mm256_max_pd(_mm256_add_pd(one, _mm256_mul_pd(slope, f_mhz)), zero);
            let env = _mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_mul_pd(amp, gain));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), env);
            i += 4;
        }
        for j in i..n {
            out[j] = super::fm_am_sample(samples[j], samples[j - 1], rate_hz, fm_slope);
        }
        out
    }

    /// [`super::resample_quantize`], four output samples per pass: the
    /// positions `i·ratio`, truncation, a gather of both clamped
    /// neighbours, the interpolation and the quantizer, each the same
    /// IEEE operation as the scalar path (no FMA).
    /// # Safety
    /// The CPU must support AVX2, and `signal.len() ≤ i32::MAX` (the
    /// gather indices are 32-bit).
    #[target_feature(enable = "avx2")]
    pub unsafe fn resample_quantize(
        signal: &[f64],
        ratio: f64,
        v_ref: f64,
        codes: u32,
    ) -> Vec<f64> {
        let n_out = crate::resample::resampled_len(signal.len(), ratio);
        let mut out = vec![0.0f64; n_out];
        if n_out == 0 {
            return out;
        }
        let n = codes as f64;
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        let last = _mm256_set1_pd((signal.len() - 1) as f64);
        let ratio_v = _mm256_set1_pd(ratio);
        let (vref, nv) = (_mm256_set1_pd(v_ref), _mm256_set1_pd(n));
        let top = _mm256_set1_pd((codes - 1) as f64);
        let (half, inv) = (_mm256_set1_pd(0.5), _mm256_set1_pd(1.0 / n));
        let mut idx = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
        let mut i = 0;
        while i + 4 <= n_out {
            let pos = _mm256_mul_pd(idx, ratio_v);
            let i0 = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(pos);
            let frac = _mm256_sub_pd(pos, i0);
            // Clamped in f64, where both are whole numbers ≤ len − 1, so
            // the 32-bit conversions are exact and the gathers in bounds.
            let ia = _mm256_cvttpd_epi32(_mm256_min_pd(i0, last));
            let ib = _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_add_pd(i0, one), last));
            // SAFETY: ia and ib index 0 ..= len − 1 (clamped above).
            let a = _mm256_i32gather_pd::<8>(signal.as_ptr(), ia);
            let b = _mm256_i32gather_pd::<8>(signal.as_ptr(), ib);
            let v = _mm256_add_pd(a, _mm256_mul_pd(_mm256_sub_pd(b, a), frac));
            let x = _mm256_mul_pd(_mm256_div_pd(v, vref), nv);
            // x ≥ n saturates; x < 0 and NaN give code 0 (as `as u32`).
            let code = _mm256_and_pd(
                _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x),
                _mm256_cmp_pd::<_CMP_GE_OQ>(x, zero),
            );
            let code = _mm256_blendv_pd(code, top, _mm256_cmp_pd::<_CMP_GE_OQ>(x, nv));
            let volts = _mm256_mul_pd(_mm256_mul_pd(_mm256_add_pd(code, half), inv), vref);
            _mm256_storeu_pd(out.as_mut_ptr().add(i), volts);
            idx = _mm256_add_pd(idx, _mm256_set1_pd(4.0));
            i += 4;
        }
        for (k, o) in out.iter_mut().enumerate().skip(i) {
            *o = super::quantize_sample(
                crate::resample::lerp_at(signal, k as f64 * ratio),
                v_ref,
                codes,
            );
        }
        out
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
    fn avx2_box_muller_block_matches_complex_gaussian_within_1e12() {
        if !avx2_available() {
            return;
        }
        // Compare the vector transcendentals against libm across many
        // uniform pairs, including u1 near both ends of (0, 1).
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..250 {
            let (mut u1, mut u2) = ([0.0f64; 32], [0.0f64; 32]);
            for k in 0..32 {
                (u1[k], u2[k]) = uniforms(&mut rng);
            }
            let mut out = [Complex64::new(0.0, 0.0); 32];
            // SAFETY: AVX2+FMA support was just probed.
            unsafe { avx::scale_fade_box_muller(&mut out, &u1, &u2, None, None, 0.7) };
            for k in 0..32 {
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_box_muller_matches_avx2_blocks_bitwise() {
        if !avx512_available() {
            return;
        }
        // Whole quads around the block size, so the draw-ahead crosses
        // blocks and a trailing quad takes the AVX2 kernel; with and
        // without scale and gain. Signed zeros and a zero gain part
        // exercise the `addsub` recipe.
        let gains =
            [Complex64::new(0.83, -0.41), Complex64::new(-1.7, 0.0), Complex64::new(0.0, -0.0)];
        for n in [4usize, 8, 12, 252, 256, 260, 516, 1028] {
            let mut input = samples(n as u64, n);
            input[0] = Complex64::new(-0.0, 0.0);
            input[n - 1] = Complex64::new(0.0, -0.0);
            for k in [None, Some(0.7)] {
                for h in [None, Some(gains[0]), Some(gains[1]), Some(gains[2])] {
                    let (mut r1, mut r2) = (StdRng::seed_from_u64(17), StdRng::seed_from_u64(17));
                    let (mut wide, mut quad) = (input.clone(), input.clone());
                    // SAFETY: AVX-512F/DQ (and with it AVX2+FMA) was just probed.
                    unsafe {
                        avx::scale_fade_box_muller_x8(
                            &mut wide,
                            &mut || uniforms(&mut r1),
                            k,
                            h,
                            0.4,
                        );
                        for block in quad.chunks_mut(NOISE_BLOCK) {
                            let (mut u1, mut u2) = ([0.0f64; NOISE_BLOCK], [0.0f64; NOISE_BLOCK]);
                            for j in 0..block.len() {
                                (u1[j], u2[j]) = uniforms(&mut r2);
                            }
                            avx::scale_fade_box_muller(block, &u1, &u2, k, h, 0.4);
                        }
                    }
                    for (i, (a, b)) in wide.iter().zip(&quad).enumerate() {
                        assert!(
                            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                            "n {n} k {k:?} h {h:?} sample {i}: {a:?} vs {b:?}"
                        );
                    }
                    assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "n {n}: RNG position");
                }
            }
        }
    }

    #[test]
    fn scale_fade_box_muller_tracks_scalar_within_1e12_same_rng_stream() {
        // Lengths around the draw-ahead block, with and without the
        // scale and the gain.
        let h = Complex64::new(0.83, -0.41);
        for n in [0usize, 3, 4, 255, 256, 257, 1029] {
            for (k, g) in [(None, None), (Some(1.7), None), (None, Some(h)), (Some(0.3), Some(h))] {
                let (mut fast, mut want) = (samples(9, n), samples(9, n));
                let (mut r1, mut r2) = (StdRng::seed_from_u64(0xde), StdRng::seed_from_u64(0xde));
                scale_fade_box_muller(&mut fast, k, g, 0.43, || uniforms(&mut r1));
                scale_fade_box_muller_scalar(&mut want, k, g, 0.43, || uniforms(&mut r2));
                assert!(max_err(&fast, &want) <= 1e-12, "n {n}: err {}", max_err(&fast, &want));
                assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "n {n}");
            }
        }
    }

    /// Applies the vector `atan2` to `(y, x)` pairs, four at a time.
    #[cfg(target_arch = "x86_64")]
    fn atan2_quads(pairs: &[(f64, f64)]) -> Vec<f64> {
        use std::arch::x86_64::*;
        assert_eq!(pairs.len() % 4, 0);
        let mut out = Vec::with_capacity(pairs.len());
        for q in pairs.chunks_exact(4) {
            let mut r = [0.0f64; 4];
            // SAFETY: the caller checked AVX2+FMA; the store writes the
            // four-element array.
            unsafe {
                let y = _mm256_set_pd(q[3].0, q[2].0, q[1].0, q[0].0);
                let x = _mm256_set_pd(q[3].1, q[2].1, q[1].1, q[0].1);
                _mm256_storeu_pd(r.as_mut_ptr(), avx::atan2_pd(y, x));
            }
            out.extend_from_slice(&r);
        }
        out
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn atan2_pd_gives_libm_signed_zeros_and_quadrants() {
        if !avx2_available() {
            return;
        }
        let (z, nz) = (0.0f64, -0.0f64);
        let pairs = [
            (z, -1.0),
            (nz, -1.0),
            (z, 1.0),
            (nz, 1.0),
            (1.0, z),
            (1.0, nz),
            (-1.0, z),
            (-1.0, nz),
            (z, nz),
            (nz, nz),
            (z, z),
            (nz, z),
            (1.0, 1.0),
            (-1.0, -1.0),
            (1.0, -1.0),
            (1e-300, -2.0),
            (3.0, -1e-300),
            (5e-324, 1.0),
            (-2.5, 7.0),
            (7.0, -2.5),
        ];
        for (got, &(y, x)) in atan2_quads(&pairs).iter().zip(&pairs) {
            assert_eq!(got.to_bits(), y.atan2(x).to_bits(), "atan2({y:?}, {x:?}) = {got:?}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn atan_table_rows_split_atan_k_over_64() {
        for (k, &[hi, lo]) in avx::ATAN_K64.iter().enumerate() {
            let want = (k as f64 / 64.0).atan();
            let ulp = f64::from_bits(hi.to_bits() + 1) - hi;
            assert!((hi - want).abs() <= ulp, "row {k}: hi {hi:e} vs libm {want:e}");
            assert!(lo.abs() <= ulp / 2.0, "row {k}: lo {lo:e} exceeds half an ulp of hi");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn atan2_pd_rounds_correctly_at_near_ties() {
        if !avx2_available() {
            return;
        }
        // Exact values within 0.01 ulp of a rounding tie, one per
        // reduction branch (plain, π − a, π/2 − a with x < 0, π/2 − a
        // with y < 0); the expected doubles are the correctly rounded
        // values from 200-bit arithmetic.
        let cases = [
            (0.9181139444119708, 6.179597619603345, 0.1474928836369159),
            (199.8117762468221, -1509.8232053739275, 3.0100160762799946),
            (5880.391339660624, -1571.9164062287848, 1.8320038470028694),
            (-0.07429946118797513, 0.05407826373688025, -0.9416278473492675),
        ];
        let pairs: Vec<(f64, f64)> = cases.iter().map(|&(y, x, _)| (y, x)).collect();
        for (got, &(y, x, want)) in atan2_quads(&pairs).iter().zip(&cases) {
            assert_eq!(got.to_bits(), f64::to_bits(want), "atan2({y:?}, {x:?}) = {got:?}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn atan2_pd_tracks_libm_within_1e12() {
        if !avx2_available() {
            return;
        }
        // Magnitudes over twelve decades and every sign combination.
        let mut rng = StdRng::seed_from_u64(11);
        let mut draw = || rng.gen_range(-1.0..1.0) * 10f64.powf(rng.gen_range(-6.0..6.0));
        let pairs: Vec<(f64, f64)> = (0..40_000).map(|_| (draw(), draw())).collect();
        for (got, &(y, x)) in atan2_quads(&pairs).iter().zip(&pairs) {
            let want = y.atan2(x);
            assert!((got - want).abs() <= 1e-12 * want.abs(), "atan2({y}, {x}) = {got} vs {want}");
        }
    }

    /// Each dispatched envelope sample equals the scalar twin's bits, or
    /// lies within 1e-12 of it relative to the sample's magnitude (the
    /// vector `atan2` is the only difference; near the `max(0, ·)` knee
    /// the gain's own cancellation is relative to 1, not to itself).
    fn assert_envelope_tracks_scalar(samples: &[Complex64], rate_hz: f64, slope: f64) {
        let got = fm_am_envelope(samples, rate_hz, slope);
        let want = fm_am_envelope_scalar(samples, rate_hz, slope);
        assert_eq!(got.len(), want.len());
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            let scale = w.abs().max(samples[k].abs());
            assert!(
                g.to_bits() == w.to_bits() || (g - w).abs() <= 1e-12 * scale,
                "slope {slope}, sample {k} of {}: {g:?} vs {w:?}",
                samples.len()
            );
        }
    }

    #[test]
    fn fm_am_envelope_edge_cases_track_scalar() {
        let c = Complex64::new;
        let (z, nz) = (0.0f64, -0.0f64);
        // 802.11b chips: real-only, both zero signs, sign flips that make
        // the discriminator see atan2(±0, x < 0) = ±π.
        let chips: Vec<Complex64> = (0..37)
            .map(|k| c(if k % 3 == 0 { -1.0 } else { 1.0 }, if k % 2 == 0 { z } else { nz }))
            .collect();
        // Zero real parts (atan2(y, ±0) = ±π/2) and samples that fail
        // the |prev|² and |s| guards in some lanes of a quad. Two sit
        // exactly on a bound, each after or before a sample that passes
        // the other guard: |s| = 1e-10 (index 1) and |prev|² = 1e-20
        // (index 6, the prev of index 7). Both fail the strict `>`.
        let axes: Vec<Complex64> = (0..41)
            .map(|k| match k % 8 {
                0 => c(z, 0.7),
                1 => c(1e-10, z),
                2 => c(nz, -0.3),
                3 => c(-0.5, nz),
                4 => c(1e-11, 1e-12),
                5 => c(z, z),
                6 => c(9.999_999_999_999_994e-11, 3.469_446_951_953_614e-18),
                _ => c(0.25, -0.9),
            })
            .collect();
        assert_eq!(axes[1].abs(), 1e-10);
        assert_eq!(axes[6].norm_sqr(), 1e-20);
        let mut rng = StdRng::seed_from_u64(21);
        let mut random = |n: usize| samples(rng.gen(), n);
        let mut waves = vec![chips, axes];
        for n in 0..=9 {
            waves.push(random(n));
        }
        for slope in [0.0, 0.05, 0.25, 0.5, -3.0, 40.0] {
            for rate_hz in [8e6, 20e6, 22e6] {
                for wave in &waves {
                    assert_envelope_tracks_scalar(wave, rate_hz, slope);
                }
            }
        }
        // Real-only chips hit only exactly rounded angles (0, ±π): the
        // kernel must give the scalar path's bits, signed zeros included.
        for slope in [0.05, 0.25] {
            let got = fm_am_envelope(&waves[0], 11e6, slope);
            let want = fm_am_envelope_scalar(&waves[0], 11e6, slope);
            assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
        }
    }

    #[test]
    fn fm_am_envelope_non_finite_input_takes_the_scalar_path() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200] {
            for at in [1usize, 4, 6, 10, 12] {
                let mut wave = samples(at as u64, 13);
                wave[at].re = bad;
                let got = fm_am_envelope(&wave, 20e6, 0.25);
                let want = fm_am_envelope_scalar(&wave, 20e6, 0.25);
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
                    assert!(same || (g - w).abs() <= 1e-12 * w.abs(), "{bad} at {at}: {k}");
                }
            }
        }
    }

    /// The two-pass ADC `resample_quantize` replaced: `resample_linear`,
    /// then quantize (saturating, truncating) and reconstruct.
    fn two_pass_adc(signal: &[f64], from: f64, to: f64, v_ref: f64, codes: u32) -> Vec<f64> {
        use crate::rate::SampleRate;
        let n = codes as f64;
        crate::resample::resample_linear(signal, SampleRate::hz(from), SampleRate::hz(to))
            .into_iter()
            .map(|v| {
                let x = v / v_ref * n;
                let code = if x < 0.0 {
                    0
                } else if x >= n {
                    codes - 1
                } else {
                    x as u32
                };
                (code as f64 + 0.5) * (1.0 / n) * v_ref
            })
            .collect()
    }

    #[test]
    fn resample_quantize_does_not_contract_the_interpolation() {
        // Where a fused multiply-add rounds `a + (b − a)·frac` apart
        // from the multiply-then-add, a code boundary set at the larger
        // of the two splits them: only the unfused kernel lands on the
        // scalar path's code.
        let mut rng = StdRng::seed_from_u64(41);
        let ratio = 0.4; // 8 → 20 MHz
        let mut checked = 0;
        while checked < 64 {
            let signal: Vec<f64> = (0..8).map(|_| rng.gen_range(0.0..1.0)).collect();
            for i in 0..16 {
                let pos = i as f64 * ratio;
                let (i0, frac) = (pos as usize, pos - (pos as usize) as f64);
                let (a, b) = (signal[i0], signal[i0 + 1]);
                let (unfused, fused) = (a + (b - a) * frac, (b - a).mul_add(frac, a));
                if unfused == fused {
                    continue;
                }
                let v_ref = 2.0 * unfused.max(fused);
                let got = resample_quantize(&signal, ratio, v_ref, 2);
                let want = resample_quantize_scalar(&signal, ratio, v_ref, 2);
                assert_eq!(got[i].to_bits(), want[i].to_bits(), "output {i} of {signal:?}");
                checked += 1;
            }
        }
    }

    #[test]
    fn resample_quantize_matches_two_pass_bitwise() {
        let mut rng = StdRng::seed_from_u64(31);
        let v_ref = 0.37;
        for len in [0usize, 1, 2, 3, 5, 9, 1000, 11_268] {
            // Negative and above-reference inputs exercise both rails.
            let mut signal: Vec<f64> = (0..len).map(|_| rng.gen_range(-0.1..0.45)).collect();
            if len > 9 {
                signal[3] = f64::NAN;
                signal[7] = f64::INFINITY;
                signal[8] = f64::NEG_INFINITY;
                // A run at exactly full scale (x = codes): every rate
                // pair interpolates inside it, and it must saturate.
                signal[16..26].fill(v_ref);
            }
            for from in [8e6, 20e6, 22e6] {
                for to in [20e6, 10e6, 2.5e6, 1e6] {
                    for bits in 1..=16 {
                        let codes = 1u32 << bits;
                        let ratio = from / to;
                        let got = resample_quantize(&signal, ratio, v_ref, codes);
                        let scalar = resample_quantize_scalar(&signal, ratio, v_ref, codes);
                        let want = two_pass_adc(&signal, from, to, v_ref, codes);
                        assert_eq!(got.len(), want.len(), "len {len} {from}->{to}");
                        for (k, ((g, s), w)) in got.iter().zip(&scalar).zip(&want).enumerate() {
                            let what = format!("len {len} {from}->{to} bits {bits} at {k}");
                            assert_eq!(g.to_bits(), w.to_bits(), "{what}");
                            assert_eq!(s.to_bits(), w.to_bits(), "{what} (scalar)");
                        }
                    }
                }
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
