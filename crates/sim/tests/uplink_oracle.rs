//! `Impairments::apply` against a verbatim copy of the uplink channel
//! it replaced: unit-power scaling, the carrier-offset rotation, the
//! flat gain (`Fading::apply_flat`) and the AWGN (`awgn::add_noise`)
//! as separate passes, the noise through the per-quad AVX2
//! `add_box_muller` that drew four uniform pairs at a time. Every
//! output sample must match `to_bits`, and both sides must leave the
//! RNG at the same position. The scalar twin of the fused pass is held
//! to the copy's scalar path the same way.

use msc_channel::Fading;
use msc_dsp::{simd, Complex64, IqBuf, SampleRate};
use msc_sim::pipeline::Impairments;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---- The pre-fusion channel, verbatim but for paths. ----

fn box_muller_uniforms<R: Rng>(rng: &mut R) -> (f64, f64) {
    (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0))
}

fn add_box_muller_pre(samples: &mut [Complex64], amp: f64, mut draw: impl FnMut() -> (f64, f64)) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_available() {
        let mut quads = samples.chunks_exact_mut(4);
        for quad in &mut quads {
            let (mut u1, mut u2) = ([0.0f64; 4], [0.0f64; 4]);
            for k in 0..4 {
                (u1[k], u2[k]) = draw();
            }
            // SAFETY: AVX2+FMA support was just probed at runtime.
            unsafe { avx_pre::noise_quad(&u1, &u2, amp, quad) };
        }
        add_box_muller_scalar_pre(quads.into_remainder(), amp, draw);
        return;
    }
    add_box_muller_scalar_pre(samples, amp, draw);
}

fn add_box_muller_scalar_pre(
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

#[cfg(target_arch = "x86_64")]
mod avx_pre {
    use msc_dsp::Complex64;
    use std::arch::x86_64::*;

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
}

fn add_noise_pre<R: Rng>(rng: &mut R, buf: &mut IqBuf, noise_power: f64) {
    if noise_power <= 0.0 {
        return;
    }
    let amp = (noise_power / 2.0).sqrt();
    add_box_muller_pre(buf.samples_mut(), amp, || box_muller_uniforms(rng));
}

fn apply_flat_pre<R: Rng>(fading: Fading, rng: &mut R, samples: &mut [Complex64]) -> Complex64 {
    let h = fading.sample(rng);
    if h != Complex64::ONE {
        simd::mul_by_gain(samples, h);
    }
    h
}

fn apply_pre<R: Rng>(imp: &Impairments, rng: &mut R, wave: &mut IqBuf) {
    let p = wave.mean_power();
    if p > 0.0 {
        wave.scale(1.0 / p.sqrt());
    }
    if imp.cfo_hz != 0.0 {
        wave.freq_shift_in_place(imp.cfo_hz);
    }
    apply_flat_pre(imp.fading, rng, wave.samples_mut());
    add_noise_pre(rng, wave, 1.0 / msc_dsp::units::db_to_lin(imp.snr_db));
}

// ---- The comparisons. ----

const LENGTHS: [usize; 10] = [0, 1, 3, 4, 5, 255, 256, 257, 1023, 9732];

fn fadings() -> [Fading; 4] {
    [Fading::None, Fading::los(), Fading::nlos(), Fading::Rayleigh]
}

/// A waveform of uneven, non-unit power at ZigBee's 8 MHz.
fn wave(n: usize, seed: u64) -> IqBuf {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = (0..n)
        .map(|k| Complex64::cis(k as f64 * 0.29).scale(0.2 + rng.gen_range(0.0..3.0)))
        .collect();
    IqBuf::new(samples, SampleRate::mhz(8.0))
}

fn assert_bits_eq(got: &[Complex64], want: &[Complex64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: sample {i}: {g:?} vs {w:?}"
        );
    }
}

#[test]
fn apply_matches_the_pre_fusion_channel_bitwise() {
    let mut inputs: Vec<(String, IqBuf)> =
        LENGTHS.iter().map(|&n| (format!("len {n}"), wave(n, n as u64))).collect();
    inputs.push(("zero power".into(), IqBuf::zeros(37, SampleRate::mhz(8.0))));
    for (name, input) in &inputs {
        for fading in fadings() {
            for cfo_hz in [0.0, -31_250.0] {
                for snr_db in [-3.0, 12.0] {
                    let imp = Impairments::snr(snr_db, fading).with_cfo(cfo_hz);
                    let what = format!("{name}, {fading:?}, cfo {cfo_hz}, snr {snr_db}");
                    let seed = 0x5eed ^ input.len() as u64;
                    let (mut r_new, mut r_pre) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let (mut got, mut want) = (input.clone(), input.clone());
                    imp.apply(&mut r_new, &mut got);
                    apply_pre(&imp, &mut r_pre, &mut want);
                    assert_bits_eq(got.samples(), want.samples(), &what);
                    assert_eq!(r_new.gen::<u64>(), r_pre.gen::<u64>(), "{what}: RNG position");
                }
            }
        }
    }
}

#[test]
fn scalar_twin_matches_the_pre_fusion_scalar_passes_bitwise() {
    // The fused pass's scalar twin against the copy's scalar path: the
    // scale, `Complex64: Mul` by each variant's gain, and the scalar
    // Box–Muller, as separate passes.
    for &n in &LENGTHS {
        let input = wave(n, 100 + n as u64);
        let p = input.mean_power();
        for fading in fadings() {
            for k in [None, (p > 0.0).then(|| 1.0 / p.sqrt())] {
                let mut rng = StdRng::seed_from_u64(n as u64);
                let h = fading.sample(&mut rng);
                let h = (h != Complex64::ONE).then_some(h);
                let what = format!("len {n}, {fading:?}, k {k:?}");
                let (mut r_new, mut r_pre) = (rng.clone(), rng);
                let (mut got, mut want) = (input.samples().to_vec(), input.samples().to_vec());
                simd::scale_fade_box_muller_scalar(&mut got, k, h, 0.3, || {
                    box_muller_uniforms(&mut r_new)
                });
                for s in &mut want {
                    if let Some(k) = k {
                        *s = s.scale(k);
                    }
                }
                if let Some(h) = h {
                    for s in &mut want {
                        *s *= h;
                    }
                }
                add_box_muller_scalar_pre(&mut want, 0.3, || box_muller_uniforms(&mut r_pre));
                assert_bits_eq(&got, &want, &what);
                assert_eq!(r_new.gen::<u64>(), r_pre.gen::<u64>(), "{what}: RNG position");
            }
        }
    }
}
