//! Correlation primitives for template matching.
//!
//! Two arithmetic paths mirror the paper's two implementations:
//!
//! * **Full precision** ([`normalized_corr`], [`sliding_corr`]):
//!   floating-point normalized cross-correlation — "if computation
//!   resources are not a problem" (paper §2.2.2, Fig. 5b). The sliding
//!   form keeps per-offset statistics in prefix sums (O(N) normalization
//!   instead of O(N·L)) and switches the remaining multiply-adds to an
//!   FFT cross-correlation when the template is long enough to pay for
//!   the transforms (extended 40 µs windows).
//! * **Sign-quantized** ([`sign_quantize`], [`quantized_corr`],
//!   [`PackedBits`]): each sample quantized to ±1 so multipliers become
//!   adders — the nano-FPGA implementation (paper §2.3.1, Table 2). The
//!   packed form stores 64 signs per machine word, making the correlation
//!   an XOR + popcount per word — the software analogue of the paper's
//!   adder tree.
//!
//! Length mismatches in the pairwise kernels return the error-signaling
//! value 0.0 (no correlation evidence) instead of panicking; the matcher
//! can reach mismatched windows near buffer ends during its lag search.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::Ordering;

use crate::complex::Complex64;
use crate::fft::Fft;
use crate::plan;

/// Pearson-style normalized cross-correlation of two equal-length windows.
///
/// Returns a value in `[-1, 1]`; 0 when either window has zero variance
/// **or when the lengths differ** (no evidence, not a panic — mismatched
/// windows are reachable near buffer ends).
pub fn normalized_corr(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return 0.0;
    }
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let ma = mean(a);
    let mb = mean(b);
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..n {
        let xa = a[i] - ma;
        let xb = b[i] - mb;
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    let denom = (da * db).sqrt();
    if denom < 1e-30 {
        0.0
    } else {
        num / denom
    }
}

/// Smallest power of two ≥ `n` (and ≥ 2, so it is a valid FFT size).
fn next_pow2(n: usize) -> usize {
    n.next_power_of_two().max(2)
}

/// Should [`sliding_corr`] take the FFT path? Direct costs ~N·L
/// multiply-adds; the FFT path costs three m·log2(m) transforms of size
/// m = next_pow2(N+L) with complex arithmetic (~6× per butterfly).
fn fft_pays_off(n: usize, l: usize) -> bool {
    if l < 32 {
        return false;
    }
    let m = next_pow2(n + l);
    let fft_cost = 6 * 3 * m * (m.trailing_zeros() as usize).max(1);
    n * l > fft_cost
}

/// Slides `template` over `signal` and returns the normalized correlation
/// at each offset (`signal.len() - template.len() + 1` values).
///
/// Per-offset mean/variance of the signal segment come from prefix sums
/// (O(N) total); the numerator either stays a direct dot product or moves
/// to an FFT cross-correlation when the window sizes justify it (see
/// [`sliding_corr_direct`] / [`sliding_corr_fft`], which this dispatches
/// between). All three produce the same values up to f64 rounding.
pub fn sliding_corr(signal: &[f64], template: &[f64]) -> Vec<f64> {
    if fft_pays_off(signal.len(), template.len()) {
        sliding_corr_fft(signal, template)
    } else {
        sliding_corr_direct(signal, template)
    }
}

/// Prefix-sum statistics for the sliding kernels: per-offset segment sum
/// and sum-of-squares, plus the centered template and its variance sum.
struct SlidingPrep {
    /// Template minus its mean (so Σ tc = 0 and the numerator needs no
    /// segment-mean correction).
    tc: Vec<f64>,
    /// Σ tc² — the template's variance numerator.
    var_t: f64,
    /// Prefix sums of the signal (s1[k] = Σ signal[..k]).
    s1: Vec<f64>,
    /// Prefix sums of the squared signal.
    s2: Vec<f64>,
}

fn sliding_prep(signal: &[f64], template: &[f64]) -> SlidingPrep {
    let mt = template.iter().sum::<f64>() / template.len() as f64;
    let tc: Vec<f64> = template.iter().map(|&t| t - mt).collect();
    let var_t: f64 = tc.iter().map(|&t| t * t).sum();
    let mut s1 = Vec::with_capacity(signal.len() + 1);
    let mut s2 = Vec::with_capacity(signal.len() + 1);
    let (mut a1, mut a2) = (0.0f64, 0.0f64);
    s1.push(0.0);
    s2.push(0.0);
    for &x in signal {
        a1 += x;
        a2 += x * x;
        s1.push(a1);
        s2.push(a2);
    }
    SlidingPrep { tc, var_t, s1, s2 }
}

/// Normalizes raw per-offset dot products `num[off] = Σ s[off+i]·tc[i]`
/// into Pearson correlations using the prefix-sum statistics.
fn normalize_sliding(prep: &SlidingPrep, l: usize, num: impl Iterator<Item = f64>) -> Vec<f64> {
    num.enumerate()
        .map(|(off, n)| {
            let seg1 = prep.s1[off + l] - prep.s1[off];
            let seg2 = prep.s2[off + l] - prep.s2[off];
            // Segment variance numerator; clamp tiny negative rounding.
            let var_s = (seg2 - seg1 * seg1 / l as f64).max(0.0);
            let denom = (var_s * prep.var_t).sqrt();
            if denom < 1e-30 {
                0.0
            } else {
                n / denom
            }
        })
        .collect()
}

/// [`sliding_corr`] with the direct O(N·L) dot-product numerator and
/// prefix-sum normalization.
pub fn sliding_corr_direct(signal: &[f64], template: &[f64]) -> Vec<f64> {
    if template.is_empty() || signal.len() < template.len() {
        return Vec::new();
    }
    let l = template.len();
    let prep = sliding_prep(signal, template);
    let nums = (0..=signal.len() - l)
        .map(|off| signal[off..off + l].iter().zip(&prep.tc).map(|(&s, &t)| s * t).sum::<f64>());
    normalize_sliding(&prep, l, nums)
}

/// [`sliding_corr`] with the numerator computed as one FFT
/// cross-correlation (`IFFT(FFT(signal)·conj(FFT(template)))`), O(m·log m)
/// for m = next_pow2(N+L). Exact up to f64 rounding (≪ 1e-9 for the
/// window sizes used here).
pub fn sliding_corr_fft(signal: &[f64], template: &[f64]) -> Vec<f64> {
    if template.is_empty() || signal.len() < template.len() {
        return Vec::new();
    }
    let l = template.len();
    let n = signal.len();
    let prep = sliding_prep(signal, template);
    let m = next_pow2(n + l);
    let fft = plan::fft_plan(m);
    let mut sa = plan::cbuf_zeroed(m);
    for (d, &x) in sa.iter_mut().zip(signal) {
        *d = Complex64::new(x, 0.0);
    }
    let mut tb = plan::cbuf_zeroed(m);
    for (d, &x) in tb.iter_mut().zip(&prep.tc) {
        *d = Complex64::new(x, 0.0);
    }
    fft.forward(&mut sa);
    fft.forward(&mut tb);
    for (a, b) in sa.iter_mut().zip(tb.iter()) {
        *a *= b.conj();
    }
    fft.inverse(&mut sa);
    let nums = sa[..=n - l].iter().map(|c| c.re);
    normalize_sliding(&prep, l, nums)
}

/// Maximum sliding correlation of four templates against one signal:
/// `out[k] = sliding_corr(signal, templates[k]).iter().fold(-∞, max)`,
/// bit-identical to that expression (`NEG_INFINITY` when a template
/// produces no offsets).
///
/// When all four templates share one length — the matcher's bank always
/// does — the direct path runs structure-of-arrays: the templates are
/// interleaved four-wide and every signal offset is read once for all
/// four numerators (template-outer in the lanes), with a runtime-gated
/// AVX2 inner loop. One f64 lane per template and a multiply-then-add
/// chain (no FMA) keep each lane's IEEE operation sequence identical to
/// [`sliding_corr_direct`]'s scalar fold, so the SoA pass cannot change
/// a single bit. Sizes where [`sliding_corr`] would pick the FFT, and
/// banks with mismatched lengths, fall back to the per-template kernels
/// unchanged.
pub fn sliding_corr_max4(signal: &[f64], templates: [&[f64]; 4]) -> [f64; 4] {
    let l = templates[0].len();
    let uniform = l > 0 && templates.iter().all(|t| t.len() == l);
    if !uniform || signal.len() < l || fft_pays_off(signal.len(), l) {
        // Generic path: exactly the per-template loop this kernel
        // replaces (sliding_corr dispatches FFT vs direct itself).
        return templates
            .map(|t| sliding_corr(signal, t).iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v)));
    }
    thread_local! {
        static MAX4_SCRATCH: RefCell<Max4Scratch> = RefCell::new(Max4Scratch::default());
    }
    MAX4_SCRATCH.with(|cell| sliding_corr_max4_soa(signal, templates, &mut cell.borrow_mut()))
}

/// Pooled per-thread buffers for [`sliding_corr_max4`]'s SoA path.
#[derive(Default)]
struct Max4Scratch {
    /// Centered templates interleaved four-wide: `tc4[4i + k] = tc_k[i]`.
    tc4: Vec<f64>,
    /// Signal prefix sums (value and square), as in [`sliding_prep`].
    s1: Vec<f64>,
    s2: Vec<f64>,
    /// Per-offset raw numerators, one lane per template.
    nums: Vec<[f64; 4]>,
}

fn sliding_corr_max4_soa(
    signal: &[f64],
    templates: [&[f64]; 4],
    scratch: &mut Max4Scratch,
) -> [f64; 4] {
    let l = templates[0].len();
    let n_off = signal.len() - l + 1;
    // Center each template exactly as sliding_prep does and interleave.
    let mut var_t = [0.0f64; 4];
    scratch.tc4.clear();
    scratch.tc4.resize(4 * l, 0.0);
    for (k, t) in templates.iter().enumerate() {
        let mt = t.iter().sum::<f64>() / t.len() as f64;
        let mut v = 0.0;
        for (i, &x) in t.iter().enumerate() {
            let c = x - mt;
            scratch.tc4[4 * i + k] = c;
            v += c * c;
        }
        var_t[k] = v;
    }
    // Signal prefix sums, identical to the ones sliding_prep would
    // compute for each template (they depend on the signal alone).
    scratch.s1.clear();
    scratch.s2.clear();
    scratch.s1.reserve(signal.len() + 1);
    scratch.s2.reserve(signal.len() + 1);
    let (mut a1, mut a2) = (0.0f64, 0.0f64);
    scratch.s1.push(0.0);
    scratch.s2.push(0.0);
    for &x in signal {
        a1 += x;
        a2 += x * x;
        scratch.s1.push(a1);
        scratch.s2.push(a2);
    }
    scratch.nums.clear();
    scratch.nums.resize(n_off, [0.0; 4]);
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::avx2_available() {
            // Safety: probed at runtime.
            unsafe { soa_numerators_avx2(signal, &scratch.tc4, l, &mut scratch.nums) };
        } else {
            soa_numerators_scalar(signal, &scratch.tc4, l, &mut scratch.nums);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    soa_numerators_scalar(signal, &scratch.tc4, l, &mut scratch.nums);
    // Normalize and fold the per-template max, mirroring
    // normalize_sliding's expression bit for bit.
    let mut out = [f64::NEG_INFINITY; 4];
    for (off, nums) in scratch.nums.iter().enumerate() {
        let seg1 = scratch.s1[off + l] - scratch.s1[off];
        let seg2 = scratch.s2[off + l] - scratch.s2[off];
        let var_s = (seg2 - seg1 * seg1 / l as f64).max(0.0);
        for k in 0..4 {
            let denom = (var_s * var_t[k]).sqrt();
            let v = if denom < 1e-30 { 0.0 } else { nums[k] / denom };
            out[k] = out[k].max(v);
        }
    }
    out
}

/// Scalar SoA numerators: per offset, one accumulator per template lane,
/// multiply-then-add in sample order — the same fold order as
/// [`sliding_corr_direct`]'s `.map(|(&s, &t)| s * t).sum()`.
fn soa_numerators_scalar(signal: &[f64], tc4: &[f64], l: usize, out: &mut [[f64; 4]]) {
    for (off, o) in out.iter_mut().enumerate() {
        let mut acc = [0.0f64; 4];
        for (i, &s) in signal[off..off + l].iter().enumerate() {
            for k in 0..4 {
                acc[k] += s * tc4[4 * i + k];
            }
        }
        *o = acc;
    }
}

/// AVX2 SoA numerators: the four template lanes live in one `__m256d`
/// accumulator; `vmulpd` + `vaddpd` (deliberately not FMA) perform the
/// identical per-lane IEEE operation sequence as the scalar fold, so
/// the vector path is bit-identical, not merely close.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn soa_numerators_avx2(signal: &[f64], tc4: &[f64], l: usize, out: &mut [[f64; 4]]) {
    use std::arch::x86_64::*;
    for (off, o) in out.iter_mut().enumerate() {
        let mut acc = _mm256_setzero_pd();
        let s = signal.as_ptr().add(off);
        let t = tc4.as_ptr();
        for i in 0..l {
            let sv = _mm256_set1_pd(*s.add(i));
            let tv = _mm256_loadu_pd(t.add(4 * i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(sv, tv));
        }
        _mm256_storeu_pd(o.as_mut_ptr(), acc);
    }
}

/// Per-thread cap on memoized probe spectra; exceeding it clears the
/// map (receivers use a handful of fixed sync probes, so eviction is
/// effectively never hit in practice).
const PROBE_CACHE_CAP: usize = 8;

/// Memoized probe spectra, keyed by (fft size, probe fingerprint).
type ProbeSpectra = HashMap<(usize, u64), Rc<Vec<Complex64>>>;

thread_local! {
    /// Memoized zero-padded probe spectra. Sync correlators slide the
    /// *same* preamble probe over every packet, so its forward
    /// transform — one of the three FFTs in [`complex_sliding_corr`] —
    /// is loop-invariant across a run and worth caching.
    static PROBE_SPECTRA: RefCell<ProbeSpectra> = RefCell::new(HashMap::new());
}

/// FNV-1a over the probe's raw sample bits and length. A 64-bit
/// fingerprint over a handful of distinct probes per process makes an
/// accidental collision astronomically unlikely.
fn probe_fingerprint(probe: &[Complex64]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ probe.len() as u64;
    for s in probe {
        h = (h ^ s.re.to_bits()).wrapping_mul(PRIME);
        h = (h ^ s.im.to_bits()).wrapping_mul(PRIME);
    }
    h
}

/// The forward FFT of `probe` zero-padded to length `m`, served from the
/// per-thread memo when the same probe was transformed before. A cache
/// hit returns bit-identical values to a fresh transform (same plan,
/// same input), so callers cannot observe the memoization numerically.
fn probe_spectrum(fft: &Fft, m: usize, probe: &[Complex64]) -> Rc<Vec<Complex64>> {
    let key = (m, probe_fingerprint(probe));
    PROBE_SPECTRA.with(|cache| {
        if let Some(spec) = cache.borrow().get(&key) {
            plan::PROBE_HITS.fetch_add(1, Ordering::Relaxed);
            return Rc::clone(spec);
        }
        plan::PROBE_MISSES.fetch_add(1, Ordering::Relaxed);
        let mut pb = vec![Complex64::ZERO; m];
        pb[..probe.len()].copy_from_slice(probe);
        fft.forward(&mut pb);
        let spec = Rc::new(pb);
        let mut cache = cache.borrow_mut();
        if cache.len() >= PROBE_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, Rc::clone(&spec));
        spec
    })
}

/// Complex sliding cross-correlation: `out[off] = Σ_i samples[off+i] ·
/// conj(probe[i])` for every full-overlap offset. This is the inner sum
/// of a matched filter; callers normalize by energies themselves. Uses
/// the FFT when the sizes justify it, the blocked direct kernel
/// ([`complex_sliding_corr_direct`]) otherwise; the FFT path memoizes
/// the probe's spectrum per thread (see [`probe_spectrum`]).
pub fn complex_sliding_corr(samples: &[Complex64], probe: &[Complex64]) -> Vec<Complex64> {
    if probe.is_empty() || samples.len() < probe.len() {
        return Vec::new();
    }
    let n = samples.len();
    let l = probe.len();
    if !fft_pays_off(n, l) {
        return complex_sliding_corr_direct(samples, probe);
    }
    let m = next_pow2(n + l);
    let fft = plan::fft_plan(m);
    let mut sa = plan::cbuf_zeroed(m);
    sa[..n].copy_from_slice(samples);
    let pb = probe_spectrum(&fft, m, probe);
    fft.forward(&mut sa);
    for (a, b) in sa.iter_mut().zip(pb.iter()) {
        *a *= b.conj();
    }
    fft.inverse(&mut sa);
    sa[..=n - l].to_vec()
}

/// Offsets the blocked direct kernel computes per pass.
const CORR_BLOCK: usize = 8;

/// [`complex_sliding_corr`]'s direct O(N·L) path, whatever the sizes.
///
/// Every offset equals the reference fold
/// `Σ acc + samples[off+i] · conj(probe[i])` bit for bit (`to_bits` on
/// both parts). Full blocks of eight offsets run a runtime-gated AVX
/// kernel that keeps eight independent accumulators and reads each
/// probe tap once per block; it multiplies and adds separately (no FMA)
/// in the fold's order, so each lane performs the fold's exact IEEE
/// operations. Leftover offsets, and hosts without AVX, take the scalar
/// fold ([`complex_sliding_corr_scalar`]).
pub fn complex_sliding_corr_direct(samples: &[Complex64], probe: &[Complex64]) -> Vec<Complex64> {
    if probe.is_empty() || samples.len() < probe.len() {
        return Vec::new();
    }
    let n_off = samples.len() - probe.len() + 1;
    let mut out = vec![Complex64::ZERO; n_off];
    let mut blocked = 0;
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx_available() {
        blocked = n_off - n_off % CORR_BLOCK;
        // SAFETY: AVX support was just probed at runtime; the kernel
        // asserts its own bounds.
        unsafe { corr_blocks_avx(samples, probe, &mut out[..blocked]) };
    }
    corr_fold_into(samples, probe, blocked, &mut out[blocked..]);
    out
}

/// [`complex_sliding_corr_direct`] with the AVX kernel switched off:
/// the scalar reference fold at every offset.
pub fn complex_sliding_corr_scalar(samples: &[Complex64], probe: &[Complex64]) -> Vec<Complex64> {
    if probe.is_empty() || samples.len() < probe.len() {
        return Vec::new();
    }
    let mut out = vec![Complex64::ZERO; samples.len() - probe.len() + 1];
    corr_fold_into(samples, probe, 0, &mut out);
    out
}

/// The reference fold for offsets `first..first + out.len()`.
fn corr_fold_into(samples: &[Complex64], probe: &[Complex64], first: usize, out: &mut [Complex64]) {
    for (k, o) in out.iter_mut().enumerate() {
        let off = first + k;
        *o = samples[off..off + probe.len()]
            .iter()
            .zip(probe)
            .fold(Complex64::ZERO, |acc, (&s, &p)| acc + s * p.conj());
    }
}

/// The first `out.len()` offsets of the correlation, in AVX blocks of
/// [`CORR_BLOCK`] offsets. Panics unless `out.len()` is a multiple of
/// the block and every block's window lies inside `samples`.
///
/// One `__m256d` holds two adjacent offsets' samples as
/// `[re im re im]`. Per tap, with `p̄ = conj(p) = (c, d)`, the lanes
/// compute `[re·c, im·c]` and, from the lane-swapped samples,
/// `[im·d, re·d]`; `addsub` gives `(re·c − im·d, im·c + re·d)`, which is
/// `Complex64`'s `s · p̄` (IEEE addition commutes), and a separate add
/// accumulates it, as the fold's `acc + s · p̄` does.
///
/// # Safety
///
/// The CPU must support AVX (`simd::avx_available()`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn corr_blocks_avx(samples: &[Complex64], probe: &[Complex64], out: &mut [Complex64]) {
    use std::arch::x86_64::*;
    // The last block reads samples[out.len() - 1 + probe.len() - 1].
    assert!(out.len().is_multiple_of(CORR_BLOCK));
    assert!(out.len() + probe.len() <= samples.len() + 1);
    // repr(C) Complex64: (re, im) pairs are contiguous f64s.
    let s = samples.as_ptr() as *const f64;
    for (b, block) in out.chunks_exact_mut(CORR_BLOCK).enumerate() {
        let mut acc = [_mm256_setzero_pd(); CORR_BLOCK / 2];
        let base = s.add(2 * b * CORR_BLOCK);
        for (i, p) in probe.iter().enumerate() {
            let c = _mm256_set1_pd(p.re);
            let d = _mm256_set1_pd(-p.im);
            let at = base.add(2 * i);
            for (j, a) in acc.iter_mut().enumerate() {
                let v = _mm256_loadu_pd(at.add(4 * j));
                let by_c = _mm256_mul_pd(v, c);
                let swapped_by_d = _mm256_mul_pd(_mm256_permute_pd::<0b0101>(v), d);
                *a = _mm256_add_pd(*a, _mm256_addsub_pd(by_c, swapped_by_d));
            }
        }
        let o = block.as_mut_ptr() as *mut f64;
        for (j, a) in acc.iter().enumerate() {
            _mm256_storeu_pd(o.add(4 * j), *a);
        }
    }
}

/// Per-offset signal energies for a sliding window of length `l`:
/// `out[off] = Σ_i |samples[off+i]|²`, from one prefix-sum pass.
pub fn sliding_energy(samples: &[Complex64], l: usize) -> Vec<f64> {
    if l == 0 || samples.len() < l {
        return Vec::new();
    }
    let mut prefix = Vec::with_capacity(samples.len() + 1);
    prefix.push(0.0f64);
    let mut acc = 0.0;
    for s in samples {
        acc += s.norm_sqr();
        prefix.push(acc);
    }
    (0..=samples.len() - l).map(|off| (prefix[off + l] - prefix[off]).max(0.0)).collect()
}

/// Quantizes samples to ±1 around a reference level (the DC estimate from
/// the preprocessing window). This is the 1-bit quantization of §2.3.1.
///
/// Tie-breaking is part of the contract: `x == dc` quantizes to **+1**
/// (the comparison is `x >= dc`). [`PackedBits`] uses the identical rule,
/// so the packed and scalar paths agree bit-for-bit.
pub fn sign_quantize(signal: &[f64], dc: f64) -> Vec<i8> {
    signal.iter().map(|&x| if x >= dc { 1 } else { -1 }).collect()
}

/// Integer correlation of two ±1 sequences: the count of agreements minus
/// disagreements. On the FPGA this is pure adders (no multipliers).
///
/// Returns 0 (no evidence) when the lengths differ.
pub fn quantized_corr(a: &[i8], b: &[i8]) -> i32 {
    if a.len() != b.len() {
        return 0;
    }
    a.iter().zip(b).map(|(&x, &y)| if x == y { 1i32 } else { -1i32 }).sum()
}

/// Normalized form of [`quantized_corr`] in `[-1, 1]`.
pub fn quantized_corr_norm(a: &[i8], b: &[i8]) -> f64 {
    if a.is_empty() || a.len() != b.len() {
        return 0.0;
    }
    quantized_corr(a, b) as f64 / a.len() as f64
}

/// A ±1 sequence bit-packed 64 signs per `u64` word (+1 → bit set, −1 →
/// bit clear). [`PackedBits::corr`] is then an XOR + popcount per word —
/// ~64× fewer operations than the scalar [`quantized_corr`] — which is
/// the software analogue of the paper's "multipliers become adders"
/// argument taken one step further.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// Packs a ±1 sequence (any positive value reads as +1; zero or
    /// negative as −1, matching [`sign_quantize`]'s output domain).
    pub fn from_signs(signs: &[i8]) -> Self {
        let mut words = vec![0u64; signs.len().div_ceil(64)];
        for (i, &s) in signs.iter().enumerate() {
            if s > 0 {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        PackedBits { words, len: signs.len() }
    }

    /// Quantizes and packs in one pass, with the same tie rule as
    /// [`sign_quantize`]: `x >= dc` sets the bit (+1).
    pub fn from_signal(signal: &[f64], dc: f64) -> Self {
        let mut packed = PackedBits::empty();
        packed.pack_into(signal, dc);
        packed
    }

    /// An empty packed sequence, ready for [`PackedBits::pack_into`].
    pub fn empty() -> Self {
        PackedBits { words: Vec::new(), len: 0 }
    }

    /// [`PackedBits::from_signal`] into this instance, reusing the word
    /// buffer — the allocation-free path for pooled scratch that packs
    /// a new window every call (the matcher's batched lag search).
    pub fn pack_into(&mut self, signal: &[f64], dc: f64) {
        self.words.clear();
        self.words.resize(signal.len().div_ceil(64), 0u64);
        for (i, &x) in signal.iter().enumerate() {
            if x >= dc {
                self.words[i / 64] |= 1u64 << (i % 64);
            }
        }
        self.len = signal.len();
    }

    /// Number of packed signs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no signs are packed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Agreements minus disagreements against another packed sequence:
    /// `len − 2·popcount(a XOR b)`. Identical to [`quantized_corr`] on
    /// the unpacked sequences; returns 0 when the lengths differ.
    pub fn corr(&self, other: &PackedBits) -> i32 {
        if self.len != other.len {
            return 0;
        }
        let mut disagree = 0u32;
        for (w, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut x = a ^ b;
            // Mask bits past the sequence end in the last word (both
            // operands should have them clear; be defensive anyway).
            if (w + 1) * 64 > self.len {
                let valid = self.len - w * 64;
                if valid < 64 {
                    x &= (1u64 << valid) - 1;
                }
            }
            disagree += x.count_ones();
        }
        self.len as i32 - 2 * disagree as i32
    }

    /// Normalized form of [`PackedBits::corr`] in `[-1, 1]`.
    pub fn corr_norm(&self, other: &PackedBits) -> f64 {
        if self.is_empty() || self.len != other.len {
            return 0.0;
        }
        self.corr(other) as f64 / self.len as f64
    }

    /// Scores `self` (a packed template) against many packed queries in
    /// one pass: `out[i] = self.corr_norm(&queries[i])`. The template
    /// words stay hot in cache across all queries, which is the point
    /// of the template-outer loop order in the batched matcher.
    pub fn corr_norm_many(&self, queries: &[PackedBits], out: &mut [f64]) {
        assert!(out.len() >= queries.len(), "output slice too short");
        for (q, o) in queries.iter().zip(out.iter_mut()) {
            *o = self.corr_norm(q);
        }
    }
}

/// Estimates DC as the mean of a preprocessing window (paper: the first
/// `L_p` samples are reserved for DC removal and normalization).
pub fn dc_estimate(preprocess_window: &[f64]) -> f64 {
    if preprocess_window.is_empty() {
        return 0.0;
    }
    preprocess_window.iter().sum::<f64>() / preprocess_window.len() as f64
}

/// Normalizes a window to zero mean and unit RMS using statistics from a
/// (possibly different) preprocessing window, mirroring the tag pipeline.
pub fn normalize_window(window: &[f64], dc: f64, rms: f64) -> Vec<f64> {
    let scale = if rms < 1e-30 { 0.0 } else { 1.0 / rms };
    window.iter().map(|&x| (x - dc) * scale).collect()
}

/// RMS deviation of a window about `dc`.
pub fn rms_about(window: &[f64], dc: f64) -> f64 {
    if window.is_empty() {
        return 0.0;
    }
    (window.iter().map(|&x| (x - dc) * (x - dc)).sum::<f64>() / window.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-rewrite O(N·L) reference: per-offset normalized_corr.
    fn sliding_corr_naive(signal: &[f64], template: &[f64]) -> Vec<f64> {
        if template.is_empty() || signal.len() < template.len() {
            return Vec::new();
        }
        (0..=signal.len() - template.len())
            .map(|off| normalized_corr(&signal[off..off + template.len()], template))
            .collect()
    }

    fn test_signal(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / 2f64.powi(30)) - 1.0 + 0.3
            })
            .collect()
    }

    #[test]
    fn perfect_correlation_is_one() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 2.0];
        assert!((normalized_corr(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anticorrelated_is_minus_one() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![3.0, 2.0, 1.0];
        assert!((normalized_corr(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn scale_and_offset_invariance() {
        let a = vec![0.5, 1.5, -0.3, 2.2, 0.1];
        let b: Vec<f64> = a.iter().map(|&x| 3.0 * x + 7.0).collect();
        assert!((normalized_corr(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_yields_zero() {
        let flat = vec![2.0; 8];
        let varying = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(normalized_corr(&flat, &varying), 0.0);
    }

    #[test]
    fn mismatched_lengths_yield_zero_not_panic() {
        assert_eq!(normalized_corr(&[1.0, 2.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(quantized_corr(&[1, -1], &[1]), 0);
        assert_eq!(quantized_corr_norm(&[1, -1], &[1]), 0.0);
    }

    #[test]
    fn sliding_corr_finds_embedded_template() {
        let template = vec![1.0, -1.0, 1.0, 1.0, -1.0];
        let mut signal = vec![0.0; 20];
        for (i, &t) in template.iter().enumerate() {
            signal[7 + i] = t;
        }
        let scores = sliding_corr(&signal, &template);
        let best = scores.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
        assert_eq!(best.0, 7);
        assert!((best.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_corr_short_signal_empty() {
        assert!(sliding_corr(&[1.0], &[1.0, 2.0]).is_empty());
        assert!(sliding_corr_fft(&[1.0], &[1.0, 2.0]).is_empty());
    }

    #[test]
    fn prefix_sum_matches_naive() {
        let signal = test_signal(400, 7);
        let template = test_signal(60, 9);
        let fast = sliding_corr_direct(&signal, &template);
        let naive = sliding_corr_naive(&signal, &template);
        assert_eq!(fast.len(), naive.len());
        for (f, n) in fast.iter().zip(&naive) {
            assert!((f - n).abs() < 1e-9, "{f} vs {n}");
        }
    }

    #[test]
    fn fft_matches_direct() {
        let signal = test_signal(700, 3);
        let template = test_signal(120, 5);
        let fast = sliding_corr_fft(&signal, &template);
        let direct = sliding_corr_direct(&signal, &template);
        assert_eq!(fast.len(), direct.len());
        for (f, d) in fast.iter().zip(&direct) {
            assert!((f - d).abs() < 1e-9, "{f} vs {d}");
        }
    }

    #[test]
    fn complex_sliding_corr_matches_direct() {
        // Force both paths across the size heuristic and compare.
        let samples: Vec<Complex64> = test_signal(900, 11)
            .iter()
            .zip(test_signal(900, 12).iter())
            .map(|(&a, &b)| Complex64::new(a, b))
            .collect();
        let probe: Vec<Complex64> = samples[100..100 + 200].to_vec();
        let got = complex_sliding_corr(&samples, &probe);
        assert_eq!(got.len(), 900 - 200 + 1);
        // Direct oracle at a few offsets.
        for &off in &[0usize, 100, 250, 700] {
            let want = samples[off..off + 200]
                .iter()
                .zip(&probe)
                .fold(Complex64::ZERO, |acc, (&s, &p)| acc + s * p.conj());
            assert!((got[off] - want).abs() < 1e-8, "off {off}");
        }
        // The self-match offset has the largest magnitude.
        let best = (0..got.len()).max_by(|&a, &b| got[a].abs().partial_cmp(&got[b].abs()).unwrap());
        assert_eq!(best, Some(100));
    }

    #[test]
    fn sliding_energy_matches_direct() {
        let samples: Vec<Complex64> =
            test_signal(50, 4).iter().map(|&a| Complex64::new(a, -a * 0.5)).collect();
        let got = sliding_energy(&samples, 7);
        for (off, &e) in got.iter().enumerate() {
            let want: f64 = samples[off..off + 7].iter().map(|s| s.norm_sqr()).sum();
            assert!((e - want).abs() < 1e-10);
        }
    }

    #[test]
    fn sliding_corr_max4_matches_per_template_fold() {
        // Both dispatch regimes: short templates (direct/SoA path) and
        // long ones where fft_pays_off flips (per-template FFT fallback),
        // plus mismatched lengths (generic fallback) and a too-short
        // signal (no offsets → NEG_INFINITY).
        for (n, l) in [(300usize, 40usize), (300, 120), (4096, 512)] {
            let signal = test_signal(n, 1);
            let t: Vec<Vec<f64>> = (0..4).map(|k| test_signal(l, 50 + k)).collect();
            let got = sliding_corr_max4(&signal, [&t[0], &t[1], &t[2], &t[3]]);
            for k in 0..4 {
                let want =
                    sliding_corr(&signal, &t[k]).iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v));
                assert_eq!(got[k].to_bits(), want.to_bits(), "n={n} l={l} template {k}");
            }
        }
        let signal = test_signal(200, 2);
        let uneven: Vec<Vec<f64>> = (0..4).map(|k| test_signal(30 + k, 60 + k as u64)).collect();
        let got = sliding_corr_max4(&signal, [&uneven[0], &uneven[1], &uneven[2], &uneven[3]]);
        for k in 0..4 {
            let want =
                sliding_corr(&signal, &uneven[k]).iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v));
            assert_eq!(got[k].to_bits(), want.to_bits(), "uneven template {k}");
        }
        let short = sliding_corr_max4(&test_signal(10, 3), [&uneven[0]; 4]);
        assert!(short.iter().all(|v| *v == f64::NEG_INFINITY));
    }

    #[test]
    fn soa_scalar_and_simd_numerators_agree() {
        // The scalar SoA kernel must match the dispatched one exactly —
        // on AVX2 machines this pins the vector lanes to the scalar fold.
        let signal = test_signal(400, 5);
        let l = 64usize;
        let t: Vec<Vec<f64>> = (0..4).map(|k| test_signal(l, 70 + k)).collect();
        let mut scratch = Max4Scratch::default();
        let via_soa = sliding_corr_max4_soa(&signal, [&t[0], &t[1], &t[2], &t[3]], &mut scratch);
        // Recompute numerators with the scalar kernel on the prepared
        // interleave and compare raw lane sums at a few offsets.
        let mut scalar_nums = vec![[0.0f64; 4]; signal.len() - l + 1];
        soa_numerators_scalar(&signal, &scratch.tc4, l, &mut scalar_nums);
        for (off, lanes) in scalar_nums.iter().enumerate().step_by(37) {
            for k in 0..4 {
                assert_eq!(
                    lanes[k].to_bits(),
                    scratch.nums[off][k].to_bits(),
                    "offset {off} lane {k}"
                );
            }
        }
        let reference = sliding_corr_max4(&signal, [&t[0], &t[1], &t[2], &t[3]]);
        for k in 0..4 {
            assert_eq!(via_soa[k].to_bits(), reference[k].to_bits());
        }
    }

    #[test]
    fn quantization_and_integer_corr() {
        let sig = vec![0.2, 0.8, 0.1, 0.9, 0.5];
        let q = sign_quantize(&sig, 0.5);
        // The 0.5 sample ties with dc and must quantize to +1.
        assert_eq!(q, vec![-1, 1, -1, 1, 1]);
        assert_eq!(quantized_corr(&q, &q), 5);
        let inv: Vec<i8> = q.iter().map(|&x| -x).collect();
        assert_eq!(quantized_corr(&q, &inv), -5);
        assert!((quantized_corr_norm(&q, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn packed_corr_matches_scalar() {
        for n in [1usize, 5, 63, 64, 65, 120, 128, 200] {
            let a = sign_quantize(&test_signal(n, 21), 0.3);
            let b = sign_quantize(&test_signal(n, 22), 0.3);
            let pa = PackedBits::from_signs(&a);
            let pb = PackedBits::from_signs(&b);
            assert_eq!(pa.corr(&pb), quantized_corr(&a, &b), "n={n}");
            assert_eq!(pa.len(), n);
            assert!((pa.corr_norm(&pb) - quantized_corr_norm(&a, &b)).abs() < 1e-12);
        }
    }

    #[test]
    fn packed_from_signal_matches_quantize_then_pack() {
        let sig = test_signal(130, 33);
        let dc = sig[64]; // force an exact tie at one sample
        let via_scalar = PackedBits::from_signs(&sign_quantize(&sig, dc));
        let direct = PackedBits::from_signal(&sig, dc);
        assert_eq!(via_scalar, direct);
    }

    #[test]
    fn packed_mismatched_lengths_yield_zero() {
        let a = PackedBits::from_signs(&[1, -1, 1]);
        let b = PackedBits::from_signs(&[1, -1]);
        assert_eq!(a.corr(&b), 0);
        assert_eq!(a.corr_norm(&b), 0.0);
    }

    #[test]
    fn quantized_corr_matches_float_corr_for_binary_signals() {
        // For ±1 sequences, normalized float correlation and the integer
        // agreement count coincide (up to mean-removal effects when the
        // sequence is balanced).
        let a: Vec<i8> = vec![1, -1, 1, 1, -1, -1, 1, -1];
        let b: Vec<i8> = vec![1, -1, -1, 1, -1, 1, 1, -1];
        let fa: Vec<f64> = a.iter().map(|&x| x as f64).collect();
        let fb: Vec<f64> = b.iter().map(|&x| x as f64).collect();
        let qc = quantized_corr_norm(&a, &b);
        let fc = normalized_corr(&fa, &fb);
        assert!((qc - fc).abs() < 1e-12);
    }

    #[test]
    fn dc_and_rms_helpers() {
        let w = vec![1.0, 3.0];
        assert_eq!(dc_estimate(&w), 2.0);
        assert!((rms_about(&w, 2.0) - 1.0).abs() < 1e-12);
        let n = normalize_window(&w, 2.0, 1.0);
        assert_eq!(n, vec![-1.0, 1.0]);
    }

    #[test]
    fn empty_windows_are_safe() {
        assert_eq!(dc_estimate(&[]), 0.0);
        assert_eq!(rms_about(&[], 0.0), 0.0);
        assert_eq!(quantized_corr_norm(&[], &[]), 0.0);
        assert!(PackedBits::from_signs(&[]).is_empty());
    }

    #[test]
    fn pack_into_matches_from_signal_and_reuses_capacity() {
        let long = test_signal(300, 9);
        let short = test_signal(70, 10);
        let mut scratch = PackedBits::empty();
        for (sig, dc) in [(&long, 0.1), (&short, -0.2), (&long, 0.0)] {
            scratch.pack_into(sig, dc);
            let fresh = PackedBits::from_signal(sig, dc);
            assert_eq!(scratch.len(), fresh.len());
            assert_eq!(scratch.corr(&fresh), fresh.len() as i32, "not bit-identical");
        }
        // Shrinking from 300 to 70 samples must not leave stale high
        // words that change correlations.
        scratch.pack_into(&short, 0.0);
        let other = PackedBits::from_signal(&long[..70], 0.0);
        assert_eq!(scratch.corr(&other), PackedBits::from_signal(&short, 0.0).corr(&other));
    }

    #[test]
    fn corr_norm_many_matches_single_query_scoring() {
        let template = PackedBits::from_signal(&test_signal(128, 3), 0.0);
        let queries: Vec<PackedBits> =
            (0..7).map(|s| PackedBits::from_signal(&test_signal(128, 20 + s), 0.05)).collect();
        let mut out = vec![0.0; queries.len()];
        template.corr_norm_many(&queries, &mut out);
        for (q, &got) in queries.iter().zip(&out) {
            assert_eq!(got.to_bits(), template.corr_norm(q).to_bits());
        }
    }
}
