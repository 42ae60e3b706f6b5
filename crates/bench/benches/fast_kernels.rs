//! Fast-kernel benchmarks: each rewritten correlation kernel against the
//! naive formulation it replaced, so the speedups stay measured.
//!
//! Emit machine-readable results with
//! `BENCH_JSON_OUT=$PWD/BENCH_kernels.json cargo bench -p msc-bench --bench fast_kernels`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msc_dsp::corr::{
    complex_sliding_corr, dc_estimate, normalized_corr, quantized_corr, sign_quantize,
    sliding_corr_direct, sliding_corr_fft, PackedBits,
};
use msc_dsp::Complex64;

/// Deterministic pseudo-random test signal (no rand dependency in the
/// timed path).
fn test_signal(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// The pre-rewrite sliding correlation: one full `normalized_corr` per
/// offset, re-deriving window statistics every time.
fn sliding_corr_naive(signal: &[f64], template: &[f64]) -> Vec<f64> {
    let (n, l) = (signal.len(), template.len());
    (0..=n - l).map(|off| normalized_corr(&signal[off..off + l], template)).collect()
}

/// The pre-blocking complex direct path: one `acc + s * conj(p)` fold
/// per offset.
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

fn bench_packed(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_corr_120");
    let a = test_signal(120, 1);
    let b = test_signal(120, 2);
    let (qa, qb) = (sign_quantize(&a, 0.0), sign_quantize(&b, 0.0));
    group.bench_function("scalar", |bench| {
        bench.iter(|| quantized_corr(black_box(&qa), black_box(&qb)))
    });
    let (pa, pb) = (PackedBits::from_signs(&qa), PackedBits::from_signs(&qb));
    group.bench_function("bitpacked", |bench| bench.iter(|| black_box(&pa).corr(black_box(&pb))));
    // The per-window path the matcher runs: quantize + pack + correlate
    // against a cached pre-packed template.
    let dc = dc_estimate(&a);
    group.bench_function("quantize_pack_corr", |bench| {
        bench.iter(|| PackedBits::from_signal(black_box(&a), dc).corr_norm(black_box(&pb)))
    });
    group.finish();
}

fn bench_sliding(c: &mut Criterion) {
    let mut group = c.benchmark_group("sliding_corr_4000x120");
    let signal = test_signal(4000, 3);
    let template = test_signal(120, 4);
    group.bench_function("naive_per_offset", |bench| {
        bench.iter(|| sliding_corr_naive(black_box(&signal), black_box(&template)))
    });
    group.bench_function("prefix_sum", |bench| {
        bench.iter(|| sliding_corr_direct(black_box(&signal), black_box(&template)))
    });
    group.finish();
}

fn bench_fft_sliding(c: &mut Criterion) {
    let mut group = c.benchmark_group("sliding_corr_8192x512");
    let signal = test_signal(8192, 5);
    let template = test_signal(512, 6);
    group.bench_function("prefix_sum_direct", |bench| {
        bench.iter(|| sliding_corr_direct(black_box(&signal), black_box(&template)))
    });
    group.bench_function("fft", |bench| {
        bench.iter(|| sliding_corr_fft(black_box(&signal), black_box(&template)))
    });
    group.finish();
}

/// The 802.11n sync search's shape: a 160-sample L-STF probe over a
/// 5840-sample receive buffer, of which only the first 4000 offsets are
/// scored. `fold_full_buffer` is the work before the search was sliced.
fn bench_complex_sync(c: &mut Criterion) {
    let mut group = c.benchmark_group("complex_sync_corr_5840x160");
    let complex = |n: usize, seed: u64| -> Vec<Complex64> {
        let (re, im) = (test_signal(n, seed), test_signal(n, seed + 1));
        re.iter().zip(&im).map(|(&r, &i)| Complex64::new(r, i)).collect()
    };
    let samples = complex(5840, 7);
    let probe = complex(160, 9);
    let searched = &samples[..4000 + probe.len() - 1];
    group.bench_function("fold_full_buffer", |bench| {
        bench.iter(|| complex_corr_fold(black_box(&samples), black_box(&probe)))
    });
    group.bench_function("fold_first_4000", |bench| {
        bench.iter(|| complex_corr_fold(black_box(searched), black_box(&probe)))
    });
    group.bench_function("dispatched_first_4000", |bench| {
        bench.iter(|| complex_sliding_corr(black_box(searched), black_box(&probe)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_packed, bench_sliding, bench_fft_sliding, bench_complex_sync
}
criterion_main!(benches);
