//! Memory-layer benchmarks behind `BENCH_mem.json`: waveform-cache hit
//! vs miss, overlap-save vs direct FIR convolution, and FFT plan-cache
//! lookups — the steady-state costs the zero-allocation hot path relies
//! on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msc_core::overlay::Mode;
use msc_dsp::{plan, Complex64, Fir};
use msc_phy::protocol::Protocol;
use msc_sim::memo::set_all_enabled;
use msc_sim::pipeline::AnyLink;
use msc_sim::wavecache::CellExcitation;

fn bench_waveform_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("waveform_cache");
    let link = AnyLink::new(Protocol::ZigBee, Mode::Mode1);
    set_all_enabled(true);
    let _ = CellExcitation::prepare(&link, Mode::Mode1, 16, 42, "bench/mem-cell");
    group.bench_function("hit", |b| {
        b.iter(|| CellExcitation::prepare(black_box(&link), Mode::Mode1, 16, 42, "bench/mem-cell"))
    });
    group.bench_function("miss", |b| {
        b.iter(|| {
            // Re-enabling clears the memos, so every prepare
            // resynthesizes and reinserts.
            set_all_enabled(true);
            CellExcitation::prepare(black_box(&link), Mode::Mode1, 16, 42, "bench/mem-cell")
        })
    });
    group.finish();
}

fn bench_fir(c: &mut Criterion) {
    let mut group = c.benchmark_group("fir_convolve");
    let taps: Vec<f64> = (0..65).map(|i| ((i as f64) * 0.37).sin() / 65.0).collect();
    let fir = Fir::new(taps);
    let signal: Vec<Complex64> = (0..16_384).map(|i| Complex64::cis(i as f64 * 0.013)).collect();
    group.bench_function("overlap_save_16k_65", |b| {
        b.iter(|| fir.convolve_overlap_save(black_box(&signal)))
    });
    group.bench_function("direct_16k_65", |b| b.iter(|| fir.convolve_direct(black_box(&signal))));
    group.finish();
}

fn bench_plan_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_cache");
    let _ = plan::fft_plan(4096);
    group.bench_function("lookup_4096", |b| b.iter(|| plan::fft_plan(black_box(4096))));
    group.bench_function("scratch_checkout_4096", |b| {
        b.iter(|| {
            let buf = plan::cbuf_zeroed(black_box(4096));
            black_box(buf.len())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_waveform_cache, bench_fir, bench_plan_cache
}
criterion_main!(benches);
