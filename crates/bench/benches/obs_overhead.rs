//! Observability overhead guard: the same identification and overlay
//! hot paths benchmarked with the msc-obs layer disabled (the default —
//! instrumentation must cost one relaxed atomic load), with metrics
//! enabled, with the span profiler collecting, and with the flight
//! recorder armed, so the cost of each layer is visible as a gap
//! against the `obs_disabled/*` rows across runs. The profiler and
//! flight rows back the <3% overhead acceptance bound.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msc_core::envelope::FrontEnd;
use msc_core::overlay::{params_for, Mode, TagOverlayModulator};
use msc_core::{MatchMode, Matcher, OrderedRule, TemplateBank, TemplateConfig};
use msc_dsp::{Complex64, IqBuf, SampleRate};
use msc_phy::protocol::Protocol;
use msc_sim::idtraces::random_packet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn identify_setup() -> (Matcher, OrderedRule, Vec<f64>) {
    let rate = SampleRate::ADC_HALF;
    let fe = FrontEnd::prototype(rate);
    let mut rng = StdRng::seed_from_u64(11);
    let wave = random_packet(Protocol::WifiB, &mut rng);
    let acq = fe.acquire(&mut rng, &wave, -6.0);
    let bank = TemplateBank::build(&fe, TemplateConfig::standard(rate));
    (Matcher::new(bank, MatchMode::Quantized), OrderedRule::paper_default(), acq)
}

fn overlay_setup() -> (TagOverlayModulator, IqBuf, Vec<u8>) {
    let params = params_for(Protocol::WifiN, Mode::Mode1);
    let modulator = TagOverlayModulator::new(Protocol::WifiN, params);
    let carrier = IqBuf::new(vec![Complex64::ONE; 16_000], SampleRate::mhz(20.0));
    let bits = vec![1u8, 0, 1, 1, 0, 1, 0, 0, 1, 1];
    (modulator, carrier, bits)
}

fn bench_disabled_vs_enabled(c: &mut Criterion) {
    let (matcher, rule, acq) = identify_setup();
    let (modulator, carrier, bits) = overlay_setup();

    // Disabled path: neither tracing nor metrics installed. These
    // numbers must match the uninstrumented identification/overlay
    // benches within noise (<2%).
    assert!(!msc_obs::metrics::enabled() && !msc_obs::trace::enabled());
    let mut group = c.benchmark_group("obs_disabled");
    group.bench_function("identify_ordered", |b| {
        b.iter(|| matcher.identify_ordered(black_box(&acq), 0, &rule))
    });
    group.bench_function("overlay_modulate", |b| {
        b.iter(|| modulator.modulate(black_box(&carrier), 0, &bits))
    });
    group.finish();

    // Enabled path: quantifies what turning metrics on costs (expected
    // to be small but nonzero — registry mutex + clock reads).
    msc_obs::metrics::enable();
    let mut group = c.benchmark_group("obs_enabled");
    group.bench_function("identify_ordered", |b| {
        b.iter(|| matcher.identify_ordered(black_box(&acq), 0, &rule))
    });
    group.bench_function("overlay_modulate", |b| {
        b.iter(|| modulator.modulate(black_box(&carrier), 0, &bits))
    });
    group.bench_function("stage_timed", |b| {
        b.iter(|| {
            msc_obs::metrics::time_stage("bench", "identify", || {
                matcher.identify_ordered(black_box(&acq), 0, &rule)
            })
        })
    });
    group.finish();
    msc_obs::metrics::disable();
    msc_obs::metrics::Registry::global().reset();

    // Profiler collecting: span frames open/close around each stage.
    msc_obs::profile::reset();
    msc_obs::profile::enable();
    let mut group = c.benchmark_group("obs_profile");
    group.bench_function("identify_ordered", |b| {
        b.iter(|| {
            msc_obs::metrics::time_stage("bench", "identify", || {
                matcher.identify_ordered(black_box(&acq), 0, &rule)
            })
        })
    });
    group.bench_function("overlay_modulate", |b| {
        b.iter(|| {
            msc_obs::metrics::time_stage("bench", "modulate", || {
                modulator.modulate(black_box(&carrier), 0, &bits)
            })
        })
    });
    group.finish();
    msc_obs::profile::disable();
    let _ = msc_obs::profile::take();

    // Flight recorder armed: one full begin/note/end trial around the
    // stage, the per-trial cost the recorder adds to the pipeline.
    msc_obs::flight::arm(msc_obs::flight::FlightConfig::default());
    let mut group = c.benchmark_group("obs_flight");
    group.bench_function("identify_trial", |b| {
        let mut i = 0u64;
        b.iter(|| {
            msc_obs::flight::begin_trial("bench", "bench/cell", 0, i, 42, i, "802.11b");
            let p = msc_obs::metrics::time_stage("bench", "identify", || {
                matcher.identify_ordered(black_box(&acq), 0, &rule)
            });
            msc_obs::flight::note_score("score", 0.5);
            msc_obs::flight::end_trial("ok");
            i = i.wrapping_add(1);
            p
        })
    });
    group.finish();
    msc_obs::flight::disarm();
    let _ = msc_obs::flight::take_dumps();
}

/// Event-stream sink overhead: the identification hot path emits no
/// per-trial events (lifecycle events fire per cell, not per trial), so
/// with the sink open the row must match `obs_disabled/identify_ordered`
/// within noise — that gap is the events-on half of the <3% bound.
fn bench_events_sink(c: &mut Criterion) {
    let (matcher, rule, acq) = identify_setup();
    let path = std::env::temp_dir().join(format!("msc_bench_events_{}.jsonl", std::process::id()));
    let _guard = msc_obs::events::tests_serial();
    msc_obs::events::open_path(path.to_str().expect("utf8 temp path")).expect("open event sink");
    let mut group = c.benchmark_group("obs_events");
    group.bench_function("identify_ordered", |b| {
        b.iter(|| matcher.identify_ordered(black_box(&acq), 0, &rule))
    });
    group.bench_function("emit_event", |b| {
        // Cost of one emitted line (format + seq + buffered write), the
        // unit price of every cell/window/incident record.
        b.iter(|| msc_obs::events::emit("bench", "\"cell\":\"bench/cell\",\"trials\":12", ""))
    });
    group.finish();
    let _ = msc_obs::events::close();
    let _ = std::fs::remove_file(&path);
}

/// MAC tracing overhead: the fleet sweep with the no-op observer
/// (monomorphized away) vs a full `MacTrace` (window aggregation,
/// bounded log, detectors) — the fleet half of the <3% bound applies to
/// the untraced row; the traced row prices `--events`/`--metrics-out`.
fn bench_fleet_trace(c: &mut Criterion) {
    use msc_fleet::traffic::{Arrivals, Stream};
    use msc_fleet::{Backoff, FleetConfig, LinkTable, MacPolicy, MacTrace};
    let cfg = FleetConfig {
        tags: 40,
        horizon_s: 4.0,
        carriers: vec![
            Stream {
                protocol: Protocol::WifiN,
                arrivals: Arrivals::Periodic { rate: 2000.0 },
                airtime_s: 404e-6,
                tag_bits_per_packet: 23,
            },
            Stream {
                protocol: Protocol::Ble,
                arrivals: Arrivals::Periodic { rate: 2976.0 },
                airtime_s: 336e-6,
                tag_bits_per_packet: 5,
            },
        ],
        readings: Arrivals::Periodic { rate: 2.0 },
        reading_bits: 64,
        policy: MacPolicy::BestGoodput,
        backoff: Backoff::default(),
        energy: None,
        queue_cap: 4,
        sample_every: 0,
        seed: 42,
    };
    let link = LinkTable::ideal();
    let mut group = c.benchmark_group("obs_fleet");
    group.bench_function("sweep_untraced", |b| {
        b.iter(|| msc_fleet::run(black_box(&cfg), &link, |_, _| 18.0))
    });
    group.bench_function("sweep_traced", |b| {
        b.iter(|| {
            let mut tr = MacTrace::new(cfg.tags, cfg.carriers.len(), 1.0, Default::default());
            let r = msc_fleet::run_with(black_box(&cfg), &link, |_, _| 18.0, &mut tr);
            tr.finish();
            (r, tr)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_disabled_vs_enabled, bench_events_sink, bench_fleet_trace
}
criterion_main!(benches);
