//! End-to-end pipeline benchmarks: one full packet through carrier
//! generation → tag modulation → channel → joint decode, per protocol —
//! the unit of work behind Figs. 12–15.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use msc_core::overlay::Mode;
use msc_phy::protocol::Protocol;
use msc_sim::pipeline::{run_packet, run_packets, AnyLink, Geometry};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_packet");
    for p in Protocol::ALL {
        let link = AnyLink::new(p, Mode::Mode1);
        group.bench_with_input(BenchmarkId::from_parameter(p.label()), &link, |b, link| {
            let mut rng = StdRng::seed_from_u64(7);
            let geo = Geometry::los(6.0);
            b.iter(|| {
                // No decode assertion: fading occasionally drops a
                // packet at 6 m, which is behaviour, not a bench error.
                run_packet(&mut rng, black_box(link), &geo, Mode::Mode1, 12)
            })
        });
    }
    group.finish();
}

fn bench_tag_full_loop(c: &mut Criterion) {
    // The tag's own processing: acquire + identify + modulate.
    use msc_core::MultiscatterTag;
    use msc_dsp::SampleRate;
    let mut group = c.benchmark_group("tag_process");
    for p in [Protocol::WifiN, Protocol::Ble] {
        let mut rng = StdRng::seed_from_u64(8);
        let wave = msc_sim::idtraces::random_packet(p, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(p.label()), &wave, |b, wave| {
            let mut tag = MultiscatterTag::new(SampleRate::ADC_LOW, Mode::Mode1);
            let mut rng = StdRng::seed_from_u64(9);
            b.iter(|| tag.process(&mut rng, black_box(wave), -6.0, 0.0, &[1, 0, 1]))
        });
    }
    group.finish();
}

fn bench_experiment_cell(c: &mut Criterion) {
    // One full Monte-Carlo cell as the experiments run it: a batch of
    // derived-seed packets through the worker pool (Fig. 13's unit of
    // work). Set `--threads` via msc_par::set_threads before running to
    // measure scaling; the default is available parallelism.
    let mut group = c.benchmark_group("experiment_cell");
    for p in [Protocol::Ble, Protocol::ZigBee] {
        let link = AnyLink::new(p, Mode::Mode1);
        group.bench_with_input(BenchmarkId::from_parameter(p.label()), &link, |b, link| {
            let geo = Geometry::los(8.0);
            b.iter(|| run_packets(black_box(link), &geo, Mode::Mode1, 16, 6, 42, "bench/cell"))
        });
    }
    group.finish();
}

fn bench_trial_batch(c: &mut Criterion) {
    // The batched trial engine on one cell, n = 12 so a width-8 batch
    // cycles the pool. Early stopping stays off (run_packets never
    // stops): these rows measure engine mechanics — SoA
    // materialization, one-pass channel kernels, windowed sync — not
    // the stopping rule.
    let mut group = c.benchmark_group("trial_batch");
    for p in [Protocol::Ble, Protocol::ZigBee] {
        let link = AnyLink::new(p, Mode::Mode1);
        group.bench_with_input(BenchmarkId::new("batch8", p.label()), &link, |b, link| {
            let geo = Geometry::los(8.0);
            b.iter(|| run_packets(black_box(link), &geo, Mode::Mode1, 16, 12, 42, "bench/batch"))
        });
    }
    group.finish();
}

/// The pre-PR ordered-rule search: greedy per step, re-scoring the full
/// decision chain with [`rule_accuracy`] for every threshold candidate.
/// Kept here as the baseline the incremental sweep is measured against.
fn rescan_search(
    data: &[msc_core::search::LabeledScores],
    grid: &[f64],
) -> (msc_core::OrderedRule, f64) {
    use msc_core::matcher::OrderStep;
    use msc_core::search::rule_accuracy;
    use msc_core::OrderedRule;

    let mut orders = Vec::new();
    for a in 0..4 {
        for b in 0..4 {
            for c in 0..4 {
                for d in 0..4 {
                    if a != b && a != c && a != d && b != c && b != d && c != d {
                        orders.push([
                            Protocol::ALL[a],
                            Protocol::ALL[b],
                            Protocol::ALL[c],
                            Protocol::ALL[d],
                        ]);
                    }
                }
            }
        }
    }
    let mut best: Option<(OrderedRule, f64)> = None;
    for order in orders {
        let mut steps: Vec<OrderStep> = order
            .iter()
            .map(|&protocol| OrderStep { protocol, threshold: f64::INFINITY })
            .collect();
        for i in 0..4 {
            let mut best_t = f64::INFINITY;
            let mut best_acc = -1.0;
            let mut candidates = grid.to_vec();
            if i < 3 {
                candidates.push(f64::INFINITY);
            }
            for &t in &candidates {
                steps[i].threshold = t;
                let acc = rule_accuracy(&OrderedRule { steps: steps.clone() }, data);
                if acc > best_acc {
                    best_acc = acc;
                    best_t = t;
                }
            }
            steps[i].threshold = best_t;
        }
        let rule = OrderedRule { steps };
        let acc = rule_accuracy(&rule, data);
        if best.as_ref().map(|(_, a)| acc > *a).unwrap_or(true) {
            best = Some((rule, acc));
        }
    }
    best.expect("at least one permutation")
}

fn bench_fleet(c: &mut Criterion) {
    // The deployment-scale fleet engine: carrier timelines, the MAC
    // sweep with backoff/retries, and per-tag accounting — the unit of
    // work behind one `paper fleet` scenario row. Synthetic ideal link
    // table (no calibration cells) so the rows time the engine, not the
    // packet pipeline.
    use msc_fleet::traffic::{Arrivals, Stream};
    use msc_fleet::{run, Backoff, FleetConfig, LinkTable, MacPolicy};

    let carriers: Vec<Stream> = Protocol::ALL
        .iter()
        .map(|&p| Stream {
            protocol: p,
            arrivals: Arrivals::Poisson { rate: 800.0 },
            airtime_s: 600e-6,
            tag_bits_per_packet: 32,
        })
        .collect();
    let link = LinkTable::ideal();
    let mut group = c.benchmark_group("fleet");
    for (tags, horizon_s) in [(100usize, 5.0f64), (500, 5.0), (500, 20.0)] {
        let cfg = FleetConfig {
            tags,
            horizon_s,
            carriers: carriers.clone(),
            readings: Arrivals::Periodic { rate: 1.0 },
            reading_bits: 64,
            policy: MacPolicy::BestGoodput,
            backoff: Backoff::default(),
            energy: None,
            queue_cap: 4,
            sample_every: 0,
            seed: 42,
        };
        let id = format!("tags{tags}/h{horizon_s:.0}");
        group.bench_with_input(BenchmarkId::from_parameter(id), &cfg, |b, cfg| {
            b.iter(|| run(black_box(cfg), &link, |_, _| 15.0))
        });
    }
    group.finish();
}

fn bench_id_sweep(c: &mut Criterion) {
    // The batched identification engine, stage by stage at the fig7
    // operating point (10 Msps, hard traces): trace generation, its
    // ADC-independent half (the unit the trace memo keeps) and the ADC
    // half at each of the paper's four rates, one front-end acquisition
    // per protocol, the packet-edge threshold, chunked batch scoring through
    // `score_acquired_many`, and the ordered-rule search — the
    // incremental prefix-count sweep against the pre-PR rescan.
    use msc_core::envelope::FrontEnd;
    use msc_core::search::{collect_scores, default_grid, search_ordered_rule};
    use msc_core::{MatchMode, Matcher, TemplateBank, TemplateConfig};
    use msc_dsp::SampleRate;
    use msc_sim::idtraces::{
        digitize_traces, generate_analog_at, generate_traces_hard, trace_sweep,
    };
    use msc_sim::idtraces::{HARD_INCIDENT_DBM, HARD_MAX_JITTER};

    let rate = SampleRate::ADC_HALF;
    let fe = FrontEnd::prototype(rate);
    let n = 8; // per protocol → 32 traces, the fig7 smoke scale
    let mut group = c.benchmark_group("id_sweep");
    group.bench_function("trace_gen", |b| b.iter(|| generate_traces_hard(black_box(&fe), n, 42)));
    let analog_set = || generate_analog_at(&fe, n, 42, HARD_INCIDENT_DBM, HARD_MAX_JITTER);
    group.bench_function("trace_analog", |b| b.iter(|| black_box(analog_set())));
    // abl-slope's five front ends from one acquisition per trace: the
    // same 32 traces, each drawn once and shaped five times.
    let slopes = [0.0, 0.05, 0.1, 0.25, 0.5].map(|fm_slope| FrontEnd { fm_slope, ..fe.clone() });
    group.bench_function("analog_sweep5", |b| {
        b.iter(|| {
            msc_par::par_map_indexed(4 * n, |i| {
                trace_sweep(black_box(&slopes), n, 42, &HARD_INCIDENT_DBM, HARD_MAX_JITTER, i)
            })
        })
    });
    let analog = analog_set();
    for adc_rate in
        [SampleRate::ADC_FULL, SampleRate::ADC_HALF, SampleRate::ADC_LOW, SampleRate::ADC_FLOOR]
    {
        let at = FrontEnd::prototype(adc_rate);
        let id = BenchmarkId::new("digitize", format!("{}Msps", adc_rate.as_msps()));
        group.bench_with_input(id, &at, |b, at| b.iter(|| digitize_traces(black_box(at), &analog)));
    }

    // One acquisition per protocol (the unit inside `trace_gen`), and
    // the detection threshold on the longest trace the identification
    // runners see: a ZigBee packet at the full 20 Msps.
    for p in Protocol::ALL {
        let mut rng = StdRng::seed_from_u64(11);
        let wave = msc_sim::idtraces::random_packet(p, &mut rng);
        group.bench_with_input(BenchmarkId::new("acquire", p.label()), &wave, |b, wave| {
            b.iter(|| fe.acquire(&mut rng, black_box(wave), -6.0))
        });
    }
    let mut rng = StdRng::seed_from_u64(12);
    let zigbee = msc_sim::idtraces::random_packet(Protocol::ZigBee, &mut rng);
    let full = FrontEnd::prototype(SampleRate::ADC_FULL).acquire(&mut rng, &zigbee, -6.0);
    group.bench_function("detect_start", |b| {
        b.iter(|| msc_core::templates::detect_start(black_box(&full)))
    });

    let traces = generate_traces_hard(&fe, n, 42);
    for (mode, label) in
        [(MatchMode::Quantized, "quantized"), (MatchMode::FullPrecision, "fullprec")]
    {
        let bank = TemplateBank::build(&fe, TemplateConfig::standard(rate));
        let matcher = Matcher::new(bank, mode);
        group.bench_with_input(BenchmarkId::new("score_batched", label), &matcher, |b, m| {
            b.iter(|| collect_scores(black_box(m), &traces))
        });
    }

    let bank = TemplateBank::build(&fe, TemplateConfig::standard(rate));
    let matcher = Matcher::new(bank, MatchMode::Quantized);
    let scores = collect_scores(&matcher, &traces);
    let grid = default_grid();
    group.bench_function("ordered_search/incremental", |b| {
        b.iter(|| search_ordered_rule(black_box(&scores), &grid))
    });
    group.bench_function("ordered_search/rescan", |b| {
        b.iter(|| rescan_search(black_box(&scores), &grid))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_pipeline, bench_tag_full_loop, bench_experiment_cell, bench_trial_batch, bench_fleet, bench_id_sweep
}
criterion_main!(benches);
