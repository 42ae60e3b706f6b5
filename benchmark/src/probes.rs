//! The layer replay: each layer's public function called directly with
//! the workload's parameters (`n`, seed, fleet horizon), every call
//! wrapped in a span. Runs in its own fresh process at `T = nproc`, so
//! the caches it touches start cold. Each metric is the median per call
//! (or the one value a deterministic probe yields) with its call count.

use crate::child::Spans;
use msc_core::overlay::{params_for, Mode};
use msc_core::search::{collect_scores, default_grid, per_protocol_accuracy, search_ordered_rule};
use msc_core::tag::payload_start_seconds;
use msc_core::{MatchMode, Matcher, TagOverlayModulator, TemplateBank, TemplateConfig};
use msc_dsp::stats::median;
use msc_dsp::SampleRate;
use msc_fleet::engine::FleetConfig;
use msc_fleet::mac::{Backoff, MacPolicy};
use msc_fleet::traffic::Arrivals;
use msc_phy::protocol::Protocol;
use msc_sim::experiments::fleet::{calibrate, horizon_s, paper_carriers, place_snr_db};
use msc_sim::idtraces::{front_end, generate_traces_hard};
use msc_sim::pipeline::{apply_uplink, run_packets, AnyLink, Geometry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(metric, value, samples)` rows.
pub type Rows = Vec<(String, f64, usize)>;

/// Productive units per carrier, as the fleet calibration and the
/// engine probe use.
const N_PRODUCTIVE: usize = 16;

/// Repetitions of the cheap, deterministic whole-call probes.
const REPS: usize = 3;

pub fn run(n: usize, seed: u64, spans: &mut Spans) -> Rows {
    let mut rows = Rows::new();
    spans.enter("replay");
    trial_path(n, seed, spans, &mut rows);
    identification(n, seed, spans, &mut rows);
    fleet(n, seed, spans, &mut rows);
    spans.exit();
    rows
}

fn push_median(rows: &mut Rows, name: String, samples: &[f64], scale: f64) {
    rows.push((name, median(samples) * scale, samples.len()));
}

/// PHY carrier synthesis, tag overlay, uplink channel and receiver
/// decode per protocol at `Geometry::los(8.0)`, `n` packets each, then
/// one engine cell of `n` trials under a label no runner uses.
fn trial_path(n: usize, seed: u64, spans: &mut Spans, rows: &mut Rows) {
    let geo = Geometry::los(8.0);
    let probe_cell = msc_par::hash_label("bench/probe");
    for (pi, p) in Protocol::ALL.into_iter().enumerate() {
        let label = p.label();
        spans.enter(format!("probe.trial_path.{label}"));
        let link = AnyLink::new(p, Mode::Mode1);
        let modulator = TagOverlayModulator::new(p, params_for(p, Mode::Mode1));
        let snr = geo.uplink_snr_db(p);
        let mut rng = StdRng::seed_from_u64(msc_par::derive_seed(seed, probe_cell, pi as u64));
        let mut t = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        let mut ok = 0usize;
        for _ in 0..n {
            let ((_, carrier), s) =
                spans.timed("phy.carrier", || link.make_carrier(&mut rng, N_PRODUCTIVE));
            t[0].push(s);
            let start = (payload_start_seconds(p) * carrier.rate().as_hz()).round() as usize;
            let bits: Vec<u8> =
                (0..link.tag_capacity(N_PRODUCTIVE)).map(|_| rng.gen_range(0..=1)).collect();
            let (modulated, s) =
                spans.timed("tag.modulate", || modulator.modulate(&carrier, start, &bits));
            t[1].push(s);
            let (rx, s) = spans
                .timed("channel.uplink", || apply_uplink(&mut rng, &modulated, snr, geo.fading));
            t[2].push(s);
            let (decoded, s) = spans.timed("rx.decode", || link.decode(&rx, N_PRODUCTIVE));
            t[3].push(s);
            ok += usize::from(decoded.is_ok());
        }
        for (prefix, samples) in
            ["phy.carrier.us", "tag.modulate.us", "channel.uplink.us", "rx.decode.us"]
                .iter()
                .zip(&t)
        {
            push_median(rows, format!("{prefix}.{label}"), samples, 1e6);
        }
        rows.push((format!("rx.decode.ok_frac.{label}"), ok as f64 / n.max(1) as f64, n));
        let cell = format!("bench/engine/{label}");
        let (_, s) = spans.timed("engine.trial", || {
            run_packets(&link, &geo, Mode::Mode1, N_PRODUCTIVE, n, seed, &cell)
        });
        rows.push((format!("engine.trial.us.{label}"), s * 1e6 / n.max(1) as f64, n));
        spans.exit();
    }
}

/// The fig7 operating point: hard traces at 10 Msps, the standard
/// template bank, quantized and full-precision scoring, and the ordered
/// rule search, trained and tested on two seeded trace sets.
fn identification(n: usize, seed: u64, spans: &mut Spans, rows: &mut Rows) {
    spans.enter("probe.identification");
    let n = n.max(16);
    let rate = SampleRate::ADC_HALF;
    let fe = front_end(rate);
    let (train, s_train) = spans.timed("id.trace_gen", || generate_traces_hard(&fe, n, seed));
    let (test, s_test) =
        spans.timed("id.trace_gen", || generate_traces_hard(&fe, n, seed ^ 0x5a5a));
    push_median(rows, "id.trace_gen.ms".into(), &[s_train, s_test], 1e3);

    let mut build = Vec::new();
    let mut bank = None;
    for _ in 0..REPS {
        let (b, s) = spans
            .timed("id.bank_build", || TemplateBank::build(&fe, TemplateConfig::standard(rate)));
        build.push(s);
        bank = Some(b);
    }
    push_median(rows, "id.bank_build.ms".into(), &build, 1e3);
    let bank = bank.expect("REPS > 0");

    let mut scored = Vec::new();
    for (mode, name) in
        [(MatchMode::Quantized, "quantized"), (MatchMode::FullPrecision, "fullprec")]
    {
        let matcher = Matcher::new(bank.clone(), mode);
        let mut per_trace = Vec::new();
        let mut sets = Vec::new();
        for traces in [&train, &test] {
            let (scores, s) = spans.timed("id.score", || collect_scores(&matcher, traces));
            per_trace.push(s / traces.len().max(1) as f64);
            sets.push(scores);
        }
        push_median(rows, format!("id.score.us_per_trace.{name}"), &per_trace, 1e6);
        if mode == MatchMode::Quantized {
            scored = sets;
        }
    }
    let (train_scores, test_scores) = (&scored[0], &scored[1]);
    let mut search = Vec::new();
    let mut rule = None;
    for _ in 0..REPS {
        let (r, s) =
            spans.timed("id.search", || search_ordered_rule(train_scores, &default_grid()));
        search.push(s);
        rule = Some(r.rule);
    }
    push_median(rows, "id.search.ms".into(), &search, 1e3);
    let per = per_protocol_accuracy(&rule.expect("REPS > 0"), test_scores);
    rows.push(("id.ordered_acc".into(), per.iter().sum::<f64>() / 4.0, test_scores.len()));
    spans.exit();
}

/// Link-table calibration at the fleet runner's `n`, then the paper's
/// 500-tag best-goodput mains sweep over the workload's horizon.
fn fleet(n: usize, seed: u64, spans: &mut Spans, rows: &mut Rows) {
    spans.enter("probe.fleet");
    let (table, s) = spans.timed("fleet.calibrate", || calibrate(n.max(8), seed));
    rows.push(("fleet.calibrate.s".into(), s, 1));
    let cfg = FleetConfig {
        tags: 500,
        horizon_s: horizon_s(),
        carriers: paper_carriers(),
        readings: Arrivals::Periodic { rate: 1.0 },
        reading_bits: 64,
        policy: MacPolicy::BestGoodput,
        backoff: Backoff::default(),
        energy: None,
        queue_cap: 4,
        sample_every: 0,
        seed,
    };
    let mut sweep = Vec::new();
    let mut pkts = 0;
    for _ in 0..REPS {
        let (r, s) =
            spans.timed("fleet.sweep", || msc_fleet::engine::run(&cfg, &table, place_snr_db));
        sweep.push(s);
        pkts = r.carrier_packets;
    }
    push_median(rows, "fleet.sweep.s".into(), &sweep, 1.0);
    rows.push(("fleet.sweep.ns_per_pkt".into(), median(&sweep) * 1e9 / pkts.max(1) as f64, REPS));
    rows.push(("fleet.carrier_pkts".into(), pkts as f64, REPS));
    spans.exit();
}
