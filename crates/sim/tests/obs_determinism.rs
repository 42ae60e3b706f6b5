//! Two same-seed runs must export byte-identical metrics.
//!
//! Latency histograms (`pipe.stage_us`) are the one sanctioned
//! exception: they record wall-clock durations, which legitimately
//! differ between runs, so the comparison filters them out.

use msc_core::overlay::Mode;
use msc_obs::metrics::{self, Registry};
use msc_phy::protocol::Protocol;
use msc_sim::pipeline::{run_packet, AnyLink, Geometry};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_once(seed: u64) -> String {
    Registry::global().reset();
    // Start each run with cold memos: they outlive the registry reset,
    // and their hit/miss counters (correctly) reflect memo state, not
    // the run's inputs.
    msc_sim::memo::set_all_enabled(true);
    metrics::set_experiment("det");
    // Identification path: per-template score histograms + decisions.
    let _ = msc_sim::experiments::fig05::run(4, seed);
    // Pipeline path: stage timings, SNR/BER histograms, decode counters.
    let mut rng = StdRng::seed_from_u64(seed);
    let geo = Geometry::los(8.0);
    for p in Protocol::ALL {
        let link = AnyLink::new(p, Mode::Mode1);
        for _ in 0..3 {
            let _ = run_packet(&mut rng, &link, &geo, Mode::Mode1, 16);
        }
    }
    let records: Vec<_> = Registry::global()
        .snapshot()
        .into_iter()
        .filter(|r| r.key.name != "pipe.stage_us")
        .collect();
    msc_obs::export::to_jsonl(&records)
}

#[test]
fn same_seed_runs_export_identical_metrics() {
    let _guard = metrics::tests_serial();
    metrics::enable();
    let a = run_once(42);
    let b = run_once(42);
    metrics::disable();
    Registry::global().reset();

    // The export covers both the identification and pipeline layers.
    assert!(a.contains("\"id.score\""), "id metrics missing:\n{a}");
    assert!(a.contains("\"pipe.packets\""), "pipeline metrics missing:\n{a}");
    assert_eq!(a, b, "same-seed exports differ");
}
