//! Span-profiler acceptance contract: profiling a run attributes ≥95%
//! of wall-clock to the call tree, the folded output is well-formed,
//! and collecting the profile does not perturb results.

use msc_obs::profile;

#[test]
fn profile_attributes_wall_clock_without_changing_results() {
    let _guard = profile::tests_serial();
    msc_par::set_threads(2);
    // fig13 fans its 32 cells out across the pool, so its trial work
    // runs under `par.worker` at any n; each cell's batches run inline
    // on its worker. N = 30 runs unsettled cells through the whole
    // early-stop schedule (6, 9, 14, 21, 30).
    const N: usize = 30;

    let baseline = msc_sim::experiments::fig13::run(N, 7).render();

    profile::reset();
    profile::enable();
    let profiled = {
        let _root = profile::scope("paper.run");
        let _exp = profile::scope("fig13");
        msc_sim::experiments::fig13::run(N, 7).render()
    };
    profile::disable();
    let prof = profile::take();
    msc_par::set_threads(0);

    assert_eq!(baseline, profiled, "profiling must not change the report");

    let root = prof.root().expect("a root node");
    assert_eq!(root.name, "paper.run");
    assert!(
        prof.attributed_frac() >= 0.95,
        "attributed {:.1}% of {:.0} µs wall",
        prof.attributed_frac() * 100.0,
        root.incl_us
    );
    // Root inclusive bounds the sum of its children (1% timer slack).
    assert!(
        root.incl_us >= prof.root_child_sum_us() * 0.99,
        "root {:.0} µs vs children {:.0} µs",
        root.incl_us,
        prof.root_child_sum_us()
    );

    // Folded output: non-empty, every line is `path;seg <count>`, and
    // the experiment nests under the root.
    let folded = prof.to_folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (path, us) = line.rsplit_once(' ').expect("path <us>");
        assert!(!path.is_empty() && path.split(';').all(|seg| !seg.is_empty()), "{line}");
        us.parse::<u64>().expect("integer µs");
    }
    assert!(
        folded.lines().any(|l| l.starts_with("paper.run;fig13")),
        "experiment frame missing:\n{folded}"
    );

    // The pipeline stages must appear in the tree — that's what makes
    // the attribution actionable, not just complete.
    let paths: Vec<&str> = prof.nodes.iter().map(|n| n.path.as_str()).collect();
    assert!(paths.iter().any(|p| p.ends_with("rx.decode") || p.ends_with("decode")), "{paths:?}");
    assert!(paths.iter().any(|p| p.contains("par.worker")), "{paths:?}");
}

#[test]
fn pool_utilization_is_reported_after_a_run() {
    let _guard = profile::tests_serial();
    msc_obs::pool::reset();
    msc_par::set_threads(2);
    let _ = msc_sim::experiments::fig13::run(2, 7);
    msc_par::set_threads(0);
    let stats = msc_obs::pool::snapshot();
    assert!(stats.calls > 0, "{stats:?}");
    assert!(stats.items > 0, "{stats:?}");
    let u = stats.utilization();
    assert!((0.0..=1.0).contains(&u), "utilization {u}");
}
