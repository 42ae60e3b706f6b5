//! What the benchmark runs and what it reports: the workloads and the
//! metric catalog. `BENCHMARK.json` at the repository root lists the
//! same names and units; the test below checks that the two agree.

use msc_phy::protocol::Protocol;
use msc_sim::experiments::{Experiment, REGISTRY};

/// One workload: a list of registry runners called as `(run)(n, seed)`
/// with a fleet horizon set through `MSC_FLEET_HORIZON_S`.
pub struct Workload {
    pub name: &'static str,
    /// Trial count handed to every runner.
    pub n: usize,
    /// Fleet sweep horizon, seconds (180 is the program's default).
    pub horizon_s: f64,
    /// Registry ids in call order; empty means the whole registry.
    pub runners: &'static [&'static str],
}

// Why these four: `paper-all` is the headline command and the only one
// where experiments share work (wave/trace cache hits, `calibrate`
// repeated by three fleet runners); `link-mc` is the trial path
// (carrier, overlay, channel, `rx.decode`, pool) without identification
// or fleet; `ident` is trace generation, template banks, scoring and
// rule search without `rx.decode`; `fleet` is the sequential MAC sweep
// with a single small calibration. Each stack is exercised by one
// workload and bypassed by another, so a change to one layer predicts
// "no change" somewhere.
pub const WORKLOADS: &[Workload] = &[
    Workload { name: "paper-all", n: 24, horizon_s: 180.0, runners: &[] },
    Workload {
        name: "link-mc",
        n: 96,
        horizon_s: 180.0,
        runners: &["fig12", "fig13", "fig14", "fig17", "abl-cfo", "abl-gamma"],
    },
    Workload {
        name: "ident",
        n: 96,
        horizon_s: 180.0,
        runners: &["fig5", "fig6", "fig7", "fig8", "abl-bits", "abl-slope", "abl-lag"],
    },
    Workload { name: "fleet", n: 8, horizon_s: 720.0, runners: &["fleet"] },
];

/// `--smoke` parameters: every runner clamps `n` up to its floor, and
/// the fleet sweeps cover two simulated seconds.
pub const SMOKE_N: usize = 1;
pub const SMOKE_HORIZON_S: f64 = 2.0;

/// Runners whose reports depend on neither the seed nor `n`; they must
/// match the committed reference byte for byte at every seed.
pub const SEEDLESS: &[&str] = &["tab2", "tab3", "tab4", "tab5", "tab6", "fig18", "ext-wakeup"];

/// The seed the committed reference reports were generated at.
pub const REFERENCE_SEED: u64 = 42;

impl Workload {
    pub fn experiments(&self) -> Vec<&'static Experiment> {
        if self.runners.is_empty() {
            return REGISTRY.iter().collect();
        }
        self.runners
            .iter()
            .map(|id| {
                msc_sim::experiments::find(id)
                    .unwrap_or_else(|| panic!("workload {} names unknown runner {id}", self.name))
            })
            .collect()
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A reported metric. Its direction and bound live in `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str) -> Metric {
    Metric { name: name.into(), unit }
}

/// Metrics a user of `paper` sees, measured with tracing off.
pub fn end_to_end() -> Vec<Metric> {
    vec![m("wall_s", "s"), m("wall_s.t1", "s"), m("setup_s", "s"), m("peak_rss_mb", "MB")]
}

/// Per-layer metrics of the traced run. Every workload reports every
/// one: the probes of each layer run at the workload's own `n` and
/// horizon.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![m("exp.sum.s", "s"), m("exp.cover_frac", "ratio")];
    for (prefix, unit) in [
        ("phy.carrier.us", "us"),
        ("tag.modulate.us", "us"),
        ("channel.uplink.us", "us"),
        ("rx.decode.us", "us"),
        ("rx.decode.ok_frac", "ratio"),
        ("engine.trial.us", "us"),
    ] {
        for p in Protocol::ALL {
            v.push(m(format!("{prefix}.{}", p.label()), unit));
        }
    }
    v.extend([
        m("id.trace_gen.ms", "ms"),
        m("id.bank_build.ms", "ms"),
        m("id.score.us_per_trace.quantized", "us"),
        m("id.score.us_per_trace.fullprec", "us"),
        m("id.search.ms", "ms"),
        m("id.ordered_acc", "ratio"),
        m("fleet.calibrate.s", "s"),
        m("fleet.sweep.s", "s"),
        m("fleet.sweep.ns_per_pkt", "ns"),
        m("fleet.carrier_pkts", "count"),
        // End to end by definition, but it does not repeat within 10%
        // run to run on a 2-core host, so it carries no bound.
        m("scaling_eff", "ratio"),
        m("par.utilization", "ratio"),
        m("par.busy_s", "s"),
        m("par.idle_s", "s"),
        m("prof.attributed_frac", "ratio"),
    ]);
    for frame in PROFILED_FRAMES {
        v.push(m(format!("prof.self_frac.{frame}"), "ratio"));
    }
    v.push(m("trace.overhead_frac", "ratio"));
    v
}

/// Profiler frames whose self time the traced pass reports. `par.run`
/// stands for the pool's own frames (`par.run` and `par.worker`): work
/// inside the pool that no named stage claims.
pub const PROFILED_FRAMES: [&str; 4] = ["rx.decode", "channel", "cell.prepare", "par.run"];

/// Metrics that are pure functions of the seed and must repeat exactly
/// between runs of the same seed.
pub fn is_exact(name: &str) -> bool {
    name == "fleet.carrier_pkts"
        || name == "id.ordered_acc"
        || name.starts_with("rx.decode.ok_frac.")
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end().into_iter().chain(per_layer()).find(|m| m.name == name).map(|m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_obs::export::{parse_json, Json};

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let v = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (group, catalog) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed: Vec<(String, String)> = v
                .get(group)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                catalog.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
            assert_eq!(listed, ours, "{group} differs from BENCHMARK.json");
        }
        let names: Vec<&str> = v
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    }

    #[test]
    fn workload_runners_exist() {
        for w in WORKLOADS {
            assert!(!w.experiments().is_empty(), "{}", w.name);
        }
        assert_eq!(find("paper-all").unwrap().experiments().len(), REGISTRY.len());
    }
}
