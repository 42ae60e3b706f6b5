//! The paper-reproduction harness: regenerates every table and figure of
//! the evaluation.
//!
//! ```text
//! cargo run -p msc-sim --release --bin paper -- <experiment> [n] [seed]
//! cargo run -p msc-sim --release --bin paper -- all
//! cargo run -p msc-sim --release --bin paper -- all --full   # larger Monte Carlo
//! cargo run -p msc-sim --release --bin paper -- all --metrics-out out/
//! cargo run -p msc-sim --release --bin paper -- all --profile
//! cargo run -p msc-sim --release --bin paper -- fig13 --ci       # ±95% column
//! cargo run -p msc-sim --release --bin paper -- list
//! cargo run -p msc-sim --release --bin paper -- replay out/flight/bundle_0_decode-fail.json
//! cargo run -p msc-sim --release --bin paper -- replay out/flight/incident_00_tag_starved.json
//! cargo run -p msc-sim --release --bin paper -- diff outA/ outB/
//! cargo run -p msc-sim --release --bin paper -- diff --baseline out/
//! ```
//!
//! `--metrics-out <dir>` enables the observability layer and writes a
//! run manifest (`manifest.json`), the full metric registry
//! (`metrics.jsonl`, `metrics.csv`), each experiment's table as JSON
//! (`reports/<id>.json`), and — with the flight recorder armed — any
//! failure bundles (`flight/bundle_*.json`). `--profile` collects a span
//! profile and writes `profile.folded` (flamegraph-compatible) and
//! `profile.json` next to the metrics (or into the working directory
//! without `--metrics-out`). None of these flags change the table
//! output: observability only reads clocks, never RNG state.
//!
//! A progress ticker reports cells/trials/ETA/worker-utilization on
//! stderr while experiments run; `--no-progress` silences it for CI
//! logs. `--flight-slow-us N` additionally dumps trials whose slowest
//! stage exceeds N µs.
//!
//! `replay <bundle.json>` reads a bundle of either kind. A flight
//! bundle re-runs exactly the trial it describes (skipping all other
//! cells), verifies it reproduces the recorded scores and verdict — the
//! determinism contract, exercised on demand — and prints the trial's
//! notes (decode error kind, uplink SNR) on stderr. A fleet incident
//! bundle re-runs its scenario window through the three-phase
//! derived-seed contract and verifies the recorded event subsequence
//! bit-for-bit. Exit 0 REPRODUCED, 1 MISMATCH, 2 unreadable bundle,
//! unknown kind or impossible field.
//!
//! `--no-memo` disables every memo — the waveform cache, the analog
//! trace memo and the fleet link table — so every request computes
//! afresh. Reports are byte-identical either way (each memo holds a
//! pure function of its key); the flag exists to show exactly that and
//! to measure what the memos save.
//!
//! `--threads N` sizes the Monte-Carlo worker pool (default: available
//! parallelism). Results are bit-identical at any thread count — seeds
//! derive per packet from `(seed, cell, index)`, never from a shared
//! stream.
//!
//! `--no-early-stop` disables adaptive per-cell early stopping so
//! every cell runs its full trial count; early-stopped cells otherwise
//! show `n=<used>/<requested>⏹` in the `--ci` column. The knob is
//! recorded in the run manifest and feeds the archive's config hash.
//!
//! `--metrics-out` arms the flight recorder, which records one trial
//! per lane of the batched trial engine; arming it changes neither the
//! engine nor early stopping, so an archived run prints exactly what a
//! plain run prints.
//!
//! `--ci` appends a `±95%` column to every rendered table: each cell
//! statistic's Wilson-interval half-width plus a `✓`/`?` convergence
//! mark. Like the other observability flags it never changes results.
//!
//! `--events <path|->` opens the structured event stream: one JSONL
//! record per run / experiment / cell boundary, per progress tick, and
//! per fleet MAC window, schema-versioned and sequence-numbered. With
//! `-` the stream goes to stdout and the report tables move to stderr.
//! Every field before the trailing `"wall"` object is deterministic —
//! stripped of `"wall"`, the stream is byte-identical at any
//! `--threads`. Like the other observability flags it never changes
//! results, so it stays outside the archive config hash.
//!
//! The event sink or `--metrics-out` also turns on fleet MAC tracing:
//! `paper fleet` runs under a per-event observer whose anomaly
//! detectors (tag starved past `MSC_FLEET_STARVE_S` seconds, window
//! collision rate past `MSC_FLEET_COLLISION_RATE`, `--fleet-phy`
//! DIVERGENT verdicts) dump replayable incident bundles under
//! `<metrics-out>/flight/incident_*.json` for `paper replay`.
//!
//! `--metrics-out` additionally archives every report under
//! `<dir>/archive/` keyed by (experiment, seed, git rev, config hash) —
//! thread count excluded, since reports are thread-count invariant.
//! `diff <runA> <runB>` joins two runs cell by cell and classifies each
//! movement NOISE / SIGNIFICANT / NEW / GONE via 99% Wilson-interval
//! overlap; `diff --baseline <dir>` compares `<dir>`'s newest archived
//! run against the closest earlier archive entry. Exit code 1 means at
//! least one SIGNIFICANT movement.

use msc_sim::experiments::{find, REGISTRY};
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!(
        "usage: paper <experiment|all> [n] [seed] [--full] [--ci] [--profile] \
         [--threads N] [--no-early-stop] [--metrics-out <dir>] \
         [--events <path|->] [--no-memo] [--no-progress] \
         [--flight-slow-us N] [--fleet-phy]\n       paper list\n       \
         paper replay <bundle.json|incident.json> [--threads N]\n       \
         paper diff <runA> <runB> [--only-moved]\n       \
         paper diff --baseline <metrics-dir> [--only-moved]"
    );
    eprintln!("experiments:");
    for e in REGISTRY {
        eprintln!("  {:12} {}", e.id, e.desc);
    }
    std::process::exit(2);
}

/// `paper list`: every registry entry with its default trial count
/// (what a plain `paper <id>` run executes: `max(12, min_n)`).
fn run_list() {
    println!("{:12} {:>6}  description", "experiment", "trials");
    for e in REGISTRY {
        let trials = if e.min_n == 0 { "-".to_string() } else { e.effective_n(12).to_string() };
        println!("{:12} {:>6}  {}", e.id, trials, e.desc);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut full = false;
    let mut ci = false;
    let mut profile = false;
    let mut no_progress = false;
    let mut baseline = false;
    let mut only_moved = false;
    let mut flight_slow_us = f64::INFINITY;
    let mut metrics_out: Option<PathBuf> = None;
    let mut events_path: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => full = true,
            "--ci" => ci = true,
            "--baseline" => baseline = true,
            "--only-moved" => only_moved = true,
            "--profile" => profile = true,
            "--no-progress" => no_progress = true,
            // Recompute every waveform, analog trace set and fleet
            // link table instead of memoizing them. Reports are
            // byte-identical either way (each memo holds a pure
            // function of its key).
            "--no-memo" => msc_sim::memo::set_all_enabled(false),
            "--threads" => {
                let Some(v) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--threads needs a number\n");
                    usage();
                };
                msc_par::set_threads(v);
            }
            // Disable adaptive per-cell early stopping: every cell
            // runs its full trial count.
            "--no-early-stop" => msc_sim::engine::set_early_stop(false),
            // Validate the fleet link abstraction: replay a sampled
            // subset of fleet attempts through the full waveform
            // pipeline (fleet experiments only; changes report notes,
            // so it feeds the archive config hash).
            "--fleet-phy" => msc_sim::experiments::fleet::set_phy_check(true),
            "--flight-slow-us" => {
                let Some(v) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("--flight-slow-us needs a number (µs)\n");
                    usage();
                };
                flight_slow_us = v;
            }
            "--metrics-out" => {
                let Some(dir) = it.next() else {
                    eprintln!("--metrics-out needs a directory\n");
                    usage();
                };
                metrics_out = Some(PathBuf::from(dir));
            }
            // Structured event stream: JSONL to a file, or to stdout
            // with `-` (report tables then move to stderr).
            "--events" => {
                let Some(path) = it.next() else {
                    eprintln!("--events needs a path (or -)\n");
                    usage();
                };
                events_path = Some(path.clone());
            }
            s if s.starts_with("--") => {
                eprintln!("unknown flag: {s}\n");
                usage();
            }
            s => positional.push(s.to_string()),
        }
    }
    let which = positional.first().map(|s| s.as_str()).unwrap_or("");

    if which == "list" {
        run_list();
        return;
    }

    if which == "replay" {
        let Some(path) = positional.get(1) else {
            eprintln!("replay needs a bundle path\n");
            usage();
        };
        std::process::exit(run_replay(path));
    }

    if which == "diff" {
        std::process::exit(run_diff(&positional[1..], baseline, only_moved));
    }

    let n: usize =
        positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(if full { 60 } else { 12 });
    let seed: u64 = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(42);

    if profile {
        msc_obs::profile::reset();
        msc_obs::profile::enable();
    }
    // MAC event tracing rides along whenever something will consume it:
    // the event sink, or the metrics/flight chain under --metrics-out.
    msc_sim::experiments::fleet::set_trace(events_path.is_some() || metrics_out.is_some());
    // With `--events -` the stream owns stdout; tables move to stderr.
    let events_stdout = events_path.as_deref() == Some("-");
    let mut manifest = if metrics_out.is_some() {
        msc_obs::metrics::Registry::global().reset();
        msc_obs::metrics::enable();
        msc_obs::flight::arm(msc_obs::flight::FlightConfig {
            slow_stage_us: flight_slow_us,
            ..Default::default()
        });
        Some(
            msc_obs::RunManifest::start(std::path::Path::new("."), n, seed, full)
                .with_threads(msc_par::threads())
                .with_engine(msc_sim::engine::early_stop()),
        )
    } else {
        None
    };

    // Runs one experiment: ambient experiment label, a profiler frame
    // named after it, wall-clock into the manifest, table JSON into
    // <dir>/reports/.
    let run_one = |exp: &msc_sim::experiments::Experiment,
                   manifest: &mut Option<msc_obs::RunManifest>| {
        let id = exp.id;
        msc_obs::metrics::set_experiment(id);
        if msc_obs::events::enabled() {
            msc_obs::events::emit("experiment_start", &format!("\"id\":\"{id}\""), "");
        }
        let frame = msc_obs::profile::scope(id);
        let t0 = std::time::Instant::now();
        let report = (exp.run)(n, seed);
        let wall = t0.elapsed().as_secs_f64();
        drop(frame);
        msc_obs::progress::experiment_done();
        if msc_obs::events::enabled() {
            msc_obs::events::emit(
                "experiment_end",
                &format!("\"id\":\"{id}\",\"rows\":{}", report.len()),
                &format!("\"wall_s\":{wall:.3}"),
            );
        }
        if let Some(m) = manifest.as_mut() {
            m.record(id, wall, report.len());
        }
        if let Some(dir) = &metrics_out {
            let path = dir.join("reports").join(format!("{id}.json"));
            report
                .write_json(&path)
                .unwrap_or_else(|e| eprintln!("failed to write {}: {e}", path.display()));
        }
        (report, wall)
    };

    let total = if which == "all" { REGISTRY.len() } else { 1 };
    if let Some(path) = &events_path {
        if let Err(e) = msc_obs::events::open_path(path) {
            eprintln!("cannot open events sink {path}: {e}");
            std::process::exit(2);
        }
        msc_obs::events::emit(
            "run_start",
            &format!(
                "\"which\":\"{}\",\"n\":{n},\"seed\":{seed},\"full\":{full},\
                 \"experiments\":{total}",
                msc_obs::export::json_escape(which)
            ),
            &format!("\"threads\":{}", msc_par::threads()),
        );
    }
    let run_t0 = std::time::Instant::now();
    msc_obs::progress::reset(total as u64);
    let ticker = if no_progress { None } else { Some(msc_obs::progress::start(total as u64)) };
    let root = msc_obs::profile::scope("paper.run");

    // Tables go to stdout, unless the event stream owns it.
    let print_report = |s: String| {
        if events_stdout {
            eprintln!("{s}");
        } else {
            println!("{s}");
        }
    };

    // Reports kept in memory for the archive (id, table JSON).
    let mut archived: Vec<(String, String)> = Vec::new();
    match which {
        "all" => {
            for exp in REGISTRY {
                let (report, wall) = run_one(exp, &mut manifest);
                print_report(if ci { report.render_ci() } else { report.render() });
                print_report(format!("  [{} done in {wall:.1}s]\n", exp.id));
                if metrics_out.is_some() {
                    archived.push((exp.id.to_string(), report.to_json()));
                }
            }
        }
        other => {
            let Some(exp) = find(other) else {
                eprintln!("unknown experiment: {other}\n");
                usage();
            };
            let (report, _) = run_one(exp, &mut manifest);
            print_report(if ci { report.render_ci() } else { report.render() });
            if metrics_out.is_some() {
                archived.push((exp.id.to_string(), report.to_json()));
            }
        }
    }

    drop(root);
    if let Some(t) = ticker {
        t.finish();
    }

    if let (Some(dir), Some(manifest)) = (&metrics_out, manifest) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create {}: {e}", dir.display());
            std::process::exit(1);
        }
        write_flight_bundles(dir, n);
        write_fleet_incidents(dir);
        // Steady-state cache effectiveness: FFT-plan/scratch registry
        // counters, the memos, and the worker pool / flight / progress
        // totals.
        msc_obs::metrics::set_experiment("run");
        let ps = msc_dsp::plan::stats();
        let pool = msc_obs::pool::snapshot();
        let fs = msc_obs::flight::stats();
        let pc = msc_obs::progress::counters();
        let g = msc_obs::metrics::gauge_set;
        g("dsp.plan_hits", "dsp", "plan", ps.plan_hits as f64);
        g("dsp.plan_misses", "dsp", "plan", ps.plan_misses as f64);
        g("dsp.scratch_reuses", "dsp", "scratch", ps.scratch_reuses as f64);
        g("dsp.scratch_allocs", "dsp", "scratch", ps.scratch_allocs as f64);
        g("dsp.probe_hits", "dsp", "probe", ps.probe_hits as f64);
        g("dsp.probe_misses", "dsp", "probe", ps.probe_misses as f64);
        for (memo, s) in msc_sim::memo::all_stats() {
            // Metric names are `&'static str`; these are built once per run.
            let name = |field: &str| &*format!("{memo}.{field}").leak();
            g(name("len"), "sim", "", s.len as f64);
            g(name("hits_total"), "sim", "", s.hits as f64);
            g(name("misses_total"), "sim", "", s.misses as f64);
        }
        g("pool.busy_us", "par", "", pool.busy_us as f64);
        g("pool.idle_us", "par", "", pool.idle_us as f64);
        g("pool.utilization", "par", "", pool.utilization());
        g("flight.trials", "obs", "", fs.trials as f64);
        g("flight.dumps", "obs", "", fs.dumps as f64);
        g("flight.suppressed", "obs", "", fs.suppressed as f64);
        g("progress.cells", "obs", "", pc.cells as f64);
        g("progress.trials", "obs", "", pc.trials as f64);
        // Run-level throughput: the ticker's final totals, recorded
        // even for --no-progress CI runs.
        let run_wall = run_t0.elapsed().as_secs_f64().max(1e-9);
        g("progress.experiments", "obs", "", pc.experiments_done as f64);
        g("progress.trials_per_s", "obs", "", pc.trials as f64 / run_wall);
        g("progress.wall_s", "obs", "", run_wall);
        let snap = msc_obs::metrics::Registry::global().snapshot();
        let write = |name: &str, body: String| {
            let path = dir.join(name);
            std::fs::write(&path, body)
                .unwrap_or_else(|e| eprintln!("failed to write {}: {e}", path.display()));
        };
        write("metrics.jsonl", msc_obs::export::to_jsonl(&snap));
        write("metrics.csv", msc_obs::export::to_csv(&snap));
        manifest.write(dir).unwrap_or_else(|e| eprintln!("failed to write manifest: {e}"));
        eprintln!("[obs] {} metrics + manifest + reports written to {}", snap.len(), dir.display());

        // Content-addressed archive: every report stored under
        // (experiment, seed, git rev, config hash). Thread count is
        // deliberately excluded — reports are identical at any pool
        // size — while anything that can move a cell feeds the hash.
        let arch = msc_obs::archive::Archive::open(dir);
        let config: Vec<(&str, String)> = vec![
            ("n", n.to_string()),
            ("full", full.to_string()),
            ("perturb_margin_db", format!("{}", msc_sim::pipeline::perturb_margin_db())),
            // Early stopping changes how many trials a cell uses.
            ("early_stop", msc_sim::engine::early_stop().to_string()),
            // Fleet knobs: the horizon scales every fleet count and the
            // phy-check pass appends validation notes.
            ("fleet_horizon", format!("{}", msc_sim::experiments::fleet::horizon_s())),
            ("fleet_phy", msc_sim::experiments::fleet::phy_check().to_string()),
        ];
        for (id, json) in &archived {
            let key =
                msc_obs::archive::RunKey::new(id.clone(), seed, manifest.git_rev.clone(), &config);
            if let Err(e) = arch.store(&key, json, manifest.created_unix_s) {
                eprintln!("failed to archive {id}: {e}");
            }
        }
        match arch.prune(8) {
            Ok(removed) if removed > 0 => {
                eprintln!("[archive] pruned {removed} old run(s)");
            }
            Ok(_) => {}
            Err(e) => eprintln!("archive prune failed: {e}"),
        }
        eprintln!(
            "[archive] {} report(s) archived under {}",
            archived.len(),
            arch.root().display()
        );
    }

    if profile {
        write_profile(metrics_out.as_deref());
    }

    if msc_obs::events::enabled() {
        // Terminal event: the progress ticker's final totals, emitted
        // past the cap so a capped run still records them. Counter
        // totals are deterministic; rates and utilization are not and
        // ride the wall object.
        let pc = msc_obs::progress::counters();
        let dropped = msc_obs::events::stats().dropped;
        let wall = run_t0.elapsed().as_secs_f64().max(1e-9);
        msc_obs::events::emit_terminal(
            "run_end",
            &format!(
                "\"experiments\":{},\"cells\":{},\"trials\":{},\"events_dropped\":{dropped}",
                pc.experiments_done, pc.cells, pc.trials
            ),
            &format!(
                "\"wall_s\":{:.3},\"trials_per_s\":{:.1},\"util\":{:.3}",
                wall,
                pc.trials as f64 / wall,
                msc_obs::pool::snapshot().utilization()
            ),
        );
        if let Some(st) = msc_obs::events::close() {
            eprintln!("[events] {} event(s) written ({} dropped past cap)", st.written, st.dropped);
        }
    }
}

/// Drains the fleet MAC incidents recorded during traced runs and
/// writes each as a replayable bundle under `<dir>/flight/`.
fn write_fleet_incidents(dir: &std::path::Path) {
    let incidents = msc_sim::experiments::fleet::take_incidents();
    if incidents.is_empty() {
        return;
    }
    let flight_dir = dir.join("flight");
    if let Err(e) = std::fs::create_dir_all(&flight_dir) {
        eprintln!("failed to create {}: {e}", flight_dir.display());
        return;
    }
    for (slug, json) in &incidents {
        let path = flight_dir.join(format!("incident_{slug}.json"));
        std::fs::write(&path, json)
            .unwrap_or_else(|e| eprintln!("failed to write {}: {e}", path.display()));
    }
    eprintln!(
        "[flight] {} fleet incident(s) written to {} — inspect with `paper replay <bundle>`",
        incidents.len(),
        flight_dir.display()
    );
}

/// Drains the flight recorder and writes each dump as a replayable
/// bundle under `<dir>/flight/`.
fn write_flight_bundles(dir: &std::path::Path, n: usize) {
    let dumps = msc_obs::flight::take_dumps();
    let stats = msc_obs::flight::stats();
    if dumps.is_empty() {
        return;
    }
    let flight_dir = dir.join("flight");
    if let Err(e) = std::fs::create_dir_all(&flight_dir) {
        eprintln!("failed to create {}: {e}", flight_dir.display());
        return;
    }
    for (i, dump) in dumps.iter().enumerate() {
        let slug: String =
            dump.reason.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect();
        let path = flight_dir.join(format!("bundle_{i}_{slug}.json"));
        std::fs::write(&path, msc_obs::flight::bundle_to_json(dump, n))
            .unwrap_or_else(|e| eprintln!("failed to write {}: {e}", path.display()));
    }
    eprintln!(
        "[flight] {} bundle(s) written to {} ({} suppressed) — inspect with `paper replay <bundle>`",
        dumps.len(),
        flight_dir.display(),
        stats.suppressed
    );
}

/// Takes the collected span profile and writes `profile.folded` +
/// `profile.json` into `dir` (or the working directory).
fn write_profile(dir: Option<&std::path::Path>) {
    msc_obs::profile::disable();
    let profile = msc_obs::profile::take();
    let ps = msc_dsp::plan::stats();
    let pool = msc_obs::pool::snapshot();
    let mut counters: Vec<(String, f64)> = vec![
        ("dsp.plan_hits".into(), ps.plan_hits as f64),
        ("dsp.plan_misses".into(), ps.plan_misses as f64),
        ("dsp.scratch_reuses".into(), ps.scratch_reuses as f64),
        ("dsp.scratch_allocs".into(), ps.scratch_allocs as f64),
    ];
    for (memo, s) in msc_sim::memo::all_stats() {
        counters.push((format!("{memo}.hits"), s.hits as f64));
        counters.push((format!("{memo}.misses"), s.misses as f64));
        counters.push((format!("{memo}.bypasses"), s.bypasses as f64));
    }
    counters.extend([
        ("pool.busy_us".into(), pool.busy_us as f64),
        ("pool.idle_us".into(), pool.idle_us as f64),
        ("pool.utilization".into(), pool.utilization()),
    ]);
    let dir = dir.unwrap_or_else(|| std::path::Path::new("."));
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("failed to create {}: {e}", dir.display());
        return;
    }
    let write = |name: &str, body: String| {
        let path = dir.join(name);
        std::fs::write(&path, body)
            .unwrap_or_else(|e| eprintln!("failed to write {}: {e}", path.display()));
    };
    write("profile.folded", profile.to_folded());
    write("profile.json", profile.to_json(&counters));
    eprintln!(
        "[profile] {} span paths, {:.1}% of wall attributed — {}/profile.folded (flamegraph) + profile.json",
        profile.nodes.len(),
        profile.attributed_frac() * 100.0,
        dir.display()
    );
}

/// `paper diff`: joins two runs cell by cell and classifies every
/// statistic movement via 99% Wilson-interval overlap. Operands are
/// report files, `--metrics-out` directories, or directories of report
/// JSONs; `--baseline` instead takes one `--metrics-out` directory and
/// compares its newest archived run against the closest earlier archive
/// entry. Exit codes: 0 — every movement within noise, 1 — at least one
/// SIGNIFICANT movement, 2 — operand or parse errors.
fn run_diff(operands: &[String], baseline: bool, only_moved: bool) -> i32 {
    use msc_obs::diff;
    let mut total = diff::DiffSummary::default();
    let mut compared = 0usize;
    let mut diff_one = |id: &str, a_json: &str, b_json: &str| -> i32 {
        match diff::diff_report_json(a_json, b_json) {
            Ok((diffs, summary)) => {
                print!("{}", diff::render_diff(id, &diffs, &summary, only_moved));
                total.merge(&summary);
                compared += 1;
                0
            }
            Err(e) => {
                eprintln!("{id}: {e}");
                2
            }
        }
    };
    if baseline {
        let Some(dir) = operands.first() else {
            eprintln!("diff --baseline needs a --metrics-out directory\n");
            usage();
        };
        let dir = Path::new(dir);
        let current = match diff::collect_reports(dir) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        };
        let arch = msc_obs::archive::Archive::open(dir);
        let entries = arch.entries();
        if entries.is_empty() {
            eprintln!(
                "{}: empty archive — produce runs with --metrics-out first",
                arch.root().display()
            );
            return 2;
        }
        for (id, cur_json) in &current {
            // This run is, by construction, the newest archive entry
            // for its experiment; the baseline is the closest earlier
            // comparable entry.
            let cur_entry =
                entries.iter().filter(|e| &e.key.experiment == id).max_by_key(|e| e.created_unix_s);
            let Some(cur_entry) = cur_entry else {
                println!("== diff {id} ==\n  (not archived; skipped)");
                continue;
            };
            let Some(base) = arch.latest_baseline(&cur_entry.key) else {
                println!("== diff {id} ==\n  (no comparable baseline in archive)");
                continue;
            };
            let base_json = match arch.load(&base) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("{id}: {e}");
                    return 2;
                }
            };
            eprintln!("[diff] {id}: baseline {} ({})", base.key.file_stem(), base.created_unix_s);
            let rc = diff_one(id, &base_json, cur_json);
            if rc != 0 {
                return rc;
            }
        }
    } else {
        let (Some(a), Some(b)) = (operands.first(), operands.get(1)) else {
            eprintln!("diff needs two run paths (or --baseline <dir>)\n");
            usage();
        };
        let pair = (diff::collect_reports(Path::new(a)), diff::collect_reports(Path::new(b)));
        let (a, b) = match pair {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return 2;
            }
        };
        for (id, b_json) in &b {
            let Some(a_json) = a.get(id) else {
                println!("== diff {id} ==\n  (only in run B)");
                continue;
            };
            let rc = diff_one(id, a_json, b_json);
            if rc != 0 {
                return rc;
            }
        }
        for id in a.keys() {
            if !b.contains_key(id) {
                println!("== diff {id} ==\n  (only in run A)");
            }
        }
    }
    println!("diff total over {compared} report(s): {}", total.line());
    if total.significant > 0 {
        1
    } else {
        0
    }
}

/// `paper replay <bundle>`: re-run what a flight bundle or a fleet
/// incident bundle recorded and check it reproduces. Returns the
/// process exit code (0 REPRODUCED, 1 MISMATCH, 2 unreadable bundle).
fn run_replay(path: &str) -> i32 {
    let request = match std::fs::read_to_string(path) {
        Ok(text) => msc_sim::replay::parse(&text),
        Err(e) => Err(e.to_string()),
    };
    let request = match request {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot replay {path}: {e}");
            return 2;
        }
    };
    eprintln!("[replay] {}", request.describe());
    let result = match msc_sim::replay::run(&request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return 2;
        }
    };
    if let Some(record) = &result.record {
        for note in &record.notes {
            eprintln!("[note] {note}");
        }
        for (name, value) in &record.scores {
            println!("  {name} = {value}");
        }
        println!("  verdict = {}", record.verdict);
    }
    if result.matches {
        println!("REPRODUCED: replay matches the bundle exactly");
        return 0;
    }
    for d in &result.diffs {
        eprintln!("  mismatch: {d}");
    }
    println!("MISMATCH: replay diverged from the bundle ({} diff(s))", result.diffs.len());
    1
}
