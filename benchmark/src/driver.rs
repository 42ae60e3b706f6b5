//! `run` and `reference`: the closed-loop driver. One client runs one
//! pass at a time, each pass a fresh child process (see `child`), and
//! timestamps the child's `ready` and `done` lines.

use crate::catalog::{self, Workload, REFERENCE_SEED};
use crate::check::{self, Call, Reference, Tally};
use crate::child::Mode;
use msc_dsp::stats::median;
use msc_obs::export::json_escape;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Measurement budget per workload when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

/// Thread counts of successive passes, `N` standing for `nproc`: five
/// `T = N` passes to three `T = 1`, interleaved so slow host phases hit
/// both. The run takes passes in this order, cycling, while the budget
/// allows another one.
const PATTERN: [bool; 8] = [true, false, true, true, false, true, true, false];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Trace {
    Off,
    On,
    /// No `--trace` flag: untraced passes, then the traced pass, and
    /// every metric printed.
    Both,
}

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    out: PathBuf,
    smoke: bool,
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn parse_workloads(v: &str) -> Result<Vec<&'static Workload>, String> {
    if v == "all" {
        return Ok(catalog::WORKLOADS.iter().collect());
    }
    catalog::find(v).map(|w| vec![w]).ok_or_else(|| format!("unknown workload {v}"))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: catalog::WORKLOADS.iter().collect(),
        seed: REFERENCE_SEED,
        seconds: DEFAULT_SECONDS,
        trace: Trace::Both,
        out: manifest_dir().join("out"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workloads = parse_workloads(value()?)?,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if o.seconds.is_nan() || o.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => o.out = PathBuf::from(value()?),
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// What one child process reported.
#[derive(Default)]
struct ChildOut {
    threads: usize,
    mode: Mode,
    /// Spawn time, µs since the Unix epoch.
    spawned_us: f64,
    setup_s: f64,
    wall_s: f64,
    calls: Vec<Call>,
    busy_us: f64,
    idle_us: f64,
    rss_kb: f64,
    metrics: Vec<(String, f64, usize)>,
    /// `(id, parent, name, start_us, end_us)` on the child's clock,
    /// which starts just before `ready`.
    spans: Vec<(usize, Option<usize>, String, f64, f64)>,
}

fn spawn_child(
    w: &Workload,
    seed: u64,
    threads: usize,
    mode: Mode,
    smoke: bool,
) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name, "--seed", &seed.to_string()]);
    cmd.args(["--threads", &threads.to_string()]);
    cmd.args(mode.flag());
    if smoke {
        cmd.arg("--smoke");
    }
    // Inherited MSC_* knobs change results (MSC_PERTURB_MARGIN_DB) or
    // sizes (MSC_FLEET_HORIZON_S); the child sees only the workload's.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("MSC_") {
            cmd.env_remove(k);
        }
    }
    let horizon = if smoke { catalog::SMOKE_HORIZON_S } else { w.horizon_s };
    cmd.env("MSC_FLEET_HORIZON_S", horizon.to_string());
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit());

    let spawned_us = crate::child::unix_us();
    let t0 = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let result = read_child(BufReader::new(stdout), t0);
    let status = child.wait().map_err(|e| format!("wait for child: {e}"))?;
    let out = result?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    Ok(ChildOut { threads, mode, spawned_us, ..out })
}

/// Reads the line `want` and returns when it arrived, seconds after `t0`.
fn read_marker(rd: &mut impl BufRead, want: &str, t0: Instant) -> Result<f64, String> {
    let mut line = String::new();
    rd.read_line(&mut line).map_err(|e| format!("read child: {e}"))?;
    let at = t0.elapsed().as_secs_f64();
    if line.trim_end() != want {
        return Err(format!("child sent {line:?}, expected {want:?}"));
    }
    Ok(at)
}

fn read_child(mut rd: impl BufRead, t0: Instant) -> Result<ChildOut, String> {
    let setup_s = read_marker(&mut rd, "ready", t0)?;
    let wall_s = read_marker(&mut rd, "done", t0)?;
    let mut out = ChildOut { setup_s, wall_s, ..Default::default() };
    let bad = |l: &str| format!("malformed child record {l:?}");
    loop {
        let mut line = String::new();
        if rd.read_line(&mut line).map_err(|e| format!("read child: {e}"))? == 0 {
            break;
        }
        let f: Vec<&str> = line.trim_end_matches('\n').split('\t').collect();
        let num = |i: usize| -> Result<f64, String> {
            f.get(i).and_then(|v| v.parse().ok()).ok_or_else(|| bad(&line))
        };
        match f[0] {
            "exp" if f.len() == 5 => {
                let len: usize = f[4].parse().map_err(|_| bad(&line))?;
                let json = if f[3] == "ok" {
                    let mut buf = vec![0u8; len];
                    rd.read_exact(&mut buf).map_err(|e| format!("read report: {e}"))?;
                    Some(String::from_utf8(buf).map_err(|_| bad(&line))?)
                } else {
                    None
                };
                out.calls.push(Call { id: f[1].to_string(), secs: num(2)?, json });
            }
            "pool" => (out.busy_us, out.idle_us) = (num(1)?, num(2)?),
            "rss_kb" => out.rss_kb = num(1)?,
            "metric" if f.len() == 4 => {
                out.metrics.push((f[1].to_string(), num(2)?, num(3)? as usize));
            }
            "span" if f.len() == 6 => {
                let parent = if f[2] == "-" { None } else { Some(num(2)? as usize) };
                out.spans.push((num(1)? as usize, parent, f[3].to_string(), num(4)?, num(5)?));
            }
            _ => return Err(bad(&line)),
        }
    }
    Ok(out)
}

/// Everything one workload's run measured.
struct WorkloadRun {
    workload: &'static Workload,
    /// Start of the run, µs since the Unix epoch.
    started_us: f64,
    passes: Vec<ChildOut>,
    tally: Tally,
    /// Catalog metric → (value, sample count).
    metrics: BTreeMap<String, (f64, usize)>,
    /// Runner id → median seconds over the untraced `T = nproc` passes.
    runners: Vec<(String, f64)>,
}

fn run_workload(o: &Options, w: &'static Workload, nproc: usize) -> Result<WorkloadRun, String> {
    let start = Instant::now();
    let started_us = crate::child::unix_us();
    let mut passes: Vec<ChildOut> = Vec::new();
    for &full in PATTERN.iter().cycle() {
        let threads = if full { nproc } else { 1 };
        let have = |t: usize| passes.iter().any(|p| p.threads == t);
        if have(nproc) && have(1) {
            if o.smoke {
                break;
            }
            // Start another pass only if the slowest pass seen at this
            // thread count still fits in the budget.
            let predicted = passes
                .iter()
                .filter(|p| p.threads == threads)
                .map(|p| p.wall_s)
                .fold(0.0, f64::max);
            if start.elapsed().as_secs_f64() + predicted > o.seconds {
                break;
            }
        }
        passes.push(spawn_child(w, o.seed, threads, Mode::Pass, o.smoke)?);
    }
    if o.trace != Trace::Off {
        passes.push(spawn_child(w, o.seed, nproc, Mode::Traced, o.smoke)?);
        passes.push(spawn_child(w, o.seed, nproc, Mode::Replay, o.smoke)?);
    }

    let ids: Vec<&str> = w.experiments().iter().map(|e| e.id).collect();
    let seeded = o.seed == REFERENCE_SEED && !o.smoke;
    let reference = Reference::load(&reference_dir(w), &ids, seeded);
    let checked: Vec<(usize, &[Call])> =
        passes.iter().map(|p| (p.threads, p.calls.as_slice())).collect();
    let tally = check::check(&checked, &reference);

    let runners: Vec<(String, f64)> = ids
        .iter()
        .map(|id| {
            let secs: Vec<f64> = untraced(&passes, nproc)
                .iter()
                .flat_map(|p| p.calls.iter().filter(|c| c.id == *id).map(|c| c.secs))
                .collect();
            (id.to_string(), median(&secs))
        })
        .collect();
    let metrics = summarize(&passes, &runners, nproc);
    Ok(WorkloadRun { workload: w, started_us, passes, tally, metrics, runners })
}

/// The untraced passes at `threads`.
fn untraced(passes: &[ChildOut], threads: usize) -> Vec<&ChildOut> {
    passes.iter().filter(|p| p.mode == Mode::Pass && p.threads == threads).collect()
}

fn reference_dir(w: &Workload) -> PathBuf {
    manifest_dir().join(format!("reference/seed{REFERENCE_SEED}")).join(w.name)
}

fn summarize(
    passes: &[ChildOut],
    runners: &[(String, f64)],
    nproc: usize,
) -> BTreeMap<String, (f64, usize)> {
    let mut m = BTreeMap::new();
    let (full, single) = (untraced(passes, nproc), untraced(passes, 1));
    let med = |ps: &[&ChildOut], f: &dyn Fn(&ChildOut) -> f64| -> (f64, usize) {
        (median(&ps.iter().map(|p| f(p)).collect::<Vec<_>>()), ps.len())
    };
    let wall = med(&full, &|p| p.wall_s);
    let wall1 = med(&single, &|p| p.wall_s);
    m.insert("wall_s".into(), wall);
    m.insert("wall_s.t1".into(), wall1);
    m.insert("scaling_eff".into(), (wall1.0 / (nproc as f64 * wall.0), wall.1.min(wall1.1)));
    let all: Vec<&ChildOut> = passes.iter().filter(|p| p.mode == Mode::Pass).collect();
    m.insert("setup_s".into(), med(&all, &|p| p.setup_s));
    let rss = med(&full, &|p| p.rss_kb);
    m.insert("peak_rss_mb".into(), (rss.0 / 1024.0, rss.1));

    let traced = passes.iter().find(|p| p.mode == Mode::Traced);
    let replay = passes.iter().find(|p| p.mode == Mode::Replay);
    if let (Some(traced), Some(replay)) = (traced, replay) {
        let sum: f64 = runners.iter().map(|r| r.1).sum();
        m.insert("exp.sum.s".into(), (sum, wall.1));
        m.insert("exp.cover_frac".into(), (sum / (wall.0 - m["setup_s"].0), wall.1));
        m.insert("par.busy_s".into(), med(&full, &|p| p.busy_us / 1e6));
        m.insert("par.idle_s".into(), med(&full, &|p| p.idle_us / 1e6));
        m.insert(
            "par.utilization".into(),
            med(&full, &|p| p.busy_us / (p.busy_us + p.idle_us).max(1.0)),
        );
        m.insert("trace.overhead_frac".into(), (traced.wall_s / wall.0 - 1.0, 1));
        for (name, value, samples) in traced.metrics.iter().chain(&replay.metrics) {
            m.insert(name.clone(), (*value, *samples));
        }
    }
    m
}

/// A JSON number, or `null` for a value that is not finite.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The catalog metrics this run reports, in catalog order.
fn reported(trace: Trace) -> Vec<catalog::Metric> {
    match trace {
        Trace::Off => catalog::end_to_end(),
        Trace::On => catalog::per_layer(),
        Trace::Both => catalog::end_to_end().into_iter().chain(catalog::per_layer()).collect(),
    }
}

fn write_files(o: &Options, r: &WorkloadRun, nproc: usize) -> Result<(), String> {
    let w = r.workload.name;
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let passes: Vec<String> = r
        .passes
        .iter()
        .map(|p| {
            format!(
                "{{\"mode\": \"{}\", \"threads\": {}, \"setup_s\": {}, \"wall_s\": {}, \"peak_rss_mb\": {}}}",
                p.mode.label(),
                p.threads,
                num(p.setup_s),
                num(p.wall_s),
                num(p.rss_kb / 1024.0)
            )
        })
        .collect();
    let runners: Vec<String> =
        r.runners.iter().map(|(id, s)| format!("\"{}\": {}", json_escape(id), num(*s))).collect();
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, (v, samples))| {
            let unit = catalog::unit_of(name).unwrap_or("");
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\", \"samples\": {samples}}}",
                json_escape(name),
                num(*v)
            )
        })
        .collect();
    let result = format!(
        "{{\n  \"workload\": \"{w}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"nproc\": {nproc},\n  \
         \"smoke\": {},\n  \"started_unix\": {},\n  \"correct\": {},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"passes\": [\n    {}\n  ],\n  \
         \"runners\": {{{}}},\n  \"metrics\": {{\n    {}\n  }}\n}}\n",
        o.seed,
        o.seconds,
        o.smoke,
        r.started_us / 1e6,
        r.tally.failed == 0,
        r.tally.attempted,
        r.tally.failed,
        passes.join(",\n    "),
        runners.join(", "),
        metrics.join(",\n    ")
    );
    let path = o.out.join(format!("{w}.json"));
    std::fs::write(&path, result).map_err(|e| format!("{}: {e}", path.display()))?;

    // Trace: one span per pass, the child's own spans re-parented under
    // it; times are µs since the run began.
    let mut spans = Vec::new();
    let mut next = 0usize;
    for p in &r.passes {
        let pass_id = next;
        let t0 = p.spawned_us - r.started_us;
        spans.push(format!(
            "{{\"id\": {pass_id}, \"parent\": null, \"name\": \"{}.t{}\", \"start_us\": {}, \"end_us\": {}}}",
            p.mode.label(),
            p.threads,
            num(t0),
            num(t0 + p.wall_s * 1e6)
        ));
        for (id, parent, name, s, e) in &p.spans {
            spans.push(format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                pass_id + 1 + id,
                parent.map_or(pass_id, |q| pass_id + 1 + q),
                json_escape(name),
                num(s - r.started_us),
                num(e - r.started_us)
            ));
        }
        next = pass_id + 1 + p.spans.len();
    }
    let samples: Vec<String> =
        r.metrics.iter().map(|(name, (_, n))| format!("\"{}\": {n}", json_escape(name))).collect();
    let trace = format!(
        "{{\n  \"workload\": \"{w}\",\n  \"seed\": {},\n  \"nproc\": {nproc},\n  \"samples\": {{{}}},\n  \
         \"spans\": [\n    {}\n  ]\n}}\n",
        o.seed,
        samples.join(", "),
        spans.join(",\n    ")
    );
    let path = o.out.join(format!("{w}.trace.json"));
    std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(args: &[String]) -> i32 {
    let o = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("run: {e}");
            return 2;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let prefix = o.workloads.len() > 1;
    let mut total = Tally::default();
    let mut json_metrics = Vec::new();
    for &w in &o.workloads {
        let r = match run_workload(&o, w, nproc) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("run {}: {e}", w.name);
                return 1;
            }
        };
        for (id, secs) in &r.runners {
            println!("{} exp.{id}.s {secs} s", w.name);
        }
        let fail_frac = r.tally.failed as f64 / r.tally.attempted.max(1) as f64;
        println!("{} fail_frac {fail_frac} ratio", w.name);
        for m in reported(o.trace) {
            let Some(&(v, _)) = r.metrics.get(&m.name) else {
                eprintln!("run {}: metric {} was not measured", w.name, m.name);
                return 1;
            };
            println!("{} {} {v} {}", w.name, m.name, m.unit);
            let key = if prefix { format!("{}/{}", w.name, m.name) } else { m.name.clone() };
            json_metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(&key),
                num(v),
                m.unit
            ));
        }
        if let Err(e) = write_files(&o, &r, nproc) {
            eprintln!("run {}: {e}", w.name);
            return 1;
        }
        total.attempted += r.tally.attempted;
        total.failed += r.tally.failed;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.failed == 0,
        total.attempted,
        total.failed,
        json_metrics.join(", ")
    );
    0
}

/// `reference [--workload W|all]`: regenerates the committed reference
/// reports from one `T = nproc` pass at the reference seed.
pub fn reference(args: &[String]) -> i32 {
    let workloads = match args {
        [] => Ok(catalog::WORKLOADS.iter().collect()),
        [flag, v] if flag == "--workload" => parse_workloads(v),
        _ => Err("usage: reference [--workload W|all]".to_string()),
    };
    let workloads = match workloads {
        Ok(w) => w,
        Err(e) => {
            eprintln!("reference: {e}");
            return 2;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for w in workloads {
        let pass = match spawn_child(w, REFERENCE_SEED, nproc, Mode::Pass, false) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("reference {}: {e}", w.name);
                return 1;
            }
        };
        let dir = reference_dir(w);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("reference {}: {}: {e}", w.name, dir.display());
            return 1;
        }
        for c in &pass.calls {
            let Some(json) = &c.json else {
                eprintln!("reference {}: runner {} panicked", w.name, c.id);
                return 1;
            };
            let path = dir.join(format!("{}.json", c.id));
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("reference {}: {}: {e}", path.display(), w.name);
                return 1;
            }
        }
        eprintln!("reference {}: {} report(s) in {}", w.name, pass.calls.len(), dir.display());
    }
    0
}
