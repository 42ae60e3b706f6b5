//! The child process: one pass of a workload in a fresh process, so
//! every pass starts with the cold caches a `paper` user starts with.
//!
//! Wire format on stdout, read by the driver: a `ready` line once the
//! pool is sized, a `done` line once the last runner has returned, then
//! untimed records, one per line, tab-separated:
//!
//! ```text
//! exp    <id> <seconds> ok|panic <bytes>   (followed by <bytes> of report JSON)
//! pool   <busy_us> <idle_us>
//! rss_kb <VmHWM>
//! metric <name> <value> <samples>
//! span   <id> <parent|-> <name> <start_us> <end_us>   (µs since the Unix epoch)
//! ```

use crate::catalog::{self, Workload, PROFILED_FRAMES};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Spans recorded by the benchmark's own code around each call into the
/// program: name, start, end and the enclosing span. Kept in memory and
/// sent to the driver after `done`.
pub struct Spans {
    clock: Instant,
    /// `clock`'s origin on the system clock, µs since the Unix epoch:
    /// the one clock the driver and every child share.
    origin_us: f64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

struct Span {
    parent: Option<usize>,
    name: String,
    start_us: f64,
    end_us: f64,
}

impl Spans {
    pub fn new() -> Self {
        Spans { clock: Instant::now(), origin_us: unix_us(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enter(&mut self, name: impl Into<String>) {
        let parent = self.open.last().copied();
        let start_us = self.clock.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span { parent, name: name.into(), start_us, end_us: start_us });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration, seconds.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("span exit without enter");
        let span = &mut self.spans[id];
        span.end_us = self.clock.elapsed().as_secs_f64() * 1e6;
        (span.end_us - span.start_us) / 1e6
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn timed<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let out = std::hint::black_box(f());
        let secs = self.exit();
        (out, secs)
    }

    fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "-".into());
            let (start, end) = (self.origin_us + s.start_us, self.origin_us + s.end_us);
            writeln!(out, "span\t{i}\t{parent}\t{}\t{start}\t{end}", s.name)?;
        }
        Ok(())
    }
}

/// Now on the system clock, µs since the Unix epoch.
pub fn unix_us() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64() * 1e6)
}

/// What a child process runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mode {
    /// An untraced pass over the workload's runners.
    #[default]
    Pass,
    /// The same pass with the profiler on.
    Traced,
    /// The layer replay (`probes`).
    Replay,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Pass => "pass",
            Mode::Traced => "traced",
            Mode::Replay => "replay",
        }
    }

    /// The `--child` argument selecting this mode.
    pub fn flag(self) -> Option<&'static str> {
        match self {
            Mode::Pass => None,
            Mode::Traced => Some("--trace"),
            Mode::Replay => Some("--replay"),
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    threads: usize,
    mode: Mode,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut threads = None;
    let mut mode = Mode::Pass;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(catalog::find(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--threads" => threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?),
            "--trace" => mode = Mode::Traced,
            "--replay" => mode = Mode::Replay,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown child argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        threads: threads.ok_or("--threads is required")?,
        mode,
        smoke,
    })
}

pub fn main(args: &[String]) -> i32 {
    let args = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("child: {e}");
            return 2;
        }
    };
    match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("child: {e}");
            1
        }
    }
}

fn run(args: &Args) -> std::io::Result<()> {
    let mut spans = Spans::new();
    msc_par::set_threads(args.threads);
    let n = if args.smoke { catalog::SMOKE_N } else { args.workload.n };
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()?;

    if args.mode == Mode::Replay {
        let metrics = crate::probes::run(n, args.seed, &mut spans);
        writeln!(out, "done")?;
        out.flush()?;
        for (name, value, samples) in metrics {
            writeln!(out, "metric\t{name}\t{value}\t{samples}")?;
        }
        spans.write(&mut out)?;
        return out.flush();
    }

    let traced = args.mode == Mode::Traced;
    if traced {
        msc_obs::profile::reset();
        msc_obs::profile::enable();
    }
    let mut results = Vec::new();
    {
        let _root = msc_obs::profile::scope("bench.pass");
        spans.enter("pass");
        for exp in args.workload.experiments() {
            let _frame = msc_obs::profile::scope(exp.id);
            let (report, secs) = spans.timed(format!("exp.{}", exp.id), || {
                catch_unwind(AssertUnwindSafe(|| (exp.run)(n, args.seed)))
            });
            results.push((exp.id, secs, report.ok().map(|r| r.to_json())));
        }
        spans.exit();
    }
    let pool = msc_obs::pool::snapshot();
    let rss_kb = vm_hwm_kb();
    writeln!(out, "done")?;
    out.flush()?;

    for (id, secs, json) in &results {
        match json {
            Some(j) => {
                writeln!(out, "exp\t{id}\t{secs}\tok\t{}", j.len())?;
                out.write_all(j.as_bytes())?;
            }
            None => writeln!(out, "exp\t{id}\t{secs}\tpanic\t0")?,
        }
    }
    writeln!(out, "pool\t{}\t{}", pool.busy_us, pool.idle_us)?;
    writeln!(out, "rss_kb\t{rss_kb}")?;
    if traced {
        msc_obs::profile::disable();
        let ids: Vec<&str> = results.iter().map(|r| r.0).collect();
        for (name, value) in profile_metrics(&msc_obs::profile::take(), &ids) {
            writeln!(out, "metric\t{name}\t{value}\t1")?;
        }
    }
    spans.write(&mut out)?;
    out.flush()
}

/// Peak resident set (`VmHWM`) of this process, kB; 0 where `/proc` is
/// unavailable.
fn vm_hwm_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Where the traced pass's profiled time lands. Fractions are of the
/// profile's total self time (wall-clock above pool fan-outs, summed
/// worker time below them). A frame counts as attributed unless it is
/// structural: the pass root, a runner frame, or the pool's own
/// `par.run` / `par.worker` frames.
fn profile_metrics(p: &msc_obs::profile::Profile, runner_ids: &[&str]) -> Vec<(String, f64)> {
    // Folds from +0.0: `Sum` for floats starts at -0.0, which would
    // print as `-0` for a frame that never ran.
    let self_us = |names: Option<&[&str]>| -> f64 {
        p.nodes
            .iter()
            .filter(|n| names.is_none_or(|names| names.contains(&n.name)))
            .fold(0.0, |acc, n| acc + n.excl_us)
    };
    let total = self_us(None).max(1e-9);
    let self_of = |names: &[&str]| self_us(Some(names)) / total;
    let pool = self_of(&["par.run", "par.worker"]);
    let structural = pool + self_of(&["bench.pass"]) + self_of(runner_ids);
    let mut v = vec![("prof.attributed_frac".to_string(), 1.0 - structural)];
    for frame in PROFILED_FRAMES {
        let frac = if frame == "par.run" { pool } else { self_of(&[frame]) };
        v.push((format!("prof.self_frac.{frame}"), frac));
    }
    v
}
