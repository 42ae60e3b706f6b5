//! Flight recorder: replayable failure bundles from per-trial context.
//!
//! When armed ([`arm`]), the simulation layer feeds the recorder one
//! [`TrialRecord`] per Monte-Carlo trial — the experiment cell, the
//! base and derived RNG seeds, and the matcher / decode scores that
//! produced the verdict. A record holds no wall-clock, so one command
//! writes the same bundles on every run and at any thread count.
//! Trials whose verdict is not `"ok"` are captured as *dumps* — each
//! convertible to a replayable JSON bundle ([`bundle_to_json`]) that
//! `paper replay` feeds back through [`parse_bundle`].
//!
//! Replay leans entirely on the workspace's seed-derivation contract:
//! a trial is fully determined by `(experiment, n, seed, cell, index)`
//! because its RNG is seeded from
//! `derive_seed(seed, hash_label(cell), index)` and never draws from a
//! shared stream. The recorder itself only observes — it never touches
//! RNG state, so arming it cannot change results.
//!
//! While a replay target is set, [`crate::note!`] lines append to the
//! open trial's record — the decode error kind, the uplink SNR, the
//! values no score carries — and `paper replay` prints them. Notes are
//! never serialized into bundles.

use crate::export::{int_field, json_escape, parse_json, Json};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Whether the recorder is armed (the per-trial fast path).
static ARMED: AtomicBool = AtomicBool::new(false);

/// Whether a replay target is set (the [`crate::note!`] fast path).
static NOTING: AtomicBool = AtomicBool::new(false);

/// Recorder knobs.
#[derive(Clone, Copy, Debug)]
pub struct FlightConfig {
    /// Cap on retained dumps per `(experiment, reason)`; excess
    /// failures only bump the suppressed counter so pathological cells
    /// can't flood the disk, and one runner's failures can't crowd out
    /// another's. The dumps kept are each pair's first `max_dumps` in
    /// run order — cell ordinal ([`reserve_cells`]), then trial index —
    /// whatever order worker threads finish them in.
    pub max_dumps: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig { max_dumps: 32 }
    }
}

/// Everything the recorder keeps about one finished trial.
#[derive(Clone, Debug)]
pub struct TrialRecord {
    /// Experiment id (`fig13`) — the replay dispatch key.
    pub experiment: String,
    /// Cell label within the experiment (`los/BLE/32`).
    pub cell: String,
    /// Trial index within the cell.
    pub index: u64,
    /// The run's base seed.
    pub seed: u64,
    /// The trial's derived RNG seed (recorded for the bundle; replay
    /// re-derives it and the two must agree).
    pub derived_seed: u64,
    /// Protocol label, `""` when not applicable.
    pub protocol: &'static str,
    /// Scores that produced the verdict (matcher scores, error
    /// counts) — the values replay must reproduce exactly.
    pub scores: Vec<(&'static str, f64)>,
    /// `"ok"`, `"decode_fail"`, `"id_miss"`, …
    pub verdict: String,
    /// [`crate::note!`] lines, in order; filled only while a replay
    /// target is set.
    pub notes: Vec<String>,
}

/// One captured failure: the trigger plus the full trial record.
#[derive(Clone, Debug)]
pub struct Dump {
    /// Why this trial was captured: its verdict (`decode_fail`,
    /// `id_miss`, …).
    pub reason: String,
    /// The trial itself.
    pub record: TrialRecord,
}

/// Recorder totals for the final metrics export.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlightStats {
    /// Trials observed since arming.
    pub trials: u64,
    /// Dumps currently retained.
    pub dumps: u64,
    /// Failures beyond `max_dumps` that were counted but not kept.
    pub suppressed: u64,
}

#[derive(Default)]
struct State {
    cfg: FlightConfig,
    /// Retained dumps with their run-order rank `(cell ordinal, index)`.
    dumps: Vec<((u64, u64), Dump)>,
    suppressed: u64,
    trials: u64,
    /// The next unreserved cell ordinal.
    next_cell: u64,
    /// `(cell, index)` a replay run wants captured.
    target: Option<(String, u64)>,
    captured: Option<TrialRecord>,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

thread_local! {
    /// The open trial and its cell ordinal.
    static CURRENT: RefCell<Option<(u64, TrialRecord)>> = const { RefCell::new(None) };
}

/// Arms the recorder with `cfg`, discarding any previous state
/// (including a replay target — set it after arming).
pub fn arm(cfg: FlightConfig) {
    let mut s = state().lock().unwrap();
    *s = State { cfg, ..State::default() };
    NOTING.store(false, Ordering::Release);
    ARMED.store(true, Ordering::Release);
}

/// Disarms the recorder. Collected dumps stay until [`take_dumps`].
pub fn disarm() {
    NOTING.store(false, Ordering::Release);
    ARMED.store(false, Ordering::Release);
}

/// The per-trial fast path: true when armed.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Reserves `k` consecutive cell ordinals and returns the first (0 when
/// disarmed). Callers reserve on their sequential code path, in the
/// order their cells run, so the ordinal of a cell is the same at any
/// thread count; it ranks the cell's failures for the dump cap.
pub fn reserve_cells(k: u64) -> u64 {
    if !armed() {
        return 0;
    }
    let mut s = state().lock().unwrap();
    let first = s.next_cell;
    s.next_cell += k;
    first
}

/// Opens the current thread's trial record: trial `index` of the cell
/// with label `cell` and ordinal `ordinal` ([`reserve_cells`]). Pair
/// with [`end_trial`].
#[allow(clippy::too_many_arguments)]
pub fn begin_trial(
    experiment: &str,
    cell: &str,
    ordinal: u64,
    index: u64,
    seed: u64,
    derived_seed: u64,
    protocol: &'static str,
) {
    if !armed() {
        return;
    }
    CURRENT.with(|c| {
        *c.borrow_mut() = Some((
            ordinal,
            TrialRecord {
                experiment: experiment.to_string(),
                cell: cell.to_string(),
                index,
                seed,
                derived_seed,
                protocol,
                scores: Vec::new(),
                verdict: String::new(),
                notes: Vec::new(),
            },
        ));
    });
}

/// Appends a named score to the open trial.
pub fn note_score(name: &'static str, value: f64) {
    if !armed() {
        return;
    }
    CURRENT.with(|c| {
        if let Some((_, rec)) = c.borrow_mut().as_mut() {
            rec.scores.push((name, value));
        }
    });
}

/// The [`crate::note!`] fast path: true while a replay target is set.
#[inline(always)]
pub fn noting() -> bool {
    NOTING.load(Ordering::Relaxed)
}

/// Appends `line` to the open trial's notes (no-op outside a trial).
pub fn note(line: String) {
    CURRENT.with(|c| {
        if let Some((_, rec)) = c.borrow_mut().as_mut() {
            rec.notes.push(line);
        }
    });
}

/// Records a format-style note in the open trial while a replay target
/// is set; otherwise costs one relaxed atomic load and formats nothing.
///
/// ```
/// let snr_db = 5.9;
/// msc_obs::note!("pipe.packet snr_db={snr_db:.1}");
/// ```
#[macro_export]
macro_rules! note {
    ($($arg:tt)+) => {
        if $crate::flight::noting() {
            $crate::flight::note(::std::format!($($arg)+));
        }
    };
}

/// Closes the open trial with `verdict`, pushing it through the dump
/// trigger and the replay-capture check.
pub fn end_trial(verdict: &str) {
    if !armed() {
        return;
    }
    let Some((ordinal, mut rec)) = CURRENT.with(|c| c.borrow_mut().take()) else {
        return;
    };
    rec.verdict = verdict.to_string();

    let mut s = state().lock().unwrap();
    s.trials += 1;
    if let Some((tc, ti)) = &s.target {
        if *tc == rec.cell && *ti == rec.index {
            s.captured = Some(rec.clone());
        }
    }
    if rec.verdict != "ok" {
        // Keep each `(experiment, reason)` pair's `max_dumps` smallest
        // ranks: a failure that outranks the pair's latest kept one
        // takes its place. Either way exactly one failure beyond the
        // cap is suppressed.
        let rank = (ordinal, rec.index);
        let dump = Dump { reason: rec.verdict.clone(), record: rec };
        let State { dumps, cfg, suppressed, .. } = &mut *s;
        let peer =
            |d: &Dump| d.reason == dump.reason && d.record.experiment == dump.record.experiment;
        if dumps.iter().filter(|(_, d)| peer(d)).count() < cfg.max_dumps {
            dumps.push((rank, dump));
        } else {
            *suppressed += 1;
            let latest = dumps.iter_mut().filter(|(_, d)| peer(d)).max_by_key(|(r, _)| *r);
            if let Some(slot) = latest.filter(|(r, _)| rank < *r) {
                *slot = (rank, dump);
            }
        }
    }
}

/// Drains the retained dumps, sorted by `(cell, index)` so the files a
/// run writes are deterministic regardless of worker interleaving.
pub fn take_dumps() -> Vec<Dump> {
    let mut dumps: Vec<Dump> =
        std::mem::take(&mut state().lock().unwrap().dumps).into_iter().map(|(_, d)| d).collect();
    dumps.sort_by(|a, b| {
        (a.record.cell.as_str(), a.record.index).cmp(&(b.record.cell.as_str(), b.record.index))
    });
    dumps
}

/// Recorder totals (exported as gauges at the end of a run).
pub fn stats() -> FlightStats {
    let s = state().lock().unwrap();
    FlightStats { trials: s.trials, dumps: s.dumps.len() as u64, suppressed: s.suppressed }
}

/// Marks `(cell, index)` for capture: the matching trial's record is
/// kept for [`take_captured`] even if its verdict is `"ok"`, and
/// [`crate::note!`] records notes until [`clear_replay_target`].
pub fn set_replay_target(cell: String, index: u64) {
    let mut s = state().lock().unwrap();
    s.target = Some((cell, index));
    s.captured = None;
    NOTING.store(true, Ordering::Release);
}

/// The `(cell, index)` a replay run wants, if any. Cheap when the
/// recorder is disarmed.
pub fn replay_target() -> Option<(String, u64)> {
    if !armed() {
        return None;
    }
    state().lock().unwrap().target.clone()
}

/// Clears the replay target and stops recording notes.
pub fn clear_replay_target() {
    NOTING.store(false, Ordering::Release);
    state().lock().unwrap().target = None;
}

/// Takes the record captured for the replay target, if the trial ran.
pub fn take_captured() -> Option<TrialRecord> {
    state().lock().unwrap().captured.take()
}

/// A parsed replay bundle: everything needed to re-run one trial.
#[derive(Clone, Debug)]
pub struct Bundle {
    /// Experiment id to dispatch.
    pub experiment: String,
    /// Cell label of the target trial.
    pub cell: String,
    /// Trial index within the cell.
    pub index: u64,
    /// The original run's `n` argument.
    pub n: usize,
    /// The original run's base seed.
    pub seed: u64,
    /// The trial's derived RNG seed (replay must re-derive it).
    pub derived_seed: u64,
    /// Why the original trial was dumped.
    pub reason: String,
    /// The original verdict (replay must reproduce it).
    pub verdict: String,
    /// The original scores (replay must reproduce them).
    pub scores: Vec<(String, f64)>,
}

/// Serializes a dump as a replayable bundle. `n` is the originating
/// run's trials-per-cell argument — together with the record's seed it
/// pins the exact configuration the trial ran under.
pub fn bundle_to_json(dump: &Dump, n: usize) -> String {
    let r = &dump.record;
    let mut out = String::with_capacity(512);
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {},\n  \"kind\": \"flight_bundle\",\n",
        crate::SCHEMA_VERSION
    ));
    out.push_str(&format!("  \"reason\": \"{}\",\n", json_escape(&dump.reason)));
    out.push_str(&format!("  \"experiment\": \"{}\",\n", json_escape(&r.experiment)));
    out.push_str(&format!("  \"cell\": \"{}\",\n", json_escape(&r.cell)));
    out.push_str(&format!("  \"index\": {},\n", r.index));
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str(&format!("  \"seed\": {},\n", r.seed));
    out.push_str(&format!("  \"derived_seed\": {},\n", r.derived_seed));
    out.push_str(&format!("  \"protocol\": \"{}\",\n", json_escape(r.protocol)));
    out.push_str("  \"scores\": [");
    for (i, (name, value)) in r.scores.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("[\"{}\", {value}]", json_escape(name)));
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"verdict\": \"{}\"\n", json_escape(&r.verdict)));
    out.push_str("}\n");
    out
}

/// Why a bundle cannot be replayed.
#[derive(Clone, Debug, PartialEq)]
pub enum BundleError {
    /// The text is not JSON.
    Json(String),
    /// JSON, but its `kind` is not `flight_bundle`.
    NotABundle(String),
    /// A required field is absent or malformed.
    Missing(&'static str),
    /// An integer field holds a negative number.
    Negative(&'static str),
    /// An integer field holds a fraction or a float literal.
    NotInteger(&'static str),
    /// An integer field exceeds its type's range.
    OutOfRange(&'static str),
    /// The target index is not below the cell's trial count.
    IndexOutOfRange {
        /// The bundle's trial index.
        index: u64,
        /// Trials the target cell runs.
        trials: usize,
    },
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Json(e) => write!(f, "invalid JSON: {e}"),
            BundleError::NotABundle(kind) => write!(f, "not a flight bundle (kind {kind:?})"),
            BundleError::Missing(name) => write!(f, "bundle field {name:?} missing or malformed"),
            BundleError::Negative(name) => write!(f, "bundle field {name:?} is negative"),
            BundleError::NotInteger(name) => write!(f, "bundle field {name:?} is not an integer"),
            BundleError::OutOfRange(name) => write!(f, "bundle field {name:?} is out of range"),
            BundleError::IndexOutOfRange { index, trials } => {
                write!(f, "trial index {index} is out of range for {trials} trial(s) per cell")
            }
        }
    }
}

impl Bundle {
    /// Rejects a target index the cell's `trials` never reach.
    pub fn check_index(&self, trials: usize) -> Result<(), BundleError> {
        let err = BundleError::IndexOutOfRange { index: self.index, trials };
        (self.index < trials as u64).then_some(()).ok_or(err)
    }
}

/// Parses a bundle written by [`bundle_to_json`].
pub fn parse_bundle(text: &str) -> Result<Bundle, BundleError> {
    bundle_from_json(&parse_json(text).map_err(BundleError::Json)?)
}

/// [`parse_bundle`] on an already-parsed document.
pub fn bundle_from_json(json: &Json) -> Result<Bundle, BundleError> {
    let kind = json.get("kind").and_then(|k| k.as_str()).unwrap_or_default();
    if kind != "flight_bundle" {
        return Err(BundleError::NotABundle(kind.to_string()));
    }
    let str_field = |name: &'static str| -> Result<String, BundleError> {
        json.get(name)
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .ok_or(BundleError::Missing(name))
    };
    let mut scores = Vec::new();
    if let Some(arr) = json.get("scores").and_then(|v| v.as_arr()) {
        for pair in arr {
            let entry = pair.as_arr().ok_or(BundleError::Missing("scores"))?;
            match (entry.first().and_then(|e| e.as_str()), entry.get(1).and_then(|e| e.as_f64())) {
                (Some(name), Some(value)) => scores.push((name.to_string(), value)),
                _ => return Err(BundleError::Missing("scores")),
            }
        }
    }
    Ok(Bundle {
        experiment: str_field("experiment")?,
        cell: str_field("cell")?,
        index: int_field(json, "index", u64::MAX)?,
        n: int_field(json, "n", usize::MAX as u64)? as usize,
        seed: int_field(json, "seed", u64::MAX)?,
        derived_seed: int_field(json, "derived_seed", u64::MAX)?,
        reason: str_field("reason")?,
        verdict: str_field("verdict")?,
        scores,
    })
}

/// Serializes tests that manipulate the global recorder state.
#[doc(hidden)]
pub fn tests_serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(cell: &str, index: u64, verdict: &str) {
        trial_in(0, cell, index, verdict);
    }

    fn trial_in(ordinal: u64, cell: &str, index: u64, verdict: &str) {
        begin_trial("unit", cell, ordinal, index, 42, 1000 + index, "BLE");
        note_score("tag_errors", if verdict == "ok" { 0.0 } else { 3.0 });
        end_trial(verdict);
    }

    #[test]
    fn failures_dump_and_ring_stays_bounded() {
        let _guard = tests_serial();
        arm(FlightConfig::default());
        for i in 0..10 {
            trial("cell/a", i, if i == 7 { "decode_fail" } else { "ok" });
        }
        let stats = stats();
        assert_eq!(stats.trials, 10);
        let dumps = take_dumps();
        disarm();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "decode_fail");
        assert_eq!(dumps[0].record.index, 7);
    }

    #[test]
    fn dump_cap_counts_the_suppressed_failures() {
        let _guard = tests_serial();
        arm(FlightConfig { max_dumps: 2 });
        for i in 0..5 {
            trial("cell/fail", i, "decode_fail");
        }
        let stats = stats();
        assert_eq!(stats.dumps, 2, "dump cap");
        assert_eq!(stats.suppressed, 3);
        let dumps = take_dumps();
        disarm();
        assert!(dumps.iter().all(|d| d.reason == "decode_fail"));
        assert_eq!(dumps.iter().map(|d| d.record.index).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn dump_cap_holds_per_experiment_and_reason() {
        let _guard = tests_serial();
        arm(FlightConfig { max_dumps: 2 });
        let first = reserve_cells(3);
        for (experiment, verdict) in
            [("fig7", "id_miss"), ("fig13", "decode_fail"), ("fig13", "id_miss")]
        {
            for i in 0..3 {
                begin_trial(experiment, "cell", first, i, 42, i, "BLE");
                end_trial(verdict);
            }
        }
        let stats = stats();
        let mut kept: Vec<(String, String)> =
            take_dumps().into_iter().map(|d| (d.record.experiment, d.reason)).collect();
        disarm();
        kept.sort();
        kept.dedup();
        assert_eq!(stats.dumps, 6, "two per (experiment, reason)");
        assert_eq!(stats.suppressed, 3);
        assert_eq!(kept.len(), 3, "every pair keeps its own failures: {kept:?}");
    }

    #[test]
    fn dump_cap_keeps_the_first_failures_in_run_order() {
        let _guard = tests_serial();
        arm(FlightConfig { max_dumps: 3 });
        let first = reserve_cells(2);
        assert_eq!(reserve_cells(1), first + 2, "ordinals are consecutive");
        // Failures finish out of order, as pool workers would finish
        // them: later cells and later indices first.
        let order = [(2, 0), (1, 4), (0, 9), (1, 1), (0, 3), (2, 5), (0, 8)];
        for (cell, index) in order {
            trial_in(first + cell, &format!("cell/{cell}"), index, "decode_fail");
        }
        let stats = stats();
        let kept: Vec<(String, u64)> =
            take_dumps().into_iter().map(|d| (d.record.cell, d.record.index)).collect();
        disarm();
        assert_eq!(stats.suppressed, 4, "every failure beyond the cap is counted");
        let want = [("cell/0", 3), ("cell/0", 8), ("cell/0", 9)];
        assert_eq!(kept, want.map(|(c, i)| (c.to_string(), i)));
    }

    #[test]
    fn disarmed_recorder_observes_nothing() {
        let _guard = tests_serial();
        arm(FlightConfig::default());
        disarm();
        trial("cell/x", 0, "decode_fail");
        assert_eq!(stats().trials, 0);
        assert!(take_dumps().is_empty());
    }

    #[test]
    fn replay_target_captures_ok_trials_too() {
        let _guard = tests_serial();
        arm(FlightConfig::default());
        set_replay_target("cell/b".to_string(), 3);
        assert_eq!(replay_target(), Some(("cell/b".to_string(), 3)));
        for i in 0..5 {
            trial("cell/b", i, "ok");
        }
        clear_replay_target();
        let captured = take_captured().expect("target trial captured");
        disarm();
        let _ = take_dumps();
        assert_eq!(captured.index, 3);
        assert_eq!(captured.verdict, "ok");
        assert_eq!(captured.scores, vec![("tag_errors", 0.0)]);
    }

    /// A bundle whose seeds have no exact f64 representation.
    fn sample_bundle_json() -> String {
        let record = TrialRecord {
            experiment: "fig13".to_string(),
            cell: "los/BLE/32".to_string(),
            index: 5,
            seed: (1 << 53) + 1,
            derived_seed: u64::MAX,
            protocol: "BLE",
            scores: vec![("tag_errors", 7.0), ("tag_bits", 16.0)],
            verdict: "decode_fail".to_string(),
            notes: Vec::new(),
        };
        bundle_to_json(&Dump { reason: "decode_fail".to_string(), record }, 24)
    }

    /// The sample bundle with top-level field `field` set to `literal`.
    fn with_field(field: &str, literal: &str) -> String {
        let json = sample_bundle_json();
        let key = format!("\"{field}\": ");
        let at = json.find(&key).unwrap() + key.len();
        let end = at + json[at..].find(',').unwrap();
        format!("{}{literal}{}", &json[..at], &json[end..])
    }

    #[test]
    fn bundle_round_trips_through_json() {
        let bundle = parse_bundle(&sample_bundle_json()).expect("parse bundle");
        assert_eq!(bundle.experiment, "fig13");
        assert_eq!(bundle.cell, "los/BLE/32");
        assert_eq!((bundle.index, bundle.n), (5, 24));
        assert_eq!((bundle.seed, bundle.derived_seed), ((1 << 53) + 1, u64::MAX));
        assert_eq!(bundle.reason, "decode_fail");
        assert_eq!(bundle.verdict, "decode_fail");
        assert_eq!(
            bundle.scores,
            vec![("tag_errors".to_string(), 7.0), ("tag_bits".to_string(), 16.0)]
        );
        assert!(parse_bundle("{\"kind\": \"other\"}").is_err());
    }

    #[test]
    fn bad_integer_fields_are_rejected_not_saturated() {
        let cases = [
            ("n", "-1", BundleError::Negative("n")),
            ("index", "-3", BundleError::Negative("index")),
            ("index", "1.5", BundleError::NotInteger("index")),
            ("seed", "42.0", BundleError::NotInteger("seed")),
            ("n", "1e3", BundleError::NotInteger("n")),
            ("seed", "18446744073709551616", BundleError::OutOfRange("seed")),
            ("derived_seed", "1e40", BundleError::NotInteger("derived_seed")),
            ("index", "\"3\"", BundleError::Missing("index")),
        ];
        for (field, literal, want) in cases {
            let got = parse_bundle(&with_field(field, literal)).expect_err(literal);
            assert_eq!(got, want, "{field} = {literal}");
        }
    }

    #[test]
    fn index_beyond_the_cell_is_rejected() {
        let bundle = parse_bundle(&sample_bundle_json()).expect("parse");
        assert_eq!(bundle.check_index(6), Ok(()));
        let err = BundleError::IndexOutOfRange { index: 5, trials: 5 };
        assert_eq!(bundle.check_index(5), Err(err));
    }
}
