//! Deterministic replay of recorded bundles (`paper replay`).
//!
//! [`parse`] reads a bundle's text once and dispatches on its `kind`;
//! [`run`] re-runs what it describes and compares the result with the
//! recording. Parsing never runs a simulation, and a bundle it accepts
//! is one the engines can run.
//!
//! * A `flight_bundle` pins `(experiment, n, seed, cell, index)`.
//!   [`replay`] re-runs the whole experiment runner with the flight
//!   recorder armed and the bundle's `(cell, index)` set as the capture
//!   target; the packet pipeline skips every non-target cell and trial
//!   (cheap placeholders) and runs the target as a one-lane batch, so
//!   only the trial under investigation does real work. Because every
//!   trial's RNG derives from `derive_seed(seed, hash_label(cell),
//!   index)` and never from shared state, the captured record must
//!   reproduce the bundle's derived seed, scores and verdict
//!   bit-for-bit — at any thread count. The record also carries the
//!   trial's [`msc_obs::note!`] lines.
//! * A `fleet_incident` pins one fleet scenario window
//!   ([`experiments::fleet::parse_incident`]); its replay must
//!   reproduce the recorded MAC event subsequence bit-for-bit.
//!
//! A mismatch means the determinism contract is broken.

use crate::experiments::{self, fleet};
use msc_obs::export::{parse_json, Json};
use msc_obs::flight::{self, Bundle, FlightConfig, TrialRecord};

/// A parsed bundle, ready to replay.
#[derive(Clone, Debug)]
pub enum Request {
    /// A `flight_bundle`: one Monte-Carlo trial.
    Trial(Bundle),
    /// A `fleet_incident`: one fleet scenario window.
    Incident(fleet::Incident),
}

impl Request {
    /// One line naming what the bundle recorded.
    pub fn describe(&self) -> String {
        match self {
            Request::Trial(b) => format!(
                "{} cell {:?} index {} (n {}, seed {}) — original verdict {:?} ({})",
                b.experiment, b.cell, b.index, b.n, b.seed, b.verdict, b.reason
            ),
            Request::Incident(inc) => format!(
                "{} incident in {} — {} recorded event(s)",
                inc.reason,
                inc.scenario,
                inc.events.len()
            ),
        }
    }
}

/// What a replay reproduced.
#[derive(Clone, Debug)]
pub struct ReplayResult {
    /// The re-run trial's record, notes included (`None` for a fleet
    /// incident, which re-runs a MAC window rather than a trial).
    pub record: Option<TrialRecord>,
    /// Whether the replay matched the bundle exactly.
    pub matches: bool,
    /// Human-readable mismatch descriptions (empty when `matches`).
    pub diffs: Vec<String>,
}

impl ReplayResult {
    fn new(record: Option<TrialRecord>, diffs: Vec<String>) -> Self {
        ReplayResult { record, matches: diffs.is_empty(), diffs }
    }
}

/// Parses a bundle of either kind. Any other `kind` is an error, as is
/// a field the bundle's engine could not run.
pub fn parse(text: &str) -> Result<Request, String> {
    let json = parse_json(text).map_err(|e| format!("invalid JSON: {e}"))?;
    match json.get("kind").and_then(Json::as_str) {
        Some("flight_bundle") => {
            flight::bundle_from_json(&json).map(Request::Trial).map_err(|e| e.to_string())
        }
        Some("fleet_incident") => fleet::parse_incident(&json).map(Request::Incident),
        kind => Err(format!("unknown bundle kind {:?}", kind.unwrap_or_default())),
    }
}

/// Replays a parsed bundle and compares it against the recording.
pub fn run(request: &Request) -> Result<ReplayResult, String> {
    match request {
        Request::Trial(bundle) => replay(bundle),
        Request::Incident(inc) => Ok(ReplayResult::new(None, fleet::replay_incident(inc))),
    }
}

/// Re-runs the bundle's trial and compares it against the original.
///
/// Arms the flight recorder for the duration (ring off, dumps off —
/// only the capture target matters) and restores it to disarmed on
/// return, so callers must not be mid-recording.
pub fn replay(bundle: &Bundle) -> Result<ReplayResult, String> {
    let exp = experiments::find(&bundle.experiment)
        .ok_or_else(|| format!("unknown experiment {:?} in bundle", bundle.experiment))?;
    // Trial-engine cells run at most the runner's clamped n trials, so
    // a larger index can never be captured.
    if !bundle.cell.starts_with(msc_core::search::ID_CELL_PREFIX) {
        bundle.check_index(exp.effective_n(bundle.n)).map_err(|e| e.to_string())?;
    }

    flight::arm(FlightConfig { ring: 0, max_dumps: 0, ..FlightConfig::default() });
    flight::set_replay_target(bundle.cell.clone(), bundle.index);
    msc_obs::metrics::set_experiment(exp.id);
    let _report = (exp.run)(bundle.n, bundle.seed);
    flight::clear_replay_target();
    let captured = flight::take_captured();
    flight::disarm();

    let record = captured.ok_or_else(|| {
        format!(
            "trial (cell {:?}, index {}) never ran — wrong n ({}) or a stale bundle?",
            bundle.cell, bundle.index, bundle.n
        )
    })?;

    let mut diffs = Vec::new();
    if record.derived_seed != bundle.derived_seed {
        diffs.push(format!(
            "derived_seed: bundle {} vs replay {}",
            bundle.derived_seed, record.derived_seed
        ));
    }
    if record.verdict != bundle.verdict {
        diffs.push(format!("verdict: bundle {:?} vs replay {:?}", bundle.verdict, record.verdict));
    }
    if record.scores.len() != bundle.scores.len() {
        diffs.push(format!(
            "score count: bundle {} vs replay {}",
            bundle.scores.len(),
            record.scores.len()
        ));
    }
    for (i, (name, want)) in bundle.scores.iter().enumerate() {
        match record.scores.get(i) {
            // Bundles serialize f64 via the shortest-roundtrip format,
            // so equality here is exact, not approximate.
            Some((rname, got)) if rname == name && got == want => {}
            Some((rname, got)) => {
                diffs.push(format!("score[{i}]: bundle {name}={want} vs replay {rname}={got}"))
            }
            None => diffs.push(format!("score[{i}]: bundle {name}={want} missing in replay")),
        }
    }
    Ok(ReplayResult::new(Some(record), diffs))
}
