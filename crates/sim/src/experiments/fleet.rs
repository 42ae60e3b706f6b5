//! `fleet` / `fleet-scale` — deployment-scale multi-tag simulation.
//!
//! The paper evaluates one tag and one excitation source at a time; this
//! workload simulates the *deployment* the paper proposes: hundreds of
//! battery-free sensors sharing the air with the four ambient carriers,
//! arbitrated by the carrier-scheduling MAC in `msc-fleet`.
//!
//! The engine resolves packet outcomes against a link abstraction
//! *calibrated here*: each protocol's PER-vs-SNR curve is sampled from
//! the full waveform pipeline ([`run_cells`]) at a handful of
//! distances, then interpolated per packet at fleet scale. The table is
//! memoized per `(n, seed)` ([`calibrate`]), so the three fleet runners
//! of one process share a calibration.
//!
//! When the event sink is open or the flight recorder is armed
//! (`--events`, `--metrics-out`) the scenarios additionally run under a
//! [`MacTrace`] observer: per-window `fleet_window` events and summary
//! gauges join the export chain, and the [`Detectors::default`]
//! anomaly detectors (a tag starved 30 s past its last delivery, a
//! window whose collision rate reaches 0.5 over at least 50 attempts)
//! dump replayable incident bundles that `paper replay` re-runs and
//! verifies bit-for-bit ([`parse_incident`], [`replay_incident`]).
//! `paper fleet-timeline` ([`run_timeline`]) renders the same windows as
//! an ASCII carrier-occupancy strip chart.

use crate::memo::{Counters, Memo};
use crate::pipeline::{run_cells, AnyLink, CellSpec, Geometry, Overlay};
use crate::report::{f1, f3, pct, Report};
use crate::throughput::ExcitationProfile;
use msc_core::overlay::{params_for, Mode};
use msc_fleet::engine::{run_with, EnergyModel, FleetConfig, FleetResult};
use msc_fleet::link::LinkTable;
use msc_fleet::mac::{Backoff, MacPolicy};
use msc_fleet::obs::{Detectors, MacTrace};
use msc_fleet::traffic::{Arrivals, Stream};
use msc_obs::export::{int_field, json_escape, Json};
use msc_phy::protocol::Protocol;
use std::sync::{LazyLock, Mutex};

/// Tag deployment band: placements map `u ∈ [0, 1)` onto LoS distances
/// `[2, 18) m` — inside every protocol's usable range, so starvation
/// and contention (not hopeless links) dominate the fleet's losses.
const PLACE_MIN_M: f64 = 2.0;
const PLACE_SPAN_M: f64 = 16.0;

/// Distances sampled when calibrating the link abstraction, meters.
const CAL_DISTANCES: [f64; 5] = [2.0, 6.0, 10.0, 14.0, 18.0];

/// Tag load while operating, watts (Table 3: 279.5 mW).
const LOAD_W: f64 = 279.5e-3;

/// Flight-recorder incidents flagged during traced fleet runs:
/// `(slug, bundle_json)` pairs the `paper` driver writes under
/// `<metrics-out>/flight/`.
static INCIDENTS: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());

/// Drains the incidents recorded since the last call.
pub fn take_incidents() -> Vec<(String, String)> {
    std::mem::take(&mut *INCIDENTS.lock().unwrap())
}

/// Cap on events embedded per incident bundle.
const INCIDENT_EVENT_CAP: usize = 512;

/// Simulated horizon for the `fleet` scenario rows, seconds.
/// `MSC_FLEET_HORIZON_S=<s>` overrides (read once per process) — tests
/// and smoke jobs shrink it; the default covers ≥ 1M carrier packets.
pub fn horizon_s() -> f64 {
    static H: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *H.get_or_init(|| {
        std::env::var("MSC_FLEET_HORIZON_S")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&v: &f64| v > 0.0)
            .unwrap_or(180.0)
    })
}

/// The paper's four ambient carriers as saturated/ambient arrival
/// processes: Poisson packet arrivals at each protocol's effective rate,
/// carrying the Mode 1 overlay capacity per packet.
pub fn paper_carriers() -> Vec<Stream> {
    Protocol::ALL
        .iter()
        .map(|&p| {
            let profile = ExcitationProfile::paper_default(p);
            let params = params_for(p, Mode::Mode1);
            Stream {
                protocol: p,
                arrivals: Arrivals::Poisson { rate: profile.effective_pkt_rate() },
                airtime_s: profile.airtime_s(),
                tag_bits_per_packet: params.sequences_in(profile.payload_symbols)
                    * params.tag_bits_per_sequence(),
            }
        })
        .collect()
}

/// Maps a tag's placement draw to its uplink SNR on protocol `p`.
pub fn place_snr_db(place_u: f64, p: Protocol) -> f64 {
    Geometry::los(PLACE_MIN_M + PLACE_SPAN_M * place_u).uplink_snr_db(p)
}

/// The link-table memo type: one calibrated table per `(n, seed)`.
type LinkMemo = Memo<(usize, u64), LinkTable>;

fn new_link_memo() -> LinkMemo {
    Memo::new(Counters { hit: "linkcache.hit", miss: "linkcache.miss", bypass: "linkcache.bypass" })
}

/// The process's link-table memo: `fleet`, `fleet-scale` and
/// `fleet-timeline` share one calibration per `(n, seed)`.
pub(crate) static LINK_TABLES: LazyLock<LinkMemo> = LazyLock::new(new_link_memo);

/// Label prefix of the calibration cells (`fleet/cal/<proto>/<d>`).
pub(crate) const CAL_CELL_PREFIX: &str = "fleet/cal/";

/// Calibrates the link abstraction: `n` full-pipeline trials per
/// (protocol, distance) cell, keyed by the cell's uplink SNR. A
/// calibration is a pure function of `(n, seed)`, so the table is
/// memoized: the first request in a process measures it
/// (`measure_link_table`) and later ones share it.
pub fn calibrate(n: usize, seed: u64) -> LinkTable {
    calibrate_in(&LINK_TABLES, n, seed)
}

fn calibrate_in(memo: &LinkMemo, n: usize, seed: u64) -> LinkTable {
    memo.get_or_compute((n, seed), "fleet", || measure_link_table(n, seed))
}

/// Runs the calibration cells (under the `fleet.calibrate` profiler
/// frame) and builds their table, bypassing the memo. `paper replay`
/// re-runs a calibration trial through it, so the placeholder outcomes
/// of the skipped cells never reach a memoized table.
pub(crate) fn measure_link_table(n: usize, seed: u64) -> LinkTable {
    let _frame = msc_obs::profile::scope("fleet.calibrate");
    let links: Vec<AnyLink> = Protocol::ALL.iter().map(|&p| AnyLink::new(p, Mode::Mode1)).collect();
    // All 20 (protocol, distance) cells fan out across the pool.
    let cells: Vec<CellSpec> = links
        .iter()
        .flat_map(|link| {
            CAL_DISTANCES.map(|d| {
                let label = format!("{CAL_CELL_PREFIX}{}/{d}", link.protocol().label());
                CellSpec::new(Overlay::new(link, Geometry::los(d)), label, n, seed)
            })
        })
        .collect();
    let mut table = LinkTable::new();
    for (cell, outs) in cells.iter().zip(run_cells(&cells)) {
        let p = cell.trial.link.protocol();
        let lost = outs.iter().filter(|o| !o.decoded).count();
        table.insert(
            p,
            cell.trial.geometry.uplink_snr_db(p),
            lost as f64 / outs.len().max(1) as f64,
        );
    }
    table
}

/// The paper-default 500-tag scenario with one policy/energy choice.
fn paper_cfg(policy: MacPolicy, energy: Option<EnergyModel>, seed: u64) -> FleetConfig {
    FleetConfig {
        tags: 500,
        horizon_s: horizon_s(),
        carriers: paper_carriers(),
        readings: Arrivals::Periodic { rate: 1.0 },
        reading_bits: 64,
        policy,
        backoff: Backoff::default(),
        energy,
        queue_cap: 4,
        sample_every: 0,
        seed,
    }
}

/// Appends one scenario row (+ stats and gauges) to the report.
fn push_row(
    report: &mut Report,
    policy: MacPolicy,
    energy_label: &'static str,
    carriers: &[Stream],
    r: &FleetResult,
) {
    let key = format!("fleet/paper/{}/{}", policy.label(), energy_label);
    report.keyed_row(
        &key,
        &[
            policy.label().into(),
            energy_label.into(),
            r.offered.to_string(),
            pct(r.delivery_rate()),
            pct(r.collision_rate()),
            pct(r.starvation_rate()),
            f3(r.jain_fairness()),
            f1(r.throughput_bps() / 1e3),
        ],
    );
    report.stat("delivered", r.delivered, r.offered);
    report.stat("collision", r.collided_attempts, r.attempts);
    report.stat("starved", r.starved, r.offered);
    report.stat("util", r.carrier_packets - r.idle_packets, r.carrier_packets);
    let g = msc_obs::metrics::gauge_set;
    g("fleet.jain", policy.label(), energy_label, r.jain_fairness());
    g("fleet.throughput_bps", policy.label(), energy_label, r.throughput_bps());
    g("fleet.collision_rate", policy.label(), energy_label, r.collision_rate());
    g("fleet.starvation_rate", policy.label(), energy_label, r.starvation_rate());
    // Per-carrier breakdown under the scenario row's key: the metric
    // Key's experiment field is dynamic, so scope it around the
    // emission and keep the protocol label as the (static) label.
    let saved = msc_obs::metrics::current_experiment();
    msc_obs::metrics::set_experiment(&key);
    for (c, s) in carriers.iter().enumerate() {
        let t = &r.per_carrier[c];
        g("fleet.carrier.packets", s.protocol.label(), "", t.packets as f64);
        g("fleet.carrier.delivered", s.protocol.label(), "", t.delivered as f64);
        g(
            "fleet.carrier.collision_rate",
            s.protocol.label(),
            "",
            t.collided_attempts as f64 / t.attempts.max(1) as f64,
        );
        g("fleet.carrier.utilization", s.protocol.label(), "", t.utilization());
    }
    msc_obs::metrics::set_experiment(&saved);
}

/// Streams one traced scenario's window aggregates: a `fleet_window`
/// event per ~1 s window (when the sink is open) plus window-level
/// summary gauges joined to the same scenario key.
fn export_windows(key: &str, carriers: &[Stream], tr: &MacTrace) {
    if msc_obs::events::enabled() {
        for (w, win) in tr.windows.iter().enumerate() {
            let mut per_carrier = String::new();
            for (c, s) in carriers.iter().enumerate() {
                if c > 0 {
                    per_carrier.push(',');
                }
                per_carrier.push_str(&format!(
                    "{{\"proto\":\"{}\",\"packets\":{},\"mods\":{},\"delivered\":{},\"collided\":{}}}",
                    json_escape(s.protocol.label()),
                    win.packets[c],
                    win.modulated[c],
                    win.delivered[c],
                    win.collided[c]
                ));
            }
            msc_obs::events::emit(
                "fleet_window",
                &format!(
                    "\"scenario\":\"{}\",\"w\":{},\"t0\":{:?},\"t1\":{:?},\"offered\":{},\
                     \"delivered\":{},\"attempts\":{},\"collided\":{},\"starved\":{},\
                     \"max_queue\":{},\"jain\":{:.4},\"util\":{:.4},\"carriers\":[{}]",
                    json_escape(key),
                    w,
                    win.t0,
                    win.t1,
                    win.offered,
                    win.delivered_total(),
                    win.attempts_total(),
                    win.collided.iter().map(|&x| x as u64).sum::<u64>(),
                    win.starved,
                    win.max_queue,
                    win.jain,
                    win.utilization(),
                    per_carrier
                ),
                "",
            );
        }
    }
    let worst_collision = tr.windows.iter().map(|w| w.collision_rate()).fold(0.0, f64::max);
    let min_jain =
        tr.windows.iter().filter(|w| w.delivered_total() > 0).map(|w| w.jain).fold(1.0, f64::min);
    let max_queue = tr.windows.iter().map(|w| w.max_queue).max().unwrap_or(0);
    let saved = msc_obs::metrics::current_experiment();
    msc_obs::metrics::set_experiment(key);
    let g = msc_obs::metrics::gauge_set;
    g("fleet.win.count", "", "", tr.windows.len() as f64);
    g("fleet.win.worst_collision_rate", "", "", worst_collision);
    g("fleet.win.min_jain", "", "", min_jain);
    g("fleet.win.max_queue", "", "", max_queue as f64);
    g("fleet.win.incidents", "", "", tr.incidents.len() as f64);
    g("fleet.win.incidents_suppressed", "", "", tr.incidents_suppressed as f64);
    msc_obs::metrics::set_experiment(&saved);
}

/// Serializes one replayable incident bundle: everything
/// [`parse_incident`] needs to rebuild the scenario (the engine config
/// and calibration inputs) plus the rendered event subsequence the
/// replay must reproduce. Events are embedded as strings so the
/// comparison is byte-exact.
#[allow(clippy::too_many_arguments)]
fn incident_json(
    scenario: &str,
    reason: &str,
    cfg: &FleetConfig,
    cal_n: usize,
    tag: Option<u32>,
    t0: f64,
    t1: f64,
    events: &[String],
    truncated: u64,
) -> String {
    let energy = match cfg.energy {
        Some(e) => format!("{{\"charge_s\":{:?},\"run_s\":{:?}}}", e.charge_s, e.run_s),
        None => "null".to_string(),
    };
    let carriers: Vec<String> =
        cfg.carriers.iter().map(|s| format!("\"{}\"", json_escape(s.protocol.label()))).collect();
    let events_json: Vec<String> =
        events.iter().map(|e| format!("\"{}\"", json_escape(e))).collect();
    format!(
        "{{\"schema_version\":{},\"kind\":\"fleet_incident\",\"reason\":\"{}\",\
         \"scenario\":\"{}\",\"policy\":\"{}\",\"energy\":{},\"tags\":{},\"horizon_s\":{:?},\
         \"reading_rate\":{:?},\"reading_bits\":{},\"queue_cap\":{},\"sample_every\":{},\
         \"seed\":{},\"cal_n\":{},\"backoff\":{{\"cw_min\":{},\"cw_max\":{},\"max_retries\":{}}},\
         \"carriers\":[{}],\"tag\":{},\"t0\":{:?},\"t1\":{:?},\"truncated\":{},\"events\":[{}]}}",
        msc_obs::SCHEMA_VERSION,
        json_escape(reason),
        json_escape(scenario),
        json_escape(cfg.policy.label()),
        energy,
        cfg.tags,
        cfg.horizon_s,
        cfg.readings.mean_rate(),
        cfg.reading_bits,
        cfg.queue_cap,
        cfg.sample_every,
        cfg.seed,
        cal_n,
        cfg.backoff.cw_min,
        cfg.backoff.cw_max,
        cfg.backoff.max_retries,
        carriers.join(","),
        tag.map(|g| g.to_string()).unwrap_or_else(|| "null".to_string()),
        t0,
        t1,
        truncated,
        events_json.join(",")
    )
}

/// Queues one traced scenario's detector incidents as replayable
/// bundles (and mirrors each into the event stream).
fn record_incidents(scenario: &str, cfg: &FleetConfig, cal_n: usize, tr: &MacTrace) {
    let mut q = INCIDENTS.lock().unwrap();
    for inc in &tr.incidents {
        let (events, truncated) = tr.subsequence(inc.tag, inc.t0, inc.t1, INCIDENT_EVENT_CAP);
        if msc_obs::events::enabled() {
            msc_obs::events::emit(
                "fleet_incident",
                &format!(
                    "\"scenario\":\"{}\",\"reason\":\"{}\",\"tag\":{},\"t0\":{:?},\"t1\":{:?},\
                     \"events\":{}",
                    json_escape(scenario),
                    json_escape(&inc.reason),
                    inc.tag.map(|g| g.to_string()).unwrap_or_else(|| "null".to_string()),
                    inc.t0,
                    inc.t1,
                    events.len()
                ),
                "",
            );
        }
        let slug = format!("{:02}_{}", q.len(), inc.reason);
        q.push((
            slug,
            incident_json(
                scenario,
                &inc.reason,
                cfg,
                cal_n,
                inc.tag,
                inc.t0,
                inc.t1,
                &events,
                truncated,
            ),
        ));
    }
}

/// Runs the `fleet` workload: 500 tags, the paper's four ambient
/// carriers, three MAC policies × two power models. `n` sets the
/// calibration trials per (protocol, distance) cell.
pub fn run(n: usize, seed: u64) -> Report {
    let n = n.max(8);
    let table = calibrate(n, seed);
    let mut report = Report::new(
        format!("fleet — 500-tag deployment, 4 ambient carriers, {:.0} s horizon", horizon_s()),
        &["policy", "power", "offered", "delivered", "collisions", "starved", "Jain", "kbps"],
    );
    let outdoor = EnergyModel::from_harvest(msc_analog::harvester::Light::paper_outdoor(), LOAD_W);
    let scenarios: Vec<(MacPolicy, &'static str, Option<EnergyModel>)> = MacPolicy::ALL
        .iter()
        .flat_map(|&policy| [(policy, "mains", None), (policy, "outdoor-harvest", Some(outdoor))])
        .collect();
    // The scenarios are independent, so they fan out across the pool;
    // everything that emits (rows, gauges, window events, incident
    // slugs) then runs on this thread in scenario order. MAC tracing is
    // observational only (the report is byte-identical either way), so
    // it runs whenever something consumes it: the event sink or the
    // flight recorder's bundle chain.
    let traced = msc_obs::events::enabled() || msc_obs::flight::armed();
    let runs = msc_par::par_map(&scenarios, |&(policy, _, energy)| {
        let cfg = paper_cfg(policy, energy, seed);
        let (r, tr) = if traced {
            let mut tr = MacTrace::new(cfg.tags, cfg.carriers.len(), 1.0, Detectors::default());
            let r = run_with(&cfg, &table, place_snr_db, &mut tr);
            tr.finish();
            (r, Some(tr))
        } else {
            (msc_fleet::engine::run(&cfg, &table, place_snr_db), None)
        };
        (cfg, r, tr)
    });
    let mut total_packets = 0u64;
    for (&(policy, energy_label, _), (cfg, r, tr)) in scenarios.iter().zip(runs) {
        total_packets += r.carrier_packets;
        push_row(&mut report, policy, energy_label, &cfg.carriers, &r);
        if let Some(tr) = &tr {
            let key = format!("fleet/paper/{}/{}", policy.label(), energy_label);
            export_windows(&key, &cfg.carriers, tr);
            record_incidents(&key, &cfg, n, tr);
        }
    }
    report.note(format!(
        "{total_packets} carrier packets pushed across 6 scenario rows ({} per row).",
        total_packets / 6
    ));
    report.note(
        "best-goodput rides the paper's excitation-diversity pick per tag and falls back to the \
         next-best carrier on retry; outdoor-harvest follows the §3 BQ25570 charge/run rounds.",
    );
    report
}

/// Runs the `fleet-timeline` workload: the best-goodput mains scenario
/// traced in 1 s windows, rendered as one report row per window (keys
/// `fleet/win/<w>`, CSV-exportable through the schema-v3 report path)
/// plus ASCII carrier-occupancy strips and per-tag activity notes.
pub fn run_timeline(n: usize, seed: u64) -> Report {
    let n = n.max(8);
    let table = calibrate(n, seed);
    let horizon = horizon_s().min(30.0);
    let cfg = FleetConfig { horizon_s: horizon, ..paper_cfg(MacPolicy::BestGoodput, None, seed) };
    let mut tr = MacTrace::new(cfg.tags, cfg.carriers.len(), 1.0, Detectors::default());
    let r = run_with(&cfg, &table, place_snr_db, &mut tr);
    tr.finish();
    let mut report = Report::new(
        format!(
            "fleet-timeline — best-goodput mains, {} tags, {horizon:.0} s in 1 s windows",
            cfg.tags
        ),
        &["win", "t0", "pkts", "delivered", "collisions", "util", "queue", "Jain"],
    );
    for (w, win) in tr.windows.iter().enumerate() {
        let pkts: u64 = win.packets.iter().map(|&x| x as u64).sum();
        report.keyed_row(
            format!("fleet/win/{w}"),
            &[
                w.to_string(),
                format!("{:.0}", win.t0),
                pkts.to_string(),
                win.delivered_total().to_string(),
                pct(win.collision_rate()),
                pct(win.utilization()),
                win.max_queue.to_string(),
                f3(win.jain),
            ],
        );
    }
    export_windows("fleet/timeline", &cfg.carriers, &tr);
    // Carrier occupancy strip chart: one character per window per
    // carrier, ' ' (idle) through '@' (every packet modulated).
    const LEVELS: &[u8] = b" .:-=+*#%@";
    for (c, s) in cfg.carriers.iter().enumerate() {
        let strip: String = tr
            .windows
            .iter()
            .map(|w| {
                let u = w.modulated[c] as f64 / w.packets[c].max(1) as f64;
                let i = (u * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[i.min(LEVELS.len() - 1)] as char
            })
            .collect();
        report.note(format!("occupancy {:>8} |{strip}|", s.protocol.label()));
    }
    let mut by_delivered: Vec<(u32, u32)> =
        r.per_tag_delivered.iter().enumerate().map(|(g, &d)| (g as u32, d)).collect();
    by_delivered.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let busiest: Vec<String> =
        by_delivered.iter().take(5).map(|(g, d)| format!("tag {g}\u{00d7}{d}")).collect();
    let silent = r.per_tag_delivered.iter().filter(|&&d| d == 0).count();
    report.note(format!(
        "busiest tags: {}; {silent} of {} tags delivered nothing.",
        busiest.join(", "),
        cfg.tags
    ));
    report.note(format!(
        "occupancy scale ' .:-=+*#%@' maps 0 → 100% of that carrier's packets modulated; \
         {} incident(s) flagged.",
        tr.incidents.len()
    ));
    report
}

/// A parsed `fleet_incident` bundle: the scenario window to re-run and
/// the event subsequence it recorded.
#[derive(Clone, Debug)]
pub struct Incident {
    /// Detector that flagged the window (`tag_starved`, …).
    pub reason: String,
    /// Scenario key (`fleet/paper/<policy>/<power>`).
    pub scenario: String,
    /// The scenario, its horizon cut just past the window.
    pub cfg: FleetConfig,
    /// Calibration trials behind the run's link table.
    pub cal_n: usize,
    /// The tag whose events the window follows (`None`: every tag).
    pub tag: Option<u32>,
    /// Window start, seconds.
    pub t0: f64,
    /// Window end, seconds.
    pub t1: f64,
    /// The recorded event subsequence.
    pub events: Vec<String>,
    /// Events the recording dropped past its cap of 512.
    pub truncated: u64,
}

/// Parses a `fleet_incident` bundle (its `kind` already checked).
///
/// Integers are read exactly ([`msc_obs::export::int_field`]), never
/// saturated, and a configuration the engine would assert on (no tags,
/// more tags than a `u32` indexes, a non-finite time) is an error.
/// The replay horizon is cut just past the window: the carrier and
/// reading arrival processes generate sequentially and the MAC sweep
/// consumes RNG draws in event order, so events at or before `t1` are
/// unaffected by anything the original run did afterwards.
pub fn parse_incident(v: &Json) -> Result<Incident, String> {
    let str_of = |k: &str| {
        v.get(k)
            .and_then(|x| x.as_str().map(str::to_string))
            .ok_or_else(|| format!("bundle field {k:?} missing or malformed"))
    };
    let num_in = |obj: &Json, k: &str| {
        obj.get(k)
            .and_then(Json::as_f64)
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("bundle field {k:?} is not a finite number"))
    };
    let int_in =
        |obj: &Json, k: &'static str, max: u64| int_field(obj, k, max).map_err(|e| e.to_string());
    let policy_label = str_of("policy")?;
    let policy = *MacPolicy::ALL
        .iter()
        .find(|p| p.label() == policy_label)
        .ok_or_else(|| format!("unknown policy {policy_label:?}"))?;
    let energy = match v.get("energy") {
        Some(e @ Json::Obj(_)) => {
            Some(EnergyModel { charge_s: num_in(e, "charge_s")?, run_s: num_in(e, "run_s")? })
        }
        _ => None,
    };
    let backoff = v.get("backoff").ok_or("bundle field \"backoff\" missing")?;
    let carriers = paper_carriers();
    let want: Vec<&str> = v
        .get("carriers")
        .and_then(Json::as_arr)
        .ok_or("bundle field \"carriers\" missing")?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let have: Vec<&str> = carriers.iter().map(|s| s.protocol.label()).collect();
    if want != have {
        return Err(format!("bundle carriers {want:?} != this build's {have:?}"));
    }
    let u32_max = u32::MAX as u64;
    let tags = int_in(v, "tags", u32_max)? as usize;
    if tags == 0 {
        return Err("bundle field \"tags\" is 0; a fleet needs at least one tag".to_string());
    }
    let t1 = num_in(v, "t1")?;
    let reading_rate = num_in(v, "reading_rate")?;
    if reading_rate <= 0.0 {
        // A periodic process at a rate ≤ 0 never passes the horizon.
        return Err(format!("bundle field \"reading_rate\" is {reading_rate}, not positive"));
    }
    // Never below the mean reading interval, which phase 2 clamps its
    // phase draw by.
    let horizon_s = num_in(v, "horizon_s")?.min((t1 + 1.0).max(1.0 / reading_rate.max(1e-12)));
    let cfg = FleetConfig {
        tags,
        horizon_s,
        carriers,
        readings: Arrivals::Periodic { rate: reading_rate },
        reading_bits: int_in(v, "reading_bits", usize::MAX as u64)? as usize,
        policy,
        backoff: Backoff {
            cw_min: int_in(backoff, "cw_min", u32_max)? as u32,
            cw_max: int_in(backoff, "cw_max", u32_max)? as u32,
            max_retries: int_in(backoff, "max_retries", u32_max)? as u32,
        },
        energy,
        queue_cap: int_in(v, "queue_cap", usize::MAX as u64)? as usize,
        sample_every: int_in(v, "sample_every", usize::MAX as u64)? as usize,
        seed: int_in(v, "seed", u64::MAX)?,
    };
    let tag = match v.get("tag") {
        Some(Json::Null) | None => None,
        Some(_) => Some(int_in(v, "tag", u32_max)? as u32),
    };
    let events = v
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("bundle field \"events\" missing")?
        .iter()
        .filter_map(|e| e.as_str().map(str::to_string))
        .collect();
    Ok(Incident {
        reason: str_of("reason")?,
        scenario: str_of("scenario")?,
        cfg,
        cal_n: int_in(v, "cal_n", usize::MAX as u64)? as usize,
        tag,
        t0: num_in(v, "t0")?,
        t1,
        events,
        truncated: int_in(v, "truncated", u64::MAX)?,
    })
}

/// Re-runs an incident's scenario window (via the same three-phase
/// derived-seed contract) and compares the event subsequence with the
/// recorded one, position by position: the returned mismatches are
/// empty when the replay reproduces the bundle bit-for-bit.
pub fn replay_incident(inc: &Incident) -> Vec<String> {
    let cfg = &inc.cfg;
    let table = calibrate(inc.cal_n, cfg.seed);
    let mut tr = MacTrace::new(cfg.tags, cfg.carriers.len(), 1.0, Detectors::default());
    run_with(cfg, &table, place_snr_db, &mut tr);
    tr.finish();
    let (replayed, truncated) = tr.subsequence(inc.tag, inc.t0, inc.t1, INCIDENT_EVENT_CAP);
    let missing = "<missing>";
    let mut diffs: Vec<String> = (0..inc.events.len().max(replayed.len()))
        .filter_map(|i| {
            let a = inc.events.get(i).map_or(missing, String::as_str);
            let b = replayed.get(i).map_or(missing, String::as_str);
            (a != b).then(|| format!("event {i}: bundle {a} vs replay {b}"))
        })
        .collect();
    if truncated != inc.truncated {
        diffs.push(format!("truncated: bundle {} vs replay {truncated}", inc.truncated));
    }
    diffs
}

/// Runs the `fleet-scale` workload: tags × horizon scaling of the
/// best-goodput mains scenario. `n` sets calibration trials.
pub fn run_scale(n: usize, seed: u64) -> Report {
    let n = n.max(8);
    let table = calibrate(n, seed);
    let horizon = horizon_s().min(30.0);
    let mut report = Report::new(
        format!("fleet-scale — best-goodput fleet vs deployment size ({horizon:.0} s horizon)"),
        &["tags", "offered", "delivered", "collisions", "Jain", "kbps", "pkts"],
    );
    let sizes = [100usize, 250, 500, 1000];
    let runs = msc_par::par_map(&sizes, |&tags| {
        let cfg = FleetConfig {
            tags,
            horizon_s: horizon,
            ..paper_cfg(MacPolicy::BestGoodput, None, seed)
        };
        msc_fleet::engine::run(&cfg, &table, place_snr_db)
    });
    for (tags, r) in sizes.into_iter().zip(runs) {
        report.keyed_row(
            format!("fleet/scale/{tags}"),
            &[
                tags.to_string(),
                r.offered.to_string(),
                pct(r.delivery_rate()),
                pct(r.collision_rate()),
                f3(r.jain_fairness()),
                f1(r.throughput_bps() / 1e3),
                r.carrier_packets.to_string(),
            ],
        );
        report.stat("delivered", r.delivered, r.offered);
        report.stat("collision", r.collided_attempts, r.attempts);
        msc_obs::metrics::gauge_set("fleet.scale_delivery", "", "", r.delivery_rate());
    }
    report.note(
        "Collision rate grows with fleet size while the carrier supply is fixed; \
                 delivery degrades gracefully through retry diversity.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_orders_per_by_distance() {
        let table = calibrate(8, 42);
        for p in Protocol::ALL {
            assert_eq!(table.points(p), CAL_DISTANCES.len());
            let near = table.per(p, place_snr_db(0.0, p));
            let far = table.per(p, place_snr_db(0.999, p));
            assert!(near <= far + 1e-9, "{}: near {near} > far {far}", p.label());
        }
    }

    #[test]
    fn calibration_is_memoized_per_n_and_seed() {
        let memo = new_link_memo();
        let first = calibrate_in(&memo, 8, 4711);
        let second = calibrate_in(&memo, 8, 4711);
        let s = memo.stats();
        assert_eq!((s.misses, s.hits), (1, 1), "the second call must reuse the table");
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        calibrate_in(&memo, 8, 4712);
        assert_eq!(memo.stats().misses, 2, "another seed calibrates afresh");
    }

    #[test]
    fn paper_carriers_cover_all_protocols() {
        let carriers = paper_carriers();
        assert_eq!(carriers.len(), 4);
        for (c, p) in carriers.iter().zip(Protocol::ALL) {
            assert_eq!(c.protocol, p);
            assert!(c.arrivals.mean_rate() > 0.0);
            assert!(c.tag_bits_per_packet > 0, "{}", p.label());
        }
        // Combined supply must cover ≥ 1M packets at the default horizon.
        let rate: f64 = carriers.iter().map(|c| c.arrivals.mean_rate()).sum();
        assert!(rate * 180.0 > 1.0e6, "combined rate {rate} pkt/s");
    }

    #[test]
    fn incident_bundle_replays_bit_for_bit() {
        std::env::set_var("MSC_FLEET_HORIZON_S", "2.0");
        let seed = 42;
        let table = calibrate(8, seed);
        // Harvest-limited round (charge 1.5 s / run 0.25 s) plus a 1 s
        // starvation threshold forces tag_starved incidents fast.
        let energy = EnergyModel { charge_s: 1.5, run_s: 0.25 };
        let cfg = paper_cfg(MacPolicy::BestGoodput, Some(energy), seed);
        let det = Detectors { starve_s: 1.0, ..Detectors::default() };
        let mut tr = MacTrace::new(cfg.tags, cfg.carriers.len(), 1.0, det);
        run_with(&cfg, &table, place_snr_db, &mut tr);
        tr.finish();
        assert!(!tr.incidents.is_empty(), "harvest-limited config must starve a tag");
        let inc = &tr.incidents[0];
        assert_eq!(inc.reason, "tag_starved");
        let (events, truncated) = tr.subsequence(inc.tag, inc.t0, inc.t1, INCIDENT_EVENT_CAP);
        assert!(!events.is_empty(), "a starved tag has at least its starved readings");
        let json = incident_json(
            "fleet/paper/best-goodput/outdoor-harvest",
            &inc.reason,
            &cfg,
            8,
            inc.tag,
            inc.t0,
            inc.t1,
            &events,
            truncated,
        );
        let request = crate::replay::parse(&json).expect("bundle parses");
        let crate::replay::Request::Incident(parsed) = &request else {
            panic!("a fleet_incident bundle must parse as an incident: {request:?}");
        };
        assert_eq!(parsed.reason, "tag_starved");
        assert_eq!(parsed.events.len(), events.len());
        let out = crate::replay::run(&request).unwrap();
        assert!(out.matches, "diffs: {:?}", out.diffs);
    }

    #[test]
    fn bad_incident_integers_are_rejected_not_saturated() {
        let cfg = paper_cfg(MacPolicy::FixedAssignment, None, 42);
        let events = ["0.5 reading tag=3".to_string()];
        let json =
            incident_json("fleet/test", "tag_starved", &cfg, 8, Some(3), 0.0, 1.0, &events, 0);
        let parse = |text: &str| parse_incident(&msc_obs::export::parse_json(text).unwrap());
        assert_eq!(parse(&json).expect("the unedited bundle parses").cfg.tags, 500);
        for (literal, want) in [
            ("0", "at least one tag"),
            ("-3", "negative"),
            ("2.5", "not an integer"),
            ("1e30", "not an integer"),
            ("4294967296", "out of range"),
        ] {
            let edited = json.replace("\"tags\":500", &format!("\"tags\":{literal}"));
            let err = parse(&edited).expect_err(literal);
            assert!(err.contains(want), "tags = {literal}: {err}");
        }
    }

    #[test]
    fn timeline_renders_windows_and_occupancy() {
        std::env::set_var("MSC_FLEET_HORIZON_S", "2.0");
        let r = run_timeline(8, 42);
        assert!(r.len() >= 2, "at least two 1 s windows, got {}", r.len());
        let rendered = r.render();
        assert!(rendered.contains("occupancy"), "{rendered}");
        assert!(rendered.contains("busiest tags"), "{rendered}");
        for p in Protocol::ALL {
            assert!(rendered.contains(p.label()), "missing {} strip", p.label());
        }
    }

    #[test]
    fn fleet_report_shape_and_stats() {
        // Short horizon keeps the debug-profile test fast; the env knob
        // is process-wide, so set it before first use.
        std::env::set_var("MSC_FLEET_HORIZON_S", "2.0");
        let r = run(8, 42);
        assert_eq!(r.len(), 6, "3 policies × 2 power models");
        let rendered = r.render();
        for label in ["fixed", "round-robin", "best-goodput", "mains", "outdoor-harvest"] {
            assert!(rendered.contains(label), "missing {label} in:\n{rendered}");
        }
        assert!(r.last_row_stats().iter().any(|s| s.name == "delivered"));
        assert!(rendered.contains("carrier packets pushed"));
    }
}
