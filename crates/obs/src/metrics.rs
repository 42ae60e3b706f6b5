//! The metrics registry: counters, gauges, and fixed-bucket histograms
//! keyed by `(experiment, protocol, stage)`.
//!
//! Recording goes through free functions ([`counter_add`],
//! [`gauge_set`], [`hist_observe`], [`time_stage`]) that early-return on
//! one relaxed atomic load while metrics are disabled — instrumentation
//! stays in hot paths at zero practical cost. The *experiment* label is
//! ambient (set once per run via [`set_experiment`]) so DSP-layer code
//! doesn't need to thread experiment identity through its signatures.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// Enables metric recording.
pub fn enable() {
    METRICS_ON.store(true, Ordering::Release);
}

/// Disables metric recording (records become no-ops again).
pub fn disable() {
    METRICS_ON.store(false, Ordering::Release);
}

/// True when metrics are being recorded (the fast-path check).
#[inline(always)]
pub fn enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

fn experiment_slot() -> &'static RwLock<String> {
    static SLOT: OnceLock<RwLock<String>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(String::new()))
}

/// Sets the ambient experiment label attached to subsequent records.
pub fn set_experiment(id: &str) {
    *experiment_slot().write().unwrap() = id.to_string();
}

/// The current ambient experiment label.
pub fn current_experiment() -> String {
    experiment_slot().read().unwrap().clone()
}

/// The label triple every metric is keyed by.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric name (`layer.thing`).
    pub name: &'static str,
    /// Ambient experiment id (`fig13`, `tab1`, … or `""`).
    pub experiment: String,
    /// Protocol label (`802.11b`, `BLE`, … or `""`).
    pub protocol: &'static str,
    /// Pipeline stage (`carrier`, `decode`, … or `""`).
    pub stage: &'static str,
}

/// One metric's current value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Monotonic counter (saturating).
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

/// A fixed-bucket histogram: counts per bucket plus moment summaries.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Upper bucket edges (a value `v` lands in the first bucket with
    /// `v <= edge`; larger values land in the overflow slot).
    pub edges: &'static [f64],
    /// Per-bucket counts; `counts.len() == edges.len() + 1`, the last
    /// slot being overflow.
    pub counts: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations in fixed point ([`SUM_SCALE`] units per 1.0).
    /// Integer addition is associative, so the sum — unlike an `f64`
    /// accumulator — does not depend on the order concurrent workers
    /// observed in. Read it through [`Histogram::sum`].
    sum_fixed: i128,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

/// Fixed-point scale of [`Histogram::sum_fixed`]: 2^32 units per 1.0,
/// so each observation is rounded to ~2.3e-10 and the sum saturates only
/// past ~4e28.
const SUM_SCALE: f64 = 4_294_967_296.0;

impl Histogram {
    fn new(edges: &'static [f64]) -> Self {
        Histogram {
            edges,
            counts: vec![0; edges.len() + 1],
            count: 0,
            sum_fixed: 0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum_fixed as f64 / SUM_SCALE
    }

    fn observe(&mut self, v: f64) {
        let slot = self.edges.iter().position(|&e| v <= e).unwrap_or(self.edges.len());
        self.counts[slot] = self.counts[slot].saturating_add(1);
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count = self.count.saturating_add(1);
        // `as` saturates (and maps NaN to 0), so the sum never wraps.
        self.sum_fixed = self.sum_fixed.saturating_add((v * SUM_SCALE).round() as i128);
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), linearly interpolated
    /// within the containing bucket and clamped to the observed
    /// `[min, max]`. The first bucket interpolates from `min`, the
    /// overflow bucket toward `max` — so the estimate never invents
    /// values outside what was actually observed. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (slot, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if rank <= next as f64 {
                let lo = if slot == 0 { self.min } else { self.edges[slot - 1].max(self.min) };
                let hi =
                    if slot < self.edges.len() { self.edges[slot].min(self.max) } else { self.max };
                let frac = (rank - cum as f64) / c as f64;
                return (lo + (hi - lo).max(0.0) * frac).clamp(self.min, self.max);
            }
            cum = next;
        }
        self.max
    }
}

/// One exported metric record.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// The label triple plus name.
    pub key: Key,
    /// The value at snapshot time.
    pub value: Value,
}

/// Internal storage slot. Counters are plain atomics so the increment
/// path never takes an exclusive lock; gauges and histograms carry their
/// own fine-grained locks. The map itself sits behind an `RwLock` that is
/// write-locked only when a *new* key is first inserted — steady-state
/// recording from parallel Monte-Carlo workers is read-lock + per-slot
/// atomic/mutex, so workers don't serialize on one registry mutex.
enum Slot {
    Counter(AtomicU64),
    Gauge(Mutex<f64>),
    Histogram(Mutex<Histogram>),
}

impl Slot {
    fn to_value(&self) -> Value {
        match self {
            Slot::Counter(c) => Value::Counter(c.load(Ordering::Relaxed)),
            Slot::Gauge(g) => Value::Gauge(*g.lock().unwrap()),
            Slot::Histogram(h) => Value::Histogram(h.lock().unwrap().clone()),
        }
    }
}

/// Saturating add on an atomic counter (CAS loop near the ceiling, plain
/// `fetch_add` otherwise — overflow is 2^64 events away in practice).
fn atomic_saturating_add(c: &AtomicU64, delta: u64) {
    let mut cur = c.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(delta);
        match c.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// The metric store. Usually used through [`Registry::global`] and the
/// free recording functions, but owned registries work too (tests).
#[derive(Default)]
pub struct Registry {
    inner: RwLock<BTreeMap<Key, Slot>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Adds `delta` to a counter (saturating at `u64::MAX`). Lock-free on
    /// the increment path once the counter exists.
    pub fn counter_add(&self, key: Key, delta: u64) {
        {
            let map = self.inner.read().unwrap();
            if let Some(slot) = map.get(&key) {
                match slot {
                    Slot::Counter(c) => atomic_saturating_add(c, delta),
                    _ => panic!("metric type mismatch: counter_add on non-counter"),
                }
                return;
            }
        }
        let mut map = self.inner.write().unwrap();
        match map.entry(key).or_insert_with(|| Slot::Counter(AtomicU64::new(0))) {
            Slot::Counter(c) => atomic_saturating_add(c, delta),
            _ => panic!("metric type mismatch: counter_add on non-counter"),
        }
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, key: Key, value: f64) {
        {
            let map = self.inner.read().unwrap();
            if let Some(slot) = map.get(&key) {
                match slot {
                    Slot::Gauge(g) => *g.lock().unwrap() = value,
                    _ => panic!("metric type mismatch: gauge_set on non-gauge"),
                }
                return;
            }
        }
        let mut map = self.inner.write().unwrap();
        match map.entry(key).or_insert_with(|| Slot::Gauge(Mutex::new(0.0))) {
            Slot::Gauge(g) => *g.get_mut().unwrap() = value,
            _ => panic!("metric type mismatch: gauge_set on non-gauge"),
        }
    }

    /// Observes one histogram sample.
    pub fn hist_observe(&self, key: Key, value: f64, edges: &'static [f64]) {
        {
            let map = self.inner.read().unwrap();
            if let Some(slot) = map.get(&key) {
                match slot {
                    Slot::Histogram(h) => h.lock().unwrap().observe(value),
                    _ => panic!("metric type mismatch: hist_observe on non-histogram"),
                }
                return;
            }
        }
        let mut map = self.inner.write().unwrap();
        match map.entry(key).or_insert_with(|| Slot::Histogram(Mutex::new(Histogram::new(edges)))) {
            Slot::Histogram(h) => h.get_mut().unwrap().observe(value),
            _ => panic!("metric type mismatch: hist_observe on non-histogram"),
        }
    }

    /// A sorted snapshot of every metric. Export order stays
    /// deterministic (BTreeMap key order) regardless of how many workers
    /// recorded concurrently.
    pub fn snapshot(&self) -> Vec<Record> {
        self.inner
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| Record { key: k.clone(), value: v.to_value() })
            .collect()
    }

    /// Clears all metrics (start of a run; tests).
    pub fn reset(&self) {
        self.inner.write().unwrap().clear();
    }

    /// Number of distinct metrics.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().len()
    }

    /// True when no metrics are recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.read().unwrap().is_empty()
    }
}

fn key(name: &'static str, protocol: &'static str, stage: &'static str) -> Key {
    Key { name, experiment: current_experiment(), protocol, stage }
}

/// Adds `delta` to the named global counter; no-op while disabled.
#[inline]
pub fn counter_add(name: &'static str, protocol: &'static str, stage: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    Registry::global().counter_add(key(name, protocol, stage), delta);
}

/// Sets the named global gauge; no-op while disabled.
#[inline]
pub fn gauge_set(name: &'static str, protocol: &'static str, stage: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    Registry::global().gauge_set(key(name, protocol, stage), value);
}

/// Observes one sample of the named global histogram; no-op while
/// disabled.
#[inline]
pub fn hist_observe(
    name: &'static str,
    protocol: &'static str,
    stage: &'static str,
    value: f64,
    edges: &'static [f64],
) {
    if !enabled() {
        return;
    }
    Registry::global().hist_observe(key(name, protocol, stage), value, edges);
}

/// Runs `f`, recording its wall-clock into the `pipe.stage_us`
/// histogram for `(protocol, stage)` when metrics are enabled, into
/// the current [`crate::profile`] tree as a named frame when the
/// profiler is collecting, and into the open [`crate::flight`] trial
/// when the recorder is armed. The fully-disabled path calls `f`
/// directly — no clock read, three relaxed atomic loads.
#[inline]
pub fn time_stage<T>(protocol: &'static str, stage: &'static str, f: impl FnOnce() -> T) -> T {
    let metrics = enabled();
    let flight = crate::flight::armed();
    if !metrics && !flight && !crate::profile::enabled() {
        return f();
    }
    // A real profiler frame (not a post-hoc leaf) so spans inside `f`
    // — e.g. `rx.decode` — nest under this stage in the tree.
    let frame = crate::profile::scope(stage);
    let t0 = Instant::now();
    let out = f();
    let us = t0.elapsed().as_secs_f64() * 1e6;
    drop(frame);
    if metrics {
        Registry::global().hist_observe(
            key("pipe.stage_us", protocol, stage),
            us,
            buckets::LATENCY_US,
        );
    }
    if flight {
        crate::flight::note_stage(stage, us);
    }
    out
}

/// Canonical bucket-edge sets for the quantities the stack measures.
pub mod buckets {
    /// Correlation scores in `[0, 1]`, 0.05 steps.
    pub const SCORE: &[f64] = &[
        0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75,
        0.80, 0.85, 0.90, 0.95, 1.0,
    ];
    /// Stage latency in microseconds, exponential.
    pub const LATENCY_US: &[f64] = &[
        1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5,
        2e5, 5e5, 1e6,
    ];
    /// SNR in dB, 5 dB steps across the operating range.
    pub const SNR_DB: &[f64] =
        &[-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0];
    /// Bit-error rates, decade edges.
    pub const BER: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0];
    /// Small integer counts (queue depths, outstanding chunks).
    pub const COUNT: &[f64] =
        &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0];
}

/// Serializes tests that manipulate the global registry / enable flag.
#[doc(hidden)]
pub fn tests_serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(name: &'static str) -> Key {
        Key { name, experiment: "test".into(), protocol: "ble", stage: "decode" }
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let r = Registry::new();
        r.counter_add(k("c"), u64::MAX - 1);
        r.counter_add(k("c"), 5);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].value, Value::Counter(u64::MAX));
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper() {
        let r = Registry::new();
        static EDGES: &[f64] = &[1.0, 2.0, 5.0];
        // Exactly on an edge → that bucket; above all edges → overflow.
        for v in [0.5, 1.0, 1.5, 2.0, 5.0, 7.0, 100.0] {
            r.hist_observe(k("h"), v, EDGES);
        }
        let snap = r.snapshot();
        let Value::Histogram(h) = &snap[0].value else { panic!() };
        assert_eq!(h.counts, vec![2, 2, 1, 2]);
        assert_eq!(h.count, 7);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 100.0);
        assert!((h.mean() - (0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 7.0 + 100.0) / 7.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let r = Registry::new();
        static EDGES: &[f64] = &[10.0, 20.0, 50.0];
        // 100 observations spread 60/30/10 across the first three buckets.
        for i in 0..60 {
            r.hist_observe(k("q"), 1.0 + (i as f64) * 0.15, EDGES); // [1, ~9.85]
        }
        for i in 0..30 {
            r.hist_observe(k("q"), 11.0 + (i as f64) * 0.3, EDGES); // [11, ~19.7]
        }
        for i in 0..10 {
            r.hist_observe(k("q"), 21.0 + (i as f64) * 2.0, EDGES); // [21, 39]
        }
        let snap = r.snapshot();
        let Value::Histogram(h) = &snap[0].value else { panic!() };
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!((1.0..=10.0).contains(&p50), "p50 in first bucket: {p50}");
        assert!((10.0..=20.0).contains(&p90), "p90 in second bucket: {p90}");
        assert!((20.0..=39.0).contains(&p99), "p99 in third bucket: {p99}");
        assert!(p50 < p90 && p90 < p99, "quantiles ordered: {p50} {p90} {p99}");
        assert_eq!(h.quantile(0.0), h.min);
        assert_eq!(h.quantile(1.0), h.max);
    }

    #[test]
    fn histogram_sum_is_independent_of_observation_order() {
        // Values whose f64 running sum depends on the order: mixed
        // magnitudes and non-representable fractions.
        let values: Vec<f64> =
            (0..2_000).map(|i| (i as f64 * 0.731).sin() * 10f64.powi(i % 7 - 3)).collect();
        let mut shuffled = values.clone();
        // Fisher–Yates with a fixed LCG.
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            shuffled.swap(i, (s >> 33) as usize % (i + 1));
        }
        assert_ne!(values, shuffled);
        let float_sum = |v: &[f64]| v.iter().fold(0.0, |a, &x| a + x);
        assert_ne!(
            float_sum(&values).to_bits(),
            float_sum(&shuffled).to_bits(),
            "the values must exercise f64 order dependence"
        );
        let mut a = Histogram::new(buckets::SCORE);
        let mut b = Histogram::new(buckets::SCORE);
        values.iter().for_each(|&v| a.observe(v));
        shuffled.iter().for_each(|&v| b.observe(v));
        assert_eq!(a.sum().to_bits(), b.sum().to_bits());
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(a, b);
        assert!((a.sum() - float_sum(&values)).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_reports_zero_min_max() {
        let h = Histogram::new(buckets::SCORE);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn disabled_free_functions_record_nothing() {
        let _guard = tests_serial();
        disable();
        let before = Registry::global().len();
        counter_add("t.off", "", "", 1);
        gauge_set("t.off.g", "", "", 1.0);
        hist_observe("t.off.h", "", "", 1.0, buckets::SCORE);
        assert_eq!(Registry::global().len(), before);
    }

    #[test]
    fn enabled_free_functions_key_by_ambient_experiment() {
        let _guard = tests_serial();
        Registry::global().reset();
        set_experiment("unit");
        enable();
        counter_add("t.on", "zigbee", "decode", 3);
        counter_add("t.on", "zigbee", "decode", 2);
        disable();
        let snap = Registry::global().snapshot();
        let rec = snap.iter().find(|r| r.key.name == "t.on").expect("recorded");
        assert_eq!(rec.key.experiment, "unit");
        assert_eq!(rec.value, Value::Counter(5));
        Registry::global().reset();
        set_experiment("");
    }

    #[test]
    fn concurrent_counter_adds_all_land() {
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        r.counter_add(k("conc"), 1);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap[0].value, Value::Counter(40_000));
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let r = Registry::new();
        r.counter_add(k("b"), 1);
        r.counter_add(k("a"), 1);
        let names: Vec<_> = r.snapshot().iter().map(|rec| rec.key.name).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
