//! Steady-state allocation guard for the packet hot path.
//!
//! With the cell's excitation prepared, the FFT-plan/scratch registry
//! and a pooled one-lane trial batch warm, one end-to-end packet should
//! allocate only its small, unavoidable outputs (decoded streams,
//! outcome). This test counts allocator calls around one
//! representative packet — cold versus steady-state — and exports the
//! steady-state count through `msc-obs` so regressions show up in the
//! metrics dump, not just here.

use msc_core::overlay::{params_for, Mode};
use msc_core::TagOverlayModulator;
use msc_phy::protocol::Protocol;
use msc_sim::pipeline::{run_packet, AnyLink, Geometry, Impairments, TrialBatch, TrialCell};
use msc_sim::CellExcitation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests in this binary: the allocation counter is
/// process-global, so a concurrently running test would leak its
/// allocations into another test's measured region.
fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// A pass-through allocator that counts alloc/realloc calls.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let out = f();
    (ALLOC_CALLS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn steady_state_packet_allocates_far_less_than_cold() {
    let _serial = lock();
    // Single-threaded so the thread-local pools this thread warms are
    // the ones the measured packet uses.
    msc_par::set_threads(1);
    let p = Protocol::Ble;
    let link = AnyLink::new(p, Mode::Mode1);
    let geo = Geometry::los(4.0);
    let cell = "alloc-guard/cell";
    let exc = CellExcitation::prepare(&link, 16, 42, cell);
    let modulator = TagOverlayModulator::new(p, params_for(p, Mode::Mode1));
    let snr = geo.uplink_snr_db(p);
    let mut tb = TrialBatch::default();
    let mut outs = Vec::with_capacity(8);
    let trial_cell = TrialCell::new(cell, p.label(), 0, 42);
    let mut packet = |i: u64| {
        tb.materialize(&modulator, &exc, &trial_cell, None, i, 1);
        tb.apply_channel(Impairments::snr(snr, geo.fading));
        outs.clear();
        tb.decode_into(&link, &exc, snr, &trial_cell, &mut outs);
        outs[0].decoded
    };

    // Warm the plan caches, scratch pools, and lane buffer, then
    // measure one representative steady-state packet.
    assert!(packet(0), "BLE at 4 m must decode");
    for i in 1..4 {
        packet(i);
    }
    let (warm, _) = count_allocs(|| packet(4));
    let mut rng = StdRng::seed_from_u64(7);

    // A packet that resynthesizes its carrier allocates far more than
    // a shared-excitation packet.
    let (fresh, _) = count_allocs(|| run_packet(&mut rng, &link, &geo, Mode::Mode1, 16));

    // The scratch pools keep even fresh synthesis cheap, so the ratio
    // is modest; the absolute bound is the real guard.
    assert!(
        warm < fresh,
        "shared-excitation packet should allocate less than a synthesizing one: \
         warm {warm} fresh {fresh}"
    );
    assert!(warm <= 64, "steady-state packet allocations crept up: {warm}");

    // Export through the metrics registry so BENCH/obs runs can track
    // the steady-state number alongside the cache counters.
    let _guard = msc_obs::metrics::tests_serial();
    msc_obs::metrics::enable();
    msc_obs::metrics::set_experiment("alloc-guard");
    msc_obs::metrics::gauge_set("alloc.steady_packet", "BLE", "", warm as f64);
    msc_obs::metrics::gauge_set("alloc.fresh_packet", "BLE", "", fresh as f64);
    let snap = msc_obs::metrics::Registry::global().snapshot();
    msc_obs::metrics::disable();
    assert!(
        snap.iter().any(|r| r.key.name == "alloc.steady_packet"),
        "steady-state allocation gauge must be exported"
    );
    msc_par::set_threads(0);
}

#[test]
fn ordered_rule_search_steady_state_stays_lean() {
    let _serial = lock();
    // The incremental search keeps its per-permutation sweep state
    // (sorted free indices, threshold keys, prefix counts) in a
    // thread-local scratch, so a warm `search_ordered_rule` call
    // allocates only its outputs: the score-view matrix and 24
    // four-step candidate rules. The old rescanning search cloned a
    // rule per (permutation, step, threshold) candidate — thousands of
    // allocations for a set this size — so the bound below would be
    // unreachable without the incremental sweep.
    use msc_core::search::{default_grid, search_ordered_rule, LabeledScores};
    use msc_core::Scores;

    msc_par::set_threads(1);
    let data: Vec<LabeledScores> = (0..160)
        .map(|i| {
            let truth = Protocol::ALL[i % 4];
            let mut scores = Scores::default();
            for (j, p) in Protocol::ALL.into_iter().enumerate() {
                // Deterministic, tie-heavy grid-adjacent scores so every
                // greedy step sweeps real threshold candidates.
                let base = if p == truth { 0.70 } else { 0.35 };
                scores.set(p, base + ((i * 7 + j * 13) % 10) as f64 * 0.03);
            }
            LabeledScores { truth, scores }
        })
        .collect();
    let grid = default_grid();

    // Warm the thread-local tune scratch, then measure a full search.
    let warm_rule = search_ordered_rule(&data, &grid);
    let (steady, rule) = count_allocs(|| search_ordered_rule(&data, &grid));
    assert_eq!(
        format!("{:?}", warm_rule.rule),
        format!("{:?}", rule.rule),
        "warm search must reproduce the same rule"
    );
    assert!(steady <= 192, "steady-state ordered search allocated {steady} times");
    msc_par::set_threads(0);
}

#[test]
fn batched_materialize_and_channel_are_allocation_free_when_warm() {
    let _serial = lock();
    // The batched engine's per-worker pool (lane buffers, RNG vectors,
    // tag-bit store) must make the materialize → channel loop allocate
    // exactly zero times once warmed to the batch width and waveform
    // length. Decode is excluded: it produces owned outputs (decoded
    // streams, outcomes) by design.
    let p = Protocol::Ble;
    let link = AnyLink::new(p, Mode::Mode1);
    let geo = Geometry::los(4.0);
    let exc = CellExcitation::prepare(&link, 16, 42, "alloc-guard/batch");
    let modulator = TagOverlayModulator::new(p, params_for(p, Mode::Mode1));
    let trial_cell = TrialCell::new("alloc-guard/batch", p.label(), 0, 42);
    let crn = Some(msc_par::hash_label("alloc-guard/crn"));
    let snr = geo.uplink_snr_db(p);
    let batch = 8usize;

    let mut tb = TrialBatch::default();
    for wave in 0..2u64 {
        tb.materialize(&modulator, &exc, &trial_cell, crn, wave * batch as u64, batch);
        tb.apply_channel(Impairments::snr(snr, geo.fading));
    }
    let (steady, _) = count_allocs(|| {
        for wave in 2..4u64 {
            tb.materialize(&modulator, &exc, &trial_cell, crn, wave * batch as u64, batch);
            tb.apply_channel(Impairments::snr(snr, geo.fading));
        }
        tb.count()
    });
    assert_eq!(steady, 0, "warm batch loop allocated {steady} times");

    // A shorter final batch must keep reusing the same pool.
    let (short, _) = count_allocs(|| {
        tb.materialize(&modulator, &exc, &trial_cell, crn, 4 * batch as u64, 3);
        tb.apply_channel(Impairments::snr(snr, geo.fading));
    });
    assert_eq!(short, 0, "tail batch allocated {short} times");
}
