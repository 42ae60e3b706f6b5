//! # msc-par — deterministic parallelism for the Monte-Carlo harness
//!
//! A minimal scoped thread pool built on [`std::thread::scope`], with two
//! design rules that keep every simulation result independent of the
//! worker count:
//!
//! 1. **Work is identified, not streamed.** Each item of a [`par_map`]
//!    call is addressed by its index; nothing about the result depends on
//!    which worker ran it or in what order chunks were claimed. Results
//!    are reassembled in index order.
//! 2. **Randomness is derived, not shared.** Instead of drawing from one
//!    RNG stream (whose state would depend on scheduling), callers derive
//!    an independent seed per work item from a stable identity via
//!    [`derive_seed`] / [`hash_label`]. The same `(experiment, cell,
//!    index)` triple always yields the same seed, so a packet simulated
//!    on thread 7 of 8 is bit-identical to the same packet simulated
//!    single-threaded.
//! 3. **A nested call runs inline.** A [`par_map_indexed`] issued from
//!    inside a pool worker runs sequentially on that worker: the outer
//!    call already occupies the pool, and spawning a second set of
//!    threads per item would oversubscribe it. The nested call still
//!    opens its `par.run` frame and records a pool call, and its
//!    results are index-addressed like any other, so running inline
//!    changes work placement, never results. A runner can therefore fan
//!    its cells out and let each cell's own pool calls run in place.
//!
//! The pool is configured process-wide with [`set_threads`]; the `paper`
//! binary maps its `--threads N` flag onto it. `threads() == 1` runs
//! inline with zero spawning overhead, which is also the path used by
//! unit tests.

#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configured worker count. 0 = unset, meaning "available parallelism".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count. `0` restores the default
/// (available parallelism). Values are clamped to at least 1 thread.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The effective worker count: the last [`set_threads`] value, or the
/// machine's available parallelism when unset.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

thread_local! {
    /// Set for the lifetime of a pool worker, so a pool call issued
    /// from inside one runs inline (crate rule 3).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a pool worker.
fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// What one worker brought back: its result chunks plus its own time
/// accounting for the pool-utilization report.
struct WorkerOut<U> {
    chunks: Vec<(usize, Vec<U>)>,
    /// Worker lifetime (spawn to last chunk done), µs.
    busy_us: f64,
    /// Time inside item execution (tracked only while profiling), µs.
    exec_us: f64,
}

/// Maps `f` over `0..n` on the configured worker pool, returning results
/// in index order. Deterministic for any thread count provided `f` is a
/// pure function of its index (see the crate docs for the seed-derivation
/// pattern that makes stochastic work pure).
///
/// Every call reports its utilization (worker busy/idle time, items) to
/// [`msc_obs::pool`]; with the profiler collecting, workers additionally
/// adopt the caller's open frame path so per-stage time lands under a
/// `par.run` → `par.worker` subtree, with the workers' combined idle and
/// chunk-claim time recorded alongside (`par.idle` / `par.claim`), and
/// the outstanding-chunk count feeds the `par.queue_depth` histogram
/// when metrics are enabled. Called from inside a pool worker, it runs
/// inline on that worker (crate rule 3).
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = threads().min(n.max(1));
    if workers <= 1 || n <= 1 || in_worker() {
        let _frame = msc_obs::profile::scope("par.run");
        let t0 = std::time::Instant::now();
        let out: Vec<U> = (0..n).map(f).collect();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        msc_obs::pool::record_call(us, us, 0.0, 0.0, n as u64);
        return out;
    }
    // Chunked dynamic scheduling: workers claim fixed-size index chunks
    // from a shared counter. Chunks are small enough to balance skewed
    // per-item costs but large enough to amortize the atomic claim.
    let chunk = (n / (workers * 8)).max(1);
    let n_chunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let _frame = msc_obs::profile::scope("par.run");
    let fork = msc_obs::profile::fork_context();
    let profiling = msc_obs::profile::enabled();
    let metrics_on = msc_obs::metrics::enabled();
    let t_call = std::time::Instant::now();
    let mut per_worker: Vec<WorkerOut<U>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let fork = &fork;
                let next = &next;
                let f = &f;
                std::thread::Builder::new()
                    .name(format!("par-{w}"))
                    .spawn_scoped(scope, move || {
                        IN_WORKER.with(|w| w.set(true));
                        let _worker = msc_obs::profile::worker_scope(fork);
                        let t0 = std::time::Instant::now();
                        let mut mine: Vec<(usize, Vec<U>)> = Vec::new();
                        let mut exec_us = 0.0;
                        loop {
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                break;
                            }
                            if metrics_on {
                                msc_obs::metrics::hist_observe(
                                    "par.queue_depth",
                                    "",
                                    "",
                                    n_chunks.saturating_sub(c + 1) as f64,
                                    msc_obs::metrics::buckets::COUNT,
                                );
                            }
                            let start = c * chunk;
                            let end = (start + chunk).min(n);
                            if profiling {
                                let te = std::time::Instant::now();
                                mine.push((c, (start..end).map(f).collect()));
                                exec_us += te.elapsed().as_secs_f64() * 1e6;
                            } else {
                                mine.push((c, (start..end).map(f).collect()));
                            }
                        }
                        let busy_us = t0.elapsed().as_secs_f64() * 1e6;
                        WorkerOut { chunks: mine, busy_us, exec_us }
                    })
                    .expect("spawn msc-par worker")
            })
            .collect();
        for h in handles {
            per_worker.push(h.join().expect("msc-par worker panicked"));
        }
    });
    let wall_us = t_call.elapsed().as_secs_f64() * 1e6;
    let busy_us: f64 = per_worker.iter().map(|w| w.busy_us).sum();
    // Idle = the slice of the call's wall each worker did not spend in
    // its claim loop (spawn latency, done-and-waiting-for-join). Claim
    // = loop time not inside item execution (chunk-claim contention);
    // only meaningful when per-chunk tracking was on.
    let idle_us: f64 = per_worker.iter().map(|w| (wall_us - w.busy_us).max(0.0)).sum();
    let claim_us: f64 = if profiling {
        per_worker.iter().map(|w| (w.busy_us - w.exec_us).max(0.0)).sum()
    } else {
        0.0
    };
    msc_obs::pool::record_call(wall_us, busy_us, idle_us, claim_us, n as u64);
    if profiling {
        msc_obs::profile::record_external(&fork, "par.idle", idle_us);
        msc_obs::profile::record_external(&fork, "par.claim", claim_us);
    }
    // Reassemble in chunk order — the output is independent of which
    // worker ran which chunk.
    let mut chunks: Vec<(usize, Vec<U>)> = per_worker.into_iter().flat_map(|w| w.chunks).collect();
    chunks.sort_by_key(|&(c, _)| c);
    let mut out = Vec::with_capacity(n);
    for (_, mut v) in chunks {
        out.append(&mut v);
    }
    out
}

/// Maps `f` over a slice on the configured worker pool, returning results
/// in input order.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives an independent RNG seed for one Monte-Carlo work item from its
/// stable identity `(base seed, cell, item index)`.
///
/// The mix is a chained SplitMix64 finalizer, so structurally close
/// identities (adjacent packet indices, adjacent SNR cells) produce
/// statistically unrelated seeds. Use [`hash_label`] to fold string
/// identities (experiment id, protocol name) into the `cell` argument.
pub fn derive_seed(base: u64, cell: u64, index: u64) -> u64 {
    mix64(mix64(mix64(base).wrapping_add(cell)).wrapping_add(index))
}

/// FNV-1a hash of a label, for folding strings ("fig13", "ZigBee") into
/// [`derive_seed`]'s `cell` argument.
pub fn hash_label(s: &str) -> u64 {
    msc_obs::archive::fnv1a(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        // Every pool call lands in the process-global pool stats, which
        // `pool_reports_utilization_and_profile_frames` counts exactly.
        let _guard = msc_obs::profile::tests_serial();
        let items: Vec<u64> = (0..1000).collect();
        let got = par_map(&items, |&x| x * 3);
        let want: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_indexed_matches_sequential_at_any_width() {
        let _guard = msc_obs::profile::tests_serial();
        let f = |i: usize| derive_seed(42, 7, i as u64);
        let want: Vec<u64> = (0..257).map(f).collect();
        for w in [1, 2, 3, 8] {
            set_threads(w);
            assert_eq!(par_map_indexed(257, f), want, "width {w}");
        }
        set_threads(0);
    }

    #[test]
    fn par_map_handles_edge_sizes() {
        let _guard = msc_obs::profile::tests_serial();
        set_threads(4);
        assert!(par_map_indexed(0, |i| i).is_empty());
        assert_eq!(par_map_indexed(1, |i| i), vec![0]);
        set_threads(0);
    }

    #[test]
    fn nested_call_runs_inline_on_the_outer_worker() {
        let _guard = msc_obs::profile::tests_serial();
        set_threads(4);
        let inner = |o: usize| par_map_indexed(16, move |i| derive_seed(o as u64, 3, i as u64));
        let want: Vec<Vec<u64>> = (0..8).map(inner).collect();
        // Every inner item sees the outer worker's thread name: the
        // nested call spawned no thread of its own.
        let got = par_map_indexed(8, |o| {
            let outer = std::thread::current().name().map(str::to_string);
            let names = par_map_indexed(16, |_| std::thread::current().name().map(str::to_string));
            assert!(outer.as_deref().is_some_and(|n| n.starts_with("par-")), "{outer:?}");
            assert!(names.iter().all(|n| *n == outer), "{names:?} vs {outer:?}");
            inner(o)
        });
        set_threads(0);
        assert_eq!(got, want);
        assert!(!in_worker(), "the caller is not a worker");
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        // Stable: documented values must never change (results depend on it).
        assert_eq!(derive_seed(42, 0, 0), derive_seed(42, 0, 0));
        // Spread: nearby identities give unrelated seeds.
        let s: Vec<u64> = (0..64).map(|i| derive_seed(42, 1, i)).collect();
        for i in 0..s.len() {
            for j in i + 1..s.len() {
                assert_ne!(s[i], s[j]);
                assert!((s[i] ^ s[j]).count_ones() > 8);
            }
        }
        assert_ne!(derive_seed(42, 1, 2), derive_seed(42, 2, 1));
    }

    #[test]
    fn hash_label_distinguishes_labels() {
        assert_ne!(hash_label("fig13"), hash_label("fig14"));
        assert_eq!(hash_label("ZigBee"), hash_label("ZigBee"));
        // The published FNV-1a 64 vectors: every derived seed rests on them.
        assert_eq!(hash_label(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_label("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn threads_clamps_to_one() {
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn pool_reports_utilization_and_profile_frames() {
        let _guard = msc_obs::profile::tests_serial();
        msc_obs::profile::reset();
        msc_obs::pool::reset();
        msc_obs::profile::enable();
        set_threads(4);
        let work = |i: usize| (0..2_000u64).fold(i as u64, |a, b| a.wrapping_add(b * b));
        let out = {
            let _root = msc_obs::profile::scope("par.test");
            par_map_indexed(64, work)
        };
        msc_obs::profile::disable();
        set_threads(0);
        let want: Vec<u64> = (0..64).map(work).collect();
        assert_eq!(out, want, "instrumentation must not change results");

        let stats = msc_obs::pool::snapshot();
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.items, 64);
        assert!(stats.wall_us > 0, "{stats:?}");

        let profile = msc_obs::profile::take();
        let paths: Vec<&str> = profile.nodes.iter().map(|n| n.path.as_str()).collect();
        assert!(paths.contains(&"par.test;par.run"), "{paths:?}");
        assert!(paths.contains(&"par.test;par.run;par.worker"), "{paths:?}");
        assert!(paths.contains(&"par.test;par.run;par.idle"), "{paths:?}");
    }
}
