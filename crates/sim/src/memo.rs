//! Single-flight memo: the one memoizing-cache abstraction behind the
//! identification analog-trace memo ([`crate::tracecache`]) and the
//! fleet link table ([`crate::experiments::fleet::calibrate`]).
//!
//! A [`Memo`] maps a key to a lazily computed value. Concurrent requests
//! for one key compute it once: the first caller runs the computation
//! while the others wait on the key's [`OnceLock`] and then share the
//! result. The map lock is held only to find or insert the key's slot,
//! never while computing, so distinct keys compute in parallel.
//!
//! ## Counters
//!
//! Every request counts exactly one of hit, miss or bypass, through one
//! hook that bumps the memo's own counters and the matching metric. The
//! caller that computes a key counts the miss and every other caller
//! counts a hit, so misses equal the number of distinct keys requested
//! at any thread count. With the memo disabled ([`Memo::set_enabled`],
//! or [`set_all_enabled`] for every process memo at once) every request
//! computes afresh and counts a bypass.
//!
//! ## Determinism contract
//!
//! A memoized computation must be a pure function of its key. A hit then
//! returns exactly what a fresh computation would, so disabling a memo
//! changes *work*, never *results*.

use msc_obs::metrics;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The metric names a memo counts its requests under.
#[derive(Clone, Copy, Debug)]
pub struct Counters {
    /// Requests served from a resident value (e.g. `"tracecache.hit"`).
    pub hit: &'static str,
    /// Requests that computed and kept a value.
    pub miss: &'static str,
    /// Requests that computed with the memo disabled.
    pub bypass: &'static str,
}

/// Memo effectiveness counters (process lifetime, or since the memo was
/// built).
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoStats {
    /// Requests served from a resident value.
    pub hits: u64,
    /// Requests that computed and kept a value.
    pub misses: u64,
    /// Requests that computed with the memo disabled.
    pub bypasses: u64,
    /// Values currently resident.
    pub len: u64,
}

/// What one request amounted to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Hit,
    Miss,
    Bypass,
}

/// A single-flight memo from `K` to `V` with an enabled switch and
/// hit/miss/bypass counters. See the module docs.
pub struct Memo<K, V> {
    counters: Counters,
    enabled: AtomicBool,
    slots: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty, enabled memo counting under `counters`.
    pub fn new(counters: Counters) -> Self {
        Memo {
            counters,
            enabled: AtomicBool::new(true),
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<K, Arc<OnceLock<V>>>> {
        // Computations run under their key's OnceLock, never under the
        // map lock, so only a panic inside a map operation can poison it.
        self.slots.lock().expect("memo map lock poisoned by a panicked map operation")
    }

    /// The one counter hook: bumps the memo's own counter and the
    /// matching metric under `label`.
    fn count(&self, outcome: Outcome, label: &'static str) {
        let (counter, name) = match outcome {
            Outcome::Hit => (&self.hits, self.counters.hit),
            Outcome::Miss => (&self.misses, self.counters.miss),
            Outcome::Bypass => (&self.bypasses, self.counters.bypass),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add(name, label, "", 1);
    }

    /// The value for `key`: shared when resident, computed by `compute`
    /// (exactly once across concurrent callers) and kept when not, or
    /// computed afresh when the memo is disabled. `label` is the
    /// protocol-or-layer label the request's metric counter carries.
    pub fn get_or_compute(&self, key: K, label: &'static str, compute: impl FnOnce() -> V) -> V {
        if !self.enabled() {
            self.count(Outcome::Bypass, label);
            return compute();
        }
        let slot = {
            let mut slots = self.lock();
            let slot = slots.entry(key).or_default();
            // A resident value is cloned under the map lock, sparing the
            // hit path the slot's reference count.
            if let Some(value) = slot.get().cloned() {
                drop(slots);
                self.count(Outcome::Hit, label);
                return value;
            }
            Arc::clone(slot)
        };
        let mut computed = false;
        let value = slot
            .get_or_init(|| {
                computed = true;
                compute()
            })
            .clone();
        self.count(if computed { Outcome::Miss } else { Outcome::Hit }, label);
        value
    }

    /// Enables or disables the memo. Either way every resident value is
    /// dropped, so a re-enable starts cold.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
        self.lock().clear();
    }

    /// Whether the memo is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Number of values currently resident.
    pub fn len(&self) -> usize {
        self.lock().values().filter(|slot| slot.get().is_some()).count()
    }

    /// Whether no value is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            len: self.len() as u64,
        }
    }
}

/// Enables or disables every process memo — the analog trace memo and
/// the fleet link table (`paper --no-memo`).
/// Either way every resident value is dropped, so a re-enable starts
/// cold. Reports are identical either way; only the work changes.
pub fn set_all_enabled(enabled: bool) {
    crate::tracecache::TRACES.set_enabled(enabled);
    crate::experiments::fleet::LINK_TABLES.set_enabled(enabled);
}

/// Every process memo's counters under its metric prefix. The trace
/// memo counts *analog* sets: each hit was digitized for its own ADC.
pub fn all_stats() -> [(&'static str, MemoStats); 2] {
    [
        ("tracecache", crate::tracecache::TRACES.stats()),
        ("linkcache", crate::experiments::fleet::LINK_TABLES.stats()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    const TEST: Counters =
        Counters { hit: "memo.test.hit", miss: "memo.test.miss", bypass: "memo.test.bypass" };

    fn counts(memo: &Memo<u64, Arc<u64>>) -> (u64, u64, u64) {
        let s = memo.stats();
        (s.hits, s.misses, s.bypasses)
    }

    #[test]
    fn concurrent_requests_for_one_key_compute_once() {
        let memo: Memo<u64, Arc<u64>> = Memo::new(TEST);
        let computed = AtomicUsize::new(0);
        let arrived = AtomicUsize::new(0);
        let got: Vec<Arc<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        memo.get_or_compute(7, "", || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Finish only once every caller has started its
                            // request, so the requests overlap the compute.
                            while arrived.load(Ordering::SeqCst) < 8 {
                                std::thread::yield_now();
                            }
                            Arc::new(49)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "the compute must run once");
        assert_eq!(counts(&memo), (7, 1, 0), "one miss, seven hits");
        assert!(got.iter().all(|v| Arc::ptr_eq(v, &got[0])), "every caller shares the value");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn distinct_keys_miss_and_disabling_bypasses_and_clears() {
        let memo: Memo<u64, Arc<u64>> = Memo::new(TEST);
        for k in [1, 2, 1, 3, 2] {
            assert_eq!(*memo.get_or_compute(k, "", || Arc::new(k * 10)), k * 10);
        }
        assert_eq!(counts(&memo), (2, 3, 0));
        assert_eq!(memo.len(), 3);
        memo.set_enabled(false);
        assert!(memo.is_empty(), "disabling drops every value");
        assert_eq!(*memo.get_or_compute(1, "", || Arc::new(11)), 11);
        assert_eq!(counts(&memo), (2, 3, 1));
        assert!(memo.is_empty(), "a bypass keeps nothing");
        memo.set_enabled(true);
        assert_eq!(*memo.get_or_compute(1, "", || Arc::new(12)), 12, "re-enable starts cold");
        assert_eq!(counts(&memo), (2, 4, 1));
    }

    #[test]
    fn a_panicking_compute_leaves_the_key_computable() {
        let memo: Memo<u64, Arc<u64>> = Memo::new(TEST);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute(5, "", || panic!("boom"))
        }));
        assert!(caught.is_err());
        assert_eq!(*memo.get_or_compute(5, "", || Arc::new(5)), 5);
        assert_eq!(counts(&memo), (0, 1, 0));
    }
}
