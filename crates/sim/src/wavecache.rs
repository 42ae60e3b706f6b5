//! Per-cell excitation waveform cache.
//!
//! Every Monte-Carlo trial of an experiment cell shares the same clean
//! overlay carrier: the productive payload is drawn once per cell from
//! its own RNG stream (`derive_seed(seed, cell, u64::MAX)` — disjoint
//! from every per-trial stream), and the synthesized waveform is stored
//! behind an [`Arc`] in a process-global [`Memo`] keyed by everything that
//! determines the synthesis output (protocol, overlay parameters,
//! payload, link variant). Per-trial randomness — tag bits, fading,
//! noise, CFO — is applied downstream onto reused buffers, never onto
//! the shared excitation.
//!
//! ## Determinism contract
//!
//! Carrier synthesis is a pure function of the cache key, so a cache
//! hit returns a waveform bit-identical to what a fresh synthesis would
//! produce. Disabling the cache ([`set_waveform_cache`]) therefore
//! changes *work*, never *results*: reports are byte-identical with the
//! cache on or off, at any thread count.

use crate::memo::{Counters, Memo, MemoStats};
use crate::pipeline::AnyLink;
use msc_core::overlay::Mode;
use msc_core::tag::payload_start_seconds;
use msc_dsp::IqBuf;
use msc_obs::metrics;
use msc_phy::protocol::Protocol;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, LazyLock};

/// Everything that determines a synthesized overlay carrier.
#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    protocol: Protocol,
    kappa: usize,
    gamma: usize,
    variant: u64,
    payload: Vec<u8>,
}

/// The process's waveform memo. Its counters are always on
/// (independent of the metrics registry), so `paper --profile` can
/// surface cache effectiveness without `--metrics-out`.
static WAVES: LazyLock<Memo<CacheKey, Arc<IqBuf>>> = LazyLock::new(|| {
    Memo::new(Counters { hit: "wavecache.hit", miss: "wavecache.miss", bypass: "wavecache.bypass" })
});

/// Reads the cache counters (process lifetime).
pub fn stats() -> MemoStats {
    WAVES.stats()
}

/// Enables or disables the global waveform cache (`paper
/// --no-wave-cache`). Disabling also drops every cached waveform, so a
/// re-enable starts cold. Results are identical either way; only the
/// synthesis work changes.
pub fn set_waveform_cache(enabled: bool) {
    WAVES.set_enabled(enabled);
}

/// Whether the waveform cache is currently enabled.
pub fn waveform_cache_enabled() -> bool {
    WAVES.enabled()
}

/// Number of waveforms currently cached.
pub fn waveform_cache_len() -> usize {
    WAVES.len()
}

/// One experiment cell's shared excitation: the per-cell payload and
/// its clean carrier, synthesized (or fetched) exactly once and shared
/// read-only across all trials and worker threads.
pub struct CellExcitation {
    /// The protocol this excitation runs.
    pub protocol: Protocol,
    /// The cell's productive payload units (bits; 4-bit symbols for
    /// ZigBee), drawn once from the cell's payload RNG stream.
    pub productive: Vec<u8>,
    /// Tag bits one carrier of this payload can carry.
    pub tag_capacity: usize,
    /// Sample index where the payload (tag-modulatable) region starts.
    pub payload_start: usize,
    /// The clean overlay carrier, shared read-only.
    pub carrier: Arc<IqBuf>,
}

impl CellExcitation {
    /// Draws the cell payload from `(seed, cell, u64::MAX)` and returns
    /// the cell's shared carrier — from the cache when enabled, freshly
    /// synthesized otherwise.
    pub fn prepare(
        link: &AnyLink,
        _mode: Mode,
        n_productive: usize,
        seed: u64,
        cell: &str,
    ) -> Self {
        let cellh = msc_par::hash_label(cell);
        let mut rng = StdRng::seed_from_u64(msc_par::derive_seed(seed, cellh, u64::MAX));
        let productive = link.draw_productive(&mut rng, n_productive);
        let protocol = link.protocol();
        let label = protocol.label();
        let params = link.params();
        let key = CacheKey {
            protocol,
            kappa: params.kappa,
            gamma: params.gamma,
            variant: link.variant_salt(),
            payload: productive.clone(),
        };

        let carrier = WAVES.get_or_compute(key, label, || {
            Arc::new(metrics::time_stage(label, "carrier", || link.carrier_for(&productive)))
        });

        let payload_start =
            (payload_start_seconds(protocol) * carrier.rate().as_hz()).round() as usize;
        CellExcitation {
            protocol,
            tag_capacity: link.tag_capacity(n_productive),
            payload_start,
            productive,
            carrier,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::overlay::Mode;

    #[test]
    fn cache_returns_shared_waveform_and_bypass_matches() {
        let link = AnyLink::new(Protocol::Ble, Mode::Mode1);
        set_waveform_cache(true);
        let a = CellExcitation::prepare(&link, Mode::Mode1, 8, 42, "wc-test/cell");
        let b = CellExcitation::prepare(&link, Mode::Mode1, 8, 42, "wc-test/cell");
        assert!(Arc::ptr_eq(&a.carrier, &b.carrier), "second prepare must hit the cache");
        assert_eq!(a.productive, b.productive);

        set_waveform_cache(false);
        let c = CellExcitation::prepare(&link, Mode::Mode1, 8, 42, "wc-test/cell");
        assert!(!Arc::ptr_eq(&a.carrier, &c.carrier));
        assert_eq!(a.carrier.samples(), c.carrier.samples(), "bypass must be bit-identical");
        assert_eq!(a.productive, c.productive);
        set_waveform_cache(true);
    }

    #[test]
    fn distinct_cells_get_distinct_payloads() {
        let link = AnyLink::new(Protocol::WifiB, Mode::Mode1);
        let a = CellExcitation::prepare(&link, Mode::Mode1, 16, 42, "wc-test/cell-a");
        let b = CellExcitation::prepare(&link, Mode::Mode1, 16, 42, "wc-test/cell-b");
        assert_ne!(a.productive, b.productive, "payload streams must be disjoint across cells");
    }
}
