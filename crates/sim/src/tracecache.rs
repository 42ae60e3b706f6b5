//! Shared identification analog-trace memo.
//!
//! The identification experiments (Figs. 5–8, abl-bits, abl-lag) score
//! labeled traces at the "hard" operating point
//! ([`crate::idtraces::generate_traces_hard`]), at one or two seeds and
//! several ADC rates. Most of a trace's cost — packet modulation,
//! FM-to-AM envelope, rectifier ripple and analog noise — does not
//! depend on the ADC, so this module memoizes the *analog* set
//! ([`idtraces::AnalogTrace`]: the rectifier output at the packet's RF
//! rate, smaller than a 20 Msps acquired set). A runner asks for a set
//! once per seed and hands it to [`crate::idtraces::score_traces`],
//! which digitizes each trace once per ADC configuration in the worker
//! that scores it. `abl_slope` asks for nothing here: it acquires each
//! trace once for its five front ends ([`crate::idtraces::trace_sweep`]).
//!
//! ## Key
//!
//! Everything that determines an analog set: every front-end field the
//! analog stage reads (rectifier, `fm_slope`, `noise_v`, band filter —
//! not the ADC's rate, bits or reference, so all ADC configurations of
//! one front end share an entry), the per-protocol count, the
//! incident-power range, the jitter bound, and the base seed.
//!
//! ## Determinism contract
//!
//! Trace `i` draws its packet, incident power, ripple, noise and jitter
//! from `derive_seed(seed, hash_label("idtraces"), i)`, in that order,
//! and the ADC draws nothing — so the analog buffer, truth and jitter
//! are the same at every ADC configuration, and digitizing a memoized
//! analog trace is bit-identical to a fresh generation. Disabling the
//! memo (`paper --no-memo`, [`crate::memo::set_all_enabled`]) changes
//! *work*, never *results*: reports are byte-identical with it on or
//! off, at any thread count (asserted by `tests/thread_determinism.rs`).

use crate::idtraces::{self, AnalogTrace};
use crate::memo::{Counters, Memo};
use msc_core::envelope::FrontEnd;
use std::ops::Range;
use std::sync::{Arc, LazyLock};

/// FNV-1a over every front-end field the analog stage reads, bit
/// patterns included, so any such tweak (including float edits far below
/// display precision) gets its own entry. The ADC fields are left out on
/// purpose: [`FrontEnd::analog`] never reads them.
fn analog_fingerprint(fe: &FrontEnd) -> u64 {
    use msc_analog::rectifier::RectifierKind;
    let words = [
        match fe.rectifier.kind {
            RectifierKind::Basic => 0u64,
            RectifierKind::Clamp => 1,
            RectifierKind::Wisp => 2,
        },
        fe.rectifier.v_on.to_bits(),
        fe.rectifier.v_clamp.to_bits(),
        fe.rectifier.tau.to_bits(),
        fe.rectifier.tau_charge.to_bits(),
        fe.rectifier.f_carrier.to_bits(),
        fe.fm_slope.to_bits(),
        fe.noise_v.to_bits(),
        fe.band_filter_hz.is_some() as u64,
        fe.band_filter_hz.unwrap_or(0.0).to_bits(),
    ];
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    msc_obs::archive::fnv1a(&bytes)
}

/// Everything that determines an analog trace set.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    fe_fingerprint: u64,
    n_per_protocol: usize,
    seed: u64,
    incident_lo: u64,
    incident_hi: u64,
    max_jitter: isize,
}

type AnalogSet = Arc<Vec<AnalogTrace>>;

/// The analog-set memo type. The process has one ([`TRACES`]); tests
/// build private ones so their counts are exact.
type TraceMemo = Memo<CacheKey, AnalogSet>;

fn new_memo() -> TraceMemo {
    Memo::new(Counters {
        hit: "tracecache.hit",
        miss: "tracecache.miss",
        bypass: "tracecache.bypass",
    })
}

/// The process's analog-set memo. Its counters count *analog* sets: a
/// hit is a request served a resident analog set, a miss generated and
/// kept one, a bypass generated one for its request alone
/// with the memo off, and `len` is the number of analog sets resident.
pub(crate) static TRACES: LazyLock<TraceMemo> = LazyLock::new(new_memo);

/// The analog set for a request: shared on a hit, generated (and kept)
/// on a miss.
fn analog_set(
    memo: &TraceMemo,
    front_end: &FrontEnd,
    n_per_protocol: usize,
    seed: u64,
    incident_dbm: Range<f64>,
    max_jitter: isize,
) -> AnalogSet {
    let key = CacheKey {
        fe_fingerprint: analog_fingerprint(front_end),
        n_per_protocol,
        seed,
        incident_lo: incident_dbm.start.to_bits(),
        incident_hi: incident_dbm.end.to_bits(),
        max_jitter,
    };
    memo.get_or_compute(key, "id", || {
        Arc::new(idtraces::generate_analog_at(
            front_end,
            n_per_protocol,
            seed,
            incident_dbm,
            max_jitter,
        ))
    })
}

/// The analog set at the "hard" operating point through the memo:
/// shared on a hit, generated (and kept) on a miss, generated for this
/// request alone with the memo off. Every ADC configuration of
/// `front_end` gets the same set.
pub fn traces_hard(
    front_end: &FrontEnd,
    n_per_protocol: usize,
    seed: u64,
) -> Arc<Vec<AnalogTrace>> {
    analog_set(
        &TRACES,
        front_end,
        n_per_protocol,
        seed,
        idtraces::HARD_INCIDENT_DBM,
        idtraces::HARD_MAX_JITTER,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idtraces::Trace;
    use msc_analog::Adc;
    use msc_dsp::SampleRate;

    const RATES: [SampleRate; 4] =
        [SampleRate::ADC_FULL, SampleRate::ADC_HALF, SampleRate::ADC_LOW, SampleRate::ADC_FLOOR];

    fn assert_same_traces(a: &[Trace], b: &[Trace]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.truth, y.truth);
            assert_eq!(x.jitter, y.jitter);
            assert_eq!(x.acquired.len(), y.acquired.len());
            for (u, v) in x.acquired.iter().zip(&y.acquired) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    /// A hard-point request through `memo`, digitized trace by trace
    /// through `fe`'s ADC.
    fn hard(memo: &TraceMemo, fe: &FrontEnd, n: usize, seed: u64) -> Vec<Trace> {
        let set =
            analog_set(memo, fe, n, seed, idtraces::HARD_INCIDENT_DBM, idtraces::HARD_MAX_JITTER);
        set.iter().map(|a| idtraces::digitize_trace(fe, a)).collect()
    }

    fn counts(memo: &TraceMemo) -> (u64, u64, u64) {
        let s = memo.stats();
        (s.hits, s.misses, s.bypasses)
    }

    #[test]
    fn hit_shares_the_arc_and_bypass_is_bit_identical() {
        let memo = new_memo();
        let fe = idtraces::front_end(SampleRate::ADC_LOW);
        let r = idtraces::HARD_INCIDENT_DBM;
        let a = analog_set(&memo, &fe, 2, 4242, r.clone(), idtraces::HARD_MAX_JITTER);
        let b = analog_set(&memo, &fe, 2, 4242, r, idtraces::HARD_MAX_JITTER);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(counts(&memo), (1, 1, 0), "second fetch must hit the memo");

        let cached = hard(&memo, &fe, 2, 4242);
        assert_eq!(counts(&memo), (2, 1, 0));
        memo.set_enabled(false);
        assert_eq!(memo.stats().len, 0, "disabling drops every set");
        let bypassed = hard(&memo, &fe, 2, 4242);
        assert_eq!(counts(&memo), (2, 1, 1));
        assert_same_traces(&cached, &bypassed);
    }

    #[test]
    fn memo_served_sets_match_fresh_generation_at_every_rate() {
        let memo = new_memo();
        for rate in RATES {
            let fe = idtraces::front_end(rate);
            let want = idtraces::generate_traces_hard(&fe, 2, 91);
            assert_same_traces(&hard(&memo, &fe, 2, 91), &want);
        }
        assert_eq!(counts(&memo), (3, 1, 0), "four rates of one seed: one miss, three hits");
        assert_eq!(memo.stats().len, 1);
    }

    #[test]
    fn front_end_mutation_misses_the_cache() {
        let memo = new_memo();
        let fe = idtraces::front_end(SampleRate::ADC_FULL);
        hard(&memo, &fe, 1, 77);
        // Edits to fields the analog stage reads, at a fixed ADC rate.
        let analog_edits = [
            FrontEnd { fm_slope: fe.fm_slope + 0.25, ..fe.clone() },
            fe.clone().with_band_filter(2e6),
            FrontEnd { noise_v: fe.noise_v * 2.0, ..fe.clone() },
        ];
        for (k, edited) in analog_edits.iter().enumerate() {
            assert_ne!(analog_fingerprint(edited), analog_fingerprint(&fe));
            hard(&memo, edited, 1, 77);
            assert_eq!(counts(&memo), (0, 2 + k as u64, 0), "analog edit {k} must miss");
        }
    }

    #[test]
    fn adc_changes_hit_the_cache() {
        let memo = new_memo();
        let fe = idtraces::front_end(SampleRate::ADC_FULL);
        hard(&memo, &fe, 1, 78);
        let adc_edits = [
            FrontEnd { adc: Adc { bits: 4, ..fe.adc }, ..fe.clone() },
            FrontEnd { adc: Adc { v_ref: 0.5, ..fe.adc }, ..fe.clone() },
            idtraces::front_end(SampleRate::ADC_LOW),
        ];
        for (k, edited) in adc_edits.iter().enumerate() {
            assert_eq!(analog_fingerprint(edited), analog_fingerprint(&fe));
            let got = hard(&memo, edited, 1, 78);
            assert_eq!(counts(&memo), (1 + k as u64, 1, 0), "ADC edit {k} must hit");
            assert_same_traces(&got, &idtraces::generate_traces_hard(edited, 1, 78));
        }
    }

    #[test]
    fn distinct_ranges_seeds_and_counts_key_apart() {
        let memo = new_memo();
        let fe = idtraces::front_end(SampleRate::ADC_LOW);
        for (n, seed, range, jitter) in [
            (1, 9, -9.0..-4.0, 2),
            (1, 10, -9.0..-4.0, 2),
            (2, 9, -9.0..-4.0, 2),
            (1, 9, -9.5..-4.0, 2),
            (1, 9, -9.0..-4.0, 3),
        ] {
            analog_set(&memo, &fe, n, seed, range, jitter);
        }
        assert_eq!(counts(&memo), (0, 5, 0));
    }

    #[test]
    fn identification_reports_identical_with_memo_on_and_off() {
        // fig5 (20 Msps) and fig8 (2.5 and 1 Msps) read one analog set
        // at seed 31 — the cross-runner sharing a one-runner process
        // never exercises. n = 16 is fig8's floor, so both runners ask
        // for the same count. fig8 asks once per seed: its seed-31
        // request hits fig5's set, its seed-31^0xa7a7 request misses.
        let fig5 = || crate::experiments::fig05::run(16, 31).to_json();
        let fig8 = || crate::experiments::fig08::run(16, 31).to_json();
        let on_5 = fig5();
        let before = TRACES.stats().hits;
        let on_8 = fig8();
        assert!(TRACES.stats().hits > before, "fig8 must reuse fig5's analog set");
        TRACES.set_enabled(false);
        let off = (fig5(), fig8());
        TRACES.set_enabled(true);
        assert_eq!((on_5, on_8), off);
    }
}
