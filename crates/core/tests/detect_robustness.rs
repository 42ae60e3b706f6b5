//! Panic-freedom of the identification front door: whatever samples
//! arrive — empty, one to three samples, all zero, NaN- or ±∞-laced, or
//! any length, with or without a real packet envelope — `percentile`
//! returns a number (NaN for empty or NaN input), `detect_start` and
//! `Matcher::score_acquired` return `Some` or `None`, and a
//! `StreamingMatcher` at the trace's ADC rate or at the wrong one
//! consumes every sample, never panic.

use msc_core::envelope::FrontEnd;
use msc_core::templates::{canonical_waveform, detect_start};
use msc_core::{MatchMode, Matcher, OrderedRule, StreamingMatcher, TemplateBank, TemplateConfig};
use msc_dsp::stats::percentile;
use msc_dsp::SampleRate;
use msc_phy::protocol::Protocol;
use proptest::prelude::*;
use std::sync::OnceLock;

fn matchers() -> &'static [Matcher; 2] {
    static M: OnceLock<[Matcher; 2]> = OnceLock::new();
    M.get_or_init(|| {
        let rate = SampleRate::ADC_HALF;
        let bank = TemplateBank::build(&FrontEnd::prototype(rate), TemplateConfig::standard(rate));
        [
            Matcher::new(bank.clone(), MatchMode::Quantized),
            Matcher::new(bank, MatchMode::FullPrecision),
        ]
    })
}

/// Streaming matchers at the traces' 10 Msps and at 2.5 Msps, fresh
/// (cloned before each stream).
fn streamers() -> &'static [StreamingMatcher; 2] {
    static S: OnceLock<[StreamingMatcher; 2]> = OnceLock::new();
    S.get_or_init(|| {
        let low = SampleRate::ADC_LOW;
        let bank = TemplateBank::build(&FrontEnd::prototype(low), TemplateConfig::extended(low));
        [
            StreamingMatcher::new(matchers()[0].clone(), OrderedRule::paper_default()),
            StreamingMatcher::new(
                Matcher::new(bank, MatchMode::Quantized),
                OrderedRule::paper_default(),
            ),
        ]
    })
}

/// One noise-free 10 Msps acquisition per protocol.
fn frames() -> &'static [Vec<f64>; 4] {
    static F: OnceLock<[Vec<f64>; 4]> = OnceLock::new();
    F.get_or_init(|| {
        let fe = FrontEnd::prototype(SampleRate::ADC_HALF);
        Protocol::ALL.map(|p| fe.acquire_clean(&canonical_waveform(p), -6.0))
    })
}

/// Runs every entry point on `trace`; returning is the property.
fn exercise(trace: &[f64]) {
    for p in [0.0, 37.5, 90.0, 100.0] {
        let level = percentile(trace, p);
        if trace.is_empty() || trace.iter().any(|x| x.is_nan()) {
            assert!(level.is_nan(), "percentile {p} of {trace:?} must be NaN, got {level}");
        }
    }
    let start = detect_start(trace);
    if trace.iter().any(|x| x.is_nan()) {
        assert_eq!(start, None, "a NaN sample leaves no detection level");
    }
    if let Some(s) = start {
        assert!(s < trace.len());
    }
    for m in matchers() {
        for jitter in [-3, 0, 3] {
            let _ = m.score_acquired(trace, jitter);
        }
    }
    for s in streamers() {
        let mut s = s.clone();
        for d in s.feed(trace) {
            assert!(d.at < trace.len());
        }
        assert_eq!(s.consumed(), trace.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn detection_and_scoring_never_panic(
        len in 0usize..=1200,
        base in prop::collection::vec(-0.2f64..0.6, 1..48),
        all_zero in any::<bool>(),
        // 0..4 splices that protocol's real envelope in at `at`; 4 none.
        frame in 0usize..5,
        at in 0usize..300,
        laced in prop::collection::vec(
            (any::<prop::sample::Index>(), prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(-0.0), Just(0.0)]),
            0..6,
        ),
    ) {
        let mut trace: Vec<f64> =
            (0..len).map(|k| if all_zero { 0.0 } else { base[k % base.len()] }).collect();
        if let Some(f) = frames().get(frame) {
            let at = at.min(trace.len());
            trace.splice(at..at, f.iter().copied());
        }
        if !trace.is_empty() {
            for (at, bad) in &laced {
                let k = at.index(trace.len());
                trace[k] = *bad;
            }
        }
        exercise(&trace);
    }
}

#[test]
fn degenerate_traces_never_panic() {
    let specials = [0.0, -0.0, 1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    exercise(&[]);
    for a in specials {
        exercise(&[a]);
        for b in specials {
            exercise(&[a, b]);
            for c in specials {
                exercise(&[a, b, c]);
            }
        }
    }
    exercise(&[0.0; 4]);
    exercise(&[0.0; 900]);
    let mut nan_late = vec![0.3; 900];
    nan_late[899] = f64::NAN;
    exercise(&nan_late);
}
