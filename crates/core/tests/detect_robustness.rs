//! Panic-freedom of the identification front door: whatever samples
//! arrive — empty, one to three samples, all zero, NaN- or ±∞-laced, or
//! any length — `percentile` returns a number (NaN for empty or NaN
//! input), and `detect_start` and `Matcher::score_acquired` return
//! `Some` or `None`, never panic.

use msc_core::envelope::FrontEnd;
use msc_core::templates::detect_start;
use msc_core::{MatchMode, Matcher, TemplateBank, TemplateConfig};
use msc_dsp::stats::percentile;
use msc_dsp::SampleRate;
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn detection_and_scoring_never_panic(
        len in 0usize..=1200,
        base in prop::collection::vec(-0.2f64..0.6, 1..48),
        all_zero in any::<bool>(),
        laced in prop::collection::vec(
            (any::<prop::sample::Index>(), prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(-0.0), Just(0.0)]),
            0..6,
        ),
    ) {
        let mut trace: Vec<f64> =
            (0..len).map(|k| if all_zero { 0.0 } else { base[k % base.len()] }).collect();
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
