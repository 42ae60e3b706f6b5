//! Fig. 6 — the ordered-matching chain: per-protocol correlation-score
//! separation and the brute-force searched order + thresholds (§2.3.2).

use crate::idtraces::{front_end, score_traces};
use crate::report::{f3, Report};
use crate::tracecache::traces_hard;
use msc_core::search::{default_grid, search_ordered_rule, IdCell};
use msc_core::{MatchMode, Matcher, TemplateBank, TemplateConfig};
use msc_dsp::SampleRate;
use msc_phy::protocol::Protocol;

/// Runs the experiment with `n` packets per protocol.
pub fn run(n: usize, seed: u64) -> Report {
    let n = n.max(12);
    let rate = SampleRate::ADC_HALF; // the §2.3.2 operating point
    let fe = front_end(rate);
    let set = traces_hard(&fe, n, seed);
    let bank = TemplateBank::build(&fe, TemplateConfig::standard(rate));
    let matcher = Matcher::new(bank, MatchMode::Quantized);
    let cell = IdCell::new("hard", seed);
    let mut scored = score_traces(set.len(), |i| &set[i..=i], &[(&fe, vec![(&matcher, &cell)])]);
    let scores = cell.finish(scored.remove(0));

    let mut report = Report::new(
        "fig6 — score separation and searched ordered-matching chain (10 Msps, ±1 quantized)",
        &["truth", "own-template mean", "best foreign mean", "separation"],
    );
    for p in Protocol::ALL {
        let own: Vec<f64> =
            scores.iter().filter(|s| s.truth == p).map(|s| s.scores.get(p)).collect();
        let foreign: Vec<f64> = scores
            .iter()
            .filter(|s| s.truth == p)
            .map(|s| {
                Protocol::ALL
                    .iter()
                    .filter(|&&q| q != p)
                    .map(|&q| s.scores.get(q))
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let own_m = msc_dsp::stats::mean(&own);
        let for_m = msc_dsp::stats::mean(&foreign);
        report.row(&[p.label().into(), f3(own_m), f3(for_m), f3(own_m - for_m)]);
    }

    let result = search_ordered_rule(&scores, &default_grid());
    let chain: Vec<String> = result
        .rule
        .steps
        .iter()
        .map(|s| {
            if s.threshold.is_finite() {
                format!("{}>{:.2}", s.protocol.label(), s.threshold)
            } else {
                format!("{}(skip)", s.protocol.label())
            }
        })
        .collect();
    report.note(format!("searched chain: {}", chain.join(" → ")));
    report.note(format!(
        "accuracy: blind {:.3} → ordered {:.3} (paper Fig. 7: 0.906 → 0.976)",
        result.blind_accuracy, result.accuracy
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_separate_and_search_helps_or_matches() {
        let r = run(12, 42);
        assert_eq!(r.len(), 4);
        let rendered = r.render();
        assert!(rendered.contains("searched chain"));
    }
}
