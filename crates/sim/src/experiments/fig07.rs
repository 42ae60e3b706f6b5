//! Fig. 7 — blind vs ordered matching at 10 Msps with 1-bit
//! quantization. Paper: average accuracy 0.906 (blind) → 0.976 (ordered).

use crate::idtraces::{front_end, score_traces};
use crate::report::{pct, Report};
use crate::tracecache::traces_hard;
use msc_core::search::{
    blind_accuracy, default_grid, per_protocol_accuracy, search_ordered_rule, IdCell,
};
use msc_core::{MatchMode, Matcher, OrderedRule, TemplateBank, TemplateConfig};
use msc_dsp::SampleRate;
use msc_phy::protocol::Protocol;

/// Runs with `n` packets per protocol: half train the threshold search,
/// half evaluate.
pub fn run(n: usize, seed: u64) -> Report {
    let n = n.max(16);
    let rate = SampleRate::ADC_HALF;
    let fe = front_end(rate);
    let bank = TemplateBank::build(&fe, TemplateConfig::standard(rate));
    let matcher = Matcher::new(bank, MatchMode::Quantized);

    // The flight-recorder seed is the runner's *base* seed in both
    // batches (replay re-runs this runner, which re-derives ^0x5a5a).
    let batches =
        [("train", seed), ("test", seed ^ 0x5a5a)].map(|(label, s)| (IdCell::new(label, seed), s));
    let [train, test] = batches.map(|(cell, set_seed)| {
        let set = traces_hard(&fe, n, set_seed);
        let mut scored =
            score_traces(set.len(), |i| &set[i..=i], &[(&fe, vec![(&matcher, &cell)])]);
        cell.finish(scored.remove(0))
    });

    let searched = search_ordered_rule(&train, &default_grid());
    let blind_rule = OrderedRule { steps: vec![] };

    let mut report = Report::new(
        "fig7 — blind vs ordered matching (10 Msps, ±1 quantized)",
        &["scheme", "avg acc", "802.11n", "802.11b", "BLE", "ZigBee"],
    );
    for (label, rule) in [("blind", &blind_rule), ("ordered", &searched.rule)] {
        let per = per_protocol_accuracy(rule, &test);
        let avg =
            if label == "blind" { blind_accuracy(&test) } else { per.iter().sum::<f64>() / 4.0 };
        let stage = if label == "blind" { "blind" } else { "ordered" };
        for (i, p) in Protocol::ALL.iter().enumerate() {
            msc_obs::metrics::gauge_set("id.accuracy", p.label(), stage, per[i]);
        }
        msc_obs::metrics::gauge_set("id.accuracy_avg", "", stage, avg);
        report.keyed_row(
            format!("fig7/{stage}"),
            &[label.into(), pct(avg), pct(per[0]), pct(per[1]), pct(per[2]), pct(per[3])],
        );
        let total = test.len() as u64;
        report.stat("id_err", ((1.0 - avg) * total as f64).round() as u64, total);
    }
    report.note("Paper Fig. 7b: blind 0.906 → ordered 0.976 average accuracy.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_is_at_least_as_good_as_blind() {
        let r = run(16, 42);
        let rendered = r.render();
        let grab = |prefix: &str| -> f64 {
            rendered
                .lines()
                .find(|l| l.trim_start().starts_with(prefix))
                .unwrap()
                .split_whitespace()
                .nth(1)
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        let blind = grab("blind");
        let ordered = grab("ordered");
        assert!(
            ordered >= blind - 3.0,
            "ordered {ordered}% must not lose to blind {blind}% beyond noise"
        );
    }
}
