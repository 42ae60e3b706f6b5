//! Fig. 8 — low-rate identification and the 40 µs window extension:
//! (a) 2.5 Msps with the 8 µs window collapses (paper: 0.485 average);
//! (b) extending to 40 µs recovers it (0.93);
//! (c) 1 Msps stays unusable (~0.5).

use crate::idtraces::{front_end, score_traces};
use crate::report::{pct, Report};
use crate::tracecache::traces_hard;
use msc_core::search::{default_grid, per_protocol_accuracy, search_ordered_rule, IdCell};
use msc_core::{MatchMode, Matcher, TemplateBank, TemplateConfig};
use msc_dsp::SampleRate;

/// Runs with `n` packets per protocol (half train / half test).
pub fn run(n: usize, seed: u64) -> Report {
    let n = n.max(16);
    let mut report = Report::new(
        "fig8 — sampling rate vs window extension (±1 quantized, ordered matching)",
        &["rate", "window", "avg acc", "802.11n", "802.11b", "BLE", "ZigBee"],
    );

    let (low, floor) = (SampleRate::ADC_LOW, SampleRate::ADC_FLOOR);
    let rows = [
        ("2.5 Msps", "8 µs", TemplateConfig::standard(low), "2.5-std"),
        ("2.5 Msps", "40 µs", TemplateConfig::extended(low), "2.5-ext"),
        ("1 Msps", "40 µs", TemplateConfig::extended(floor), "1-ext"),
    ];
    let fes = [front_end(low), front_end(floor)];
    let matchers = rows.map(|(.., cfg, _)| {
        Matcher::new(TemplateBank::build(&front_end(cfg.adc_rate), cfg), MatchMode::Quantized)
    });
    // Flight records carry the runner's base seed (replay re-derives
    // the ^0xa7a7 test stream itself).
    let cells = rows.map(|(.., slug)| {
        ["train", "test"].map(|half| IdCell::new(&format!("{slug}/{half}"), seed))
    });
    // One analog set per seed serves all three rows: each trace is
    // digitized once at 2.5 Msps for both of its rows (only the template
    // window differs) and once at 1 Msps.
    let [train, test] = [(seed, 0), (seed ^ 0xa7a7, 1)].map(|(set_seed, half)| {
        let set = traces_hard(&fes[0], n, set_seed);
        let scorers =
            |of: std::ops::Range<usize>| of.map(|r| (&matchers[r], &cells[r][half])).collect();
        let passes = [(&fes[0], scorers(0..2)), (&fes[1], scorers(2..3))];
        score_traces(set.len(), |i| &set[i..=i], &passes)
    });

    for ((((label, window, _, slug), [train_cell, test_cell]), train), test) in
        rows.into_iter().zip(cells).zip(train).zip(test)
    {
        let train = train_cell.finish(train);
        let test = test_cell.finish(test);
        let searched = search_ordered_rule(&train, &default_grid());
        let per = per_protocol_accuracy(&searched.rule, &test);
        let avg = per.iter().sum::<f64>() / 4.0;
        report.keyed_row(
            format!("fig8/{slug}"),
            &[
                label.into(),
                window.into(),
                pct(avg),
                pct(per[0]),
                pct(per[1]),
                pct(per[2]),
                pct(per[3]),
            ],
        );
        let total = test.len() as u64;
        report.stat("id_err", ((1.0 - avg) * total as f64).round() as u64, total);
    }
    report.note("Paper: 2.5 Msps short window 0.485 → extended 0.93; 1 Msps ≈ 0.5.");
    report.note("Our short-window accuracy exceeds the paper's because the searched thresholds + sliding correlator recover more than their fixed pipeline; the extension gain direction is preserved.");
    report.note("Extension is enabled by the BLE access address and 11n HT-STF/HT-LTF (§2.3.2).");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_rescues_low_rate() {
        let r = run(16, 42);
        let rendered = r.render();
        let accs: Vec<f64> = rendered
            .lines()
            .filter(|l| l.contains("Msps") && !l.trim_start().starts_with('*'))
            .map(|l| {
                l.split_whitespace()
                    .find(|tok| tok.ends_with('%'))
                    .unwrap()
                    .trim_end_matches('%')
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(accs.len(), 3);
        let (short, extended) = (accs[0], accs[1]);
        assert!(
            extended > short + 5.0,
            "40 µs window must improve 2.5 Msps: {short}% → {extended}%"
        );
        assert!(extended > 85.0, "extended accuracy {extended}%");
    }
}
