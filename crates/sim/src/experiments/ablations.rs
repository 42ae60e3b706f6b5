//! Ablations of the design choices DESIGN.md calls out — the axes the
//! paper fixes by construction, swept here:
//!
//! * `abl-bits` — quantization width: 1-bit vs n-bit vs full precision,
//!   with accuracy, D-flip-flops, and power side by side (the §2.3.1
//!   tradeoff as a curve instead of two endpoints).
//! * `abl-gamma` — γ spreading for ZigBee tag data vs SNR (paper §2.4.2:
//!   γ = 3 reaches ~0.1% BER on their hardware).
//! * `abl-slope` — FM-to-AM front-end slope sensitivity: how much
//!   frequency selectivity the front end needs before BLE/ZigBee become
//!   identifiable at all.
//! * `abl-lag` — the matcher's lag-search radius (continuous-correlator
//!   modeling) vs accuracy.

use crate::idtraces::{digitize_trace, front_end, trace_sweep, HARD_INCIDENT_DBM, HARD_MAX_JITTER};
use crate::pipeline::{run_cells, tag_ber, tag_packet, AnyLink, CellSpec, Impairments};
use crate::report::{f1, pct, Report};
use crate::tracecache::traces_hard;
use msc_channel::Fading;
use msc_core::envelope::FrontEnd;
use msc_core::overlay::{params_for, Mode, OverlayParams, TagOverlayModulator};
use msc_core::resources::{Arithmetic, MatcherCost};
use msc_core::search::{blind_accuracy, collect_scores_labeled, IdCell};
use msc_core::{MatchMode, Matcher, TemplateBank, TemplateConfig};
use msc_dsp::SampleRate;
use msc_phy::protocol::Protocol;
use msc_rx::ZigBeeOverlayLink;

/// Quantization-width sweep: identification accuracy vs FPGA cost.
pub fn abl_bits(n: usize, seed: u64) -> Report {
    let n = n.max(12);
    let rate = SampleRate::ADC_HALF;
    let fe = front_end(rate);
    let bank = TemplateBank::build(&fe, TemplateConfig::standard(rate));
    let traces = traces_hard(&fe, n, seed);

    let mut report = Report::new(
        "abl-bits — quantization width vs accuracy and FPGA cost (10 Msps)",
        &["arithmetic", "avg acc", "D-flip-flops", "fits AGLN250", "power mW @10MS/s"],
    );
    let rows: Vec<(String, MatchMode, Arithmetic)> = vec![
        ("1-bit (paper)".into(), MatchMode::Quantized, Arithmetic::Quantized),
        ("2-bit".into(), MatchMode::MultiBit(2), Arithmetic::MultiBit(2)),
        ("4-bit".into(), MatchMode::MultiBit(4), Arithmetic::MultiBit(4)),
        ("6-bit".into(), MatchMode::MultiBit(6), Arithmetic::MultiBit(6)),
        ("full (9-bit float)".into(), MatchMode::FullPrecision, Arithmetic::FullPrecision),
    ];
    for (ri, (label, mode, arith)) in rows.into_iter().enumerate() {
        let matcher = Matcher::new(bank.clone(), mode);
        let acc =
            blind_accuracy(&collect_scores_labeled(&matcher, &traces, &format!("bits{ri}"), seed));
        let cost = MatcherCost::table2(arith);
        report.row(&[
            label,
            pct(acc),
            cost.dffs().to_string(),
            cost.fits_agln250().to_string(),
            f1(cost.power_mw(10e6)),
        ]);
    }
    report.note("The paper's 1-bit point is the only one that fits the AGLN250's 6,144 DFFs; accuracy saturates well before full precision — the quantization choice is nearly free.");
    report
}

/// γ spreading for ZigBee overlay tag data vs uplink SNR.
pub fn abl_gamma(n: usize, seed: u64) -> Report {
    let n = n.max(8);
    let mut report = Report::new(
        "abl-gamma — ZigBee tag BER vs γ spreading (paper §2.4.2: γ≥2; γ=3 → ~0.1% on hardware)",
        &["γ", "SNR 6 dB", "SNR 2 dB", "SNR -2 dB", "tag bits/packet"],
    );
    let n_prod = 12;
    let links = [2usize, 4, 6].map(|gamma| {
        let params = OverlayParams::new(2 * gamma, gamma);
        let tag = TagOverlayModulator::new(Protocol::ZigBee, params);
        (gamma, AnyLink::ZigBee(Box::new(ZigBeeOverlayLink::new(params))), tag)
    });
    let snrs = [6.0, 2.0, -2.0];
    let cells: Vec<_> = links
        .iter()
        .flat_map(|(gamma, link, tag)| {
            snrs.map(|snr| {
                let imp = Impairments::snr(snr, Fading::None);
                let label = format!("abl-gamma/{gamma}/{snr}");
                CellSpec::each(label, n, seed, "ZigBee", move |rng, _| {
                    tag_packet(rng, link, tag, n_prod, imp)
                })
            })
        })
        .collect();
    let outs = run_cells(&cells);
    for ((gamma, link, _), row) in links.iter().zip(outs.chunks(snrs.len())) {
        let mut cols = vec![gamma.to_string()];
        cols.extend(row.iter().map(|outs| pct(tag_ber(outs))));
        cols.push(link.tag_capacity(n_prod).to_string());
        report.row(&cols);
    }
    report.note(
        "Longer γ trades tag rate for SNR margin — the Miller-code intuition the paper cites.",
    );
    report
}

/// FM-to-AM slope sensitivity: identification vs front-end selectivity.
pub fn abl_slope(n: usize, seed: u64) -> Report {
    let n = n.max(10);
    let rate = SampleRate::ADC_FULL;
    let mut report = Report::new(
        "abl-slope — front-end FM-to-AM slope vs identification (20 Msps, blind, full precision)",
        &["slope /MHz", "avg acc", "802.11n", "802.11b", "BLE", "ZigBee"],
    );
    let slopes = [0.0, 0.05, 0.1, 0.25, 0.5];
    let fes = slopes.map(|fm_slope| FrontEnd { fm_slope, ..FrontEnd::prototype(rate) });
    let matchers = fes.each_ref().map(|fe| {
        Matcher::new(TemplateBank::build(fe, TemplateConfig::full_rate()), MatchMode::FullPrecision)
    });
    let cells = slopes.map(|slope| IdCell::new(&format!("slope{slope:.2}"), seed));
    // The slopes differ only in `fm_slope`, so trace i's packet, power,
    // ripple, noise and jitter are the same draws for all five: each
    // trace is acquired once through the five front ends, then scored
    // by each slope's matcher. No slope's set is ever held whole.
    let per_trace = msc_par::par_map_indexed(4 * n, |i| {
        let sweep = trace_sweep(&fes, n, seed, &HARD_INCIDENT_DBM, HARD_MAX_JITTER, i);
        let row = sweep.iter().zip(&fes).zip(&matchers).zip(&cells);
        row.map(|(((analog, fe), matcher), cell)| {
            cell.score(matcher, i, &digitize_trace(fe, analog))
        })
        .collect::<Vec<_>>()
    });
    let mut scored = slopes.map(|_| Vec::with_capacity(4 * n));
    for row in per_trace {
        for (k, s) in row.into_iter().enumerate() {
            scored[k].push(s);
        }
    }
    for ((slope, cell), scored) in slopes.iter().zip(cells).zip(scored) {
        let scores = cell.finish(scored);
        let per = msc_core::search::per_protocol_accuracy(
            &msc_core::OrderedRule { steps: vec![] },
            &scores,
        );
        report.row(&[
            format!("{slope:.2}"),
            pct(per.iter().sum::<f64>() / 4.0),
            pct(per[0]),
            pct(per[1]),
            pct(per[2]),
            pct(per[3]),
        ]);
    }
    report.note("With zero slope, constant-envelope BLE carries no identifiable structure — the quantitative backing for modeling front-end frequency selectivity at all (DESIGN.md substitution #1).");
    report
}

/// Lag-search radius ablation.
pub fn abl_lag(n: usize, seed: u64) -> Report {
    let n = n.max(10);
    let rate = SampleRate::ADC_HALF;
    let fe = front_end(rate);
    let bank = TemplateBank::build(&fe, TemplateConfig::standard(rate));
    let traces = traces_hard(&fe, n, seed);
    let mut report = Report::new(
        "abl-lag — correlator lag-search radius vs accuracy (10 Msps, ±1 quantized)",
        &["radius (samples)", "radius (µs)", "avg acc"],
    );
    for lag in [0usize, 2, 5, 10, 40] {
        let matcher = Matcher::new(bank.clone(), MatchMode::Quantized).with_lag_search(lag);
        let acc =
            blind_accuracy(&collect_scores_labeled(&matcher, &traces, &format!("lag{lag}"), seed));
        report.row(&[lag.to_string(), format!("{:.1}", lag as f64 / rate.as_msps()), pct(acc)]);
    }
    report.note("A continuously-running correlator (generous radius) is what hardware implements; a single-point decision is brittle against detection jitter.");
    report
}

/// CFO tolerance ablation: every protocol's end-to-end overlay loop under
/// crystal-grade carrier offsets (the receivers' estimators at work).
pub fn abl_cfo(n: usize, seed: u64) -> Report {
    let n = n.max(6);
    let mut report = Report::new(
        "abl-cfo — overlay tag BER vs carrier frequency offset (SNR 15 dB, no fading)",
        &["protocol", "0 Hz", "±20 kHz", "±48.8 kHz (20 ppm)"],
    );
    let links = Protocol::ALL.map(|p| {
        let tag = TagOverlayModulator::new(p, params_for(p, Mode::Mode1));
        (AnyLink::new(p, Mode::Mode1), tag)
    });
    let cfos = [0.0, 20e3, 48.8e3];
    // ZigBee's periodicity estimator caps at ±31 kHz — report honestly
    // beyond it. Even trials see +cfo, odd ones −cfo.
    let cells: Vec<_> = links
        .iter()
        .flat_map(|(link, tag)| {
            let p = link.protocol().label();
            cfos.map(|cfo| {
                CellSpec::each(format!("abl-cfo/{p}/{cfo}"), n, seed, p, move |rng, k| {
                    let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                    let imp = Impairments::snr(15.0, Fading::None).with_cfo(sign * cfo);
                    tag_packet(rng, link, tag, 12, imp)
                })
            })
        })
        .collect();
    let outs = run_cells(&cells);
    for ((link, _), row) in links.iter().zip(outs.chunks(cfos.len())) {
        let mut cols = vec![link.protocol().label().to_string()];
        cols.extend(row.iter().map(|outs| pct(tag_ber(outs))));
        report.row(&cols);
    }
    report.note("11n: STF autocorrelation CFO estimate; BLE: discriminator DC estimate + offset-invariant sync fallback; 11b: differential demod needs nothing; ZigBee: 16 µs-periodicity estimate (unambiguous to ±31 kHz, so 48.8 kHz aliases — a real CC2650 uses a wider-range synchronizer).");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_sweep_shows_the_paper_tradeoff() {
        let rendered = abl_bits(12, 42).render();
        // The 1-bit row must fit the FPGA; the full row must not.
        let row =
            |p: &str| rendered.lines().find(|l| l.trim_start().starts_with(p)).unwrap().to_string();
        assert!(row("1-bit").contains("true"));
        assert!(row("full").contains("false"));
    }

    #[test]
    fn gamma_improves_low_snr_ber() {
        let rendered = abl_gamma(8, 42).render();
        let ber_at = |gamma: &str| -> f64 {
            rendered
                .lines()
                .find(|l| l.trim_start().starts_with(gamma))
                .unwrap()
                .split_whitespace()
                .nth(3) // SNR -2 dB column
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        // γ=6 must not be worse than γ=2 at the lowest SNR.
        assert!(ber_at("6") <= ber_at("2") + 2.0, "{} vs {}", ber_at("6"), ber_at("2"));
    }

    #[test]
    fn zero_slope_collapses_constant_envelope_protocols() {
        let rendered = abl_slope(10, 42).render();
        let row = |prefix: &str| -> Vec<f64> {
            rendered
                .lines()
                .find(|l| l.trim_start().starts_with(prefix))
                .unwrap()
                .split_whitespace()
                .filter_map(|t| t.strip_suffix('%'))
                .map(|t| t.parse().unwrap())
                .collect()
        };
        let zero = row("0.00"); // [avg, 11n, 11b, BLE, ZigBee]
        let nominal = row("0.25");
        // Without slope, at least one constant-envelope protocol (BLE or
        // ZigBee — they become mutually confusable) collapses, dragging
        // the average down; with the nominal slope everything recovers.
        let ce_min = zero[3].min(zero[4]);
        assert!(ce_min < 60.0, "constant-envelope min at zero slope: {ce_min}%");
        assert!(zero[0] < nominal[0] - 10.0, "avg {} vs {}", zero[0], nominal[0]);
    }

    #[test]
    fn cfo_tolerated_inside_estimator_ranges() {
        let rendered = abl_cfo(6, 42).render();
        // At ±20 kHz every protocol stays under 15% tag BER.
        for p in ["802.11n", "802.11b", "BLE", "ZigBee"] {
            let row = rendered.lines().find(|l| l.trim_start().starts_with(p)).unwrap();
            let cell: f64 = row
                .split_whitespace()
                .filter(|t| t.ends_with('%'))
                .nth(1)
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(cell < 15.0, "{p} at ±20 kHz: {cell}%");
        }
    }

    #[test]
    fn lag_radius_helps() {
        let rendered = abl_lag(10, 42).render();
        let acc = |prefix: &str| -> f64 {
            rendered
                .lines()
                .find(|l| {
                    let mut it = l.split_whitespace();
                    it.next() == Some(prefix)
                })
                .unwrap()
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        assert!(acc("10") >= acc("0"), "lag 10: {} vs lag 0: {}", acc("10"), acc("0"));
    }
}
