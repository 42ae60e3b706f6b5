//! Fig. 12 — productive vs tag throughput tradeoffs under modes 1–3,
//! averaged over tag placements (the paper uses 100 independent
//! locations; delivery statistics come from the IQ pipeline at a
//! representative mid-range geometry with fading).

use crate::pipeline::{run_cells, AnyLink, CellSpec, Delivery, Geometry, Overlay};
use crate::report::{f1, Report};
use crate::throughput::{goodput, ExcitationProfile};
use msc_core::overlay::{gamma_for, Mode};
use msc_phy::protocol::Protocol;

/// Runs with `n` placements per cell.
pub fn run(n: usize, seed: u64) -> Report {
    let n = n.max(6);
    let mut report = Report::new(
        "fig12 — throughput tradeoffs across overlay modes (kbps)",
        &["protocol", "mode", "κ", "productive", "tag", "aggregate"],
    );
    // One cell per (protocol, mode): (protocol, mode label, stage, mode).
    let rows: Vec<(Protocol, &str, &str, Mode)> = Protocol::ALL
        .iter()
        .flat_map(|&p| {
            let n3 = ExcitationProfile::paper_default(p).payload_symbols / gamma_for(p);
            [
                ("1", "mode1", Mode::Mode1),
                ("2", "mode2", Mode::Mode2),
                ("3", "mode3", Mode::Mode3 { n: n3 }),
            ]
            .map(|(label, stage, mode)| (p, label, stage, mode))
        })
        .collect();
    // Delivery statistics measured at mode 1/2 geometry; mode 3 reuses
    // mode 1's (same physical modulation).
    let meas_mode = |mode: Mode| match mode {
        Mode::Mode3 { .. } => Mode::Mode1,
        m => m,
    };
    let links: Vec<AnyLink> =
        rows.iter().map(|&(p, _, _, m)| AnyLink::new(p, meas_mode(m))).collect();
    // All 12 cells fan out across the pool at once.
    let cells: Vec<CellSpec> = rows
        .iter()
        .zip(&links)
        .map(|(&(p, _, stage, mode), link)| {
            // The paper's spatial-diversity sweep.
            let trial = Overlay { mode: meas_mode(mode), ..Overlay::new(link, Geometry::los(6.0)) };
            CellSpec::new(trial, format!("fig12/{}/{stage}", p.label()), n, seed)
        })
        .collect();
    for ((&(p, label, stage, mode), cell), outs) in rows.iter().zip(&cells).zip(run_cells(&cells)) {
        let profile = ExcitationProfile::paper_default(p);
        let d = Delivery::of(&outs);
        let g = goodput(&profile, mode, d.prod_ok / n as f64, d.tag_ok / n as f64);
        msc_obs::metrics::gauge_set("link.productive_bps", p.label(), stage, g.productive_bps);
        msc_obs::metrics::gauge_set("link.tag_bps", p.label(), stage, g.tag_bps);
        msc_obs::metrics::gauge_set("link.aggregate_bps", p.label(), stage, g.aggregate_bps());
        report.keyed_row(
            &cell.label,
            &[
                p.label().into(),
                label.into(),
                format!("{}", msc_core::overlay::params_for(p, mode).kappa),
                f1(g.productive_bps / 1e3),
                f1(g.tag_bps / 1e3),
                f1(g.aggregate_bps() / 1e3),
            ],
        );
        report.stat("per", (n - d.delivered) as u64, n as u64);
        report.stat_clustered("tag_ber", d.tag_err as u64, d.tag_bits as u64, d.delivered as u64);
    }
    report.note("Paper Fig. 12: BLE mode-1 aggregate 278.4 kbps (141.6 productive + 136.8 tag); mode 2 ⇒ 3:1 tag:productive; mode 3 ⇒ productive ≈ 0.");
    report.note("Our ZigBee sits below the paper's 26.2 kbps because we honor the CC2530's stated 20 pkts/s cap (§3); see EXPERIMENTS.md.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(rendered: &str, proto: &str, mode: &str) -> (f64, f64) {
        let line = rendered
            .lines()
            .find(|l| {
                l.trim_start().starts_with(proto) && l.split_whitespace().nth(1) == Some(mode)
            })
            .unwrap_or_else(|| panic!("row {proto} {mode}"));
        let toks: Vec<&str> = line.split_whitespace().collect();
        (toks[3].parse().unwrap(), toks[4].parse().unwrap())
    }

    #[test]
    fn mode_structure_holds() {
        let r = run(6, 42).render();
        // Mode 1 BLE ≈ 1:1 and both near 100 kbps.
        let (p1, t1) = cell(&r, "BLE", "1");
        assert!(p1 > 50.0 && t1 > 50.0, "BLE mode1 {p1}/{t1}");
        assert!((p1 - t1).abs() / t1 < 0.3);
        // Mode 2 triples tag relative to productive.
        let (p2, t2) = cell(&r, "BLE", "2");
        assert!(t2 / p2 > 2.0, "BLE mode2 ratio {}", t2 / p2);
        // Mode 3 starves productive data.
        let (p3, t3) = cell(&r, "BLE", "3");
        assert!(p3 < p1 / 10.0, "mode3 productive {p3}");
        assert!(t3 > t1, "mode3 tag {t3} vs mode1 {t1}");
    }

    #[test]
    fn aggregate_ordering_matches_paper() {
        let r = run(6, 43).render();
        let agg = |proto: &str| -> f64 {
            let line = r
                .lines()
                .find(|l| {
                    l.trim_start().starts_with(proto) && l.split_whitespace().nth(1) == Some("1")
                })
                .unwrap();
            line.split_whitespace().last().unwrap().parse().unwrap()
        };
        let (ble, b, n, z) = (agg("BLE"), agg("802.11b"), agg("802.11n"), agg("ZigBee"));
        // Paper Fig. 13c ordering: BLE > 802.11b > 802.11n > ZigBee.
        assert!(ble > n, "BLE {ble} vs 11n {n}");
        assert!(b > n, "11b {b} vs 11n {n}");
        assert!(n > z, "11n {n} vs ZigBee {z}");
    }
}
