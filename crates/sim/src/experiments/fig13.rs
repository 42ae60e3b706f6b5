//! Fig. 13 — LoS backscatter RSSI, BER, and throughput across distances.
//! Paper: maximal ranges 28 m (WiFi b/n), 22 m (ZigBee), 20 m (BLE); low
//! BERs out to 16 m.

use crate::pipeline::{
    run_cells, AnyLink, CellSpec, Delivery, Geometry, Overlay, PacketOutcome, StopPolicy,
};
use crate::report::{f1, pct, Report};
use crate::throughput::{goodput, ExcitationProfile};
use msc_core::overlay::Mode;
use msc_obs::stats::{Proportion, Z99};
use msc_phy::protocol::Protocol;

/// The distances swept (meters).
pub const DISTANCES: [f64; 8] = [2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0];

/// Early-stop check for one deployment cell: stop once the 99% Wilson
/// intervals put the verdict (`per < 0.5 && ber < 0.3`, the in-range
/// rule below) beyond doubt in *either* direction — confidently in
/// range (both upper bounds clear the boundary) or confidently out
/// (either lower bound crosses it). Otherwise keep simulating.
fn verdict_settled(outs: &[PacketOutcome]) -> bool {
    let m = outs.len() as u64;
    let d = Delivery::of(outs);
    let delivered = d.delivered as u64;
    let per = Proportion::new(m - delivered, m).wilson(Z99);
    let ber = Proportion::clustered(d.tag_err as u64, d.tag_bits as u64, delivered).wilson(Z99);
    let in_range = per.hi < 0.5 && ber.hi < 0.3;
    let out_of_range = per.lo > 0.5 || ber.lo > 0.3;
    in_range || out_of_range
}

/// Shared engine for Figs. 13 (LoS) and 14 (NLoS).
pub fn run_deployment(n: usize, seed: u64, nlos: bool) -> Report {
    let n = n.max(6);
    let floor = crate::experiments::REGISTRY
        .iter()
        .find(|e| e.id == if nlos { "fig14" } else { "fig13" })
        .map(|e| e.min_n)
        .unwrap_or(6);
    let title = if nlos {
        "fig14 — NLoS backscatter RSSI / tag BER / aggregate throughput vs distance"
    } else {
        "fig13 — LoS backscatter RSSI / tag BER / aggregate throughput vs distance"
    };
    let mut report =
        Report::new(title, &["protocol", "d m", "RSSI dBm", "PER", "tag BER", "aggregate kbps"]);

    let stage = if nlos { "nlos" } else { "los" };
    let geometry = |d: f64| if nlos { Geometry::nlos(d) } else { Geometry::los(d) };
    let links: Vec<AnyLink> = Protocol::ALL.iter().map(|&p| AnyLink::new(p, Mode::Mode1)).collect();
    // Adjacent distances share channel draws per trial index (common
    // random numbers): the sweep axis is stripped from the CRN group,
    // so range comparisons see the same channel luck.
    let crn_groups: Vec<String> =
        Protocol::ALL.iter().map(|p| format!("{stage}/{}/crn", p.label())).collect();
    // All 32 (protocol, distance) cells fan out across the pool at once.
    let cells: Vec<CellSpec> = links
        .iter()
        .zip(&crn_groups)
        .flat_map(|(link, crn_group)| {
            DISTANCES.map(|d| {
                let trial =
                    Overlay { crn_group: Some(crn_group), ..Overlay::new(link, geometry(d)) };
                let label = format!("{stage}/{}/{d}", link.protocol().label());
                let stop = Some(StopPolicy { floor: floor.min(n), decide: &verdict_settled });
                CellSpec { stop, ..CellSpec::new(trial, label, n, seed) }
            })
        })
        .collect();
    let mut runs = cells.iter().zip(run_cells(&cells));
    for p in Protocol::ALL {
        let profile = ExcitationProfile::paper_default(p);
        let mut max_range = 0.0f64;
        let mut counter = msc_rx::BerCounter::new();
        for d in DISTANCES {
            let (cell, outs) = runs.next().expect("one outcome list per cell");
            let geo = cell.trial.geometry;
            for out in &outs {
                match out.decoded {
                    true => counter.record_counts(out.tag_bits, out.tag_errors),
                    false => counter.record_lost(out.tag_bits),
                }
            }
            let m = outs.len();
            let Delivery { delivered, tag_err, tag_bits, prod_ok, .. } = Delivery::of(&outs);
            let per = 1.0 - delivered as f64 / m as f64;
            let ber = if tag_bits > 0 { tag_err as f64 / tag_bits as f64 } else { 1.0 };
            let tag_ok = (1.0 - per) * (1.0 - ber);
            let g = goodput(&profile, Mode::Mode1, prod_ok / m as f64, tag_ok);
            if per < 0.5 && ber < 0.3 {
                max_range = d;
            }
            report.keyed_row(
                &cell.label,
                &[
                    p.label().into(),
                    f1(d),
                    f1(geo.rssi_dbm(p)),
                    pct(per),
                    pct(ber),
                    f1(g.aggregate_bps() / 1e3),
                ],
            );
            report.stat("per", (m - delivered) as u64, m as u64);
            // Bit errors within a packet share one fading draw, so the
            // effective sample count is delivered packets, not bits.
            report.stat_clustered("tag_ber", tag_err as u64, tag_bits as u64, delivered as u64);
            // Effective trial count: m < n marks an early-stopped cell.
            report.stat("n_used", m as u64, n as u64);
        }
        counter.export_obs(p.label(), stage);
        msc_obs::metrics::gauge_set("pipe.max_range_m", p.label(), stage, max_range);
        report.note(format!("{} maximal usable range ≈ {max_range} m", p.label()));
    }
    report.note(if nlos {
        "Paper Fig. 14a: NLoS maximal ranges 22 m WiFi / 18 m ZigBee / 16 m BLE."
    } else {
        "Paper Fig. 13a: LoS maximal ranges 28 m WiFi / 22 m ZigBee / 20 m BLE; Fig. 13c peak aggregates 278.4/219.8/101.2/26.2 kbps (BLE/11b/11n/ZigBee)."
    });
    report
}

/// Runs the LoS deployment.
pub fn run(n: usize, seed: u64) -> Report {
    run_deployment(n, seed, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn los_ranges_and_monotonic_rssi() {
        let r = run(6, 42);
        let rendered = r.render();
        // Ranges in the notes: WiFi ≥ 24 m, ZigBee ≥ 16 m, BLE ≥ 12 m,
        // and WiFi ≥ ZigBee ≥ BLE (paper's ordering).
        let range_of = |label: &str| -> f64 {
            rendered
                .lines()
                .find(|l| l.contains(&format!("{label} maximal")))
                .unwrap()
                .split('≈')
                .nth(1)
                .unwrap()
                .trim()
                .trim_end_matches(" m")
                .parse()
                .unwrap()
        };
        let wifi = range_of("802.11b").max(range_of("802.11n"));
        let zigbee = range_of("ZigBee");
        let ble = range_of("BLE");
        assert!(wifi >= 24.0, "WiFi range {wifi}");
        assert!(zigbee >= 16.0, "ZigBee range {zigbee}");
        assert!(ble >= 12.0, "BLE range {ble}");
        assert!(wifi >= zigbee && zigbee >= ble, "ordering {wifi}/{zigbee}/{ble}");
    }
}
