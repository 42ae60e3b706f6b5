//! Fig. 17 — tag-data BER under different *reference-symbol* modulation
//! schemes: DSSS-BPSK / DSSS-DQPSK / CCK for 802.11b carriers and
//! OFDM-BPSK / QPSK / 16-QAM for 802.11n. Paper: BERs stay below ~0.6%
//! across all schemes — overlay modulation is agnostic to the reference
//! content's modulation.

use crate::pipeline::{
    run_cells, tag_ber, tag_packet, tag_totals, AnyLink, CellSpec, Geometry, Impairments,
};
use crate::report::{pct, Report};
use msc_core::overlay::{params_for, Mode, TagOverlayModulator};
use msc_phy::protocol::Protocol;
use msc_phy::wifi_b::DsssRate;
use msc_phy::wifi_n::Mcs;
use msc_rx::{WifiBOverlayLink, WifiNOverlayLink};

/// Runs with `n` packets per scheme.
pub fn run(n: usize, seed: u64) -> Report {
    let n = n.max(8);
    let geo = Geometry::los(8.0);
    let mut report = Report::new(
        "fig17 — tag BER vs reference-symbol modulation scheme",
        &["carrier", "reference modulation", "tag BER", "packets"],
    );

    // 802.11n: the overlay link supports all three constellations.
    let params = params_for(Protocol::WifiN, Mode::Mode1);
    let tag = TagOverlayModulator::new(Protocol::WifiN, params);
    let mut schemes = Vec::new();
    for (label, mcs) in
        [("OFDM-BPSK", Mcs::Mcs0), ("OFDM-QPSK", Mcs::Mcs1), ("OFDM-16QAM", Mcs::Mcs3)]
    {
        let link = AnyLink::WifiN(WifiNOverlayLink::new(params).with_mcs(mcs));
        schemes.push((label, link, tag.clone(), 12));
    }
    // 802.11b: the overlay link itself supports all reference-symbol
    // rates (DSSS-BPSK/DQPSK/CCK) — single receiver, no oracle.
    let params = params_for(Protocol::WifiB, Mode::Mode1);
    for (label, rate, sym_s) in [
        ("DSSS-BPSK (1M)", DsssRate::R1M, 1e-6),
        ("DSSS-DQPSK (2M)", DsssRate::R2M, 1e-6),
        ("CCK (5.5M)", DsssRate::R5M5, 8.0 / 11e6),
    ] {
        let link = AnyLink::WifiB(WifiBOverlayLink::new(params).with_rate(rate));
        let tag = TagOverlayModulator::new(Protocol::WifiB, params).with_symbol_duration(sym_s);
        schemes.push((label, link, tag, 24 * rate.bits_per_symbol()));
    }
    let cells: Vec<_> = schemes
        .iter()
        .map(|(label, link, tag, n_productive)| {
            let p = link.protocol();
            let imp = Impairments::snr(geo.uplink_snr_db(p), geo.fading);
            CellSpec::each(format!("fig17/{label}"), n, seed, p.label(), move |rng, _| {
                tag_packet(rng, link, tag, *n_productive, imp)
            })
        })
        .collect();
    for ((label, link, ..), outs) in schemes.iter().zip(run_cells(&cells)) {
        let (errors, bits) = tag_totals(&outs);
        let carrier = link.protocol().label().into();
        report.keyed_row(
            format!("fig17/{label}"),
            &[carrier, label.to_string(), pct(tag_ber(&outs)), n.to_string()],
        );
        report.stat_clustered("tag_ber", errors as u64, bits as u64, n as u64);
    }
    report.note("Paper Fig. 17: all schemes keep tag BER below ~0.6% — the reference modulation does not matter.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ofdm_schemes_all_decode_tag_data() {
        let rendered = run(8, 42).render();
        for scheme in ["OFDM-BPSK", "OFDM-QPSK", "OFDM-16QAM"] {
            let ber: f64 = rendered
                .lines()
                .find(|l| l.contains(scheme))
                .unwrap()
                .split_whitespace()
                .find(|t| t.ends_with('%'))
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(ber < 10.0, "{scheme} tag BER {ber}%");
        }
    }
}
