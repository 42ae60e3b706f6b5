//! Fig. 15 — tag-data throughput when the *original* channel is occluded
//! by a thin drywall. Paper: multiscatter 136 kbps (BLE) / 121 kbps
//! (802.11b) vs Hitchhike 94 kbps and FreeRider 33 kbps — the
//! single-receiver design does not care about the original channel.

use crate::pipeline::{
    apply_uplink, mismatches, run_cells, AnyLink, CellSpec, Delivery, Geometry, Overlay,
    PacketOutcome,
};
use crate::report::{f1, Report};
use crate::throughput::{goodput, ExcitationProfile};
use msc_baseline::{BaselineKind, TwoReceiverSystem};
use msc_channel::{Fading, Occlusion};
use msc_core::overlay::Mode;
use msc_phy::bits::random_bits;
use msc_phy::protocol::Protocol;

/// Runs with `n` packets per system.
pub fn run(n: usize, seed: u64) -> Report {
    let n = n.max(8);
    let mut report = Report::new(
        "fig15 — tag-data throughput with a drywall occluding the original channel (kbps)",
        &["system", "carrier", "tag kbps"],
    );

    // Multiscatter: occlusion of the "original channel" is irrelevant —
    // a single receiver decodes the backscattered packet alone. Measure
    // at a 6 m geometry.
    let links = [Protocol::Ble, Protocol::WifiB].map(|p| AnyLink::new(p, Mode::Mode1));
    let cells = links.each_ref().map(|link| {
        let label = format!("fig15/{}", link.protocol().label());
        CellSpec::new(Overlay::new(link, Geometry::los(6.0)), label, n, seed)
    });
    for (cell, outs) in cells.iter().zip(run_cells(&cells)) {
        let p = cell.trial.link.protocol();
        let Delivery { delivered, tag_err, tag_bits, tag_ok, .. } = Delivery::of(&outs);
        let g = goodput(&ExcitationProfile::paper_default(p), Mode::Mode1, 1.0, tag_ok / n as f64);
        let cols = ["multiscatter".into(), p.label().into(), f1(g.tag_bps / 1e3)];
        report.keyed_row(&cell.label, &cols);
        report.stat("per", (n - delivered) as u64, n as u64);
        report.stat_clustered("tag_ber", tag_err as u64, tag_bits as u64, delivered as u64);
    }

    // Baselines on 802.11b: the original channel sits behind the drywall
    // at a marginal SNR; lost original packets kill their tag data.
    let occ = Occlusion::Drywall;
    let orig_snr = 2.5 - occ.loss_db(); // paper: even drywall makes reception "highly unstable"
    let kinds = [BaselineKind::Hitchhike, BaselineKind::FreeRider];
    let cells = kinds.map(|kind| {
        let sys = TwoReceiverSystem::new(kind);
        CellSpec::each(format!("fig15/{}", kind.label()), n, seed, "802.11b", move |rng, _| {
            let payload = random_bits(rng, 96);
            let tag_bits = random_bits(rng, sys.tag_capacity(payload.len()));
            let excitation = sys.make_excitation(&payload);
            let backscattered = sys.tag_modulate(&excitation, &tag_bits);
            let rx_a = apply_uplink(rng, &excitation, orig_snr, Fading::Rayleigh);
            let rx_b = apply_uplink(rng, &backscattered, 25.0, Fading::None);
            // Average several independent modulation-offset draws per
            // captured pair (variance reduction; the offset is a
            // per-transmission property in the real systems).
            // The packet decodes if any draw does; its good share rides along.
            let draws = 5;
            let (mut packet, mut good) = (PacketOutcome::default(), 0.0);
            for _ in 0..draws {
                let mut sys_rng = sys.clone();
                sys_rng.sync_offset_symbols = TwoReceiverSystem::draw_offset(rng, 4.0);
                if let Ok(decoded) = sys_rng.decode_tag(&rx_a, &rx_b) {
                    let errors = mismatches(&tag_bits, &decoded);
                    let frac = 1.0 - errors as f64 / tag_bits.len().max(1) as f64;
                    // A misaligned XOR yields coin-flip bits carrying no
                    // information; floor each packet's contribution at
                    // the 50% line before averaging.
                    good += ((frac - 0.5).max(0.0)) * 2.0;
                    packet.decoded = true;
                }
            }
            (packet, good / draws as f64)
        })
    });
    for (kind, outs) in kinds.into_iter().zip(run_cells(&cells)) {
        let good_frac: f64 = outs.iter().map(|(_, good)| good).sum();
        // Baseline tag rate: 1 bit per symbol (HH) or per 3 symbols (FR).
        // Unlike multiscatter's crafted saturated carriers, the baselines
        // ride ordinary 802.11b traffic; Hitchhike's own evaluation tops
        // out near 300 kbps, which corresponds to ~300 pkts/s of
        // 1000-symbol frames — we grant them exactly that carrier supply.
        let mut profile = ExcitationProfile::paper_default(Protocol::WifiB);
        profile.pkt_rate = Some(300.0);
        let raw_tag_bps = profile.effective_pkt_rate() * profile.payload_symbols as f64
            / kind.symbols_per_bit() as f64;
        let p_ok = good_frac / n as f64;
        report.row(&[kind.label().into(), "802.11b".into(), f1(raw_tag_bps * p_ok / 1e3)]);
    }
    report.note(
        "Paper Fig. 15: multiscatter 136 (BLE) / 121 (11b) vs Hitchhike 94 / FreeRider 33 kbps.",
    );
    report.note("Multiscatter needs no original packet at all; the baselines pay with every lost or misaligned original frame.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiscatter_beats_occluded_baselines() {
        let rendered = run(32, 42).render();
        let get = |sys: &str| -> f64 {
            rendered
                .lines()
                .filter(|l| l.trim_start().starts_with(sys))
                .map(|l| l.split_whitespace().last().unwrap().parse::<f64>().unwrap())
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let ms = get("multiscatter");
        let hh = get("Hitchhike");
        let fr = get("FreeRider");
        assert!(ms > hh, "multiscatter {ms} vs Hitchhike {hh}");
        assert!(hh > fr, "Hitchhike {hh} vs FreeRider {fr}");
    }
}
