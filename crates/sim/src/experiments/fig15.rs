//! Fig. 15 — tag-data throughput when the *original* channel is occluded
//! by a thin drywall. Paper: multiscatter 136 kbps (BLE) / 121 kbps
//! (802.11b) vs Hitchhike 94 kbps and FreeRider 33 kbps — the
//! single-receiver design does not care about the original channel.

use crate::pipeline::{apply_uplink, run_cells, AnyLink, CellSpec, Geometry};
use crate::report::{f1, Report};
use crate::throughput::{goodput, ExcitationProfile};
use msc_baseline::{BaselineKind, TwoReceiverSystem};
use msc_channel::{Fading, Occlusion};
use msc_core::overlay::Mode;
use msc_phy::bits::random_bits;
use msc_phy::protocol::Protocol;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    let cells = links.each_ref().map(|link| CellSpec {
        link,
        geometry: Geometry::los(6.0),
        mode: Mode::Mode1,
        n_productive: 16,
        n,
        seed,
        label: format!("fig15/{}", link.protocol().label()),
        stop: None,
    });
    for (cell, outs) in cells.iter().zip(run_cells(&cells)) {
        let p = cell.link.protocol();
        let mut ok = 0.0;
        let (mut delivered, mut tag_err, mut tag_bits) = (0usize, 0usize, 0usize);
        for out in outs {
            if out.decoded {
                delivered += 1;
                tag_err += out.tag_errors;
                tag_bits += out.tag_bits;
                ok += 1.0 - out.tag_errors as f64 / out.tag_bits.max(1) as f64;
            }
        }
        let g = goodput(&ExcitationProfile::paper_default(p), Mode::Mode1, 1.0, ok / n as f64);
        report.keyed_row(
            &cell.label,
            &["multiscatter".into(), p.label().into(), f1(g.tag_bps / 1e3)],
        );
        report.stat("per", (n - delivered) as u64, n as u64);
        report.stat_clustered("tag_ber", tag_err as u64, tag_bits as u64, delivered as u64);
    }

    // Baselines on 802.11b: the original channel sits behind the drywall
    // at a marginal SNR; lost original packets kill their tag data.
    let occ = Occlusion::Drywall;
    let orig_snr = 2.5 - occ.loss_db(); // paper: even drywall makes reception "highly unstable"
    for kind in [BaselineKind::Hitchhike, BaselineKind::FreeRider] {
        let sys = TwoReceiverSystem::new(kind);
        let cell = msc_par::hash_label(&format!("fig15/{}", kind.label()));
        let good_frac: f64 = msc_par::par_map_indexed(n, |i| {
            let mut rng = StdRng::seed_from_u64(msc_par::derive_seed(seed, cell, i as u64));
            let payload = random_bits(&mut rng, 96);
            let tag_bits = random_bits(&mut rng, sys.tag_capacity(payload.len()));
            let excitation = sys.make_excitation(&payload);
            let backscattered = sys.tag_modulate(&excitation, &tag_bits);
            let rx_a = apply_uplink(&mut rng, &excitation, orig_snr, Fading::Rayleigh);
            let rx_b = apply_uplink(&mut rng, &backscattered, 25.0, Fading::None);
            // Average several independent modulation-offset draws per
            // captured pair (variance reduction; the offset is a
            // per-transmission property in the real systems).
            let draws = 5;
            let mut acc = 0.0;
            for _ in 0..draws {
                let mut sys_rng = sys.clone();
                sys_rng.sync_offset_symbols = TwoReceiverSystem::draw_offset(&mut rng, 4.0);
                if let Ok(decoded) = sys_rng.decode_tag(&rx_a, &rx_b) {
                    let errors =
                        tag_bits.iter().zip(decoded.iter()).filter(|(a, b)| a != b).count();
                    let frac = 1.0 - errors as f64 / tag_bits.len().max(1) as f64;
                    // A misaligned XOR yields coin-flip bits carrying no
                    // information; floor each packet's contribution at
                    // the 50% line before averaging.
                    acc += ((frac - 0.5).max(0.0)) * 2.0;
                }
            }
            acc / draws as f64
        })
        .into_iter()
        .sum();
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
