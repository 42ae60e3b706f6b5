//! Fig. 9 — the baselines' two drawbacks: (a) tag-data BER explodes when
//! the *original* channel is occluded (paper: 0.2% → 59% behind a
//! concrete wall); (b) modulation offsets of up to 8 symbols across
//! ranges force two-receiver synchronization.

use crate::pipeline::{
    apply_uplink, bit_errors, run_cells, tag_ber, tag_totals, CellSpec, PacketOutcome,
};
use crate::report::{f1, pct, Report};
use msc_baseline::{BaselineKind, TwoReceiverSystem};
use msc_channel::{Fading, Occlusion};
use msc_phy::bits::random_bits;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs with `n` packets per (system, occlusion) cell.
pub fn run(n: usize, seed: u64) -> Report {
    let n = n.max(6);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = Report::new(
        "fig9a — baseline tag-data BER vs original-channel occlusion (802.11b carriers)",
        &["system", "occlusion", "orig SNR dB", "tag BER", "orig PER"],
    );

    // Original channel: a *marginal* residential link — the paper's
    // occluded deployments sit near the original receiver's sensitivity
    // edge (that is what makes its data "highly unstable", §4.1.3). We
    // model it as a 10 dB clear-channel SNR with the wall loss
    // subtracted and Rayleigh fading on top. The backscatter channel
    // stays clean: the whole point of Fig. 9a is that an error-free
    // backscattered packet cannot be decoded without the original one.
    let clear_snr = 10.0;
    let grid: Vec<(BaselineKind, Occlusion)> = [BaselineKind::Hitchhike, BaselineKind::FreeRider]
        .into_iter()
        .flat_map(|kind| Occlusion::FIG9.map(|occ| (kind, occ)))
        .collect();
    let label =
        |kind: BaselineKind, occ: Occlusion| format!("fig9/{}/{}", kind.label(), occ.label());
    let cells: Vec<_> = grid
        .iter()
        .map(|&(kind, occ)| {
            let sys = TwoReceiverSystem::new(kind);
            let orig_snr = clear_snr - occ.loss_db();
            CellSpec::each(label(kind, occ), n, seed, "802.11b", move |rng, _| {
                let payload = random_bits(rng, 96);
                let tag_bits = random_bits(rng, sys.tag_capacity(payload.len()));
                let excitation = sys.make_excitation(&payload);
                let backscattered = sys.tag_modulate(&excitation, &tag_bits);
                // Receiver A: original channel with occlusion + fading.
                let rx_a = apply_uplink(rng, &excitation, orig_snr, Fading::Rayleigh);
                // Receiver B: strong backscatter capture.
                let rx_b = apply_uplink(rng, &backscattered, 25.0, Fading::None);
                let decoded = sys.decode_tag(&rx_a, &rx_b).ok();
                PacketOutcome {
                    decoded: decoded.is_some(),
                    tag_errors: decoded.map_or(tag_bits.len(), |d| bit_errors(&tag_bits, &d)),
                    tag_bits: tag_bits.len(),
                    ..PacketOutcome::default()
                }
            })
        })
        .collect();
    for (&(kind, occ), outs) in grid.iter().zip(run_cells(&cells)) {
        // A lost original frame loses every tag bit.
        let (errors, bits) = tag_totals(&outs);
        let orig_lost = outs.iter().filter(|o| !o.decoded).count();
        let snr = f1(clear_snr - occ.loss_db());
        let per = pct(orig_lost as f64 / n as f64);
        let cols = [kind.label().into(), occ.label().into(), snr, pct(tag_ber(&outs)), per];
        report.keyed_row(label(kind, occ), &cols);
        report.stat_clustered("tag_ber", errors as u64, bits as u64, n as u64);
        report.stat("orig_per", orig_lost as u64, n as u64);
    }
    report.note("Paper Fig. 9a: Hitchhike tag BER 0.2% (clear) → 59% (concrete wall).");

    // Fig. 9b: offset distribution vs range.
    let mut offsets = Report::new(
        "fig9b — Hitchhike modulation offset vs range",
        &["range m", "mean offset (symbols)", "max offset"],
    );
    for d in [2.0, 6.0, 10.0, 14.0, 16.0] {
        let draws: Vec<f64> =
            (0..200).map(|_| TwoReceiverSystem::draw_offset(&mut rng, d) as f64).collect();
        offsets.row(&[
            f1(d),
            f1(msc_dsp::stats::mean(&draws)),
            format!("{}", msc_dsp::stats::max(&draws) as usize),
        ]);
    }
    offsets.note("Paper Fig. 9b: offsets reach 8 symbols; two-receiver sync is unavoidable.");

    // Merge: render the second table into the first report's notes.
    for line in offsets.render().lines() {
        report.note(line.to_string());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occlusion_degrades_baselines() {
        let r = run(6, 42);
        let rendered = r.render();
        // Extract the Hitchhike rows' BER values.
        let bers: Vec<f64> = rendered
            .lines()
            .filter(|l| l.trim_start().starts_with("Hitchhike"))
            .map(|l| {
                l.split_whitespace().rev().nth(1).unwrap().trim_end_matches('%').parse().unwrap()
            })
            .collect();
        assert_eq!(bers.len(), 3);
        assert!(bers[0] < 10.0, "clear-channel BER {}", bers[0]);
        assert!(bers[2] > 30.0, "concrete-wall BER must explode: {} (clear {})", bers[2], bers[0]);
    }
}
