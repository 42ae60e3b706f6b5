//! Future-work extensions the paper names but leaves unbuilt — built
//! here and evaluated with the same harness:
//!
//! * **FEC tag coding** (footnote 8) — `ext-fec`
//! * **tag-side band filters** for time-domain collisions (§4.1.4) —
//!   `ext-filter`
//! * **wake-up-receiver gating** of the acquisition chain (§2.3 note 1)
//!   — `ext-wakeup`

use crate::pipeline::{
    apply_uplink, mismatches, run_cells, tag_ber, unit_errors, CellSpec, Identified, PacketOutcome,
};
use crate::report::{f1, pct, Report};
use msc_analog::WakeUpReceiver;
use msc_core::coding::TagCoding;
use msc_core::envelope::FrontEnd;
use msc_core::overlay::{params_for, Mode, TagOverlayModulator};
use msc_core::tag::payload_start_seconds;
use msc_core::{MatchMode, Matcher, TemplateBank, TemplateConfig};
use msc_dsp::resample::upsample_iq_clean;
use msc_dsp::SampleRate;
use msc_phy::bits::random_bits;
use msc_phy::protocol::Protocol;
use msc_rx::BleOverlayLink;
use rand::Rng;

/// FEC vs repetition tag coding: BER across the SNR range where the
/// overlay channel starts erring (the range edge of Fig. 13).
pub fn ext_fec(n: usize, seed: u64) -> Report {
    let n = n.max(10);
    let mut report = Report::new(
        "ext-fec — tag-data coding (paper footnote 8): repetition vs K=7 r=1/2 FEC",
        &["SNR dB", "repetition BER", "FEC BER", "info bits/pkt (rep)", "info bits/pkt (FEC)"],
    );
    let params = params_for(Protocol::Ble, Mode::Mode1);
    let link = BleOverlayLink::new(params);
    let n_productive = 48;
    let raw_cap = link.tag_capacity(n_productive);
    let tag = TagOverlayModulator::new(Protocol::Ble, params);
    let start = (payload_start_seconds(Protocol::Ble) * 8e6).round() as usize;

    let snrs = [8.0, 6.0, 4.0, 2.0, 0.0];
    let codings = [TagCoding::Repetition, TagCoding::Fec];
    let cells: Vec<_> = snrs
        .iter()
        .flat_map(|snr| codings.iter().enumerate().map(move |(ci, coding)| (*snr, ci, coding)))
        .map(|(snr, ci, coding)| {
            let info_bits = coding.info_capacity(raw_cap);
            let (link, tag) = (&link, &tag);
            CellSpec::each(format!("ext-fec/{snr}/{ci}"), n, seed, "BLE", move |rng, _| {
                let info = random_bits(rng, info_bits);
                let coded = coding.encode(&info);
                let productive = random_bits(rng, n_productive);
                let carrier = link.make_carrier(&productive);
                let modulated = tag.modulate(&carrier, start, &coded);
                let rx = apply_uplink(rng, &modulated, snr, msc_channel::Fading::None);
                let back =
                    link.decode(&rx, n_productive).ok().map(|d| coding.decode(&d.tag, info_bits));
                let tag_errors = back.as_ref().map_or(info_bits, |back| unit_errors(&info, back));
                PacketOutcome {
                    decoded: back.is_some(),
                    tag_errors,
                    tag_bits: info_bits,
                    ..Default::default()
                }
            })
        })
        .collect();
    let outs = run_cells(&cells);
    for (snr, row) in snrs.iter().zip(outs.chunks(codings.len())) {
        report.row(&[
            f1(*snr),
            pct(tag_ber(&row[0])),
            pct(tag_ber(&row[1])),
            TagCoding::Repetition.info_capacity(raw_cap).to_string(),
            TagCoding::Fec.info_capacity(raw_cap).to_string(),
        ]);
    }
    report.note("FEC halves capacity (+6 tail bits) and cleans up scattered errors down to ~4 dB; below the coded threshold, hard-decision rate-1/2 coding loses to plain repetition — the classic coding crossover, and the reason the paper's simple majority voting is defensible at very low SNR.");
    report
}

/// Tag-side band filter under a time-domain 11n+BLE collision: how often
/// the tag still identifies the BLE excitation.
pub fn ext_filter(n: usize, seed: u64) -> Report {
    let n = n.max(10);
    let mut report = Report::new(
        "ext-filter — tag band filter vs time-domain collisions (§4.1.4 future work)",
        &["front end", "BLE identified", "802.11n identified", "other/none"],
    );
    let front_ends = [
        ("filterless (paper)", FrontEnd::prototype(SampleRate::ADC_FULL)),
        ("1.2 MHz band filter", FrontEnd::prototype(SampleRate::ADC_FULL).with_band_filter(1.2e6)),
    ]
    .map(|(label, fe)| {
        // With a band filter the analog response depends on the common
        // RF grid, so templates are rendered at the collision grid too.
        let bank =
            TemplateBank::build_at_rf_rate(&fe, TemplateConfig::full_rate(), SampleRate::mhz(20.0));
        (label, fe, Matcher::new(bank, MatchMode::Quantized))
    });
    let cells: Vec<_> = front_ends
        .iter()
        .map(|(label, fe, matcher)| {
            CellSpec::each(format!("ext-filter/{label}"), n, seed, "BLE", move |rng, _| {
                let wb = crate::idtraces::random_packet(Protocol::Ble, rng);
                let wn = crate::idtraces::random_packet(Protocol::WifiN, rng);
                // Collide: BLE resampled onto the 20 Msps grid, WiFi
                // burst on top at comparable incident power.
                let wb20 = upsample_iq_clean(&wb, wn.rate());
                let mixed = wb20.mix(&wn.scaled(1.2));
                let incident = rng.gen_range(-8.0..-4.0);
                let acq = fe.acquire(rng, &mixed, incident);
                Identified { id: matcher.identify_blind(&acq, 0), truth: Some(Protocol::Ble) }
            })
        })
        .collect();
    for ((label, ..), ids) in front_ends.iter().zip(run_cells(&cells)) {
        let count = |p| ids.iter().filter(|o| o.id == Some(p)).count();
        let (ble, wifin) = (count(Protocol::Ble), count(Protocol::WifiN));
        let share = |k: usize| pct(k as f64 / n as f64);
        report.row(&[label.to_string(), share(ble), share(wifin), share(n - ble - wifin)]);
    }
    report.note("The filter attenuates the colliding 20 MHz 11n burst ~12 dB relative to the in-band BLE signal: the WiFi capture effect (filterless: 100% identified as 11n) disappears, and most collided BLE packets survive identification outright.");
    report
}

/// Wake-up-receiver gating: average acquisition power vs excitation rate.
pub fn ext_wakeup(_n: usize, _seed: u64) -> Report {
    let mut report = Report::new(
        "ext-wakeup — acquisition power with wake-up gating (§2.3 note 1, [30])",
        &["excitation", "pkts/s", "airtime µs", "duty", "always-on mW", "gated mW", "saving"],
    );
    let w = WakeUpReceiver::roberts_isscc16();
    // The Table-3 packet-detection chain at 2.5 Msps: 2.5 (FPGA) + 32.5
    // (ADC) = 35 mW.
    let chain_w = 35.0e-3;
    for (label, rate, airtime) in [
        ("802.11n", 2000.0, 404e-6),
        ("802.11b", 838.9, 1192e-6),
        ("BLE adv", 70.0, 376e-6),
        ("ZigBee", 20.0, 4096e-6),
    ] {
        let duty = w.duty(rate, airtime);
        let gated = w.average_power_w(chain_w, rate, airtime);
        report.row(&[
            label.into(),
            f1(rate),
            f1(airtime * 1e6),
            pct(duty),
            f1(chain_w * 1e3),
            format!("{:.3}", gated * 1e3),
            format!("{:.1}x", chain_w / gated),
        ]);
    }
    report.note("The 236 nW wake-up stage keeps the −56.5 dBm trigger armed; the 35 mW identification chain only runs while excitation is on the air.");
    report
}

/// Multi-tag TDM overlay (inspired by X-Tandem's multi-hop ambitions):
/// two tags share one productive carrier by owning disjoint sequence
/// ranges; a single receiver separates their streams by position. Tag
/// modulations compose multiplicatively (a ±1 phase state per block), so
/// tag B simply re-modulates tag A's backscatter.
pub fn ext_multitag(n: usize, seed: u64) -> Report {
    use msc_core::overlay::{params_for, Mode, TagOverlayModulator};
    use msc_core::tag::payload_start_seconds;
    use msc_rx::WifiBOverlayLink;
    let n = n.max(8);
    let mut report = Report::new(
        "ext-multitag — two tags TDM-sharing one 802.11b carrier, one receiver",
        &["SNR dB", "tag A BER", "tag B BER", "productive BER"],
    );
    let params = params_for(Protocol::WifiB, Mode::Mode1);
    let link = WifiBOverlayLink::new(params);
    let n_prod = 32; // 32 sequences → 32 tag-bit slots, split 16/16
                     // Intra-packet TDM slot assignment comes from the fleet MAC: two
                     // tags co-scheduled on one carrier packet own disjoint sequence
                     // ranges (the fixed-assignment arm of the carrier-scheduling MAC).
    let slots = msc_fleet::mac::slot_ranges(link.tag_capacity(n_prod), 2);
    let (slot_a, slot_b) = (slots[0].clone(), slots[1].clone());
    let half = slot_a.len();
    debug_assert_eq!(slot_b.len(), half, "even capacity splits evenly");
    let tag = TagOverlayModulator::new(Protocol::WifiB, params);

    let snrs = [15.0, 6.0, 0.0];
    let cells: Vec<_> = snrs
        .iter()
        .map(|&snr| {
            let (link, tag, slot_a, slot_b) = (&link, &tag, &slot_a, &slot_b);
            CellSpec::each(format!("ext-multitag/{snr}"), n, seed, "802.11b", move |rng, _| {
                let productive = random_bits(rng, n_prod);
                let a_bits = random_bits(rng, half);
                let b_bits = random_bits(rng, half);
                let carrier = link.make_carrier(&productive);
                let start = (payload_start_seconds(Protocol::WifiB) * carrier.rate().as_hz())
                    .round() as usize;
                // Tag A owns the first slot range…
                let mut a_padded = a_bits.clone();
                a_padded.extend(std::iter::repeat_n(0u8, slot_b.len()));
                let after_a = tag.modulate(&carrier, start, &a_padded);
                // …tag B the second, modulating A's backscatter.
                let mut b_padded = vec![0u8; slot_a.len()];
                b_padded.extend_from_slice(&b_bits);
                let after_b = tag.modulate(&after_a, start, &b_padded);
                let rx = apply_uplink(rng, &after_b, snr, msc_channel::Fading::None);
                // Tag A is the packet's tag stream; tag B's errors ride along.
                let d = link.decode(&rx).ok();
                let packet = PacketOutcome {
                    decoded: d.is_some(),
                    tag_errors: d.as_ref().map_or(half, |d| mismatches(&a_bits, &d.tag)),
                    tag_bits: half,
                    productive_errors: d
                        .as_ref()
                        .map_or(n_prod, |d| mismatches(&productive, &d.productive)),
                    productive_units: n_prod,
                };
                let b_got = d.as_ref().map(|d| d.tag.get(slot_b.start..).unwrap_or_default());
                (packet, b_got.map_or(half, |got| mismatches(&b_bits, got)))
            })
        })
        .collect();
    for (snr, outs) in snrs.iter().zip(run_cells(&cells)) {
        let errs = outs.iter().fold([0usize; 3], |[a, b, p], (o, o_b)| {
            [a + o.tag_errors, b + o_b, p + o.productive_errors]
        });
        let ber = |k: usize, bits: usize| pct(errs[k] as f64 / (n * bits) as f64);
        report.row(&[f1(*snr), ber(0, half), ber(1, half), ber(2, n_prod)]);
    }
    report.note("Tag modulations are ±1 phase states and compose multiplicatively, so TDM sequence-slicing needs no new mechanism — only slot assignment. Both tags and the productive stream decode on the same single radio.");

    // The same deployment as a fleet scenario: two tags, one 802.11b
    // carrier, fixed assignment — contention resolved by the fleet MAC
    // at packet granularity instead of sequence granularity.
    {
        use msc_fleet::engine::FleetConfig;
        use msc_fleet::link::LinkTable;
        use msc_fleet::mac::{Backoff, MacPolicy};
        use msc_fleet::traffic::{Arrivals, Stream};
        let profile = crate::throughput::ExcitationProfile::paper_default(Protocol::WifiB);
        let cfg = FleetConfig {
            tags: 2,
            horizon_s: 5.0,
            carriers: vec![Stream {
                protocol: Protocol::WifiB,
                arrivals: Arrivals::Periodic { rate: profile.effective_pkt_rate() },
                airtime_s: profile.airtime_s(),
                tag_bits_per_packet: half,
            }],
            readings: Arrivals::Periodic { rate: 2.0 },
            reading_bits: half,
            policy: MacPolicy::FixedAssignment,
            backoff: Backoff::default(),
            energy: None,
            queue_cap: 2,
            sample_every: 0,
            seed,
        };
        let r = msc_fleet::engine::run(&cfg, &LinkTable::ideal(), |_, _| 15.0);
        report.note(format!(
            "fleet MAC smoke (2 tags, one 802.11b carrier, fixed assignment): {}/{} readings \
             delivered, {} collision slots, {} retry drops.",
            r.delivered, r.offered, r.collision_slots, r.retry_drops
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tags_share_a_carrier_cleanly() {
        let rendered = ext_multitag(8, 42).render();
        // At 15 dB all three streams must be error-free.
        let row = rendered.lines().find(|l| l.trim_start().starts_with("15.0")).unwrap();
        for cell in row.split_whitespace().filter(|t| t.ends_with('%')) {
            let v: f64 = cell.trim_end_matches('%').parse().unwrap();
            assert!(v < 1.0, "stream BER {v}% at 15 dB");
        }
        // The fleet-MAC smoke scenario must deliver readings without
        // exhausting retries (one lightly-loaded carrier, two tags).
        let smoke = rendered.lines().find(|l| l.contains("fleet MAC smoke")).unwrap();
        assert!(smoke.contains("0 retry drops"), "{smoke}");
    }

    /// Guard: routing the slot split through the fleet MAC's
    /// `slot_ranges` must leave the seed's verdict rows byte-identical —
    /// the 16/16 TDM assignment is the same numbers, now derived from
    /// the policy layer.
    #[test]
    fn multitag_verdict_rows_unchanged_from_seed() {
        let rendered = ext_multitag(8, 42).render();
        let rows: Vec<Vec<&str>> = rendered
            .lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("15.0 ") || l.starts_with("6.0 ") || l.starts_with("0.0 "))
            .map(|l| l.split_whitespace().collect())
            .collect();
        // Captured from the seed commit (paper ext-multitag 8 42).
        let want = [
            ["15.0", "0.0%", "0.0%", "0.0%"],
            ["6.0", "0.0%", "0.0%", "0.0%"],
            ["0.0", "0.0%", "0.0%", "0.0%"],
        ];
        assert_eq!(rows.len(), 3, "{rendered}");
        for (got, want) in rows.iter().zip(want) {
            assert_eq!(got[..], want[..], "verdict row drifted from seed:\n{rendered}");
        }
    }

    #[test]
    fn fec_wins_in_the_moderate_error_regime() {
        let rendered = ext_fec(10, 42).render();
        let rows: Vec<Vec<f64>> = rendered
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .map(|l| {
                l.split_whitespace().filter_map(|t| t.trim_end_matches('%').parse().ok()).collect()
            })
            .collect();
        // In the 6 dB row (index 1), repetition already errs while FEC
        // should be (near) clean — the regime FEC is for.
        let (rep6, fec6) = (rows[1][1], rows[1][2]);
        assert!(fec6 <= rep6, "FEC must not lose in the moderate regime: {fec6}% vs {rep6}%");
    }

    #[test]
    fn filter_rescues_ble_identification_under_collision() {
        let rendered = ext_filter(12, 42).render();
        let ble_pct = |prefix: &str| -> f64 {
            rendered
                .lines()
                .find(|l| l.trim_start().starts_with(prefix))
                .unwrap()
                .split_whitespace()
                .find(|t| t.ends_with('%'))
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        let plain = ble_pct("filterless");
        let filtered = ble_pct("1.2");
        assert!(
            filtered > plain + 30.0,
            "filter must rescue BLE identification: {plain}% → {filtered}%"
        );
    }

    #[test]
    fn wakeup_saves_orders_of_magnitude_on_sparse_excitation() {
        let rendered = ext_wakeup(0, 0).render();
        let zig_line = rendered.lines().find(|l| l.contains("ZigBee")).unwrap();
        let saving: f64 =
            zig_line.split_whitespace().last().unwrap().trim_end_matches('x').parse().unwrap();
        assert!(saving > 5.0, "ZigBee saving {saving}x");
    }
}
