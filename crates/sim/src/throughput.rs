//! Airtime-explicit throughput accounting for the overlay links.
//!
//! The paper's throughput numbers come from driver-level measurements;
//! we reconstruct them from first principles: packets per second ×
//! sequences per packet × (productive bits, tag bits) per sequence,
//! scaled by the delivery statistics the IQ-level simulation measures.
//! EXPERIMENTS.md records where our principled accounting deviates from
//! the paper's measured kbps.

use msc_core::overlay::{params_for, productive_bits_per_sequence, Mode};
use msc_phy::protocol::Protocol;

/// One protocol's excitation profile in the throughput experiments.
#[derive(Clone, Copy, Debug)]
pub struct ExcitationProfile {
    /// The protocol.
    pub protocol: Protocol,
    /// Packet rate cap, packets/s (`None` = saturated medium).
    pub pkt_rate: Option<f64>,
    /// Payload length in base symbols.
    pub payload_symbols: usize,
    /// Fixed per-packet overhead (preamble + header + turnaround), s.
    pub overhead_s: f64,
}

impl ExcitationProfile {
    /// The paper's §3 setups: 802.11b saturated at 1 Mbps; 802.11n
    /// 2000 pkts/s of 300-byte MCS0 frames; BLE saturated advertising
    /// bursts (CRC off, custom driver); ZigBee capped at the CC2530's
    /// ~20 pkts/s.
    pub fn paper_default(p: Protocol) -> Self {
        match p {
            Protocol::WifiB => ExcitationProfile {
                protocol: p,
                pkt_rate: None,
                payload_symbols: 1000, // 1000 µs of 1 Mbps payload
                overhead_s: 192e-6,
            },
            Protocol::WifiN => ExcitationProfile {
                protocol: p,
                pkt_rate: Some(2000.0),
                payload_symbols: 92, // ≈300 B at MCS0
                overhead_s: 36e-6,
            },
            Protocol::Ble => ExcitationProfile {
                protocol: p,
                pkt_rate: None,
                payload_symbols: 296, // 37-byte advertising payload
                overhead_s: 40e-6,
            },
            Protocol::ZigBee => ExcitationProfile {
                protocol: p,
                pkt_rate: Some(20.0),
                payload_symbols: 240, // 120-byte frames
                overhead_s: 192e-6,
            },
        }
    }

    /// Airtime of one packet, seconds.
    pub fn airtime_s(&self) -> f64 {
        self.overhead_s + self.payload_symbols as f64 * self.protocol.base_symbol_seconds()
    }

    /// Effective packet rate (respecting saturation), packets/s.
    pub fn effective_pkt_rate(&self) -> f64 {
        let saturated = 1.0 / self.airtime_s();
        match self.pkt_rate {
            Some(r) => r.min(saturated),
            None => saturated,
        }
    }
}

/// Productive + tag goodput (bits/s) for a profile under an overlay mode
/// and measured delivery statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Goodput {
    /// Productive-data goodput, bits/s.
    pub productive_bps: f64,
    /// Tag-data goodput, bits/s.
    pub tag_bps: f64,
}

impl Goodput {
    /// Aggregate of both streams.
    pub fn aggregate_bps(&self) -> f64 {
        self.productive_bps + self.tag_bps
    }
}

/// Computes goodput from a profile, mode, and measured delivery
/// fractions (`productive_ok`, `tag_ok` ∈ \[0, 1\]: fraction of units
/// delivered correctly, PER folded in by the caller).
pub fn goodput(
    profile: &ExcitationProfile,
    mode: Mode,
    productive_ok: f64,
    tag_ok: f64,
) -> Goodput {
    let p = profile.protocol;
    let params = params_for(p, mode);
    let sequences = params.sequences_in(profile.payload_symbols) as f64;
    let prod_bits = sequences * productive_bits_per_sequence(p) as f64;
    let tag_bits = sequences * params.tag_bits_per_sequence() as f64;
    let rate = profile.effective_pkt_rate();
    Goodput {
        productive_bps: rate * prod_bits * productive_ok.clamp(0.0, 1.0),
        tag_bps: rate * tag_bits * tag_ok.clamp(0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_and_saturation() {
        let b = ExcitationProfile::paper_default(Protocol::WifiB);
        assert!((b.airtime_s() - 1192e-6).abs() < 1e-9);
        // Saturated: ~839 packets/s.
        assert!((b.effective_pkt_rate() - 1.0 / 1192e-6).abs() < 1e-6);
        let n = ExcitationProfile::paper_default(Protocol::WifiN);
        // 2000 pkts/s at 404 µs airtime → not saturated (81% duty).
        assert_eq!(n.effective_pkt_rate(), 2000.0);
    }

    #[test]
    fn mode1_goodputs_match_paper_scale() {
        // BLE mode 1 saturated: both streams within 2x of the paper's
        // 141.6 / 136.8 kbps.
        let ble = ExcitationProfile::paper_default(Protocol::Ble);
        let g = goodput(&ble, Mode::Mode1, 1.0, 1.0);
        assert!(g.productive_bps > 70e3 && g.productive_bps < 220e3, "{}", g.productive_bps);
        assert!((g.productive_bps - g.tag_bps).abs() / g.tag_bps < 0.05, "mode 1 ≈ 1:1");

        // 802.11n: aggregate near the paper's 101.2 kbps.
        let n = ExcitationProfile::paper_default(Protocol::WifiN);
        let gn = goodput(&n, Mode::Mode1, 1.0, 1.0);
        assert!(gn.aggregate_bps() > 60e3 && gn.aggregate_bps() < 140e3, "{}", gn.aggregate_bps());
    }

    #[test]
    fn mode2_shifts_ratio_to_3_to_1() {
        for p in Protocol::ALL {
            let prof = ExcitationProfile::paper_default(p);
            let g = goodput(&prof, Mode::Mode2, 1.0, 1.0);
            let per_seq_prod = productive_bits_per_sequence(p) as f64;
            let ratio = g.tag_bps / g.productive_bps * per_seq_prod;
            assert!((ratio - 3.0).abs() < 1e-9, "{p}: ratio {ratio}");
        }
    }

    #[test]
    fn mode3_starves_productive_data() {
        let prof = ExcitationProfile::paper_default(Protocol::WifiB);
        let n = prof.payload_symbols / msc_core::overlay::gamma_for(Protocol::WifiB);
        let g3 = goodput(&prof, Mode::Mode3 { n }, 1.0, 1.0);
        let g1 = goodput(&prof, Mode::Mode1, 1.0, 1.0);
        assert!(g3.productive_bps < g1.productive_bps / 20.0);
        assert!(g3.tag_bps > g1.tag_bps * 1.5);
    }

    #[test]
    fn delivery_fraction_scales_linearly() {
        let prof = ExcitationProfile::paper_default(Protocol::Ble);
        let full = goodput(&prof, Mode::Mode1, 1.0, 1.0);
        let half = goodput(&prof, Mode::Mode1, 0.5, 0.25);
        assert!((half.productive_bps - full.productive_bps * 0.5).abs() < 1e-6);
        assert!((half.tag_bps - full.tag_bps * 0.25).abs() < 1e-6);
    }
}
