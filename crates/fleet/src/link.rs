//! Calibrated link abstraction: per-protocol PER-vs-SNR curves sampled
//! from the full waveform pipeline, interpolated at fleet scale.
//!
//! The fleet engine resolves millions of packet outcomes per run; pushing
//! each through DSSS/OFDM/GFSK synthesis would cost minutes per carrier
//! packet-second. Instead the `fleet` runner *calibrates* a [`LinkTable`]
//! once — a handful of full-pipeline Monte-Carlo cells per protocol at
//! representative SNRs — and the engine thereafter draws Bernoulli
//! outcomes against the interpolated curve.

use msc_phy::protocol::Protocol;

/// One calibrated point: packet error rate measured at an SNR.
#[derive(Clone, Copy, Debug)]
pub struct PerPoint {
    /// Uplink SNR at the receiver, dB.
    pub snr_db: f64,
    /// Packet error rate observed at that SNR, in `[0, 1]`.
    pub per: f64,
}

/// Per-protocol PER-vs-SNR curves with linear interpolation and
/// flat extrapolation beyond the sampled range.
#[derive(Clone, Debug, Default)]
pub struct LinkTable {
    curves: [Vec<PerPoint>; 4],
}

impl LinkTable {
    /// An empty table. Protocols without points report PER 1.0 —
    /// an uncalibrated link delivers nothing, loudly.
    pub fn new() -> Self {
        Self::default()
    }

    /// A lossless table (PER 0 everywhere) — for benches and MAC-only
    /// experiments where contention, not the channel, is under study.
    pub fn ideal() -> Self {
        let mut t = Self::new();
        for p in Protocol::ALL {
            t.insert(p, -40.0, 0.0);
            t.insert(p, 40.0, 0.0);
        }
        t
    }

    /// Adds a calibrated point, keeping the protocol's curve sorted by
    /// SNR. PER is clamped into `[0, 1]`.
    pub fn insert(&mut self, p: Protocol, snr_db: f64, per: f64) {
        let curve = &mut self.curves[p.index()];
        let point = PerPoint { snr_db, per: per.clamp(0.0, 1.0) };
        let at = curve.partition_point(|q| q.snr_db < snr_db);
        curve.insert(at, point);
    }

    /// Number of calibrated points for `p`.
    pub fn points(&self, p: Protocol) -> usize {
        self.curves[p.index()].len()
    }

    /// Packet error rate for protocol `p` at `snr_db`: linear
    /// interpolation between the two bracketing points, clamped to the
    /// end values outside the sampled range, 1.0 when uncalibrated.
    pub fn per(&self, p: Protocol, snr_db: f64) -> f64 {
        let curve = &self.curves[p.index()];
        match curve.len() {
            0 => 1.0,
            1 => curve[0].per,
            _ => {
                if snr_db <= curve[0].snr_db {
                    return curve[0].per;
                }
                let last = curve[curve.len() - 1];
                if snr_db >= last.snr_db {
                    return last.per;
                }
                let hi = curve.partition_point(|q| q.snr_db < snr_db);
                let (a, b) = (curve[hi - 1], curve[hi]);
                let span = b.snr_db - a.snr_db;
                if span <= 0.0 {
                    return a.per.min(b.per);
                }
                let w = (snr_db - a.snr_db) / span;
                a.per + w * (b.per - a.per)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncalibrated_protocol_loses_everything() {
        let t = LinkTable::new();
        assert_eq!(t.per(Protocol::Ble, 20.0), 1.0);
    }

    #[test]
    fn ideal_table_loses_nothing() {
        let t = LinkTable::ideal();
        for p in Protocol::ALL {
            assert_eq!(t.per(p, -10.0), 0.0);
            assert_eq!(t.per(p, 35.0), 0.0);
        }
    }

    #[test]
    fn interpolation_and_clamping() {
        let mut t = LinkTable::new();
        // Inserted out of order on purpose.
        t.insert(Protocol::ZigBee, 10.0, 0.1);
        t.insert(Protocol::ZigBee, 0.0, 0.9);
        assert_eq!(t.points(Protocol::ZigBee), 2);
        assert!((t.per(Protocol::ZigBee, 5.0) - 0.5).abs() < 1e-12, "midpoint");
        assert_eq!(t.per(Protocol::ZigBee, -5.0), 0.9, "clamped low");
        assert_eq!(t.per(Protocol::ZigBee, 25.0), 0.1, "clamped high");
        // Other protocols stay uncalibrated.
        assert_eq!(t.per(Protocol::WifiB, 5.0), 1.0);
    }

    #[test]
    fn single_point_is_flat() {
        let mut t = LinkTable::new();
        t.insert(Protocol::WifiN, 12.0, 0.25);
        assert_eq!(t.per(Protocol::WifiN, -3.0), 0.25);
        assert_eq!(t.per(Protocol::WifiN, 30.0), 0.25);
    }

    #[test]
    fn per_is_clamped_on_insert() {
        let mut t = LinkTable::new();
        t.insert(Protocol::Ble, 0.0, 1.7);
        t.insert(Protocol::Ble, 10.0, -0.3);
        assert_eq!(t.per(Protocol::Ble, 0.0), 1.0);
        assert_eq!(t.per(Protocol::Ble, 10.0), 0.0);
    }
}
