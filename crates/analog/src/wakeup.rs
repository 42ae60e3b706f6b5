//! Wake-up receiver model — the paper's §2.3 note 1: "Further power
//! saving can be made by introducing an additional wake-up module,
//! like \[30\]" (Roberts et al., ISSCC'16: a 236 nW BLE wake-up receiver
//! with −56.5 dBm sensitivity).
//!
//! The wake-up stage is always on; the ADC + identification FPGA wake
//! only while RF energy above the wake threshold is present, so the
//! duty cycle of the expensive stages collapses to the excitation's
//! airtime fraction.

/// A nanowatt wake-up receiver gating the acquisition chain.
#[derive(Clone, Copy, Debug)]
pub struct WakeUpReceiver {
    /// Always-on power draw, watts (Roberts et al.: 236 nW).
    pub standby_w: f64,
    /// RF level that triggers a wake, dBm (−56.5 dBm in \[30\]).
    pub sensitivity_dbm: f64,
    /// Extra time the chain stays awake after a trigger, seconds
    /// (covers the matching window and turn-on transients).
    pub hold_s: f64,
}

impl WakeUpReceiver {
    /// The ISSCC'16 design the paper cites.
    pub fn roberts_isscc16() -> Self {
        WakeUpReceiver { standby_w: 236e-9, sensitivity_dbm: -56.5, hold_s: 50e-6 }
    }

    /// Whether an excitation at `incident_dbm` triggers a wake.
    pub fn triggers(&self, incident_dbm: f64) -> bool {
        incident_dbm >= self.sensitivity_dbm
    }

    /// Awake duty cycle for an excitation stream of `pkt_rate` packets/s
    /// with `airtime_s` per packet (capped at 1).
    pub fn duty(&self, pkt_rate: f64, airtime_s: f64) -> f64 {
        (pkt_rate * (airtime_s + self.hold_s)).clamp(0.0, 1.0)
    }

    /// Average acquisition-chain power with wake-up gating: the standby
    /// draw plus the gated stages (`active_w`) at the excitation duty.
    pub fn average_power_w(&self, active_w: f64, pkt_rate: f64, airtime_s: f64) -> f64 {
        self.standby_w + active_w * self.duty(pkt_rate, airtime_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cited_design_parameters() {
        let w = WakeUpReceiver::roberts_isscc16();
        assert_eq!(w.standby_w, 236e-9);
        assert!(w.triggers(-50.0));
        assert!(!w.triggers(-60.0));
    }

    #[test]
    fn duty_tracks_excitation_and_saturates() {
        let w = WakeUpReceiver::roberts_isscc16();
        // 2000 pkts/s of 404 µs 11n frames: duty ≈ 0.9.
        let d = w.duty(2000.0, 404e-6);
        assert!((d - 0.908).abs() < 0.01, "duty {d}");
        // 20 pkts/s ZigBee: duty ≈ 0.13.
        assert!((w.duty(20.0, 6.4e-3) - 0.129).abs() < 0.01);
        // Saturation.
        assert_eq!(w.duty(1e6, 1.0), 1.0);
    }

    #[test]
    fn sparse_excitation_slashes_average_power() {
        // The Table-3 acquisition chain is 262.5 mW; under 70 pkts/s BLE
        // advertising (376 µs frames), wake-up gating cuts it ~30×.
        let w = WakeUpReceiver::roberts_isscc16();
        let always_on = 262.5e-3;
        let gated = w.average_power_w(always_on, 70.0, 376e-6);
        assert!(gated < always_on / 30.0, "gated {gated}");
        // The standby draw itself is negligible at this scale.
        assert!(w.standby_w < gated / 100.0);
    }
}
