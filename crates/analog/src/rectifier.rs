//! Behavioral envelope-detector (rectifier) models — the paper's §2.2.1.
//!
//! Three variants are modeled:
//!
//! * [`RectifierKind::Basic`] — single diode + RC (Fig. 3a). Output dead
//!   zone below the diode turn-on voltage.
//! * [`RectifierKind::Clamp`] — the paper's design (Fig. 3c): a clamp
//!   stage level-shifts the input so the full swing reaches the
//!   rectifying diode, with an RC tuned for 20 MHz basebands.
//! * [`RectifierKind::Wisp`] — a WISP-5-like reference tuned for
//!   40–160 kbps RFID basebands; its large time constant smears
//!   high-bandwidth signals (Fig. 4b).
//!
//! The model runs in the *envelope domain*: the input is the RF envelope
//! `e(t) = |x(t)|` in volts and the carrier only contributes ripple,
//! which is added explicitly (amplitude ∝ 1/(f_c·τ)).

use msc_dsp::rate::SampleRate;
use rand::Rng;

/// Which circuit to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RectifierKind {
    /// Single-diode rectifier (Fig. 3a).
    Basic,
    /// Clamp + tuned RC — the paper's high-bandwidth design (Fig. 3c).
    Clamp,
    /// WISP-style low-bandwidth reference.
    Wisp,
}

/// Rectifier circuit parameters.
#[derive(Clone, Copy, Debug)]
pub struct Rectifier {
    /// Circuit variant.
    pub kind: RectifierKind,
    /// Rectifying-diode turn-on voltage (Schottky ≈ 0.15–0.3 V).
    pub v_on: f64,
    /// Clamp-diode turn-on voltage (only used by [`RectifierKind::Clamp`]).
    pub v_clamp: f64,
    /// Discharge time constant τ = R1·C1, seconds.
    pub tau: f64,
    /// Charging time constant (diode + source impedance), seconds.
    pub tau_charge: f64,
    /// Carrier frequency, Hz (sets ripple amplitude).
    pub f_carrier: f64,
}

impl Rectifier {
    /// The paper's clamp rectifier: τ chosen per `1/f_c ≪ τ ≪ 1/f_b`
    /// with `f_c = 2.4 GHz`, `f_b = 20 MHz` (§2.2.1) → τ ≈ 12 ns.
    pub fn ours() -> Self {
        Rectifier {
            kind: RectifierKind::Clamp,
            v_on: 0.15,
            // Low-barrier Schottky at the microamp currents involved:
            // ~50 mV forward drop.
            v_clamp: 0.05,
            tau: 12e-9,
            tau_charge: 3e-9,
            f_carrier: 2.44e9,
        }
    }

    /// A plain single-diode rectifier with the same RC as [`Self::ours`].
    pub fn basic() -> Self {
        Rectifier { kind: RectifierKind::Basic, ..Rectifier::ours() }
    }

    /// WISP-like rectifier: τ sized for ≤160 kbps basebands (≈ 2 µs),
    /// which distorts 11 Mcps DSSS heavily.
    pub fn wisp() -> Self {
        Rectifier {
            kind: RectifierKind::Wisp,
            v_on: 0.15,
            v_clamp: 0.0,
            tau: 2e-6,
            tau_charge: 150e-9,
            f_carrier: 2.44e9,
        }
    }

    /// Effective voltage presented to the rectifying diode for an input
    /// envelope `e` (volts).
    fn drive(&self, e: f64) -> f64 {
        match self.kind {
            // Clamp roughly doubles the usable swing: the waveform rides
            // on −V_D1 instead of being centered, so the peak seen by the
            // rectifying diode is ≈ 2e − V_D1 (Fig. 4a).
            RectifierKind::Clamp => (2.0 * e - self.v_clamp).max(0.0),
            RectifierKind::Basic | RectifierKind::Wisp => e,
        }
    }

    /// Runs the rectifier over an envelope sequence at `rate`, returning
    /// the output voltage sequence. `rng` supplies ripple noise: one
    /// draw per element, in order ([`draw_ripple`]).
    pub fn run<R: Rng>(&self, rng: &mut R, envelope: &[f64], rate: SampleRate) -> Vec<f64> {
        let mut ripple = vec![0.0; envelope.len()];
        draw_ripple(rng, &mut ripple);
        let mut out = envelope.to_vec();
        self.run_with_ripple(&mut out, &ripple, rate);
        out
    }

    /// The rectifier loop on pre-drawn ripple: `ripple[k]`, a uniform in
    /// `[-0.5, 0.5)` ([`draw_ripple`]), scales sample `k`'s carrier
    /// ripple. The draws do not depend on the circuit, so one set of
    /// them serves every rectifier a waveform is run through.
    pub fn run_with_ripple(&self, buf: &mut [f64], ripple: &[f64], rate: SampleRate) {
        assert_eq!(buf.len(), ripple.len(), "one ripple draw per sample");
        let dt = rate.period();
        // Per-step smoothing coefficients.
        let a_charge = 1.0 - (-dt / self.tau_charge).exp();
        let a_dis = 1.0 - (-dt / self.tau).exp();
        // Ripple fraction of the output voltage.
        let frac = (1.0 / (self.f_carrier * self.tau)).min(0.2);
        let mut v = 0.0f64;
        for (x, &u) in buf.iter_mut().zip(ripple) {
            let drive = self.drive(x.max(0.0));
            let target = (drive - self.v_on).max(0.0);
            if target > v {
                v += (target - v) * a_charge;
            } else {
                v -= v * a_dis;
            }
            let noise = v * frac * u;
            *x = (v + noise).max(0.0);
        }
    }

    /// Maximum steady-state output for a constant input envelope `e`.
    pub fn steady_state(&self, e: f64) -> f64 {
        (self.drive(e) - self.v_on).max(0.0)
    }
}

/// Fills `ripple` with the rectifier's ripple uniforms, one
/// `rng.gen_range(-0.5..0.5)` per element, in order.
pub fn draw_ripple<R: Rng>(rng: &mut R, ripple: &mut [f64]) {
    // An index loop into a pre-sized buffer: collecting a `map` over
    // the draws measured a quarter slower.
    for u in ripple {
        *u = rng.gen_range(-0.5..0.5);
    }
}

/// Converts incident RF power (dBm) at a matched antenna (R = 50 Ω) into
/// the peak envelope voltage the rectifier sees.
pub fn dbm_to_envelope_volts(p_dbm: f64) -> f64 {
    let watts = 10f64.powf(p_dbm / 10.0) * 1e-3;
    (2.0 * watts * 50.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rate() -> SampleRate {
        SampleRate::mhz(20.0)
    }

    #[test]
    fn dbm_to_volts_known_points() {
        // -13 dBm (tag sensitivity) → ≈ 70 mV peak at 50 Ω.
        let v = dbm_to_envelope_volts(-13.0);
        assert!((v - 0.0708).abs() < 0.001, "v {v}");
        // 0 dBm → 316 mV.
        assert!((dbm_to_envelope_volts(0.0) - 0.3162).abs() < 0.001);
    }

    #[test]
    fn clamp_beats_basic_at_low_drive() {
        // Below the diode turn-on voltage the basic rectifier outputs
        // nothing; the clamp still produces signal (Fig. 4a).
        let e = 0.12; // volts, below v_on = 0.15
        assert_eq!(Rectifier::basic().steady_state(e), 0.0);
        assert!(Rectifier::ours().steady_state(e) > 0.0);
    }

    #[test]
    fn clamp_output_larger_everywhere() {
        for &e in &[0.1, 0.2, 0.5, 1.0] {
            assert!(Rectifier::ours().steady_state(e) >= Rectifier::basic().steady_state(e));
        }
    }

    #[test]
    fn tracks_fast_envelope_ours_but_not_wisp() {
        // A 1 MHz square envelope (like 11b chip structure): our
        // rectifier must follow the dips, WISP must smear them.
        let mut rng = StdRng::seed_from_u64(91);
        let n = 2000;
        let envelope: Vec<f64> =
            (0..n).map(|i| if (i / 10) % 2 == 0 { 0.5 } else { 0.15 }).collect();
        let ours = Rectifier::ours().run(&mut rng, &envelope, rate());
        let wisp = Rectifier::wisp().run(&mut rng, &envelope, rate());
        let swing = |v: &[f64]| {
            let hi = v[1000..].iter().cloned().fold(0.0f64, f64::max);
            let lo = v[1000..].iter().cloned().fold(f64::INFINITY, f64::min);
            hi - lo
        };
        let ours_swing = swing(&ours);
        let wisp_swing = swing(&wisp);
        assert!(
            ours_swing > 5.0 * wisp_swing,
            "ours {ours_swing} wisp {wisp_swing}: WISP must smear the 1 MHz structure"
        );
    }

    #[test]
    fn discharge_follows_tau() {
        // Drive to steady state then drop the input: output must decay
        // roughly exponentially with τ.
        let mut rng = StdRng::seed_from_u64(92);
        let mut r = Rectifier::wisp();
        r.f_carrier = 1e12; // suppress ripple for this numeric check
        let mut envelope = vec![1.0; 500];
        envelope.extend(vec![0.0; 500]);
        let out = r.run(&mut rng, &envelope, rate());
        let v0 = out[499];
        // After tau seconds (= 40 samples at 20 Msps for τ = 2 µs), the
        // voltage should be near v0/e.
        let v_tau = out[499 + 40];
        assert!((v_tau / v0 - (-1.0f64).exp()).abs() < 0.05, "ratio {}", v_tau / v0);
    }

    #[test]
    fn output_is_nonnegative() {
        let mut rng = StdRng::seed_from_u64(93);
        let envelope: Vec<f64> = (0..500).map(|i| ((i as f64) * 0.1).sin().abs() * 0.3).collect();
        for r in [Rectifier::ours(), Rectifier::basic(), Rectifier::wisp()] {
            assert!(r.run(&mut rng, &envelope, rate()).iter().all(|&v| v >= 0.0));
        }
    }
}
