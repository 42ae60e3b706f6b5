//! The tag's signal-acquisition pipeline: RF waveform → front-end
//! envelope → rectifier → ADC samples (paper §2.2).
//!
//! ## FM-to-AM conversion
//!
//! GFSK (BLE) and OQPSK (ZigBee) are constant-envelope modulations, yet
//! the paper's Fig. 5a shows all four protocols producing distinguishable
//! envelope shapes at the rectifier output. The physical mechanism is the
//! front end's frequency selectivity: the antenna + matching network has
//! a gain slope across the channel, so instantaneous-frequency excursions
//! (±250 kHz for BLE, ±500 kHz MSK-like for ZigBee chips) appear as
//! amplitude structure at the detector — classic slope detection. We
//! model this with a first-order gain slope [`FrontEnd::fm_slope`];
//! without it, BLE and ZigBee would be featureless and unidentifiable,
//! contradicting the measurements the paper reports.

use msc_analog::{dbm_to_envelope_volts, Adc, Rectifier};
use msc_dsp::{IqBuf, SampleRate};
use rand::Rng;

/// The tag's analog front end + ADC.
#[derive(Clone, Debug)]
pub struct FrontEnd {
    /// The rectifier circuit (default: the paper's clamp design).
    pub rectifier: Rectifier,
    /// The sampling ADC.
    pub adc: Adc,
    /// Fractional amplitude change per MHz of instantaneous frequency
    /// (matching-network slope).
    pub fm_slope: f64,
    /// RMS analog noise at the rectifier output, volts.
    pub noise_v: f64,
    /// Optional RF band-select filter bandwidth, Hz. The paper's tag is
    /// filterless ("multiscatter does not employ filters", §4.1.4) and
    /// suffers in time-domain collisions; this is its stated future-work
    /// fix — a narrow filter that keeps a BLE/ZigBee excitation visible
    /// under a colliding wideband WiFi burst.
    pub band_filter_hz: Option<f64>,
}

impl FrontEnd {
    /// The prototype front end at a given ADC rate (filterless, as the
    /// paper's hardware).
    pub fn prototype(adc_rate: SampleRate) -> Self {
        FrontEnd {
            rectifier: Rectifier::ours(),
            adc: Adc { rate: adc_rate, bits: 9, v_ref: 1.0 },
            fm_slope: 0.25,
            noise_v: 2e-3,
            band_filter_hz: None,
        }
    }

    /// Adds the future-work band-select filter.
    pub fn with_band_filter(mut self, bw_hz: f64) -> Self {
        assert!(bw_hz > 0.0);
        self.band_filter_hz = Some(bw_hz);
        self
    }

    /// Computes the effective RF envelope of a baseband waveform,
    /// including FM-to-AM conversion. Output is a unit-scale envelope
    /// (relative to the waveform's own amplitude).
    pub fn rf_envelope(&self, buf: &IqBuf) -> Vec<f64> {
        // Optional band selection before detection.
        let filtered;
        let samples = match self.band_filter_hz {
            Some(bw) if bw < buf.rate().as_hz() => {
                let cutoff = (bw / 2.0 / buf.rate().as_hz()).clamp(0.01, 0.45);
                // Tap count scales with 1/cutoff so the filter's impulse
                // response spans the same *time* regardless of the
                // input's sample rate — templates (built at a PHY's
                // native rate) and runtime signals (possibly on another
                // grid) then see the same analog filter.
                let n_taps = ((3.3 / cutoff).round() as usize).clamp(15, 255) | 1;
                let taps = msc_dsp::Fir::lowpass(cutoff, n_taps);
                filtered = taps.filter_same(buf.samples());
                &filtered[..]
            }
            _ => buf.samples(),
        };
        // |s|·max(0, 1 + slope·f), f the one-sample discriminator's
        // instantaneous frequency in MHz, on the vector kernel.
        msc_dsp::simd::fm_am_envelope(samples, buf.rate().as_hz(), self.fm_slope)
    }

    /// Full acquisition: [`FrontEnd::analog`] then [`FrontEnd::digitize`].
    /// Returns voltages at the ADC rate.
    pub fn acquire<R: Rng>(&self, rng: &mut R, buf: &IqBuf, incident_dbm: f64) -> Vec<f64> {
        self.digitize(&self.analog(rng, buf, incident_dbm))
    }

    /// The ADC-independent half of [`FrontEnd::acquire`]: scales the
    /// waveform to the given incident power, applies the rectifier and
    /// analog noise, and returns the rectifier output at the waveform's
    /// own rate. It reads no [`FrontEnd::adc`] field, so one analog
    /// trace serves every ADC configuration.
    pub fn analog<R: Rng>(&self, rng: &mut R, buf: &IqBuf, incident_dbm: f64) -> Analog {
        // Normalize waveform to unit RMS, then scale to incident volts.
        let rms = buf.mean_power().sqrt();
        let peak_v = dbm_to_envelope_volts(incident_dbm);
        let scale = if rms > 1e-20 { peak_v / rms } else { 0.0 };
        // One buffer from here on: scale, rectify and add noise in place.
        // Ripple draws all come before noise draws, one per sample each.
        let mut v = self.rf_envelope(buf);
        for e in &mut v {
            *e *= scale;
        }
        self.rectifier.run_in_place(rng, &mut v, buf.rate());
        let mut max = 0.0f64;
        if self.noise_v > 0.0 {
            // Analog noise at the rectifier output.
            let sigma = (self.noise_v * self.noise_v / 2.0).sqrt();
            for x in &mut v {
                *x = (*x + gaussian_re(rng, sigma)).max(0.0);
                max = max.max(*x);
            }
        } else {
            max = v.iter().copied().fold(max, f64::max);
        }
        Analog { volts: v, rate: buf.rate(), max }
    }

    /// The ADC half of [`FrontEnd::acquire`]: samples an analog trace
    /// with the reference tuned to its observed range. Draws nothing
    /// from an RNG.
    pub fn digitize(&self, analog: &Analog) -> Vec<f64> {
        let adc = self.adc.tuned_to(analog.max.max(1e-4));
        adc.sample(&analog.volts, analog.rate)
    }

    /// Noise-free acquisition used for template construction.
    pub fn acquire_clean(&self, buf: &IqBuf, incident_dbm: f64) -> Vec<f64> {
        // Deterministic: zero noise, zero ripple via a fixed-seed rng and
        // noiseless front end copy.
        let mut quiet = self.clone();
        quiet.noise_v = 0.0;
        let mut fe_rect = quiet.rectifier;
        fe_rect.f_carrier = 1e15; // suppress ripple
        quiet.rectifier = fe_rect;
        let mut rng = rand::rngs::mock::StepRng::new(0, 0);
        quiet.acquire(&mut rng, buf, incident_dbm)
    }
}

/// The rectifier output of one acquisition before the ADC
/// ([`FrontEnd::analog`]).
#[derive(Clone, Debug)]
pub struct Analog {
    /// Rectifier-output voltages, one per input sample.
    pub volts: Vec<f64>,
    /// The input waveform's sample rate.
    pub rate: SampleRate,
    /// The largest voltage in `volts` (0 when empty); the ADC reference
    /// is tuned to it.
    pub max: f64,
}

/// The real part of `msc_channel::awgn::complex_gaussian(rng, 2σ²)`,
/// bit for bit: the same two draws and the same `ln`, `sqrt` and `cos`,
/// but not the `sin` of the imaginary part nobody reads.
fn gaussian_re<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt() * sigma;
    r * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_dsp::Complex64;
    use msc_phy::gfsk::{Gfsk, GfskConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_re_is_complex_gaussian_re_bitwise() {
        let (mut a, mut b) = (StdRng::seed_from_u64(104), StdRng::seed_from_u64(104));
        for sigma2 in [4e-6, 1.0, 0.37] {
            let sigma = (sigma2 / 2.0f64).sqrt();
            for _ in 0..5000 {
                let want = msc_channel::awgn::complex_gaussian(&mut a, sigma2).re;
                assert_eq!(gaussian_re(&mut b, sigma).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn envelope_kernel_tracks_scalar_on_protocol_waveforms() {
        use crate::templates::canonical_waveform;
        use msc_dsp::simd::fm_am_envelope_scalar;
        use msc_phy::bits::{random_bits, random_bytes};
        use msc_phy::protocol::Protocol;
        // Each protocol's canonical waveform and two random packets.
        let mut rng = StdRng::seed_from_u64(106);
        let mut waves = Vec::new();
        for p in Protocol::ALL {
            waves.push(canonical_waveform(p));
            for _ in 0..2 {
                waves.push(match p {
                    Protocol::WifiB => msc_phy::wifi_b::WifiBModulator::new(Default::default())
                        .modulate(&random_bits(&mut rng, 160)),
                    Protocol::WifiN => msc_phy::wifi_n::WifiNModulator::new(Default::default())
                        .modulate(&random_bits(&mut rng, 320)),
                    Protocol::Ble => msc_phy::ble::BleModulator::new(Default::default())
                        .modulate(0x02, &random_bytes(&mut rng, 28)),
                    Protocol::ZigBee => msc_phy::zigbee::ZigBeeModulator::new(Default::default())
                        .modulate(&random_bytes(&mut rng, 36)),
                });
            }
        }
        for fm_slope in [0.0, 0.05, 0.25, 0.5] {
            let fe = FrontEnd { fm_slope, ..FrontEnd::prototype(SampleRate::ADC_FULL) };
            for wave in &waves {
                let got = fe.rf_envelope(wave);
                let want = fm_am_envelope_scalar(wave.samples(), wave.rate().as_hz(), fm_slope);
                assert_eq!(got.len(), want.len());
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (g - w).abs() <= 1e-12 * w.abs(),
                        "slope {fm_slope} at {:?}, sample {k}: {g:?} vs {w:?}",
                        wave.rate()
                    );
                }
            }
        }
    }

    #[test]
    fn fm_to_am_gives_gfsk_structure() {
        // Constant-envelope GFSK must acquire amplitude structure through
        // the slope detector.
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        let g = Gfsk::new(GfskConfig::default());
        let tx = g.modulate(&[0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1]);
        assert!((tx.papr() - 1.0).abs() < 1e-9, "input is constant envelope");
        let env = fe.rf_envelope(&tx);
        let mean = msc_dsp::stats::mean(&env);
        let sd = msc_dsp::stats::std_dev(&env);
        assert!(sd / mean > 0.02, "slope detection must create structure: {}", sd / mean);
    }

    #[test]
    fn zero_slope_keeps_gfsk_flat() {
        let mut fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        fe.fm_slope = 0.0;
        let g = Gfsk::new(GfskConfig::default());
        let tx = g.modulate(&[0, 1, 0, 1, 1, 0, 1, 0]);
        let env = fe.rf_envelope(&tx);
        let sd = msc_dsp::stats::std_dev(&env[4..]);
        assert!(sd < 1e-6, "without slope the GFSK envelope is flat: {sd}");
    }

    #[test]
    fn acquire_scales_with_incident_power() {
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        let buf = IqBuf::new(vec![Complex64::ONE; 4000], SampleRate::mhz(20.0));
        let mut rng = StdRng::seed_from_u64(101);
        let strong = fe.acquire(&mut rng, &buf, 0.0);
        let weak = fe.acquire(&mut rng, &buf, -20.0);
        let m = |v: &[f64]| msc_dsp::stats::mean(&v[100..]);
        assert!(m(&strong) > 3.0 * m(&weak), "strong {} weak {}", m(&strong), m(&weak));
    }

    #[test]
    fn acquire_output_rate_matches_adc() {
        let fe = FrontEnd::prototype(SampleRate::ADC_LOW);
        let buf = IqBuf::new(vec![Complex64::ONE; 8000], SampleRate::mhz(20.0));
        let mut rng = StdRng::seed_from_u64(102);
        let out = fe.acquire(&mut rng, &buf, -5.0);
        assert_eq!(out.len(), 1000); // 8000 / (20/2.5)
    }

    #[test]
    fn analog_stage_ignores_the_adc() {
        // One analog trace digitized at each rate must equal a fresh
        // acquisition at that rate, and leave the RNG in the same state.
        let g = Gfsk::new(GfskConfig::default());
        let tx = g.modulate(&[1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0]);
        let base = FrontEnd::prototype(SampleRate::ADC_FULL);
        let mut shared_rng = StdRng::seed_from_u64(105);
        let analog = base.analog(&mut shared_rng, &tx, -6.0);
        let next = shared_rng.gen::<u64>();
        for (rate, bits, v_ref) in [
            (SampleRate::ADC_FULL, 9, 1.0),
            (SampleRate::ADC_HALF, 9, 1.0),
            (SampleRate::ADC_LOW, 4, 0.5),
            (SampleRate::ADC_FLOOR, 12, 2.0),
        ] {
            let fe = FrontEnd { adc: Adc { rate, bits, v_ref }, ..base.clone() };
            let mut rng = StdRng::seed_from_u64(105);
            let want = fe.acquire(&mut rng, &tx, -6.0);
            assert_eq!(rng.gen::<u64>(), next, "the ADC must draw nothing");
            let got = fe.digitize(&analog);
            assert_eq!(got.len(), want.len());
            assert!(got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn clean_acquisition_is_deterministic() {
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        let g = Gfsk::new(GfskConfig::default());
        let tx = g.modulate(&[1, 0, 1, 1, 0, 0, 1, 0]);
        let a = fe.acquire_clean(&tx, -5.0);
        let b = fe.acquire_clean(&tx, -5.0);
        assert_eq!(a, b);
    }

    #[test]
    fn band_filter_suppresses_wideband_interference() {
        // A 1.5 MHz band filter keeps a slow (in-band) tone while
        // attenuating a fast (out-of-band) one — the primitive behind
        // collision protection for narrowband excitations.
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL).with_band_filter(1.5e6);
        let rate = SampleRate::mhz(20.0);
        let n = 4000;
        let inband: Vec<msc_dsp::Complex64> = (0..n)
            .map(|i| msc_dsp::Complex64::cis(std::f64::consts::TAU * 0.2e6 * i as f64 / 20e6))
            .collect();
        let outband: Vec<msc_dsp::Complex64> = (0..n)
            .map(|i| msc_dsp::Complex64::cis(std::f64::consts::TAU * 8e6 * i as f64 / 20e6))
            .collect();
        let e_in = fe.rf_envelope(&IqBuf::new(inband, rate));
        let e_out = fe.rf_envelope(&IqBuf::new(outband, rate));
        let p = |v: &[f64]| {
            msc_dsp::stats::mean(&v[500..3500].iter().map(|x| x * x).collect::<Vec<_>>())
        };
        assert!(p(&e_in) > 20.0 * p(&e_out), "in-band {} vs out-of-band {}", p(&e_in), p(&e_out));
    }

    #[test]
    fn below_sensitivity_yields_nothing() {
        // At -40 dBm incident the clamp drive never exceeds the diode
        // turn-on voltage: output is (quantization of) zero.
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        let buf = IqBuf::new(vec![Complex64::ONE; 2000], SampleRate::mhz(20.0));
        let mut rng = StdRng::seed_from_u64(103);
        let out = fe.acquire(&mut rng, &buf, -40.0);
        let mean = msc_dsp::stats::mean(&out);
        assert!(mean < 5e-3, "mean {mean}");
    }
}
