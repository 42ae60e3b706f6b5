//! ADC model: sampling-rate decimation, n-bit quantization against a
//! reference voltage, and FPGA-controlled EN duty cycling (paper §2.3,
//! notes 1 and 3).

use msc_dsp::rate::SampleRate;
use msc_dsp::simd::resample_quantize;

/// An ADC configuration (modeled on the AD9235 used by the prototype).
#[derive(Clone, Copy, Debug)]
pub struct Adc {
    /// Output sampling rate.
    pub rate: SampleRate,
    /// Resolution in bits (AD9235: 12; the identification path uses 9).
    pub bits: u32,
    /// Full-scale reference voltage. Tuning this to the input's actual
    /// range uses more output codes (paper §2.3 note 3).
    pub v_ref: f64,
}

impl Adc {
    /// The prototype's identification ADC: 20 Msps, 9-bit path.
    pub fn prototype() -> Self {
        Adc { rate: SampleRate::ADC_FULL, bits: 9, v_ref: 1.0 }
    }

    /// Returns a copy with the reference tuned to the given full-scale
    /// input (with 10% headroom).
    pub fn tuned_to(self, input_max: f64) -> Self {
        Adc { v_ref: (input_max * 1.1).max(1e-6), ..self }
    }

    /// Number of output codes.
    pub fn codes(&self) -> u32 {
        1 << self.bits
    }

    /// Quantizes one voltage to a code (saturating).
    pub fn quantize(&self, v: f64) -> u32 {
        let codes = self.codes() as f64;
        let x = v / self.v_ref * codes;
        // `floor(x) < 0` iff `x < 0`, `floor(x) > codes − 1` iff
        // `x >= codes`, and in between truncation is `floor`: the same
        // codes as flooring first, without a libm call per sample.
        if x < 0.0 {
            0
        } else if x >= codes {
            self.codes() - 1
        } else {
            x as u32
        }
    }

    /// Code → reconstructed voltage (mid-rise).
    pub fn dequantize(&self, code: u32) -> f64 {
        // `codes` is a power of two, so multiplying by its reciprocal is
        // exactly the division by it, without a division per sample.
        (code as f64 + 0.5) * (1.0 / self.codes() as f64) * self.v_ref
    }

    /// Samples an analog voltage sequence captured at `input_rate` down
    /// to the ADC rate and quantizes. Returns reconstructed voltages
    /// (quantization applied), which is what the FPGA matcher consumes.
    ///
    /// One fused pass (`msc_dsp::simd::resample_quantize`), `to_bits`-equal
    /// to `resample_linear` followed by [`Adc::quantize`] and
    /// [`Adc::dequantize`] per sample.
    pub fn sample(&self, analog: &[f64], input_rate: SampleRate) -> Vec<f64> {
        let ratio = input_rate.as_hz() / self.rate.as_hz();
        resample_quantize(analog, ratio, self.v_ref, self.codes())
    }

    /// Power draw in mW, scaling linearly with sample rate from the
    /// AD9235 datasheet point (260 mW at 20 Msps in the paper's Table 3 —
    /// dominated by the pipeline clock).
    pub fn power_mw(&self) -> f64 {
        260.0 * self.rate.as_hz() / 20e6
    }
}

/// Duty-cycled acquisition: the FPGA raises EN only while a matching
/// window is open, cutting ADC energy (paper §2.3 note 1).
#[derive(Clone, Copy, Debug)]
pub struct DutyCycler {
    /// Fraction of time the ADC is enabled (0, 1].
    pub duty: f64,
}

impl DutyCycler {
    /// Creates a duty cycler; panics outside (0, 1].
    pub fn new(duty: f64) -> Self {
        assert!(duty > 0.0 && duty <= 1.0, "duty must be in (0,1], got {duty}");
        DutyCycler { duty }
    }

    /// Duty computed from a matching-window length and the average gap
    /// between packet arrivals.
    pub fn from_window(window_s: f64, mean_gap_s: f64) -> Self {
        DutyCycler::new((window_s / (window_s + mean_gap_s)).clamp(1e-9, 1.0))
    }

    /// Average ADC power under duty cycling.
    pub fn average_power_mw(&self, adc: &Adc) -> f64 {
        adc.power_mw() * self.duty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_saturates_and_rounds() {
        let adc = Adc { rate: SampleRate::ADC_FULL, bits: 4, v_ref: 1.6 };
        assert_eq!(adc.codes(), 16);
        assert_eq!(adc.quantize(-0.5), 0);
        assert_eq!(adc.quantize(2.0), 15);
        assert_eq!(adc.quantize(0.1), 1); // 0.1/1.6*16 = 1.0
        assert!((adc.dequantize(1) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn dequantize_matches_division_bitwise() {
        for bits in 1..=16 {
            for v_ref in [1.0, 0.37, 1.1e-6, 3.3] {
                let adc = Adc { rate: SampleRate::ADC_FULL, bits, v_ref };
                for code in 0..adc.codes() {
                    let divided = (code as f64 + 0.5) / adc.codes() as f64 * v_ref;
                    assert_eq!(adc.dequantize(code).to_bits(), divided.to_bits());
                }
            }
        }
    }

    #[test]
    fn quantize_matches_floor_definition() {
        let adc = Adc { rate: SampleRate::ADC_FULL, bits: 9, v_ref: 0.3 };
        let floor_quantize = |v: f64| {
            let max_code = adc.codes() - 1;
            let x = (v / adc.v_ref * adc.codes() as f64).floor();
            if x < 0.0 {
                0
            } else if x > max_code as f64 {
                max_code
            } else {
                x as u32
            }
        };
        let edges = [-1.0, -1e-300, -0.0, 0.0, 1e-300, 0.3, 0.3 * 511.0 / 512.0, 0.29999, 1.0];
        let sweep = (0..10_000).map(|i| i as f64 * 4e-5 - 0.05);
        for v in edges.into_iter().chain(sweep).chain([f64::INFINITY, f64::NEG_INFINITY, f64::NAN])
        {
            assert_eq!(adc.quantize(v), floor_quantize(v), "v {v}");
        }
    }

    #[test]
    fn sample_is_resample_then_quantize_bitwise() {
        // The fused pass against its definition, at every ADC rate from
        // an 8 MHz and a 20 MHz input, with inputs below 0 and above the
        // reference.
        let input: Vec<f64> = (0..997).map(|i| 0.45 * (i as f64 * 0.037).sin() + 0.1).collect();
        for from in [SampleRate::mhz(8.0), SampleRate::ADC_FULL] {
            for rate in [
                SampleRate::ADC_FULL,
                SampleRate::ADC_HALF,
                SampleRate::ADC_LOW,
                SampleRate::ADC_FLOOR,
            ] {
                for bits in [1, 4, 9, 12] {
                    let adc = Adc { rate, bits, v_ref: 0.5 };
                    let want: Vec<f64> = msc_dsp::resample::resample_linear(&input, from, rate)
                        .into_iter()
                        .map(|v| adc.dequantize(adc.quantize(v)))
                        .collect();
                    let got = adc.sample(&input, from);
                    assert_eq!(got.len(), want.len());
                    assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
                }
            }
        }
    }

    #[test]
    fn tuned_reference_uses_more_codes() {
        // Paper note 3: matching V_ref to the signal range improves code
        // utilization.
        let wide = Adc { rate: SampleRate::ADC_FULL, bits: 9, v_ref: 1.0 };
        let tuned = wide.tuned_to(0.2);
        let signal = 0.19;
        assert!(tuned.quantize(signal) > 4 * wide.quantize(signal));
    }

    #[test]
    fn quantization_error_bounded_by_lsb() {
        let adc = Adc::prototype().tuned_to(0.3);
        let lsb = adc.v_ref / adc.codes() as f64;
        for i in 0..100 {
            let v = i as f64 * 0.003;
            let err = (adc.dequantize(adc.quantize(v)) - v).abs();
            assert!(err <= lsb, "err {err} at v {v}");
        }
    }

    #[test]
    fn sampling_decimates() {
        let adc = Adc { rate: SampleRate::ADC_LOW, bits: 9, v_ref: 1.0 };
        let input: Vec<f64> = (0..800).map(|i| (i as f64 * 0.01).sin().abs()).collect();
        let out = adc.sample(&input, SampleRate::ADC_FULL);
        assert_eq!(out.len(), 100); // 20 → 2.5 Msps = /8
    }

    #[test]
    fn power_scales_with_rate() {
        let full = Adc::prototype();
        assert!((full.power_mw() - 260.0).abs() < 1e-9);
        let low = Adc { rate: SampleRate::ADC_LOW, ..full };
        assert!((low.power_mw() - 32.5).abs() < 1e-9);
    }

    #[test]
    fn duty_cycling_cuts_average_power() {
        let adc = Adc::prototype();
        let dc = DutyCycler::from_window(40e-6, 460e-6);
        assert!((dc.duty - 0.08).abs() < 1e-9);
        assert!((dc.average_power_mw(&adc) - 20.8).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_duty_rejected() {
        let _ = DutyCycler::new(0.0);
    }
}
