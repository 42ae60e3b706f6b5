//! Pre-stored identification templates (paper §2.2.2).
//!
//! A template is the tag's noise-free acquisition of a protocol's
//! deterministic packet-detection field, split into a preprocessing
//! window of `L_p` samples (DC removal / normalization) and a matching
//! window of `L_m` samples (correlation).
//!
//! Window extension (paper §2.3.2): the standard window is the 8 µs BLE
//! preamble; the extended 40 µs window additionally covers the BLE
//! advertising access address and the 802.11n HT-STF/HT-LTF fields,
//! which are equally deterministic.

use crate::envelope::FrontEnd;
use msc_dsp::{IqBuf, SampleRate};
use msc_phy::ble::{BleConfig, BleModulator};
use msc_phy::protocol::Protocol;
use msc_phy::wifi_b::{WifiBConfig, WifiBModulator};
use msc_phy::wifi_n::{WifiNConfig, WifiNModulator};
use msc_phy::zigbee::{ZigBeeConfig, ZigBeeModulator};

/// Template window configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TemplateConfig {
    /// ADC sampling rate the templates are stored at.
    pub adc_rate: SampleRate,
    /// Preprocessing-window length in samples (`L_p`).
    pub l_p: usize,
    /// Matching-window length in samples (`L_m`, the "template size").
    pub l_m: usize,
}

impl TemplateConfig {
    /// The paper's full-rate configuration: 20 Msps, `L_p = 40`,
    /// `L_m = 120` (Fig. 5b), filling the 8 µs BLE preamble.
    pub fn full_rate() -> Self {
        TemplateConfig { adc_rate: SampleRate::ADC_FULL, l_p: 40, l_m: 120 }
    }

    /// A window at `rate` spanning `window_us` microseconds with the
    /// paper's 1:3 preprocessing:matching split.
    pub fn for_window(rate: SampleRate, window_us: f64) -> Self {
        let total = rate.samples_in(window_us * 1e-6).max(4);
        let l_p = (total / 4).max(1);
        TemplateConfig { adc_rate: rate, l_p, l_m: total - l_p }
    }

    /// The standard (8 µs) window at `rate`.
    pub fn standard(rate: SampleRate) -> Self {
        Self::for_window(rate, 8.0)
    }

    /// The extended (40 µs) window at `rate` (paper §2.3.2).
    pub fn extended(rate: SampleRate) -> Self {
        Self::for_window(rate, 40.0)
    }

    /// Total window length in samples.
    pub fn total(&self) -> usize {
        self.l_p + self.l_m
    }
}

/// One protocol's stored template.
#[derive(Clone, Debug)]
pub struct Template {
    /// The protocol this template detects.
    pub protocol: Protocol,
    /// Normalized (zero-mean, unit-RMS) matching window.
    pub normalized: Vec<f64>,
    /// 1-bit quantized matching window (±1).
    pub quantized: Vec<i8>,
    /// The same ±1 window bit-packed 64 signs per word, so the quantized
    /// correlation runs as XOR + popcount (built once here instead of
    /// re-deriving per matched window).
    pub packed: msc_dsp::corr::PackedBits,
}

/// The tag's template bank.
#[derive(Clone, Debug)]
pub struct TemplateBank {
    config: TemplateConfig,
    templates: Vec<Template>,
}

/// Builds the canonical (deterministic-field) waveform for a protocol —
/// a representative packet whose detection field is what every packet of
/// that protocol shares.
pub fn canonical_waveform(protocol: Protocol) -> IqBuf {
    match protocol {
        Protocol::WifiB => {
            let bits = vec![1u8, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1];
            WifiBModulator::new(WifiBConfig::default()).modulate(&bits)
        }
        Protocol::WifiN => {
            let bits: Vec<u8> = (0..96).map(|i| ((i * 5) % 3 == 0) as u8).collect();
            WifiNModulator::new(WifiNConfig::default()).modulate(&bits)
        }
        Protocol::Ble => {
            let payload: Vec<u8> = (0..24).map(|i| (i as u8).wrapping_mul(37)).collect();
            BleModulator::new(BleConfig::default()).modulate(0x02, &payload)
        }
        Protocol::ZigBee => {
            let psdu: Vec<u8> = (0..30).map(|i| (i as u8).wrapping_mul(53)).collect();
            ZigBeeModulator::new(ZigBeeConfig::default()).modulate(&psdu)
        }
    }
}

/// Finds the packet-start index in an acquired sample sequence: the
/// first point where a short moving average exceeds 40% of the 90th
/// percentile level. Using a percentile instead of the maximum keeps
/// high-PAPR protocols (OFDM) from dragging the threshold up to an
/// outlier peak, and the smoothing rejects single-sample noise spikes.
pub fn detect_start(samples: &[f64]) -> Option<usize> {
    if samples.len() < 4 {
        return None;
    }
    let level = msc_dsp::stats::percentile(samples, 90.0);
    if level.is_nan() || level <= 0.0 {
        return None;
    }
    let thresh = 0.4 * level;
    let w = 4;
    let mut acc: f64 = samples[..w].iter().sum();
    if acc / w as f64 > thresh {
        return Some(0);
    }
    for i in w..samples.len() {
        acc += samples[i] - samples[i - w];
        if acc / w as f64 > thresh {
            return Some(i + 1 - w);
        }
    }
    None
}

impl TemplateBank {
    /// Builds templates for all four protocols through the given front
    /// end (noise-free acquisition at a reference incident power).
    pub fn build(front_end: &FrontEnd, config: TemplateConfig) -> Self {
        Self::build_inner(front_end, config, None)
    }

    /// Builds templates with every canonical waveform first brought onto
    /// a common RF sampling grid. Required when the front end includes a
    /// band filter: the analog filter acts on the *one* RF signal the
    /// tag sees, so the templates must be rendered on the same grid the
    /// runtime signals will use (otherwise the filter's discrete
    /// response differs between template and signal).
    pub fn build_at_rf_rate(
        front_end: &FrontEnd,
        config: TemplateConfig,
        rf_rate: msc_dsp::SampleRate,
    ) -> Self {
        Self::build_inner(front_end, config, Some(rf_rate))
    }

    fn build_inner(
        front_end: &FrontEnd,
        config: TemplateConfig,
        rf_rate: Option<msc_dsp::SampleRate>,
    ) -> Self {
        assert_eq!(
            front_end.adc.rate, config.adc_rate,
            "front-end ADC rate must match the template rate"
        );
        let _build = msc_obs::profile::scope("id.bank_build");
        let templates = Protocol::ALL
            .iter()
            .map(|&p| {
                let wave = match rf_rate {
                    Some(r) => msc_dsp::resample::upsample_iq_clean(&canonical_waveform(p), r),
                    None => canonical_waveform(p),
                };
                let acquired = front_end.acquire_clean(&wave, -5.0);
                let start = detect_start(&acquired).expect("canonical packet must be visible");
                let window: Vec<f64> =
                    acquired.iter().skip(start).take(config.total()).copied().collect();
                assert!(
                    window.len() == config.total(),
                    "canonical {p} packet shorter than the window"
                );
                let dc = msc_dsp::corr::dc_estimate(&window[..config.l_p]);
                let body = &window[config.l_p..];
                let rms = msc_dsp::corr::rms_about(body, dc);
                let quantized = msc_dsp::corr::sign_quantize(body, dc);
                let packed = msc_dsp::corr::PackedBits::from_signs(&quantized);
                Template {
                    protocol: p,
                    normalized: msc_dsp::corr::normalize_window(body, dc, rms),
                    quantized,
                    packed,
                }
            })
            .collect();
        TemplateBank { config, templates }
    }

    /// The window configuration.
    pub fn config(&self) -> TemplateConfig {
        self.config
    }

    /// All templates, in [`Protocol::ALL`] order.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// The template for one protocol.
    pub fn get(&self, p: Protocol) -> &Template {
        self.templates.iter().find(|t| t.protocol == p).expect("bank holds all four protocols")
    }

    /// Storage cost in bits of the quantized templates (paper §2.3 note
    /// 2: four extended templates cost ~400 bits of the 36 kb FPGA
    /// memory).
    pub fn storage_bits(&self) -> usize {
        self.templates.iter().map(|t| t.quantized.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn front_end(rate: SampleRate) -> FrontEnd {
        FrontEnd::prototype(rate)
    }

    #[test]
    fn full_rate_config_matches_paper() {
        let c = TemplateConfig::full_rate();
        assert_eq!(c.total(), 160); // 8 µs at 20 Msps
        assert_eq!(c.l_p, 40);
        assert_eq!(c.l_m, 120);
    }

    #[test]
    fn window_scaling_across_rates() {
        let c = TemplateConfig::standard(SampleRate::ADC_LOW);
        assert_eq!(c.total(), 20); // 8 µs at 2.5 Msps
        let e = TemplateConfig::extended(SampleRate::ADC_LOW);
        assert_eq!(e.total(), 100); // 40 µs at 2.5 Msps
    }

    #[test]
    fn bank_builds_all_four() {
        let fe = front_end(SampleRate::ADC_FULL);
        let bank = TemplateBank::build(&fe, TemplateConfig::full_rate());
        assert_eq!(bank.templates().len(), 4);
        for t in bank.templates() {
            assert_eq!(t.normalized.len(), 120);
            assert_eq!(t.quantized.len(), 120);
            assert!(t.quantized.iter().all(|&q| q == 1 || q == -1));
            // The packed form agrees with the scalar quantized window.
            assert_eq!(t.packed.len(), 120);
            assert_eq!(t.packed.corr(&t.packed), 120);
            assert_eq!(t.packed.corr(&msc_dsp::corr::PackedBits::from_signs(&t.quantized)), 120);
        }
    }

    #[test]
    fn templates_are_mutually_distinguishable() {
        // Cross-correlation between different protocols' templates must be
        // clearly below autocorrelation (= 1).
        let fe = front_end(SampleRate::ADC_FULL);
        let bank = TemplateBank::build(&fe, TemplateConfig::full_rate());
        for a in bank.templates() {
            for b in bank.templates() {
                let c = msc_dsp::corr::normalized_corr(&a.normalized, &b.normalized);
                if a.protocol == b.protocol {
                    assert!((c - 1.0).abs() < 1e-9);
                } else {
                    assert!(c < 0.8, "{} vs {} correlate {c}", a.protocol, b.protocol);
                }
            }
        }
    }

    #[test]
    fn storage_cost_matches_paper_scale() {
        // Paper §2.3 note 2: four extended templates ≈ 400 bits at
        // 2.5 Msps (40 µs → 100 samples each → 75-sample matching window
        // in our 1:3 split; 4 × 75 = 300 bits ≤ 1.1% of 36 kb).
        let rate = SampleRate::ADC_LOW;
        let fe = front_end(rate);
        let bank = TemplateBank::build(&fe, TemplateConfig::extended(rate));
        let bits = bank.storage_bits();
        assert!(bits <= 400, "storage {bits} bits");
        assert!((bits as f64) / 36_000.0 < 0.012);
    }

    #[test]
    fn detect_start_finds_edge() {
        let mut v = vec![0.0; 50];
        v.extend(vec![0.5; 50]);
        // The moving-average detector may fire up to w−1 samples early;
        // the matcher's lag search absorbs that.
        let got = detect_start(&v).unwrap();
        assert!((47..=51).contains(&got), "got {got}");
        assert_eq!(detect_start(&[0.0; 10]), None);
    }

    #[test]
    fn detect_start_ignores_papr_outlier() {
        // A lone huge spike late in the packet must not drag the
        // threshold above the packet's own level.
        let mut v = vec![0.0; 30];
        v.extend(vec![0.3; 100]);
        v[100] = 10.0;
        let got = detect_start(&v).unwrap();
        assert!((27..34).contains(&got), "got {got}");
    }
}
