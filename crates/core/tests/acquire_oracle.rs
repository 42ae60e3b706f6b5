//! `FrontEnd::acquire` and `acquire_clean` against a verbatim copy of
//! the allocate-per-stage acquisition they replaced: a fresh vector per
//! stage, `Rectifier::run` collecting, complex Box–Muller noise, and a
//! `floor` per resampled and per quantized ADC sample. Every output
//! sample must match `to_bits`, and both paths must leave the RNG in
//! the same state: the ripple draws, then the noise draws, one each per
//! sample.

use msc_analog::{dbm_to_envelope_volts, Adc, Rectifier, RectifierKind};
use msc_core::envelope::FrontEnd;
use msc_core::templates::canonical_waveform;
use msc_dsp::{IqBuf, SampleRate};
use msc_phy::protocol::Protocol;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn drive_pre(r: &Rectifier, e: f64) -> f64 {
    match r.kind {
        RectifierKind::Clamp => (2.0 * e - r.v_clamp).max(0.0),
        RectifierKind::Basic | RectifierKind::Wisp => e,
    }
}

fn rectifier_run_pre<R: Rng>(
    r: &Rectifier,
    rng: &mut R,
    envelope: &[f64],
    rate: SampleRate,
) -> Vec<f64> {
    let dt = rate.period();
    let a_charge = 1.0 - (-dt / r.tau_charge).exp();
    let a_dis = 1.0 - (-dt / r.tau).exp();
    let ripple = (1.0 / (r.f_carrier * r.tau)).min(0.2);
    let mut v = 0.0f64;
    envelope
        .iter()
        .map(|&e| {
            let drive = drive_pre(r, e.max(0.0));
            let target = (drive - r.v_on).max(0.0);
            if target > v {
                v += (target - v) * a_charge;
            } else {
                v -= v * a_dis;
            }
            let noise = v * ripple * rng.gen_range(-0.5..0.5);
            (v + noise).max(0.0)
        })
        .collect()
}

fn quantize_pre(adc: &Adc, v: f64) -> u32 {
    let max_code = adc.codes() - 1;
    let x = (v / adc.v_ref * adc.codes() as f64).floor();
    if x < 0.0 {
        0
    } else if x > max_code as f64 {
        max_code
    } else {
        x as u32
    }
}

fn dequantize_pre(adc: &Adc, code: u32) -> f64 {
    (code as f64 + 0.5) / adc.codes() as f64 * adc.v_ref
}

fn resample_linear_pre(signal: &[f64], from: SampleRate, to: SampleRate) -> Vec<f64> {
    if signal.is_empty() {
        return Vec::new();
    }
    let ratio = from.as_hz() / to.as_hz();
    let out_len = ((signal.len() as f64) / ratio).round() as usize;
    (0..out_len)
        .map(|i| {
            let pos = i as f64 * ratio;
            let i0 = pos.floor() as usize;
            let frac = pos - i0 as f64;
            let a = signal[i0.min(signal.len() - 1)];
            let b = signal[(i0 + 1).min(signal.len() - 1)];
            a + (b - a) * frac
        })
        .collect()
}

fn adc_sample_pre(adc: &Adc, analog: &[f64], input_rate: SampleRate) -> Vec<f64> {
    let resampled = resample_linear_pre(analog, input_rate, adc.rate);
    resampled.into_iter().map(|v| dequantize_pre(adc, quantize_pre(adc, v))).collect()
}

fn acquire_pre<R: Rng>(fe: &FrontEnd, rng: &mut R, buf: &IqBuf, incident_dbm: f64) -> Vec<f64> {
    let rms = buf.mean_power().sqrt();
    let peak_v = dbm_to_envelope_volts(incident_dbm);
    let scale = if rms > 1e-20 { peak_v / rms } else { 0.0 };
    let envelope: Vec<f64> = fe.rf_envelope(buf).into_iter().map(|e| e * scale).collect();
    let mut rect = rectifier_run_pre(&fe.rectifier, rng, &envelope, buf.rate());
    if fe.noise_v > 0.0 {
        for v in &mut rect {
            *v = (*v + msc_channel::awgn::complex_gaussian(rng, fe.noise_v * fe.noise_v).re)
                .max(0.0);
        }
    }
    let max = rect.iter().cloned().fold(0.0f64, f64::max);
    let adc = fe.adc.tuned_to(max.max(1e-4));
    adc_sample_pre(&adc, &rect, buf.rate())
}

fn acquire_clean_pre(fe: &FrontEnd, buf: &IqBuf, incident_dbm: f64) -> Vec<f64> {
    let mut quiet = fe.clone();
    quiet.noise_v = 0.0;
    let mut fe_rect = quiet.rectifier;
    fe_rect.f_carrier = 1e15;
    quiet.rectifier = fe_rect;
    let mut rng = rand::rngs::mock::StepRng::new(0, 0);
    acquire_pre(&quiet, &mut rng, buf, incident_dbm)
}

fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: sample {k}: {g} vs {w}");
    }
}

#[test]
fn acquire_matches_pre_fusion_path_bitwise() {
    let rates =
        [SampleRate::ADC_FULL, SampleRate::ADC_HALF, SampleRate::ADC_LOW, SampleRate::ADC_FLOOR];
    for p in Protocol::ALL {
        let wave = canonical_waveform(p);
        for rate in rates {
            let base = FrontEnd::prototype(rate);
            let mut no_slope = base.clone();
            no_slope.fm_slope = 0.0;
            let mut no_noise = base.clone();
            no_noise.noise_v = 0.0;
            let variants = [
                ("prototype", base.clone()),
                ("band filter", base.clone().with_band_filter(1.5e6)),
                ("fm_slope 0", no_slope),
                ("noise_v 0", no_noise),
                ("wisp", FrontEnd { rectifier: Rectifier::wisp(), ..base.clone() }),
            ];
            for (label, fe) in &variants {
                // -40 dBm sits below the rectifier's sensitivity.
                for (k, incident) in [-5.0, -9.7, -40.0].into_iter().enumerate() {
                    let what = format!("{p} at {rate:?}, {label}, {incident} dBm");
                    let seed = 1000 + k as u64;
                    let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let got = fe.acquire(&mut a, &wave, incident);
                    let want = acquire_pre(fe, &mut b, &wave, incident);
                    assert_bitwise(&got, &want, &what);
                    assert_eq!(a.next_u64(), b.next_u64(), "{what}: RNG draw count");
                    let clean = fe.acquire_clean(&wave, incident);
                    assert_bitwise(&clean, &acquire_clean_pre(fe, &wave, incident), &what);
                }
            }
        }
    }
}

#[test]
fn acquire_matches_on_degenerate_buffers() {
    let fe = FrontEnd::prototype(SampleRate::ADC_HALF);
    let rate = SampleRate::mhz(20.0);
    let cases = [
        IqBuf::zeros(0, rate),
        IqBuf::zeros(1, rate),
        IqBuf::zeros(500, rate),
        IqBuf::new(vec![msc_dsp::Complex64::new(1e-30, 0.0); 64], rate),
    ];
    for (k, buf) in cases.iter().enumerate() {
        let (mut a, mut b) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
        let what = format!("case {k}");
        assert_bitwise(&fe.acquire(&mut a, buf, -5.0), &acquire_pre(&fe, &mut b, buf, -5.0), &what);
        assert_eq!(a.next_u64(), b.next_u64(), "{what}: RNG draw count");
    }
}

#[test]
fn analog_sweep_matches_pre_fusion_path_per_front_end() {
    // One sweep acquires a waveform through several front ends from one
    // set of ripple and noise draws; each front end's trace must equal
    // its own acquisition on a clone of the RNG, and the sweep must use
    // the RNG exactly as one acquisition does.
    let rates =
        [SampleRate::ADC_FULL, SampleRate::ADC_HALF, SampleRate::ADC_LOW, SampleRate::ADC_FLOOR];
    for p in Protocol::ALL {
        let wave = canonical_waveform(p);
        for rate in rates {
            let base = FrontEnd::prototype(rate);
            let mut sweeps: Vec<(&str, Vec<FrontEnd>)> = vec![
                (
                    "oracle variants",
                    vec![
                        base.clone(),
                        base.clone().with_band_filter(1.5e6),
                        FrontEnd { fm_slope: 0.0, ..base.clone() },
                        FrontEnd { rectifier: Rectifier::wisp(), ..base.clone() },
                    ],
                ),
                (
                    "abl-slope slopes",
                    [0.0, 0.05, 0.1, 0.25, 0.5]
                        .map(|fm_slope| FrontEnd { fm_slope, ..base.clone() })
                        .to_vec(),
                ),
            ];
            let quiet = FrontEnd { noise_v: 0.0, ..base.clone() };
            let quiet_wisp = FrontEnd { rectifier: Rectifier::wisp(), ..quiet.clone() };
            sweeps.push(("noise_v 0", vec![quiet, quiet_wisp]));
            for (label, fes) in &sweeps {
                for (k, incident) in [-5.0, -9.7, -40.0].into_iter().enumerate() {
                    let seed = 2000 + k as u64;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let swept = FrontEnd::analog_sweep(fes, &mut rng, &wave, incident);
                    assert_eq!(swept.len(), fes.len());
                    for (j, (fe, analog)) in fes.iter().zip(&swept).enumerate() {
                        let what = format!("{p} at {rate:?}, {label} #{j}, {incident} dBm");
                        let mut clone = StdRng::seed_from_u64(seed);
                        let want = acquire_pre(fe, &mut clone, &wave, incident);
                        assert_bitwise(&fe.digitize(analog), &want, &what);
                        let mut after = rng.clone();
                        assert_eq!(after.next_u64(), clone.next_u64(), "{what}: RNG draw count");
                    }
                }
            }
        }
    }
}
