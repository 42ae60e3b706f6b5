//! Rate conversion: decimation, repetition upsampling, and linear
//! interpolation between arbitrary rates.
//!
//! The tag's ADC runs at 20/10/2.5/1 Msps while each PHY generates at its
//! native rate, so rate conversion sits on every identification path.

use crate::buf::IqBuf;
use crate::complex::Complex64;
use crate::rate::SampleRate;

/// Keeps every `factor`-th sample (no anti-alias filter; the analog
/// front-end model already band-limits before the ADC).
pub fn decimate(signal: &[f64], factor: usize) -> Vec<f64> {
    assert!(factor >= 1, "decimation factor must be >= 1");
    signal.iter().copied().step_by(factor).collect()
}

/// Complex-sample variant of [`decimate`].
pub fn decimate_iq(buf: &IqBuf, factor: usize) -> IqBuf {
    assert!(factor >= 1);
    let samples: Vec<Complex64> = buf.samples().iter().copied().step_by(factor).collect();
    IqBuf::new(samples, SampleRate::hz(buf.rate().as_hz() / factor as f64))
}

/// Repeats each sample `factor` times (zero-order hold).
pub fn upsample_hold(signal: &[f64], factor: usize) -> Vec<f64> {
    assert!(factor >= 1);
    let mut out = Vec::with_capacity(signal.len() * factor);
    for &x in signal {
        out.extend(std::iter::repeat_n(x, factor));
    }
    out
}

/// Linearly resamples a real signal from `from` to `to` samples/s.
///
/// Output length is `round(len * to/from)`. Endpoint samples clamp.
pub fn resample_linear(signal: &[f64], from: SampleRate, to: SampleRate) -> Vec<f64> {
    if signal.is_empty() {
        return Vec::new();
    }
    let ratio = from.as_hz() / to.as_hz();
    let out_len = ((signal.len() as f64) / ratio).round() as usize;
    (0..out_len)
        .map(|i| {
            let pos = i as f64 * ratio;
            // `as` truncates, which is `floor` for the non-negative
            // `pos` (and saturates alike otherwise), without a libm call
            // per output sample.
            let i0 = pos as usize;
            let frac = pos - i0 as f64;
            let a = signal[i0.min(signal.len() - 1)];
            let b = signal[(i0 + 1).min(signal.len() - 1)];
            a + (b - a) * frac
        })
        .collect()
}

/// Resamples a complex buffer *upward* with an anti-image low-pass at
/// the source Nyquist frequency. Plain linear interpolation leaves
/// spectral images that a discriminator-based detector reads as
/// wideband structure; this removes them. Falls back to plain linear
/// resampling when not upsampling.
pub fn upsample_iq_clean(buf: &IqBuf, to: SampleRate) -> IqBuf {
    if to.as_hz() <= buf.rate().as_hz() {
        return resample_iq(buf, to);
    }
    let raw = resample_iq(buf, to);
    // Anti-image filter: pass the source band, stop its images.
    let cutoff = (buf.rate().as_hz() / 2.0 / to.as_hz()).min(0.45);
    let filt = crate::fir::Fir::lowpass(cutoff.max(0.01), 63);
    IqBuf::new(filt.filter_same(raw.samples()), to)
}

/// Linearly resamples a complex buffer to a new rate.
pub fn resample_iq(buf: &IqBuf, to: SampleRate) -> IqBuf {
    if buf.is_empty() {
        return IqBuf::empty(to);
    }
    let ratio = buf.rate().as_hz() / to.as_hz();
    let out_len = ((buf.len() as f64) / ratio).round() as usize;
    let src = buf.samples();
    let samples = (0..out_len)
        .map(|i| {
            let pos = i as f64 * ratio;
            let i0 = pos.floor() as usize;
            let frac = pos - i0 as f64;
            let a = src[i0.min(src.len() - 1)];
            let b = src[(i0 + 1).min(src.len() - 1)];
            a + (b - a).scale(frac)
        })
        .collect();
    IqBuf::new(samples, to)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimate_keeps_every_kth() {
        let sig: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(decimate(&sig, 3), vec![0.0, 3.0, 6.0, 9.0]);
        assert_eq!(decimate(&sig, 1).len(), 10);
    }

    #[test]
    fn decimate_iq_halves_rate() {
        let buf = IqBuf::zeros(100, SampleRate::mhz(20.0));
        let out = decimate_iq(&buf, 2);
        assert_eq!(out.len(), 50);
        assert_eq!(out.rate(), SampleRate::mhz(10.0));
    }

    #[test]
    fn upsample_hold_repeats() {
        assert_eq!(upsample_hold(&[1.0, 2.0], 3), vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn linear_resample_identity() {
        let sig: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        let r = SampleRate::mhz(10.0);
        let out = resample_linear(&sig, r, r);
        assert_eq!(out, sig);
    }

    #[test]
    fn linear_resample_downsamples_ramp_exactly() {
        // A ramp is linear, so linear interpolation is exact.
        let sig: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let out = resample_linear(&sig, SampleRate::mhz(20.0), SampleRate::mhz(5.0));
        assert_eq!(out.len(), 25);
        for (i, &v) in out.iter().enumerate() {
            assert!((v - (i * 4) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_resample_up_preserves_tone_shape() {
        let n = 200;
        let sig: Vec<f64> =
            (0..n).map(|i| (std::f64::consts::TAU * 0.01 * i as f64).sin()).collect();
        let out = resample_linear(&sig, SampleRate::mhz(10.0), SampleRate::mhz(20.0));
        assert_eq!(out.len(), 400);
        // Check a mid-point against the analytic value; interpolation error
        // for a slow tone is tiny.
        let t = 101.0 / 2.0;
        let want = (std::f64::consts::TAU * 0.01 * t).sin();
        assert!((out[101] - want).abs() < 1e-3);
    }

    #[test]
    fn resample_iq_round_trip_approx() {
        let r20 = SampleRate::mhz(20.0);
        let r25 = SampleRate::mhz(2.5);
        let samples: Vec<Complex64> =
            (0..800).map(|i| Complex64::cis(std::f64::consts::TAU * 0.002 * i as f64)).collect();
        let buf = IqBuf::new(samples, r20);
        let down = resample_iq(&buf, r25);
        assert_eq!(down.len(), 100);
        assert_eq!(down.rate(), r25);
        let up = resample_iq(&down, r20);
        assert_eq!(up.len(), 800);
        // Compare mid-region samples.
        for i in 100..700 {
            assert!((up.samples()[i] - buf.samples()[i]).abs() < 0.05);
        }
    }

    #[test]
    fn clean_upsample_removes_images() {
        // A tone at 0.3 MHz sampled at 2 Msps, upsampled to 16 Msps:
        // linear interpolation leaves images near multiples of 2 MHz;
        // the clean upsampler must suppress them.
        let src_rate = SampleRate::mhz(2.0);
        let dst_rate = SampleRate::mhz(16.0);
        let n = 256;
        let tone: Vec<Complex64> =
            (0..n).map(|i| Complex64::cis(std::f64::consts::TAU * 0.15 * i as f64)).collect();
        let buf = IqBuf::new(tone, src_rate);
        let image_power = |b: &IqBuf| -> f64 {
            // Energy above 1 MHz via a crude high-pass: x[n] - x[n-1]
            // overweights high frequencies; compare discriminator jumps.
            let s = b.samples();
            let mut acc = 0.0;
            for w in s.windows(2) {
                let d = (w[1] * w[0].conj()).arg();
                if d.abs() > 0.6 {
                    acc += 1.0;
                }
            }
            acc / s.len() as f64
        };
        let dirty = resample_iq(&buf, dst_rate);
        let clean = upsample_iq_clean(&buf, dst_rate);
        assert!(
            image_power(&clean) < image_power(&dirty) / 2.0 + 1e-9,
            "clean {} dirty {}",
            image_power(&clean),
            image_power(&dirty)
        );
        assert_eq!(clean.rate(), dst_rate);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(resample_linear(&[], SampleRate::mhz(1.0), SampleRate::mhz(2.0)).is_empty());
        assert!(resample_iq(&IqBuf::empty(SampleRate::mhz(1.0)), SampleRate::mhz(2.0)).is_empty());
    }
}
