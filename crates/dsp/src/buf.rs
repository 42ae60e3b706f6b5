//! Rate-tagged IQ sample buffers.

use crate::complex::Complex64;
use crate::rate::SampleRate;

/// A buffer of complex baseband samples together with its sample rate.
///
/// `IqBuf` is the currency of the whole workspace: modulators produce it,
/// channels transform it, rectifiers and receivers consume it. Operations
/// that combine two buffers check that the rates agree.
#[derive(Clone, Debug, PartialEq)]
pub struct IqBuf {
    samples: Vec<Complex64>,
    rate: SampleRate,
}

impl IqBuf {
    /// Wraps existing samples at the given rate.
    pub fn new(samples: Vec<Complex64>, rate: SampleRate) -> Self {
        IqBuf { samples, rate }
    }

    /// An empty buffer at the given rate.
    pub fn empty(rate: SampleRate) -> Self {
        IqBuf { samples: Vec::new(), rate }
    }

    /// A buffer of `n` zero samples.
    pub fn zeros(n: usize, rate: SampleRate) -> Self {
        IqBuf { samples: vec![Complex64::ZERO; n], rate }
    }

    /// Builds a buffer from real-valued samples (imaginary parts zero).
    pub fn from_real(real: &[f64], rate: SampleRate) -> Self {
        IqBuf { samples: real.iter().map(|&r| Complex64::new(r, 0.0)).collect(), rate }
    }

    /// The sample rate.
    #[inline]
    pub fn rate(&self) -> SampleRate {
        self.rate
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the buffer holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Time spanned by the buffer in seconds.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.rate.seconds_for(self.samples.len())
    }

    /// Immutable view of the samples.
    #[inline]
    pub fn samples(&self) -> &[Complex64] {
        &self.samples
    }

    /// Mutable view of the samples.
    #[inline]
    pub fn samples_mut(&mut self) -> &mut [Complex64] {
        &mut self.samples
    }

    /// Consumes the buffer, returning its samples.
    #[inline]
    pub fn into_samples(self) -> Vec<Complex64> {
        self.samples
    }

    /// Appends another buffer. Panics on rate mismatch.
    pub fn extend(&mut self, other: &IqBuf) {
        assert_eq!(self.rate, other.rate, "cannot concatenate buffers at different sample rates");
        self.samples.extend_from_slice(&other.samples);
    }

    /// Appends `n` zero samples (guard interval / inter-packet silence).
    pub fn extend_silence(&mut self, n: usize) {
        self.samples.extend(std::iter::repeat_n(Complex64::ZERO, n));
    }

    /// Pushes a single sample.
    #[inline]
    pub fn push(&mut self, s: Complex64) {
        self.samples.push(s);
    }

    /// Element-wise sum of two equal-rate buffers; the shorter one is
    /// zero-padded. Used for colliding excitations (paper §4.1.4).
    pub fn mix(&self, other: &IqBuf) -> IqBuf {
        assert_eq!(self.rate, other.rate, "cannot mix buffers at different rates");
        let n = self.len().max(other.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.samples.get(i).copied().unwrap_or(Complex64::ZERO);
            let b = other.samples.get(i).copied().unwrap_or(Complex64::ZERO);
            out.push(a + b);
        }
        IqBuf::new(out, self.rate)
    }

    /// Scales every sample by `k` (amplitude, not power).
    pub fn scale(&mut self, k: f64) {
        for s in &mut self.samples {
            *s = s.scale(k);
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, k: f64) -> IqBuf {
        let mut out = self.clone();
        out.scale(k);
        out
    }

    /// Mean power of the buffer, `E[|x|^2]`. Zero for an empty buffer.
    pub fn mean_power(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.norm_sqr()).sum::<f64>() / self.samples.len() as f64
    }

    /// Peak instantaneous power, `max |x|^2`.
    pub fn peak_power(&self) -> f64 {
        self.samples.iter().map(|s| s.norm_sqr()).fold(0.0_f64, f64::max)
    }

    /// Peak-to-average power ratio (linear). 1.0 for constant-envelope.
    pub fn papr(&self) -> f64 {
        let mean = self.mean_power();
        if mean == 0.0 {
            return 0.0;
        }
        self.peak_power() / mean
    }

    /// The magnitude (envelope) of each sample.
    pub fn envelope(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.abs()).collect()
    }

    /// Applies a frequency shift of `delta_hz`: multiplies sample `n` by
    /// `exp(j*2*pi*delta*n/fs)`. This is the tag's square-wave frequency
    /// shifting idealized as a complex mixer.
    pub fn freq_shift(&self, delta_hz: f64) -> IqBuf {
        let mut out = self.clone();
        out.freq_shift_in_place(delta_hz);
        out
    }

    /// In-place variant of [`IqBuf::freq_shift`], on the vectorized
    /// rotator ([`crate::simd::rotate`]; within `1e-12` of the scalar
    /// mixer).
    pub fn freq_shift_in_place(&mut self, delta_hz: f64) {
        let step = std::f64::consts::TAU * delta_hz / self.rate.as_hz();
        crate::simd::rotate(&mut self.samples, step);
    }

    /// Overwrites this buffer with the contents (samples and rate) of
    /// `other`, reusing this buffer's allocation when it is large enough.
    pub fn copy_from(&mut self, other: &IqBuf) {
        self.rate = other.rate;
        self.samples.clear();
        self.samples.extend_from_slice(&other.samples);
    }

    /// A sub-range copy `[start, start+len)`, clamped to the buffer.
    pub fn slice(&self, start: usize, len: usize) -> IqBuf {
        let end = (start + len).min(self.samples.len());
        let start = start.min(end);
        IqBuf::new(self.samples[start..end].to_vec(), self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate() -> SampleRate {
        SampleRate::mhz(20.0)
    }

    #[test]
    fn construction_and_duration() {
        let b = IqBuf::zeros(160, rate());
        assert_eq!(b.len(), 160);
        assert!((b.duration() - 8e-6).abs() < 1e-15);
        assert!(!b.is_empty());
        assert!(IqBuf::empty(rate()).is_empty());
    }

    #[test]
    fn mean_and_peak_power() {
        let s = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 2.0)];
        let b = IqBuf::new(s, rate());
        assert!((b.mean_power() - 2.5).abs() < 1e-12);
        assert!((b.peak_power() - 4.0).abs() < 1e-12);
        assert!((b.papr() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn mix_zero_pads_shorter() {
        let a = IqBuf::from_real(&[1.0, 1.0, 1.0], rate());
        let b = IqBuf::from_real(&[2.0], rate());
        let m = a.mix(&b);
        assert_eq!(m.len(), 3);
        assert_eq!(m.samples()[0], Complex64::new(3.0, 0.0));
        assert_eq!(m.samples()[2], Complex64::new(1.0, 0.0));
    }

    #[test]
    #[should_panic]
    fn mix_rejects_rate_mismatch() {
        let a = IqBuf::zeros(4, SampleRate::mhz(20.0));
        let b = IqBuf::zeros(4, SampleRate::mhz(10.0));
        let _ = a.mix(&b);
    }

    #[test]
    fn freq_shift_preserves_power_and_moves_tone() {
        // A DC tone shifted by fs/4 becomes exp(j*pi/2*n).
        let n = 64;
        let b = IqBuf::new(vec![Complex64::ONE; n], rate());
        let shifted = b.freq_shift(rate().as_hz() / 4.0);
        assert!((shifted.mean_power() - 1.0).abs() < 1e-12);
        assert!((shifted.samples()[1].arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((shifted.samples()[2].arg().abs() - std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn slice_clamps() {
        let b = IqBuf::from_real(&[1.0, 2.0, 3.0], rate());
        assert_eq!(b.slice(1, 10).len(), 2);
        assert_eq!(b.slice(5, 10).len(), 0);
        assert_eq!(b.slice(0, 2).samples()[1], Complex64::new(2.0, 0.0));
    }

    #[test]
    fn envelope_of_constant_signal() {
        let b = IqBuf::new(vec![Complex64::from_polar(2.0, 0.3); 5], rate());
        assert!(b.envelope().iter().all(|&e| (e - 2.0).abs() < 1e-12));
        assert!((b.papr() - 1.0).abs() < 1e-12);
    }
}
