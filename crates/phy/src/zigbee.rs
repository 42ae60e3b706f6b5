//! IEEE 802.15.4 (ZigBee) 2.4 GHz OQPSK PHY: 16×32-chip PN spreading,
//! half-sine pulse shaping with the half-chip I/Q offset, SHR/PHR
//! framing, FCS, and a CC2530/CC2650-style best-of-16 receiver.

use crate::crc::Crc;
use crate::protocol::DecodeError;
use msc_dsp::{Complex64, IqBuf, SampleRate};

/// Chip rate (2 Mchip/s).
pub const CHIP_RATE: f64 = 2e6;
/// Chips per symbol.
pub const CHIPS_PER_SYMBOL: usize = 32;
/// Data bits per symbol.
pub const BITS_PER_SYMBOL: usize = 4;
/// Preamble length in symbols (4 bytes of zeros).
pub const PREAMBLE_SYMBOLS: usize = 8;
/// The SFD byte.
pub const SFD: u8 = 0xA7;

/// The base PN sequence for symbol 0 (c0 first), per 802.15.4-2015
/// Table 12-1.
pub const PN_BASE: [u8; 32] = [
    1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0,
];

/// Builds the 16-entry PN table: symbols 1–7 are right-rotations of the
/// base by 4·s chips; symbols 8–15 invert the odd-indexed chips
/// (conjugation) of symbols 0–7.
pub fn pn_table() -> [[i8; 32]; 16] {
    let mut table = [[0i8; 32]; 16];
    for s in 0..8 {
        for c in 0..32 {
            let src = (c + 32 - 4 * s) % 32;
            table[s][c] = if PN_BASE[src] == 1 { 1 } else { -1 };
        }
    }
    for s in 0..8 {
        for c in 0..32 {
            let v = table[s][c];
            table[s + 8][c] = if c % 2 == 1 { -v } else { v };
        }
    }
    table
}

/// ZigBee modem configuration.
#[derive(Clone, Copy, Debug)]
pub struct ZigBeeConfig {
    /// Samples per chip (4 → 8 Msps).
    pub samples_per_chip: usize,
}

impl Default for ZigBeeConfig {
    fn default() -> Self {
        ZigBeeConfig { samples_per_chip: 4 }
    }
}

impl ZigBeeConfig {
    /// The waveform sample rate.
    pub fn sample_rate(&self) -> SampleRate {
        SampleRate::hz(CHIP_RATE * self.samples_per_chip as f64)
    }

    /// Samples covering one symbol (32 chips).
    pub fn samples_per_symbol(&self) -> usize {
        CHIPS_PER_SYMBOL * self.samples_per_chip
    }
}

/// A decoded 802.15.4 frame.
#[derive(Clone, Debug)]
pub struct ZigBeeDecoded {
    /// PSDU bytes (payload without the FCS).
    pub psdu: Vec<u8>,
    /// Whether the FCS (CRC-16) verified.
    pub fcs_ok: bool,
    /// Raw 4-bit symbol indices (0–15) for PHR + PSDU + FCS — the overlay
    /// decoder's input.
    pub raw_symbols: Vec<u8>,
    /// Per-symbol best correlation magnitude (diagnostics).
    pub symbol_quality: Vec<f64>,
    /// Per-symbol soft chip estimates (32 per symbol) — the overlay
    /// decoder correlates these against the reference PN directly, which
    /// is far more robust than symbol-level comparison because a π flip
    /// lands ±32 chips away from the reference instead of on an
    /// ambiguous best-of-16 boundary (see [`pi_flip_translation`]).
    pub raw_chips: Vec<Vec<f64>>,
    /// Sample index of the first PHR symbol.
    pub phr_start: usize,
}

/// The 802.15.4 modulator.
#[derive(Clone)]
pub struct ZigBeeModulator {
    config: ZigBeeConfig,
    pn: [[i8; 32]; 16],
    /// Half-sine pulse shape over two chip periods, precomputed so
    /// [`ZigBeeModulator::chips_to_iq`] never calls `sin` per sample.
    pulse: Vec<f64>,
}

impl ZigBeeModulator {
    /// Creates a modulator.
    pub fn new(config: ZigBeeConfig) -> Self {
        assert!(config.samples_per_chip >= 2 && config.samples_per_chip.is_multiple_of(2));
        let pulse_len = 2 * config.samples_per_chip;
        let pulse = (0..pulse_len)
            .map(|t| (std::f64::consts::PI * (t as f64 + 0.5) / pulse_len as f64).sin())
            .collect();
        ZigBeeModulator { config, pn: pn_table(), pulse }
    }

    /// The configuration in use.
    pub fn config(&self) -> ZigBeeConfig {
        self.config
    }

    /// Converts data bytes to 4-bit symbols, low nibble first.
    pub fn bytes_to_symbols(bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(bytes.len() * 2);
        for &b in bytes {
            out.push(b & 0x0F);
            out.push(b >> 4);
        }
        out
    }

    /// Converts 4-bit symbols back to bytes (low nibble first).
    pub fn symbols_to_bytes(symbols: &[u8]) -> Vec<u8> {
        symbols.chunks(2).map(|p| (p[0] & 0x0F) | (p.get(1).copied().unwrap_or(0) << 4)).collect()
    }

    /// The full chip stream (±1) for a symbol sequence.
    pub fn symbols_to_chips(&self, symbols: &[u8]) -> Vec<i8> {
        let mut chips = Vec::with_capacity(symbols.len() * CHIPS_PER_SYMBOL);
        for &s in symbols {
            chips.extend_from_slice(&self.pn[(s & 0x0F) as usize]);
        }
        chips
    }

    /// OQPSK half-sine modulation of a chip stream: chip `k` occupies a
    /// half-sine pulse of two chip periods starting at `k·Tc`, on I when
    /// `k` is even and Q when odd (the half-chip offset the paper's
    /// §2.4.2 discusses).
    pub fn chips_to_iq(&self, chips: &[i8]) -> IqBuf {
        let spc = self.config.samples_per_chip;
        let pulse_len = 2 * spc;
        let n = chips.len() * spc + spc;
        let mut i_acc = vec![0.0f64; n];
        let mut q_acc = vec![0.0f64; n];
        for (k, &chip) in chips.iter().enumerate() {
            let start = k * spc;
            let target = if k % 2 == 0 { &mut i_acc } else { &mut q_acc };
            for t in 0..pulse_len {
                if start + t < n {
                    target[start + t] += chip as f64 * self.pulse[t];
                }
            }
        }
        let samples = i_acc.iter().zip(&q_acc).map(|(&i, &q)| Complex64::new(i, q)).collect();
        IqBuf::new(samples, self.config.sample_rate())
    }

    /// Builds the symbol stream for a frame: SHR (preamble + SFD) + PHR
    /// (length) + PSDU + FCS.
    pub fn frame_symbols(&self, psdu: &[u8]) -> Vec<u8> {
        assert!(psdu.len() + 2 <= 127, "PSDU+FCS must fit the 7-bit PHR length");
        let mut symbols = vec![0u8; PREAMBLE_SYMBOLS];
        symbols.extend(Self::bytes_to_symbols(&[SFD]));
        let length = (psdu.len() + 2) as u8;
        symbols.extend(Self::bytes_to_symbols(&[length]));
        symbols.extend(Self::bytes_to_symbols(psdu));
        let fcs = Crc::ieee802154().compute(psdu) as u16;
        symbols.extend(Self::bytes_to_symbols(&fcs.to_le_bytes()));
        symbols
    }

    /// Modulates a PSDU into IQ.
    pub fn modulate(&self, psdu: &[u8]) -> IqBuf {
        let symbols = self.frame_symbols(psdu);
        self.chips_to_iq(&self.symbols_to_chips(&symbols))
    }

    /// Generates an overlay carrier: SHR + PHR as usual, then each
    /// productive symbol (4 bits) repeated `kappa` times.
    pub fn modulate_overlay_carrier(&self, productive_symbols: &[u8], kappa: usize) -> IqBuf {
        assert!(kappa >= 2);
        let mut symbols = vec![0u8; PREAMBLE_SYMBOLS];
        symbols.extend(Self::bytes_to_symbols(&[SFD]));
        let n_bytes = (productive_symbols.len() * kappa).div_ceil(2).min(127);
        symbols.extend(Self::bytes_to_symbols(&[n_bytes as u8]));
        for &s in productive_symbols {
            symbols.extend(std::iter::repeat_n(s & 0x0F, kappa));
        }
        self.chips_to_iq(&self.symbols_to_chips(&symbols))
    }
}

/// The 802.15.4 receiver.
#[derive(Clone)]
pub struct ZigBeeDemodulator {
    config: ZigBeeConfig,
    /// [`pn_table`] widened to f64 once so
    /// [`ZigBeeDemodulator::despread`]'s 512-multiply inner loop runs
    /// without per-element casts.
    pn_f: [[f64; 32]; 16],
    /// Reference SHR waveform, synthesized once: `find_sync` and the fine-
    /// timing loop's `phase_at` probes both read it on every packet.
    shr: IqBuf,
    /// Matched-filter weights for [`ZigBeeDemodulator::extract_chips`]:
    /// the half-sine values at the window offsets, identical for every
    /// chip index.
    chip_weights: Vec<f64>,
    /// `sqrt(Σ w²)` for the weight window above (the per-chip divisor —
    /// kept as a divisor, not a reciprocal, so the soft chips stay
    /// bit-identical to the previous per-call computation).
    chip_wsum_sqrt: f64,
}

impl ZigBeeDemodulator {
    /// Creates a demodulator.
    pub fn new(config: ZigBeeConfig) -> Self {
        let pn = pn_table();
        let mut pn_f = [[0.0f64; 32]; 16];
        for (dst, src) in pn_f.iter_mut().zip(&pn) {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s as f64;
            }
        }
        let modulator = ZigBeeModulator::new(config);
        let mut symbols = vec![0u8; PREAMBLE_SYMBOLS];
        symbols.extend(ZigBeeModulator::bytes_to_symbols(&[SFD]));
        let shr = modulator.chips_to_iq(&modulator.symbols_to_chips(&symbols));
        let spc = config.samples_per_chip;
        let half = (spc / 2).max(1);
        // Offset o in the extraction window sits at `spc + o − half` pulse
        // samples into the chip's half-sine, independent of the chip index.
        let chip_weights: Vec<f64> = (0..=2 * half)
            .map(|o| {
                let t_in_pulse = (spc + o - half) as f64 + 0.5;
                (std::f64::consts::PI * t_in_pulse / (2 * spc) as f64).sin()
            })
            .collect();
        let wsum: f64 = chip_weights.iter().map(|w| w * w).sum();
        let chip_wsum_sqrt = wsum.sqrt().max(1e-12);
        ZigBeeDemodulator { config, pn_f, shr, chip_weights, chip_wsum_sqrt }
    }

    /// Reference SHR waveform for matched-filter sync.
    fn shr_waveform(&self) -> &IqBuf {
        &self.shr
    }

    /// Finds the SHR by complex matched filter; returns (offset of frame
    /// start, channel phase estimate).
    ///
    /// The probe covers the *whole* SHR including the SFD: the preamble
    /// alone is the same PN sequence repeated eight times, so a
    /// preamble-only probe has near-equal peaks one symbol apart and
    /// noise can select a late repetition, shifting the entire frame.
    /// Among offsets within 2% of the maximum we keep the earliest.
    fn find_sync(&self, samples: &[Complex64]) -> Option<(usize, f64)> {
        let shr = self.shr_waveform();
        let probe = shr.samples();
        if samples.len() < probe.len() {
            return None;
        }
        // FFT matched filter + prefix-sum energies (msc_dsp kernels)
        // instead of the former O(N·L) per-offset loop.
        let probe_energy: f64 = probe.iter().map(|s| s.norm_sqr()).sum();
        let accs = msc_dsp::corr::complex_sliding_corr(samples, probe);
        let energies = msc_dsp::corr::sliding_energy(samples, probe.len());
        let mut max_score = 0.0f64;
        let scores: Vec<f64> = accs
            .iter()
            .zip(&energies)
            .map(|(acc, &energy)| {
                let denom = (probe_energy * energy).sqrt();
                let score = if denom > 1e-20 { acc.abs() / denom } else { 0.0 };
                max_score = max_score.max(score);
                score
            })
            .collect();
        if max_score <= 0.6 {
            return None;
        }
        let off = scores.iter().position(|&s| s >= 0.98 * max_score).expect("max exists");
        Some((off, accs[off].arg()))
    }

    /// [`Self::find_sync`] restricted to frame starts in `0..=radius`:
    /// the direct normalized correlation over a handful of offsets
    /// replaces the full-buffer FFT matched filter when the caller
    /// (the simulation engine, via [`crate::fastsync`]) knows the frame
    /// is aligned to the buffer head. Scoring — normalization, the 0.6
    /// threshold, earliest-within-2%-of-max selection — mirrors
    /// `find_sync` exactly, so an in-window frame yields the same
    /// decision; out-of-window frames return `None` and the caller
    /// falls back to the full search.
    fn find_sync_windowed(&self, samples: &[Complex64], radius: usize) -> Option<(usize, f64)> {
        let shr = self.shr_waveform();
        let probe = shr.samples();
        if samples.len() < probe.len() {
            return None;
        }
        let max_off = radius.min(samples.len() - probe.len());
        let probe_energy: f64 = probe.iter().map(|s| s.norm_sqr()).sum();
        let mut accs = [Complex64::new(0.0, 0.0); 33];
        let mut scores = [0.0f64; 33];
        let max_off = max_off.min(accs.len() - 1);
        let mut max_score = 0.0f64;
        for (off, (acc_slot, score_slot)) in
            accs.iter_mut().zip(scores.iter_mut()).enumerate().take(max_off + 1)
        {
            let window = &samples[off..off + probe.len()];
            let mut acc = Complex64::new(0.0, 0.0);
            let mut energy = 0.0f64;
            for (s, p) in window.iter().zip(probe) {
                acc += *s * p.conj();
                energy += s.norm_sqr();
            }
            let denom = (probe_energy * energy).sqrt();
            let score = if denom > 1e-20 { acc.abs() / denom } else { 0.0 };
            *acc_slot = acc;
            *score_slot = score;
            max_score = max_score.max(score);
        }
        if max_score <= 0.6 {
            return None;
        }
        let off =
            scores[..=max_off].iter().position(|&s| s >= 0.98 * max_score).expect("max exists");
        Some((off, accs[off].arg()))
    }

    /// Channel-phase estimate from correlating the known SHR waveform at
    /// an exact offset.
    fn phase_at(&self, samples: &[Complex64], t0: usize) -> Option<f64> {
        let shr = self.shr_waveform();
        let probe = &shr.samples()[..shr.len().min(6 * self.config.samples_per_symbol())];
        if t0 + probe.len() > samples.len() {
            return None;
        }
        let mut acc = Complex64::ZERO;
        for (i, &p) in probe.iter().enumerate() {
            acc += samples[t0 + i] * p.conj();
        }
        if acc.norm_sqr() < 1e-30 {
            None
        } else {
            Some(acc.arg())
        }
    }

    /// Extracts one symbol's ±-soft chips starting at `start`.
    fn extract_chips(&self, samples: &[Complex64], start: usize, phase: f64) -> Option<Vec<f64>> {
        let spc = self.config.samples_per_chip;
        // Allow the window to overhang the buffer by up to half a symbol
        // (sync jitter at the packet tail); missing samples read as zero.
        if start + CHIPS_PER_SYMBOL * spc / 2 > samples.len() {
            return None;
        }
        let get =
            |idx: usize| -> Complex64 { samples.get(idx).copied().unwrap_or(Complex64::ZERO) };
        let rot = Complex64::cis(-phase);
        let mut chips = Vec::with_capacity(CHIPS_PER_SYMBOL);
        // Matched-filter against the half-sine: integrate the middle of
        // the pulse (weighting by the precomputed pulse-shape window),
        // which buys several dB over a single center sample.
        let half = (spc / 2).max(1);
        for k in 0..CHIPS_PER_SYMBOL {
            // Pulse for chip k spans [k·spc, k·spc + 2·spc); center ±half.
            let center = start + k * spc + spc;
            let mut acc = 0.0;
            for (o, &w) in self.chip_weights.iter().enumerate() {
                let v = get(center + o - half) * rot;
                acc += w * if k % 2 == 0 { v.re } else { v.im };
            }
            chips.push(acc / self.chip_wsum_sqrt);
        }
        Some(chips)
    }

    /// Best-of-16 PN correlation; returns (symbol, signed corr of best).
    pub fn despread(&self, chips: &[f64]) -> (u8, f64) {
        let mut best = (0u8, f64::NEG_INFINITY);
        for (s, pn) in self.pn_f.iter().enumerate() {
            let c: f64 = chips.iter().zip(pn.iter()).map(|(&x, &p)| x * p).sum();
            if c > best.1 {
                best = (s as u8, c);
            }
        }
        best
    }

    /// Estimates the carrier frequency offset from the preamble's 32-chip
    /// (16 µs) periodicity: the lag-128-sample autocorrelation's phase is
    /// `2π·f_cfo·128/fs`, unambiguous for |CFO| < fs/256 = 31.25 kHz
    /// (≈ ±12.8 ppm at 2.44 GHz). Returns 0 when no periodic region is
    /// found.
    pub fn estimate_cfo_hz(&self, buf: &IqBuf) -> f64 {
        let samples = buf.samples();
        let lag = 32 * self.config.samples_per_chip; // one preamble symbol
        let win = 4 * lag;
        if samples.len() < win + lag {
            return 0.0;
        }
        let mut acc = Complex64::ZERO;
        let mut energy = 0.0f64;
        for i in 0..win {
            acc += samples[i + lag] * samples[i].conj();
            energy += samples[i].norm_sqr() + samples[i + lag].norm_sqr();
        }
        let mut best = (0.0f64, Complex64::ZERO);
        let limit = (samples.len() - win - lag).min(6000);
        for start in 0..limit {
            let score = if energy > 1e-20 { acc.abs() / (energy / 2.0) } else { 0.0 };
            if score > best.0 {
                best = (score, acc);
            }
            acc += samples[start + win + lag] * samples[start + win].conj()
                - samples[start + lag] * samples[start].conj();
            energy += samples[start + win + lag].norm_sqr() + samples[start + win].norm_sqr()
                - samples[start + lag].norm_sqr()
                - samples[start].norm_sqr();
        }
        if best.0 < 0.5 {
            return 0.0;
        }
        best.1.arg() * buf.rate().as_hz() / (std::f64::consts::TAU * lag as f64)
    }

    /// Demodulates a frame, correcting carrier frequency offset first.
    pub fn demodulate(&self, buf: &IqBuf) -> Result<ZigBeeDecoded, DecodeError> {
        if buf.mean_power() < 1e-20 {
            return Err(DecodeError::SignalTooWeak);
        }
        // An engine hint that the carrier is offset-free skips the CFO
        // estimator, which would only chase noise (and whose
        // noise-triggered correction clones the whole buffer); its sync
        // window replaces the full-buffer matched-filter search, after
        // any correction.
        let hint = crate::fastsync::hint();
        let cfo = match hint {
            Some(h) if h.cfo_free => 0.0,
            _ => self.estimate_cfo_hz(buf),
        };
        let corrected;
        let buf = if cfo.abs() > 50.0 {
            corrected = buf.freq_shift(-cfo);
            &corrected
        } else {
            buf
        };
        let samples = buf.samples();
        let (t0_coarse, _) = match hint {
            Some(h) => {
                self.find_sync_windowed(samples, h.radius).or_else(|| self.find_sync(samples))
            }
            None => self.find_sync(samples),
        }
        .ok_or(DecodeError::SyncNotFound)?;
        let sps = self.config.samples_per_symbol();
        // Fine timing: the matched-filter peak can land a sample or two
        // off under noise, which scrambles the I/Q chip sampling grid.
        // Refine by maximizing the despread quality of the first SFD
        // symbol (index 8, known to be 0x7) over a small offset window,
        // re-estimating the channel phase at each candidate.
        let mut best: Option<(usize, f64, f64)> = None; // (t0, phase, quality)
        for d in -2i64..=2 {
            let t0c = t0_coarse as i64 + d;
            if t0c < 0 {
                continue;
            }
            let t0c = t0c as usize;
            let Some(phase) = self.phase_at(samples, t0c) else { continue };
            // Sum despread quality over all ten known SHR symbols so
            // noise on any one symbol cannot flip the timing choice.
            let mut q = 0.0;
            let mut valid = true;
            for sym in 0..PREAMBLE_SYMBOLS + 2 {
                let Some(chips) = self.extract_chips(samples, t0c + sym * sps, phase) else {
                    valid = false;
                    break;
                };
                q += self.despread(&chips).1;
            }
            if valid && best.map(|(_, _, bq)| q > bq).unwrap_or(true) {
                best = Some((t0c, phase, q));
            }
        }
        let (t0, phase, _) = best.ok_or(DecodeError::SyncNotFound)?;
        let phr_start = t0 + (PREAMBLE_SYMBOLS + 2) * sps;

        // PHR: 2 symbols.
        let read_symbol = |idx: usize| -> Option<(u8, f64)> {
            let chips = self.extract_chips(samples, phr_start + idx * sps, phase)?;
            Some(self.despread(&chips))
        };
        let (s0, _) = read_symbol(0).ok_or(DecodeError::Truncated)?;
        let (s1, _) = read_symbol(1).ok_or(DecodeError::Truncated)?;
        let length = (ZigBeeModulator::symbols_to_bytes(&[s0, s1])[0] & 0x7F) as usize;
        if !(2..=127).contains(&length) {
            return Err(DecodeError::HeaderInvalid);
        }

        let n_syms = 2 + length * 2; // PHR + (PSDU+FCS)
        let mut raw_symbols = Vec::with_capacity(n_syms);
        let mut quality = Vec::with_capacity(n_syms);
        let mut raw_chips = Vec::with_capacity(n_syms);
        for i in 0..n_syms {
            let chips = self
                .extract_chips(samples, phr_start + i * sps, phase)
                .ok_or(DecodeError::Truncated)?;
            let (s, c) = self.despread(&chips);
            raw_symbols.push(s);
            quality.push(c);
            raw_chips.push(chips);
        }
        let body = ZigBeeModulator::symbols_to_bytes(&raw_symbols[2..]);
        let (psdu, fcs_bytes) = body.split_at(length - 2);
        let fcs_rx = u16::from_le_bytes([fcs_bytes[0], fcs_bytes[1]]);
        let fcs_ok = Crc::ieee802154().compute(psdu) as u16 == fcs_rx;
        Ok(ZigBeeDecoded {
            psdu: psdu.to_vec(),
            fcs_ok,
            raw_symbols,
            symbol_quality: quality,
            raw_chips,
            phr_start,
        })
    }
}

/// The codeword "translation" a persistent π phase flip induces at a
/// best-of-16 despreader: chips invert, and the inverted sequence is
/// only weakly (8/32, with ties) correlated with any valid codeword.
/// This quantifies *why* π flips are troublesome for ZigBee — the
/// half-chip-offset structure the paper discusses in §2.4.2 — and why
/// the overlay decoder compares raw chips against the reference PN
/// (±32 separation) and the paper needs γ = 3 for ~0.1% BER.
pub fn pi_flip_translation() -> [u8; 16] {
    let pn = pn_table();
    let mut map = [0u8; 16];
    for s in 0..16 {
        let inverted: Vec<f64> = pn[s].iter().map(|&c| -c as f64).collect();
        let mut best = (0u8, f64::NEG_INFINITY);
        for (t, cand) in pn.iter().enumerate() {
            let c: f64 = inverted.iter().zip(cand.iter()).map(|(&x, &p)| x * p as f64).sum();
            if c > best.1 {
                best = (t as u8, c);
            }
        }
        map[s] = best.0;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bytes;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pn_table_properties() {
        let pn = pn_table();
        // All sequences distinct.
        for i in 0..16 {
            for j in i + 1..16 {
                assert_ne!(pn[i], pn[j], "sequences {i} and {j} identical");
            }
        }
        // Low cross-correlation between the 8 base rotations.
        for i in 0..8 {
            for j in 0..8 {
                if i == j {
                    continue;
                }
                let c: i32 = pn[i].iter().zip(pn[j].iter()).map(|(&a, &b)| (a * b) as i32).sum();
                assert!(c.abs() <= 8, "rotations {i},{j} correlate {c}");
            }
        }
    }

    #[test]
    fn nibble_round_trip() {
        let bytes = vec![0xA7, 0x01, 0xFF, 0x3C];
        let syms = ZigBeeModulator::bytes_to_symbols(&bytes);
        assert_eq!(syms[0], 0x7); // low nibble first
        assert_eq!(syms[1], 0xA);
        assert_eq!(ZigBeeModulator::symbols_to_bytes(&syms), bytes);
    }

    #[test]
    fn oqpsk_envelope_is_nearly_constant() {
        let m = ZigBeeModulator::new(ZigBeeConfig::default());
        let tx = m.modulate(&[0x12, 0x34, 0x56]);
        // MSK-like: PAPR close to 1 away from the ramp-up/down edges.
        let inner = tx.slice(64, tx.len() - 128);
        assert!(inner.papr() < 1.4, "papr {}", inner.papr());
    }

    #[test]
    fn clean_round_trip() {
        let mut rng = StdRng::seed_from_u64(61);
        let psdu = random_bytes(&mut rng, 40);
        let cfg = ZigBeeConfig::default();
        let tx = ZigBeeModulator::new(cfg).modulate(&psdu);
        let dec = ZigBeeDemodulator::new(cfg).demodulate(&tx).expect("decode");
        assert!(dec.fcs_ok);
        assert_eq!(dec.psdu, psdu);
    }

    #[test]
    fn round_trip_with_silence_gain_rotation() {
        let mut rng = StdRng::seed_from_u64(62);
        let psdu = random_bytes(&mut rng, 20);
        let cfg = ZigBeeConfig::default();
        let tx = ZigBeeModulator::new(cfg).modulate(&psdu);
        let h = Complex64::from_polar(0.01, 2.3);
        let mut samples = vec![Complex64::ZERO; 200];
        samples.extend(tx.samples().iter().map(|&s| s * h));
        let rx = IqBuf::new(samples, tx.rate());
        let dec = ZigBeeDemodulator::new(cfg).demodulate(&rx).expect("decode");
        assert!(dec.fcs_ok);
        assert_eq!(dec.psdu, psdu);
    }

    /// The engine's batched-trial hint: frame at the head, no CFO.
    const BATCH_HINT: crate::fastsync::SyncHint =
        crate::fastsync::SyncHint { radius: 8, cfo_free: true };
    /// The per-trial `tag_packet` hint: frame at the head, estimator kept.
    const WINDOW_HINT: crate::fastsync::SyncHint =
        crate::fastsync::SyncHint { radius: 8, cfo_free: false };

    /// `samples` plus uniform complex noise `snr_db` below their mean
    /// power.
    fn add_noise(samples: &mut [Complex64], snr_db: f64, rng: &mut StdRng) {
        let power = samples.iter().map(|s| s.norm_sqr()).sum::<f64>() / samples.len() as f64;
        // Uniform on (−a, a) per component has power 2a²/3.
        let a = (1.5 * power / 10f64.powf(snr_db / 10.0)).sqrt();
        for s in samples.iter_mut() {
            *s += Complex64::new(rng.gen_range(-a..a), rng.gen_range(-a..a));
        }
    }

    /// Asserts two decode results equal bit for bit: every field, the
    /// soft values by `to_bits`.
    fn assert_same_decode(
        a: &Result<ZigBeeDecoded, DecodeError>,
        b: &Result<ZigBeeDecoded, DecodeError>,
        ctx: &str,
    ) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.psdu, b.psdu, "{ctx}");
                assert_eq!(a.fcs_ok, b.fcs_ok, "{ctx}");
                assert_eq!(a.phr_start, b.phr_start, "{ctx}");
                assert_eq!(a.raw_symbols, b.raw_symbols, "{ctx}");
                assert_eq!(bits(&a.symbol_quality), bits(&b.symbol_quality), "{ctx}");
                let chips =
                    |d: &ZigBeeDecoded| d.raw_chips.iter().map(|c| bits(c)).collect::<Vec<_>>();
                assert_eq!(chips(a), chips(b), "{ctx}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}"),
            (a, b) => panic!("{ctx}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn windowed_sync_matches_full_decode_on_aligned_noisy_frames() {
        let cfg = ZigBeeConfig::default();
        let demod = ZigBeeDemodulator::new(cfg);
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let psdu = random_bytes(&mut rng, 30);
            let tx = ZigBeeModulator::new(cfg).modulate(&psdu);
            let mut noisy: Vec<Complex64> = tx.samples().to_vec();
            for s in noisy.iter_mut() {
                let n = Complex64::new(rng.gen_range(-0.25..0.25), rng.gen_range(-0.25..0.25));
                *s += n;
            }
            let rx = IqBuf::new(noisy, tx.rate());
            let full = demod.demodulate(&rx);
            let hinted = crate::fastsync::with_hint(BATCH_HINT, || demod.demodulate(&rx));
            match (full, hinted) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.psdu, b.psdu, "seed {seed}");
                    assert_eq!(a.fcs_ok, b.fcs_ok, "seed {seed}");
                    assert_eq!(a.phr_start, b.phr_start, "seed {seed}");
                }
                (a, b) => panic!("seed {seed}: full {a:?} vs hinted {b:?}"),
            }
        }
    }

    #[test]
    fn window_only_hint_decodes_bit_identically() {
        // abl-gamma's buffers: a κ = 2γ overlay carrier of 12 productive
        // symbols at the buffer head, whole γ-symbol groups of the
        // payload π-flipped as a tag would, at 6 / 2 / −2 dB; then
        // ±20 kHz carrier offsets, where the kept estimator must
        // correct before the windowed search.
        let cfg = ZigBeeConfig::default();
        let modem = ZigBeeModulator::new(cfg);
        let demod = ZigBeeDemodulator::new(cfg);
        let sps = cfg.samples_per_symbol();
        let payload_at = (PREAMBLE_SYMBOLS + 2 + 2) * sps;
        let mut rng = StdRng::seed_from_u64(64);
        let frame = |gamma: usize, rng: &mut StdRng| {
            let productive: Vec<u8> = (0..12).map(|_| rng.gen_range(0..16u8)).collect();
            let tx = modem.modulate_overlay_carrier(&productive, 2 * gamma);
            let mut samples = tx.samples().to_vec();
            for group in samples[payload_at..].chunks_mut(gamma * sps) {
                if rng.gen_bool(0.5) {
                    group.iter_mut().for_each(|s| *s = -*s);
                }
            }
            IqBuf::new(samples, tx.rate())
        };
        let mut cases = Vec::new();
        for gamma in [2usize, 4, 6] {
            for snr_db in [6.0, 2.0, -2.0] {
                for _ in 0..3 {
                    cases.push((format!("γ {gamma}, {snr_db} dB"), frame(gamma, &mut rng), snr_db));
                }
            }
        }
        for cfo in [-20e3, 20e3] {
            for snr_db in [15.0, 2.0] {
                let tx = frame(4, &mut rng).freq_shift(cfo);
                cases.push((format!("CFO {cfo} Hz, {snr_db} dB"), tx, snr_db));
            }
        }
        let mut decoded = 0;
        for (ctx, tx, snr_db) in cases {
            let mut samples = tx.samples().to_vec();
            add_noise(&mut samples, snr_db, &mut rng);
            let rx = IqBuf::new(samples, tx.rate());
            let full = demod.demodulate(&rx);
            let hinted = crate::fastsync::with_hint(WINDOW_HINT, || demod.demodulate(&rx));
            assert_same_decode(&full, &hinted, &ctx);
            decoded += usize::from(full.is_ok());
        }
        // Not vacuous: most of these frames decode.
        assert!(decoded >= 25, "only {decoded} of 31 decoded");
    }

    #[test]
    fn windowed_sync_falls_back_when_frame_is_out_of_window() {
        // Frame starts 200 samples in — far outside the 8-sample hint
        // window — so a hinted decode must fall back to the full search
        // and decode exactly as an unhinted one.
        let mut rng = StdRng::seed_from_u64(63);
        let psdu = random_bytes(&mut rng, 20);
        let cfg = ZigBeeConfig::default();
        let tx = ZigBeeModulator::new(cfg).modulate(&psdu);
        let mut samples = vec![Complex64::ZERO; 200];
        samples.extend_from_slice(tx.samples());
        add_noise(&mut samples, 10.0, &mut rng);
        let rx = IqBuf::new(samples, tx.rate());
        let demod = ZigBeeDemodulator::new(cfg);
        let full = demod.demodulate(&rx);
        let hinted = crate::fastsync::with_hint(WINDOW_HINT, || demod.demodulate(&rx));
        assert_same_decode(&full, &hinted, "window-only hint");
        let dec = crate::fastsync::with_hint(BATCH_HINT, || demod.demodulate(&rx))
            .expect("fallback decode");
        assert!(dec.fcs_ok);
        assert_eq!(dec.psdu, psdu);
    }

    #[test]
    fn frame_duration_matches_spec() {
        // SHR (10 sym) + PHR (2 sym) + (20+2 FCS bytes → 44 sym), 16 µs
        // per symbol.
        let cfg = ZigBeeConfig::default();
        let tx = ZigBeeModulator::new(cfg).modulate(&[0u8; 20]);
        let want = (10 + 2 + 44) as f64 * 16e-6;
        assert!((tx.duration() - want).abs() < 1e-6, "duration {}", tx.duration());
    }

    #[test]
    fn pi_flip_never_maps_to_self_and_is_weak() {
        // Full chip inversion never lands back on the same symbol, but it
        // also never lands *cleanly* on any other: the best match is only
        // 8/32 — the quantitative reason the overlay decoder works at
        // chip level for ZigBee and the paper requires γ = 3.
        let pn = pn_table();
        let map = pi_flip_translation();
        for (s, &t) in map.iter().enumerate() {
            assert_ne!(s as u8, t, "symbol {s} maps to itself");
            let inverted: Vec<f64> = pn[s].iter().map(|&c| -c as f64).collect();
            let best: f64 =
                inverted.iter().zip(pn[t as usize].iter()).map(|(&x, &p)| x * p as f64).sum();
            assert!((best - 8.0).abs() < 1e-9, "inversion of {s} matches {t} at {best}");
        }
    }

    #[test]
    fn chip_level_flip_detection_is_robust() {
        // The overlay decoder's actual primitive: correlate received
        // chips against the reference PN. A π flip moves the score from
        // +32 to −32 — unambiguous.
        let pn = pn_table();
        for s in 0..16usize {
            let chips: Vec<f64> = pn[s].iter().map(|&c| c as f64).collect();
            let corr: f64 = chips.iter().zip(pn[s].iter()).map(|(&x, &p)| x * p as f64).sum();
            assert!((corr - 32.0).abs() < 1e-9);
            let flipped: Vec<f64> = chips.iter().map(|&c| -c).collect();
            let corr2: f64 = flipped.iter().zip(pn[s].iter()).map(|(&x, &p)| x * p as f64).sum();
            assert!((corr2 + 32.0).abs() < 1e-9);
        }
    }

    #[test]
    fn persistent_pi_flip_decodes_as_translated_symbols() {
        // Flip the whole payload phase; every payload symbol must decode
        // to translate(original) — codeword translation in action.
        let cfg = ZigBeeConfig::default();
        let m = ZigBeeModulator::new(cfg);
        let psdu = vec![0x21u8, 0x43];
        let symbols = m.frame_symbols(&psdu);
        let tx = m.chips_to_iq(&m.symbols_to_chips(&symbols));
        let sps = cfg.samples_per_symbol();
        let flip_from = (PREAMBLE_SYMBOLS + 2 + 2) * sps; // after PHR
        let mut samples = tx.samples().to_vec();
        for s in samples[flip_from..].iter_mut() {
            *s = -*s;
        }
        let rx = IqBuf::new(samples, tx.rate());
        let dec = ZigBeeDemodulator::new(cfg).demodulate(&rx).expect("decode");
        let map = pi_flip_translation();
        let tx_syms = ZigBeeModulator::bytes_to_symbols(&psdu);
        // Payload symbols (skip PHR, ignore FCS tail and the transition
        // symbol which the paper also concedes, §2.4.2). The inverted
        // chips sit ~8/32 from several codewords at once, so the exact
        // landing symbol is tie-sensitive; the robust property is that
        // the flip *changes* every symbol decision (codeword translation
        // happened) and mostly lands where the ideal map predicts.
        let got = &dec.raw_symbols[2..2 + tx_syms.len()];
        let mut map_hits = 0;
        for (i, (&g, &s)) in got.iter().zip(&tx_syms).enumerate().skip(1) {
            assert_ne!(g, s, "flipped symbol {i} decoded as the original");
            if g == map[s as usize] {
                map_hits += 1;
            }
        }
        assert!(map_hits >= (tx_syms.len() - 1) / 2, "map hits {map_hits}");
    }

    #[test]
    fn overlay_carrier_repeats_symbols() {
        let cfg = ZigBeeConfig::default();
        let m = ZigBeeModulator::new(cfg);
        let productive = vec![0x3u8, 0xA, 0x5, 0xC];
        let tx = m.modulate_overlay_carrier(&productive, 4);
        let dec = ZigBeeDemodulator::new(cfg).demodulate(&tx).expect("decode");
        for (i, &p) in productive.iter().enumerate() {
            for k in 0..4 {
                assert_eq!(dec.raw_symbols[2 + i * 4 + k], p, "sym {i} copy {k}");
            }
        }
    }

    #[test]
    fn survives_moderate_cfo() {
        // The 16 µs-periodicity estimator covers ±31 kHz (±12.8 ppm);
        // test at ±20 kHz, well inside a good crystal's drift.
        let mut rng = StdRng::seed_from_u64(63);
        let psdu = random_bytes(&mut rng, 24);
        let cfg = ZigBeeConfig::default();
        let tx = ZigBeeModulator::new(cfg).modulate(&psdu);
        let demod = ZigBeeDemodulator::new(cfg);
        for cfo in [-20e3, -8e3, 8e3, 20e3] {
            let rx = tx.freq_shift(cfo);
            let est = demod.estimate_cfo_hz(&rx);
            assert!((est - cfo).abs() < 1.5e3, "CFO {cfo}: estimated {est}");
            let dec = demod.demodulate(&rx).unwrap_or_else(|e| panic!("CFO {cfo}: {e:?}"));
            assert!(dec.fcs_ok, "FCS at CFO {cfo}");
            assert_eq!(dec.psdu, psdu, "payload at CFO {cfo}");
        }
    }

    #[test]
    #[should_panic]
    fn oversize_psdu_rejected() {
        let cfg = ZigBeeConfig::default();
        let _ = ZigBeeModulator::new(cfg).modulate(&[0u8; 126]);
    }
}
