//! Full 802.11n (20 MHz, single-stream) OFDM modem: L-STF/L-LTF/L-SIG +
//! HT-SIG/HT-STF/HT-LTF preamble, BCC-coded and interleaved data symbols,
//! and a commodity-receiver demodulator with channel estimation.

use crate::conv::{
    depuncture, encode as bcc_encode, puncture, viterbi_decode, viterbi_decode_erasures, Puncture,
};
use crate::interleave::{deinterleave_stream, interleave_stream};
use crate::ofdm::{stf_seq, OfdmEngine, LTF_SEQ, N_DATA, SYM_LEN};
use crate::protocol::DecodeError;
use crate::scramble::scramble_11a;
use crate::symbols::Constellation;
use msc_dsp::{Complex64, IqBuf, SampleRate};

/// Supported HT MCS values (all rate 1/2 BCC; the paper's evaluation uses
/// MCS 0 plus the constellation sweep of Fig. 17).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mcs {
    /// BPSK, rate 1/2 — the paper's default (MCS = 0, §3).
    Mcs0,
    /// QPSK, rate 1/2.
    Mcs1,
    /// QPSK, rate 3/4 (punctured).
    Mcs2,
    /// 16-QAM, rate 1/2.
    Mcs3,
    /// 16-QAM, rate 3/4 (punctured).
    Mcs4,
}

impl Mcs {
    /// The subcarrier constellation.
    pub fn constellation(self) -> Constellation {
        match self {
            Mcs::Mcs0 => Constellation::Bpsk,
            Mcs::Mcs1 | Mcs::Mcs2 => Constellation::Qpsk,
            Mcs::Mcs3 | Mcs::Mcs4 => Constellation::Qam16,
        }
    }

    /// The BCC puncturing pattern.
    pub fn puncture(self) -> Puncture {
        match self {
            Mcs::Mcs0 | Mcs::Mcs1 | Mcs::Mcs3 => Puncture::R12,
            Mcs::Mcs2 | Mcs::Mcs4 => Puncture::R34,
        }
    }

    /// Coded bits per OFDM symbol.
    pub fn n_cbps(self) -> usize {
        N_DATA * self.constellation().bits_per_symbol()
    }

    /// Data bits per OFDM symbol (code rate applied).
    pub fn n_dbps(self) -> usize {
        let (k, n) = self.puncture().rate();
        self.n_cbps() * k / n
    }

    /// Index carried in HT-SIG.
    pub fn index(self) -> u8 {
        match self {
            Mcs::Mcs0 => 0,
            Mcs::Mcs1 => 1,
            Mcs::Mcs2 => 2,
            Mcs::Mcs3 => 3,
            Mcs::Mcs4 => 4,
        }
    }

    /// Parses an HT-SIG MCS index.
    pub fn from_index(v: u8) -> Option<Self> {
        match v {
            0 => Some(Mcs::Mcs0),
            1 => Some(Mcs::Mcs1),
            2 => Some(Mcs::Mcs2),
            3 => Some(Mcs::Mcs3),
            4 => Some(Mcs::Mcs4),
            _ => None,
        }
    }
}

/// Modem configuration.
#[derive(Clone, Debug)]
pub struct WifiNConfig {
    /// Data-symbol MCS.
    pub mcs: Mcs,
}

impl Default for WifiNConfig {
    fn default() -> Self {
        WifiNConfig { mcs: Mcs::Mcs0 }
    }
}

impl WifiNConfig {
    /// 20 Msps baseband.
    pub fn sample_rate(&self) -> SampleRate {
        SampleRate::mhz(20.0)
    }
}

/// An 802.11n frame demodulated to its data symbols: sync, channel
/// estimate, HT-SIG and the per-symbol demap, before the BCC stage.
#[derive(Clone, Debug)]
pub struct WifiNSymbols {
    /// MCS signaled in HT-SIG.
    pub mcs: Mcs,
    /// PSDU length signaled in HT-SIG, in bits.
    pub length: usize,
    /// Whether HT-SIG verified.
    pub htsig_ok: bool,
    /// Raw demapped coded bits per data symbol (pre-deinterleave), the
    /// overlay decoder's input.
    pub raw_symbol_bits: Vec<Vec<u8>>,
    /// Equalized data constellation points per symbol (diagnostics).
    pub symbol_points: Vec<Vec<Complex64>>,
    /// Index of the first data-symbol sample in the buffer.
    pub data_start: usize,
}

/// A decoded 802.11n frame: the demodulated symbols plus the PSDU the
/// BCC stage recovers from them.
#[derive(Clone, Debug)]
pub struct WifiNDecoded {
    /// Decoded (descrambled) PSDU bits.
    pub psdu_bits: Vec<u8>,
    /// The symbol-level demodulation the PSDU was decoded from.
    pub symbols: WifiNSymbols,
}

/// Builds the deterministic preamble waveform (L-STF through HT-LTF) so
/// receivers can matched-filter against it.
fn preamble_samples(eng: &OfdmEngine) -> Vec<Complex64> {
    let mut out = Vec::new();
    // L-STF: two symbols' worth of the periodic STF (160 samples).
    let stf_f = stf_seq();
    let stf_sym = eng.assemble_from_seq(&stf_f);
    // The STF has period 16; emit 160 samples by repeating its FFT body.
    let body = &stf_sym[16..80]; // 64-sample period-16 waveform
    for i in 0..160 {
        out.push(body[i % 64]);
    }
    // L-LTF: 32-sample GI2 + two 64-sample repetitions.
    let ltf_f: Vec<Complex64> = LTF_SEQ.iter().map(|&l| Complex64::new(l, 0.0)).collect();
    let ltf_sym = eng.assemble_from_seq(&ltf_f); // CP(16)+64
    let ltf_body = &ltf_sym[16..80];
    out.extend_from_slice(&ltf_body[32..]); // GI2
    out.extend_from_slice(ltf_body);
    out.extend_from_slice(ltf_body);
    out
}

/// Samples consumed by L-STF + L-LTF.
const LEGACY_TRAIN_LEN: usize = 160 + 160;

/// The 802.11n modulator.
#[derive(Clone, Debug)]
pub struct WifiNModulator {
    config: WifiNConfig,
    eng: OfdmEngine,
}

impl WifiNModulator {
    /// Creates a modulator.
    pub fn new(config: WifiNConfig) -> Self {
        WifiNModulator { config, eng: OfdmEngine::new() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WifiNConfig {
        &self.config
    }

    /// Encodes one BPSK rate-1/2 signaling symbol (L-SIG / HT-SIG style):
    /// 24 bits in → 48 coded/interleaved bits → 48 BPSK points.
    fn sig_symbol(&self, bits24: &[u8], pidx: usize) -> Vec<Complex64> {
        assert_eq!(bits24.len(), 24);
        let coded = bcc_encode(bits24);
        let inter = interleave_stream(&coded, 48, 1);
        let points = Constellation::Bpsk.map_stream(&inter);
        self.eng.assemble_data_symbol(&points, pidx)
    }

    /// HT-SIG content: mcs(8) + length(16) + checksum(8) + tail(6) + pad
    /// → two BPSK symbols.
    fn htsig_bits(&self, psdu_bits_len: usize) -> Vec<u8> {
        let mut bits = Vec::with_capacity(48);
        let mcs = self.config.mcs.index();
        for i in 0..8 {
            bits.push((mcs >> i) & 1);
        }
        let len = psdu_bits_len as u32;
        for i in 0..16 {
            bits.push(((len >> i) & 1) as u8);
        }
        // Simple 8-bit checksum over the first 24 bits (stands in for the
        // HT-SIG CRC; same detection role).
        let sum: u32 = bits.iter().enumerate().map(|(i, &b)| (b as u32) << (i % 8)).sum();
        let ck = (sum & 0xFF) as u8;
        for i in 0..8 {
            bits.push((ck >> i) & 1);
        }
        bits.extend(std::iter::repeat_n(0u8, 48 - bits.len())); // tail+pad
        bits
    }

    /// Modulates PSDU bits into a full-frame IQ waveform at 20 Msps.
    pub fn modulate(&self, psdu_bits: &[u8]) -> IqBuf {
        let mut samples = preamble_samples(&self.eng);

        // L-SIG: 24 bits — rate marker + length placeholder + parity/tail.
        let mut lsig = vec![1u8, 1, 0, 1, 0, 0]; // 6 Mbps legacy rate code
        let ln = (psdu_bits.len() / 8).min(4095) as u16;
        lsig.push(0);
        for i in 0..12 {
            lsig.push(((ln >> i) & 1) as u8);
        }
        let parity = lsig.iter().fold(0u8, |a, &b| a ^ b);
        lsig.push(parity);
        lsig.extend_from_slice(&[0; 4]); // tail (truncated to fit 24)
        samples.extend(self.sig_symbol(&lsig[..24], 0));

        // HT-SIG: two symbols.
        let ht = self.htsig_bits(psdu_bits.len());
        samples.extend(self.sig_symbol(&ht[..24], 1));
        samples.extend(self.sig_symbol(&ht[24..48], 2));

        // HT-STF + HT-LTF (reusing the legacy sequences; single stream).
        samples.extend(self.eng.assemble_from_seq(&stf_seq()));
        let ltf_f: Vec<Complex64> = LTF_SEQ.iter().map(|&l| Complex64::new(l, 0.0)).collect();
        samples.extend(self.eng.assemble_from_seq(&ltf_f));

        // Data: SERVICE(16 zeros) + PSDU + tail(6) + pad, scrambled then
        // BCC + interleave + map.
        let n_dbps = self.config.mcs.n_dbps();
        let mut data = vec![0u8; 16];
        data.extend_from_slice(psdu_bits);
        data.extend_from_slice(&[0; 6]);
        while !data.len().is_multiple_of(n_dbps) {
            data.push(0);
        }
        let mut scrambled = scramble_11a(&data, 0x5D);
        // Zero the tail bits post-scrambling (per spec) so the trellis
        // terminates.
        let tail_at = 16 + psdu_bits.len();
        for i in tail_at..(tail_at + 6).min(scrambled.len()) {
            scrambled[i] = 0;
        }
        let coded = puncture(&bcc_encode(&scrambled), self.config.mcs.puncture());
        let n_cbps = self.config.mcs.n_cbps();
        let inter =
            interleave_stream(&coded, n_cbps, self.config.mcs.constellation().bits_per_symbol());
        let c = self.config.mcs.constellation();
        for (s, chunk) in inter.chunks(n_cbps).enumerate() {
            let points = c.map_stream(chunk);
            self.eng.assemble_data_symbol_into(&points, 3 + s, &mut samples);
        }

        IqBuf::new(samples, self.config.sample_rate())
    }

    /// Generates an overlay carrier: after the normal preamble and
    /// signaling fields, each *reference block* of `n_cbps` raw
    /// constellation bits is transmitted `kappa` times (bypassing
    /// scrambler/BCC for the payload, which the paper notes are "not
    /// completely compatible with codeword translation", §2.4.2).
    ///
    /// `reference_bits` length must be a multiple of `n_cbps`.
    pub fn modulate_overlay_carrier(&self, reference_bits: &[u8], kappa: usize) -> IqBuf {
        assert!(kappa >= 2);
        let n_cbps = self.config.mcs.n_cbps();
        assert_eq!(reference_bits.len() % n_cbps, 0, "reference bits must fill whole symbols");
        // Preamble + signaling identical to a normal frame; signal length
        // encodes the total number of data symbols via psdu_bits_len.
        let n_ref = reference_bits.len() / n_cbps;
        let total_syms = n_ref * kappa;
        // Craft a pseudo length so the receiver demods the right count:
        // n_dbps data bits per symbol.
        let pseudo_payload = total_syms * self.config.mcs.n_dbps() - 16 - 6;
        let mut samples = {
            // Reuse modulate()'s preamble path by building it directly.
            let mut s = preamble_samples(&self.eng);
            let mut lsig = vec![1u8, 1, 0, 1, 0, 0];
            let ln = (pseudo_payload / 8).min(4095) as u16;
            lsig.push(0);
            for i in 0..12 {
                lsig.push(((ln >> i) & 1) as u8);
            }
            let parity = lsig.iter().fold(0u8, |a, &b| a ^ b);
            lsig.push(parity);
            lsig.extend_from_slice(&[0; 4]);
            s.extend(self.sig_symbol(&lsig[..24], 0));
            let ht = self.htsig_bits(pseudo_payload);
            s.extend(self.sig_symbol(&ht[..24], 1));
            s.extend(self.sig_symbol(&ht[24..48], 2));
            s.extend(self.eng.assemble_from_seq(&stf_seq()));
            let ltf_f: Vec<Complex64> = LTF_SEQ.iter().map(|&l| Complex64::new(l, 0.0)).collect();
            s.extend(self.eng.assemble_from_seq(&ltf_f));
            s
        };
        let c = self.config.mcs.constellation();
        let mut pidx = 3;
        for block in reference_bits.chunks(n_cbps) {
            let points = c.map_stream(block);
            for _ in 0..kappa {
                self.eng.assemble_data_symbol_into(&points, pidx, &mut samples);
                pidx += 1;
            }
        }
        IqBuf::new(samples, self.config.sample_rate())
    }
}

/// The 802.11n receiver.
#[derive(Clone, Debug)]
pub struct WifiNDemodulator {
    eng: OfdmEngine,
    /// The legacy preamble (L-STF + L-LTF) sync matched-filters against,
    /// built once.
    preamble: Vec<Complex64>,
}

/// Sync offsets [`WifiNDemodulator`] searches, at most.
const SYNC_SEARCH: usize = 4000;

impl WifiNDemodulator {
    /// Creates a demodulator.
    pub fn new() -> Self {
        let eng = OfdmEngine::new();
        let preamble = preamble_samples(&eng);
        WifiNDemodulator { eng, preamble }
    }

    /// Matched-filter sync against the deterministic legacy preamble.
    /// Scores the first `min(len − 320, 4000)` offsets, so only the
    /// samples those windows cover are correlated.
    fn find_sync(&self, samples: &[Complex64]) -> Option<usize> {
        let probe = &self.preamble[..160]; // L-STF
        if samples.len() < self.preamble.len() + SYM_LEN {
            return None;
        }
        let probe_energy: f64 = probe.iter().map(|s| s.norm_sqr()).sum();
        let mut best = (0usize, 0.0f64);
        let limit = (samples.len() - self.preamble.len()).min(SYNC_SEARCH);
        let searched = &samples[..limit + probe.len() - 1];
        let accs = msc_dsp::corr::complex_sliding_corr(searched, probe);
        let energies = msc_dsp::corr::sliding_energy(searched, probe.len());
        for (off, (acc, &sig_energy)) in accs.iter().zip(&energies).enumerate() {
            let denom = (probe_energy * sig_energy).sqrt();
            if denom > 1e-20 {
                let score = acc.abs() / denom;
                if score > best.1 {
                    best = (off, score);
                }
            }
        }
        if best.1 > 0.6 {
            Some(best.0)
        } else {
            None
        }
    }

    fn decode_sig_symbol(
        &self,
        samples: &[Complex64],
        chan: &[Complex64],
        pidx: usize,
    ) -> Option<Vec<u8>> {
        if samples.len() < SYM_LEN {
            return None;
        }
        let freq = self.eng.disassemble(samples);
        let (data, pilots) = self.eng.equalize(&freq, chan);
        let cpe = self.eng.pilot_cpe(&pilots, pidx);
        let raw = self.eng.demap(&data, cpe, Constellation::Bpsk);
        let deinter = deinterleave_stream(&raw, 48, 1);
        Some(viterbi_decode(&deinter))
    }

    /// Estimates the carrier frequency offset from the L-STF's 16-sample
    /// periodicity (Schmidl–Cox style): the lag-16 autocorrelation's
    /// phase equals `2π·f_cfo·16/fs` wherever the STF is on the air.
    /// Unambiguous for |CFO| < fs/32 = 625 kHz — far beyond crystal
    /// tolerances. Returns the CFO in Hz, or 0 when no periodic region
    /// is found.
    pub fn estimate_cfo_hz(&self, buf: &IqBuf) -> f64 {
        let samples = buf.samples();
        let lag = 16usize;
        let win = 128usize;
        if samples.len() < win + lag {
            return 0.0;
        }
        // Sliding lag-16 autocorrelation; track the best window.
        let mut best = (0usize, 0.0f64);
        let limit = (samples.len() - win - lag).min(4000);
        let mut acc = Complex64::ZERO;
        let mut energy = 0.0f64;
        for i in 0..win {
            acc += samples[i + lag] * samples[i].conj();
            energy += samples[i].norm_sqr() + samples[i + lag].norm_sqr();
        }
        let mut best_acc = acc;
        for start in 0..limit {
            let score = if energy > 1e-20 { acc.abs() / (energy / 2.0) } else { 0.0 };
            if score > best.1 {
                best = (start, score);
                best_acc = acc;
            }
            // Slide by one.
            acc += samples[start + win + lag] * samples[start + win].conj()
                - samples[start + lag] * samples[start].conj();
            energy += samples[start + win + lag].norm_sqr() + samples[start + win].norm_sqr()
                - samples[start + lag].norm_sqr()
                - samples[start].norm_sqr();
        }
        if best.1 < 0.75 {
            return 0.0;
        }
        // Consistency check: re-estimate on the two halves of the best
        // window; noise that sneaked past the magnitude threshold gives
        // uncorrelated phases, a real STF gives matching ones.
        let start = best.0;
        let half = win / 2;
        let est = |a: usize, len: usize| -> f64 {
            let mut acc = Complex64::ZERO;
            for i in a..a + len {
                acc += samples[i + lag] * samples[i].conj();
            }
            acc.arg() * 20e6 / (std::f64::consts::TAU * lag as f64)
        };
        let e1 = est(start, half);
        let e2 = est(start + half, half);
        if (e1 - e2).abs() > 15e3 {
            return 0.0;
        }
        let phase = best_acc.arg();
        phase * 20e6 / (std::f64::consts::TAU * lag as f64)
    }

    /// Demodulates a frame, correcting carrier frequency offset first:
    /// [`Self::demodulate_symbols`], then the BCC stage (deinterleave,
    /// depuncture + Viterbi, descramble) for the PSDU.
    pub fn demodulate(&self, buf: &IqBuf) -> Result<WifiNDecoded, DecodeError> {
        let symbols = self.demodulate_symbols(buf)?;
        let psdu_bits = decode_bcc(&symbols);
        Ok(WifiNDecoded { psdu_bits, symbols })
    }

    /// Demodulates a frame up to its per-symbol demapped bits: CFO
    /// correction, sync, channel estimate, HT-SIG, then equalize and
    /// demap each data symbol. Readers of raw symbols (the overlay
    /// decoder) stop here and skip the BCC stage.
    pub fn demodulate_symbols(&self, buf: &IqBuf) -> Result<WifiNSymbols, DecodeError> {
        if buf.mean_power() < 1e-20 {
            return Err(DecodeError::SignalTooWeak);
        }
        // CFO correction: estimate from the STF and derotate. Residual
        // (sub-kHz) is absorbed by the per-symbol pilot CPE tracking.
        let cfo = self.estimate_cfo_hz(buf);
        let corrected;
        let buf = if cfo.abs() > 100.0 {
            corrected = buf.freq_shift(-cfo);
            &corrected
        } else {
            buf
        };
        let samples = buf.samples();
        let t0 = self.find_sync(samples).ok_or(DecodeError::SyncNotFound)?;

        // Channel estimate from the two L-LTF repetitions.
        let ltf_start = t0 + 160 + 32;
        if samples.len() < ltf_start + 128 + SYM_LEN {
            return Err(DecodeError::Truncated);
        }
        let mut ltf1 = samples[ltf_start..ltf_start + 64].to_vec();
        let mut ltf2 = samples[ltf_start + 64..ltf_start + 128].to_vec();
        // Average, then fake a CP so disassemble() can run uniformly.
        for i in 0..64 {
            ltf1[i] = (ltf1[i] + ltf2[i]).scale(0.5);
        }
        let mut with_cp = ltf1[64 - 16..].to_vec();
        with_cp.extend_from_slice(&ltf1);
        ltf2.clear();
        let rx_freq = self.eng.disassemble(&with_cp);
        let chan = self.eng.estimate_channel(&rx_freq);

        // L-SIG (ignored for routing — we trust HT-SIG) then HT-SIG.
        let lsig_at = t0 + LEGACY_TRAIN_LEN;
        let ht1_at = lsig_at + SYM_LEN;
        let ht2_at = ht1_at + SYM_LEN;
        let ht1 =
            self.decode_sig_symbol(&samples[ht1_at..], &chan, 1).ok_or(DecodeError::Truncated)?;
        let ht2 =
            self.decode_sig_symbol(&samples[ht2_at..], &chan, 2).ok_or(DecodeError::Truncated)?;
        let mut ht = ht1;
        ht.extend(ht2);
        let mcs_idx = ht[..8].iter().enumerate().fold(0u8, |a, (i, &b)| a | (b << i));
        let length = ht[8..24].iter().enumerate().fold(0u32, |a, (i, &b)| a | ((b as u32) << i));
        let sum: u32 = ht[..24].iter().enumerate().map(|(i, &b)| (b as u32) << (i % 8)).sum();
        let htsig_ok = (sum & 0xFF) as u8
            == ht[24..32].iter().enumerate().fold(0u8, |a, (i, &b)| a | (b << i));
        let mcs = Mcs::from_index(mcs_idx).ok_or(DecodeError::HeaderInvalid)?;
        if !htsig_ok {
            return Err(DecodeError::HeaderInvalid);
        }

        // Skip HT-STF + HT-LTF.
        let data_start = ht2_at + SYM_LEN + 2 * SYM_LEN;
        let n_dbps = mcs.n_dbps();
        let total_bits = 16 + length as usize + 6;
        let n_syms = total_bits.div_ceil(n_dbps);
        let c = mcs.constellation();

        let mut raw_symbol_bits = Vec::with_capacity(n_syms);
        let mut symbol_points = Vec::with_capacity(n_syms);
        // Continuous CPE tracking: the per-symbol pilot estimate folds to
        // (−π/2, π/2], so residual-CFO drift that crosses that boundary
        // would flip a whole symbol. Unwrap against the previous symbol's
        // value — smooth drift follows, genuine tag π flips (which the
        // fold removes) stay untouched.
        let mut cpe_track = 0.0f64;
        let fold_pi = |x: f64| -> f64 {
            let mut r = x.rem_euclid(std::f64::consts::PI);
            if r > std::f64::consts::FRAC_PI_2 {
                r -= std::f64::consts::PI;
            }
            r
        };
        let mut freq = Vec::with_capacity(53);
        for s in 0..n_syms {
            let at = data_start + s * SYM_LEN;
            if at + SYM_LEN > samples.len() {
                return Err(DecodeError::Truncated);
            }
            freq.clear();
            self.eng.disassemble_into(&samples[at..at + SYM_LEN], &mut freq);
            let (data, pilots) = self.eng.equalize(&freq, &chan);
            let folded = self.eng.pilot_cpe(&pilots, 3 + s);
            cpe_track += fold_pi(folded - cpe_track);
            let cpe = cpe_track;
            raw_symbol_bits.push(self.eng.demap(&data, cpe, c));
            symbol_points.push(data);
        }
        Ok(WifiNSymbols {
            mcs,
            length: length as usize,
            htsig_ok,
            raw_symbol_bits,
            symbol_points,
            data_start,
        })
    }
}

/// The BCC stage of [`WifiNDemodulator::demodulate`]: deinterleaves the
/// demapped symbols, depunctures and Viterbi-decodes them, descrambles,
/// and cuts out the signaled PSDU.
fn decode_bcc(symbols: &WifiNSymbols) -> Vec<u8> {
    let mcs = symbols.mcs;
    let n_cbps = mcs.n_cbps();
    let bits_per_point = mcs.constellation().bits_per_symbol();
    let mut coded_stream = Vec::with_capacity(symbols.raw_symbol_bits.len() * n_cbps);
    for raw in &symbols.raw_symbol_bits {
        coded_stream.extend(deinterleave_stream(raw, n_cbps, bits_per_point));
    }
    let decoded = match mcs.puncture() {
        Puncture::R12 => viterbi_decode(&coded_stream),
        p => {
            // A rate-k/n puncture delivers k data bits per n kept
            // coded bits, and the rate-1/2 mother stream is twice
            // the data length: original = kept · 2k / n.
            let (k, n2) = p.rate();
            let original_len = coded_stream.len() * 2 * k / n2;
            viterbi_decode_erasures(&depuncture(&coded_stream, p, original_len))
        }
    };
    let descrambled = scramble_11a(&decoded, 0x5D);
    let psdu_end = (16 + symbols.length).min(descrambled.len());
    descrambled[16.min(descrambled.len())..psdu_end].to_vec()
}

impl Default for WifiNDemodulator {
    fn default() -> Self {
        WifiNDemodulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{ber, random_bits};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn round_trip(mcs: Mcs, n_bits: usize, seed: u64) -> (Vec<u8>, WifiNDecoded) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = random_bits(&mut rng, n_bits);
        let cfg = WifiNConfig { mcs };
        let tx = WifiNModulator::new(cfg).modulate(&bits);
        let dec = WifiNDemodulator::new().demodulate(&tx).expect("decode");
        (bits, dec)
    }

    #[test]
    fn clean_round_trip_mcs0() {
        let (bits, dec) = round_trip(Mcs::Mcs0, 256, 31);
        assert_eq!(dec.symbols.mcs, Mcs::Mcs0);
        assert!(dec.symbols.htsig_ok);
        assert_eq!(ber(&bits, &dec.psdu_bits), 0.0);
    }

    #[test]
    fn clean_round_trip_mcs1_qpsk() {
        let (bits, dec) = round_trip(Mcs::Mcs1, 512, 32);
        assert_eq!(dec.symbols.mcs, Mcs::Mcs1);
        assert_eq!(ber(&bits, &dec.psdu_bits), 0.0);
    }

    #[test]
    fn clean_round_trip_mcs3_16qam() {
        let (bits, dec) = round_trip(Mcs::Mcs3, 1024, 33);
        assert_eq!(dec.symbols.mcs, Mcs::Mcs3);
        assert_eq!(ber(&bits, &dec.psdu_bits), 0.0);
    }

    #[test]
    fn survives_flat_channel_gain_and_rotation() {
        let mut rng = StdRng::seed_from_u64(34);
        let bits = random_bits(&mut rng, 256);
        let tx = WifiNModulator::new(WifiNConfig::default()).modulate(&bits);
        let h = Complex64::from_polar(0.02, 1.9);
        let rx_samples: Vec<Complex64> = tx.samples().iter().map(|&s| s * h).collect();
        let rx = IqBuf::new(rx_samples, tx.rate());
        let dec = WifiNDemodulator::new().demodulate(&rx).expect("decode");
        assert_eq!(ber(&bits, &dec.psdu_bits), 0.0);
    }

    #[test]
    fn ofdm_papr_is_high() {
        // OFDM's envelope structure — high PAPR — is one of the features
        // the tag's identifier keys on (Fig. 5a).
        let tx = WifiNModulator::new(WifiNConfig::default())
            .modulate(&random_bits(&mut StdRng::seed_from_u64(35), 512));
        assert!(tx.papr() > 2.0, "papr {}", tx.papr());
    }

    #[test]
    fn rejects_noise() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(36);
        let noise: Vec<Complex64> = (0..8000)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        assert!(WifiNDemodulator::new()
            .demodulate(&IqBuf::new(noise, SampleRate::mhz(20.0)))
            .is_err());
    }

    #[test]
    fn overlay_carrier_repeats_symbols() {
        let cfg = WifiNConfig::default();
        let modu = WifiNModulator::new(cfg);
        let mut rng = StdRng::seed_from_u64(37);
        let ref_bits = random_bits(&mut rng, 48 * 2); // two reference symbols
        let tx = modu.modulate_overlay_carrier(&ref_bits, 4);
        let dec = WifiNDemodulator::new().demodulate(&tx).expect("decode");
        assert_eq!(dec.symbols.raw_symbol_bits.len(), 8);
        // Each group of 4 raw symbols must be identical and equal to the
        // reference bits.
        for g in 0..2 {
            for k in 0..4 {
                assert_eq!(
                    dec.symbols.raw_symbol_bits[g * 4 + k],
                    ref_bits[g * 48..(g + 1) * 48].to_vec(),
                    "group {g} copy {k}"
                );
            }
        }
    }

    #[test]
    fn clean_round_trip_punctured_rates() {
        for (mcs, n_bits) in [(Mcs::Mcs2, 432), (Mcs::Mcs4, 840)] {
            let mut rng = StdRng::seed_from_u64(39);
            let bits = random_bits(&mut rng, n_bits);
            let tx = WifiNModulator::new(WifiNConfig { mcs }).modulate(&bits);
            let dec = WifiNDemodulator::new().demodulate(&tx).expect("decode");
            assert_eq!(dec.symbols.mcs, mcs);
            assert_eq!(ber(&bits, &dec.psdu_bits), 0.0, "{mcs:?}");
        }
    }

    #[test]
    fn punctured_rates_carry_more_bits_per_symbol() {
        assert_eq!(Mcs::Mcs1.n_dbps() * 3, Mcs::Mcs2.n_dbps() * 2);
        assert_eq!(Mcs::Mcs3.n_dbps() * 3, Mcs::Mcs4.n_dbps() * 2);
    }

    #[test]
    fn survives_crystal_grade_cfo() {
        // ±20 ppm at 2.44 GHz ≈ ±48.8 kHz. The STF-based estimator must
        // recover it and decode cleanly.
        let mut rng = StdRng::seed_from_u64(38);
        let bits = random_bits(&mut rng, 256);
        let tx = WifiNModulator::new(WifiNConfig::default()).modulate(&bits);
        let demod = WifiNDemodulator::new();
        for cfo in [-48.8e3, -12e3, 12e3, 48.8e3] {
            let rx = tx.freq_shift(cfo);
            let est = demod.estimate_cfo_hz(&rx);
            assert!((est - cfo).abs() < 2e3, "CFO {cfo}: estimated {est}");
            let dec = demod.demodulate(&rx).expect("decode under CFO");
            assert_eq!(ber(&bits, &dec.psdu_bits), 0.0, "errors at CFO {cfo}");
        }
    }

    #[test]
    fn frame_duration_structure() {
        // Preamble (20 us: STF 8 + LTF 8 + LSIG 4) + HTSIG 8 + HTSTF 4 +
        // HTLTF 4 + data symbols of 4 us each.
        let bits = vec![0u8; 24 * 4 - 22]; // exactly 4 data symbols (16+psdu+6 = 96)
        let tx = WifiNModulator::new(WifiNConfig::default()).modulate(&bits);
        let want = (160 + 160 + 80 * 3 + 80 + 80 + 4 * 80) as f64 / 20e6;
        assert!((tx.duration() - want).abs() < 1e-9, "duration {}", tx.duration());
    }

    /// The pre-slicing sync search, kept as an oracle: it correlates the
    /// whole buffer against a freshly built preamble and then scores
    /// only the first `min(len − 320, 4000)` offsets.
    fn find_sync_full_buffer(samples: &[Complex64]) -> Option<usize> {
        let pre = preamble_samples(&OfdmEngine::new());
        let probe = &pre[..160];
        if samples.len() < pre.len() + SYM_LEN {
            return None;
        }
        let probe_energy: f64 = probe.iter().map(|s| s.norm_sqr()).sum();
        let mut best = (0usize, 0.0f64);
        let limit = (samples.len() - pre.len()).min(4000);
        let accs = msc_dsp::corr::complex_sliding_corr(samples, probe);
        let energies = msc_dsp::corr::sliding_energy(samples, probe.len());
        for (off, (acc, &sig_energy)) in accs.iter().zip(&energies).enumerate().take(limit) {
            let denom = (probe_energy * sig_energy).sqrt();
            if denom > 1e-20 {
                let score = acc.abs() / denom;
                if score > best.1 {
                    best = (off, score);
                }
            }
        }
        if best.1 > 0.6 {
            Some(best.0)
        } else {
            None
        }
    }

    /// `frame` placed `at` samples into a `len`-sample buffer (truncated
    /// at the end), plus uniform complex noise `snr_db` below the
    /// frame's mean power.
    fn noisy_buffer(
        frame: &IqBuf,
        at: usize,
        len: usize,
        snr_db: f64,
        seed: u64,
    ) -> Vec<Complex64> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        // Uniform on (−a, a) per component has power 2a²/3.
        let noise_power = frame.mean_power() / 10f64.powf(snr_db / 10.0);
        let a = (1.5 * noise_power).sqrt();
        let mut out = vec![Complex64::ZERO; len];
        for (o, &s) in out[at.min(len)..].iter_mut().zip(frame.samples()) {
            *o = s;
        }
        for o in &mut out {
            *o += Complex64::new(rng.gen_range(-a..a), rng.gen_range(-a..a));
        }
        out
    }

    #[test]
    fn sliced_sync_matches_full_buffer_search() {
        let demod = WifiNDemodulator::new();
        let frame = WifiNModulator::new(WifiNConfig::default())
            .modulate(&random_bits(&mut StdRng::seed_from_u64(40), 320));
        let mut found = 0;
        for (k, snr_db) in [-5.0, 0.0, 5.0, 10.0, 15.0, 20.0].into_iter().enumerate() {
            for at in [0usize, 37, 3990] {
                let len = at + frame.len() + 300;
                let buf = noisy_buffer(&frame, at, len, snr_db, 41 + k as u64 * 7 + at as u64);
                let got = demod.find_sync(&buf);
                assert_eq!(got, find_sync_full_buffer(&buf), "snr {snr_db} dB, frame at {at}");
                found += usize::from(got == Some(at));
            }
        }
        // The oracle comparison must not be vacuous: clean-enough frames
        // sync exactly.
        assert!(found >= 12, "only {found} of 18 exact syncs");

        // Past the searched range: a clean frame at 4500 outscores the
        // weak in-range copy at 120, yet both searches keep to the first
        // 4000 offsets and pick the copy.
        let mut buf = noisy_buffer(&frame, 4500, 4500 + frame.len(), 30.0, 50);
        for (o, &s) in buf[120..].iter_mut().zip(frame.samples()) {
            *o += s.scale(0.3);
        }
        assert!(buf.len() > 4000 + LEGACY_TRAIN_LEN);
        let got = demod.find_sync(&buf);
        assert_eq!(got, find_sync_full_buffer(&buf));
        assert_eq!(got, Some(120));
        // With no in-range copy at all, both report no sync.
        let only_far = noisy_buffer(&frame, 4500, 4500 + frame.len(), 30.0, 51);
        assert_eq!(demod.find_sync(&only_far), None);
        assert_eq!(find_sync_full_buffer(&only_far), None);
    }

    #[test]
    fn symbol_stage_matches_full_demodulation() {
        let demod = WifiNDemodulator::new();
        for (k, mcs) in
            [Mcs::Mcs0, Mcs::Mcs1, Mcs::Mcs2, Mcs::Mcs3, Mcs::Mcs4].into_iter().enumerate()
        {
            let bits = random_bits(&mut StdRng::seed_from_u64(60 + k as u64), 432);
            let frame = WifiNModulator::new(WifiNConfig { mcs }).modulate(&bits);
            let noisy = noisy_buffer(&frame, 25, frame.len() + 80, 18.0, 70 + k as u64);
            let rx = IqBuf::new(noisy, frame.rate());
            let full = demod.demodulate(&rx).expect("decode").symbols;
            let syms = demod.demodulate_symbols(&rx).expect("demodulate symbols");
            assert_eq!(syms.mcs, mcs);
            assert_eq!(
                (syms.mcs, syms.length, syms.htsig_ok),
                (full.mcs, full.length, full.htsig_ok)
            );
            assert_eq!(syms.data_start, full.data_start, "{mcs:?}");
            assert_eq!(syms.raw_symbol_bits, full.raw_symbol_bits, "{mcs:?}");
            let bits_of = |pts: &[Vec<Complex64>]| -> Vec<(u64, u64)> {
                pts.iter().flatten().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
            };
            assert_eq!(bits_of(&syms.symbol_points), bits_of(&full.symbol_points), "{mcs:?}");
        }
    }
}
