//! Overlay modulation (paper §2.4): reference-based tag modulation on
//! top of productive carriers.
//!
//! ## Structure
//!
//! A carrier's payload is divided into *modulatable sequences* of κ base
//! symbols. The first γ symbols form the *reference block* (productive
//! data, repeated); each following γ-symbol *tag block* repeats the
//! reference content and is modulated by one tag bit:
//!
//! ```text
//! | r r r r | t₀ t₀ t₀ t₀ | ... ← κ = 8, γ = 4: 1 reference + 1 tag bit
//! ```
//!
//! ## Per-protocol tag modulation (paper §2.4.2)
//!
//! * **802.11b** (differential PSK receiver): tag bit 1 toggles the
//!   backscatter phase at *every* symbol boundary of the block (the
//!   Miller-code-inspired γ-fold redundancy), producing γ flipped
//!   differential decisions; bit 0 holds. γ even returns the phase state
//!   to its rest value at block end.
//! * **802.11n / ZigBee** (symbol-comparison receivers): tag bit 1 holds
//!   a π phase flip across the whole block; bit 0 holds the rest state.
//! * **BLE** (FSK): tag bit 1 applies Δf = −500 kHz for the block,
//!   turning each bit 1 into a bit 0 at the GFSK discriminator; bit 0
//!   leaves the carrier untouched.

use msc_dsp::IqBuf;
use msc_phy::protocol::Protocol;

/// The BLE tag-modulation frequency shift (paper §2.4.2: 500 kHz for a
/// modulation index of 0.5 at 1 Mbps).
pub const BLE_TAG_SHIFT_HZ: f64 = 500e3;

/// The κ/γ spreading parameters of one overlay configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverlayParams {
    /// Sequence length in base symbols (spread factor for productive
    /// data). Must be a multiple of `gamma`, at least `2·gamma`.
    pub kappa: usize,
    /// Tag-bit length in base symbols (spread factor for tag data).
    /// Even, so phase-toggle modulation returns to the rest state.
    pub gamma: usize,
}

impl OverlayParams {
    /// Creates parameters, validating the κ/γ relationship.
    pub fn new(kappa: usize, gamma: usize) -> Self {
        assert!(gamma >= 1 && gamma.is_multiple_of(2), "gamma must be even, got {gamma}");
        assert!(
            kappa >= 2 * gamma && kappa.is_multiple_of(gamma),
            "kappa must be a multiple of gamma and at least 2·gamma (got κ={kappa}, γ={gamma})"
        );
        OverlayParams { kappa, gamma }
    }

    /// Tag bits carried per sequence: `κ/γ − 1`.
    pub fn tag_bits_per_sequence(&self) -> usize {
        self.kappa / self.gamma - 1
    }

    /// Base symbols per sequence.
    pub fn symbols_per_sequence(&self) -> usize {
        self.kappa
    }

    /// Number of whole sequences in a payload of `n_symbols` base symbols.
    pub fn sequences_in(&self, n_symbols: usize) -> usize {
        n_symbols / self.kappa
    }
}

/// The three tradeoff modes of Table 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// κ = 2γ — reference and modulatable symbols 1:1.
    Mode1,
    /// κ = 4γ — modulatable:reference = 3:1.
    Mode2,
    /// κ = γ·n — a single reference for the whole payload of `n·γ`
    /// symbols; only one productive symbol per packet.
    Mode3 {
        /// Number of γ-blocks the payload holds (`n` in Table 6).
        n: usize,
    },
}

/// The per-protocol γ of Table 6.
pub fn gamma_for(protocol: Protocol) -> usize {
    match protocol {
        Protocol::WifiB | Protocol::Ble => 4,
        Protocol::WifiN | Protocol::ZigBee => 2,
    }
}

/// The Table 6 parameters for a protocol and mode.
pub fn params_for(protocol: Protocol, mode: Mode) -> OverlayParams {
    let gamma = gamma_for(protocol);
    let kappa = match mode {
        Mode::Mode1 => 2 * gamma,
        Mode::Mode2 => 4 * gamma,
        Mode::Mode3 { n } => gamma * n.max(2),
    };
    OverlayParams::new(kappa, gamma)
}

/// Productive information bits one reference block reliably carries on a
/// commodity receiver (see DESIGN.md, "overlay accounting"):
/// 11b/BLE — 1 bit; 11n — 1 robust bit (middle-half majority vote, since
/// the scrambler/BCC are bypassed); ZigBee — 4 bits (one native symbol).
pub fn productive_bits_per_sequence(protocol: Protocol) -> usize {
    match protocol {
        Protocol::WifiB | Protocol::Ble | Protocol::WifiN => 1,
        Protocol::ZigBee => 4,
    }
}

/// The tag-side overlay modulator: turns an identified excitation
/// waveform into the backscattered waveform.
#[derive(Clone, Debug)]
pub struct TagOverlayModulator {
    protocol: Protocol,
    params: OverlayParams,
    /// Base-symbol duration override (CCK symbols are 8/11 µs, not the
    /// protocol-default 1 µs).
    symbol_s: Option<f64>,
}

impl TagOverlayModulator {
    /// Creates a modulator for a protocol/mode pair.
    pub fn new(protocol: Protocol, params: OverlayParams) -> Self {
        TagOverlayModulator { protocol, params, symbol_s: None }
    }

    /// Overrides the base-symbol duration (e.g. 8/11 µs for CCK
    /// reference symbols; the tag learns the rate from the PLCP header).
    pub fn with_symbol_duration(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0);
        self.symbol_s = Some(seconds);
        self
    }

    /// Convenience: Table 6 parameters.
    pub fn for_mode(protocol: Protocol, mode: Mode) -> Self {
        TagOverlayModulator::new(protocol, params_for(protocol, mode))
    }

    /// The parameters in use.
    pub fn params(&self) -> OverlayParams {
        self.params
    }

    /// Samples per base symbol at the excitation's rate.
    fn samples_per_symbol(&self, buf: &IqBuf) -> usize {
        let s = self.symbol_s.unwrap_or(self.protocol.base_symbol_seconds());
        (s * buf.rate().as_hz()).round() as usize
    }

    /// Number of tag bits a payload of `n_symbols` base symbols carries.
    pub fn capacity(&self, n_symbols: usize) -> usize {
        self.params.sequences_in(n_symbols) * self.params.tag_bits_per_sequence()
    }

    /// Applies tag modulation to an excitation waveform.
    ///
    /// * `payload_start` — sample index of the first payload base symbol
    ///   (known to the tag from its packet-start detection plus the
    ///   protocol's fixed preamble/header length).
    /// * `tag_bits` — bits to modulate; truncated to capacity.
    ///
    /// Returns the modulated waveform (same length and rate).
    pub fn modulate(&self, excitation: &IqBuf, payload_start: usize, tag_bits: &[u8]) -> IqBuf {
        let mut out = excitation.clone();
        self.apply_in_place(&mut out, payload_start, tag_bits);
        out
    }

    /// [`TagOverlayModulator::modulate`] writing into a caller-owned
    /// buffer: `out` is overwritten with the excitation (reusing its
    /// allocation) and modulated in place — the Monte-Carlo engine's
    /// per-trial path with a shared cached excitation.
    pub fn modulate_into(
        &self,
        excitation: &IqBuf,
        payload_start: usize,
        tag_bits: &[u8],
        out: &mut IqBuf,
    ) {
        out.copy_from(excitation);
        self.apply_in_place(out, payload_start, tag_bits);
    }

    /// The modulation core: mutates `out` (already holding the clean
    /// excitation) block by block.
    fn apply_in_place(&self, out: &mut IqBuf, payload_start: usize, tag_bits: &[u8]) {
        let sps = self.samples_per_symbol(out);
        let n_symbols = out.len().saturating_sub(payload_start) / sps;
        let n_seq = self.params.sequences_in(n_symbols);
        let per_seq = self.params.tag_bits_per_sequence();
        let gamma = self.params.gamma;
        let rate_hz = out.rate().as_hz();

        let samples = out.samples_mut();
        let mut bit_idx = 0usize;
        let mut flipped_blocks = 0usize;
        for seq in 0..n_seq {
            for blk in 0..per_seq {
                let bit = tag_bits.get(bit_idx).copied().unwrap_or(0) & 1;
                bit_idx += 1;
                if bit == 0 {
                    continue;
                }
                flipped_blocks += 1;
                // Block start: skip the reference block (γ symbols).
                let sym0 = seq * self.params.kappa + gamma * (1 + blk);
                let start = payload_start + sym0 * sps;
                let end = (start + gamma * sps).min(samples.len());
                match self.protocol {
                    Protocol::WifiN | Protocol::ZigBee => {
                        // Hold a π flip for the whole block.
                        for s in samples[start.min(end)..end].iter_mut() {
                            *s = -*s;
                        }
                    }
                    Protocol::WifiB => {
                        // Toggle at every symbol boundary: odd symbols
                        // within the block are flipped.
                        for g in (0..gamma).step_by(2) {
                            let a = start + g * sps;
                            let b = (a + sps).min(samples.len());
                            for s in samples[a.min(b)..b].iter_mut() {
                                *s = -*s;
                            }
                        }
                    }
                    Protocol::Ble => {
                        // −Δf during the block (phase ramp).
                        let step = -std::f64::consts::TAU * BLE_TAG_SHIFT_HZ / rate_hz;
                        for (k, s) in samples[start.min(end)..end].iter_mut().enumerate() {
                            *s = s.rotate(step * k as f64);
                        }
                    }
                }
            }
        }
        if msc_obs::metrics::enabled() {
            let label = self.protocol.label();
            msc_obs::metrics::counter_add("overlay.sequences", label, "modulate", n_seq as u64);
            msc_obs::metrics::counter_add("overlay.tag_bits", label, "modulate", bit_idx as u64);
            msc_obs::metrics::counter_add(
                "overlay.flipped_blocks",
                label,
                "modulate",
                flipped_blocks as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_dsp::{Complex64, SampleRate};

    #[test]
    fn table6_parameters() {
        // Mode 1 / Mode 2 per Table 6.
        assert_eq!(params_for(Protocol::WifiB, Mode::Mode1), OverlayParams::new(8, 4));
        assert_eq!(params_for(Protocol::WifiB, Mode::Mode2), OverlayParams::new(16, 4));
        assert_eq!(params_for(Protocol::WifiN, Mode::Mode1), OverlayParams::new(4, 2));
        assert_eq!(params_for(Protocol::WifiN, Mode::Mode2), OverlayParams::new(8, 2));
        assert_eq!(params_for(Protocol::Ble, Mode::Mode1), OverlayParams::new(8, 4));
        assert_eq!(params_for(Protocol::ZigBee, Mode::Mode2), OverlayParams::new(8, 2));
        // Mode 3: κ = γ·n.
        assert_eq!(params_for(Protocol::Ble, Mode::Mode3 { n: 25 }), OverlayParams::new(100, 4));
    }

    #[test]
    fn mode_ratios() {
        for p in Protocol::ALL {
            let m1 = params_for(p, Mode::Mode1);
            // Mode 1: modulatable:reference = 1:1.
            assert_eq!(m1.tag_bits_per_sequence(), 1);
            let m2 = params_for(p, Mode::Mode2);
            // Mode 2: 3:1.
            assert_eq!(m2.tag_bits_per_sequence(), 3);
        }
    }

    #[test]
    #[should_panic]
    fn odd_gamma_rejected() {
        let _ = OverlayParams::new(9, 3);
    }

    #[test]
    #[should_panic]
    fn kappa_below_two_gamma_rejected() {
        let _ = OverlayParams::new(4, 4);
    }

    #[test]
    fn capacity_counts_sequences() {
        let m = TagOverlayModulator::for_mode(Protocol::WifiB, Mode::Mode1);
        // 33 symbols → 4 whole sequences of 8 → 4 tag bits.
        assert_eq!(m.capacity(33), 4);
        let m3 = TagOverlayModulator::new(Protocol::WifiB, OverlayParams::new(32, 4));
        assert_eq!(m3.capacity(33), 7); // one sequence, 7 tag bits
    }

    /// A flat carrier at the 11n rate for waveform-level checks.
    fn flat_carrier(n: usize) -> IqBuf {
        IqBuf::new(vec![Complex64::ONE; n], SampleRate::mhz(20.0))
    }

    #[test]
    fn wifin_hold_flip_modulation() {
        let m = TagOverlayModulator::for_mode(Protocol::WifiN, Mode::Mode1);
        // 11n base symbol = 4 µs = 80 samples; κ=4 → sequence = 320.
        let carrier = flat_carrier(800);
        let out = m.modulate(&carrier, 0, &[1, 0]);
        // Sequence 0: symbols 0-1 ref (+1), symbols 2-3 flipped (bit 1).
        assert_eq!(out.samples()[0], Complex64::ONE);
        assert_eq!(out.samples()[159], Complex64::ONE);
        assert_eq!(out.samples()[160], -Complex64::ONE);
        assert_eq!(out.samples()[319], -Complex64::ONE);
        // Sequence 1 (bit 0): untouched.
        assert_eq!(out.samples()[480], Complex64::ONE);
    }

    #[test]
    fn wifib_alternating_modulation() {
        let m = TagOverlayModulator::for_mode(Protocol::WifiB, Mode::Mode1);
        // 11b base symbol = 1 µs; at 22 Msps → 22 samples. κ=8, γ=4.
        let carrier = IqBuf::new(vec![Complex64::ONE; 22 * 16], SampleRate::mhz(22.0));
        let out = m.modulate(&carrier, 0, &[1]);
        let s = out.samples();
        // Ref block symbols 0-3: +1.
        assert_eq!(s[0], Complex64::ONE);
        assert_eq!(s[22 * 4 - 1], Complex64::ONE);
        // Tag block symbols 4-7 alternate -1, +1, -1, +1.
        assert_eq!(s[22 * 4], -Complex64::ONE);
        assert_eq!(s[22 * 5], Complex64::ONE);
        assert_eq!(s[22 * 6], -Complex64::ONE);
        assert_eq!(s[22 * 7], Complex64::ONE);
        // State returns to +1 for the next sequence.
        assert_eq!(s[22 * 8], Complex64::ONE);
    }

    #[test]
    fn ble_frequency_shift_modulation() {
        let m = TagOverlayModulator::for_mode(Protocol::Ble, Mode::Mode1);
        // BLE base symbol = 1 µs at 8 Msps → 8 samples; κ=8, γ=4.
        let carrier = IqBuf::new(vec![Complex64::ONE; 8 * 16], SampleRate::mhz(8.0));
        let out = m.modulate(&carrier, 0, &[1]);
        let s = out.samples();
        // Ref block untouched.
        assert_eq!(s[8 * 4 - 1], Complex64::ONE);
        // Tag block rotates at -500 kHz: phase after k samples = -2π·0.5e6·k/8e6.
        let k = 8; // one symbol into the block
        let expect = -std::f64::consts::TAU * 0.5e6 * k as f64 / 8e6;
        let got = s[8 * 4 + k].arg();
        assert!((got - expect).abs() < 1e-9, "got {got} want {expect}");
        // Power unchanged.
        assert!((out.mean_power() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_bits_leave_carrier_untouched() {
        let m = TagOverlayModulator::for_mode(Protocol::WifiN, Mode::Mode2);
        let carrier = flat_carrier(2000);
        let out = m.modulate(&carrier, 37, &[0, 0, 0, 0]);
        assert_eq!(out, carrier);
    }
}
