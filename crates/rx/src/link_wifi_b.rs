//! The 802.11b overlay link: carrier generation and single-receiver
//! decoding of productive + tag data.
//!
//! ## Decoding through the self-synchronizing scrambler
//!
//! The tag toggles its reflection phase in the *scrambled differential*
//! domain (what is on the air). The receiver's descrambler multiplies a
//! single on-air flip `t[k]` into three payload-bit flips
//! (`e = t ⊕ t≫4 ⊕ t≫7`), but the mapping is causally invertible:
//! `t[k] = e[k] ⊕ t[k−4] ⊕ t[k−7]`. Because κ-spreading fixes
//! `spread[k] = 0` at every non-reference position and the tag never
//! modulates reference blocks, the receiver can walk the payload once,
//! recovering the tag's toggle sequence *and* the productive bits from
//! the same packet — no second receiver, exactly the paper's claim.

use crate::metrics::BerCounter;
use crate::OverlayDecoded;
use msc_core::overlay::OverlayParams;
use msc_dsp::IqBuf;
use msc_phy::bits::majority;
use msc_phy::protocol::DecodeError;
use msc_phy::wifi_b::{WifiBConfig, WifiBDemodulator, WifiBModulator};

/// One 802.11b overlay link (a commodity radio's TX + RX halves).
#[derive(Clone, Debug)]
pub struct WifiBOverlayLink {
    params: OverlayParams,
    config: WifiBConfig,
    /// Modem instances built once per link and reused across packets.
    modulator: WifiBModulator,
    demodulator: WifiBDemodulator,
}

impl WifiBOverlayLink {
    /// Creates a link at 1 Mbps DBPSK with the given overlay parameters.
    pub fn new(params: OverlayParams) -> Self {
        let config = WifiBConfig::default();
        WifiBOverlayLink {
            params,
            modulator: WifiBModulator::new(config.clone()),
            demodulator: WifiBDemodulator::new(config.clone()),
            config,
        }
    }

    /// Uses a different DSSS/CCK rate for the reference symbols
    /// (the Fig. 17a sweep: DSSS-BPSK, DSSS-DQPSK, CCK). Tag toggles
    /// still flip whole symbols; the decoder accounts for each rate's
    /// pi-flip bit mask.
    pub fn with_rate(mut self, rate: msc_phy::wifi_b::DsssRate) -> Self {
        self.config.rate = rate;
        self.modulator = WifiBModulator::new(self.config.clone());
        self.demodulator = WifiBDemodulator::new(self.config.clone());
        self
    }

    /// The overlay parameters.
    pub fn params(&self) -> OverlayParams {
        self.params
    }

    /// The reference-symbol DSSS/CCK rate in use.
    pub fn rate(&self) -> msc_phy::wifi_b::DsssRate {
        self.config.rate
    }

    /// Generates the overlay carrier for `productive` bits.
    pub fn make_carrier(&self, productive: &[u8]) -> IqBuf {
        self.modulator.modulate_overlay_carrier(productive, self.params.kappa)
    }

    /// Tag bits one carrier of `n_productive_bits` productive bits can
    /// carry (each reference symbol holds `bits_per_symbol` of them).
    pub fn tag_capacity(&self, n_productive_bits: usize) -> usize {
        n_productive_bits / self.config.rate.bits_per_symbol() * self.params.tag_bits_per_sequence()
    }

    /// Decodes both data streams from a received waveform.
    ///
    /// Works at any DSSS/CCK rate: in the serial raw-bit domain, a tag
    /// toggle at symbol `s` flips the bits selected by that rate's
    /// [`WifiBModulator::pi_flip_mask`]; the descrambler multiplies each
    /// flip into three payload-bit flips, which the walk below inverts
    /// causally, using the mask to know where flips are even possible.
    pub fn decode(&self, rx: &IqBuf) -> Result<OverlayDecoded, DecodeError> {
        let _frame = msc_obs::profile::scope("rx.decode");
        let result = self.decode_inner(rx);
        crate::obs_decode_result("802.11b", &result);
        result
    }

    fn decode_inner(&self, rx: &IqBuf) -> Result<OverlayDecoded, DecodeError> {
        let decoded = self.demodulator.demodulate(rx)?;
        let psdu = &decoded.psdu_bits;
        let kappa = self.params.kappa;
        let gamma = self.params.gamma;
        let b = self.config.rate.bits_per_symbol();
        let mask = WifiBModulator::pi_flip_mask(self.config.rate);
        let seq_bits = kappa * b;
        let n_seq = psdu.len() / seq_bits;

        // Recover the on-air toggle-flip sequence through the
        // descrambler's error multiplication, bit-serially.
        let n = n_seq * seq_bits;
        let mut t_hat = vec![0u8; n];
        let mut productive = Vec::with_capacity(n_seq * b);
        for k in 0..n {
            let sym = k / b;
            let pos_in_seq = sym % kappa;
            let bit_in_sym = k % b;
            let prev4 = if k >= 4 { t_hat[k - 4] } else { 0 };
            let prev7 = if k >= 7 { t_hat[k - 7] } else { 0 };
            let corrected = psdu[k] ^ prev4 ^ prev7;
            if pos_in_seq < gamma {
                // Reference block: tag idle by protocol.
                t_hat[k] = 0;
                if pos_in_seq == 0 {
                    // The sequence's productive symbol content.
                    productive.push(corrected);
                }
            } else if mask[bit_in_sym] == 1 {
                t_hat[k] = corrected;
            } else {
                // Untouched by a pi flip at this rate (CCK's
                // codeword-select bits): known zero.
                t_hat[k] = 0;
            }
        }

        // Tag bits: majority over each block's flippable bits.
        let per_seq = self.params.tag_bits_per_sequence();
        let mut tag = Vec::with_capacity(n_seq * per_seq);
        let mut votes = Vec::new();
        for seq in 0..n_seq {
            for blk in 0..per_seq {
                votes.clear();
                for g in 0..gamma {
                    let sym = seq * kappa + gamma * (1 + blk) + g;
                    for (i, &m) in mask.iter().enumerate() {
                        if m == 1 {
                            votes.push(t_hat[sym * b + i]);
                        }
                    }
                }
                tag.push(majority(&votes));
            }
        }

        Ok(OverlayDecoded { productive, tag, header_ok: decoded.header_crc_ok })
    }

    /// Convenience: run one packet end to end and update counters.
    pub fn score_packet(
        &self,
        rx: &IqBuf,
        tx_productive: &[u8],
        tx_tag: &[u8],
        productive_ber: &mut BerCounter,
        tag_ber: &mut BerCounter,
    ) {
        match self.decode(rx) {
            Ok(d) => {
                productive_ber.record(tx_productive, &d.productive);
                let cap = self.tag_capacity(tx_productive.len()).min(tx_tag.len());
                tag_ber.record(&tx_tag[..cap], &d.tag);
            }
            Err(_) => {
                productive_ber.record_lost(tx_productive.len());
                tag_ber.record_lost(self.tag_capacity(tx_productive.len()).min(tx_tag.len()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_core::overlay::{params_for, Mode, TagOverlayModulator};
    use msc_core::tag::payload_start_seconds;
    use msc_phy::bits::random_bits;
    use msc_phy::protocol::Protocol;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_link(seed: u64, n_prod: usize, mode: Mode) -> (Vec<u8>, Vec<u8>, OverlayDecoded) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = params_for(Protocol::WifiB, mode);
        let link = WifiBOverlayLink::new(params);
        let productive = random_bits(&mut rng, n_prod);
        let tag_bits = random_bits(&mut rng, link.tag_capacity(n_prod));
        let carrier = link.make_carrier(&productive);
        let tag = TagOverlayModulator::new(Protocol::WifiB, params);
        let start =
            (payload_start_seconds(Protocol::WifiB) * carrier.rate().as_hz()).round() as usize;
        let modulated = tag.modulate(&carrier, start, &tag_bits);
        let decoded = link.decode(&modulated).expect("decode");
        (productive, tag_bits, decoded)
    }

    #[test]
    fn clean_mode1_round_trip() {
        let (productive, tag_bits, d) = run_link(141, 24, Mode::Mode1);
        assert!(d.header_ok);
        assert_eq!(d.productive, productive, "productive data intact");
        assert_eq!(d.tag, tag_bits, "tag data recovered by a single receiver");
    }

    #[test]
    fn clean_mode2_round_trip() {
        let (productive, tag_bits, d) = run_link(142, 16, Mode::Mode2);
        assert_eq!(d.productive, productive);
        assert_eq!(d.tag, tag_bits);
        // Mode 2 carries 3 tag bits per productive bit.
        assert_eq!(d.tag.len(), 48);
    }

    #[test]
    fn multirate_round_trips_dqpsk_and_cck() {
        use msc_phy::wifi_b::DsssRate;
        let mut rng = StdRng::seed_from_u64(145);
        for (rate, sym_s) in
            [(DsssRate::R2M, 1e-6), (DsssRate::R5M5, 8.0 / 11e6), (DsssRate::R11M, 8.0 / 11e6)]
        {
            let params = params_for(Protocol::WifiB, Mode::Mode1);
            let link = WifiBOverlayLink::new(params).with_rate(rate);
            let b = rate.bits_per_symbol();
            let productive = random_bits(&mut rng, 8 * b); // 8 sequences
            let tag_bits = random_bits(&mut rng, link.tag_capacity(productive.len()));
            let carrier = link.make_carrier(&productive);
            let tag = TagOverlayModulator::new(Protocol::WifiB, params).with_symbol_duration(sym_s);
            let start =
                (payload_start_seconds(Protocol::WifiB) * carrier.rate().as_hz()).round() as usize;
            let modulated = tag.modulate(&carrier, start, &tag_bits);
            let d = link.decode(&modulated).unwrap_or_else(|e| panic!("{rate:?}: {e:?}"));
            assert_eq!(d.productive, productive, "{rate:?} productive");
            assert_eq!(d.tag, tag_bits, "{rate:?} tag");
        }
    }

    #[test]
    fn unmodulated_carrier_decodes_zero_tag_bits() {
        let params = params_for(Protocol::WifiB, Mode::Mode1);
        let link = WifiBOverlayLink::new(params);
        let productive = vec![1, 0, 1, 1, 0, 0, 1, 0];
        let carrier = link.make_carrier(&productive);
        let d = link.decode(&carrier).expect("decode");
        assert_eq!(d.productive, productive);
        assert!(d.tag.iter().all(|&b| b == 0), "idle tag must read as zeros");
    }

    #[test]
    fn score_packet_counts_losses() {
        let params = params_for(Protocol::WifiB, Mode::Mode1);
        let link = WifiBOverlayLink::new(params);
        let mut pb = BerCounter::new();
        let mut tb = BerCounter::new();
        let noise = IqBuf::zeros(10_000, msc_dsp::SampleRate::mhz(22.0));
        link.score_packet(&noise, &[1; 8], &[1; 8], &mut pb, &mut tb);
        assert_eq!(pb.per(), 1.0);
        assert_eq!(tb.per(), 1.0);
    }
}
