//! The ZigBee overlay link. Tag bits hold a π flip over a block of
//! symbols; because full chip inversion is *not* a clean codeword
//! translation for the 802.15.4 PN set (see
//! `msc_phy::zigbee::pi_flip_translation`), the receiver decodes tag
//! bits by correlating each block's soft chips against the sequence's
//! reference chips — a ±32-chip-separation decision. This is also why
//! the paper needs γ ≥ 2 and concedes the transition symbol (§2.4.2).

use crate::OverlayDecoded;
use msc_core::overlay::OverlayParams;
use msc_dsp::IqBuf;
use msc_phy::protocol::DecodeError;
use msc_phy::zigbee::{ZigBeeConfig, ZigBeeDemodulator, ZigBeeModulator};

/// One ZigBee overlay link. "Productive bits" are 4-bit symbols here,
/// matching the 802.15.4 symbol alphabet.
#[derive(Clone)]
pub struct ZigBeeOverlayLink {
    params: OverlayParams,
    /// Modem instances built once per link: the demodulator's SHR
    /// reference waveform and matched-filter tables are expensive to
    /// rebuild per packet.
    modulator: ZigBeeModulator,
    demodulator: ZigBeeDemodulator,
}

impl ZigBeeOverlayLink {
    /// Creates a link.
    pub fn new(params: OverlayParams) -> Self {
        let config = ZigBeeConfig::default();
        ZigBeeOverlayLink {
            params,
            modulator: ZigBeeModulator::new(config),
            demodulator: ZigBeeDemodulator::new(config),
        }
    }

    /// The overlay parameters.
    pub fn params(&self) -> OverlayParams {
        self.params
    }

    /// Generates the overlay carrier from productive 4-bit symbols.
    pub fn make_carrier(&self, productive_symbols: &[u8]) -> IqBuf {
        self.modulator.modulate_overlay_carrier(productive_symbols, self.params.kappa)
    }

    /// Tag bits one carrier of `n_productive` symbols can carry.
    pub fn tag_capacity(&self, n_productive: usize) -> usize {
        n_productive * self.params.tag_bits_per_sequence()
    }

    /// Decodes both streams: productive 4-bit symbols + tag bits.
    pub fn decode(&self, rx: &IqBuf) -> Result<OverlayDecoded, DecodeError> {
        let _frame = msc_obs::profile::scope("rx.decode");
        let result = self.decode_inner(rx);
        crate::obs_decode_result("ZigBee", &result);
        result
    }

    fn decode_inner(&self, rx: &IqBuf) -> Result<OverlayDecoded, DecodeError> {
        let decoded = self.demodulator.demodulate(rx)?;
        // Payload symbols follow the 2 PHR symbols.
        let chips = &decoded.raw_chips[2.min(decoded.raw_chips.len())..];
        let symbols = &decoded.raw_symbols[2.min(decoded.raw_symbols.len())..];
        let kappa = self.params.kappa;
        let gamma = self.params.gamma;
        let n_seq = chips.len() / kappa;
        let per_seq = self.params.tag_bits_per_sequence();

        let mut productive = Vec::with_capacity(n_seq);
        let mut tag = Vec::with_capacity(n_seq * per_seq);
        for seq in 0..n_seq {
            // Reference chips: average across the γ reference symbols.
            let n_chips = chips[seq * kappa].len();
            let mut ref_chips = vec![0.0f64; n_chips];
            for g in 0..gamma {
                for (i, &c) in chips[seq * kappa + g].iter().enumerate() {
                    ref_chips[i] += c;
                }
            }
            // Productive symbol: the receiver's own best-of-16 decision
            // on the first reference symbol (commodity behaviour).
            productive.push(symbols[seq * kappa]);
            for blk in 0..per_seq {
                // Tag bit: sign of the block's correlation against the
                // reference chips, summed over the block (the transition
                // symbol may disagree; the sum absorbs it).
                let mut corr = 0.0;
                for g in 0..gamma {
                    let sym = &chips[seq * kappa + gamma * (1 + blk) + g];
                    corr += sym.iter().zip(ref_chips.iter()).map(|(&a, &b)| a * b).sum::<f64>();
                }
                tag.push(u8::from(corr < 0.0));
            }
        }
        Ok(OverlayDecoded { productive, tag, header_ok: true })
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
    use rand::{Rng, SeedableRng};

    fn run_link(seed: u64, n_prod: usize, mode: Mode) -> (Vec<u8>, Vec<u8>, OverlayDecoded) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = params_for(Protocol::ZigBee, mode);
        let link = ZigBeeOverlayLink::new(params);
        let productive: Vec<u8> = (0..n_prod).map(|_| rng.gen_range(0..16) as u8).collect();
        let tag_bits = random_bits(&mut rng, link.tag_capacity(n_prod));
        let carrier = link.make_carrier(&productive);
        let tag = TagOverlayModulator::new(Protocol::ZigBee, params);
        let start =
            (payload_start_seconds(Protocol::ZigBee) * carrier.rate().as_hz()).round() as usize;
        let modulated = tag.modulate(&carrier, start, &tag_bits);
        let decoded = link.decode(&modulated).expect("decode");
        (productive, tag_bits, decoded)
    }

    #[test]
    fn clean_mode1_round_trip() {
        let (productive, tag_bits, d) = run_link(171, 16, Mode::Mode1);
        assert_eq!(d.productive, productive);
        assert_eq!(d.tag, tag_bits);
    }

    #[test]
    fn clean_mode2_round_trip() {
        let (productive, tag_bits, d) = run_link(172, 8, Mode::Mode2);
        assert_eq!(d.productive, productive);
        assert_eq!(d.tag, tag_bits);
        assert_eq!(d.tag.len(), 24);
    }

    #[test]
    fn unmodulated_carrier_reads_zero_tags() {
        let params = params_for(Protocol::ZigBee, Mode::Mode1);
        let link = ZigBeeOverlayLink::new(params);
        let productive = vec![0x3u8, 0xA, 0x5, 0xC, 0x1, 0xF, 0x0, 0x8];
        let carrier = link.make_carrier(&productive);
        let d = link.decode(&carrier).expect("decode");
        assert_eq!(d.productive, productive);
        assert!(d.tag.iter().all(|&b| b == 0));
    }
}
