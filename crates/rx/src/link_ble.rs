//! The BLE overlay link: FSK-based tag modulation (paper §2.4.2,
//! Bluetooth). The tag shifts tag-bit-1 blocks by Δf = −500 kHz; the
//! receiver compares each block's mean discriminator frequency against
//! the sequence's reference block, which is modulation-index agnostic
//! and works whatever the productive data is.

use crate::OverlayDecoded;
use msc_core::overlay::{OverlayParams, BLE_TAG_SHIFT_HZ};
use msc_dsp::IqBuf;
use msc_phy::bits::majority;
use msc_phy::ble::{BleConfig, BleDemodulator, BleModulator};
use msc_phy::protocol::DecodeError;

/// One BLE overlay link.
#[derive(Clone, Debug)]
pub struct BleOverlayLink {
    params: OverlayParams,
    /// Modem instances built once per link: the GFSK engine's Gaussian
    /// pulse FIR is reused across packets.
    modulator: BleModulator,
    demodulator: BleDemodulator,
}

impl BleOverlayLink {
    /// Creates a link on the default advertising channel.
    pub fn new(params: OverlayParams) -> Self {
        let config = BleConfig::default();
        BleOverlayLink {
            params,
            modulator: BleModulator::new(config.clone()),
            demodulator: BleDemodulator::new(config),
        }
    }

    /// The overlay parameters.
    pub fn params(&self) -> OverlayParams {
        self.params
    }

    /// Generates the overlay carrier.
    pub fn make_carrier(&self, productive: &[u8]) -> IqBuf {
        self.modulator.modulate_overlay_carrier(productive, self.params.kappa)
    }

    /// Tag bits one carrier of `n_productive` bits can carry.
    pub fn tag_capacity(&self, n_productive: usize) -> usize {
        n_productive * self.params.tag_bits_per_sequence()
    }

    /// Decodes both streams. `n_productive` tells the receiver how many
    /// sequences to expect (carried by the experiment configuration; a
    /// deployed design would put it in the reference header).
    pub fn decode(&self, rx: &IqBuf, n_productive: usize) -> Result<OverlayDecoded, DecodeError> {
        let _frame = msc_obs::profile::scope("rx.decode");
        let result = self.decode_inner(rx, n_productive);
        crate::obs_decode_result("BLE", &result);
        result
    }

    fn decode_inner(&self, rx: &IqBuf, n_productive: usize) -> Result<OverlayDecoded, DecodeError> {
        let n_bits = n_productive * self.params.kappa;
        let (bits, freqs, _) = self.demodulator.demodulate_raw(rx, n_bits)?;
        if bits.len() < n_bits {
            return Err(DecodeError::Truncated);
        }
        let kappa = self.params.kappa;
        let gamma = self.params.gamma;
        let per_seq = self.params.tag_bits_per_sequence();
        // Frequency threshold: half the tag shift, in rad/sample.
        let shift = std::f64::consts::TAU * BLE_TAG_SHIFT_HZ / rx.rate().as_hz();
        let mut productive = Vec::with_capacity(n_productive);
        let mut tag = Vec::with_capacity(n_productive * per_seq);
        for seq in 0..n_productive {
            let base = seq * kappa;
            productive.push(majority(&bits[base..base + gamma]));
            let ref_freq: f64 = freqs[base..base + gamma].iter().sum::<f64>() / gamma as f64;
            for blk in 0..per_seq {
                let start = base + gamma * (1 + blk);
                let blk_freq: f64 = freqs[start..start + gamma].iter().sum::<f64>() / gamma as f64;
                tag.push(u8::from(ref_freq - blk_freq > shift / 2.0));
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
    use rand::SeedableRng;

    fn run_link(seed: u64, n_prod: usize, mode: Mode) -> (Vec<u8>, Vec<u8>, OverlayDecoded) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = params_for(Protocol::Ble, mode);
        let link = BleOverlayLink::new(params);
        let productive = random_bits(&mut rng, n_prod);
        let tag_bits = random_bits(&mut rng, link.tag_capacity(n_prod));
        let carrier = link.make_carrier(&productive);
        let tag = TagOverlayModulator::new(Protocol::Ble, params);
        let start =
            (payload_start_seconds(Protocol::Ble) * carrier.rate().as_hz()).round() as usize;
        let modulated = tag.modulate(&carrier, start, &tag_bits);
        let decoded = link.decode(&modulated, n_prod).expect("decode");
        (productive, tag_bits, decoded)
    }

    #[test]
    fn clean_mode1_round_trip() {
        let (productive, tag_bits, d) = run_link(161, 40, Mode::Mode1);
        assert_eq!(d.productive, productive);
        assert_eq!(d.tag, tag_bits);
    }

    #[test]
    fn clean_mode2_round_trip() {
        let (productive, tag_bits, d) = run_link(162, 20, Mode::Mode2);
        assert_eq!(d.productive, productive);
        assert_eq!(d.tag, tag_bits);
        assert_eq!(d.tag.len(), 60);
    }

    #[test]
    fn tag_shift_works_on_zero_productive_bits() {
        // The FSK comparison must decode tag data even when the
        // productive content is all zeros (a pure bit-XOR scheme would
        // see nothing: shifting a 0 keeps it 0 at the slicer).
        let params = params_for(Protocol::Ble, Mode::Mode1);
        let link = BleOverlayLink::new(params);
        let productive = vec![0u8; 24];
        let tag_bits = vec![1u8; link.tag_capacity(24)];
        let carrier = link.make_carrier(&productive);
        let tag = TagOverlayModulator::new(Protocol::Ble, params);
        let start =
            (payload_start_seconds(Protocol::Ble) * carrier.rate().as_hz()).round() as usize;
        let modulated = tag.modulate(&carrier, start, &tag_bits);
        let d = link.decode(&modulated, 24).expect("decode");
        assert_eq!(d.tag, tag_bits, "frequency comparison must see the shift");
    }

    #[test]
    fn unmodulated_carrier_reads_zero_tags() {
        let params = params_for(Protocol::Ble, Mode::Mode1);
        let link = BleOverlayLink::new(params);
        let productive = random_bits(&mut StdRng::seed_from_u64(163), 16);
        let carrier = link.make_carrier(&productive);
        let d = link.decode(&carrier, 16).expect("decode");
        assert_eq!(d.productive, productive);
        assert!(d.tag.iter().all(|&b| b == 0));
    }
}
