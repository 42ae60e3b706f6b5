//! Property-based tests of the PHY substrates: arbitrary payloads must
//! round-trip through every modulator/demodulator pair, and the coding
//! layers must be exact inverses.

use multiscatter::phy::ble::{BleConfig, BleDemodulator, BleModulator};
use multiscatter::phy::conv::{encode, viterbi_decode};
use multiscatter::phy::crc::Crc;
use multiscatter::phy::scramble::{scramble_11a, Scrambler11b, Whitener};
use multiscatter::phy::wifi_b::{WifiBConfig, WifiBDemodulator, WifiBModulator};
use multiscatter::phy::wifi_n::{Mcs, WifiNConfig, WifiNDemodulator, WifiNModulator};
use multiscatter::phy::zigbee::{ZigBeeConfig, ZigBeeDemodulator, ZigBeeModulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn wifi_b_roundtrip_any_payload(bits in proptest::collection::vec(0u8..=1, 8..120)) {
        let cfg = WifiBConfig::default();
        let mut padded = bits.clone();
        while padded.len() % cfg.rate.bits_per_symbol() != 0 { padded.push(0); }
        let tx = WifiBModulator::new(cfg.clone()).modulate(&padded);
        let rx = WifiBDemodulator::new(cfg).demodulate(&tx).unwrap();
        prop_assert_eq!(&rx.psdu_bits[..padded.len()], &padded[..]);
        prop_assert!(rx.header_crc_ok);
    }

    #[test]
    fn wifi_n_roundtrip_any_payload_any_mcs(
        bits in proptest::collection::vec(0u8..=1, 24..200),
        mcs_sel in 0usize..3,
    ) {
        let mcs = [Mcs::Mcs0, Mcs::Mcs1, Mcs::Mcs3][mcs_sel];
        let tx = WifiNModulator::new(WifiNConfig { mcs }).modulate(&bits);
        let rx = WifiNDemodulator::new().demodulate(&tx).unwrap();
        prop_assert_eq!(rx.psdu_bits, bits);
        prop_assert_eq!(rx.symbols.mcs, mcs);
    }

    #[test]
    fn ble_roundtrip_any_payload(payload in proptest::collection::vec(any::<u8>(), 1..37)) {
        let cfg = BleConfig::default();
        let tx = BleModulator::new(cfg.clone()).modulate(0x02, &payload);
        let rx = BleDemodulator::new(cfg).demodulate(&tx).unwrap();
        prop_assert!(rx.crc_ok);
        prop_assert_eq!(&rx.pdu[2..], &payload[..]);
    }

    #[test]
    fn zigbee_roundtrip_any_payload(psdu in proptest::collection::vec(any::<u8>(), 1..80)) {
        let cfg = ZigBeeConfig::default();
        let tx = ZigBeeModulator::new(cfg).modulate(&psdu);
        let rx = ZigBeeDemodulator::new(cfg).demodulate(&tx).unwrap();
        prop_assert!(rx.fcs_ok);
        prop_assert_eq!(rx.psdu, psdu);
    }

    #[test]
    fn scramblers_invert(bits in proptest::collection::vec(0u8..=1, 1..300), seed in 1u8..128) {
        let mut s = Scrambler11b::with_seed(seed);
        let scrambled = s.scramble(&bits);
        let mut d = Scrambler11b::with_seed(seed);
        prop_assert_eq!(d.descramble(&scrambled), bits.clone());

        let a = scramble_11a(&bits, seed);
        prop_assert_eq!(scramble_11a(&a, seed), bits.clone());

        let channel = seed % 40;
        let w = Whitener::for_channel(channel).apply(&bits);
        prop_assert_eq!(Whitener::for_channel(channel).apply(&w), bits);
    }

    #[test]
    fn viterbi_inverts_encoder(bits in proptest::collection::vec(0u8..=1, 1..200)) {
        let mut padded = bits.clone();
        padded.extend_from_slice(&[0; 6]); // tail
        prop_assert_eq!(viterbi_decode(&encode(&padded)), padded);
    }

    #[test]
    fn crc_detects_any_single_bit_flip(
        data in proptest::collection::vec(any::<u8>(), 1..40),
        flip_byte_sel in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        for crc in [Crc::ccitt_ffff(), Crc::ieee802154(), Crc::ble_adv(), Crc::ieee80211()] {
            let base = crc.compute(&data);
            let mut corrupted = data.clone();
            let idx = flip_byte_sel.index(corrupted.len());
            corrupted[idx] ^= 1 << flip_bit;
            prop_assert_ne!(crc.compute(&corrupted), base);
        }
    }
}
