//! # msc-rx — single-commodity-radio overlay links
//!
//! The receiver half of the paper's deployability claim: for each
//! protocol, a *link* pairs an overlay-carrier generator (the productive
//! transmitter crafting κ-spread payloads) with a decoder that recovers
//! **both** the productive data and the tag data from one received
//! packet on one radio — no second receiver, no dependence on the
//! original channel.

#![warn(missing_docs)]

pub mod link_ble;
pub mod link_wifi_b;
pub mod link_wifi_n;
pub mod link_zigbee;
pub mod metrics;

pub use link_ble::BleOverlayLink;
pub use link_wifi_b::WifiBOverlayLink;
pub use link_wifi_n::WifiNOverlayLink;
pub use link_zigbee::ZigBeeOverlayLink;
pub use metrics::{BerCounter, ThroughputMeter};

/// Records one decode attempt's outcome into the observability layer:
/// `rx.decoded` / `rx.decode_err` counters, delivered tag-bit counter,
/// and a replay note. No-op while observability is disabled.
pub(crate) fn obs_decode_result(
    protocol: &'static str,
    result: &Result<OverlayDecoded, msc_phy::protocol::DecodeError>,
) {
    match result {
        Ok(d) => {
            if msc_obs::metrics::enabled() {
                msc_obs::metrics::counter_add("rx.decoded", protocol, "decode", 1);
                msc_obs::metrics::counter_add(
                    "rx.tag_bits",
                    protocol,
                    "decode",
                    d.tag.len() as u64,
                );
            }
            msc_obs::note!(
                "rx.decoded protocol={protocol} productive={} tag={} header_ok={}",
                d.productive.len(),
                d.tag.len(),
                d.header_ok
            );
        }
        Err(e) => {
            msc_obs::metrics::counter_add("rx.decode_err", protocol, "decode", 1);
            msc_obs::note!("rx.decode_err protocol={protocol} err={e:?}");
        }
    }
}

/// The outcome of overlay decoding one packet: productive data (bits, or
/// 4-bit symbols for ZigBee) and tag bits, plus header integrity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlayDecoded {
    /// Recovered productive data.
    pub productive: Vec<u8>,
    /// Recovered tag bits.
    pub tag: Vec<u8>,
    /// Whether the frame's header check passed.
    pub header_ok: bool,
}
