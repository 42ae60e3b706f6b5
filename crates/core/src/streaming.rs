//! Streaming identification — the form the algorithm actually takes on
//! the FPGA, which never holds "a packet": ADC samples arrive one by
//! one, an energy gate detects rising edges, and the correlators run
//! over a sliding window.
//!
//! [`StreamingMatcher`] wraps the block [`Matcher`] with a ring buffer
//! and an edge-triggered state machine, emitting one [`Detection`] per
//! packet found in an arbitrarily long sample stream (multiple packets,
//! idle gaps, back-to-back bursts).

use crate::matcher::{Matcher, OrderedRule};
use msc_phy::protocol::Protocol;

/// One identified packet in the stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detection {
    /// Sample index (in the stream) where the packet edge was detected.
    pub at: usize,
    /// The identified protocol.
    pub protocol: Protocol,
    /// The winning correlation score.
    pub score: f64,
}

/// Streaming wrapper around the template matcher.
#[derive(Clone, Debug)]
pub struct StreamingMatcher {
    matcher: Matcher,
    rule: OrderedRule,
    /// Rising-edge threshold as a fraction of the adaptive peak level.
    edge_frac: f64,
    /// Consecutive sub-threshold samples required to re-arm the edge
    /// detector (separates back-to-back packets from one long burst).
    rearm_gap: usize,
    // --- stream state ---
    /// 4-sample smoother for the gate (single samples of a high-PAPR
    /// envelope whipsaw across any threshold).
    ma: [f64; 4],
    ma_pos: usize,
    window: Vec<f64>,
    consumed: usize,
    armed: bool,
    quiet_run: usize,
    peak: f64,
    /// A detected edge waiting for its matching window to fill:
    /// (stream index of the edge, samples seen since).
    pending_edge: Option<(usize, usize)>,
}

impl StreamingMatcher {
    /// Creates a streaming matcher around a block matcher and decision
    /// rule.
    pub fn new(matcher: Matcher, rule: OrderedRule) -> Self {
        // Re-arm only after a true inter-frame gap (≥12 µs of silence):
        // wideband envelopes dip below threshold for a few samples at a
        // time mid-packet, and re-arming on those would spray spurious
        // detections down the packet body.
        let rearm_gap = matcher.bank().config().adc_rate.samples_in(12e-6).max(8);
        StreamingMatcher {
            matcher,
            rule,
            edge_frac: 0.2,
            rearm_gap,
            ma: [0.0; 4],
            ma_pos: 0,
            window: Vec::new(),
            consumed: 0,
            armed: true,
            quiet_run: 0,
            peak: 1e-4,
            pending_edge: None,
        }
    }

    /// Look-back the ring buffer retains: the matching span plus slack
    /// for the lag search.
    fn span(&self) -> usize {
        self.matcher.bank().config().total() * 3 + 32
    }

    /// Samples needed after an edge before the window can be scored.
    fn needed_after_edge(&self) -> usize {
        self.matcher.bank().config().total() + 16
    }

    /// Pushes one ADC sample; returns a detection when a packet's
    /// matching window just completed.
    pub fn push(&mut self, sample: f64) -> Option<Detection> {
        self.consumed += 1;
        self.window.push(sample);
        let span = self.span();
        if self.window.len() > span {
            let drop = self.window.len() - span;
            self.window.drain(..drop);
        }
        // Adaptive level: instant attack; decay slow while a packet is
        // in flight (hold the reference) but fast when idle, so the gate
        // re-adapts between packets of very different envelope strength
        // (a wideband burst's PAPR peaks would otherwise starve a
        // following flat GFSK packet below threshold). This mirrors the
        // prototype's per-packet ADC V_ref retuning (§2.3 note 3).
        let decay = if self.armed { 0.995 } else { 0.9999 };
        self.peak = (self.peak * decay).max(sample.abs()).max(1e-4);
        self.ma[self.ma_pos] = sample;
        self.ma_pos = (self.ma_pos + 1) % self.ma.len();
        let level = self.ma.iter().sum::<f64>() / self.ma.len() as f64;

        let threshold = self.edge_frac * self.peak;
        if level > threshold {
            // Fire only when armed AND no window is already filling:
            // wideband envelopes dip to zero mid-preamble (FM-slope
            // clipping), and those dips must not restart the edge.
            if self.armed && self.pending_edge.is_none() {
                self.armed = false;
                self.pending_edge = Some((self.consumed - 1, 0));
                msc_obs::metrics::counter_add("stream.edges", "", "acquire", 1);
            }
            self.quiet_run = 0;
        } else {
            self.quiet_run += 1;
            if self.quiet_run >= self.rearm_gap {
                self.armed = true;
            }
        }

        if let Some((edge_at, seen)) = self.pending_edge.take() {
            let seen = seen + 1;
            if seen >= self.needed_after_edge() {
                // The edge's position inside the ring buffer.
                let behind = self.consumed - edge_at;
                let start = self.window.len().saturating_sub(behind);
                if let Some(scores) = self.matcher.score_acquired_at(&self.window, start) {
                    let protocol = self.rule.decide(&scores);
                    msc_obs::metrics::counter_add(
                        "stream.detections",
                        protocol.label(),
                        "acquire",
                        1,
                    );
                    return Some(Detection { at: edge_at, protocol, score: scores.get(protocol) });
                }
            } else {
                self.pending_edge = Some((edge_at, seen));
            }
        }
        None
    }

    /// Feeds a whole slice, collecting detections.
    pub fn feed(&mut self, samples: &[f64]) -> Vec<Detection> {
        samples.iter().filter_map(|&s| self.push(s)).collect()
    }

    /// Total samples consumed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Resets the stream state (keeps the templates).
    pub fn reset(&mut self) {
        self.ma = [0.0; 4];
        self.ma_pos = 0;
        self.window.clear();
        self.consumed = 0;
        self.armed = true;
        self.quiet_run = 0;
        self.peak = 1e-4;
        self.pending_edge = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::FrontEnd;
    use crate::matcher::MatchMode;
    use crate::templates::{canonical_waveform, TemplateBank, TemplateConfig};
    use msc_dsp::SampleRate;
    use msc_phy::protocol::Protocol;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(rate: SampleRate) -> (FrontEnd, StreamingMatcher) {
        let fe = FrontEnd::prototype(rate);
        let bank = TemplateBank::build(&fe, TemplateConfig::extended(rate));
        let matcher = Matcher::new(bank, MatchMode::Quantized);
        (fe, StreamingMatcher::new(matcher, OrderedRule::paper_default()))
    }

    /// Builds a stream: silence, packet, silence, packet, ... at the ADC
    /// rate, returning (samples, truth list with edge positions).
    fn stream(
        rate: SampleRate,
        protos: &[Protocol],
        seed: u64,
    ) -> (Vec<f64>, Vec<(usize, Protocol)>) {
        let fe = FrontEnd::prototype(rate);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut truth = Vec::new();
        for &p in protos {
            let gap = rng.gen_range(200..400);
            out.extend(std::iter::repeat_n(0.0, gap));
            truth.push((out.len(), p));
            let wave = canonical_waveform(p);
            let acq = fe.acquire(&mut rng, &wave, -6.0);
            out.extend(acq);
        }
        out.extend(std::iter::repeat_n(0.0, 300));
        (out, truth)
    }

    #[test]
    fn detects_and_identifies_a_packet_sequence() {
        let rate = SampleRate::ADC_LOW;
        let (_, mut sm) = setup(rate);
        let protos = [Protocol::ZigBee, Protocol::WifiB, Protocol::Ble, Protocol::WifiN];
        let (samples, truth) = stream(rate, &protos, 401);
        let detections = sm.feed(&samples);
        assert_eq!(detections.len(), truth.len(), "one detection per packet: {detections:?}");
        for (d, (edge, p)) in detections.iter().zip(&truth) {
            assert_eq!(d.protocol, *p, "at {}", d.at);
            // The smoothed gate can fire a few samples late on slowly
            // ramping envelopes; the matcher's lag search absorbs this.
            assert!(
                (d.at as i64 - *edge as i64).unsigned_abs() < 32,
                "edge {} vs truth {}",
                d.at,
                edge
            );
        }
    }

    #[test]
    fn silence_produces_no_detections() {
        let (_, mut sm) = setup(SampleRate::ADC_LOW);
        let detections = sm.feed(&vec![0.0; 5000]);
        assert!(detections.is_empty());
    }

    #[test]
    fn reset_clears_state() {
        let rate = SampleRate::ADC_LOW;
        let (_, mut sm) = setup(rate);
        let (samples, _) = stream(rate, &[Protocol::ZigBee], 402);
        assert!(!sm.feed(&samples).is_empty());
        sm.reset();
        assert_eq!(sm.consumed(), 0);
        // The same stream detects again after reset.
        assert!(!sm.feed(&samples).is_empty());
    }

    #[test]
    fn back_to_back_packets_need_a_rearm_gap() {
        // Two packets separated by less than the re-arm gap merge into
        // one detection — the documented limitation of edge gating.
        let rate = SampleRate::ADC_LOW;
        let fe = FrontEnd::prototype(rate);
        let (_, mut sm) = setup(rate);
        let mut rng = StdRng::seed_from_u64(403);
        let mut samples = vec![0.0; 250];
        let a = fe.acquire(&mut rng, &canonical_waveform(Protocol::ZigBee), -6.0);
        samples.extend_from_slice(&a);
        samples.extend(std::iter::repeat_n(0.0, 5)); // < rearm gap (30 @2.5M)
        samples.extend_from_slice(&a);
        samples.extend(std::iter::repeat_n(0.0, 300));
        let detections = sm.feed(&samples);
        assert_eq!(detections.len(), 1, "{detections:?}");
    }
}
