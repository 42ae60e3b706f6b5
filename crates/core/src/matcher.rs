//! The identification matcher (paper §2.2.2–2.3): correlation of acquired
//! windows against the template bank, in full precision or 1-bit
//! quantized arithmetic, with blind or ordered decision rules.

use crate::templates::{detect_start, TemplateBank};
use msc_obs::metrics::{self, buckets};
use msc_phy::protocol::Protocol;

/// Records one finished score vector into the `id.score` histograms
/// (one per template). No-op while observability is disabled.
fn record_scores(s: &Scores) {
    if metrics::enabled() {
        for p in Protocol::ALL {
            metrics::hist_observe("id.score", p.label(), "match", s.get(p), buckets::SCORE);
        }
    }
}

/// Arithmetic path for correlation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchMode {
    /// Floating-point normalized correlation ("resources are not a
    /// problem", Fig. 5b).
    FullPrecision,
    /// 1-bit quantized correlation — the nano-FPGA implementation
    /// (§2.3.1): multipliers replaced by adders.
    Quantized,
    /// `n`-bit quantized correlation (2 ≤ n ≤ 8): the middle ground the
    /// paper's quantization ablation implies. Samples are quantized to
    /// signed integers around the preprocessing-window DC, scaled by its
    /// RMS; correlation runs in integer arithmetic.
    MultiBit(u8),
}

/// Quantizes a window to signed `bits`-bit integers around `dc`, with
/// the scale set so ±2·RMS spans the code range.
pub fn multibit_quantize(window: &[f64], dc: f64, rms: f64, bits: u8) -> Vec<i32> {
    assert!((2..=8).contains(&bits), "multi-bit quantization supports 2-8 bits");
    let max_code = (1i32 << (bits - 1)) - 1;
    let scale = if rms > 1e-30 { max_code as f64 / (2.0 * rms) } else { 0.0 };
    window.iter().map(|&x| (((x - dc) * scale).round() as i32).clamp(-max_code, max_code)).collect()
}

/// Integer correlation of two quantized windows, normalized to [-1, 1].
/// Returns 0 (no evidence) on mismatched lengths, like the kernels in
/// `msc_dsp::corr`.
pub fn multibit_corr_norm(a: &[i32], b: &[i32]) -> f64 {
    if a.is_empty() || a.len() != b.len() {
        return 0.0;
    }
    let dot: i64 = a.iter().zip(b).map(|(&x, &y)| x as i64 * y as i64).sum();
    let na: i64 = a.iter().map(|&x| x as i64 * x as i64).sum();
    let nb: i64 = b.iter().map(|&y| y as i64 * y as i64).sum();
    let denom = ((na as f64) * (nb as f64)).sqrt();
    if denom < 1e-12 {
        0.0
    } else {
        dot as f64 / denom
    }
}

/// Per-protocol correlation scores for one window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scores {
    scores: [f64; 4],
}

impl Scores {
    /// The score for one protocol.
    pub fn get(&self, p: Protocol) -> f64 {
        self.scores[Self::idx(p)]
    }

    fn idx(p: Protocol) -> usize {
        p.index()
    }

    /// Sets the score for one protocol (used by the matcher and by
    /// experiment harnesses constructing synthetic score vectors).
    pub fn set(&mut self, p: Protocol, v: f64) {
        self.scores[Self::idx(p)] = v;
    }

    /// The protocol with the highest score (blind matching).
    pub fn argmax(&self) -> Protocol {
        let mut best = Protocol::WifiN;
        let mut best_v = f64::NEG_INFINITY;
        for p in Protocol::ALL {
            let v = self.get(p);
            if v > best_v {
                best_v = v;
                best = p;
            }
        }
        best
    }
}

/// One step of the ordered-matching chain: declare `protocol` if its
/// score exceeds `threshold`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrderStep {
    /// Candidate protocol.
    pub protocol: Protocol,
    /// Correlation threshold.
    pub threshold: f64,
}

/// The ordered-matching rule (paper Fig. 6): a sequence of
/// threshold decisions, falling back to blind argmax when none fires.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderedRule {
    /// The decision chain, evaluated in order.
    pub steps: Vec<OrderStep>,
}

impl OrderedRule {
    /// The paper's chain — ZigBee → BLE → 802.11b → 802.11n — with
    /// thresholds found by the brute-force search of §2.3.2 (defaults
    /// here are sensible starting points; see [`crate::search`]).
    pub fn paper_default() -> Self {
        OrderedRule {
            steps: vec![
                OrderStep { protocol: Protocol::ZigBee, threshold: 0.72 },
                OrderStep { protocol: Protocol::Ble, threshold: 0.65 },
                OrderStep { protocol: Protocol::WifiB, threshold: 0.55 },
                OrderStep { protocol: Protocol::WifiN, threshold: 0.50 },
            ],
        }
    }

    /// Applies the chain to a score vector.
    pub fn decide(&self, s: &Scores) -> Protocol {
        for step in &self.steps {
            if s.get(step.protocol) > step.threshold {
                metrics::counter_add("id.decision", step.protocol.label(), "ordered", 1);
                return step.protocol;
            }
        }
        let p = s.argmax();
        metrics::counter_add("id.decision", p.label(), "fallback", 1);
        p
    }
}

/// Pooled per-thread scratch for the quantized lag search: packed
/// candidate windows plus a per-window score buffer, shared between the
/// single-trace path and [`Matcher::score_acquired_many`] so a batch
/// reuses one warm allocation across every trace it scores.
type PackScratch = (Vec<msc_dsp::corr::PackedBits>, Vec<f64>);

thread_local! {
    static PACK_SCRATCH: std::cell::RefCell<PackScratch> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// The matcher: owns a template bank and computes scores for acquired
/// windows.
///
/// Hardware correlators run continuously and a peak detector fires on
/// the best alignment; we model that with a small lag search around the
/// detected packet edge (`lag_search` samples each way).
#[derive(Clone, Debug)]
pub struct Matcher {
    bank: TemplateBank,
    mode: MatchMode,
    lag_search: usize,
    /// Per-template multi-bit quantizations (bank order), computed once
    /// at construction for `MatchMode::MultiBit` instead of requantizing
    /// every template on every scored window. Empty in other modes.
    multibit_cache: Vec<Vec<i32>>,
}

impl Matcher {
    /// Creates a matcher. The default lag-search radius scales with the
    /// window (≈4 µs of slack, at least 3 samples — the hardware correlator never stops, so identification is a max over alignments) — enough to absorb
    /// the power-dependent shift of the energy-threshold crossing.
    pub fn new(bank: TemplateBank, mode: MatchMode) -> Self {
        let lag_search = bank.config().adc_rate.samples_in(4.0e-6).max(3);
        let multibit_cache = match mode {
            MatchMode::MultiBit(bits) => bank
                .templates()
                .iter()
                .map(|t| multibit_quantize(&t.normalized, 0.0, 1.0, bits))
                .collect(),
            _ => Vec::new(),
        };
        Matcher { bank, mode, lag_search, multibit_cache }
    }

    /// Overrides the lag-search radius.
    pub fn with_lag_search(mut self, lag: usize) -> Self {
        self.lag_search = lag;
        self
    }

    /// The template bank in use.
    pub fn bank(&self) -> &TemplateBank {
        &self.bank
    }

    /// The arithmetic mode in use.
    pub fn mode(&self) -> MatchMode {
        self.mode
    }

    /// Scores a window that already starts at the packet edge
    /// (`l_p + l_m` samples or more).
    pub fn score_window(&self, window: &[f64]) -> Option<Scores> {
        let cfg = self.bank.config();
        if window.len() < cfg.total() {
            return None;
        }
        let pre = &window[..cfg.l_p];
        let body = &window[cfg.l_p..cfg.total()];
        let dc = msc_dsp::corr::dc_estimate(pre);
        let mut out = Scores::default();
        match self.mode {
            MatchMode::FullPrecision => {
                let rms = msc_dsp::corr::rms_about(body, dc);
                let normalized = msc_dsp::corr::normalize_window(body, dc, rms);
                for t in self.bank.templates() {
                    out.set(t.protocol, msc_dsp::corr::normalized_corr(&normalized, &t.normalized));
                }
            }
            MatchMode::Quantized => {
                // One quantize-and-pack pass, then XOR+popcount against
                // the bank's pre-packed templates.
                let q = msc_dsp::corr::PackedBits::from_signal(body, dc);
                for t in self.bank.templates() {
                    out.set(t.protocol, t.packed.corr_norm(&q));
                }
            }
            MatchMode::MultiBit(bits) => {
                let rms = msc_dsp::corr::rms_about(body, dc);
                let q = multibit_quantize(body, dc, rms, bits);
                for (t, tq) in self.bank.templates().iter().zip(&self.multibit_cache) {
                    out.set(t.protocol, multibit_corr_norm(&q, tq));
                }
            }
        }
        Some(out)
    }

    /// Detects the packet edge in an acquired sequence and scores it.
    /// `jitter` shifts the detected start (models detection timing
    /// error); the lag search takes the per-protocol maximum over
    /// nearby alignments, as a continuously-running correlator would.
    pub fn score_acquired(&self, acquired: &[f64], jitter: isize) -> Option<Scores> {
        let base = detect_start(acquired)? as isize + jitter;
        let best = self.best_over_lags(acquired, base);
        if let Some(s) = &best {
            record_scores(s);
        }
        best
    }

    /// [`Matcher::score_acquired`] over a whole trace batch, in input
    /// order. Bit-identical to the trace-at-a-time loop — the batching
    /// changes only memory behavior: the quantized mode borrows the
    /// pooled pack scratch once for the whole batch (each trace's lag
    /// windows still packed once, all four templates scored per load via
    /// [`msc_dsp::corr::PackedBits::corr_norm_many`]), and full
    /// precision runs each trace through the SoA four-template kernel
    /// ([`msc_dsp::corr::sliding_corr_max4`]) the per-trace path also
    /// uses. Score histograms and events are recorded per trace, exactly
    /// as the sequential loop would.
    pub fn score_acquired_many(&self, traces: &[(&[f64], isize)]) -> Vec<Option<Scores>> {
        if self.mode == MatchMode::Quantized {
            return PACK_SCRATCH.with(|cell| {
                let mut scratch = cell.borrow_mut();
                traces
                    .iter()
                    .map(|&(acquired, jitter)| {
                        let base = detect_start(acquired)? as isize + jitter;
                        let (lo, hi) = self.lag_bounds(acquired, base);
                        let best = self.max_scores_packed_with(acquired, lo, hi, &mut scratch);
                        if let Some(s) = &best {
                            record_scores(s);
                        }
                        best
                    })
                    .collect()
            });
        }
        traces.iter().map(|&(acquired, jitter)| self.score_acquired(acquired, jitter)).collect()
    }

    /// Scores a window at an explicit start offset with the lag search,
    /// without running edge detection (the streaming matcher has its
    /// own detector).
    pub fn score_acquired_at(&self, acquired: &[f64], start: usize) -> Option<Scores> {
        let best = self.best_over_lags(acquired, start as isize);
        if let Some(s) = &best {
            record_scores(s);
        }
        best
    }

    /// The clamped `[lo, hi]` window-start range the lag search covers
    /// around `base`.
    fn lag_bounds(&self, acquired: &[f64], base: isize) -> (usize, usize) {
        let lag = self.lag_search as isize;
        let lo = (base - lag).clamp(0, acquired.len() as isize) as usize;
        let hi = (base + lag).clamp(0, acquired.len() as isize) as usize;
        (lo, hi)
    }

    /// Per-protocol maximum score over window starts within `lag_search`
    /// of `base` (clamped to the buffer).
    fn best_over_lags(&self, acquired: &[f64], base: isize) -> Option<Scores> {
        let (lo, hi) = self.lag_bounds(acquired, base);
        if self.mode == MatchMode::FullPrecision {
            return self.max_scores_sliding(acquired, lo, hi);
        }
        if self.mode == MatchMode::Quantized {
            return self.max_scores_packed(acquired, lo, hi);
        }
        let mut best: Option<Scores> = None;
        for start in lo..=hi {
            if let Some(s) = self.score_window(&acquired[start..]) {
                best = Some(match best {
                    None => s,
                    Some(mut acc) => {
                        for p in Protocol::ALL {
                            if s.get(p) > acc.get(p) {
                                acc.set(p, s.get(p));
                            }
                        }
                        acc
                    }
                });
            }
        }
        best
    }

    /// Full-precision lag search as one sliding correlation per template.
    ///
    /// Pearson correlation is invariant to positive-affine transforms, so
    /// the per-offset DC-removal/normalization [`Matcher::score_window`]
    /// performs cannot change the value: the score at window start `s`
    /// equals `normalized_corr` of the *raw* matching window against the
    /// template. The whole lag search therefore collapses to
    /// `msc_dsp::corr::sliding_corr` over the covered region (prefix-sum
    /// or FFT kernel), instead of re-deriving mean/RMS at every offset.
    fn max_scores_sliding(&self, acquired: &[f64], lo: usize, hi: usize) -> Option<Scores> {
        let cfg = self.bank.config();
        let body_start = lo + cfg.l_p;
        let body_end = (hi + cfg.total()).min(acquired.len());
        if body_start >= body_end {
            return None;
        }
        let region = &acquired[body_start..body_end];
        if region.len() < cfg.l_m {
            return None;
        }
        let mut out = Scores::default();
        let mut any = false;
        let ts = self.bank.templates();
        if ts.len() == 4 {
            // Four-template SoA kernel: one pass over the region scores
            // all templates per signal load (to_bits-identical to the
            // per-template fold below).
            let maxes = msc_dsp::corr::sliding_corr_max4(
                region,
                [&ts[0].normalized, &ts[1].normalized, &ts[2].normalized, &ts[3].normalized],
            );
            for (t, &m) in ts.iter().zip(&maxes) {
                if m.is_finite() {
                    out.set(t.protocol, m);
                    any = true;
                }
            }
            return any.then_some(out);
        }
        for t in ts {
            let vals = msc_dsp::corr::sliding_corr(region, &t.normalized);
            let m = vals.iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v));
            if m.is_finite() {
                out.set(t.protocol, m);
                any = true;
            }
        }
        any.then_some(out)
    }

    /// Quantized lag search restructured for the batched trial engine's
    /// memory behavior: quantize-and-pack every candidate window once
    /// into pooled per-thread scratch, then score all windows per
    /// template load (template-outer) instead of all templates per
    /// window. Bit-identical to the window-outer loop in
    /// [`Matcher::score_window`] — each offset's DC still comes from its
    /// own preamble, so the packed words are unchanged, and the
    /// per-protocol max over offsets commutes with the loop order.
    fn max_scores_packed(&self, acquired: &[f64], lo: usize, hi: usize) -> Option<Scores> {
        PACK_SCRATCH
            .with(|cell| self.max_scores_packed_with(acquired, lo, hi, &mut cell.borrow_mut()))
    }

    /// [`Matcher::max_scores_packed`] against caller-held scratch, so
    /// [`Matcher::score_acquired_many`] borrows the pool once per batch
    /// instead of once per trace.
    fn max_scores_packed_with(
        &self,
        acquired: &[f64],
        lo: usize,
        hi: usize,
        scratch: &mut PackScratch,
    ) -> Option<Scores> {
        use msc_dsp::corr::{dc_estimate, PackedBits};
        let cfg = self.bank.config();
        let (packs, scores) = scratch;
        let mut n = 0usize;
        for start in lo..=hi {
            let window = &acquired[start..];
            if window.len() < cfg.total() {
                break; // windows only shrink with start
            }
            let dc = dc_estimate(&window[..cfg.l_p]);
            if packs.len() == n {
                packs.push(PackedBits::empty());
            }
            packs[n].pack_into(&window[cfg.l_p..cfg.total()], dc);
            n += 1;
        }
        if n == 0 {
            return None;
        }
        if scores.len() < n {
            scores.resize(n, 0.0);
        }
        let mut out = Scores::default();
        for t in self.bank.templates() {
            t.packed.corr_norm_many(&packs[..n], &mut scores[..n]);
            let best = scores[..n].iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v));
            out.set(t.protocol, best);
        }
        Some(out)
    }

    /// Blind identification (argmax).
    pub fn identify_blind(&self, acquired: &[f64], jitter: isize) -> Option<Protocol> {
        Some(self.score_acquired(acquired, jitter)?.argmax())
    }

    /// Ordered identification.
    pub fn identify_ordered(
        &self,
        acquired: &[f64],
        jitter: isize,
        rule: &OrderedRule,
    ) -> Option<Protocol> {
        Some(rule.decide(&self.score_acquired(acquired, jitter)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::FrontEnd;
    use crate::templates::{canonical_waveform, TemplateBank, TemplateConfig};
    use msc_dsp::SampleRate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn matcher(mode: MatchMode) -> Matcher {
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        let bank = TemplateBank::build(&fe, TemplateConfig::full_rate());
        Matcher::new(bank, mode)
    }

    #[test]
    fn identifies_own_canonical_packets_full_precision() {
        let m = matcher(MatchMode::FullPrecision);
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        let mut rng = StdRng::seed_from_u64(111);
        for p in Protocol::ALL {
            let wave = canonical_waveform(p);
            let acq = fe.acquire(&mut rng, &wave, -5.0);
            let got = m.identify_blind(&acq, 0).expect("score");
            assert_eq!(got, p, "misidentified {p}");
        }
    }

    #[test]
    fn identifies_own_canonical_packets_quantized() {
        let m = matcher(MatchMode::Quantized);
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        let mut rng = StdRng::seed_from_u64(112);
        for p in Protocol::ALL {
            let wave = canonical_waveform(p);
            let acq = fe.acquire(&mut rng, &wave, -5.0);
            assert_eq!(m.identify_blind(&acq, 0), Some(p), "misidentified {p}");
        }
    }

    #[test]
    fn own_template_scores_highest() {
        let m = matcher(MatchMode::FullPrecision);
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        let mut rng = StdRng::seed_from_u64(113);
        for p in Protocol::ALL {
            let acq = fe.acquire(&mut rng, &canonical_waveform(p), -5.0);
            let s = m.score_acquired(&acq, 0).unwrap();
            let own = s.get(p);
            assert!(own > 0.5, "{p} self-score {own}");
            for q in Protocol::ALL {
                if q != p {
                    assert!(own > s.get(q), "{p}: {} vs {q}: {}", own, s.get(q));
                }
            }
        }
    }

    #[test]
    fn multibit_quantization_brackets_the_extremes() {
        // 4-bit matching must identify at least as well as 1-bit on the
        // same traces (more precision can't hurt on clean inputs).
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        let bank = TemplateBank::build(&fe, TemplateConfig::full_rate());
        let mut rng = StdRng::seed_from_u64(115);
        for p in Protocol::ALL {
            let acq = fe.acquire(&mut rng, &canonical_waveform(p), -5.0);
            for bits in [2u8, 4, 8] {
                let m = Matcher::new(bank.clone(), MatchMode::MultiBit(bits));
                assert_eq!(m.identify_blind(&acq, 0), Some(p), "{p} at {bits} bits");
            }
        }
    }

    #[test]
    fn multibit_kernels() {
        let w = vec![0.0, 1.0, -1.0, 2.0, -2.0];
        let q = multibit_quantize(&w, 0.0, 1.0, 3);
        assert_eq!(q, vec![0, 2, -2, 3, -3]); // scale 3/2, clamp ±3
        assert!((multibit_corr_norm(&q, &q) - 1.0).abs() < 1e-12);
        let neg: Vec<i32> = q.iter().map(|&x| -x).collect();
        assert!((multibit_corr_norm(&q, &neg) + 1.0).abs() < 1e-12);
        assert_eq!(multibit_corr_norm(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn multibit_rejects_bad_width() {
        multibit_quantize(&[0.0], 0.0, 1.0, 1);
    }

    #[test]
    fn ordered_rule_decides_and_falls_back() {
        let rule = OrderedRule::paper_default();
        let mut s = Scores::default();
        s.set(Protocol::ZigBee, 0.9);
        s.set(Protocol::WifiN, 0.95);
        // ZigBee step fires first despite WifiN's higher score.
        assert_eq!(rule.decide(&s), Protocol::ZigBee);
        // Nothing above threshold → argmax fallback.
        let mut weak = Scores::default();
        weak.set(Protocol::WifiB, 0.3);
        weak.set(Protocol::Ble, 0.2);
        assert_eq!(rule.decide(&weak), Protocol::WifiB);
    }

    #[test]
    fn short_window_is_rejected() {
        let m = matcher(MatchMode::FullPrecision);
        assert!(m.score_window(&[0.1; 10]).is_none());
    }

    #[test]
    fn packed_lag_search_is_bit_identical_to_window_outer_loop() {
        // The template-outer fast path must reproduce the legacy
        // per-offset score_window fold exactly, including truncated
        // windows near the end of the buffer and with observability off
        // (score_acquired_at only adds metrics around best_over_lags).
        let m = matcher(MatchMode::Quantized);
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        let mut rng = StdRng::seed_from_u64(117);
        let total = m.bank().config().total();
        for p in Protocol::ALL {
            let acq = fe.acquire(&mut rng, &canonical_waveform(p), -2.0);
            for start in [0usize, 3, acq.len().saturating_sub(total + 1)] {
                let fast = m.score_acquired_at(&acq, start);
                // Window-outer reference, same clamp as best_over_lags.
                let lag = m.lag_search;
                let lo = start.saturating_sub(lag).min(acq.len());
                let hi = (start + lag).min(acq.len());
                let mut slow: Option<Scores> = None;
                for s in lo..=hi {
                    if let Some(sc) = m.score_window(&acq[s..]) {
                        let mut acc = slow.unwrap_or(sc);
                        for q in Protocol::ALL {
                            if sc.get(q) > acc.get(q) {
                                acc.set(q, sc.get(q));
                            }
                        }
                        slow = Some(acc);
                    }
                }
                match (fast, slow) {
                    (Some(f), Some(s)) => {
                        for q in Protocol::ALL {
                            assert_eq!(
                                f.get(q).to_bits(),
                                s.get(q).to_bits(),
                                "{p} start {start} protocol {q}"
                            );
                        }
                    }
                    (f, s) => assert_eq!(f.is_some(), s.is_some(), "{p} start {start}"),
                }
            }
        }
    }

    #[test]
    fn score_acquired_many_is_bit_identical_to_sequential_loop() {
        // The batched entry point must reproduce the trace-at-a-time
        // path exactly, in every arithmetic mode, including traces the
        // edge detector rejects (all-zero buffer → None slot).
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        let mut rng = StdRng::seed_from_u64(118);
        let mut traces: Vec<(Vec<f64>, isize)> = Vec::new();
        for (i, p) in Protocol::ALL.iter().cycle().take(12).enumerate() {
            let acq = fe.acquire(&mut rng, &canonical_waveform(*p), -6.0);
            traces.push((acq, (i as isize % 5) - 2));
        }
        traces.push((vec![0.0; 64], 0)); // undetectable
        for mode in [MatchMode::FullPrecision, MatchMode::Quantized, MatchMode::MultiBit(4)] {
            let m = matcher(mode);
            let refs: Vec<(&[f64], isize)> =
                traces.iter().map(|(a, j)| (a.as_slice(), *j)).collect();
            let batched = m.score_acquired_many(&refs);
            assert_eq!(batched.len(), traces.len());
            for (i, (a, j)) in traces.iter().enumerate() {
                let seq = m.score_acquired(a, *j);
                match (&batched[i], &seq) {
                    (Some(b), Some(s)) => {
                        for p in Protocol::ALL {
                            assert_eq!(
                                b.get(p).to_bits(),
                                s.get(p).to_bits(),
                                "{mode:?} trace {i} protocol {p}"
                            );
                        }
                    }
                    (b, s) => assert_eq!(b.is_some(), s.is_some(), "{mode:?} trace {i}"),
                }
            }
        }
    }

    #[test]
    fn survives_small_jitter() {
        let m = matcher(MatchMode::FullPrecision);
        let fe = FrontEnd::prototype(SampleRate::ADC_FULL);
        let mut rng = StdRng::seed_from_u64(114);
        for p in Protocol::ALL {
            let acq = fe.acquire(&mut rng, &canonical_waveform(p), -5.0);
            for jitter in [-2isize, -1, 1, 2] {
                assert_eq!(
                    m.identify_blind(&acq, jitter),
                    Some(p),
                    "{p} failed at jitter {jitter}"
                );
            }
        }
    }
}
