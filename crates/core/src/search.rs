//! Brute-force optimization of the ordered-matching rule (paper §2.3.2):
//! search all 4! matching orders with discretized thresholds against a
//! labeled trace set, maximizing average identification accuracy.
//!
//! Also provides the (L_p, L_m) window sweep behind Fig. 5b.
//!
//! The search is *incremental* (PR 8): the per-trace score matrix is
//! computed once, and each greedy step sweeps every threshold candidate
//! in a single pass over sorted scores with prefix counts, instead of
//! re-running the full decision chain per candidate. The result — rule,
//! thresholds, and accuracy — is bit-identical to the naive per-candidate
//! `rule_accuracy` rescan (asserted by the oracle test below).

use crate::matcher::{Matcher, OrderStep, OrderedRule, Scores};
use msc_phy::protocol::Protocol;

/// A labeled score observation: the true protocol and the four
/// correlation scores its packet produced.
#[derive(Clone, Debug)]
pub struct LabeledScores {
    /// Ground-truth protocol.
    pub truth: Protocol,
    /// Observed scores.
    pub scores: Scores,
}

/// A trace the identification engine can score: ground truth, the
/// acquired envelope, and the detection-jitter offset. Implemented for
/// the `(Protocol, Vec<f64>, isize)` tuples the early runners built and
/// for `msc-sim`'s cached `Trace` records, so experiment runners can
/// pass shared `Arc`'d trace sets without cloning acquisition buffers.
pub trait ScoredTrace {
    /// Ground-truth protocol of the excitation packet.
    fn truth(&self) -> Protocol;
    /// The acquired envelope samples.
    fn acquired(&self) -> &[f64];
    /// Detection timing error in samples.
    fn jitter(&self) -> isize;
}

impl ScoredTrace for (Protocol, Vec<f64>, isize) {
    fn truth(&self) -> Protocol {
        self.0
    }
    fn acquired(&self) -> &[f64] {
        &self.1
    }
    fn jitter(&self) -> isize {
        self.2
    }
}

/// Traces per [`Matcher::score_acquired_many`] batch in the parallel
/// scoring path: small enough to chunk evenly across workers at the
/// fig5–8 trace counts, large enough to amortize the pack-scratch borrow.
const SCORE_CHUNK: usize = 16;

/// Collects labeled scores for a batch of acquisitions. Traces are
/// scored on the msc-par worker pool in batches of `SCORE_CHUNK` (16)
/// through [`Matcher::score_acquired_many`]; each trace is scored
/// independently and results keep input order, so the output is
/// identical at any thread count (and to the trace-at-a-time loop).
///
/// Prefer [`collect_scores_labeled`] in experiment runners: it names
/// the batch for the flight recorder so identification misses become
/// replayable bundles.
pub fn collect_scores<T: ScoredTrace + Sync>(
    matcher: &Matcher,
    traces: &[T],
) -> Vec<LabeledScores> {
    collect_scores_labeled(matcher, traces, "", 0)
}

/// Prefix of the flight-recorder cell of every identification trial
/// (`id/<label>`, see [`IdCell`]).
pub const ID_CELL_PREFIX: &str = "id/";

/// [`collect_scores`] with an explicit batch label and the run's base
/// seed: the traces are scored through an [`IdCell`] labeled `label`,
/// so a miss dumps a bundle `paper replay` can reproduce. Labels must be
/// unique per batch within a runner (the replay target is addressed by
/// `(cell, index)`).
pub fn collect_scores_labeled<T: ScoredTrace + Sync>(
    matcher: &Matcher,
    traces: &[T],
    label: &str,
    seed: u64,
) -> Vec<LabeledScores> {
    let cell = IdCell::new(label, seed);
    let out: Vec<Option<LabeledScores>> = if msc_obs::flight::armed() {
        // Per-trace trial records need per-trace scoring; the flight
        // recorder path stays trace-at-a-time.
        msc_par::par_map_indexed(traces.len(), |i| cell.score(matcher, i, &traces[i]))
    } else {
        let n_chunks = traces.len().div_ceil(SCORE_CHUNK);
        let chunks: Vec<Vec<Option<LabeledScores>>> = msc_par::par_map_indexed(n_chunks, |c| {
            // Opened per item, inside the pool worker, so scoring time
            // lands here rather than in `par.worker`.
            let _score = msc_obs::profile::scope("id.score");
            let lo = c * SCORE_CHUNK;
            let hi = (lo + SCORE_CHUNK).min(traces.len());
            let chunk = &traces[lo..hi];
            let refs: Vec<(&[f64], isize)> =
                chunk.iter().map(|t| (t.acquired(), t.jitter())).collect();
            matcher
                .score_acquired_many(&refs)
                .into_iter()
                .zip(chunk)
                .map(|(s, t)| s.map(|scores| LabeledScores { truth: t.truth(), scores }))
                .collect()
        });
        chunks.into_iter().flatten().collect()
    };
    cell.finish(out)
}

/// One identification batch, flight-recorder cell `"id/<label>"`: its
/// trace index addresses a four-protocol trace set, not a Monte-Carlo
/// cell of `n` trials. [`IdCell::score`] scores one trace; while the
/// recorder is armed it records the trace as one trial — per-template
/// correlation scores plus an `"ok"` / `"id_miss"` verdict from blind
/// (argmax) matching against ground truth.
pub struct IdCell {
    experiment: String,
    cell: String,
    cell_hash: u64,
    ordinal: u64,
    seed: u64,
}

impl IdCell {
    /// The cell of batch `label` under the run's base `seed`. While the
    /// recorder is armed this reserves the cell's ordinal, so build
    /// cells on the caller's thread in the order their batches run.
    pub fn new(label: &str, seed: u64) -> IdCell {
        let cell = format!("{ID_CELL_PREFIX}{label}");
        IdCell {
            experiment: msc_obs::metrics::current_experiment(),
            cell_hash: msc_par::hash_label(&cell),
            cell,
            ordinal: msc_obs::flight::reserve_cells(1),
            seed,
        }
    }

    /// Scores trace `index` of the batch with `matcher`, as one flight
    /// trial when the recorder is armed.
    pub fn score<T: ScoredTrace>(
        &self,
        matcher: &Matcher,
        index: usize,
        trace: &T,
    ) -> Option<LabeledScores> {
        let _score = msc_obs::profile::scope("id.score");
        let truth = trace.truth();
        msc_obs::flight::begin_trial(
            &self.experiment,
            &self.cell,
            self.ordinal,
            index as u64,
            self.seed,
            msc_par::derive_seed(self.seed, self.cell_hash, index as u64),
            truth.label(),
        );
        let scored = matcher
            .score_acquired(trace.acquired(), trace.jitter())
            .map(|scores| LabeledScores { truth, scores });
        if msc_obs::flight::armed() {
            match &scored {
                Some(ls) => {
                    for p in Protocol::ALL {
                        msc_obs::flight::note_score(p.label(), ls.scores.get(p));
                    }
                    let verdict = if ls.scores.argmax() == truth { "ok" } else { "id_miss" };
                    msc_obs::flight::end_trial(verdict);
                }
                None => msc_obs::flight::end_trial("score_fail"),
            }
        }
        scored
    }

    /// Closes the batch: counts it and its traces on the progress
    /// ticker and drops the traces the matcher could not score.
    pub fn finish(self, scored: Vec<Option<LabeledScores>>) -> Vec<LabeledScores> {
        msc_obs::progress::add_cell();
        msc_obs::progress::add_trials(scored.len() as u64);
        scored.into_iter().flatten().collect()
    }
}

/// Per-protocol correct/total counts (in [`Protocol::ALL`] index order)
/// for a rule over labeled scores — the single counting loop behind
/// [`rule_accuracy`] and [`per_protocol_accuracy`].
fn count_rule(rule: &OrderedRule, data: &[LabeledScores]) -> ([usize; 4], [usize; 4]) {
    let mut correct = [0usize; 4];
    let mut total = [0usize; 4];
    for d in data {
        let idx = d.truth.index();
        total[idx] += 1;
        if rule.decide(&d.scores) == d.truth {
            correct[idx] += 1;
        }
    }
    (correct, total)
}

/// Macro-average accuracy over per-protocol counts: protocols with no
/// traces are skipped, the rest weighted equally (as the paper reports).
/// The accumulation order is part of the bit-identity contract with the
/// incremental search — keep it a plain index-order loop.
fn macro_average(correct: &[usize; 4], total: &[usize; 4]) -> f64 {
    let mut acc = 0.0;
    let mut n = 0;
    for i in 0..4 {
        if total[i] > 0 {
            acc += correct[i] as f64 / total[i] as f64;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        acc / n as f64
    }
}

/// Average per-protocol identification accuracy of a rule over labeled
/// scores (macro average: each protocol weighted equally, as the paper
/// reports).
pub fn rule_accuracy(rule: &OrderedRule, data: &[LabeledScores]) -> f64 {
    let (correct, total) = count_rule(rule, data);
    macro_average(&correct, &total)
}

/// Accuracy of blind (argmax) matching over labeled scores.
pub fn blind_accuracy(data: &[LabeledScores]) -> f64 {
    let blind = OrderedRule { steps: Vec::new() };
    rule_accuracy(&blind, data)
}

/// Per-protocol accuracy vector (in [`Protocol::ALL`] order) for a rule.
pub fn per_protocol_accuracy(rule: &OrderedRule, data: &[LabeledScores]) -> [f64; 4] {
    let (correct, total) = count_rule(rule, data);
    let mut out = [0.0; 4];
    for i in 0..4 {
        out[i] = if total[i] == 0 { 0.0 } else { correct[i] as f64 / total[i] as f64 };
    }
    out
}

/// All permutations of the four protocols.
fn permutations() -> Vec<[Protocol; 4]> {
    let mut out = Vec::with_capacity(24);
    let p = Protocol::ALL;
    for a in 0..4 {
        for b in 0..4 {
            if b == a {
                continue;
            }
            for c in 0..4 {
                if c == a || c == b {
                    continue;
                }
                let d = 6 - a - b - c;
                out.push([p[a], p[b], p[c], p[d]]);
            }
        }
    }
    out
}

/// Result of the brute-force search.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The best rule found.
    pub rule: OrderedRule,
    /// Its macro-average accuracy on the training traces.
    pub accuracy: f64,
    /// Blind-matching accuracy on the same traces, for comparison
    /// (paper Fig. 7: 0.906 blind vs 0.976 ordered at 10 Msps).
    pub blind_accuracy: f64,
}

/// One trace's precomputed search inputs: ground-truth index, blind
/// argmax index, and the four scores in [`Protocol::ALL`] order. The
/// whole greedy search runs off this matrix — the raw [`LabeledScores`]
/// are never rescanned per candidate.
struct TraceView {
    truth: u8,
    argmax: u8,
    scores: [f64; 4],
}

/// Per-thread scratch for [`tune_order`]: reused across permutations so
/// the greedy loop does no steady-state allocation (capacity grows to
/// the trace count once, then every `clear`/`extend` reuses it).
#[derive(Default)]
struct TuneScratch {
    /// Free (not yet captured) trace indices, sorted per step.
    free: Vec<u32>,
    /// Sorted step-protocol scores of the free traces (descending).
    keys: Vec<f64>,
    /// `own[k]` = how many of the top-k free traces have the step's
    /// protocol as ground truth.
    own: Vec<u32>,
    /// `fall[k][p]` = how many of the top-k free traces are correctly
    /// identified by the argmax fallback as protocol `p`.
    fall: Vec<[u32; 4]>,
}

thread_local! {
    static TUNE_SCRATCH: std::cell::RefCell<TuneScratch> =
        std::cell::RefCell::new(TuneScratch::default());
}

/// Candidate evaluation for one greedy step: with `k` free traces
/// captured by the step (scores strictly above the candidate threshold),
/// the remaining free traces fall through to the argmax fallback —
/// later steps still hold `INFINITY` thresholds at this point in the
/// greedy tuning, so they never fire. Returns the same macro average
/// the naive rescan computes, float-for-float.
fn eval_candidate(
    scratch: &TuneScratch,
    fixed_correct: &[usize; 4],
    total: &[usize; 4],
    pi: usize,
    nf: usize,
    k: usize,
) -> f64 {
    let mut correct = [0usize; 4];
    for (p, c) in correct.iter_mut().enumerate() {
        *c = fixed_correct[p] + (scratch.fall[nf][p] - scratch.fall[k][p]) as usize;
    }
    correct[pi] += scratch.own[k] as usize;
    macro_average(&correct, total)
}

/// Greedy threshold tuning for one matching order, incremental form.
///
/// Per step, free traces are sorted once by the step protocol's score
/// (descending); every candidate threshold `t` then reduces to a prefix
/// length `k = #{scores > t}` (the traces the step captures), and the
/// chain accuracy follows from prefix counts in O(1). This replaces the
/// naive `24 × 4 × |grid| × N` decide-rescan with `24 × 4 × N log N`
/// sorting. Candidates are evaluated in the naive loop's exact order
/// (grid, then `INFINITY` for non-final steps) with the same strict
/// `acc > best` update, so the chosen thresholds — and the tie-breaks —
/// are identical. Scores must be NaN-free (the matcher guarantees it);
/// the sort and prefix counts rely on a total order.
fn tune_order(
    order: &[Protocol; 4],
    views: &[TraceView],
    total: &[usize; 4],
    grid: &[f64],
    scratch: &mut TuneScratch,
) -> (OrderedRule, f64) {
    let mut steps: Vec<OrderStep> =
        order.iter().map(|&protocol| OrderStep { protocol, threshold: f64::INFINITY }).collect();
    scratch.free.clear();
    scratch.free.extend(0..views.len() as u32);
    let mut fixed_correct = [0usize; 4];
    let mut final_acc = 0.0;
    for i in 0..4 {
        let pi = order[i].index();
        scratch.free.sort_unstable_by(|&a, &b| {
            views[b as usize].scores[pi].total_cmp(&views[a as usize].scores[pi])
        });
        let nf = scratch.free.len();
        scratch.keys.clear();
        scratch.own.clear();
        scratch.fall.clear();
        scratch.own.push(0);
        scratch.fall.push([0; 4]);
        for j in 0..nf {
            let v = &views[scratch.free[j] as usize];
            scratch.keys.push(v.scores[pi]);
            scratch.own.push(scratch.own[j] + (v.truth as usize == pi) as u32);
            let mut row = scratch.fall[j];
            if v.argmax == v.truth {
                row[v.truth as usize] += 1;
            }
            scratch.fall.push(row);
        }
        let mut best_t = f64::INFINITY;
        let mut best_acc = -1.0;
        let mut best_k = 0usize;
        for &t in grid {
            let k = scratch.keys.partition_point(|&s| s > t);
            let acc = eval_candidate(scratch, &fixed_correct, total, pi, nf, k);
            if acc > best_acc {
                best_acc = acc;
                best_t = t;
                best_k = k;
            }
        }
        if i < 3 {
            // Skipping the step entirely (threshold = ∞ captures nothing).
            let acc = eval_candidate(scratch, &fixed_correct, total, pi, nf, 0);
            if acc > best_acc {
                best_acc = acc;
                best_t = f64::INFINITY;
                best_k = 0;
            }
        }
        steps[i].threshold = best_t;
        // Capture the chosen prefix: those traces are now decided as
        // order[i] no matter what later steps do.
        for &t in &scratch.free[..best_k] {
            if views[t as usize].truth as usize == pi {
                fixed_correct[pi] += 1;
            }
        }
        scratch.free.drain(..best_k);
        final_acc = best_acc;
    }
    // The last step's best accuracy IS the full rule's accuracy: every
    // threshold is final once its step is tuned.
    (OrderedRule { steps }, final_acc)
}

/// Brute-force search over matching orders and discretized thresholds.
///
/// For each of the 24 orders, thresholds for the first three steps are
/// chosen greedily from `grid` (the fourth step's threshold is
/// irrelevant: it falls through to argmax anyway, so it is fixed low).
/// Greedy-per-step keeps the search cheap while matching the paper's
/// "brute-force search of all matching orders with discrete threshold
/// values" in spirit and, on our traces, in outcome.
pub fn search_ordered_rule(data: &[LabeledScores], grid: &[f64]) -> SearchResult {
    assert!(!grid.is_empty());
    let blind = blind_accuracy(data);
    // Score matrix: computed once, shared read-only by all 24 orders.
    let views: Vec<TraceView> = data
        .iter()
        .map(|d| TraceView {
            truth: d.truth.index() as u8,
            argmax: d.scores.argmax().index() as u8,
            scores: Protocol::ALL.map(|p| d.scores.get(p)),
        })
        .collect();
    let mut total = [0usize; 4];
    for v in &views {
        total[v.truth as usize] += 1;
    }
    // Each matching order's greedy threshold tuning is independent; run
    // the 24 of them on the worker pool. Results come back in permutation
    // order, and the strictly-greater fold below picks the same winner
    // (earliest maximum) the sequential loop picked.
    let tuned: Vec<(OrderedRule, f64)> = msc_par::par_map(&permutations(), |order| {
        let _search = msc_obs::profile::scope("id.search");
        TUNE_SCRATCH.with(|cell| tune_order(order, &views, &total, grid, &mut cell.borrow_mut()))
    });
    let mut best: Option<(OrderedRule, f64)> = None;
    for (rule, acc) in tuned {
        if best.as_ref().map(|(_, a)| acc > *a).unwrap_or(true) {
            best = Some((rule, acc));
        }
    }
    let (rule, accuracy) = best.expect("at least one permutation");
    SearchResult { rule, accuracy, blind_accuracy: blind }
}

/// The default threshold grid (steps of 0.05 over the usable range).
pub fn default_grid() -> Vec<f64> {
    (4..=19).map(|i| i as f64 * 0.05).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fake(truth: Protocol, n: f64, b: f64, ble: f64, z: f64) -> LabeledScores {
        let mut s = Scores::default();
        // Scores has no public setter; go through the same order as
        // Protocol::ALL using the test helper below.
        s = set(s, Protocol::WifiN, n);
        s = set(s, Protocol::WifiB, b);
        s = set(s, Protocol::Ble, ble);
        s = set(s, Protocol::ZigBee, z);
        LabeledScores { truth, scores: s }
    }

    fn set(mut s: Scores, p: Protocol, v: f64) -> Scores {
        s.set(p, v);
        s
    }

    /// The pre-PR greedy search, verbatim: per-candidate full
    /// `rule_accuracy` rescan over cloned steps. The oracle for the
    /// incremental rewrite.
    fn naive_search(data: &[LabeledScores], grid: &[f64]) -> SearchResult {
        let blind = blind_accuracy(data);
        let tuned: Vec<(OrderedRule, f64)> = permutations()
            .iter()
            .map(|order| {
                let mut steps: Vec<OrderStep> = order
                    .iter()
                    .map(|&protocol| OrderStep { protocol, threshold: f64::INFINITY })
                    .collect();
                for i in 0..4 {
                    let mut best_t = f64::INFINITY;
                    let mut best_acc = -1.0;
                    let candidates: Vec<f64> = if i == 3 {
                        grid.to_vec()
                    } else {
                        let mut g = grid.to_vec();
                        g.push(f64::INFINITY);
                        g
                    };
                    for &t in &candidates {
                        steps[i].threshold = t;
                        let acc = rule_accuracy(&OrderedRule { steps: steps.clone() }, data);
                        if acc > best_acc {
                            best_acc = acc;
                            best_t = t;
                        }
                    }
                    steps[i].threshold = best_t;
                }
                let rule = OrderedRule { steps };
                let acc = rule_accuracy(&rule, data);
                (rule, acc)
            })
            .collect();
        let mut best: Option<(OrderedRule, f64)> = None;
        for (rule, acc) in tuned {
            if best.as_ref().map(|(_, a)| acc > *a).unwrap_or(true) {
                best = Some((rule, acc));
            }
        }
        let (rule, accuracy) = best.expect("at least one permutation");
        SearchResult { rule, accuracy, blind_accuracy: blind }
    }

    #[test]
    fn permutations_are_24_distinct() {
        let p = permutations();
        assert_eq!(p.len(), 24);
        for i in 0..p.len() {
            for j in i + 1..p.len() {
                assert_ne!(p[i], p[j]);
            }
        }
    }

    #[test]
    fn blind_accuracy_counts_argmax() {
        let data = vec![
            fake(Protocol::ZigBee, 0.1, 0.1, 0.1, 0.9),
            fake(Protocol::ZigBee, 0.5, 0.1, 0.1, 0.4), // blind gets this wrong
            fake(Protocol::WifiN, 0.9, 0.0, 0.0, 0.0),
        ];
        let acc = blind_accuracy(&data);
        // ZigBee 1/2, WifiN 1/1 → macro (0.5 + 1.0)/2 = 0.75.
        assert!((acc - 0.75).abs() < 1e-9);
    }

    #[test]
    fn search_finds_threshold_that_beats_blind() {
        // Construct data where ZigBee packets sometimes lose the argmax
        // but always exceed 0.35 on their own template, while other
        // protocols never reach 0.35 on the ZigBee template.
        let mut data = Vec::new();
        for i in 0..20 {
            let z = 0.4 + (i % 5) as f64 * 0.05;
            let n = if i % 2 == 0 { z + 0.1 } else { 0.1 }; // often outscores
            data.push(fake(Protocol::ZigBee, n, 0.1, 0.1, z));
            data.push(fake(Protocol::WifiN, 0.8, 0.2, 0.1, 0.15));
            data.push(fake(Protocol::WifiB, 0.2, 0.8, 0.1, 0.1));
            data.push(fake(Protocol::Ble, 0.1, 0.2, 0.7, 0.2));
        }
        let result = search_ordered_rule(&data, &default_grid());
        assert!(result.blind_accuracy < 0.95, "blind {}", result.blind_accuracy);
        assert!(
            result.accuracy > result.blind_accuracy,
            "ordered {} must beat blind {}",
            result.accuracy,
            result.blind_accuracy
        );
        assert!((result.accuracy - 1.0).abs() < 1e-9, "ordered should be perfect here");
    }

    #[test]
    fn incremental_search_matches_naive_rescan_exactly() {
        // The incremental prefix-count search must reproduce the naive
        // per-candidate rescan bit-for-bit: same thresholds (including
        // INFINITY skip markers), same step order, same accuracy float.
        // Random score vectors with clustered ties stress the candidate
        // tie-breaking (earliest candidate wins on equal accuracy).
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for trial in 0..6 {
            let n_per = [1usize, 3, 7, 19, 10, 25][trial];
            let mut data = Vec::new();
            for p in Protocol::ALL {
                for _ in 0..n_per {
                    // Quantize scores to the grid spacing so many traces
                    // tie exactly at candidate thresholds.
                    let q = |r: &mut StdRng| (r.gen_range(0..=20) as f64) * 0.05;
                    let own = 0.3 + (rng.gen_range(0..=14) as f64) * 0.05;
                    let mut s = Scores::default();
                    for o in Protocol::ALL {
                        s.set(o, if o == p { own } else { q(&mut rng) });
                    }
                    data.push(LabeledScores { truth: p, scores: s });
                }
            }
            let fast = search_ordered_rule(&data, &default_grid());
            let slow = naive_search(&data, &default_grid());
            assert_eq!(
                fast.accuracy.to_bits(),
                slow.accuracy.to_bits(),
                "trial {trial}: accuracy {} vs {}",
                fast.accuracy,
                slow.accuracy
            );
            assert_eq!(fast.blind_accuracy.to_bits(), slow.blind_accuracy.to_bits());
            assert_eq!(fast.rule.steps.len(), slow.rule.steps.len());
            for (i, (f, s)) in fast.rule.steps.iter().zip(&slow.rule.steps).enumerate() {
                assert_eq!(f.protocol, s.protocol, "trial {trial} step {i}");
                assert_eq!(
                    f.threshold.to_bits(),
                    s.threshold.to_bits(),
                    "trial {trial} step {i}: {} vs {}",
                    f.threshold,
                    s.threshold
                );
            }
        }
    }

    #[test]
    fn incremental_search_handles_empty_data() {
        let fast = search_ordered_rule(&[], &default_grid());
        let slow = naive_search(&[], &default_grid());
        assert_eq!(fast.accuracy.to_bits(), slow.accuracy.to_bits());
        for (f, s) in fast.rule.steps.iter().zip(&slow.rule.steps) {
            assert_eq!(f.threshold.to_bits(), s.threshold.to_bits());
        }
    }

    #[test]
    fn rule_accuracy_handles_empty() {
        assert_eq!(rule_accuracy(&OrderedRule { steps: vec![] }, &[]), 0.0);
    }
}
