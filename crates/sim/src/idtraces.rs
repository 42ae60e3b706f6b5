//! Shared trace generation for the identification experiments
//! (Figs. 5–8): random packets of all four protocols acquired through
//! the tag front end at the identification operating point.

use msc_core::envelope::{Analog, FrontEnd};
use msc_core::search::{IdCell, LabeledScores};
use msc_core::Matcher;
use msc_dsp::{IqBuf, SampleRate};
use msc_phy::bits::{random_bits, random_bytes};
use msc_phy::protocol::Protocol;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Generates one random packet of a protocol (random payload; the
/// detection fields are the deterministic parts templates key on).
pub fn random_packet(p: Protocol, rng: &mut StdRng) -> IqBuf {
    match p {
        Protocol::WifiB => msc_phy::wifi_b::WifiBModulator::new(Default::default())
            .modulate(&random_bits(rng, 160)),
        Protocol::WifiN => msc_phy::wifi_n::WifiNModulator::new(Default::default())
            .modulate(&random_bits(rng, 320)),
        Protocol::Ble => msc_phy::ble::BleModulator::new(Default::default())
            .modulate(0x02, &random_bytes(rng, 28)),
        Protocol::ZigBee => msc_phy::zigbee::ZigBeeModulator::new(Default::default())
            .modulate(&random_bytes(rng, 36)),
    }
}

/// A labeled analog trace: a [`Trace`] before the ADC.
pub struct AnalogTrace {
    /// Ground truth.
    pub truth: Protocol,
    /// Rectifier output at the packet's RF rate.
    pub analog: Analog,
    /// Detection jitter to apply (samples).
    pub jitter: isize,
}

/// A labeled acquisition trace.
pub struct Trace {
    /// Ground truth.
    pub truth: Protocol,
    /// Acquired ADC samples.
    pub acquired: Vec<f64>,
    /// Detection jitter to apply (samples).
    pub jitter: isize,
}

/// Generates `n_per_protocol` traces per protocol through `front_end`.
///
/// The identification operating point: the tag sits 0.8 m from the
/// excitation source (incident ≈ −4…−9 dBm depending on placement and
/// polarization, which we draw uniformly), and the detector's timing
/// jitters by up to ±2 ADC samples.
pub fn generate_traces(front_end: &FrontEnd, n_per_protocol: usize, seed: u64) -> Vec<Trace> {
    generate_traces_at(front_end, n_per_protocol, seed, -9.0..-4.0, 2)
}

/// Incident-power range of the "hard" identification traces (dBm).
pub const HARD_INCIDENT_DBM: Range<f64> = -10.5..-4.5;
/// Detection-jitter bound of the "hard" identification traces (samples).
pub const HARD_MAX_JITTER: isize = 3;

/// Harder traces: placements down near the rectifier's sensitivity edge
/// (the low end of the paper's "200,000 traces of different ranges,
/// scenarios"), with more detection jitter. Figs. 5–8 use these so the
/// blind/ordered and window-extension effects are visible rather than
/// saturated at 100%.
pub fn generate_traces_hard(front_end: &FrontEnd, n_per_protocol: usize, seed: u64) -> Vec<Trace> {
    generate_traces_at(front_end, n_per_protocol, seed, HARD_INCIDENT_DBM, HARD_MAX_JITTER)
}

/// Trace generation with explicit incident-power range and jitter bound:
/// each trace's analog stage and then its ADC, with nothing kept between
/// the two.
///
/// Traces are generated on the `msc-par` pool; each trace's RNG seed
/// derives from `(seed, trace index)`, so the set is bit-identical at
/// any thread count.
pub fn generate_traces_at(
    front_end: &FrontEnd,
    n_per_protocol: usize,
    seed: u64,
    incident_dbm: Range<f64>,
    max_jitter: isize,
) -> Vec<Trace> {
    msc_par::par_map_indexed(n_per_protocol * 4, |i| {
        let a = analog_trace(front_end, n_per_protocol, seed, &incident_dbm, max_jitter, i);
        digitize_trace(front_end, &a)
    })
}

/// The ADC-independent half of [`generate_traces_at`]: the labeled
/// analog traces every ADC configuration of `front_end` digitizes.
pub fn generate_analog_at(
    front_end: &FrontEnd,
    n_per_protocol: usize,
    seed: u64,
    incident_dbm: Range<f64>,
    max_jitter: isize,
) -> Vec<AnalogTrace> {
    msc_par::par_map_indexed(n_per_protocol * 4, |i| {
        analog_trace(front_end, n_per_protocol, seed, &incident_dbm, max_jitter, i)
    })
}

/// Trace `i` of a set through one front end: the one-front-end case
/// of [`trace_sweep`].
fn analog_trace(
    front_end: &FrontEnd,
    n_per_protocol: usize,
    seed: u64,
    incident_dbm: &Range<f64>,
    max_jitter: isize,
    i: usize,
) -> AnalogTrace {
    let fes = std::slice::from_ref(front_end);
    let mut sweep = trace_sweep(fes, n_per_protocol, seed, incident_dbm, max_jitter, i);
    sweep.pop().expect("one analog trace per front end")
}

/// Trace `i` of a set through each of `front_ends` (which must share
/// `noise_v`): its packet, incident power, analog acquisition and
/// jitter, drawn from one RNG stream in that order, with the analog
/// draws made once for all front ends ([`FrontEnd::analog_sweep`]).
/// Element `k` is trace `i` of `front_ends[k]`'s own set, bit for bit.
/// The ADC draws nothing, so the stream (and with it the jitter) is the
/// same at every ADC configuration.
pub fn trace_sweep(
    front_ends: &[FrontEnd],
    n_per_protocol: usize,
    seed: u64,
    incident_dbm: &Range<f64>,
    max_jitter: isize,
    i: usize,
) -> Vec<AnalogTrace> {
    // Frames open per item, inside the pool worker, so the time lands
    // under these names rather than in `par.worker`.
    let _gen = msc_obs::profile::scope("id.trace_gen");
    // Trace i belongs to protocol i / n_per_protocol: n_per_protocol
    // consecutive traces per protocol, in Protocol::ALL order. Callers
    // only reach here with i < 4 · n_per_protocol, so the quotient stays
    // in 0..4.
    let p = Protocol::ALL[i / n_per_protocol];
    let cell = msc_par::hash_label("idtraces");
    let mut rng = StdRng::seed_from_u64(msc_par::derive_seed(seed, cell, i as u64));
    let wave = random_packet(p, &mut rng);
    let incident = rng.gen_range(incident_dbm.clone());
    let analog = {
        let _acq = msc_obs::profile::scope("id.acquire");
        FrontEnd::analog_sweep(front_ends, &mut rng, &wave, incident)
    };
    let jitter = rng.gen_range(-max_jitter..=max_jitter);
    analog.into_iter().map(|analog| AnalogTrace { truth: p, analog, jitter }).collect()
}

/// Digitizes one analog trace through `front_end`'s ADC.
pub fn digitize_trace(front_end: &FrontEnd, a: &AnalogTrace) -> Trace {
    let _dig = msc_obs::profile::scope("id.digitize");
    Trace { truth: a.truth, acquired: front_end.digitize(&a.analog), jitter: a.jitter }
}

/// The one identification scoring pass. `passes` lists each ADC
/// configuration (a front end) with the matchers, each with its flight
/// cell, that score its digitizations. For each trace index `i` in
/// `0..n_traces`, in one pool worker: `analog(i)` yields trace `i`'s
/// analog acquisition (one trace every front end digitizes, or one per
/// pass), each front end digitizes it once, and each of its matchers
/// scores that digitization through [`IdCell::score`]. Only the scores
/// leave the worker.
///
/// Returns one column per (matcher, cell) pair, in `passes` order, with
/// one slot per trace, for the caller to [`IdCell::finish`]. Build the
/// cells on the calling thread, in batch order, before the call: that
/// fixes their flight ordinals.
pub fn score_traces<A: AsRef<[AnalogTrace]>>(
    n_traces: usize,
    analog: impl Fn(usize) -> A + Sync,
    passes: &[(&FrontEnd, Vec<(&Matcher, &IdCell)>)],
) -> Vec<Vec<Option<LabeledScores>>> {
    let mut rows = msc_par::par_map_indexed(n_traces, |i| {
        let analog = analog(i);
        let analog = analog.as_ref();
        let mut row = Vec::new();
        for (k, (fe, scorers)) in passes.iter().enumerate() {
            let trace = digitize_trace(fe, &analog[if analog.len() == 1 { 0 } else { k }]);
            row.extend(scorers.iter().map(|(matcher, cell)| cell.score(matcher, i, &trace)));
        }
        row
    });
    let width = passes.iter().map(|(_, scorers)| scorers.len()).sum();
    (0..width).map(|k| rows.iter_mut().map(|row| row[k].take()).collect()).collect()
}

impl msc_core::search::ScoredTrace for Trace {
    fn truth(&self) -> Protocol {
        self.truth
    }
    fn acquired(&self) -> &[f64] {
        &self.acquired
    }
    fn jitter(&self) -> isize {
        self.jitter
    }
}

/// Convenience: a prototype front end at `rate`.
pub fn front_end(rate: SampleRate) -> FrontEnd {
    FrontEnd::prototype(rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_cover_all_protocols() {
        let fe = front_end(SampleRate::ADC_LOW);
        let traces = generate_traces(&fe, 2, 7);
        assert_eq!(traces.len(), 8);
        for p in Protocol::ALL {
            assert_eq!(traces.iter().filter(|t| t.truth == p).count(), 2);
        }
        assert!(traces.iter().all(|t| !t.acquired.is_empty()));
    }

    #[test]
    fn zero_traces_per_protocol_is_empty() {
        let fe = front_end(SampleRate::ADC_LOW);
        assert!(generate_traces(&fe, 0, 7).is_empty());
    }
}
