//! The deployment-scale fleet engine: an event-driven simulation of
//! hundreds-to-thousands of backscatter tags sharing concurrent
//! excitation carriers over a wall-clock horizon.
//!
//! Three phases, arranged so the result is byte-identical at any worker
//! count (the [`msc_par`] contract):
//!
//! 1. **Carrier streams** — each carrier owns an RNG seeded by
//!    `derive_seed(seed, CELL_CARRIER, carrier)` and draws its next
//!    packet arrival from its [`Arrivals`] process only when the sweep
//!    consumes the current one. Nothing is materialized: a carrier's
//!    timeline costs one pending arrival, not one `f64` per packet.
//! 2. **Tag setup** — one [`par_map_indexed`] item per tag draws its
//!    placement, energy phase, and sensor-reading times, seeded by
//!    `derive_seed(seed, CELL_TAG, tag)`, and precomputes its
//!    per-carrier loss probabilities and goodput ranking from the
//!    calibrated [`LinkTable`](crate::link::LinkTable). The readings of
//!    all tags are gathered into one `(time, tag)`-sorted vector.
//! 3. **MAC resolution** — a single *sequential* sweep over a k-way
//!    merge of the readings and the carrier streams resolves contention:
//!    readings arrive, tags pick carriers through the [`MacPolicy`],
//!    back off in carrier-packet slots, collide when two tags modulate
//!    the same packet, and retry up to the [`Backoff`] budget. The merge
//!    order is total (time, then readings before carrier packets, then
//!    the lower tag or carrier index), and the sweep consumes one RNG
//!    whose draw order depends only on that order, so it too is
//!    independent of `--threads`.
//!
//! [`par_map_indexed`]: msc_par::par_map_indexed

use crate::link::LinkTable;
use crate::mac::{Backoff, MacPolicy};
use crate::obs::{MacEvent, MacObserver, NoopObserver};
use crate::traffic::{Arrivals, Stream};
use msc_analog::harvester::{EnergyBuffer, Light, SolarHarvester};
use msc_par::{derive_seed, par_map_indexed};
use msc_phy::protocol::Protocol;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed-derivation cell for the carrier arrival streams (phase 1).
const CELL_CARRIER: u64 = 0x66c4_71e5_11fe_e7ca;
/// Seed-derivation cell for per-tag setup (phase 2).
const CELL_TAG: u64 = 0x7a61_f1ee_7000_0001;
/// Seed-derivation cell for the sequential MAC sweep (phase 3).
const CELL_MAC: u64 = 0x3ac0_f1ee_7000_0002;

/// Harvest-limited power model: the tag alternates a charge interval
/// (radio off, readings starve) with a run interval, phase-offset per
/// tag. Mirrors the paper's §3 BQ25570 round structure as a steady-state
/// duty cycle so the O(events) sweep can answer "powered at `t`?" in
/// O(1) instead of integrating the buffer per tag.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    /// Seconds per recharge interval (radio dead).
    pub charge_s: f64,
    /// Seconds per powered interval.
    pub run_s: f64,
}

impl EnergyModel {
    /// Builds the steady-state round from the paper's harvesting chain:
    /// MP3-37 panel + BQ25570 + 10 mF buffer under `light`, with the
    /// tag drawing `load_w` while running. Harvest income offsets the
    /// drain while running (clamped so run time stays finite).
    pub fn from_harvest(light: Light, load_w: f64) -> Self {
        let h = SolarHarvester::mp3_37();
        let b = EnergyBuffer::paper();
        let harvest_w = h.power_w(light);
        let net_w = (load_w - harvest_w).max(1e-9);
        EnergyModel { charge_s: b.recharge_s(&h, light), run_s: b.usable_energy_j() / net_w }
    }

    /// Full charge+run round length, seconds.
    pub fn period_s(&self) -> f64 {
        self.charge_s + self.run_s
    }

    /// Whether a tag with round offset `phase_s` is powered at `t`.
    /// Each round charges first, then runs.
    pub fn powered(&self, t: f64, phase_s: f64) -> bool {
        (t - phase_s).rem_euclid(self.period_s()) >= self.charge_s
    }
}

/// Full configuration of one fleet scenario.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of tags deployed.
    pub tags: usize,
    /// Simulated wall-clock horizon, seconds.
    pub horizon_s: f64,
    /// The concurrent excitation carriers sharing the air.
    pub carriers: Vec<Stream>,
    /// Sensor-reading arrival process per tag (each tag gets an
    /// independent phase and RNG stream).
    pub readings: Arrivals,
    /// Payload bits per sensor reading.
    pub reading_bits: usize,
    /// Carrier-selection policy.
    pub policy: MacPolicy,
    /// Retry/backoff discipline.
    pub backoff: Backoff,
    /// Harvest-limited power model; `None` = mains-powered.
    pub energy: Option<EnergyModel>,
    /// Readings a busy tag may buffer before dropping new ones.
    pub queue_cap: usize,
    /// Record every Nth single-tag attempt as an [`AttemptSample`];
    /// `0` disables sampling (the `paper` runners never sample).
    pub sample_every: usize,
    /// Base seed; everything else derives from it.
    pub seed: u64,
}

/// One recorded transmission attempt, enough to replay through the full
/// waveform pipeline and compare against the abstraction's verdict.
#[derive(Clone, Copy, Debug)]
pub struct AttemptSample {
    /// Protocol of the carrier the attempt rode.
    pub protocol: Protocol,
    /// Transmitting tag.
    pub tag: u32,
    /// The tag's placement draw in `[0, 1)` (maps to distance/SNR).
    pub place_u: f64,
    /// Whether the link abstraction delivered it.
    pub success: bool,
}

/// Always-on per-carrier tallies — the carrier-level breakdown the
/// run-level [`FleetResult`] counters sum over. Indexed like
/// [`FleetConfig::carriers`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CarrierTally {
    /// Excitation packets this carrier emitted.
    pub packets: u64,
    /// Packets no tag modulated.
    pub idle: u64,
    /// Transmission attempts that rode this carrier.
    pub attempts: u64,
    /// Readings delivered on this carrier.
    pub delivered: u64,
    /// Attempts lost to tag–tag collisions on this carrier.
    pub collided_attempts: u64,
    /// Packets on which ≥ 2 tags modulated.
    pub collision_slots: u64,
    /// Attempts lost to the channel on this carrier.
    pub channel_losses: u64,
}

impl CarrierTally {
    /// Fraction of this carrier's packets at least one tag modulated.
    pub fn utilization(&self) -> f64 {
        1.0 - self.idle as f64 / self.packets.max(1) as f64
    }
}

/// Aggregate outcome of one fleet run.
#[derive(Clone, Debug, Default)]
pub struct FleetResult {
    /// Excitation packets the carriers emitted over the horizon.
    pub carrier_packets: u64,
    /// Sensor readings the tags generated (offered load).
    pub offered: u64,
    /// Readings delivered to the receiver.
    pub delivered: u64,
    /// Payload bits delivered.
    pub delivered_bits: u64,
    /// Transmission attempts (first tries + retries).
    pub attempts: u64,
    /// Attempts lost to tag–tag collisions on the overlay channel.
    pub collided_attempts: u64,
    /// Carrier packets on which ≥ 2 tags modulated (collision slots).
    pub collision_slots: u64,
    /// Attempts lost to the channel (calibrated PER draw).
    pub channel_losses: u64,
    /// Readings abandoned after exhausting the retry budget.
    pub retry_drops: u64,
    /// Readings dropped because the tag's queue was full.
    pub queue_drops: u64,
    /// Readings dropped because the tag was in a charge interval.
    pub starved: u64,
    /// Carrier packets no tag modulated.
    pub idle_packets: u64,
    /// Per-carrier breakdown of packets / attempts / outcomes.
    pub per_carrier: Vec<CarrierTally>,
    /// Per-tag offered readings.
    pub per_tag_offered: Vec<u32>,
    /// Per-tag delivered readings.
    pub per_tag_delivered: Vec<u32>,
    /// Sampled attempts for full-pipeline validation.
    pub samples: Vec<AttemptSample>,
    /// The horizon the run covered, seconds.
    pub horizon_s: f64,
}

impl FleetResult {
    /// Delivered payload throughput, bits per second of horizon.
    pub fn throughput_bps(&self) -> f64 {
        self.delivered_bits as f64 / self.horizon_s.max(1e-12)
    }

    /// Fraction of offered readings delivered.
    pub fn delivery_rate(&self) -> f64 {
        self.delivered as f64 / (self.offered.max(1)) as f64
    }

    /// Fraction of transmission attempts lost to tag–tag collisions.
    pub fn collision_rate(&self) -> f64 {
        self.collided_attempts as f64 / (self.attempts.max(1)) as f64
    }

    /// Fraction of offered readings dropped unpowered.
    pub fn starvation_rate(&self) -> f64 {
        self.starved as f64 / (self.offered.max(1)) as f64
    }

    /// Fraction of carrier packets at least one tag modulated.
    pub fn utilization(&self) -> f64 {
        1.0 - self.idle_packets as f64 / (self.carrier_packets.max(1)) as f64
    }

    /// Jain fairness index of the per-tag delivered-goodput shares.
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> = self.per_tag_delivered.iter().map(|&d| d as f64).collect();
        msc_obs::stats::jain(&xs)
    }
}

/// Per-tag state computed in phase 2.
struct TagSetup {
    place_u: f64,
    energy_phase: f64,
    readings: Vec<f64>,
    /// Carrier indices sorted by expected goodput, best first.
    ranked: Vec<u16>,
    /// Per-carrier packet-loss probability at this tag's placement.
    p_loss: Vec<f64>,
}

/// Merged event stream entry. Readings sort before carrier packets at
/// equal times so a reading can ride the very next packet; within a
/// kind, ties break on the id for a total, thread-independent order.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Event {
    Reading { time: f64, tag: u32 },
    Carrier { time: f64, carrier: u16 },
}

/// One carrier's lazily drawn arrival stream: the pending arrival plus
/// the RNG that draws the one after it.
struct CarrierStream {
    arrivals: Arrivals,
    rng: StdRng,
    head: Option<f64>,
}

/// K-way merge of the sorted readings and the carrier streams, in
/// [`Event`] order. A carrier draws its next arrival only when its head
/// is consumed, so each carrier's RNG sees exactly the draw sequence of
/// generating its whole timeline up front.
struct EventMerge {
    readings: std::iter::Peekable<std::vec::IntoIter<(f64, u32)>>,
    carriers: Vec<CarrierStream>,
    horizon: f64,
}

impl EventMerge {
    /// `readings` must be sorted by `(time, tag)`.
    fn new(carriers: &[Stream], seed: u64, horizon: f64, readings: Vec<(f64, u32)>) -> Self {
        let carriers = carriers
            .iter()
            .enumerate()
            .map(|(c, s)| {
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, CELL_CARRIER, c as u64));
                let head = s.arrivals.next_after(&mut rng, 0.0, horizon);
                CarrierStream { arrivals: s.arrivals, rng, head }
            })
            .collect();
        EventMerge { readings: readings.into_iter().peekable(), carriers, horizon }
    }
}

impl Iterator for EventMerge {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        // Earliest carrier head; strict `<` keeps the lower index on ties.
        let mut best: Option<(f64, usize)> = None;
        for (c, s) in self.carriers.iter().enumerate() {
            if let Some(t) = s.head {
                if best.is_none_or(|(bt, _)| t.total_cmp(&bt).is_lt()) {
                    best = Some((t, c));
                }
            }
        }
        match (self.readings.peek(), best) {
            (Some(&(time, tag)), best)
                if best.is_none_or(|(bt, _)| time.total_cmp(&bt).is_le()) =>
            {
                self.readings.next();
                Some(Event::Reading { time, tag })
            }
            (_, Some((time, c))) => {
                let s = &mut self.carriers[c];
                s.head = s.arrivals.next_after(&mut s.rng, time, self.horizon);
                Some(Event::Carrier { time, carrier: c as u16 })
            }
            (_, None) => None,
        }
    }
}

/// In-flight transmission state of one tag.
#[derive(Clone, Copy, Default)]
struct TagState {
    busy: bool,
    attempt: u32,
    reading_no: u64,
    queued: u32,
}

/// Runs one fleet scenario against a calibrated link table.
///
/// `snr_of(place_u, protocol)` maps a tag's placement draw to its
/// uplink SNR for that protocol's carrier — the runner supplies the
/// geometry so the engine stays free of `msc-sim` types.
pub fn run<F>(cfg: &FleetConfig, link: &LinkTable, snr_of: F) -> FleetResult
where
    F: Fn(f64, Protocol) -> f64 + Sync,
{
    run_with(cfg, link, snr_of, &mut NoopObserver)
}

/// [`run`] with a [`MacObserver`] receiving every MAC-layer event from
/// the sequential phase-3 sweep. The observer never touches the RNG,
/// so the [`FleetResult`] is byte-identical to an unobserved run; with
/// [`NoopObserver`] every hook monomorphizes away.
pub fn run_with<F, O>(cfg: &FleetConfig, link: &LinkTable, snr_of: F, obs: &mut O) -> FleetResult
where
    F: Fn(f64, Protocol) -> f64 + Sync,
    O: MacObserver,
{
    assert!(!cfg.carriers.is_empty(), "fleet needs at least one carrier");
    assert!(cfg.tags > 0, "fleet needs at least one tag");
    let n_carriers = cfg.carriers.len();
    assert!(n_carriers <= u16::MAX as usize, "carrier index is u16");
    assert!(cfg.tags <= u32::MAX as usize, "tag index is u32");

    // Phase 2: per-tag placement, energy phase, readings, and ranking.
    // (Phase 1, the carrier streams, draws lazily inside the merge.)
    let energy_period = cfg.energy.map(|e| e.period_s()).unwrap_or(1.0);
    let mean_interval = 1.0 / cfg.readings.mean_rate().max(1e-12);
    let mut tags: Vec<TagSetup> = par_map_indexed(cfg.tags, |g| {
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, CELL_TAG, g as u64));
        let place_u: f64 = rng.gen_range(0.0..1.0);
        // Always consume the draw so adding/removing the energy model
        // does not shift the tag's reading phases.
        let energy_phase = rng.gen_range(0.0..1.0) * energy_period;
        let mut readings = Vec::new();
        // Independent phase offset per tag: without it a Periodic
        // process would fire every tag at the same instants and phase 3
        // would measure synchronized-burst collisions, not load.
        let mut t = rng.gen_range(0.0..1.0) * mean_interval.min(cfg.horizon_s);
        if t < cfg.horizon_s {
            readings.push(t);
            while let Some(next) = cfg.readings.next_after(&mut rng, t, cfg.horizon_s) {
                readings.push(next);
                t = next;
            }
        }
        let p_loss: Vec<f64> = cfg
            .carriers
            .iter()
            .map(|s| link.per(s.protocol, snr_of(place_u, s.protocol)))
            .collect();
        // Expected tag goodput per carrier: packet rate × tag bits ×
        // delivery probability. Ties break on the index so the ranking
        // is total.
        let mut ranked: Vec<u16> = (0..n_carriers as u16).collect();
        let goodput = |c: u16| {
            let s = &cfg.carriers[c as usize];
            s.arrivals.mean_rate() * s.tag_bits_per_packet as f64 * (1.0 - p_loss[c as usize])
        };
        ranked.sort_by(|&a, &b| goodput(b).partial_cmp(&goodput(a)).unwrap().then(a.cmp(&b)));
        TagSetup { place_u, energy_phase, readings, ranked, p_loss }
    });

    // Gather every tag's readings into one `(time, tag)`-ordered list;
    // the keys are unique, so an unstable sort gives the same order.
    let mut readings: Vec<(f64, u32)> =
        Vec::with_capacity(tags.iter().map(|t| t.readings.len()).sum());
    for (g, tag) in tags.iter_mut().enumerate() {
        readings.extend(std::mem::take(&mut tag.readings).into_iter().map(|t| (t, g as u32)));
    }
    readings.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let events = EventMerge::new(&cfg.carriers, cfg.seed, cfg.horizon_s, readings);

    // Phase 3: sequential MAC sweep.
    let _sweep = msc_obs::profile::scope("fleet.sweep");
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, CELL_MAC, 0));
    let mut out = FleetResult {
        per_carrier: vec![CarrierTally::default(); n_carriers],
        per_tag_offered: vec![0; cfg.tags],
        per_tag_delivered: vec![0; cfg.tags],
        horizon_s: cfg.horizon_s,
        ..FleetResult::default()
    };
    // Ring of future-slot buckets per carrier: bucket `k mod len` holds
    // the tags transmitting on that carrier's k-th packet. Backoff draws
    // stay below cw_max, so cw_max + 2 buckets cannot wrap onto a
    // still-pending slot.
    let ring_len = (cfg.backoff.cw_max as usize) + 2;
    let mut rings: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); ring_len]; n_carriers];
    // Packets already emitted per carrier (next packet gets index k).
    let mut emitted: Vec<u64> = vec![0; n_carriers];
    let mut state: Vec<TagState> = vec![TagState::default(); cfg.tags];

    // Schedules tag `g`'s current attempt: policy pick + backoff draw.
    let schedule = |g: u32,
                    st: &TagState,
                    t: f64,
                    rng: &mut StdRng,
                    rings: &mut [Vec<Vec<u32>>],
                    emitted: &[u64],
                    obs: &mut O| {
        let setup = &tags[g as usize];
        let c = cfg.policy.pick(g as usize, st.reading_no, st.attempt, &setup.ranked);
        let b = cfg.backoff.draw(rng, st.attempt) as u64;
        let slot = emitted[c] + 1 + b;
        obs.on_event(MacEvent::Backoff { t, tag: g, carrier: c as u16, attempt: st.attempt, slot });
        rings[c][(slot % ring_len as u64) as usize].push(g);
    };

    let mut drained: Vec<u32> = Vec::new();
    for ev in events {
        match ev {
            Event::Reading { time, tag } => {
                out.offered += 1;
                out.per_tag_offered[tag as usize] += 1;
                obs.on_event(MacEvent::Reading { t: time, tag });
                let setup = &tags[tag as usize];
                if let Some(e) = cfg.energy {
                    if !e.powered(time, setup.energy_phase) {
                        out.starved += 1;
                        obs.on_event(MacEvent::Starved { t: time, tag });
                        continue;
                    }
                }
                let st = &mut state[tag as usize];
                if st.busy {
                    if (st.queued as usize) < cfg.queue_cap {
                        st.queued += 1;
                        obs.on_event(MacEvent::Enqueue { t: time, tag, depth: st.queued });
                    } else {
                        out.queue_drops += 1;
                        obs.on_event(MacEvent::QueueDrop { t: time, tag });
                    }
                    continue;
                }
                st.busy = true;
                st.attempt = 0;
                st.reading_no += 1;
                let st = state[tag as usize];
                schedule(tag, &st, time, &mut rng, &mut rings, &emitted, obs);
            }
            Event::Carrier { time, carrier } => {
                let c = carrier as usize;
                let k = emitted[c];
                emitted[c] += 1;
                out.carrier_packets += 1;
                out.per_carrier[c].packets += 1;
                drained.clear();
                drained.append(&mut rings[c][(k % ring_len as u64) as usize]);
                obs.on_event(MacEvent::Packet { t: time, carrier, mods: drained.len() as u32 });
                match drained.len() {
                    0 => {
                        out.idle_packets += 1;
                        out.per_carrier[c].idle += 1;
                    }
                    1 => {
                        let g = drained[0];
                        out.attempts += 1;
                        out.per_carrier[c].attempts += 1;
                        obs.on_event(MacEvent::Attempt {
                            t: time,
                            tag: g,
                            carrier,
                            attempt: state[g as usize].attempt,
                        });
                        let setup = &tags[g as usize];
                        // A tag that hit its charge interval mid-backoff
                        // cannot modulate: the attempt fails like a
                        // channel loss and re-enters backoff.
                        let powered =
                            cfg.energy.map(|e| e.powered(time, setup.energy_phase)).unwrap_or(true);
                        let lost = !powered || rng.gen_bool(setup.p_loss[c].clamp(0.0, 1.0));
                        if cfg.sample_every > 0
                            && powered
                            && out.attempts.is_multiple_of(cfg.sample_every as u64)
                        {
                            out.samples.push(AttemptSample {
                                protocol: cfg.carriers[c].protocol,
                                tag: g,
                                place_u: setup.place_u,
                                success: !lost,
                            });
                        }
                        if lost {
                            out.channel_losses += 1;
                            out.per_carrier[c].channel_losses += 1;
                            obs.on_event(MacEvent::ChannelLoss { t: time, tag: g, carrier });
                            retry(
                                g, time, cfg, &mut state, &mut out, &mut rng, &mut rings, &emitted,
                                &schedule, obs,
                            );
                        } else {
                            out.delivered += 1;
                            out.delivered_bits += cfg.reading_bits as u64;
                            out.per_tag_delivered[g as usize] += 1;
                            out.per_carrier[c].delivered += 1;
                            obs.on_event(MacEvent::Delivery { t: time, tag: g, carrier });
                            finish(
                                g, time, &mut state, &mut rng, &mut rings, &emitted, &schedule, obs,
                            );
                        }
                    }
                    _ => {
                        // ≥ 2 tags modulated the same carrier packet:
                        // their overlay waveforms interfere and all lose.
                        out.collision_slots += 1;
                        out.attempts += drained.len() as u64;
                        out.collided_attempts += drained.len() as u64;
                        out.per_carrier[c].collision_slots += 1;
                        out.per_carrier[c].attempts += drained.len() as u64;
                        out.per_carrier[c].collided_attempts += drained.len() as u64;
                        for i in 0..drained.len() {
                            obs.on_event(MacEvent::Attempt {
                                t: time,
                                tag: drained[i],
                                carrier,
                                attempt: state[drained[i] as usize].attempt,
                            });
                        }
                        obs.on_event(MacEvent::Collision {
                            t: time,
                            carrier,
                            tags: drained.len() as u32,
                        });
                        for i in 0..drained.len() {
                            let g = drained[i];
                            retry(
                                g, time, cfg, &mut state, &mut out, &mut rng, &mut rings, &emitted,
                                &schedule, obs,
                            );
                        }
                    }
                }
            }
        }
    }
    out
}

/// Advances tag `g` past a failed attempt: rescheduled with a doubled
/// window, or dropped once the retry budget is spent.
#[allow(clippy::too_many_arguments)]
fn retry<S, O>(
    g: u32,
    t: f64,
    cfg: &FleetConfig,
    state: &mut [TagState],
    out: &mut FleetResult,
    rng: &mut StdRng,
    rings: &mut [Vec<Vec<u32>>],
    emitted: &[u64],
    schedule: &S,
    obs: &mut O,
) where
    S: Fn(u32, &TagState, f64, &mut StdRng, &mut [Vec<Vec<u32>>], &[u64], &mut O),
    O: MacObserver,
{
    state[g as usize].attempt += 1;
    if state[g as usize].attempt > cfg.backoff.max_retries {
        out.retry_drops += 1;
        obs.on_event(MacEvent::RetryDrop { t, tag: g });
        finish(g, t, state, rng, rings, emitted, schedule, obs);
    } else {
        let st = state[g as usize];
        schedule(g, &st, t, rng, rings, emitted, obs);
    }
}

/// Completes tag `g`'s current reading (delivered or abandoned) and
/// starts the next queued one, if any.
#[allow(clippy::too_many_arguments)]
fn finish<S, O>(
    g: u32,
    t: f64,
    state: &mut [TagState],
    rng: &mut StdRng,
    rings: &mut [Vec<Vec<u32>>],
    emitted: &[u64],
    schedule: &S,
    obs: &mut O,
) where
    S: Fn(u32, &TagState, f64, &mut StdRng, &mut [Vec<Vec<u32>>], &[u64], &mut O),
    O: MacObserver,
{
    let st = &mut state[g as usize];
    if st.queued > 0 {
        st.queued -= 1;
        st.attempt = 0;
        st.reading_no += 1;
        let st = state[g as usize];
        schedule(g, &st, t, rng, rings, emitted, obs);
    } else {
        st.busy = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Stream;

    fn carriers() -> Vec<Stream> {
        vec![
            Stream {
                protocol: Protocol::WifiN,
                arrivals: Arrivals::Periodic { rate: 2000.0 },
                airtime_s: 404e-6,
                tag_bits_per_packet: 23,
            },
            Stream {
                protocol: Protocol::Ble,
                arrivals: Arrivals::Periodic { rate: 2976.0 },
                airtime_s: 336e-6,
                tag_bits_per_packet: 5,
            },
        ]
    }

    fn base_cfg() -> FleetConfig {
        FleetConfig {
            tags: 40,
            horizon_s: 4.0,
            carriers: carriers(),
            readings: Arrivals::Periodic { rate: 2.0 },
            reading_bits: 64,
            policy: MacPolicy::BestGoodput,
            backoff: Backoff::default(),
            energy: None,
            queue_cap: 4,
            sample_every: 0,
            seed: 42,
        }
    }

    #[test]
    fn conservation_of_readings_and_packets() {
        let cfg = base_cfg();
        let r = run(&cfg, &LinkTable::ideal(), |_, _| 20.0);
        assert!(r.offered > 0 && r.carrier_packets > 0);
        // Every offered reading is delivered, starved, dropped, or was
        // still in flight at the horizon.
        let accounted = r.delivered + r.starved + r.retry_drops + r.queue_drops;
        assert!(accounted <= r.offered, "{r:?}");
        let in_flight = r.offered - accounted;
        assert!(in_flight <= cfg.tags as u64 * (1 + cfg.queue_cap as u64), "{r:?}");
        assert_eq!(r.per_tag_offered.iter().map(|&x| x as u64).sum::<u64>(), r.offered);
        assert_eq!(r.per_tag_delivered.iter().map(|&x| x as u64).sum::<u64>(), r.delivered);
        assert_eq!(r.delivered_bits, r.delivered * 64);
        // Per-carrier tallies partition the run-level counters.
        let sum = |f: fn(&CarrierTally) -> u64| r.per_carrier.iter().map(f).sum::<u64>();
        assert_eq!(sum(|c| c.packets), r.carrier_packets);
        assert_eq!(sum(|c| c.idle), r.idle_packets);
        assert_eq!(sum(|c| c.attempts), r.attempts);
        assert_eq!(sum(|c| c.delivered), r.delivered);
        assert_eq!(sum(|c| c.collided_attempts), r.collided_attempts);
        assert_eq!(sum(|c| c.collision_slots), r.collision_slots);
        assert_eq!(sum(|c| c.channel_losses), r.channel_losses);
    }

    #[test]
    fn tracing_observer_does_not_change_results() {
        use crate::obs::{Detectors, MacTrace};
        let mut cfg = base_cfg();
        cfg.energy = Some(EnergyModel { charge_s: 3.0, run_s: 1.0 });
        cfg.horizon_s = 8.0;
        let mut link = LinkTable::ideal();
        link.insert(Protocol::WifiN, 10.0, 0.3);
        let snr = |u: f64, _p: Protocol| 5.0 + 20.0 * u;
        let plain = run(&cfg, &link, snr);
        let mut tr = MacTrace::new(cfg.tags, cfg.carriers.len(), 1.0, Detectors::default());
        let traced = run_with(&cfg, &link, snr, &mut tr);
        tr.finish();
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"), "observer must be passive");
        // The trace's window aggregates cover the same run.
        let offered: u64 = tr.windows.iter().map(|w| w.offered as u64).sum();
        assert_eq!(offered, traced.offered);
        let delivered: u64 = tr.windows.iter().map(|w| w.delivered_total()).sum();
        assert_eq!(delivered, traced.delivered);
        let packets: u64 =
            tr.windows.iter().flat_map(|w| w.packets.iter()).map(|&x| x as u64).sum();
        assert_eq!(packets, traced.carrier_packets);
        let starved: u64 = tr.windows.iter().map(|w| w.starved as u64).sum();
        assert_eq!(starved, traced.starved);
        assert!(!tr.log.is_empty());
        assert_eq!(tr.log_dropped, 0);
    }

    #[test]
    fn ideal_link_low_load_delivers_nearly_everything() {
        let mut cfg = base_cfg();
        cfg.tags = 10;
        let r = run(&cfg, &LinkTable::ideal(), |_, _| 20.0);
        assert!(r.delivery_rate() > 0.9, "delivery {} of {:?}", r.delivery_rate(), r);
        assert_eq!(r.channel_losses, 0, "ideal link cannot lose to the channel");
        assert!(r.jain_fairness() > 0.95, "uniform tags should be fair: {}", r.jain_fairness());
    }

    #[test]
    fn lossy_link_forces_retries() {
        let mut link = LinkTable::ideal();
        // Make BLE terrible so BestGoodput concentrates on WifiN and
        // channel losses appear when diversity falls back.
        for p in Protocol::ALL {
            link.insert(p, -40.0, 0.6);
            link.insert(p, 40.0, 0.6);
        }
        let cfg = base_cfg();
        let r = run(&cfg, &link, |_, _| 20.0);
        assert!(r.channel_losses > 0, "{r:?}");
        assert!(r.delivery_rate() < 1.0);
        assert!(r.attempts > r.offered - r.starved, "retries imply attempts > first tries");
    }

    #[test]
    fn contention_rises_with_fleet_size() {
        let mut cfg = base_cfg();
        cfg.policy = MacPolicy::FixedAssignment;
        cfg.tags = 8;
        let sparse = run(&cfg, &LinkTable::ideal(), |_, _| 20.0);
        cfg.tags = 400;
        cfg.readings = Arrivals::Periodic { rate: 8.0 };
        let dense = run(&cfg, &LinkTable::ideal(), |_, _| 20.0);
        assert!(
            dense.collision_rate() > sparse.collision_rate(),
            "dense {} <= sparse {}",
            dense.collision_rate(),
            sparse.collision_rate()
        );
    }

    #[test]
    fn energy_model_starves_readings() {
        let mut cfg = base_cfg();
        // Charge 3 s, run 1 s: ~75% of readings land unpowered.
        cfg.energy = Some(EnergyModel { charge_s: 3.0, run_s: 1.0 });
        cfg.horizon_s = 8.0;
        let r = run(&cfg, &LinkTable::ideal(), |_, _| 20.0);
        assert!(r.starved > 0, "{r:?}");
        let rate = r.starvation_rate();
        assert!(rate > 0.4 && rate < 0.95, "starvation {rate}");
        let mains =
            run(&FleetConfig { energy: None, ..cfg.clone() }, &LinkTable::ideal(), |_, _| 20.0);
        assert_eq!(mains.starved, 0);
        assert!(mains.delivered > r.delivered);
    }

    #[test]
    fn result_is_independent_of_thread_count() {
        let cfg = FleetConfig { tags: 120, horizon_s: 2.0, ..base_cfg() };
        let mut link = LinkTable::ideal();
        link.insert(Protocol::WifiN, 10.0, 0.3);
        let snr = |u: f64, _p: Protocol| 5.0 + 20.0 * u;
        msc_par::set_threads(1);
        let a = run(&cfg, &link, snr);
        msc_par::set_threads(7);
        let b = run(&cfg, &link, snr);
        msc_par::set_threads(0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "byte-identical across widths");
    }

    /// The materialize-then-sort event order the streaming merge must
    /// reproduce: every carrier timeline drawn up front from its derived
    /// seed, then one stable sort on `(time, kind, id)`.
    fn materialized(
        carriers: &[Stream],
        seed: u64,
        horizon: f64,
        readings: &[(f64, u32)],
    ) -> Vec<Event> {
        let mut events: Vec<Event> = Vec::new();
        for (c, s) in carriers.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, CELL_CARRIER, c as u64));
            let mut t = 0.0;
            while let Some(next) = s.arrivals.next_after(&mut rng, t, horizon) {
                events.push(Event::Carrier { time: next, carrier: c as u16 });
                t = next;
            }
        }
        events.extend(readings.iter().map(|&(time, tag)| Event::Reading { time, tag }));
        let key = |e: &Event| match *e {
            Event::Reading { time, tag } => (time, 0u8, tag),
            Event::Carrier { time, carrier } => (time, 1, carrier as u32),
        };
        events.sort_by(|a, b| {
            let (ta, ka, ia) = key(a);
            let (tb, kb, ib) = key(b);
            ta.total_cmp(&tb).then(ka.cmp(&kb)).then(ia.cmp(&ib))
        });
        events
    }

    fn stream(protocol: Protocol, arrivals: Arrivals) -> Stream {
        Stream { protocol, arrivals, airtime_s: 1e-4, tag_bits_per_packet: 8 }
    }

    #[test]
    fn streaming_merge_matches_materialized_sort() {
        let horizon = 2.0;
        let carriers = vec![
            // Two identical periodic carriers tie at every instant.
            stream(Protocol::WifiN, Arrivals::Periodic { rate: 100.0 }),
            stream(Protocol::Ble, Arrivals::Poisson { rate: 700.0 }),
            stream(Protocol::WifiB, Arrivals::Periodic { rate: 100.0 }),
            // First arrival at 10 s, past the horizon: an empty stream.
            stream(Protocol::ZigBee, Arrivals::Periodic { rate: 0.1 }),
        ];
        // Readings for tags 3 and 1 land exactly on the periodic carrier
        // instants (same arithmetic), tag 2 reads at its own rate.
        let mut readings = Vec::new();
        let on_instants = Arrivals::Periodic { rate: 100.0 };
        let mut rng = StdRng::seed_from_u64(0);
        for tag in [3u32, 1] {
            let mut t = 0.0;
            while let Some(next) = on_instants.next_after(&mut rng, t, horizon) {
                readings.push((next, tag));
                t = next;
            }
        }
        let mut t = 0.0;
        while let Some(next) = (Arrivals::Poisson { rate: 40.0 }).next_after(&mut rng, t, horizon) {
            readings.push((next, 2));
            t = next;
        }
        readings.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let want = materialized(&carriers, 42, horizon, &readings);
        let got: Vec<Event> = EventMerge::new(&carriers, 42, horizon, readings).collect();
        assert_eq!(got.len(), want.len());
        assert_eq!(got, want);
        // The forced ties really happened: a reading and both periodic
        // carriers share an instant.
        let ties = got
            .windows(3)
            .filter(|w| match (w[0], w[1], w[2]) {
                (
                    Event::Reading { time: a, .. },
                    Event::Carrier { time: b, carrier: 0 },
                    Event::Carrier { time: c, carrier: 2 },
                ) => a == b && b == c,
                _ => false,
            })
            .count();
        assert!(ties > 10, "expected reading/carrier/carrier ties, found {ties}");
        assert!(!got.iter().any(|e| matches!(e, Event::Carrier { carrier: 3, .. })));
    }

    #[test]
    fn sampling_records_attempts() {
        let mut cfg = base_cfg();
        cfg.sample_every = 50;
        let r = run(&cfg, &LinkTable::ideal(), |_, _| 20.0);
        assert!(!r.samples.is_empty());
        assert!(r.samples.len() as u64 <= r.attempts / 50 + 1);
        for s in &r.samples {
            assert!(s.place_u >= 0.0 && s.place_u < 1.0);
            assert!((s.tag as usize) < cfg.tags);
        }
    }

    #[test]
    fn energy_model_round_structure() {
        let e = EnergyModel { charge_s: 2.0, run_s: 1.0 };
        assert!(!e.powered(0.5, 0.0), "charging first");
        assert!(e.powered(2.5, 0.0), "then running");
        assert!(!e.powered(3.5, 0.0), "next round charges again");
        assert!(e.powered(0.5, 1.0), "phase shifts the round");
        let outdoor = EnergyModel::from_harvest(Light::paper_outdoor(), 279.5e-3);
        assert!((outdoor.charge_s - 0.78).abs() < 0.02, "charge {}", outdoor.charge_s);
        assert!(outdoor.run_s > 0.17, "run {}", outdoor.run_s);
    }
}
