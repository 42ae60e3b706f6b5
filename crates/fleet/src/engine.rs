//! The deployment-scale fleet engine: an event-driven simulation of
//! hundreds-to-thousands of backscatter tags sharing concurrent
//! excitation carriers over a wall-clock horizon.
//!
//! Three phases, arranged so the result is byte-identical at any worker
//! count (the [`msc_par`] contract):
//!
//! 1. **Carrier streams** — each carrier owns an RNG seeded by
//!    `derive_seed(seed, CELL_CARRIER, carrier)` and draws its packet
//!    arrivals from its [`Arrivals`] process a fixed block ahead of the
//!    merge. Nothing is materialized: a carrier's timeline costs one
//!    block of pending arrivals, not one `f64` per packet.
//! 2. **Tag setup** — one [`par_map_indexed`] item per tag draws its
//!    placement, energy phase, and sensor-reading times, seeded by
//!    `derive_seed(seed, CELL_TAG, tag)`, and precomputes its
//!    per-carrier loss probabilities and goodput ranking from the
//!    calibrated [`LinkTable`]. The readings of
//!    all tags are gathered into one `(time, tag)`-sorted vector.
//! 3. **MAC resolution** — a *sequential* sweep over a k-way merge of
//!    the readings and the carrier streams resolves contention:
//!    readings arrive, tags pick carriers through the [`MacPolicy`],
//!    back off in carrier-packet slots, collide when two tags modulate
//!    the same packet, and retry up to the [`Backoff`] budget. The merge
//!    order is total (time, then readings before carrier packets, then
//!    the lower tag or carrier index), and the sweep consumes one RNG
//!    whose draw order depends only on that order, so it too is
//!    independent of `--threads`.
//!
//! Scenarios that differ only in policy, energy model, backoff, queue
//! or payload share phases 1 and 2. [`run_many`] draws them once per
//! call and hands the merged stream, in blocks of a few thousand
//! events, to one sweep per scenario; [`run`] and [`run_with`] are its
//! one-scenario case, so there is one sweep loop.
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

/// Arrivals a carrier stream draws ahead of the merge, from its own RNG.
const ARRIVAL_BLOCK: usize = 64;

/// Merged events drawn per block: every sweep of a [`run_many`] call
/// consumes a block before the next one is drawn.
const EVENT_BLOCK: usize = 4096;

/// Per-tag state computed once per [`run_many`] call in phase 2 and
/// shared by its sweeps.
struct TagSetup {
    place_u: f64,
    /// The energy-phase draw in `[0, 1)`; each sweep scales it by its
    /// own round length.
    energy_u: f64,
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

/// One carrier's arrival stream, drawn [`ARRIVAL_BLOCK`] arrivals ahead
/// of the merge. The stream owns its RNG, so drawing ahead yields the
/// same sequence as drawing one arrival at a time.
struct CarrierStream {
    arrivals: Arrivals,
    rng: StdRng,
    /// Drawn arrivals, `ahead[pos]` the head. An exhausted stream ends
    /// in `+∞`, which the merge never picks.
    ahead: Vec<f64>,
    pos: usize,
}

impl CarrierStream {
    /// Draws up to [`ARRIVAL_BLOCK`] arrivals after `t`.
    fn refill(&mut self, mut t: f64, horizon: f64) {
        self.ahead.clear();
        self.pos = 0;
        while self.ahead.len() < ARRIVAL_BLOCK {
            match self.arrivals.next_after(&mut self.rng, t, horizon) {
                Some(next) => {
                    self.ahead.push(next);
                    t = next;
                }
                None => {
                    self.ahead.push(f64::INFINITY);
                    return;
                }
            }
        }
    }
}

/// K-way merge of the sorted readings and the carrier streams, in
/// [`Event`] order.
struct EventMerge {
    readings: Vec<(f64, u32)>,
    next_reading: usize,
    carriers: Vec<CarrierStream>,
    /// Each carrier's head arrival, `+∞` once exhausted.
    heads: Vec<f64>,
    horizon: f64,
}

impl EventMerge {
    /// `readings` must be sorted by `(time, tag)`.
    fn new(carriers: &[Stream], seed: u64, horizon: f64, readings: Vec<(f64, u32)>) -> Self {
        let carriers: Vec<CarrierStream> = carriers
            .iter()
            .enumerate()
            .map(|(c, s)| {
                let rng = StdRng::seed_from_u64(derive_seed(seed, CELL_CARRIER, c as u64));
                let mut stream = CarrierStream {
                    arrivals: s.arrivals,
                    rng,
                    ahead: Vec::with_capacity(ARRIVAL_BLOCK),
                    pos: 0,
                };
                stream.refill(0.0, horizon);
                stream
            })
            .collect();
        let heads = carriers.iter().map(|s| s.ahead[0]).collect();
        EventMerge { readings, next_reading: 0, carriers, heads, horizon }
    }
}

impl Iterator for EventMerge {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        // Earliest carrier head, without a data-dependent branch:
        // exhausted carriers read `+∞`, and the strict `<` keeps the
        // lower index on ties.
        let (mut time, mut c) = (f64::INFINITY, usize::MAX);
        for (i, &head) in self.heads.iter().enumerate() {
            let earlier = head < time;
            time = if earlier { head } else { time };
            c = if earlier { i } else { c };
        }
        if let Some(&(t, tag)) = self.readings.get(self.next_reading) {
            if t <= time {
                self.next_reading += 1;
                return Some(Event::Reading { time: t, tag });
            }
        }
        // `c` is out of range once every carrier is exhausted.
        let s = self.carriers.get_mut(c)?;
        s.pos += 1;
        if s.pos == s.ahead.len() {
            s.refill(time, self.horizon);
        }
        self.heads[c] = s.ahead[s.pos];
        Some(Event::Carrier { time, carrier: c as u16 })
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
    let mut out = run_many(std::slice::from_ref(cfg), link, snr_of, std::slice::from_mut(obs));
    out.pop().expect("one result per config")
}

/// Runs several scenarios that share one carrier timeline: their
/// `tags`, `horizon_s`, `carriers`, `readings` and `seed` must be equal
/// (policy, energy model, backoff, queue and payload may differ). Tag
/// setup and the merged event stream are drawn once; each scenario's
/// sweep (its own MAC RNG and `obs[i]`) then consumes every block of
/// the stream in order, so result `i` is byte-identical to
/// `run_with(&cfgs[i], …, &mut obs[i])`.
pub fn run_many<F, O>(
    cfgs: &[FleetConfig],
    link: &LinkTable,
    snr_of: F,
    obs: &mut [O],
) -> Vec<FleetResult>
where
    F: Fn(f64, Protocol) -> f64 + Sync,
    O: MacObserver,
{
    assert_eq!(cfgs.len(), obs.len(), "run_many needs one observer per config");
    let Some(cfg) = cfgs.first() else {
        return Vec::new();
    };
    assert!(
        cfgs.iter().all(|c| c.tags == cfg.tags
            && c.horizon_s == cfg.horizon_s
            && c.carriers == cfg.carriers
            && c.readings == cfg.readings
            && c.seed == cfg.seed),
        "run_many configs must share tags, horizon_s, carriers, readings and seed"
    );
    assert!(!cfg.carriers.is_empty(), "fleet needs at least one carrier");
    assert!(cfg.tags > 0, "fleet needs at least one tag");
    let n_carriers = cfg.carriers.len();
    assert!(n_carriers <= u16::MAX as usize, "carrier index is u16");
    assert!(cfg.tags <= u32::MAX as usize, "tag index is u32");

    // Phase 2: per-tag placement, energy phase, readings, and ranking.
    // (Phase 1, the carrier streams, draws inside the merge.)
    let mean_interval = 1.0 / cfg.readings.mean_rate().max(1e-12);
    let mut tags: Vec<TagSetup> = par_map_indexed(cfg.tags, |g| {
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, CELL_TAG, g as u64));
        let place_u: f64 = rng.gen_range(0.0..1.0);
        // Always consume the draw so adding/removing the energy model
        // does not shift the tag's reading phases.
        let energy_u: f64 = rng.gen_range(0.0..1.0);
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
        TagSetup { place_u, energy_u, readings, ranked, p_loss }
    });

    // Gather every tag's readings into one `(time, tag)`-ordered list;
    // the keys are unique, so an unstable sort gives the same order.
    let mut readings: Vec<(f64, u32)> =
        Vec::with_capacity(tags.iter().map(|t| t.readings.len()).sum());
    for (g, tag) in tags.iter_mut().enumerate() {
        readings.extend(std::mem::take(&mut tag.readings).into_iter().map(|t| (t, g as u32)));
    }
    readings.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut events = EventMerge::new(&cfg.carriers, cfg.seed, cfg.horizon_s, readings);

    // Phase 3: one sequential MAC sweep per scenario over each block.
    let _sweep = msc_obs::profile::scope("fleet.sweep");
    let mut sweeps: Vec<Sweep<'_, O>> =
        cfgs.iter().zip(obs).map(|(cfg, obs)| Sweep::new(cfg, &tags, obs)).collect();
    let mut block: Vec<Event> = Vec::with_capacity(EVENT_BLOCK);
    loop {
        block.clear();
        block.extend(events.by_ref().take(EVENT_BLOCK));
        if block.is_empty() {
            break;
        }
        for sweep in &mut sweeps {
            for &ev in &block {
                sweep.step(ev);
            }
        }
    }
    sweeps.into_iter().map(Sweep::into_result).collect()
}

/// One scenario's phase-3 state: its own MAC RNG, slot rings, tag
/// state, tallies and observer over the shared [`TagSetup`]s.
struct Sweep<'a, O> {
    cfg: &'a FleetConfig,
    tags: &'a [TagSetup],
    obs: &'a mut O,
    rng: StdRng,
    /// Future-slot buckets, `ring_len` per carrier: bucket
    /// `c * ring_len + (k & mask)` holds the tags transmitting on
    /// carrier `c`'s k-th packet.
    rings: Vec<Vec<u32>>,
    ring_len: usize,
    mask: u64,
    /// Packets already emitted per carrier (next packet gets index k).
    emitted: Vec<u64>,
    state: Vec<TagState>,
    /// Each tag's round offset under this scenario's energy model.
    energy_phase: Vec<f64>,
    drained: Vec<u32>,
    out: FleetResult,
}

impl<'a, O: MacObserver> Sweep<'a, O> {
    fn new(cfg: &'a FleetConfig, tags: &'a [TagSetup], obs: &'a mut O) -> Self {
        let n_carriers = cfg.carriers.len();
        // Backoff draws stay below cw_max, so cw_max + 2 buckets cannot
        // wrap onto a still-pending slot; a power of two indexes by mask.
        let ring_len = (cfg.backoff.cw_max as usize + 2).next_power_of_two();
        let energy_period = cfg.energy.map(|e| e.period_s()).unwrap_or(1.0);
        Sweep {
            cfg,
            tags,
            obs,
            rng: StdRng::seed_from_u64(derive_seed(cfg.seed, CELL_MAC, 0)),
            rings: vec![Vec::new(); n_carriers * ring_len],
            ring_len,
            mask: ring_len as u64 - 1,
            emitted: vec![0; n_carriers],
            state: vec![TagState::default(); cfg.tags],
            energy_phase: tags.iter().map(|t| t.energy_u * energy_period).collect(),
            drained: Vec::new(),
            out: FleetResult {
                per_carrier: vec![CarrierTally::default(); n_carriers],
                per_tag_offered: vec![0; cfg.tags],
                per_tag_delivered: vec![0; cfg.tags],
                horizon_s: cfg.horizon_s,
                ..FleetResult::default()
            },
        }
    }

    fn step(&mut self, ev: Event) {
        match ev {
            Event::Reading { time, tag } => self.reading(time, tag),
            Event::Carrier { time, carrier } => self.packet(time, carrier),
        }
    }

    fn reading(&mut self, time: f64, tag: u32) {
        self.out.offered += 1;
        self.out.per_tag_offered[tag as usize] += 1;
        self.obs.on_event(MacEvent::Reading { t: time, tag });
        if let Some(e) = self.cfg.energy {
            if !e.powered(time, self.energy_phase[tag as usize]) {
                self.out.starved += 1;
                self.obs.on_event(MacEvent::Starved { t: time, tag });
                return;
            }
        }
        let st = &mut self.state[tag as usize];
        if st.busy {
            if (st.queued as usize) < self.cfg.queue_cap {
                st.queued += 1;
                self.obs.on_event(MacEvent::Enqueue { t: time, tag, depth: st.queued });
            } else {
                self.out.queue_drops += 1;
                self.obs.on_event(MacEvent::QueueDrop { t: time, tag });
            }
            return;
        }
        st.busy = true;
        st.attempt = 0;
        st.reading_no += 1;
        self.schedule(tag, time);
    }

    fn packet(&mut self, time: f64, carrier: u16) {
        let c = carrier as usize;
        let k = self.emitted[c];
        self.emitted[c] += 1;
        let bucket = &mut self.rings[c * self.ring_len + (k & self.mask) as usize];
        if bucket.is_empty() {
            self.obs.on_event(MacEvent::Packet { t: time, carrier, mods: 0 });
            return;
        }
        let mut drained = std::mem::take(&mut self.drained);
        drained.append(bucket);
        let n = drained.len() as u64;
        self.obs.on_event(MacEvent::Packet { t: time, carrier, mods: n as u32 });
        self.out.attempts += n;
        self.out.per_carrier[c].attempts += n;
        if let [g] = drained[..] {
            self.obs.on_event(MacEvent::Attempt {
                t: time,
                tag: g,
                carrier,
                attempt: self.state[g as usize].attempt,
            });
            let setup = &self.tags[g as usize];
            // A tag that hit its charge interval mid-backoff cannot
            // modulate: the attempt fails like a channel loss and
            // re-enters backoff.
            let powered = self
                .cfg
                .energy
                .map(|e| e.powered(time, self.energy_phase[g as usize]))
                .unwrap_or(true);
            let lost = !powered || self.rng.gen_bool(setup.p_loss[c].clamp(0.0, 1.0));
            if self.cfg.sample_every > 0
                && powered
                && self.out.attempts.is_multiple_of(self.cfg.sample_every as u64)
            {
                self.out.samples.push(AttemptSample {
                    protocol: self.cfg.carriers[c].protocol,
                    tag: g,
                    place_u: setup.place_u,
                    success: !lost,
                });
            }
            if lost {
                self.out.per_carrier[c].channel_losses += 1;
                self.obs.on_event(MacEvent::ChannelLoss { t: time, tag: g, carrier });
                self.retry(g, time);
            } else {
                self.out.per_tag_delivered[g as usize] += 1;
                self.out.per_carrier[c].delivered += 1;
                self.obs.on_event(MacEvent::Delivery { t: time, tag: g, carrier });
                self.complete(g, time);
            }
        } else {
            // ≥ 2 tags modulated the same carrier packet: their overlay
            // waveforms interfere and all lose.
            let tally = &mut self.out.per_carrier[c];
            tally.collision_slots += 1;
            tally.collided_attempts += n;
            for &g in &drained {
                let attempt = self.state[g as usize].attempt;
                self.obs.on_event(MacEvent::Attempt { t: time, tag: g, carrier, attempt });
            }
            self.obs.on_event(MacEvent::Collision { t: time, carrier, tags: n as u32 });
            for &g in &drained {
                self.retry(g, time);
            }
        }
        drained.clear();
        self.drained = drained;
    }

    /// Schedules tag `g`'s current attempt: policy pick + backoff draw.
    fn schedule(&mut self, g: u32, t: f64) {
        let st = self.state[g as usize];
        let ranked = &self.tags[g as usize].ranked;
        let c = self.cfg.policy.pick(g as usize, st.reading_no, st.attempt, ranked);
        let b = self.cfg.backoff.draw(&mut self.rng, st.attempt) as u64;
        let slot = self.emitted[c] + 1 + b;
        self.obs.on_event(MacEvent::Backoff {
            t,
            tag: g,
            carrier: c as u16,
            attempt: st.attempt,
            slot,
        });
        self.rings[c * self.ring_len + (slot & self.mask) as usize].push(g);
    }

    /// Advances tag `g` past a failed attempt: rescheduled with a
    /// doubled window, or dropped once the retry budget is spent.
    fn retry(&mut self, g: u32, t: f64) {
        self.state[g as usize].attempt += 1;
        if self.state[g as usize].attempt > self.cfg.backoff.max_retries {
            self.out.retry_drops += 1;
            self.obs.on_event(MacEvent::RetryDrop { t, tag: g });
            self.complete(g, t);
        } else {
            self.schedule(g, t);
        }
    }

    /// Completes tag `g`'s current reading (delivered or abandoned) and
    /// starts the next queued one, if any.
    fn complete(&mut self, g: u32, t: f64) {
        let st = &mut self.state[g as usize];
        if st.queued > 0 {
            st.queued -= 1;
            st.attempt = 0;
            st.reading_no += 1;
            self.schedule(g, t);
        } else {
            st.busy = false;
        }
    }

    /// Derives the packet counts and run totals from the emitted counts
    /// and the per-carrier tallies: every packet that was not idle
    /// carried one lone attempt or was one collision slot.
    fn into_result(self) -> FleetResult {
        let mut out = self.out;
        for (t, &packets) in out.per_carrier.iter_mut().zip(&self.emitted) {
            t.packets = packets;
            t.idle = packets - (t.attempts - t.collided_attempts + t.collision_slots);
            out.carrier_packets += t.packets;
            out.idle_packets += t.idle;
            out.delivered += t.delivered;
            out.collided_attempts += t.collided_attempts;
            out.collision_slots += t.collision_slots;
            out.channel_losses += t.channel_losses;
        }
        out.delivered_bits = out.delivered * self.cfg.reading_bits as u64;
        out
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

    /// Three policies × {mains, harvest-limited} over one timeline whose
    /// carriers include a duty-cycled one and one that never emits
    /// inside the horizon.
    fn group_cfgs() -> Vec<FleetConfig> {
        let mut carriers = carriers();
        carriers.push(stream(
            Protocol::WifiB,
            Arrivals::DutyCycled { rate: 1500.0, on_s: 0.3, period_s: 0.7, phase_s: 0.1 },
        ));
        carriers.push(stream(Protocol::ZigBee, Arrivals::Periodic { rate: 0.1 }));
        let harvest = EnergyModel { charge_s: 1.5, run_s: 1.0 };
        MacPolicy::ALL
            .iter()
            .flat_map(|&policy| {
                [None, Some(harvest)].map(|energy| FleetConfig {
                    tags: 60,
                    horizon_s: 6.0,
                    carriers: carriers.clone(),
                    policy,
                    energy,
                    ..base_cfg()
                })
            })
            .collect()
    }

    #[test]
    fn run_many_equals_separate_runs() {
        use crate::obs::{Detectors, MacTrace};
        let cfgs = group_cfgs();
        let mut link = LinkTable::ideal();
        link.insert(Protocol::WifiN, 10.0, 0.3);
        let snr = |u: f64, _p: Protocol| 5.0 + 20.0 * u;
        let detectors = Detectors { starve_s: 2.0, ..Detectors::default() };
        let new_trace =
            |cfg: &FleetConfig| MacTrace::new(cfg.tags, cfg.carriers.len(), 1.0, detectors);
        let mut traces: Vec<MacTrace> = cfgs.iter().map(new_trace).collect();
        let many = run_many(&cfgs, &link, snr, &mut traces);
        // The shared stream spans several event blocks and ends inside
        // one, so refills and a partial last block are both crossed.
        let events = many[0].offered + many[0].carrier_packets;
        let block = EVENT_BLOCK as u64;
        assert!(events > 4 * block && events % block != 0, "{events} events");
        assert!(many[0].per_carrier[2].packets > 0, "the duty-cycled carrier emits");
        assert_eq!(many[0].per_carrier[3].packets, 0, "the last carrier never emits");
        assert!(many.iter().any(|r| r.starved > 0), "the harvest model starves readings");
        assert!(traces.iter().any(|t| !t.incidents.is_empty()), "a detector fires");
        for ((cfg, r), tr) in cfgs.iter().zip(&many).zip(&mut traces) {
            tr.finish();
            assert_eq!(format!("{r:?}"), format!("{:?}", run(cfg, &link, snr)), "{cfg:?}");
            let mut alone = new_trace(cfg);
            run_with(cfg, &link, snr, &mut alone);
            alone.finish();
            assert_eq!(format!("{:?}", tr.windows), format!("{:?}", alone.windows));
            assert_eq!(tr.log, alone.log);
            assert_eq!(format!("{:?}", tr.incidents), format!("{:?}", alone.incidents));
        }
    }

    #[test]
    #[should_panic(expected = "must share")]
    fn run_many_rejects_configs_on_different_timelines() {
        let cfgs = [base_cfg(), FleetConfig { seed: 43, ..base_cfg() }];
        run_many(&cfgs, &LinkTable::ideal(), |_, _| 20.0, &mut [NoopObserver, NoopObserver]);
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
