//! The end-to-end packet pipeline: overlay carrier → downlink → tag →
//! uplink → single commodity receiver, with the link budget turning
//! geometry into SNR.

use msc_channel::awgn;
use msc_channel::{Fading, LinkBudget};
use msc_core::overlay::{params_for, Mode};
use msc_core::tag::payload_start_seconds;
use msc_core::TagOverlayModulator;
use msc_dsp::units::db_to_lin;
use msc_dsp::{Complex64, IqBuf};
use msc_obs::flight;
use msc_obs::metrics::{self, buckets};
use msc_phy::bits::random_bits;
use msc_phy::fastsync::SyncHint;
use msc_phy::protocol::Protocol;
use msc_rx::{
    BleOverlayLink, OverlayDecoded, WifiBOverlayLink, WifiNOverlayLink, ZigBeeOverlayLink,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Excitation transmit power, dBm. All excitations run at 30 dBm EIRP:
/// the paper amplifies its carriers (§2.2.1 states 30 dBm explicitly for
/// WiFi), and the tag's 0.8 m downlink *requires* roughly this level —
/// at a commodity radio's +4 dBm the rectifier would see ~−29 dBm,
/// far below the −13 dBm tag sensitivity, and identification could
/// never work.
pub fn tx_power_dbm(_p: Protocol) -> f64 {
    30.0
}

/// Per-protocol receiver implementation margin, dB — the gap between our
/// idealized software demodulators and the commodity ICs of the paper's
/// testbed (CFO/drift over long narrowband packets, AGC and quantization
/// losses, tag switching harmonics in-channel). Calibrated against the
/// paper's Fig. 13a LoS maximal ranges (28 m WiFi, 22 m ZigBee, 20 m
/// BLE): fig13 gives 28 m WiFi and 20 m ZigBee and BLE, ZigBee one 2 m
/// distance step short; EXPERIMENTS.md documents the calibration.
pub fn rx_impl_margin_db(p: Protocol) -> f64 {
    let base = match p {
        Protocol::WifiN => 1.0,
        Protocol::WifiB => 8.0,
        Protocol::ZigBee => 15.5,
        Protocol::Ble => 14.0,
    };
    base + perturb_margin_db()
}

/// Test hook: `MSC_PERTURB_MARGIN_DB=<dB>` adds a uniform offset to
/// every protocol's implementation margin, shifting effective SNR and
/// thus PER/BER operating points. Exists so `paper diff` CI smoke tests
/// can inject a real (non-seed) regression; the knob value feeds the
/// archive's config hash, so perturbed runs never collide with clean
/// ones. Read once per process.
pub fn perturb_margin_db() -> f64 {
    static PERTURB: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *PERTURB.get_or_init(|| {
        std::env::var("MSC_PERTURB_MARGIN_DB")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    })
}

/// A geometric deployment for one measurement.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    /// Excitation source → tag distance (paper: 0.8 m).
    pub d_tx_tag: f64,
    /// Tag → receiver distance (the swept axis of Figs. 13/14).
    pub d_tag_rx: f64,
    /// Link-budget parameters (deployment, occlusion, gains).
    pub budget: LinkBudget,
    /// Small-scale fading on the uplink.
    pub fading: Fading,
}

impl Geometry {
    /// The paper's LoS deployment at a given receiver distance.
    pub fn los(d_tag_rx: f64) -> Self {
        Geometry { d_tx_tag: 0.8, d_tag_rx, budget: LinkBudget::paper_los(), fading: Fading::los() }
    }

    /// The paper's NLoS deployment.
    pub fn nlos(d_tag_rx: f64) -> Self {
        Geometry {
            d_tx_tag: 0.8,
            d_tag_rx,
            budget: LinkBudget::paper_nlos(),
            fading: Fading::nlos(),
        }
    }

    /// Effective uplink SNR for a protocol (its TX power, bandwidth, and
    /// receiver implementation margin).
    pub fn uplink_snr_db(&self, p: Protocol) -> f64 {
        let mut b = self.budget;
        b.tx_power_dbm = tx_power_dbm(p);
        b.backscatter_snr_db(self.d_tx_tag, self.d_tag_rx, p.bandwidth_hz()) - rx_impl_margin_db(p)
    }

    /// Backscattered RSSI at the receiver, dBm.
    pub fn rssi_dbm(&self, p: Protocol) -> f64 {
        let mut b = self.budget;
        b.tx_power_dbm = tx_power_dbm(p);
        b.backscattered_rx_dbm(self.d_tx_tag, self.d_tag_rx)
    }

    /// Incident power at the tag, dBm (identification operating point).
    pub fn incident_dbm(&self, p: Protocol) -> f64 {
        let mut b = self.budget;
        b.tx_power_dbm = tx_power_dbm(p);
        b.incident_at_tag_dbm(self.d_tx_tag)
    }
}

/// Channel impairments applied on the uplink.
#[derive(Clone, Copy, Debug)]
pub struct Impairments {
    /// Target SNR in dB.
    pub snr_db: f64,
    /// Small-scale fading.
    pub fading: Fading,
    /// Carrier frequency offset between the excitation source and the
    /// receiver, Hz (crystal mismatch; ±20 ppm at 2.44 GHz ≈ ±48.8 kHz).
    pub cfo_hz: f64,
}

impl Impairments {
    /// Noise + fading only.
    pub fn snr(snr_db: f64, fading: Fading) -> Self {
        Impairments { snr_db, fading, cfo_hz: 0.0 }
    }

    /// Adds a carrier frequency offset.
    pub fn with_cfo(mut self, cfo_hz: f64) -> Self {
        self.cfo_hz = cfo_hz;
        self
    }

    /// The one uplink channel, in place on one trial's samples: unit
    /// power, carrier offset, one flat fading gain, then AWGN at the
    /// target SNR. Fading and noise draw from `rng` in that order, the
    /// gain before any noise. After [`IqBuf::mean_power`] one fused pass
    /// ([`awgn::scale_fade_add_noise`]) scales by `1/√p` (skipped when
    /// `p ≤ 0`), multiplies by the gain (skipped when it is exactly 1)
    /// and adds the noise; a carrier offset keeps the scale and its
    /// rotation as passes of their own, and fuses only the gain and the
    /// noise. Allocation-free.
    pub fn apply<R: Rng>(&self, rng: &mut R, wave: &mut IqBuf) {
        let p = wave.mean_power();
        let mut k = (p > 0.0).then(|| 1.0 / p.sqrt());
        if self.cfo_hz != 0.0 {
            if let Some(k) = k.take() {
                wave.scale(k);
            }
            wave.freq_shift_in_place(self.cfo_hz);
        }
        let h = self.fading.sample(rng);
        // Signal mean power |h|^2; noise set against the *average* signal
        // power so fading dips genuinely hurt.
        let noise = 1.0 / db_to_lin(self.snr_db);
        awgn::scale_fade_add_noise(rng, wave, k, (h != Complex64::ONE).then_some(h), noise);
    }
}

/// Applies the uplink channel to a copy of `wave`: unit-power
/// normalization, fading gain, then AWGN at the target SNR, inside a
/// `channel` profiler frame (a frame only, no metric).
pub fn apply_uplink<R: Rng>(rng: &mut R, wave: &IqBuf, snr_db: f64, fading: Fading) -> IqBuf {
    let _frame = msc_obs::profile::scope("channel");
    let mut out = wave.clone();
    Impairments::snr(snr_db, fading).apply(rng, &mut out);
    out
}

/// One protocol's overlay link endpoints, type-erased for the runner.
pub enum AnyLink {
    /// 802.11b link.
    WifiB(WifiBOverlayLink),
    /// 802.11n link.
    WifiN(WifiNOverlayLink),
    /// BLE link.
    Ble(BleOverlayLink),
    /// ZigBee link. Boxed: the prebuilt modem's pulse/chip tables make
    /// this variant an order of magnitude larger than the others.
    ZigBee(Box<ZigBeeOverlayLink>),
}

impl AnyLink {
    /// Builds the link for a protocol/mode.
    pub fn new(p: Protocol, mode: Mode) -> Self {
        let params = params_for(p, mode);
        match p {
            Protocol::WifiB => AnyLink::WifiB(WifiBOverlayLink::new(params)),
            Protocol::WifiN => AnyLink::WifiN(WifiNOverlayLink::new(params)),
            Protocol::Ble => AnyLink::Ble(BleOverlayLink::new(params)),
            Protocol::ZigBee => AnyLink::ZigBee(Box::new(ZigBeeOverlayLink::new(params))),
        }
    }

    /// The protocol this link runs.
    pub fn protocol(&self) -> Protocol {
        match self {
            AnyLink::WifiB(_) => Protocol::WifiB,
            AnyLink::WifiN(_) => Protocol::WifiN,
            AnyLink::Ble(_) => Protocol::Ble,
            AnyLink::ZigBee(_) => Protocol::ZigBee,
        }
    }

    /// Draws `n_productive` random productive units (bits; 4-bit
    /// symbols for ZigBee) from `rng`.
    pub fn draw_productive<R: Rng>(&self, rng: &mut R, n_productive: usize) -> Vec<u8> {
        match self {
            AnyLink::ZigBee(_) => (0..n_productive).map(|_| rng.gen_range(0..16)).collect(),
            _ => (0..n_productive).map(|_| rng.gen_range(0..=1)).collect(),
        }
    }

    /// Synthesizes the clean overlay carrier for a given payload — a
    /// pure function of `(self, productive)`.
    pub fn carrier_for(&self, productive: &[u8]) -> IqBuf {
        match self {
            AnyLink::WifiB(l) => l.make_carrier(productive),
            AnyLink::WifiN(l) => l.make_carrier(productive),
            AnyLink::Ble(l) => l.make_carrier(productive),
            AnyLink::ZigBee(l) => l.make_carrier(productive),
        }
    }

    /// Generates an overlay carrier for `n_productive` random
    /// productive units (bits; 4-bit symbols for ZigBee).
    pub fn make_carrier<R: Rng>(&self, rng: &mut R, n_productive: usize) -> (Vec<u8>, IqBuf) {
        let p = self.draw_productive(rng, n_productive);
        let c = self.carrier_for(&p);
        (p, c)
    }

    /// Tag capacity for `n_productive` units.
    pub fn tag_capacity(&self, n_productive: usize) -> usize {
        match self {
            AnyLink::WifiB(l) => l.tag_capacity(n_productive),
            AnyLink::WifiN(l) => l.tag_capacity(n_productive),
            AnyLink::Ble(l) => l.tag_capacity(n_productive),
            AnyLink::ZigBee(l) => l.tag_capacity(n_productive),
        }
    }

    /// Decodes a received waveform.
    pub fn decode(
        &self,
        rx: &IqBuf,
        n_productive: usize,
    ) -> Result<OverlayDecoded, msc_phy::protocol::DecodeError> {
        match self {
            AnyLink::WifiB(l) => l.decode(rx),
            AnyLink::WifiN(l) => l.decode(rx),
            AnyLink::Ble(l) => l.decode(rx, n_productive),
            AnyLink::ZigBee(l) => l.decode(rx),
        }
    }
}

/// What one trial hands the engine besides its value: the verdict and
/// scores of its flight record. `Default` is the stand-in for trials a
/// replay skips; it never reaches a report a caller keeps.
pub trait Outcome: Send + Default {
    /// `"ok"`, or the failure reason the flight recorder dumps under.
    fn verdict(&self) -> &'static str;
    /// The named scores a replay must reproduce, in order.
    fn scores(&self) -> Vec<(&'static str, f64)>;
}

/// Outcome of one end-to-end packet.
#[derive(Clone, Debug, Default)]
pub struct PacketOutcome {
    /// Whether the receiver decoded the frame at all.
    pub decoded: bool,
    /// Tag-bit errors / tag bits.
    pub tag_errors: usize,
    /// Tag bits carried.
    pub tag_bits: usize,
    /// Productive-unit errors (bit or symbol, protocol-dependent).
    pub productive_errors: usize,
    /// Productive units carried.
    pub productive_units: usize,
}

impl PacketOutcome {
    /// Tag BER of this packet (1.0 when undecoded).
    pub fn tag_ber(&self) -> f64 {
        if !self.decoded {
            return 1.0;
        }
        if self.tag_bits == 0 {
            0.0
        } else {
            self.tag_errors as f64 / self.tag_bits as f64
        }
    }
}

impl Outcome for PacketOutcome {
    fn verdict(&self) -> &'static str {
        if self.decoded {
            "ok"
        } else {
            "decode_fail"
        }
    }

    fn scores(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("tag_errors", self.tag_errors as f64),
            ("tag_bits", self.tag_bits as f64),
            ("productive_errors", self.productive_errors as f64),
            ("productive_units", self.productive_units as f64),
            ("tag_ber", self.tag_ber()),
        ]
    }
}

/// A packet plus a runner's own tally of it (what the packet's fields
/// cannot hold); the packet names the verdict and scores.
impl<X: Send + Default> Outcome for (PacketOutcome, X) {
    fn verdict(&self) -> &'static str {
        self.0.verdict()
    }

    fn scores(&self) -> Vec<(&'static str, f64)> {
        self.0.scores()
    }
}

/// Summed `(tag_errors, tag_bits)` over outcomes, decoded or not.
pub(crate) fn tag_totals(outs: &[PacketOutcome]) -> (usize, usize) {
    outs.iter().fold((0, 0), |(e, b), o| (e + o.tag_errors, b + o.tag_bits))
}

/// Tag BER over outcomes, decoded or not ([`tag_totals`]).
pub(crate) fn tag_ber(outs: &[PacketOutcome]) -> f64 {
    let (errors, bits) = tag_totals(outs);
    errors as f64 / bits.max(1) as f64
}

/// A cell's decoded packets, totalled in trial order.
#[derive(Default)]
pub(crate) struct Delivery {
    /// Packets decoded.
    pub(crate) delivered: usize,
    /// Their tag-bit errors.
    pub(crate) tag_err: usize,
    /// Their tag bits.
    pub(crate) tag_bits: usize,
    /// Summed fraction of each one's productive units received intact.
    pub(crate) prod_ok: f64,
    /// Summed fraction of each one's tag bits received intact.
    pub(crate) tag_ok: f64,
}

impl Delivery {
    /// Totals `outs`.
    pub(crate) fn of(outs: &[PacketOutcome]) -> Self {
        let mut d = Delivery::default();
        for o in outs.iter().filter(|o| o.decoded) {
            d.delivered += 1;
            d.tag_err += o.tag_errors;
            d.tag_bits += o.tag_bits;
            d.prod_ok += 1.0 - o.productive_errors as f64 / o.productive_units.max(1) as f64;
            d.tag_ok += 1.0 - o.tag_errors as f64 / o.tag_bits.max(1) as f64;
        }
        d
    }
}

/// One overlay packet of `n_productive` units and a full load of tag
/// bits (drawn from `rng` in that order), modulated by `tag`, pushed in
/// place through `imp` and decoded. Only tag bits are scored, position
/// by position (`!=`); an undecoded packet errs on every one. Carrier
/// synthesis, modulation and the channel run in `carrier`, `modulate`
/// and `channel` profiler frames (frames only, no metric).
pub fn tag_packet<R: Rng>(
    rng: &mut R,
    link: &AnyLink,
    tag: &TagOverlayModulator,
    n_productive: usize,
    imp: Impairments,
) -> PacketOutcome {
    let (_, carrier) = {
        let _frame = msc_obs::profile::scope("carrier");
        link.make_carrier(rng, n_productive)
    };
    let tag_bits = random_bits(rng, link.tag_capacity(n_productive));
    let start = (payload_start_seconds(link.protocol()) * carrier.rate().as_hz()).round() as usize;
    let mut rx = {
        let _frame = msc_obs::profile::scope("modulate");
        tag.modulate(&carrier, start, &tag_bits)
    };
    {
        let _frame = msc_obs::profile::scope("channel");
        imp.apply(rng, &mut rx);
    }
    // The frame sits at the buffer head, but `imp` may carry a carrier
    // offset: hint the window only, and keep the receiver's estimator.
    let hint = SyncHint { radius: FAST_SYNC_RADIUS, cfo_free: false };
    let decoded = msc_phy::fastsync::with_hint(hint, || link.decode(&rx, n_productive)).ok();
    let tag_errors = decoded.as_ref().map_or(tag_bits.len(), |d| mismatches(&tag_bits, &d.tag));
    let tag_bits = tag_bits.len();
    PacketOutcome { decoded: decoded.is_some(), tag_errors, tag_bits, ..PacketOutcome::default() }
}

/// One identification trial of a waveform the runner built itself (a
/// collision): the blind matcher's decision and the protocol a correct
/// decision names.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Identified {
    /// The matcher's decision.
    pub(crate) id: Option<Protocol>,
    /// The protocol it should name.
    pub(crate) truth: Option<Protocol>,
}

impl Outcome for Identified {
    fn verdict(&self) -> &'static str {
        if self.id == self.truth {
            "ok"
        } else {
            "id_miss"
        }
    }

    fn scores(&self) -> Vec<(&'static str, f64)> {
        vec![("identified", self.id.map_or(-1.0, |p| p.index() as f64))]
    }
}

/// Bit errors of `got` against `sent`: differing low bits plus every
/// sent bit `got` is missing.
pub(crate) fn bit_errors(sent: &[u8], got: &[u8]) -> usize {
    sent.iter().zip(got).filter(|(a, b)| (*a ^ *b) & 1 == 1).count()
        + sent.len().saturating_sub(got.len())
}

/// Positions where `got` differs from `sent`, over their common length.
pub(crate) fn mismatches(sent: &[u8], got: &[u8]) -> usize {
    sent.iter().zip(got).filter(|(a, b)| a != b).count()
}

/// Unit (bit or symbol) errors of `got` against `sent`: mismatches plus
/// every sent unit `got` is missing.
pub(crate) fn unit_errors(sent: &[u8], got: &[u8]) -> usize {
    mismatches(sent, got) + sent.len().saturating_sub(got.len())
}

/// Runs one overlay packet end to end through a geometry.
pub fn run_packet<R: Rng>(
    rng: &mut R,
    link: &AnyLink,
    geometry: &Geometry,
    mode: Mode,
    n_productive: usize,
) -> PacketOutcome {
    let p = link.protocol();
    let label = p.label();
    let (productive, carrier) =
        metrics::time_stage(label, "carrier", || link.make_carrier(rng, n_productive));
    let tag_bits = random_bits(rng, link.tag_capacity(n_productive));

    // Tag side: modulation (identification is exercised separately; at
    // 0.8 m incident power identification succeeds essentially always —
    // Fig. 5/7/8 quantify it).
    let modulator = TagOverlayModulator::new(p, params_for(p, mode));
    let start = (payload_start_seconds(p) * carrier.rate().as_hz()).round() as usize;
    let mut rx =
        metrics::time_stage(label, "modulate", || modulator.modulate(&carrier, start, &tag_bits));

    // Uplink channel, in place; `time_stage` opens the `channel` frame.
    let snr = geometry.uplink_snr_db(p);
    metrics::hist_observe("pipe.snr_db", label, "uplink", snr, buckets::SNR_DB);
    metrics::time_stage(label, "channel", || {
        Impairments::snr(snr, geometry.fading).apply(rng, &mut rx)
    });

    metrics::counter_add("pipe.packets", label, "", 1);
    let result = metrics::time_stage(label, "decode", || link.decode(&rx, n_productive));
    let outcome = score_decode(label, result, &tag_bits, &productive);
    metrics::hist_observe("pipe.tag_ber", label, "", outcome.tag_ber(), buckets::BER);
    outcome
}

/// Scores one decode result against the transmitted streams. A failed
/// decode counts every carried bit/unit as errored.
fn score_decode(
    label: &'static str,
    result: Result<OverlayDecoded, msc_phy::protocol::DecodeError>,
    tag_bits: &[u8],
    productive: &[u8],
) -> PacketOutcome {
    let d = result.ok();
    if d.is_none() {
        metrics::counter_add("pipe.decode_fail", label, "", 1);
    }
    PacketOutcome {
        decoded: d.is_some(),
        tag_errors: d.as_ref().map_or(tag_bits.len(), |d| bit_errors(tag_bits, &d.tag)),
        tag_bits: tag_bits.len(),
        productive_errors: d.map_or(productive.len(), |d| unit_errors(productive, &d.productive)),
        productive_units: productive.len(),
    }
}

thread_local! {
    /// Per-thread [`TrialBatch`] pool: lane buffers, channel RNGs, and
    /// the flat tag-bit store are reused batch to batch, so the
    /// steady-state materialize + channel loop performs zero
    /// allocations (asserted by `alloc_guard`).
    static BATCH_POOL: std::cell::RefCell<TrialBatch> = std::cell::RefCell::new(TrialBatch::default());
}

/// Sync-window radius (samples) handed to demodulators via
/// [`msc_phy::fastsync`] by [`TrialBatch::decode_into`] and
/// [`tag_packet`]: the engine's trial buffers carry the frame at offset
/// zero with at most a couple of samples of matched-filter ambiguity
/// under noise.
const FAST_SYNC_RADIUS: usize = 8;

/// One experiment cell's shared excitation: the per-cell payload and
/// its clean overlay carrier, synthesized once per cell and read by
/// reference from every trial and worker thread of the cell. Per-trial
/// randomness — tag bits, fading, noise, CFO — is applied downstream
/// onto pooled lane buffers, never onto the carrier.
pub struct CellExcitation {
    /// The cell's productive payload units (bits; 4-bit symbols for
    /// ZigBee), drawn once from the cell's payload RNG stream.
    pub productive: Vec<u8>,
    /// Tag bits one carrier of this payload can carry.
    pub tag_capacity: usize,
    /// Sample index where the payload (tag-modulatable) region starts.
    pub payload_start: usize,
    /// The clean overlay carrier.
    pub carrier: IqBuf,
}

impl CellExcitation {
    /// Draws the cell payload from `(seed, cell, u64::MAX)`, a stream
    /// disjoint from every per-trial stream, and synthesizes its
    /// carrier.
    pub fn prepare(link: &AnyLink, n_productive: usize, seed: u64, cell: &str) -> Self {
        let cellh = msc_par::hash_label(cell);
        let mut rng = StdRng::seed_from_u64(msc_par::derive_seed(seed, cellh, u64::MAX));
        let productive = link.draw_productive(&mut rng, n_productive);
        let protocol = link.protocol();
        let carrier =
            metrics::time_stage(protocol.label(), "carrier", || link.carrier_for(&productive));
        let payload_start =
            (payload_start_seconds(protocol) * carrier.rate().as_hz()).round() as usize;
        CellExcitation {
            tag_capacity: link.tag_capacity(n_productive),
            payload_start,
            productive,
            carrier,
        }
    }
}

/// The engine's view of one running cell: what a trial needs to seed
/// its RNG and to file its flight record.
pub struct TrialCell<'s> {
    label: &'s str,
    ordinal: u64,
    seed: u64,
    cellh: u64,
    protocol: &'static str,
    /// The experiment id, read once per cell while the recorder is armed.
    experiment: String,
}

impl<'s> TrialCell<'s> {
    /// Cell `label` of `protocol` (`""` for none) with flight ordinal
    /// `ordinal` ([`msc_obs::flight::reserve_cells`]) under base seed
    /// `seed`.
    pub fn new(label: &'s str, protocol: &'static str, ordinal: u64, seed: u64) -> Self {
        let experiment =
            if flight::armed() { metrics::current_experiment() } else { String::new() };
        let cellh = msc_par::hash_label(label);
        TrialCell { label, ordinal, seed, cellh, protocol, experiment }
    }

    /// Trial `i`'s RNG, seeded by `derive_seed(seed, hash_label(label), i)`.
    pub fn rng(&self, i: u64) -> StdRng {
        StdRng::seed_from_u64(msc_par::derive_seed(self.seed, self.cellh, i))
    }

    /// Runs trial `i`'s `body` as one flight record: while the recorder
    /// is armed, the record opens before `body` (so its notes land in
    /// it) and closes with the outcome's scores and verdict.
    pub fn record<O: Outcome>(&self, i: u64, body: impl FnOnce() -> O) -> O {
        let armed = flight::armed();
        if armed {
            let (cell, seed, proto) = (self.label, self.seed, self.protocol);
            let derived = msc_par::derive_seed(seed, self.cellh, i);
            flight::begin_trial(&self.experiment, cell, self.ordinal, i, seed, derived, proto);
        }
        let outcome = body();
        if armed {
            for (name, value) in outcome.scores() {
                flight::note_score(name, value);
            }
            flight::end_trial(outcome.verdict());
        }
        outcome
    }
}

/// A cell's Monte-Carlo trial as a value [`run_cells`] runs. The engine
/// owns everything around the trial: cell ordinals, replay skipping,
/// the wave plan, fan-out, events and progress; a trial only prepares
/// its cell and runs a chunk of trial indices, each through
/// [`TrialCell::record`].
pub trait Trial: Sync {
    /// What one trial yields.
    type Outcome: Outcome;
    /// Per-cell state built once, before the cell's trials run.
    type Prepared: Sync;
    /// Trials per pool item when a cell fans its trials out.
    const WIDTH: usize;
    /// Whether [`run_cells`] runs the cells one after another, each
    /// fanning its trials out, instead of fanning the cells out: a
    /// runner's few cells of uneven cost would leave the pool waiting on
    /// the slowest.
    const CELLS_IN_TURN: bool;
    /// Protocol label for events and flight records (`""` for none).
    fn protocol(&self) -> &'static str;
    /// Builds the cell's shared state.
    fn prepare(&self, cell: &TrialCell) -> Self::Prepared;
    /// The outcomes of trials `ids`, in order.
    fn run(&self, prep: &Self::Prepared, cell: &TrialCell, ids: Range<u64>) -> Vec<Self::Outcome>;
}

/// The batched [`Trial`]: overlay packets of one link through one
/// geometry, run in [`TrialBatch`] chunks on the cell's
/// [`CellExcitation`].
pub struct Overlay<'a> {
    /// The protocol's overlay link.
    pub link: &'a AnyLink,
    /// The deployment the packets cross.
    pub geometry: Geometry,
    /// Overlay mode.
    pub mode: Mode,
    /// Productive units per carrier.
    pub n_productive: usize,
    /// Common-random-number group label: cells passing the same group
    /// share per-index channel RNG streams, so sweep-axis neighbors
    /// (Fig. 13's distance grid) see the same channel luck while their
    /// tag payloads stay cell-specific. Typically the cell label minus
    /// the sweep axis.
    pub crn_group: Option<&'a str>,
}

impl<'a> Overlay<'a> {
    /// Mode-1 packets of 16 productive units, with no CRN group.
    pub fn new(link: &'a AnyLink, geometry: Geometry) -> Self {
        Overlay { link, geometry, mode: Mode::Mode1, n_productive: 16, crn_group: None }
    }
}

impl Trial for Overlay<'_> {
    type Outcome = PacketOutcome;
    type Prepared = CellExcitation;
    /// Lanes per [`TrialBatch`]. Lanes are independent, so every width
    /// gives identical outcomes.
    const WIDTH: usize = 8;
    const CELLS_IN_TURN: bool = false;

    fn protocol(&self) -> &'static str {
        self.link.protocol().label()
    }

    fn prepare(&self, cell: &TrialCell) -> CellExcitation {
        CellExcitation::prepare(self.link, self.n_productive, cell.seed, cell.label)
    }

    fn run(&self, exc: &CellExcitation, cell: &TrialCell, ids: Range<u64>) -> Vec<PacketOutcome> {
        let (lo, len) = (ids.start, (ids.end - ids.start) as usize);
        let p = self.link.protocol();
        let (label, snr) = (p.label(), self.geometry.uplink_snr_db(p));
        let crn = self.crn_group.map(msc_par::hash_label);
        let imp = Impairments::snr(snr, self.geometry.fading);
        let modulator = TagOverlayModulator::new(p, params_for(p, self.mode));
        BATCH_POOL.with(|tb| {
            let mut tb = tb.borrow_mut();
            let materialize = || tb.materialize(&modulator, exc, cell, crn, lo, len);
            metrics::time_stage(label, "modulate", materialize);
            metrics::time_stage(label, "channel", || tb.apply_channel(imp));
            let mut out = Vec::with_capacity(len);
            tb.decode_into(self.link, exc, snr, cell, &mut out);
            out
        })
    }
}

/// The per-trial [`Trial`]: trial `i` runs a runner's own body on its
/// own RNG ([`TrialCell::rng`]), inside a `cell.trial` profiler frame.
pub struct Each<F> {
    protocol: &'static str,
    body: F,
}

impl<O: Outcome, F: Fn(&mut StdRng, u64) -> O + Sync> Trial for Each<F> {
    type Outcome = O;
    type Prepared = ();
    const WIDTH: usize = 1;
    const CELLS_IN_TURN: bool = true;

    fn protocol(&self) -> &'static str {
        self.protocol
    }

    fn prepare(&self, _: &TrialCell) {}

    fn run(&self, _: &(), cell: &TrialCell, ids: Range<u64>) -> Vec<O> {
        ids.map(|i| {
            let _frame = msc_obs::profile::scope("cell.trial");
            cell.record(i, || (self.body)(&mut cell.rng(i), i))
        })
        .collect()
    }
}

/// A structure-of-arrays batch of Monte-Carlo trials from one cell:
/// `count` IQ lanes modulated from the shared excitation, lane `l` of a
/// batch starting at trial `start` on trial `start + l`'s own RNG
/// ([`TrialCell::rng`]), so outcomes are a function of
/// `(seed, cell, index)` at any batch width and thread count. The
/// channel draws continue the lane's tag-bit stream, or come from the
/// CRN group's stream for the same index ([`Overlay::crn_group`]). A
/// default batch is empty; its buffers grow on first use.
#[derive(Default)]
pub struct TrialBatch {
    lanes: Vec<IqBuf>,
    ch_rngs: Vec<StdRng>,
    tag_bits: Vec<u8>,
    cap: usize,
    count: usize,
    start: u64,
}

impl TrialBatch {
    /// Number of trials currently materialized.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Fills `count` lanes with trials `start..start + count`: per-lane
    /// RNG init, tag-bit draws, and overlay modulation of the shared
    /// excitation into the pooled lane buffers. Allocation-free once
    /// the pool has warmed up to this batch width and waveform length.
    pub fn materialize(
        &mut self,
        modulator: &TagOverlayModulator,
        exc: &CellExcitation,
        cell: &TrialCell,
        crn_hash: Option<u64>,
        start: u64,
        count: usize,
    ) {
        self.cap = exc.tag_capacity;
        self.count = count;
        self.start = start;
        self.tag_bits.clear();
        self.ch_rngs.clear();
        while self.lanes.len() < count {
            self.lanes.push(IqBuf::empty(exc.carrier.rate()));
        }
        for l in 0..count {
            let i = start + l as u64;
            let mut rng = cell.rng(i);
            self.tag_bits.extend((0..self.cap).map(|_| rng.gen_range(0..=1u8)));
            let ch = match crn_hash {
                Some(h) => StdRng::seed_from_u64(msc_par::derive_seed(cell.seed, h, i)),
                None => rng,
            };
            self.ch_rngs.push(ch);
            let bits = &self.tag_bits[l * self.cap..(l + 1) * self.cap];
            modulator.modulate_into(&exc.carrier, exc.payload_start, bits, &mut self.lanes[l]);
        }
    }

    /// Pushes every lane through the uplink channel
    /// ([`Impairments::apply`], each lane on its own channel RNG).
    /// Allocation-free.
    pub fn apply_channel(&mut self, imp: Impairments) {
        for (rng, lane) in self.ch_rngs.iter_mut().zip(&mut self.lanes[..self.count]) {
            imp.apply(rng, lane);
        }
    }

    /// Decodes and scores every lane (under the engine's sync-window
    /// hint), appending outcomes to `out` in trial order. Each lane is
    /// one [`TrialCell::record`]: its `decode` stage timing, the five
    /// outcome scores and an `ok` / `decode_fail` verdict. `modulate`
    /// and `channel` run once per batch, so no trial record carries
    /// them.
    pub fn decode_into(
        &self,
        link: &AnyLink,
        exc: &CellExcitation,
        snr_db: f64,
        cell: &TrialCell,
        out: &mut Vec<PacketOutcome>,
    ) {
        let label = link.protocol().label();
        for l in 0..self.count {
            out.push(cell.record(self.start + l as u64, || {
                metrics::hist_observe("pipe.snr_db", label, "uplink", snr_db, buckets::SNR_DB);
                metrics::counter_add("pipe.packets", label, "", 1);
                let result = metrics::time_stage(label, "decode", || {
                    let hint = SyncHint { radius: FAST_SYNC_RADIUS, cfo_free: true };
                    msc_phy::fastsync::with_hint(hint, || {
                        link.decode(&self.lanes[l], exc.productive.len())
                    })
                });
                let bits = &self.tag_bits[l * self.cap..(l + 1) * self.cap];
                let outcome = score_decode(label, result, bits, &exc.productive);
                metrics::hist_observe("pipe.tag_ber", label, "", outcome.tag_ber(), buckets::BER);
                msc_obs::note!("pipe.packet protocol={label} snr_db={snr_db:.1}");
                outcome
            }));
        }
    }
}

/// Adaptive early-stopping policy for a [`CellSpec`].
pub struct StopPolicy<'a, O = PacketOutcome> {
    /// Minimum trials before the first stop check (the experiment's
    /// `min_n` from the registry).
    pub floor: usize,
    /// Returns `true` when the outcomes so far decide the cell's
    /// verdict beyond doubt (both directions must be covered — e.g.
    /// "confidently in range or confidently out").
    pub decide: &'a (dyn Fn(&[O]) -> bool + Sync),
}

/// Trial-count checkpoints for the early-stopping wave schedule: start
/// at `floor`, grow ×1.5, finish at `n`. Thread-count independent by
/// construction, so stopped cells report identically at any
/// parallelism (`n = 12, floor = 6` → `6, 9, 12`).
fn checkpoints(n: usize, floor: usize) -> Vec<usize> {
    let mut plan = Vec::new();
    let mut c = floor.clamp(1, n.max(1));
    loop {
        plan.push(c);
        if c >= n {
            break;
        }
        c = (((c as f64) * 1.5).round() as usize).max(c + 1).min(n);
    }
    plan
}

/// One experiment cell for [`run_cells`]: `n` Monte-Carlo trials of
/// `trial`, seeded by `(seed, label, index)`.
pub struct CellSpec<'a, T: Trial = Overlay<'a>> {
    /// What each trial runs.
    pub trial: T,
    /// Trials requested.
    pub n: usize,
    /// The run's base seed.
    pub seed: u64,
    /// Cell label (e.g. `"los/ZigBee/8"`); keeps seeds disjoint across
    /// cells that share a numeric seed.
    pub label: String,
    /// Adaptive early stopping, if the runner has a verdict to settle.
    pub stop: Option<StopPolicy<'a, T::Outcome>>,
}

impl<'a, T: Trial> CellSpec<'a, T> {
    /// A cell of `n` trials with a fixed budget.
    pub fn new(trial: T, label: String, n: usize, seed: u64) -> Self {
        CellSpec { trial, n, seed, label, stop: None }
    }
}

impl<O: Outcome, F: Fn(&mut StdRng, u64) -> O + Sync> CellSpec<'_, Each<F>> {
    /// A cell of `n` runs of `body(rng, i)`, one per trial index, with
    /// a fixed budget. `protocol` labels its events and flight records.
    pub fn each(label: String, n: usize, seed: u64, protocol: &'static str, body: F) -> Self {
        CellSpec::new(Each { protocol, body }, label, n, seed)
    }
}

/// Runs every cell and returns each cell's outcomes, in cell order. This
/// is the one Monte-Carlo loop.
///
/// The cells fan out across the `msc-par` pool, one cell per item, or
/// run one after another ([`Trial::CELLS_IN_TURN`]). Each cell prepares
/// once ([`Trial::prepare`]), then runs its trials in chunks of
/// [`Trial::WIDTH`] along its wave plan. A cell's chunks are pool calls
/// too; inside a fanned-out cell they run inline on its worker
/// (`msc-par` rule 3), while a lone cell fans its chunks out.
/// Every trial draws from its own RNG seeded by `(seed, cell, index)`,
/// so the outcomes — and every downstream table — are bit-identical at
/// any thread count, including 1.
///
/// Each cell buffers its `cell_start` / `early_stop` / `cell_done`
/// events, and this call emits the buffers in cell order after the
/// fan-out, so the event stream is thread-count invariant too. Flight
/// cell ordinals are reserved here, in cell order, for the same reason.
pub fn run_cells<T: Trial>(cells: &[CellSpec<T>]) -> Vec<Vec<T::Outcome>> {
    let first = flight::reserve_cells(cells.len() as u64);
    let run = |k: usize| run_cell(&cells[k], first + k as u64, T::WIDTH);
    let runs = if T::CELLS_IN_TURN {
        (0..cells.len()).map(run).collect()
    } else {
        msc_par::par_map_indexed(cells.len(), run)
    };
    runs.into_iter()
        .map(|(outs, events)| {
            for (kind, det) in events {
                msc_obs::events::emit(kind, &det, "");
            }
            outs
        })
        .collect()
}

/// Runs `n` independent Monte-Carlo packets of one experiment cell: a
/// one-cell [`run_cells`], so its batches fan out across the pool.
/// `cell` names the experiment cell (e.g. `"fig13/zigbee/8m"`).
pub fn run_packets(
    link: &AnyLink,
    geometry: &Geometry,
    mode: Mode,
    n_productive: usize,
    n: usize,
    seed: u64,
    cell: &str,
) -> Vec<PacketOutcome> {
    let trial = Overlay { mode, n_productive, ..Overlay::new(link, *geometry) };
    run_cells(&[CellSpec::new(trial, cell.to_string(), n, seed)]).remove(0)
}

/// A cell's buffered events: `(kind, deterministic fields)` in emission
/// order.
type CellEvents = Vec<(&'static str, String)>;

/// Runs one cell (flight ordinal `ordinal`) in chunks of `width`
/// trials, returning its outcomes and its buffered events.
fn run_cell<T: Trial>(
    spec: &CellSpec<T>,
    ordinal: u64,
    width: usize,
) -> (Vec<T::Outcome>, CellEvents) {
    let CellSpec { trial, n, seed, .. } = spec;
    let (n, cell) = (*n, spec.label.as_str());
    let tc = TrialCell::new(cell, trial.protocol(), ordinal, *seed);
    // Appends trials `start..start + count`, run in pooled chunks.
    let run = |prep: &T::Prepared, start: u64, count: usize, outs: &mut Vec<T::Outcome>| {
        let chunks = msc_par::par_map_indexed(count.div_ceil(width), |b| {
            let lo = start + (b * width) as u64;
            trial.run(prep, &tc, lo..lo + width.min(count - b * width) as u64)
        });
        outs.extend(chunks.into_iter().flatten());
    };
    // Replay fast path: when a flight-recorder replay targets one
    // trial, only that trial runs — per-trial seed derivation means it
    // depends on no other — and the flight recorder captures it. The
    // placeholders only feed a report the replay machinery discards.
    if let Some((target_cell, ti)) = flight::replay_target() {
        if target_cell == cell {
            run(&trial.prepare(&tc), ti, 1, &mut Vec::new());
        }
        return ((0..n).map(|_| T::Outcome::default()).collect(), Vec::new());
    }

    let events_on = msc_obs::events::enabled();
    let mut events = CellEvents::new();
    let mut event = |kind: &'static str, trials: Option<usize>| {
        if events_on {
            let (cell, proto) = (msc_obs::export::json_escape(cell), trial.protocol());
            let det = match trials {
                None => format!("\"cell\":\"{cell}\",\"proto\":\"{proto}\",\"requested\":{n}"),
                Some(t) => format!("\"cell\":\"{cell}\",\"trials\":{t},\"requested\":{n}"),
            };
            events.push((kind, det));
        }
    };
    event("cell_start", None);
    let prep = {
        let _prep = msc_obs::profile::scope("cell.prepare");
        trial.prepare(&tc)
    };
    let stopping = spec.stop.as_ref().filter(|_| crate::engine::early_stop());
    let plan = stopping.map_or_else(|| vec![n], |p| checkpoints(n, p.floor));
    let mut outs: Vec<T::Outcome> = Vec::with_capacity(n);
    for target in plan {
        run(&prep, outs.len() as u64, target - outs.len(), &mut outs);
        if stopping.is_some_and(|p| outs.len() < n && (p.decide)(&outs)) {
            event("early_stop", Some(outs.len()));
            break;
        }
    }
    msc_obs::progress::add_cell();
    msc_obs::progress::add_trials(outs.len() as u64);
    event("cell_done", Some(outs.len()));
    (outs, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_cells_get_distinct_payloads() {
        let link = AnyLink::new(Protocol::WifiB, Mode::Mode1);
        let a = CellExcitation::prepare(&link, 16, 42, "exc-test/cell-a");
        let b = CellExcitation::prepare(&link, 16, 42, "exc-test/cell-b");
        assert_ne!(a.productive, b.productive, "payload streams must be disjoint across cells");
    }

    #[test]
    fn all_excitations_amplified_to_30dbm() {
        for p in Protocol::ALL {
            assert_eq!(tx_power_dbm(p), 30.0);
        }
        // Narrowband protocols carry the larger implementation margins.
        assert!(rx_impl_margin_db(Protocol::ZigBee) > rx_impl_margin_db(Protocol::WifiN));
    }

    #[test]
    fn snr_decreases_with_distance() {
        let near = Geometry::los(2.0);
        let far = Geometry::los(20.0);
        for p in Protocol::ALL {
            assert!(near.uplink_snr_db(p) > far.uplink_snr_db(p));
        }
    }

    #[test]
    fn close_range_packets_decode_cleanly() {
        let mut rng = StdRng::seed_from_u64(191);
        let geo = Geometry::los(2.0);
        for p in [Protocol::WifiB, Protocol::Ble] {
            let link = AnyLink::new(p, Mode::Mode1);
            let out = run_packet(&mut rng, &link, &geo, Mode::Mode1, 16);
            assert!(out.decoded, "{p} must decode at 2 m");
            assert_eq!(out.tag_errors, 0, "{p} tag errors at 2 m");
            assert_eq!(out.productive_errors, 0, "{p} productive errors at 2 m");
        }
    }

    #[test]
    fn absurd_range_packets_fail() {
        let mut rng = StdRng::seed_from_u64(192);
        let geo = Geometry::los(500.0);
        let link = AnyLink::new(Protocol::Ble, Mode::Mode1);
        let mut failures = 0;
        for _ in 0..5 {
            let out = run_packet(&mut rng, &link, &geo, Mode::Mode1, 8);
            if !out.decoded || out.tag_ber() > 0.2 {
                failures += 1;
            }
        }
        assert!(failures >= 4, "500 m should be far beyond range");
    }

    #[test]
    fn checkpoint_schedule_grows_and_is_thread_independent() {
        assert_eq!(checkpoints(12, 6), vec![6, 9, 12]);
        assert_eq!(checkpoints(60, 6), vec![6, 9, 14, 21, 32, 48, 60]);
        assert_eq!(checkpoints(6, 6), vec![6]);
        assert_eq!(checkpoints(4, 6), vec![4]); // floor clamps to n
        assert_eq!(checkpoints(2, 1), vec![1, 2]);
    }

    #[test]
    fn batched_outcomes_are_invariant_to_batch_width() {
        // Every width runs the same per-lane streams; only the
        // chunking differs.
        let link = AnyLink::new(Protocol::Ble, Mode::Mode1);
        let geo = Geometry::los(12.0);
        let runs: Vec<Vec<PacketOutcome>> = [1usize, 2, 4, 8]
            .iter()
            .map(|&w| {
                let trial = Overlay {
                    link: &link,
                    geometry: geo,
                    mode: Mode::Mode1,
                    n_productive: 16,
                    crn_group: None,
                };
                let label = "test/batch-width".to_string();
                let spec = CellSpec { trial, n: 11, seed: 7, label, stop: None };
                run_cell(&spec, 0, w).0
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].len(), other.len());
            for (a, b) in runs[0].iter().zip(other) {
                assert_eq!(a.decoded, b.decoded);
                assert_eq!(a.tag_errors, b.tag_errors);
                assert_eq!(a.tag_bits, b.tag_bits);
                assert_eq!(a.productive_errors, b.productive_errors);
            }
        }
    }

    #[test]
    fn apply_uplink_sets_snr() {
        let mut rng = StdRng::seed_from_u64(193);
        let wave =
            IqBuf::new(vec![msc_dsp::Complex64::ONE; 20_000], msc_dsp::SampleRate::mhz(20.0));
        let out = apply_uplink(&mut rng, &wave, 20.0, Fading::None);
        // Signal power ~1, noise ~0.01 → total ~1.01.
        assert!((out.mean_power() - 1.01).abs() < 0.01, "power {}", out.mean_power());
    }

    #[test]
    fn one_lane_uplink_matches_trial_batch_lane_bitwise() {
        // The per-trial runners' uplink and the engine's batch lanes run
        // one channel: with equal RNG seeds they must agree bit for bit
        // and leave each RNG at the same position.
        let wave = IqBuf::new(
            (0..1003)
                .map(|k| msc_dsp::Complex64::cis(k as f64 * 0.37).scale(1.0 + (k % 7) as f64))
                .collect(),
            msc_dsp::SampleRate::mhz(8.0),
        );
        let seed = |l: u64| StdRng::seed_from_u64(0x5eed + l);
        for fading in [Fading::None, Fading::los(), Fading::nlos(), Fading::Rayleigh] {
            for cfo in [0.0, -31_250.0] {
                let imp = Impairments::snr(3.0, fading).with_cfo(cfo);
                let mut tb = TrialBatch {
                    lanes: vec![wave.clone(); 3],
                    ch_rngs: (0..3).map(seed).collect(),
                    count: 3,
                    ..TrialBatch::default()
                };
                tb.apply_channel(imp);
                for (l, (lane, batch_rng)) in tb.lanes.iter().zip(&mut tb.ch_rngs).enumerate() {
                    let mut rng = seed(l as u64);
                    // abl-cfo applies its offset in place; the rest copy.
                    let one = if cfo == 0.0 {
                        apply_uplink(&mut rng, &wave, 3.0, fading)
                    } else {
                        let mut one = wave.clone();
                        imp.apply(&mut rng, &mut one);
                        one
                    };
                    let bits = |b: &IqBuf| -> Vec<(u64, u64)> {
                        b.samples().iter().map(|s| (s.re.to_bits(), s.im.to_bits())).collect()
                    };
                    assert!(bits(&one) == bits(lane), "{fading:?} cfo {cfo} lane {l}");
                    assert_eq!(rng.gen::<u64>(), batch_rng.gen::<u64>(), "{fading:?} lane {l}");
                }
            }
        }
    }
}
