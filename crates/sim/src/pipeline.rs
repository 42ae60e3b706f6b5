//! The end-to-end packet pipeline: overlay carrier → downlink → tag →
//! uplink → single commodity receiver, with the link budget turning
//! geometry into SNR.

use msc_channel::awgn::add_noise;
use msc_channel::{Fading, LinkBudget};
use msc_core::overlay::{params_for, Mode};
use msc_core::tag::payload_start_seconds;
use msc_core::TagOverlayModulator;
use msc_dsp::units::db_to_lin;
use msc_dsp::IqBuf;
use msc_obs::metrics::{self, buckets};
use msc_phy::protocol::Protocol;
use msc_rx::{
    BleOverlayLink, OverlayDecoded, WifiBOverlayLink, WifiNOverlayLink, ZigBeeOverlayLink,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
/// losses, tag switching harmonics in-channel). Calibrated so the LoS
/// maximal ranges land at the paper's Fig. 13a values (28 m WiFi,
/// 22 m ZigBee, 20 m BLE); EXPERIMENTS.md documents the calibration.
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
    /// target SNR, all on the [`msc_dsp::simd`] kernels. Fading and
    /// noise draw from `rng` in that order. Allocation-free.
    pub fn apply<R: Rng>(&self, rng: &mut R, wave: &mut IqBuf) {
        let p = wave.mean_power();
        if p > 0.0 {
            wave.scale(1.0 / p.sqrt());
        }
        if self.cfo_hz != 0.0 {
            wave.freq_shift_in_place(self.cfo_hz);
        }
        self.fading.apply_flat(rng, wave.samples_mut());
        // Signal mean power |h|^2; noise set against the *average* signal
        // power so fading dips genuinely hurt.
        add_noise(rng, wave, 1.0 / db_to_lin(self.snr_db));
    }
}

/// Applies the uplink channel: unit-power normalization, fading gain,
/// then AWGN at the target SNR.
pub fn apply_uplink<R: Rng>(rng: &mut R, wave: &IqBuf, snr_db: f64, fading: Fading) -> IqBuf {
    apply_uplink_impaired(rng, wave, Impairments::snr(snr_db, fading))
}

/// [`Impairments::apply`] on a copy of `wave`, inside a `channel`
/// profiler frame that names the runners' own trial loops' channel
/// time (a frame only, no metric).
pub fn apply_uplink_impaired<R: Rng>(rng: &mut R, wave: &IqBuf, imp: Impairments) -> IqBuf {
    let _frame = msc_obs::profile::scope("channel");
    let mut out = wave.clone();
    imp.apply(rng, &mut out);
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
    /// pure function of `(self, productive)`, which is what makes the
    /// waveform cache sound.
    pub fn carrier_for(&self, productive: &[u8]) -> IqBuf {
        match self {
            AnyLink::WifiB(l) => l.make_carrier(productive),
            AnyLink::WifiN(l) => l.make_carrier(productive),
            AnyLink::Ble(l) => l.make_carrier(productive),
            AnyLink::ZigBee(l) => l.make_carrier(productive),
        }
    }

    /// A salt distinguishing link variants that share a protocol but
    /// synthesize different carriers (MCS, DSSS/CCK rate) — part of the
    /// waveform-cache key.
    pub fn variant_salt(&self) -> u64 {
        match self {
            AnyLink::WifiB(l) => 1 + l.rate() as u64,
            AnyLink::WifiN(l) => 1 + l.mcs() as u64,
            AnyLink::Ble(_) | AnyLink::ZigBee(_) => 0,
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

    /// The overlay parameters.
    pub fn params(&self) -> msc_core::OverlayParams {
        match self {
            AnyLink::WifiB(l) => l.params(),
            AnyLink::WifiN(l) => l.params(),
            AnyLink::Ble(l) => l.params(),
            AnyLink::ZigBee(l) => l.params(),
        }
    }
}

/// Outcome of one end-to-end packet.
#[derive(Clone, Debug)]
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
    let cap = link.tag_capacity(n_productive);
    let tag_bits: Vec<u8> = (0..cap).map(|_| rng.gen_range(0..=1)).collect();

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
    match result {
        Ok(d) => {
            let tag_errors =
                tag_bits.iter().zip(d.tag.iter()).filter(|(a, b)| (*a ^ *b) & 1 == 1).count()
                    + tag_bits.len().saturating_sub(d.tag.len());
            let productive_errors =
                productive.iter().zip(d.productive.iter()).filter(|(a, b)| a != b).count()
                    + productive.len().saturating_sub(d.productive.len());
            PacketOutcome {
                decoded: true,
                tag_errors,
                tag_bits: tag_bits.len(),
                productive_errors,
                productive_units: productive.len(),
            }
        }
        Err(_) => {
            metrics::counter_add("pipe.decode_fail", label, "", 1);
            PacketOutcome {
                decoded: false,
                tag_errors: tag_bits.len(),
                tag_bits: tag_bits.len(),
                productive_errors: productive.len(),
                productive_units: productive.len(),
            }
        }
    }
}

thread_local! {
    /// Per-thread [`TrialBatch`] pool: lane buffers, channel RNGs, and
    /// the flat tag-bit store are reused batch to batch, so the
    /// steady-state materialize + channel loop performs zero
    /// allocations (asserted by `alloc_guard`).
    static BATCH_POOL: std::cell::RefCell<TrialBatch> = std::cell::RefCell::new(TrialBatch::default());
}

/// Trials per [`TrialBatch`] chunk. Lanes are independent, so every
/// width gives identical outcomes; the width only sets how a cell's
/// trials are chunked across the pool.
const BATCH_WIDTH: usize = 8;

/// Sync-window radius (samples) handed to demodulators via
/// [`msc_phy::fastsync`] on the batched path: the engine's trial
/// buffers carry the frame at offset zero with at most a couple of
/// samples of matched-filter ambiguity under noise.
const FAST_SYNC_RADIUS: usize = 8;

/// A structure-of-arrays batch of Monte-Carlo trials from one cell:
/// `count` IQ lanes modulated from the shared cached excitation, each
/// with its own tag-bit draw and RNG streams.
///
/// Per-trial randomness is exact: lane `l` of a batch starting at
/// trial `start` seeds its RNG with `derive_seed(seed, cell, start + l)`,
/// so outcomes are a function of `(seed, cell, index)` at any batch
/// width and thread count.
///
/// The channel stream is either the continuation of the lane's tag-bit
/// stream (tag bits → fading → noise) or, when a common-random-number
/// group is supplied, a stream derived from the group label instead of
/// the cell label — sweep-axis neighbors (e.g. the distance grid of
/// Fig. 13) then share channel realizations per trial index, which
/// cancels channel luck out of adjacent-cell comparisons while tag
/// payloads stay cell-specific. A default batch is empty; its buffers
/// grow on first use and are reused after.
#[derive(Default)]
pub struct TrialBatch {
    lanes: Vec<IqBuf>,
    ch_rngs: Vec<StdRng>,
    tag_bits: Vec<u8>,
    cap: usize,
    count: usize,
    seed: u64,
    cellh: u64,
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
    #[allow(clippy::too_many_arguments)]
    pub fn materialize(
        &mut self,
        modulator: &TagOverlayModulator,
        exc: &crate::wavecache::CellExcitation,
        seed: u64,
        cellh: u64,
        crn_hash: Option<u64>,
        start: u64,
        count: usize,
    ) {
        self.cap = exc.tag_capacity;
        self.count = count;
        (self.seed, self.cellh, self.start) = (seed, cellh, start);
        self.tag_bits.clear();
        self.ch_rngs.clear();
        while self.lanes.len() < count {
            self.lanes.push(IqBuf::empty(exc.carrier.rate()));
        }
        for l in 0..count {
            let i = start + l as u64;
            let mut rng = StdRng::seed_from_u64(msc_par::derive_seed(seed, cellh, i));
            for _ in 0..self.cap {
                let bit: u8 = rng.gen_range(0..=1);
                self.tag_bits.push(bit);
            }
            let ch = match crn_hash {
                Some(h) => StdRng::seed_from_u64(msc_par::derive_seed(seed, h, i)),
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
    /// hint), appending outcomes to `out` in trial order.
    ///
    /// With the flight recorder armed, each lane is one trial record
    /// under `cell`, a `(label, flight ordinal)` pair: its index and
    /// derived seed, its `decode` stage timing, the five outcome scores
    /// and an `ok` / `decode_fail` verdict. `modulate` and `channel` run
    /// once per batch, so no trial record carries them.
    pub fn decode_into(
        &self,
        link: &AnyLink,
        exc: &crate::wavecache::CellExcitation,
        snr_db: f64,
        cell: (&str, u64),
        out: &mut Vec<PacketOutcome>,
    ) {
        let label = link.protocol().label();
        let flight = msc_obs::flight::armed();
        let experiment = if flight { metrics::current_experiment() } else { String::new() };
        for l in 0..self.count {
            if flight {
                let i = self.start + l as u64;
                let derived = msc_par::derive_seed(self.seed, self.cellh, i);
                let (cell, ordinal) = cell;
                msc_obs::flight::begin_trial(
                    &experiment,
                    cell,
                    ordinal,
                    i,
                    self.seed,
                    derived,
                    label,
                );
            }
            metrics::hist_observe("pipe.snr_db", label, "uplink", snr_db, buckets::SNR_DB);
            metrics::counter_add("pipe.packets", label, "", 1);
            let result = metrics::time_stage(label, "decode", || {
                msc_phy::fastsync::with_window(FAST_SYNC_RADIUS, || {
                    link.decode(&self.lanes[l], exc.productive.len())
                })
            });
            let bits = &self.tag_bits[l * self.cap..(l + 1) * self.cap];
            let outcome = score_decode(label, result, bits, &exc.productive);
            metrics::hist_observe("pipe.tag_ber", label, "", outcome.tag_ber(), buckets::BER);
            msc_obs::note!("pipe.packet protocol={label} snr_db={snr_db:.1}");
            if flight {
                let f = msc_obs::flight::note_score;
                f("tag_errors", outcome.tag_errors as f64);
                f("tag_bits", outcome.tag_bits as f64);
                f("productive_errors", outcome.productive_errors as f64);
                f("productive_units", outcome.productive_units as f64);
                f("tag_ber", outcome.tag_ber());
                msc_obs::flight::end_trial(if outcome.decoded { "ok" } else { "decode_fail" });
            }
            out.push(outcome);
        }
    }
}

/// Adaptive early-stopping policy for a [`CellSpec`] (or
/// [`run_packets_stopping`]).
#[derive(Clone, Copy)]
pub struct StopPolicy<'a> {
    /// Minimum trials before the first stop check (the experiment's
    /// `min_n` from the registry).
    pub floor: usize,
    /// Common-random-number group label: cells passing the same group
    /// share per-index channel RNG streams. Typically the cell label
    /// minus the sweep axis.
    pub crn_group: Option<&'a str>,
    /// Returns `true` when the outcomes so far decide the cell's
    /// verdict beyond doubt (both directions must be covered — e.g.
    /// "confidently in range or confidently out").
    pub decide: &'a (dyn Fn(&[PacketOutcome]) -> bool + Sync),
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

/// One experiment cell for [`run_cells`]: `n` Monte-Carlo packets of
/// `link` through `geometry`, seeded by `(seed, label, index)`.
pub struct CellSpec<'a> {
    /// The protocol's overlay link.
    pub link: &'a AnyLink,
    /// The deployment the packets cross.
    pub geometry: Geometry,
    /// Overlay mode.
    pub mode: Mode,
    /// Productive units per carrier.
    pub n_productive: usize,
    /// Trials requested.
    pub n: usize,
    /// The run's base seed.
    pub seed: u64,
    /// Cell label (e.g. `"los/ZigBee/8"`); keeps seeds disjoint across
    /// cells that share a numeric seed.
    pub label: String,
    /// Adaptive early stopping, if the runner has a verdict to settle.
    pub stop: Option<StopPolicy<'a>>,
}

/// Runs every cell and returns each cell's outcomes, in cell order.
///
/// The cells fan out across the `msc-par` pool, one cell per item. Each
/// cell prepares its excitation once
/// ([`crate::wavecache::CellExcitation`]: the productive payload comes
/// from the cell's own RNG stream `(seed, cell, u64::MAX)` and the
/// carrier is shared read-only across trials), then runs its trials in
/// [`TrialBatch`] chunks along its wave plan. A cell's batches are pool
/// calls too; inside a fanned-out cell they run inline on its worker
/// (`msc-par` rule 3), while a lone cell fans its batches out. Every
/// trial draws its tag bits and channel realization from its own RNG
/// seeded by `(seed, cell, index)`, so the outcomes — and every
/// downstream table — are bit-identical at any thread count, including
/// 1, and with the waveform cache on or off.
///
/// Each cell buffers its `cell_start` / `early_stop` / `cell_done`
/// events, and this call emits the buffers in cell order after the
/// fan-out, so the event stream is thread-count invariant too. Flight
/// cell ordinals are reserved here, in cell order, for the same reason.
pub fn run_cells(cells: &[CellSpec]) -> Vec<Vec<PacketOutcome>> {
    let first = msc_obs::flight::reserve_cells(cells.len() as u64);
    let runs = msc_par::par_map_indexed(cells.len(), |k| {
        run_cell(&cells[k], first + k as u64, BATCH_WIDTH)
    });
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
    let label = cell.to_string();
    let spec =
        CellSpec { link, geometry: *geometry, mode, n_productive, n, seed, label, stop: None };
    run_cells(&[spec]).remove(0)
}

/// [`run_packets`] with adaptive early stopping: trials run in waves
/// along the [`checkpoints`] schedule and the cell halts — never below
/// `policy.floor`, and only when [`crate::engine::early_stop`] is on —
/// once `policy.decide` reports the verdict settled. Trials that do
/// run are bit-identical to a full run's prefix, so stopping changes
/// only how many trials a cell consumes, not what any trial computes.
#[allow(clippy::too_many_arguments)]
pub fn run_packets_stopping(
    link: &AnyLink,
    geometry: &Geometry,
    mode: Mode,
    n_productive: usize,
    n: usize,
    seed: u64,
    cell: &str,
    policy: &StopPolicy,
) -> Vec<PacketOutcome> {
    let label = cell.to_string();
    let spec = CellSpec {
        link,
        geometry: *geometry,
        mode,
        n_productive,
        n,
        seed,
        label,
        stop: Some(*policy),
    };
    run_cells(&[spec]).remove(0)
}

/// A cell's buffered events: `(kind, deterministic fields)` in emission
/// order.
type CellEvents = Vec<(&'static str, String)>;

/// Runs one cell (flight ordinal `ordinal`) in batches of `width`
/// trials, returning its outcomes and its buffered events.
fn run_cell(spec: &CellSpec, ordinal: u64, width: usize) -> (Vec<PacketOutcome>, CellEvents) {
    let CellSpec { link, geometry, mode, n_productive, n, seed, .. } = *spec;
    let cell = spec.label.as_str();
    let policy = spec.stop.as_ref();
    // Replay fast path: when a flight-recorder replay targets one
    // specific trial, every other cell (and every other index) is
    // skipped outright — per-trial seed derivation means the target
    // trial doesn't depend on them. The placeholders only feed a
    // report the replay machinery discards.
    let target_index = match msc_obs::flight::replay_target() {
        Some((target_cell, _)) if target_cell != cell => {
            return (vec![placeholder_outcome(); n], Vec::new())
        }
        target => target.map(|(_, i)| i),
    };

    let events_on = msc_obs::events::enabled();
    let mut events = CellEvents::new();
    let mut event = |kind: &'static str, trials: Option<usize>| {
        if events_on {
            let cell = msc_obs::export::json_escape(cell);
            let det = match trials {
                None => format!(
                    "\"cell\":\"{cell}\",\"proto\":\"{}\",\"requested\":{n}",
                    link.protocol().label()
                ),
                Some(t) => format!("\"cell\":\"{cell}\",\"trials\":{t},\"requested\":{n}"),
            };
            events.push((kind, det));
        }
    };
    event("cell_start", None);

    let exc = {
        let _prep = msc_obs::profile::scope("cell.prepare");
        crate::wavecache::CellExcitation::prepare(link, mode, n_productive, seed, cell)
    };
    let label = link.protocol().label();
    let cellh = msc_par::hash_label(cell);
    let crn_hash = policy.and_then(|p| p.crn_group).map(msc_par::hash_label);
    let snr = geometry.uplink_snr_db(link.protocol());

    // Appends trials `start..start + count`, run in pooled batches.
    let run = |start: u64, count: usize, outs: &mut Vec<PacketOutcome>| {
        let chunks = msc_par::par_map_indexed(count.div_ceil(width), |b| {
            let lo = start + (b * width) as u64;
            let len = width.min(count - b * width);
            BATCH_POOL.with(|tb| {
                let mut tb = tb.borrow_mut();
                let modulator =
                    TagOverlayModulator::new(link.protocol(), params_for(link.protocol(), mode));
                metrics::time_stage(label, "modulate", || {
                    tb.materialize(&modulator, &exc, seed, cellh, crn_hash, lo, len)
                });
                metrics::time_stage(label, "channel", || {
                    tb.apply_channel(Impairments::snr(snr, geometry.fading))
                });
                let mut wave = Vec::with_capacity(len);
                tb.decode_into(link, &exc, snr, (cell, ordinal), &mut wave);
                wave
            })
        });
        for c in chunks {
            outs.extend(c);
        }
    };

    let mut outs: Vec<PacketOutcome> = Vec::with_capacity(n);
    if let Some(ti) = target_index {
        // A replay runs the target trial alone, as a one-lane batch
        // under the cell's own CRN group and without a stopping plan.
        let mut one = Vec::with_capacity(1);
        run(ti, 1, &mut one);
        outs.resize(n, placeholder_outcome());
        if let (Some(slot), Some(o)) = (outs.get_mut(ti as usize), one.pop()) {
            *slot = o;
        }
    } else {
        let stopping = policy.filter(|_| crate::engine::early_stop());
        let plan = match stopping {
            Some(p) => checkpoints(n, p.floor),
            None => vec![n],
        };
        for &target in &plan {
            let count = target - outs.len();
            if count == 0 {
                continue;
            }
            run(outs.len() as u64, count, &mut outs);
            if let Some(p) = stopping {
                if outs.len() < n && (p.decide)(&outs) {
                    event("early_stop", Some(outs.len()));
                    break;
                }
            }
        }
    }
    msc_obs::progress::add_cell();
    msc_obs::progress::add_trials(outs.len() as u64);
    event("cell_done", Some(outs.len()));
    (outs, events)
}

/// The stand-in outcome for trials a replay run skips. Never reaches a
/// report a caller keeps: replay discards the experiment's report and
/// reads only the captured target trial.
fn placeholder_outcome() -> PacketOutcome {
    PacketOutcome {
        decoded: true,
        tag_errors: 0,
        tag_bits: 0,
        productive_errors: 0,
        productive_units: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                let spec = CellSpec {
                    link: &link,
                    geometry: geo,
                    mode: Mode::Mode1,
                    n_productive: 16,
                    n: 11,
                    seed: 7,
                    label: "test/batch-width".to_string(),
                    stop: None,
                };
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
        // The runners' one-trial uplink and the engine's batch lanes run
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
                    let one = apply_uplink_impaired(&mut rng, &wave, imp);
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
