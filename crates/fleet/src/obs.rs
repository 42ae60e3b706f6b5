//! MAC event tracing for the fleet engine: typed per-event records
//! from the sequential phase-3 sweep, aggregated into per-window
//! time-series gauges, with anomaly detectors that flag replayable
//! incidents.
//!
//! The engine is generic over a [`MacObserver`]; the default
//! [`NoopObserver`] monomorphizes every `on_event` call away, so an
//! untraced [`run`](crate::engine::run) pays nothing. [`MacTrace`] is
//! the real observer: it buckets events into ~1 s [`WindowAgg`]
//! windows (per-carrier throughput, collision rate, utilization,
//! queue depth, Jain-over-window), keeps a bounded log of tag-level
//! events for incident extraction, and runs two detectors — a tag
//! starved longer than a threshold since its last delivery, and a
//! window whose collision rate crosses a threshold.
//!
//! Every event is emitted from the *sequential* MAC sweep, so the
//! trace (like the [`FleetResult`](crate::engine::FleetResult)) is
//! byte-identical at any thread count; the observer never touches RNG
//! state, so tracing cannot change results.

use msc_obs::stats::jain;

/// One MAC-layer event from the sequential sweep. Times are simulated
/// seconds; `carrier` indexes [`FleetConfig::carriers`]
/// (crate::engine::FleetConfig::carriers).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MacEvent {
    /// A sensor reading arrived at a powered, idle-or-busy tag.
    Reading {
        /// Event time, seconds.
        t: f64,
        /// Originating tag.
        tag: u32,
    },
    /// A reading arrived while the tag was in a charge interval and
    /// was dropped unpowered.
    Starved {
        /// Event time, seconds.
        t: f64,
        /// Starving tag.
        tag: u32,
    },
    /// A reading queued behind the tag's in-flight transmission.
    Enqueue {
        /// Event time, seconds.
        t: f64,
        /// Queueing tag.
        tag: u32,
        /// Queue depth after the enqueue.
        depth: u32,
    },
    /// A reading dropped because the tag's queue was full.
    QueueDrop {
        /// Event time, seconds.
        t: f64,
        /// Dropping tag.
        tag: u32,
    },
    /// An attempt scheduled: policy pick + backoff draw.
    Backoff {
        /// Event time, seconds.
        t: f64,
        /// Scheduling tag.
        tag: u32,
        /// Carrier the policy picked.
        carrier: u16,
        /// Attempt number (0 = first try).
        attempt: u32,
        /// Absolute carrier-packet slot the attempt will ride.
        slot: u64,
    },
    /// One carrier packet was emitted; `mods` tags modulated it.
    Packet {
        /// Event time, seconds.
        t: f64,
        /// Emitting carrier.
        carrier: u16,
        /// Tags that modulated this packet (0 = idle).
        mods: u32,
    },
    /// A tag transmitted on a carrier packet.
    Attempt {
        /// Event time, seconds.
        t: f64,
        /// Transmitting tag.
        tag: u32,
        /// Carrier ridden.
        carrier: u16,
        /// Attempt number (0 = first try).
        attempt: u32,
    },
    /// ≥ 2 tags modulated the same carrier packet; all lose.
    Collision {
        /// Event time, seconds.
        t: f64,
        /// Carrier of the collision slot.
        carrier: u16,
        /// Tags involved.
        tags: u32,
    },
    /// A single-tag attempt lost to the channel (or mid-backoff
    /// power loss).
    ChannelLoss {
        /// Event time, seconds.
        t: f64,
        /// Losing tag.
        tag: u32,
        /// Carrier ridden.
        carrier: u16,
    },
    /// A reading delivered to the receiver.
    Delivery {
        /// Event time, seconds.
        t: f64,
        /// Delivering tag.
        tag: u32,
        /// Carrier ridden.
        carrier: u16,
    },
    /// A reading abandoned after exhausting the retry budget.
    RetryDrop {
        /// Event time, seconds.
        t: f64,
        /// Dropping tag.
        tag: u32,
    },
}

impl MacEvent {
    /// Event time, seconds.
    pub fn time(&self) -> f64 {
        match *self {
            MacEvent::Reading { t, .. }
            | MacEvent::Starved { t, .. }
            | MacEvent::Enqueue { t, .. }
            | MacEvent::QueueDrop { t, .. }
            | MacEvent::Backoff { t, .. }
            | MacEvent::Packet { t, .. }
            | MacEvent::Attempt { t, .. }
            | MacEvent::Collision { t, .. }
            | MacEvent::ChannelLoss { t, .. }
            | MacEvent::Delivery { t, .. }
            | MacEvent::RetryDrop { t, .. } => t,
        }
    }

    /// The tag this event is attributed to, if any ([`MacEvent::Packet`]
    /// and [`MacEvent::Collision`] are carrier-level).
    pub fn tag(&self) -> Option<u32> {
        match *self {
            MacEvent::Reading { tag, .. }
            | MacEvent::Starved { tag, .. }
            | MacEvent::Enqueue { tag, .. }
            | MacEvent::QueueDrop { tag, .. }
            | MacEvent::Backoff { tag, .. }
            | MacEvent::Attempt { tag, .. }
            | MacEvent::ChannelLoss { tag, .. }
            | MacEvent::Delivery { tag, .. }
            | MacEvent::RetryDrop { tag, .. } => Some(tag),
            MacEvent::Packet { .. } | MacEvent::Collision { .. } => None,
        }
    }
}

/// Serializes one event as a compact JSON array (`["delivery",t,tag,
/// carrier]`). `f64` times render via `{:?}` (shortest round-trip),
/// so equal serializations imply bit-equal events — the incident
/// replay comparison is over these strings.
pub fn render_event(ev: &MacEvent) -> String {
    match *ev {
        MacEvent::Reading { t, tag } => format!("[\"reading\",{t:?},{tag}]"),
        MacEvent::Starved { t, tag } => format!("[\"starved\",{t:?},{tag}]"),
        MacEvent::Enqueue { t, tag, depth } => format!("[\"enqueue\",{t:?},{tag},{depth}]"),
        MacEvent::QueueDrop { t, tag } => format!("[\"queue_drop\",{t:?},{tag}]"),
        MacEvent::Backoff { t, tag, carrier, attempt, slot } => {
            format!("[\"backoff\",{t:?},{tag},{carrier},{attempt},{slot}]")
        }
        MacEvent::Packet { t, carrier, mods } => format!("[\"packet\",{t:?},{carrier},{mods}]"),
        MacEvent::Attempt { t, tag, carrier, attempt } => {
            format!("[\"attempt\",{t:?},{tag},{carrier},{attempt}]")
        }
        MacEvent::Collision { t, carrier, tags } => {
            format!("[\"collision\",{t:?},{carrier},{tags}]")
        }
        MacEvent::ChannelLoss { t, tag, carrier } => {
            format!("[\"loss\",{t:?},{tag},{carrier}]")
        }
        MacEvent::Delivery { t, tag, carrier } => {
            format!("[\"delivery\",{t:?},{tag},{carrier}]")
        }
        MacEvent::RetryDrop { t, tag } => format!("[\"retry_drop\",{t:?},{tag}]"),
    }
}

/// Observer of the sequential MAC sweep. Implementations must not
/// consume randomness or otherwise feed back into the engine.
pub trait MacObserver {
    /// Receives one event, in deterministic sweep order.
    fn on_event(&mut self, ev: MacEvent);
}

/// The zero-cost default: every call compiles away.
pub struct NoopObserver;

impl MacObserver for NoopObserver {
    #[inline(always)]
    fn on_event(&mut self, _ev: MacEvent) {}
}

/// Per-window aggregate of the MAC event stream (the time-series the
/// fleet observatory exports). Per-carrier vectors index
/// [`FleetConfig::carriers`](crate::engine::FleetConfig::carriers).
#[derive(Clone, Debug)]
pub struct WindowAgg {
    /// Window start, seconds.
    pub t0: f64,
    /// Window end (exclusive), seconds.
    pub t1: f64,
    /// Carrier packets emitted, per carrier.
    pub packets: Vec<u32>,
    /// Packets at least one tag modulated, per carrier.
    pub modulated: Vec<u32>,
    /// Transmission attempts, per carrier.
    pub attempts: Vec<u32>,
    /// Readings delivered, per carrier.
    pub delivered: Vec<u32>,
    /// Attempts lost to tag–tag collisions, per carrier.
    pub collided: Vec<u32>,
    /// Attempts lost to the channel, per carrier.
    pub losses: Vec<u32>,
    /// Readings offered in this window.
    pub offered: u32,
    /// Readings starved unpowered.
    pub starved: u32,
    /// Readings dropped at full queues.
    pub queue_drops: u32,
    /// Readings abandoned after the retry budget.
    pub retry_drops: u32,
    /// Deepest tag queue observed in the window.
    pub max_queue: u32,
    /// Jain fairness of per-tag deliveries within the window
    /// (computed at window close over all tags).
    pub jain: f64,
}

impl WindowAgg {
    fn new(t0: f64, t1: f64, n_carriers: usize) -> Self {
        WindowAgg {
            t0,
            t1,
            packets: vec![0; n_carriers],
            modulated: vec![0; n_carriers],
            attempts: vec![0; n_carriers],
            delivered: vec![0; n_carriers],
            collided: vec![0; n_carriers],
            losses: vec![0; n_carriers],
            offered: 0,
            starved: 0,
            queue_drops: 0,
            retry_drops: 0,
            max_queue: 0,
            jain: 0.0,
        }
    }

    /// Fraction of this window's carrier packets ≥ 1 tag modulated.
    pub fn utilization(&self) -> f64 {
        let packets: u64 = self.packets.iter().map(|&x| x as u64).sum();
        let mods: u64 = self.modulated.iter().map(|&x| x as u64).sum();
        mods as f64 / packets.max(1) as f64
    }

    /// Fraction of this window's attempts lost to collisions.
    pub fn collision_rate(&self) -> f64 {
        let attempts: u64 = self.attempts.iter().map(|&x| x as u64).sum();
        let collided: u64 = self.collided.iter().map(|&x| x as u64).sum();
        collided as f64 / attempts.max(1) as f64
    }

    /// Readings delivered in this window, all carriers.
    pub fn delivered_total(&self) -> u64 {
        self.delivered.iter().map(|&x| x as u64).sum()
    }

    /// Attempts in this window, all carriers.
    pub fn attempts_total(&self) -> u64 {
        self.attempts.iter().map(|&x| x as u64).sum()
    }
}

/// One anomaly a detector flagged — the seed of a replayable incident
/// bundle (the runner attaches scenario context and the event
/// subsequence).
#[derive(Clone, Debug)]
pub struct Incident {
    /// `"tag_starved"` or `"collision_burst"`.
    pub reason: String,
    /// The starving tag, `None` for carrier/window-level incidents.
    pub tag: Option<u32>,
    /// Incident window start, seconds.
    pub t0: f64,
    /// Incident window end, seconds.
    pub t1: f64,
}

/// Detector thresholds for [`MacTrace`].
#[derive(Clone, Copy, Debug)]
pub struct Detectors {
    /// Flag a tag starved this long (seconds) since its last
    /// delivery. `f64::INFINITY` disables.
    pub starve_s: f64,
    /// Flag a window whose collision rate crosses this fraction
    /// (with ≥ [`Detectors::min_attempts`] attempts).
    pub collision_rate: f64,
    /// Minimum attempts in a window before the collision detector
    /// can fire.
    pub min_attempts: u64,
}

impl Default for Detectors {
    fn default() -> Self {
        Detectors { starve_s: 30.0, collision_rate: 0.5, min_attempts: 50 }
    }
}

/// Cap on retained incidents per trace (excess only counts).
pub const INCIDENT_CAP: usize = 8;

/// Cap on retained log events per trace (excess only counts). The cap
/// applies to the deterministic event order, so truncation is itself
/// deterministic.
pub const LOG_CAP: usize = 4_000_000;

/// The tracing observer: window aggregation + bounded event log +
/// anomaly detectors. Call [`MacTrace::finish`] after the run to close
/// the last window.
pub struct MacTrace {
    window_s: f64,
    n_carriers: usize,
    /// Closed windows, in time order.
    pub windows: Vec<WindowAgg>,
    cur: WindowAgg,
    cur_idx: usize,
    win_tag_delivered: Vec<u32>,
    touched: Vec<u32>,
    /// Tag-level events in sweep order ([`MacEvent::Packet`] is
    /// aggregated only), capped at [`LOG_CAP`].
    pub log: Vec<MacEvent>,
    /// Events beyond [`LOG_CAP`] that were counted but not kept.
    pub log_dropped: u64,
    detectors: Detectors,
    last_delivery: Vec<f64>,
    starve_fired: Vec<bool>,
    /// Flagged incidents, in detection order, capped at
    /// [`INCIDENT_CAP`].
    pub incidents: Vec<Incident>,
    /// Incidents beyond the cap that were counted but not kept.
    pub incidents_suppressed: u64,
}

impl MacTrace {
    /// Builds a trace for `tags` tags × `n_carriers` carriers with
    /// `window_s`-second aggregation windows.
    pub fn new(tags: usize, n_carriers: usize, window_s: f64, detectors: Detectors) -> Self {
        assert!(window_s > 0.0, "window must be positive");
        MacTrace {
            window_s,
            n_carriers,
            windows: Vec::new(),
            cur: WindowAgg::new(0.0, window_s, n_carriers),
            cur_idx: 0,
            win_tag_delivered: vec![0; tags],
            touched: Vec::new(),
            log: Vec::new(),
            log_dropped: 0,
            detectors,
            last_delivery: vec![0.0; tags],
            starve_fired: vec![false; tags],
            incidents: Vec::new(),
            incidents_suppressed: 0,
        }
    }

    fn push_incident(&mut self, inc: Incident) {
        if self.incidents.len() < INCIDENT_CAP {
            self.incidents.push(inc);
        } else {
            self.incidents_suppressed += 1;
        }
    }

    fn close_window(&mut self) {
        // Jain over *all* tags' per-window deliveries (zeros count:
        // a window where half the fleet is silent is unfair).
        let xs: Vec<f64> = self.win_tag_delivered.iter().map(|&d| d as f64).collect();
        self.cur.jain = jain(&xs);
        for &g in &self.touched {
            self.win_tag_delivered[g as usize] = 0;
        }
        self.touched.clear();
        if self.cur.attempts_total() >= self.detectors.min_attempts
            && self.cur.collision_rate() >= self.detectors.collision_rate
        {
            let (t0, t1) = (self.cur.t0, self.cur.t1);
            self.push_incident(Incident {
                reason: "collision_burst".to_string(),
                tag: None,
                t0,
                t1,
            });
        }
        self.cur_idx += 1;
        let t0 = self.cur_idx as f64 * self.window_s;
        let next = WindowAgg::new(t0, t0 + self.window_s, self.n_carriers);
        self.windows.push(std::mem::replace(&mut self.cur, next));
    }

    fn advance_to(&mut self, t: f64) {
        while t >= self.cur.t1 {
            self.close_window();
        }
    }

    /// Closes the trailing window. Call once after the engine run.
    pub fn finish(&mut self) {
        self.close_window();
    }

    /// Extracts the serialized event subsequence for an incident:
    /// events in `[t0, t1]`, optionally filtered to one tag, capped at
    /// `cap` entries. Returns the rendered events and the count
    /// truncated past the cap — the pair incident replay must
    /// reproduce bit-for-bit.
    pub fn subsequence(
        &self,
        tag: Option<u32>,
        t0: f64,
        t1: f64,
        cap: usize,
    ) -> (Vec<String>, u64) {
        let mut out = Vec::new();
        let mut truncated = 0u64;
        for ev in &self.log {
            let t = ev.time();
            if t < t0 || t > t1 {
                continue;
            }
            if let Some(g) = tag {
                if ev.tag() != Some(g) {
                    continue;
                }
            }
            if out.len() < cap {
                out.push(render_event(ev));
            } else {
                truncated += 1;
            }
        }
        (out, truncated)
    }
}

impl MacObserver for MacTrace {
    fn on_event(&mut self, ev: MacEvent) {
        self.advance_to(ev.time());
        match ev {
            MacEvent::Reading { .. } => self.cur.offered += 1,
            MacEvent::Starved { t, tag } => {
                self.cur.starved += 1;
                let since = t - self.last_delivery[tag as usize];
                if since >= self.detectors.starve_s && !self.starve_fired[tag as usize] {
                    self.starve_fired[tag as usize] = true;
                    let t0 = self.last_delivery[tag as usize];
                    self.push_incident(Incident {
                        reason: "tag_starved".to_string(),
                        tag: Some(tag),
                        t0,
                        t1: t,
                    });
                }
            }
            MacEvent::Enqueue { depth, .. } => self.cur.max_queue = self.cur.max_queue.max(depth),
            MacEvent::QueueDrop { .. } => self.cur.queue_drops += 1,
            MacEvent::Backoff { .. } => {}
            MacEvent::Packet { carrier, mods, .. } => {
                self.cur.packets[carrier as usize] += 1;
                if mods > 0 {
                    self.cur.modulated[carrier as usize] += 1;
                }
            }
            MacEvent::Attempt { carrier, .. } => self.cur.attempts[carrier as usize] += 1,
            MacEvent::Collision { carrier, tags, .. } => {
                self.cur.collided[carrier as usize] += tags;
            }
            MacEvent::ChannelLoss { carrier, .. } => self.cur.losses[carrier as usize] += 1,
            MacEvent::Delivery { t, tag, carrier } => {
                self.cur.delivered[carrier as usize] += 1;
                if self.win_tag_delivered[tag as usize] == 0 {
                    self.touched.push(tag);
                }
                self.win_tag_delivered[tag as usize] += 1;
                self.last_delivery[tag as usize] = t;
            }
            MacEvent::RetryDrop { .. } => self.cur.retry_drops += 1,
        }
        if !matches!(ev, MacEvent::Packet { .. }) {
            if self.log.len() < LOG_CAP {
                self.log.push(ev);
            } else {
                self.log_dropped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_aggregate_and_close_in_order() {
        let mut tr = MacTrace::new(4, 2, 1.0, Detectors::default());
        tr.on_event(MacEvent::Reading { t: 0.1, tag: 0 });
        tr.on_event(MacEvent::Packet { t: 0.2, carrier: 0, mods: 1 });
        tr.on_event(MacEvent::Attempt { t: 0.2, tag: 0, carrier: 0, attempt: 0 });
        tr.on_event(MacEvent::Delivery { t: 0.2, tag: 0, carrier: 0 });
        tr.on_event(MacEvent::Packet { t: 1.5, carrier: 1, mods: 0 });
        tr.on_event(MacEvent::Starved { t: 2.4, tag: 3 });
        tr.finish();
        assert_eq!(tr.windows.len(), 3);
        let w0 = &tr.windows[0];
        assert_eq!(w0.offered, 1);
        assert_eq!(w0.delivered[0], 1);
        assert_eq!(w0.packets[0], 1);
        assert!((w0.utilization() - 1.0).abs() < 1e-12);
        assert!(w0.jain > 0.0);
        let w1 = &tr.windows[1];
        assert_eq!(w1.packets[1], 1);
        assert_eq!(w1.modulated[1], 0);
        assert_eq!(tr.windows[2].starved, 1);
        // Packet events aggregate but stay out of the log.
        assert_eq!(tr.log.len(), 4);
    }

    #[test]
    fn starvation_detector_fires_once_per_tag() {
        let det = Detectors { starve_s: 2.0, ..Detectors::default() };
        let mut tr = MacTrace::new(2, 1, 1.0, det);
        tr.on_event(MacEvent::Starved { t: 1.0, tag: 0 }); // 1.0 < 2.0: no
        tr.on_event(MacEvent::Starved { t: 2.5, tag: 0 }); // fires
        tr.on_event(MacEvent::Starved { t: 3.5, tag: 0 }); // already fired
        tr.on_event(MacEvent::Delivery { t: 4.0, tag: 1, carrier: 0 });
        tr.on_event(MacEvent::Starved { t: 5.0, tag: 1 }); // 1.0 since: no
        tr.finish();
        assert_eq!(tr.incidents.len(), 1);
        let inc = &tr.incidents[0];
        assert_eq!(inc.reason, "tag_starved");
        assert_eq!(inc.tag, Some(0));
        assert_eq!((inc.t0, inc.t1), (0.0, 2.5));
    }

    #[test]
    fn collision_detector_needs_rate_and_volume() {
        let det = Detectors { collision_rate: 0.4, min_attempts: 10, ..Detectors::default() };
        let mut tr = MacTrace::new(8, 1, 1.0, det);
        for i in 0..12 {
            tr.on_event(MacEvent::Attempt { t: 0.1, tag: i % 8, carrier: 0, attempt: 0 });
        }
        tr.on_event(MacEvent::Collision { t: 0.2, carrier: 0, tags: 6 });
        tr.finish();
        assert_eq!(tr.incidents.len(), 1, "6/12 = 0.5 ≥ 0.4 over ≥10 attempts");
        assert_eq!(tr.incidents[0].reason, "collision_burst");
    }

    #[test]
    fn subsequence_filters_tag_and_time_and_caps() {
        let mut tr = MacTrace::new(4, 1, 10.0, Detectors::default());
        for i in 0..6 {
            let t = i as f64;
            tr.on_event(MacEvent::Reading { t, tag: (i % 2) as u32 });
        }
        tr.finish();
        let (all, trunc) = tr.subsequence(None, 0.0, 10.0, 100);
        assert_eq!((all.len(), trunc), (6, 0));
        let (tag0, _) = tr.subsequence(Some(0), 0.0, 10.0, 100);
        assert_eq!(tag0.len(), 3);
        assert_eq!(tag0[0], "[\"reading\",0.0,0]");
        let (capped, trunc) = tr.subsequence(None, 0.0, 10.0, 2);
        assert_eq!((capped.len(), trunc), (2, 4));
        let (windowed, _) = tr.subsequence(None, 2.0, 4.0, 100);
        assert_eq!(windowed.len(), 3, "bounds are inclusive");
    }

    #[test]
    fn render_round_trips_through_shortest_float() {
        let ev = MacEvent::Backoff { t: 1.2345678901234, tag: 7, carrier: 2, attempt: 3, slot: 99 };
        let s = render_event(&ev);
        assert_eq!(s, "[\"backoff\",1.2345678901234,7,2,3,99]");
        // {:?} is shortest-roundtrip: parsing the rendered time
        // recovers the exact f64.
        let t: f64 = "1.2345678901234".parse().unwrap();
        assert_eq!(t, 1.2345678901234);
    }
}
