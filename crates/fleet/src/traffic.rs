//! Excitation traffic models: packet arrival processes for the timeline
//! simulations (energy lifecycle, excitation diversity).

use msc_phy::protocol::Protocol;
use rand::Rng;

/// A packet arrival process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrivals {
    /// Fixed inter-arrival time (a saturated or clocked transmitter).
    Periodic {
        /// Packets per second.
        rate: f64,
    },
    /// Memoryless arrivals (ambient traffic).
    Poisson {
        /// Mean packets per second.
        rate: f64,
    },
    /// On/off duty cycling of a periodic source (the Fig. 18a carriers).
    DutyCycled {
        /// Packets per second while on.
        rate: f64,
        /// On-interval length, seconds.
        on_s: f64,
        /// Full period (on + off), seconds.
        period_s: f64,
        /// Phase offset of the on-window start, seconds.
        phase_s: f64,
    },
}

impl Arrivals {
    /// Long-run mean arrival rate, packets per second — the expected
    /// throughput a carrier offers (used by the fleet MAC to rank
    /// carriers by expected goodput without sampling the process).
    pub fn mean_rate(&self) -> f64 {
        match *self {
            Arrivals::Periodic { rate } | Arrivals::Poisson { rate } => rate,
            Arrivals::DutyCycled { rate, on_s, period_s, .. } => rate * on_s / period_s,
        }
    }

    /// Draws the next arrival strictly after `now`, or `None` if the
    /// process produces no more packets before `horizon`.
    pub fn next_after<R: Rng>(&self, rng: &mut R, now: f64, horizon: f64) -> Option<f64> {
        let t = match *self {
            Arrivals::Periodic { rate } => now + 1.0 / rate,
            Arrivals::Poisson { rate } => {
                let u: f64 = rng.gen_range(1e-12..1.0);
                now - u.ln() / rate
            }
            Arrivals::DutyCycled { rate, on_s, period_s, phase_s } => {
                assert!(on_s <= period_s && period_s > 0.0);
                let mut t = now + 1.0 / rate;
                // Advance to the next on-window if t falls in an off gap.
                // Compute the window start absolutely (floor of the
                // period index) rather than by incrementing t: a relative
                // `t += period - pos` can underflow to zero when pos sits
                // within an ulp of the period, spinning forever.
                let pos = (t - phase_s).rem_euclid(period_s);
                if pos > on_s {
                    let k = ((t - phase_s) / period_s).floor() + 1.0;
                    // Nudge past the boundary so rounding cannot leave t
                    // an ulp inside the previous off-gap.
                    t = phase_s + k * period_s + period_s * 1e-12;
                }
                t
            }
        };
        // Horizon is exclusive: the timeline covers [0, horizon).
        (t < horizon).then_some(t)
    }
}

/// One excitation stream on the timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stream {
    /// The protocol carried.
    pub protocol: Protocol,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Airtime per packet, seconds.
    pub airtime_s: f64,
    /// Tag bits one packet can carry (mode-dependent).
    pub tag_bits_per_packet: usize,
}

/// A timeline event: one excitation packet.
#[derive(Clone, Copy, Debug)]
pub struct PacketEvent {
    /// Arrival time, seconds.
    pub time: f64,
    /// Which stream emitted it (index into the stream list).
    pub stream: usize,
}

/// Merges the streams into a time-ordered packet sequence over
/// `[0, horizon)`.
pub fn timeline<R: Rng>(rng: &mut R, streams: &[Stream], horizon: f64) -> Vec<PacketEvent> {
    let mut events = Vec::new();
    for (i, s) in streams.iter().enumerate() {
        let mut t = 0.0;
        while let Some(next) = s.arrivals.next_after(rng, t, horizon) {
            events.push(PacketEvent { time: next, stream: i });
            t = next;
        }
    }
    events.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn periodic_rate_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = Stream {
            protocol: Protocol::WifiN,
            arrivals: Arrivals::Periodic { rate: 100.0 },
            airtime_s: 1e-3,
            tag_bits_per_packet: 10,
        };
        let events = timeline(&mut rng, &[s], 1.0);
        // [0, 1) holds events at 0.01 .. 0.99 — boundary exclusive.
        assert_eq!(events.len(), 99);
    }

    #[test]
    fn poisson_rate_is_approximate() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = Stream {
            protocol: Protocol::Ble,
            arrivals: Arrivals::Poisson { rate: 500.0 },
            airtime_s: 1e-4,
            tag_bits_per_packet: 5,
        };
        let events = timeline(&mut rng, &[s], 2.0);
        let n = events.len() as f64;
        assert!((n - 1000.0).abs() < 150.0, "poisson count {n}");
    }

    #[test]
    fn duty_cycle_confines_packets_to_on_windows() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = Stream {
            protocol: Protocol::WifiB,
            arrivals: Arrivals::DutyCycled { rate: 1000.0, on_s: 0.1, period_s: 0.2, phase_s: 0.0 },
            airtime_s: 1e-4,
            tag_bits_per_packet: 8,
        };
        let events = timeline(&mut rng, &[s], 1.0);
        assert!(!events.is_empty());
        for e in &events {
            let pos = e.time.rem_euclid(0.2);
            assert!(pos <= 0.1 + 1e-9, "packet at {} outside on-window", e.time);
        }
        // Roughly half the always-on count.
        assert!((events.len() as f64 - 500.0).abs() < 60.0, "count {}", events.len());
    }

    #[test]
    fn merged_timeline_is_sorted() {
        let mut rng = StdRng::seed_from_u64(4);
        let streams = [
            Stream {
                protocol: Protocol::WifiN,
                arrivals: Arrivals::Poisson { rate: 200.0 },
                airtime_s: 4e-4,
                tag_bits_per_packet: 23,
            },
            Stream {
                protocol: Protocol::ZigBee,
                arrivals: Arrivals::Periodic { rate: 20.0 },
                airtime_s: 4e-3,
                tag_bits_per_packet: 60,
            },
        ];
        let events = timeline(&mut rng, &streams, 1.0);
        for w in events.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(events.iter().any(|e| e.stream == 0));
        assert!(events.iter().any(|e| e.stream == 1));
    }
}
