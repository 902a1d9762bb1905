//! Point-to-point links.
//!
//! A [`Pipe`] is one direction of a link: a serializing transmitter
//! (bandwidth), a propagation delay with optional jitter, random loss, and a
//! drop-tail queue bounded in bytes. WiFi, the wired core network, and the
//! server access path are all `Pipe` pairs with different parameters; the
//! cellular radio bearer in the `radio` crate replaces the serializer with
//! the RLC model but reuses the same packet hand-off conventions.

use crate::packet::IpPacket;
use simcore::{DetRng, EventQueue, SimDuration, SimTime};

/// Link parameters.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Serialization rate in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Standard deviation of per-packet latency jitter, as a fraction of
    /// `latency`. Delivery order is still FIFO.
    pub jitter_frac: f64,
    /// Independent per-packet loss probability.
    pub loss: f64,
    /// Transmit queue bound in bytes (drop-tail). `0` means unbounded.
    pub queue_bytes: u64,
}

impl LinkConfig {
    /// A symmetric-parameter helper for tests: given rate and delay.
    pub fn simple(bandwidth_bps: f64, latency: SimDuration) -> LinkConfig {
        LinkConfig {
            bandwidth_bps,
            latency,
            jitter_frac: 0.0,
            loss: 0.0,
            queue_bytes: 0,
        }
    }

    /// Check every parameter is usable. A NaN or out-of-range `loss` would
    /// silently skew `rng.chance` (NaN compares false, so `loss = NaN`
    /// becomes "never lose" while `loss = 2.0` becomes "always lose"); we
    /// reject such configs at construction instead.
    pub fn validate(&self) -> Result<(), String> {
        if !self.bandwidth_bps.is_finite() || self.bandwidth_bps <= 0.0 {
            return Err(format!(
                "LinkConfig.bandwidth_bps must be finite and positive, got {}",
                self.bandwidth_bps
            ));
        }
        if !self.jitter_frac.is_finite() || self.jitter_frac < 0.0 {
            return Err(format!(
                "LinkConfig.jitter_frac must be finite and non-negative, got {}",
                self.jitter_frac
            ));
        }
        if !self.loss.is_finite() || !(0.0..=1.0).contains(&self.loss) {
            return Err(format!(
                "LinkConfig.loss must be a probability in [0, 1], got {}",
                self.loss
            ));
        }
        Ok(())
    }
}

/// Two-state Gilbert–Elliott burst-loss model: a good state with low loss
/// and a bad state with high loss, with per-packet transition
/// probabilities. Mean bad-burst length is `1 / bad_to_good` packets.
#[derive(Debug, Clone, Copy)]
pub struct GilbertElliott {
    /// P(good → bad) evaluated per packet while in the good state.
    pub good_to_bad: f64,
    /// P(bad → good) evaluated per packet while in the bad state.
    pub bad_to_good: f64,
    /// Loss probability in the good state.
    pub loss_good: f64,
    /// Loss probability in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Check every probability is a finite value in `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("good_to_bad", self.good_to_bad),
            ("bad_to_good", self.bad_to_good),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "GilbertElliott.{name} must be a probability in [0, 1], got {p}"
                ));
            }
        }
        Ok(())
    }
}

/// Delivery counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipeStats {
    /// Packets offered to the pipe.
    pub offered: u64,
    /// Packets delivered to the far end.
    pub delivered: u64,
    /// Packets dropped by random loss.
    pub lost: u64,
    /// Packets dropped because the transmit queue was full.
    pub overflowed: u64,
    /// Packets dropped by an injected outage window.
    pub outage_dropped: u64,
}

/// Injected fault schedule for one pipe. All windows are closed-open
/// `[from, until)` intervals in sim time; the schedule is consulted only at
/// `send` time, so it adds no wakes and cannot perturb fault-free runs.
#[derive(Default)]
struct PipeFaults {
    /// Total link outages: every packet offered inside a window is dropped.
    outages: Vec<(SimTime, SimTime)>,
    /// Latency spikes: extra propagation delay inside the window.
    spikes: Vec<(SimTime, SimTime, SimDuration)>,
    /// Burst loss: Gilbert–Elliott replaces the i.i.d. `loss` inside the
    /// window. The channel state only evolves while the window is active.
    burst: Option<(SimTime, SimTime, GilbertElliott)>,
    burst_bad: bool,
}

impl PipeFaults {
    fn in_outage(&self, now: SimTime) -> bool {
        self.outages.iter().any(|(f, u)| *f <= now && now < *u)
    }

    fn spike_extra(&self, now: SimTime) -> SimDuration {
        self.spikes
            .iter()
            .filter(|(f, u, _)| *f <= now && now < *u)
            .map(|(_, _, d)| *d)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.spikes.is_empty() && self.burst.is_none()
    }
}

/// One direction of a link.
pub struct Pipe {
    cfg: LinkConfig,
    /// When the transmitter finishes its current backlog.
    tx_free_at: SimTime,
    /// Arrival time of the most recently scheduled packet (FIFO enforcement).
    last_arrival: SimTime,
    inflight: EventQueue<IpPacket>,
    /// Reusable scratch buffer for batch delivery (no per-tick allocation).
    arrivals: Vec<(SimTime, IpPacket)>,
    rng: DetRng,
    faults: PipeFaults,
    /// Delivery counters.
    pub stats: PipeStats,
}

impl Pipe {
    /// New pipe with the given parameters and RNG stream.
    ///
    /// # Panics
    /// When `cfg` fails [`LinkConfig::validate`] — a NaN or out-of-range
    /// parameter would otherwise silently misbehave in `rng.chance`.
    pub fn new(cfg: LinkConfig, rng: DetRng) -> Pipe {
        if let Err(e) = cfg.validate() {
            panic!("invalid LinkConfig: {e}");
        }
        Pipe {
            cfg,
            tx_free_at: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            inflight: EventQueue::new(),
            arrivals: Vec::new(),
            rng,
            faults: PipeFaults::default(),
            stats: PipeStats::default(),
        }
    }

    /// Inject a total outage: every packet offered in `[from, until)` is
    /// dropped (the link is down; TCP recovers by retransmission).
    pub fn add_outage(&mut self, from: SimTime, until: SimTime) {
        self.faults.outages.push((from, until));
    }

    /// Inject a latency spike: packets offered in `[from, until)` see
    /// `extra` additional propagation delay. Overlapping spikes take the
    /// maximum, not the sum.
    pub fn add_latency_spike(&mut self, from: SimTime, until: SimTime, extra: SimDuration) {
        self.faults.spikes.push((from, until, extra));
    }

    /// Replace the i.i.d. loss with a Gilbert–Elliott burst channel inside
    /// `[from, until)`. Only one burst window per pipe; the last call wins.
    ///
    /// # Panics
    /// When `model` fails [`GilbertElliott::validate`].
    pub fn set_burst_loss(&mut self, from: SimTime, until: SimTime, model: GilbertElliott) {
        if let Err(e) = model.validate() {
            panic!("invalid GilbertElliott model: {e}");
        }
        self.faults.burst = Some((from, until, model));
        self.faults.burst_bad = false;
    }

    /// True when any fault is scheduled on this pipe.
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Per-packet loss decision: the Gilbert–Elliott channel when inside
    /// its window, the configured i.i.d. loss otherwise.
    fn loss_roll(&mut self, now: SimTime) -> bool {
        if let Some((from, until, ge)) = self.faults.burst {
            if from <= now && now < until {
                let loss = if self.faults.burst_bad {
                    ge.loss_bad
                } else {
                    ge.loss_good
                };
                let lost = loss > 0.0 && self.rng.chance(loss);
                let flip = if self.faults.burst_bad {
                    ge.bad_to_good
                } else {
                    ge.good_to_bad
                };
                if flip > 0.0 && self.rng.chance(flip) {
                    self.faults.burst_bad = !self.faults.burst_bad;
                }
                return lost;
            }
        }
        self.cfg.loss > 0.0 && self.rng.chance(self.cfg.loss)
    }

    /// Current transmit backlog expressed in bytes.
    pub fn backlog_bytes(&self, now: SimTime) -> u64 {
        let backlog = self.tx_free_at.saturating_since(now);
        (backlog.as_secs_f64() * self.cfg.bandwidth_bps / 8.0) as u64
    }

    /// Offer a packet for transmission at `now`.
    pub fn send(&mut self, pkt: IpPacket, now: SimTime) {
        self.stats.offered += 1;
        if self.faults.in_outage(now) {
            self.stats.outage_dropped += 1;
            return;
        }
        if self.cfg.queue_bytes > 0
            && self.backlog_bytes(now) + pkt.wire_len() as u64 > self.cfg.queue_bytes
        {
            self.stats.overflowed += 1;
            return;
        }
        if self.loss_roll(now) {
            self.stats.lost += 1;
            // Loss still consumes air time on a real link; modelling it as
            // pre-queue loss keeps the serializer conservative and simple.
            return;
        }
        let start = now.max(self.tx_free_at);
        let tx = SimDuration::from_secs_f64(pkt.wire_len() as f64 * 8.0 / self.cfg.bandwidth_bps);
        self.tx_free_at = start + tx;
        let mut latency = self.cfg.latency + self.faults.spike_extra(now);
        if self.cfg.jitter_frac > 0.0 {
            latency = self.rng.jittered(latency, self.cfg.jitter_frac);
        }
        let arrival = (self.tx_free_at + latency).max(self.last_arrival);
        self.last_arrival = arrival;
        self.inflight.push(arrival, pkt);
    }

    /// Append every packet that has arrived by `now` to `out` (a buffer the
    /// caller reuses across ticks). Returns how many were delivered.
    pub fn deliver(&mut self, now: SimTime, out: &mut Vec<IpPacket>) -> usize {
        // Arrivals cluster at the serializer's grid instants; batch-drain
        // whole due buckets instead of paying a queue operation per packet.
        let n = self.inflight.pop_due_batch(now, &mut self.arrivals);
        self.stats.delivered += n as u64;
        out.extend(self.arrivals.drain(..).map(|(_, pkt)| pkt));
        n
    }

    /// Earliest pending arrival.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.inflight.next_at()
    }

    /// Number of packets in flight (queued or propagating).
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{IpAddr, SocketAddr};
    use crate::packet::{Proto, TcpFlags, TcpHeader};

    fn pkt(id: u64, len: u32) -> IpPacket {
        IpPacket {
            id,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 1),
            dst: SocketAddr::new(IpAddr::new(10, 0, 0, 2), 2),
            proto: Proto::Tcp,
            tcp: Some(TcpHeader {
                seq: 0,
                ack: 0,
                flags: TcpFlags::default(),
            }),
            payload_len: len,
            udp_payload: None,
            markers: Vec::new(),
        }
    }

    fn drain(p: &mut Pipe, now: SimTime) -> Vec<IpPacket> {
        let mut out = Vec::new();
        p.deliver(now, &mut out);
        out
    }

    fn rng() -> DetRng {
        DetRng::seed_from_u64(1)
    }

    #[test]
    fn delivery_delay_is_serialization_plus_latency() {
        // 1 Mb/s, 10 ms latency, 1000-byte frame (1040 wire bytes).
        let cfg = LinkConfig::simple(1e6, SimDuration::from_millis(10));
        let mut p = Pipe::new(cfg, rng());
        p.send(pkt(1, 1000), SimTime::ZERO);
        let expected =
            SimDuration::from_secs_f64(1040.0 * 8.0 / 1e6) + SimDuration::from_millis(10);
        assert_eq!(p.next_wake(), Some(SimTime::ZERO + expected));
        assert!(drain(
            &mut p,
            SimTime::ZERO + expected - SimDuration::from_micros(1)
        )
        .is_empty());
        assert_eq!(drain(&mut p, SimTime::ZERO + expected).len(), 1);
    }

    #[test]
    fn back_to_back_packets_serialize() {
        let cfg = LinkConfig::simple(8e6, SimDuration::ZERO); // 1 byte per us
        let mut p = Pipe::new(cfg, rng());
        p.send(pkt(1, 960), SimTime::ZERO); // 1000 wire bytes -> 1000 us
        p.send(pkt(2, 960), SimTime::ZERO);
        let first = drain(&mut p, SimTime::from_micros(1000));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].id, 1);
        let second = drain(&mut p, SimTime::from_micros(2000));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].id, 2);
    }

    #[test]
    fn queue_cap_drops_excess() {
        let mut cfg = LinkConfig::simple(8e3, SimDuration::ZERO); // 1 byte per ms
        cfg.queue_bytes = 2_000;
        let mut p = Pipe::new(cfg, rng());
        // Each packet is 1040 wire bytes; the second exceeds the 2000-byte cap.
        p.send(pkt(1, 1000), SimTime::ZERO);
        p.send(pkt(2, 1000), SimTime::ZERO);
        assert_eq!(p.stats.overflowed, 1);
        assert_eq!(p.in_flight(), 1);
    }

    #[test]
    fn loss_drops_packets_probabilistically() {
        let mut cfg = LinkConfig::simple(1e9, SimDuration::ZERO);
        cfg.loss = 0.5;
        let mut p = Pipe::new(cfg, rng());
        for i in 0..1000 {
            p.send(pkt(i, 100), SimTime::ZERO);
        }
        assert!(
            p.stats.lost > 350 && p.stats.lost < 650,
            "lost {}",
            p.stats.lost
        );
        assert_eq!(
            p.stats.delivered + p.in_flight() as u64 + p.stats.lost,
            1000
        );
    }

    #[test]
    fn jitter_preserves_fifo_order() {
        let mut cfg = LinkConfig::simple(1e9, SimDuration::from_millis(50));
        cfg.jitter_frac = 0.5;
        let mut p = Pipe::new(cfg, rng());
        for i in 0..200 {
            p.send(pkt(i, 100), SimTime::from_micros(i * 10));
        }
        let delivered = drain(&mut p, SimTime::from_secs(10));
        assert_eq!(delivered.len(), 200);
        let ids: Vec<u64> = delivered.iter().map(|p| p.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "reordered: {ids:?}");
    }

    #[test]
    fn nan_and_out_of_range_configs_are_rejected() {
        let mut cfg = LinkConfig::simple(1e6, SimDuration::from_millis(10));
        assert!(cfg.validate().is_ok());
        cfg.loss = f64::NAN;
        assert!(cfg.validate().unwrap_err().contains("loss"));
        cfg.loss = 1.5;
        assert!(cfg.validate().unwrap_err().contains("loss"));
        cfg.loss = -0.1;
        assert!(cfg.validate().unwrap_err().contains("loss"));
        cfg.loss = 0.0;
        cfg.jitter_frac = f64::NAN;
        assert!(cfg.validate().unwrap_err().contains("jitter"));
        cfg.jitter_frac = 0.0;
        cfg.bandwidth_bps = 0.0;
        assert!(cfg.validate().unwrap_err().contains("bandwidth"));
    }

    #[test]
    #[should_panic(expected = "invalid LinkConfig")]
    fn pipe_construction_panics_on_nan_loss() {
        let mut cfg = LinkConfig::simple(1e6, SimDuration::from_millis(10));
        cfg.loss = f64::NAN;
        Pipe::new(cfg, rng());
    }

    #[test]
    #[should_panic(expected = "invalid GilbertElliott")]
    fn burst_model_rejects_bad_probabilities() {
        let cfg = LinkConfig::simple(1e6, SimDuration::from_millis(10));
        let mut p = Pipe::new(cfg, rng());
        p.set_burst_loss(
            SimTime::ZERO,
            SimTime::from_secs(1),
            GilbertElliott {
                good_to_bad: 2.0,
                bad_to_good: 0.5,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
        );
    }

    #[test]
    fn outage_window_drops_everything_inside_it() {
        let cfg = LinkConfig::simple(1e9, SimDuration::ZERO);
        let mut p = Pipe::new(cfg, rng());
        p.add_outage(SimTime::from_secs(1), SimTime::from_secs(2));
        p.send(pkt(1, 100), SimTime::ZERO); // before: passes
        p.send(pkt(2, 100), SimTime::from_millis(1500)); // inside: dropped
        p.send(pkt(3, 100), SimTime::from_secs(2)); // at close: passes
        assert_eq!(p.stats.outage_dropped, 1);
        let ids: Vec<u64> = drain(&mut p, SimTime::from_secs(10))
            .iter()
            .map(|q| q.id)
            .collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn latency_spike_delays_packets_inside_the_window() {
        let cfg = LinkConfig::simple(1e9, SimDuration::from_millis(10));
        let mut p = Pipe::new(cfg, rng());
        p.add_latency_spike(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            SimDuration::from_millis(500),
        );
        p.send(pkt(1, 100), SimTime::from_millis(1500));
        let wake = p.next_wake().unwrap();
        assert!(wake >= SimTime::from_millis(2010), "arrival {wake}");
    }

    #[test]
    fn burst_loss_clusters_drops() {
        // Inside the window the GE channel loses everything in the bad
        // state and nothing in the good state, so drops come in runs.
        let cfg = LinkConfig::simple(1e9, SimDuration::ZERO);
        let mut p = Pipe::new(cfg, rng());
        p.set_burst_loss(
            SimTime::ZERO,
            SimTime::from_secs(1),
            GilbertElliott {
                good_to_bad: 0.05,
                bad_to_good: 0.2,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
        );
        let n = 2000;
        for i in 0..n {
            p.send(pkt(i, 100), SimTime::ZERO);
        }
        let lost = p.stats.lost;
        assert!(lost > 100, "expected bursts of loss, lost only {lost}");
        // Mean run length of delivered ids tells us losses cluster: with
        // i.i.d. loss at the same rate, gaps of >=3 consecutive drops
        // would be rare; GE with mean burst 5 produces many.
        let delivered: Vec<u64> = drain(&mut p, SimTime::from_secs(10))
            .iter()
            .map(|q| q.id)
            .collect();
        let mut long_gaps = 0;
        for w in delivered.windows(2) {
            if w[1] - w[0] > 3 {
                long_gaps += 1;
            }
        }
        assert!(long_gaps > 10, "losses not bursty: {long_gaps} long gaps");
        // Outside the window the configured loss (zero) applies again.
        let before = p.stats.lost;
        for i in 0..200 {
            p.send(pkt(n + i, 100), SimTime::from_secs(2));
        }
        assert_eq!(p.stats.lost, before);
    }

    #[test]
    fn backlog_reports_queue_depth() {
        let cfg = LinkConfig::simple(8e6, SimDuration::ZERO); // 1 MB/s
        let mut p = Pipe::new(cfg, rng());
        p.send(pkt(1, 9960), SimTime::ZERO); // 10_000 wire bytes
        assert_eq!(p.backlog_bytes(SimTime::ZERO), 10_000);
        assert_eq!(p.backlog_bytes(SimTime::from_millis(5)), 5_000);
        assert_eq!(p.backlog_bytes(SimTime::from_millis(20)), 0);
    }
}
