//! Carrier rate limiting: token-bucket traffic shaping and policing.
//!
//! Finding 7 of the paper attributes the different QoE impact of C1's 3G and
//! LTE throttling to the *discipline* applied when traffic exceeds the token
//! bucket rate: **shaping** (3G) queues the excess and schedules it later,
//! while **policing** (LTE) drops it, producing TCP retransmissions and a
//! bursty throughput profile. Both disciplines here share one token-bucket
//! core; only the over-limit action differs.

use crate::packet::IpPacket;
use simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Over-limit action of a rate limiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Queue excess traffic and release it when tokens accumulate (3G).
    Shape,
    /// Drop excess traffic immediately (LTE).
    Police,
}

/// Rate limiter parameters.
#[derive(Debug, Clone)]
pub struct ShaperConfig {
    /// Sustained rate in bits per second.
    pub rate_bps: f64,
    /// Token bucket depth in bytes (burst allowance).
    pub bucket_bytes: f64,
    /// Over-limit action.
    pub discipline: Discipline,
    /// Shaping queue bound in bytes; excess beyond this is dropped even when
    /// shaping (real shapers have finite buffers). Ignored for policing.
    pub queue_bytes: u64,
}

impl ShaperConfig {
    /// Shaping configuration (3G-style throttle). The queue holds ~4 s of
    /// traffic at a 128 kb/s throttle — deep enough for the smooth
    /// plateau the paper observed, shallow enough not to model absurd
    /// bufferbloat.
    pub fn shaping(rate_bps: f64) -> ShaperConfig {
        ShaperConfig {
            rate_bps,
            bucket_bytes: 16_000.0,
            discipline: Discipline::Shape,
            queue_bytes: 64_000,
        }
    }

    /// Policing configuration (LTE-style throttle). The small bucket gives
    /// TCP almost no burst tolerance — excess is dropped immediately, which
    /// is what makes policing so much harsher on QoE than shaping at the
    /// same token rate (Finding 7).
    pub fn policing(rate_bps: f64) -> ShaperConfig {
        ShaperConfig {
            rate_bps,
            bucket_bytes: 8_000.0,
            discipline: Discipline::Police,
            queue_bytes: 0,
        }
    }
}

/// Rate limiter counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShaperStats {
    /// Packets offered.
    pub offered: u64,
    /// Packets passed (possibly delayed).
    pub passed: u64,
    /// Packets dropped (policing over-limit, or shaping queue overflow).
    pub dropped: u64,
}

/// A token-bucket rate limiter stage.
///
/// Usage: [`RateLimiter::offer`] packets as they arrive, then drain
/// [`RateLimiter::take_ready`] each tick; [`RateLimiter::next_wake`] reports
/// when queued traffic next becomes eligible.
pub struct RateLimiter {
    cfg: ShaperConfig,
    tokens: f64,
    last_refill: SimTime,
    queue: VecDeque<IpPacket>,
    queued_bytes: u64,
    /// Counters.
    pub stats: ShaperStats,
}

impl RateLimiter {
    /// New limiter with a full bucket.
    pub fn new(cfg: ShaperConfig) -> RateLimiter {
        let tokens = cfg.bucket_bytes;
        RateLimiter {
            cfg,
            tokens,
            last_refill: SimTime::ZERO,
            queue: VecDeque::new(),
            queued_bytes: 0,
            stats: ShaperStats::default(),
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + dt * self.cfg.rate_bps / 8.0).min(self.cfg.bucket_bytes);
        self.last_refill = now;
    }

    /// Offer a packet at `now`. Returns the packet immediately when it
    /// passes un-delayed; shaped packets come back later via `take_ready`.
    pub fn offer(&mut self, pkt: IpPacket, now: SimTime) -> Option<IpPacket> {
        self.stats.offered += 1;
        self.refill(now);
        let len = pkt.wire_len() as f64;
        match self.cfg.discipline {
            Discipline::Police => {
                if self.tokens >= len {
                    self.tokens -= len;
                    self.stats.passed += 1;
                    Some(pkt)
                } else {
                    self.stats.dropped += 1;
                    None
                }
            }
            Discipline::Shape => {
                if self.queue.is_empty() && self.tokens >= len {
                    self.tokens -= len;
                    self.stats.passed += 1;
                    return Some(pkt);
                }
                if self.queued_bytes + pkt.wire_len() as u64 > self.cfg.queue_bytes {
                    self.stats.dropped += 1;
                    return None;
                }
                self.queued_bytes += pkt.wire_len() as u64;
                self.queue.push_back(pkt);
                None
            }
        }
    }

    /// Append to `out` every queued packet whose tokens have accumulated by
    /// `now`.
    pub fn take_ready(&mut self, now: SimTime, out: &mut Vec<IpPacket>) {
        self.refill(now);
        while let Some(front) = self.queue.front() {
            let len = front.wire_len() as f64;
            if self.tokens < len {
                break;
            }
            self.tokens -= len;
            let pkt = self.queue.pop_front().expect("front exists");
            self.queued_bytes -= pkt.wire_len() as u64;
            self.stats.passed += 1;
            out.push(pkt);
        }
    }

    /// When the head-of-line packet becomes eligible, if anything is queued.
    pub fn next_wake(&self) -> Option<SimTime> {
        let front = self.queue.front()?;
        let need = front.wire_len() as f64 - self.tokens;
        if need <= 0.0 {
            return Some(self.last_refill);
        }
        // Round the wait up to the clock granularity: a sub-microsecond
        // token deficit must still move time forward, or the simulation
        // would spin at a fixed instant.
        let wait = SimDuration::from_secs_f64(need * 8.0 / self.cfg.rate_bps)
            .max(SimDuration::from_micros(1));
        Some(self.last_refill + wait)
    }

    /// Bytes currently held in the shaping queue.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Internal state snapshot for diagnostics; the token count is exact.
    pub fn debug_state(&self) -> String {
        format!(
            "tokens={} queue={} front={:?} last_refill={:?}",
            self.tokens,
            self.queue.len(),
            self.queue.front().map(|p| p.wire_len()),
            self.last_refill
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(rl: &mut RateLimiter, now: SimTime) -> Vec<IpPacket> {
        let mut out = Vec::new();
        rl.take_ready(now, &mut out);
        out
    }
    use crate::addr::{IpAddr, SocketAddr};
    use crate::packet::Proto;

    fn pkt(id: u64, payload: u32) -> IpPacket {
        IpPacket {
            id,
            src: SocketAddr::new(IpAddr::new(1, 1, 1, 1), 1),
            dst: SocketAddr::new(IpAddr::new(2, 2, 2, 2), 2),
            proto: Proto::Tcp,
            tcp: None,
            payload_len: payload,
            udp_payload: None,
            markers: Vec::new(),
        }
    }

    #[test]
    fn policing_passes_within_bucket_then_drops() {
        // 8 kB bucket, tiny refill rate.
        let mut rl = RateLimiter::new(ShaperConfig::policing(8_000.0));
        let mut passed = 0;
        for i in 0..30 {
            if rl.offer(pkt(i, 960), SimTime::ZERO).is_some() {
                passed += 1;
            }
        }
        assert_eq!(passed, 8); // 8 * 1000 wire bytes fit the bucket
        assert_eq!(rl.stats.dropped, 22);
    }

    #[test]
    fn policing_recovers_as_tokens_refill() {
        let mut rl = RateLimiter::new(ShaperConfig::policing(80_000.0)); // 10 kB/s
                                                                         // Exhaust the bucket.
        for i in 0..8 {
            assert!(rl.offer(pkt(i, 960), SimTime::ZERO).is_some());
        }
        assert!(rl.offer(pkt(99, 960), SimTime::ZERO).is_none());
        // After 0.1 s, 1000 bytes have refilled: one packet passes.
        let later = SimTime::from_millis(100);
        assert!(rl.offer(pkt(100, 960), later).is_some());
        assert!(rl.offer(pkt(101, 960), later).is_none());
    }

    #[test]
    fn shaping_queues_and_releases_at_rate() {
        let mut rl = RateLimiter::new(ShaperConfig::shaping(80_000.0)); // 10 kB/s
                                                                        // Bucket passes the first 16 immediately, rest queue.
        let mut immediate = 0;
        for i in 0..20 {
            if rl.offer(pkt(i, 960), SimTime::ZERO).is_some() {
                immediate += 1;
            }
        }
        assert_eq!(immediate, 16);
        assert_eq!(rl.queued_bytes(), 4_000);
        assert_eq!(rl.stats.dropped, 0);
        // Head of line needs 1000 bytes = 0.1 s of tokens.
        let wake = rl.next_wake().expect("queued");
        assert_eq!(wake, SimTime::from_millis(100));
        assert!(ready(&mut rl, SimTime::from_millis(99)).is_empty());
        assert_eq!(ready(&mut rl, SimTime::from_millis(100)).len(), 1);
        // Remaining three release over the next 0.3 s.
        assert_eq!(ready(&mut rl, SimTime::from_millis(400)).len(), 3);
        assert_eq!(rl.queued_bytes(), 0);
    }

    #[test]
    fn shaping_queue_overflows_to_drops() {
        let mut cfg = ShaperConfig::shaping(8_000.0);
        cfg.queue_bytes = 3_000;
        let mut rl = RateLimiter::new(cfg);
        let mut dropped_seen = false;
        for i in 0..40 {
            rl.offer(pkt(i, 960), SimTime::ZERO);
        }
        if rl.stats.dropped > 0 {
            dropped_seen = true;
        }
        assert!(dropped_seen);
        assert!(rl.queued_bytes() <= 3_000);
    }

    #[test]
    fn shaping_preserves_order() {
        let mut rl = RateLimiter::new(ShaperConfig::shaping(800_000.0));
        for i in 0..64 {
            rl.offer(pkt(i, 960), SimTime::ZERO);
        }
        let out = ready(&mut rl, SimTime::from_secs(10));
        let ids: Vec<u64> = out.iter().map(|p| p.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn long_run_shaped_rate_matches_configured_rate() {
        let rate = 100_000.0; // 12.5 kB/s
        let mut rl = RateLimiter::new(ShaperConfig::shaping(rate));
        let mut passed_bytes = 0u64;
        let mut t = SimTime::ZERO;
        let step = SimDuration::from_millis(10);
        let mut next_id = 0;
        for _ in 0..10_000 {
            // Offer faster than the rate.
            for _ in 0..2 {
                if let Some(p) = rl.offer(pkt(next_id, 960), t) {
                    passed_bytes += p.wire_len() as u64;
                }
                next_id += 1;
            }
            for p in ready(&mut rl, t) {
                passed_bytes += p.wire_len() as u64;
            }
            t += step;
        }
        let secs = 100.0;
        let achieved_bps = passed_bytes as f64 * 8.0 / secs;
        // Within 10% of the configured rate (bucket burst adds a little).
        assert!(
            (achieved_bps - rate).abs() / rate < 0.10,
            "achieved {achieved_bps} vs {rate}"
        );
    }
}
