//! Packet capture — the tcpdump substitute.
//!
//! The UI controller runs tcpdump on the device while replaying behaviour
//! (§4.3.2); the transport/network analyzer later consumes the trace. Our
//! capture taps the device's IP boundary and records full packets with the
//! capture timestamp and direction.

use crate::addr::FlowKey;
use crate::packet::IpPacket;
use simcore::{RecordLog, SimTime};

/// Direction of a captured packet relative to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Sent by the device.
    Uplink,
    /// Received by the device.
    Downlink,
}

/// One captured packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRecord {
    /// Direction relative to the device.
    pub dir: Direction,
    /// The packet, headers and (for UDP) payload included.
    pub pkt: IpPacket,
}

impl PacketRecord {
    /// Normalized (bidirectional) flow key of the packet.
    pub fn flow(&self) -> FlowKey {
        self.pkt.flow().normalized()
    }
}

/// An in-memory packet trace.
#[derive(Debug, Default)]
pub struct Capture {
    log: RecordLog<PacketRecord>,
}

impl Capture {
    /// New empty capture.
    pub fn new() -> Capture {
        Capture::default()
    }

    /// New capture pre-sized for `cap` packets — the buffered-writer mode.
    /// tcpdump buffers its ring before touching the disk; our in-memory
    /// substitute pre-reserves so recording a packet on the hot send/receive
    /// path never triggers a reallocation-and-copy of the whole trace.
    pub fn with_capacity(cap: usize) -> Capture {
        Capture {
            log: RecordLog::with_capacity(cap),
        }
    }

    /// Record a packet crossing the device boundary at `now`.
    pub fn record(&mut self, dir: Direction, pkt: &IpPacket, now: SimTime) {
        self.log.push(
            now,
            PacketRecord {
                dir,
                pkt: pkt.clone(),
            },
        );
    }

    /// The raw trace.
    pub fn trace(&self) -> &RecordLog<PacketRecord> {
        &self.log
    }

    /// Take ownership of the trace, leaving the capture empty (end of an
    /// experiment: hand the artifact to the offline analyzer).
    pub fn take_trace(&mut self) -> RecordLog<PacketRecord> {
        core::mem::take(&mut self.log)
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Total wire bytes captured in each direction: `(uplink, downlink)`.
    pub fn volume(&self) -> (u64, u64) {
        let mut up = 0;
        let mut down = 0;
        for (_, rec) in self.log.iter() {
            match rec.dir {
                Direction::Uplink => up += rec.pkt.wire_len() as u64,
                Direction::Downlink => down += rec.pkt.wire_len() as u64,
            }
        }
        (up, down)
    }
}

/// File magic of a persisted packet trace (the pcap stand-in).
pub const TRACE_MAGIC: &[u8; 4] = b"QPCP";

/// Serialize a packet trace to its on-disk form: magic + format version +
/// timestamped [`PacketRecord`] frames (the pcap-like framing).
pub fn write_trace(trace: &RecordLog<PacketRecord>) -> Vec<u8> {
    trace::encode_artifact(TRACE_MAGIC, trace::FORMAT_VERSION, trace)
}

/// Parse a packet trace produced by [`write_trace`], rejecting wrong
/// magic/version, truncation, and out-of-order timestamps.
pub fn read_trace(bytes: &[u8]) -> Result<RecordLog<PacketRecord>, trace::TraceError> {
    trace::decode_artifact(bytes, TRACE_MAGIC, trace::FORMAT_VERSION)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{IpAddr, SocketAddr};
    use crate::packet::Proto;

    fn pkt(id: u64, len: u32) -> IpPacket {
        IpPacket {
            id,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000),
            dst: SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443),
            proto: Proto::Tcp,
            tcp: None,
            payload_len: len,
            udp_payload: None,
            markers: Vec::new(),
        }
    }

    #[test]
    fn records_and_windows() {
        let mut cap = Capture::new();
        cap.record(Direction::Uplink, &pkt(1, 100), SimTime::from_secs(1));
        cap.record(Direction::Downlink, &pkt(2, 200), SimTime::from_secs(2));
        cap.record(Direction::Uplink, &pkt(3, 300), SimTime::from_secs(3));
        assert_eq!(cap.len(), 3);
        let w = cap
            .trace()
            .window(SimTime::from_secs(2), SimTime::from_secs(3));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].record.pkt.id, 2);
    }

    #[test]
    fn volume_sums_wire_bytes_by_direction() {
        let mut cap = Capture::new();
        cap.record(Direction::Uplink, &pkt(1, 100), SimTime::ZERO);
        cap.record(Direction::Downlink, &pkt(2, 200), SimTime::ZERO);
        let (up, down) = cap.volume();
        assert_eq!(up, 140);
        assert_eq!(down, 240);
    }

    #[test]
    fn trace_round_trips_through_bytes() {
        let mut cap = Capture::new();
        cap.record(Direction::Uplink, &pkt(1, 100), SimTime::from_secs(1));
        cap.record(Direction::Downlink, &pkt(2, 200), SimTime::from_secs(2));
        let trace = cap.take_trace();
        let bytes = write_trace(&trace);
        assert_eq!(read_trace(&bytes).unwrap(), trace);
        assert!(read_trace(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn flow_key_is_direction_normalized() {
        let mut cap = Capture::new();
        let fwd = pkt(1, 0);
        let mut rev = pkt(2, 0);
        core::mem::swap(&mut rev.src, &mut rev.dst);
        cap.record(Direction::Uplink, &fwd, SimTime::ZERO);
        cap.record(Direction::Downlink, &rev, SimTime::ZERO);
        let recs = cap.trace().entries();
        assert_eq!(recs[0].record.flow(), recs[1].record.flow());
    }
}
