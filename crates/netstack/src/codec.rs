//! The packet trace's on-disk column layout.
//!
//! A persisted trace is a `trace::column` record log: the packet count, one
//! delta-varint stamp column, then these columns, each length-framed and
//! walked in lockstep by the decoder:
//!
//! | column       | contents                                              |
//! |--------------|-------------------------------------------------------|
//! | `flow`       | varint index into the flow dictionary, per packet     |
//! | `dict`       | one entry per new flow, in first-use order: source ip and port, destination ip and port (little-endian), protocol tag (6 or 17) |
//! | `dir`        | run-length: 0 uplink, 1 downlink                      |
//! | `id`         | zigzag delta from the flow's previous packet id       |
//! | `tcp`        | run-length: 0 without a TCP header, else 1 + flag bits |
//! | `seq`, `ack` | zigzag deltas per flow, TCP packets only              |
//! | `len`        | run-length `payload_len`                              |
//! | `udp`        | run-length: 1 when a UDP payload is present           |
//! | `udp_bytes`  | varint length then the raw payload, per present payload |
//! | `markers`    | run-length marker count                               |
//! | `marker_pos` | zigzag delta from the flow's previous marker position |
//! | `marker`     | raw little-endian `u64` marker values                 |
//!
//! A flow here is the directed `(src, dst, proto)` triple, so per-flow
//! deltas follow one sender's id counter and one direction's sequence
//! space. Every field [`IpPacket`] equality covers is stored, so a trace
//! round-trips losslessly — including the application stream markers that
//! are invisible on the simulated wire but part of the in-memory record.

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use trace::column::{ColumnDecoder, ColumnEncoder, RleReader, RleWriter};
use trace::{Reader, TraceError, Writer};

use crate::addr::{IpAddr, SocketAddr};
use crate::packet::{IpPacket, Proto, TcpFlags, TcpHeader};
use crate::pcap::{Direction, PacketRecord};

/// The run-length tag of a direction: 0 uplink, 1 downlink.
pub fn direction_tag(dir: Direction) -> u64 {
    match dir {
        Direction::Uplink => 0,
        Direction::Downlink => 1,
    }
}

/// Inverse of [`direction_tag`] for a tag already bounded by 1.
pub fn direction_from_tag(tag: u64) -> Direction {
    if tag == 0 {
        Direction::Uplink
    } else {
        Direction::Downlink
    }
}

/// Bytes of one flow dictionary entry.
const DICT_ENTRY: usize = 13;

type FlowId = (SocketAddr, SocketAddr, Proto);

/// The last value of each per-flow delta column.
#[derive(Default, Clone, Copy)]
struct FlowState {
    id: u64,
    seq: u64,
    ack: u64,
    marker_pos: u64,
}

/// Column encoder of [`PacketRecord`]s.
#[derive(Default)]
pub(crate) struct PacketColumns {
    index: HashMap<FlowId, usize>,
    state: Vec<FlowState>,
    flow: Writer,
    dict: Writer,
    dir: RleWriter,
    id: Writer,
    tcp: RleWriter,
    seq: Writer,
    ack: Writer,
    len: RleWriter,
    udp: RleWriter,
    udp_bytes: Writer,
    markers: RleWriter,
    marker_pos: Writer,
    marker: Writer,
}

impl ColumnEncoder<PacketRecord> for PacketColumns {
    fn push(&mut self, rec: &PacketRecord) {
        let p = &rec.pkt;
        let fresh = self.state.len();
        let f = *self.index.entry((p.src, p.dst, p.proto)).or_insert(fresh);
        if f == fresh {
            self.state.push(FlowState::default());
            for addr in [p.src, p.dst] {
                self.dict.u32(addr.ip.0);
                self.dict.u16(addr.port);
            }
            self.dict.u8(match p.proto {
                Proto::Tcp => 6,
                Proto::Udp => 17,
            });
        }
        self.flow.varint(f as u64);
        let st = &mut self.state[f];
        self.dir.push(direction_tag(rec.dir));
        self.id.delta(&mut st.id, p.id);
        match p.tcp {
            None => self.tcp.push(0),
            Some(h) => {
                self.tcp.push(1 + u64::from(h.flags.bits()));
                self.seq.delta(&mut st.seq, h.seq);
                self.ack.delta(&mut st.ack, h.ack);
            }
        }
        self.len.push(u64::from(p.payload_len));
        self.udp.push(p.udp_payload.is_some() as u64);
        if let Some(b) = &p.udp_payload {
            self.udp_bytes.varint(b.len() as u64);
            self.udp_bytes.bytes(b);
        }
        self.markers.push(p.markers.len() as u64);
        for &(pos, marker) in &p.markers {
            self.marker_pos.delta(&mut st.marker_pos, pos);
            self.marker.u64(marker);
        }
    }

    fn finish(self, w: &mut Writer) {
        w.column(&self.flow.finish());
        w.column(&self.dict.finish());
        self.dir.finish(w);
        w.column(&self.id.finish());
        self.tcp.finish(w);
        w.column(&self.seq.finish());
        w.column(&self.ack.finish());
        self.len.finish(w);
        self.udp.finish(w);
        w.column(&self.udp_bytes.finish());
        self.markers.finish(w);
        w.column(&self.marker_pos.finish());
        w.column(&self.marker.finish());
    }
}

/// Column decoder of [`PacketRecord`]s.
pub(crate) struct PacketColumnsReader<'a> {
    seen: HashSet<&'a [u8]>,
    flows: Vec<(FlowId, FlowState)>,
    flow: Reader<'a>,
    dict: Reader<'a>,
    dir: RleReader<'a>,
    id: Reader<'a>,
    tcp: RleReader<'a>,
    seq: Reader<'a>,
    ack: Reader<'a>,
    len: RleReader<'a>,
    udp: RleReader<'a>,
    udp_bytes: Reader<'a>,
    markers: RleReader<'a>,
    marker_pos: Reader<'a>,
    marker: Reader<'a>,
}

impl<'a> PacketColumnsReader<'a> {
    /// Read the dictionary entry of the next new flow, rejecting a
    /// duplicate (an encoder never writes one flow twice).
    fn new_flow(&mut self) -> Result<FlowId, TraceError> {
        let raw = self.dict.take(DICT_ENTRY)?;
        if !self.seen.insert(raw) {
            return Err(TraceError::Corrupt(
                "flow dictionary repeats an entry".into(),
            ));
        }
        let mut e = Reader::new(raw);
        let src = SocketAddr::new(IpAddr(e.u32()?), e.u16()?);
        let dst = SocketAddr::new(IpAddr(e.u32()?), e.u16()?);
        let proto = match e.u8()? {
            6 => Proto::Tcp,
            17 => Proto::Udp,
            other => return Err(TraceError::Corrupt(format!("bad Proto tag {other}"))),
        };
        Ok((src, dst, proto))
    }
}

impl<'a> ColumnDecoder<'a, PacketRecord> for PacketColumnsReader<'a> {
    fn open(r: &mut Reader<'a>) -> Result<Self, TraceError> {
        Ok(PacketColumnsReader {
            seen: HashSet::new(),
            flows: Vec::new(),
            flow: r.column()?,
            dict: r.column()?,
            dir: RleReader::open(r, 1)?,
            id: r.column()?,
            tcp: RleReader::open(r, 16)?,
            seq: r.column()?,
            ack: r.column()?,
            len: RleReader::open(r, u64::from(u32::MAX))?,
            udp: RleReader::open(r, 1)?,
            udp_bytes: r.column()?,
            markers: RleReader::open(r, u64::MAX)?,
            marker_pos: r.column()?,
            marker: r.column()?,
        })
    }

    fn next(&mut self) -> Result<PacketRecord, TraceError> {
        let f = self.flow.varint()?;
        if f == self.flows.len() as u64 {
            let id = self.new_flow()?;
            self.flows.push((id, FlowState::default()));
        } else if f > self.flows.len() as u64 {
            return Err(TraceError::Corrupt(format!(
                "flow index {f} skips past the {} known flows",
                self.flows.len()
            )));
        }
        let ((src, dst, proto), st) = &mut self.flows[f as usize];
        let dir = direction_from_tag(self.dir.read()?);
        let id = self.id.delta(&mut st.id)?;
        let tcp = match self.tcp.read()? {
            0 => None,
            tag => Some(TcpHeader {
                seq: self.seq.delta(&mut st.seq)?,
                ack: self.ack.delta(&mut st.ack)?,
                flags: TcpFlags::from_bits(tag as u8 - 1)
                    .ok_or_else(|| TraceError::Corrupt(format!("bad TCP tag {tag}")))?,
            }),
        };
        let payload_len = self.len.read()? as u32;
        let udp_payload = match self.udp.read()? {
            0 => None,
            _ => {
                let n = self.udp_bytes.varint()?;
                if n > self.udp_bytes.remaining() as u64 {
                    return Err(TraceError::UnexpectedEof);
                }
                Some(Bytes::copy_from_slice(self.udp_bytes.take(n as usize)?))
            }
        };
        let count = self.markers.read()?;
        // Every marker value takes 8 bytes: bound the count before
        // allocating.
        if count > (self.marker.remaining() / 8) as u64 {
            return Err(TraceError::Corrupt(format!(
                "marker count {count} exceeds the marker column"
            )));
        }
        let mut markers = Vec::with_capacity(count as usize);
        for _ in 0..count {
            markers.push((
                self.marker_pos.delta(&mut st.marker_pos)?,
                self.marker.u64()?,
            ));
        }
        Ok(PacketRecord {
            dir,
            pkt: IpPacket {
                id,
                src: *src,
                dst: *dst,
                proto: *proto,
                tcp,
                payload_len,
                udp_payload,
                markers,
            },
        })
    }

    fn finish(self) -> Result<(), TraceError> {
        self.flow.expect_end()?;
        self.dict.expect_end()?;
        self.dir.finish()?;
        self.id.expect_end()?;
        self.tcp.finish()?;
        self.seq.expect_end()?;
        self.ack.expect_end()?;
        self.len.finish()?;
        self.udp.finish()?;
        self.udp_bytes.expect_end()?;
        self.markers.finish()?;
        self.marker_pos.expect_end()?;
        self.marker.expect_end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::{read_trace, write_trace};
    use simcore::{RecordLog, SimTime};

    fn rec(dir: Direction, id: u64, proto: Proto) -> PacketRecord {
        PacketRecord {
            dir,
            pkt: IpPacket {
                id,
                src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000),
                dst: SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443),
                proto,
                tcp: Some(TcpHeader {
                    seq: 1234,
                    ack: 77,
                    flags: TcpFlags {
                        syn: true,
                        ack: true,
                        fin: false,
                        rst: false,
                    },
                }),
                payload_len: 512,
                udp_payload: Some(Bytes::copy_from_slice(b"dns-ish")),
                markers: vec![(100, 7), (612, 8)],
            },
        }
    }

    #[test]
    fn packet_record_round_trips() {
        let mut trace = RecordLog::new();
        trace.push(
            SimTime::from_micros(3),
            rec(Direction::Downlink, 99, Proto::Udp),
        );
        let mut other = rec(Direction::Uplink, u64::MAX, Proto::Tcp);
        other.pkt.tcp = None;
        other.pkt.udp_payload = None;
        other.pkt.markers.clear();
        trace.push(SimTime::from_micros(3), other);
        trace.push(
            SimTime::from_micros(8),
            rec(Direction::Downlink, 0, Proto::Udp),
        );
        let bytes = write_trace(&trace);
        assert_eq!(read_trace(&bytes).unwrap(), trace);
    }

    #[test]
    fn flows_share_one_dictionary_entry() {
        let mut trace = RecordLog::new();
        for i in 0..4 {
            trace.push(
                SimTime::from_micros(i),
                rec(Direction::Uplink, i, Proto::Tcp),
            );
        }
        let bytes = write_trace(&trace);
        let mut r = Reader::open(&bytes, crate::pcap::TRACE_MAGIC, trace::FORMAT_VERSION).unwrap();
        r.varint().unwrap();
        r.column().unwrap();
        assert_eq!(
            r.column().unwrap().remaining(),
            4,
            "one flow index per packet"
        );
        assert_eq!(r.column().unwrap().remaining(), DICT_ENTRY, "one flow");
    }

    #[test]
    fn repeated_dictionary_entries_are_rejected() {
        let mut trace = RecordLog::new();
        let a = rec(Direction::Uplink, 1, Proto::Tcp);
        let mut b = a.clone();
        b.pkt.src.port += 1;
        trace.push(SimTime::ZERO, a.clone());
        trace.push(SimTime::ZERO, b.clone());
        let mut bytes = write_trace(&trace);
        assert_eq!(read_trace(&bytes).unwrap(), trace);
        // Rewrite the second flow's source port to the first's: the
        // dictionary now names one flow twice.
        let entry = |p: &PacketRecord| {
            let mut w = Writer::new();
            for addr in [p.pkt.src, p.pkt.dst] {
                w.u32(addr.ip.0);
                w.u16(addr.port);
            }
            w.u8(6);
            w.finish()
        };
        let (ea, eb) = (entry(&a), entry(&b));
        let at = bytes
            .windows(DICT_ENTRY)
            .position(|w| w == eb.as_slice())
            .unwrap();
        bytes[at..at + DICT_ENTRY].copy_from_slice(&ea);
        assert!(read_trace(&bytes).is_err());
    }
}
