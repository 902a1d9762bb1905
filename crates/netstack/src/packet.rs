//! Simulated IP packets with real wire bytes.
//!
//! Packets carry a structured header plus a *byte-exact* wire representation
//! ([`IpPacket::wire_bytes`]). The radio link layer segments these bytes into
//! RLC PDUs, and the QxDM-style logger records only the first two payload
//! bytes of each PDU — so the cross-layer long-jump mapping algorithm (§5.4.2
//! of the paper) operates on genuine byte content with genuine ambiguity, not
//! on synthetic IDs.

use crate::addr::{FlowKey, SocketAddr};
use std::sync::Arc;

/// Combined IP + transport header size in bytes (20 IP + 20 TCP/UDP-padded).
pub const HEADER_BYTES: u32 = 40;

/// Maximum TCP segment payload.
pub const MSS: u32 = 1400;

/// Transport protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// TCP segment.
    Tcp,
    /// UDP datagram (used by the simulated DNS).
    Udp,
}

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Connection request.
    pub syn: bool,
    /// Acknowledgement field valid.
    pub ack: bool,
    /// Sender is done transmitting.
    pub fin: bool,
    /// Abort.
    pub rst: bool,
}

impl TcpFlags {
    /// The flags packed as `syn | ack << 1 | fin << 2 | rst << 3`, their
    /// wire-header and trace-bundle form.
    pub fn bits(&self) -> u8 {
        (self.syn as u8)
            | ((self.ack as u8) << 1)
            | ((self.fin as u8) << 2)
            | ((self.rst as u8) << 3)
    }

    /// Unpack [`TcpFlags::bits`]; `None` when a bit above the four flags is
    /// set.
    pub fn from_bits(b: u8) -> Option<TcpFlags> {
        (b & !0x0F == 0).then_some(TcpFlags {
            syn: b & 1 != 0,
            ack: b & 2 != 0,
            fin: b & 4 != 0,
            rst: b & 8 != 0,
        })
    }
}

/// TCP header fields the simulation models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// First payload byte's sequence number (byte offset in the stream).
    pub seq: u64,
    /// Cumulative acknowledgement (next expected byte).
    pub ack: u64,
    /// Flags.
    pub flags: TcpFlags,
}

/// A simulated IP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpPacket {
    /// Globally unique packet id (assigned by the sender's host stack).
    pub id: u64,
    /// Source endpoint.
    pub src: SocketAddr,
    /// Destination endpoint.
    pub dst: SocketAddr,
    /// Transport protocol.
    pub proto: Proto,
    /// TCP header when `proto == Tcp`.
    pub tcp: Option<TcpHeader>,
    /// Transport payload length in bytes. TCP payload content is generated
    /// deterministically from the flow and sequence number; UDP payloads are
    /// carried explicitly in `udp_payload`.
    pub payload_len: u32,
    /// Explicit payload for UDP datagrams (DNS queries/responses); shared,
    /// so cloning a packet does not copy it.
    pub udp_payload: Option<Arc<[u8]>>,
    /// Application stream markers carried by this segment: `(stream_end_pos,
    /// marker)` pairs. A marker stands in for application-layer framing the
    /// synthetic payload bytes would otherwise encode (request ids, response
    /// boundaries); it is delivered to the receiving application when the
    /// in-order stream passes `stream_end_pos`. Markers do not contribute to
    /// the wire size and are invisible to the packet-trace analyzers.
    pub markers: Vec<(u64, u64)>,
}

impl IpPacket {
    /// Total on-the-wire size including headers.
    pub fn wire_len(&self) -> u32 {
        HEADER_BYTES + self.payload_len
    }

    /// Directed flow key of this packet.
    pub fn flow(&self) -> FlowKey {
        FlowKey::new(self.src, self.dst)
    }

    /// The deterministic 40-byte header encoding shared by [`wire_bytes`]
    /// and [`wire_view`] (`Self::wire_bytes`, `Self::wire_view`).
    fn header_bytes(&self) -> [u8; HEADER_BYTES as usize] {
        let (seq, ack, flags) = match self.tcp {
            Some(h) => (h.seq, h.ack, h.flags.bits()),
            None => (0, 0, 0),
        };
        let mut hdr = [0u8; HEADER_BYTES as usize];
        // "IP" header: version/proto marker, length, the id's low six bytes,
        // addresses.
        hdr[0] = 0x45;
        hdr[1] = match self.proto {
            Proto::Tcp => 6,
            Proto::Udp => 17,
        };
        hdr[2..4].copy_from_slice(&(self.wire_len() as u16).to_be_bytes());
        hdr[4..10].copy_from_slice(&self.id.to_be_bytes()[2..]);
        hdr[10..14].copy_from_slice(&self.src.ip.0.to_be_bytes());
        hdr[14..18].copy_from_slice(&self.dst.ip.0.to_be_bytes());
        // "Transport" header; byte 39 stays zero.
        hdr[18..20].copy_from_slice(&self.src.port.to_be_bytes());
        hdr[20..22].copy_from_slice(&self.dst.port.to_be_bytes());
        hdr[22..30].copy_from_slice(&seq.to_be_bytes());
        hdr[30..38].copy_from_slice(&ack.to_be_bytes());
        hdr[38] = flags;
        hdr
    }

    /// The generator for this packet's payload bytes.
    fn body_gen(&self) -> WireBody {
        match (&self.udp_payload, self.tcp) {
            (Some(p), _) => WireBody::Explicit(p.clone()),
            (None, Some(h)) => WireBody::Stream {
                key: flow_stream_key(self.flow()),
                base: h.seq,
            },
            (None, None) => WireBody::Stream {
                key: self.id,
                base: 0,
            },
        }
    }

    /// Serialize the packet into its wire bytes (headers + payload).
    ///
    /// The header layout is a simplified but deterministic 40-byte encoding;
    /// the TCP payload is a pseudorandom-but-deterministic pattern keyed by
    /// the flow and sequence number, so retransmissions carry identical bytes
    /// (as on a real wire) while distinct stream positions differ.
    ///
    /// Consumers that only sample a few positions (the RLC segmenter and the
    /// long-jump mapper read two bytes per PDU) should prefer
    /// [`IpPacket::wire_view`], which serves bytes on demand without
    /// materializing the payload.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut buf = vec![0u8; self.wire_len() as usize];
        let (header, body) = buf.split_at_mut(HEADER_BYTES as usize);
        header.copy_from_slice(&self.header_bytes());
        match self.body_gen() {
            WireBody::Explicit(p) => {
                // Truncate or zero-pad to the declared payload length.
                let n = body.len().min(p.len());
                body[..n].copy_from_slice(&p[..n]);
            }
            WireBody::Stream { key, base } => {
                // Fill the slice in place rather than appending byte by
                // byte: the loop has no per-byte capacity check, so the
                // splitmix rounds vectorize.
                for (i, b) in body.iter_mut().enumerate() {
                    *b = stream_byte(key, base.wrapping_add(i as u64));
                }
            }
        }
        buf
    }

    /// A zero-materialization view of the wire bytes: serves any position of
    /// [`IpPacket::wire_bytes`] on demand without generating the buffer.
    ///
    /// This is the long-jump principle applied to the simulator itself: the
    /// RLC segmenter records two payload bytes per 40-byte PDU and the
    /// mapper compares two bytes per chain hop, so materializing the full
    /// pseudorandom payload (three multiplies per byte) costs more than
    /// every downstream use of it combined.
    pub fn wire_view(&self) -> WireView {
        WireView {
            header: self.header_bytes(),
            wire_len: self.wire_len() as usize,
            body: self.body_gen(),
        }
    }
}

/// Payload generator behind a [`WireView`].
#[derive(Debug, Clone)]
enum WireBody {
    /// Explicitly carried bytes (UDP), zero-padded to the declared length.
    Explicit(Arc<[u8]>),
    /// Deterministic stream pattern: byte `j` is `stream_byte(key, base + j)`.
    Stream { key: u64, base: u64 },
}

/// On-demand view of a packet's wire bytes — see [`IpPacket::wire_view`].
/// `view.at(i)` equals `pkt.wire_bytes()[i]` for every `i < view.len()`.
#[derive(Debug, Clone)]
pub struct WireView {
    header: [u8; HEADER_BYTES as usize],
    wire_len: usize,
    body: WireBody,
}

impl WireView {
    /// Total wire length in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.wire_len
    }

    /// The byte at wire position `i`. Panics when `i >= len()`, matching
    /// slice indexing on the materialized bytes.
    pub fn at(&self, i: usize) -> u8 {
        assert!(i < self.wire_len, "wire index {i} out of {}", self.wire_len);
        if i < HEADER_BYTES as usize {
            return self.header[i];
        }
        let j = i - HEADER_BYTES as usize;
        match &self.body {
            WireBody::Explicit(p) => p.get(j).copied().unwrap_or(0),
            WireBody::Stream { key, base } => stream_byte(*key, base.wrapping_add(j as u64)),
        }
    }
}

/// Stable 64-bit key identifying a directed byte stream.
fn flow_stream_key(flow: FlowKey) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [
        flow.src.ip.0 as u64,
        flow.src.port as u64,
        flow.dst.ip.0 as u64,
        flow.dst.port as u64,
    ] {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Deterministic byte at stream position `pos` for stream `key` (splitmix64).
fn stream_byte(key: u64, pos: u64) -> u8 {
    let mut z = key ^ pos.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::IpAddr;

    fn pkt(seq: u64, len: u32) -> IpPacket {
        IpPacket {
            id: 7,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000),
            dst: SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443),
            proto: Proto::Tcp,
            tcp: Some(TcpHeader {
                seq,
                ack: 0,
                flags: TcpFlags {
                    ack: true,
                    ..Default::default()
                },
            }),
            payload_len: len,
            udp_payload: None,
            markers: Vec::new(),
        }
    }

    #[test]
    fn wire_len_includes_headers() {
        assert_eq!(pkt(0, 100).wire_len(), 140);
        assert_eq!(pkt(0, 0).wire_len(), HEADER_BYTES);
    }

    #[test]
    fn wire_bytes_match_declared_length() {
        let p = pkt(1234, 500);
        assert_eq!(p.wire_bytes().len() as u32, p.wire_len());
    }

    #[test]
    fn wire_view_serves_identical_bytes() {
        let mut cases = vec![pkt(0, 0), pkt(1234, 500), pkt(u64::MAX - 10, 37)];
        // UDP with short (padded) and long (truncated) explicit payloads,
        // and a raw packet with neither header.
        let mut udp_short = pkt(0, 64);
        udp_short.proto = Proto::Udp;
        udp_short.tcp = None;
        udp_short.udp_payload = Some(Arc::from(&b"query"[..]));
        cases.push(udp_short);
        let mut udp_long = pkt(0, 4);
        udp_long.proto = Proto::Udp;
        udp_long.tcp = None;
        udp_long.udp_payload = Some(Arc::from(&b"overlong payload"[..]));
        cases.push(udp_long);
        let mut raw = pkt(0, 33);
        raw.tcp = None;
        cases.push(raw);
        for p in cases {
            let eager = p.wire_bytes();
            let view = p.wire_view();
            assert_eq!(eager.len(), view.len());
            for i in 0..eager.len() {
                assert_eq!(eager[i], view.at(i), "byte {i} of {p:?}");
            }
        }
    }

    #[test]
    fn retransmission_bytes_are_identical() {
        // Two packets covering the same stream range carry the same payload
        // bytes even with different packet ids (as a real retransmit would).
        let a = pkt(1000, 200);
        let mut b = pkt(1000, 200);
        b.id = 99;
        let wa = a.wire_bytes();
        let wb = b.wire_bytes();
        assert_eq!(&wa[HEADER_BYTES as usize..], &wb[HEADER_BYTES as usize..]);
    }

    #[test]
    fn stream_positions_differ() {
        let a = pkt(0, 64).wire_bytes();
        let b = pkt(64, 64).wire_bytes();
        assert_ne!(&a[HEADER_BYTES as usize..], &b[HEADER_BYTES as usize..]);
    }

    #[test]
    fn consecutive_segments_form_one_stream() {
        // Payload of seq=0,len=128 equals payload(seq=0,len=64) ++ payload(seq=64,len=64).
        let whole = pkt(0, 128).wire_bytes();
        let first = pkt(0, 64).wire_bytes();
        let second = pkt(64, 64).wire_bytes();
        let h = HEADER_BYTES as usize;
        assert_eq!(&whole[h..h + 64], &first[h..]);
        assert_eq!(&whole[h + 64..], &second[h..]);
    }

    /// The 40 header bytes the QxDM `first2` records sample, for one TCP and
    /// one UDP packet. Both ids exceed 2^48, so only their low six bytes
    /// reach the wire.
    #[test]
    fn header_bytes_are_pinned() {
        let tcp = IpPacket {
            id: (1 << 48) | 0x0102_0304_0506,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000),
            dst: SocketAddr::new(IpAddr::new(31, 13, 64, 2), 443),
            proto: Proto::Tcp,
            tcp: Some(TcpHeader {
                seq: 0x1122_3344_5566_7788,
                ack: 0x0102_0304,
                flags: TcpFlags {
                    syn: true,
                    ack: true,
                    ..Default::default()
                },
            }),
            payload_len: 1400,
            udp_payload: None,
            markers: Vec::new(),
        };
        #[rustfmt::skip]
        assert_eq!(
            tcp.wire_bytes()[..HEADER_BYTES as usize],
            [
                0x45, 6, 0x05, 0xA0, 1, 2, 3, 4, 5, 6,
                10, 0, 0, 1, 31, 13, 64, 2,
                0x9C, 0x40, 0x01, 0xBB,
                0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88,
                0, 0, 0, 0, 1, 2, 3, 4,
                3, 0,
            ]
        );
        let udp = IpPacket {
            id: (0xABCD << 48) | 0xFFEE_DDCC_BBAA,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 5353),
            dst: SocketAddr::new(IpAddr::new(8, 8, 8, 8), 53),
            proto: Proto::Udp,
            tcp: None,
            payload_len: 18,
            udp_payload: Some(crate::dns::encode_query("api.facebook.com")),
            markers: Vec::new(),
        };
        #[rustfmt::skip]
        assert_eq!(
            udp.wire_bytes()[..HEADER_BYTES as usize],
            [
                0x45, 17, 0x00, 0x3A, 0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA,
                10, 0, 0, 1, 8, 8, 8, 8,
                0x14, 0xE9, 0x00, 0x35,
                0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0,
                0, 0,
            ]
        );
    }

    #[test]
    fn udp_payload_is_carried_verbatim() {
        let data: Arc<[u8]> = Arc::from(&b"Q:api.facebook.com"[..]);
        let p = IpPacket {
            id: 1,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 5353),
            dst: SocketAddr::new(IpAddr::new(8, 8, 8, 8), 53),
            proto: Proto::Udp,
            tcp: None,
            payload_len: data.len() as u32,
            udp_payload: Some(data.clone()),
            markers: Vec::new(),
        };
        let w = p.wire_bytes();
        assert_eq!(&w[HEADER_BYTES as usize..], &data[..]);
    }
}
