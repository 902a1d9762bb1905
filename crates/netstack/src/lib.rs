//! # netstack — packet-level TCP/IP network simulation
//!
//! The transport/network substrate under the QoE Doctor reproduction:
//!
//! * [`addr`] — addresses and the flow 4-tuple the analyzer keys on;
//! * [`packet`] — IP packets with byte-exact wire serialization (the radio
//!   layer segments these bytes into RLC PDUs);
//! * [`tcp`] — a TCP state machine with slow start, congestion avoidance,
//!   fast retransmit/recovery and RTO;
//! * [`host`] — socket tables, demultiplexing and a DNS stub resolver;
//! * [`dns`] — the resolver and the on-wire query encoding the analyzer
//!   parses back out of captures;
//! * [`link`] — serializing pipes with latency, jitter, loss and drop-tail
//!   queues (WiFi and the wired core);
//! * [`shaper`] — carrier token-bucket throttling: traffic shaping vs
//!   policing (Finding 7);
//! * [`pcap`] — the tcpdump-substitute packet capture.

#![warn(missing_docs)]

pub mod addr;
pub mod codec;
pub mod dns;
pub mod host;
pub mod link;
pub mod packet;
pub mod pcap;
pub mod shaper;
pub mod tcp;

pub use addr::{FlowKey, IpAddr, SocketAddr};
pub use host::{Host, SockId};
pub use link::{GilbertElliott, LinkConfig, Pipe};
pub use packet::{IpPacket, Proto, TcpFlags, TcpHeader, WireView, HEADER_BYTES, MSS};
pub use pcap::{Capture, Direction, PacketRecord};
pub use shaper::{Discipline, RateLimiter, ShaperConfig};
pub use tcp::{TcpSocket, TcpState};
