//! Addresses and flow identity.
//!
//! The transport/network analyzer in the paper identifies a TCP flow by the
//! 4-tuple `{srcIP, srcPort, dstIP, dstPort}` (§5.2). [`FlowKey`] is that
//! tuple; [`FlowKey::normalized`] collapses the two directions of a
//! connection onto one canonical key so both halves of a flow aggregate
//! together.

use core::fmt;

/// An IPv4-style address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IpAddr(pub u32);

impl IpAddr {
    /// Build from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
        IpAddr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// A transport endpoint: address and port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketAddr {
    /// IP address.
    pub ip: IpAddr,
    /// Transport port.
    pub port: u16,
}

impl SocketAddr {
    /// Construct an endpoint.
    pub const fn new(ip: IpAddr, port: u16) -> SocketAddr {
        SocketAddr { ip, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// Directed TCP flow 4-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    /// Sender endpoint.
    pub src: SocketAddr,
    /// Receiver endpoint.
    pub dst: SocketAddr,
}

impl FlowKey {
    /// Construct a directed flow key.
    pub const fn new(src: SocketAddr, dst: SocketAddr) -> FlowKey {
        FlowKey { src, dst }
    }

    /// The same flow in the opposite direction.
    pub const fn reversed(self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
        }
    }

    /// Canonical bidirectional identity: the lexicographically smaller
    /// orientation, so a connection's two directions share one key.
    pub fn normalized(self) -> FlowKey {
        let fwd = (self.src, self.dst);
        let rev = (self.dst, self.src);
        if fwd <= rev {
            self
        } else {
            self.reversed()
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_display_and_octets() {
        let ip = IpAddr::new(10, 0, 0, 1);
        assert_eq!(ip.octets(), [10, 0, 0, 1]);
        assert_eq!(ip.to_string(), "10.0.0.1");
    }

    #[test]
    fn flow_normalization_is_direction_independent() {
        let a = SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000);
        let b = SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443);
        let fwd = FlowKey::new(a, b);
        let rev = FlowKey::new(b, a);
        assert_eq!(fwd.normalized(), rev.normalized());
        assert_eq!(fwd.reversed(), rev);
        assert_eq!(fwd.reversed().reversed(), fwd);
    }

    #[test]
    fn normalized_is_idempotent() {
        let a = SocketAddr::new(IpAddr::new(1, 2, 3, 4), 1);
        let b = SocketAddr::new(IpAddr::new(4, 3, 2, 1), 2);
        let k = FlowKey::new(b, a).normalized();
        assert_eq!(k.normalized(), k);
    }
}
