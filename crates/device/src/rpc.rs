//! Client-side request/response helper.
//!
//! Apps issue "RPCs" — resolve a hostname, open a TCP connection, send a
//! request of R bytes, await a response of S bytes — and poll the helper
//! until completion. One RPC owns one connection, which matches how the
//! paper's flow analysis attributes one TCP flow to one replayed behaviour
//! (§5.4.1).

use crate::proto;
use netstack::{Host, SockId};
use simcore::SimTime;

/// Lifecycle of an RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcState {
    /// Waiting for DNS.
    Resolving,
    /// Connection opened, request queued, awaiting the response marker.
    Awaiting,
    /// Response fully received.
    Done,
}

/// One in-flight request/response exchange.
#[derive(Debug)]
pub struct Rpc {
    /// Server hostname.
    pub server: String,
    /// Server port.
    pub port: u16,
    tag: u16,
    req_bytes: u64,
    resp_bytes: u64,
    state: RpcState,
    sock: Option<SockId>,
    close_when_done: bool,
    /// Set by the first [`Rpc::poll`].
    polled: bool,
    /// When the response completed.
    pub finished_at: Option<SimTime>,
}

impl Rpc {
    /// Start an RPC: `req_bytes` up, `resp_bytes` down, to `server:port`.
    pub fn new(server: &str, port: u16, tag: u16, req_bytes: u64, resp_bytes: u64) -> Rpc {
        Rpc {
            server: server.to_string(),
            port,
            tag,
            req_bytes: req_bytes.max(1),
            resp_bytes: resp_bytes.max(1),
            state: RpcState::Resolving,
            sock: None,
            close_when_done: true,
            polled: false,
            finished_at: None,
        }
    }

    /// Keep the connection open after completion (for reuse or streaming).
    pub fn keep_open(mut self) -> Rpc {
        self.close_when_done = false;
        self
    }

    /// Current state.
    pub fn state(&self) -> RpcState {
        self.state
    }

    /// True once the full response has arrived.
    pub fn is_done(&self) -> bool {
        self.state == RpcState::Done
    }

    /// True until the first [`Rpc::poll`]: the request has not reached the
    /// stack yet, so the owning app must be ticked again even if no packet
    /// arrives.
    pub fn is_fresh(&self) -> bool {
        !self.polled
    }

    /// The connection, once opened.
    pub fn sock(&self) -> Option<SockId> {
        self.sock
    }

    /// Response payload bytes received so far (streaming progress).
    pub fn bytes_received(&self, host: &Host) -> u64 {
        match self.sock {
            Some(s) => host.sock(s).total_received(),
            None => 0,
        }
    }

    /// Drive the RPC; returns true when it has just completed or is done.
    pub fn poll(&mut self, host: &mut Host, now: SimTime) -> bool {
        self.polled = true;
        match self.state {
            RpcState::Resolving => {
                if let Some(ip) = host.resolve(&self.server, now) {
                    let sock = host.connect(netstack::SocketAddr::new(ip, self.port));
                    host.sock_mut(sock)
                        .send_marked(self.req_bytes, proto::req(self.tag, self.resp_bytes));
                    self.sock = Some(sock);
                    self.state = RpcState::Awaiting;
                }
                false
            }
            RpcState::Awaiting => {
                let sock = self.sock.expect("socket exists in Awaiting");
                let markers = host.sock_mut(sock).take_markers();
                for m in markers {
                    if let Some((proto::Kind::Response, tag, _)) = proto::unpack(m) {
                        if tag == self.tag {
                            self.state = RpcState::Done;
                            self.finished_at = Some(now);
                            if self.close_when_done {
                                host.sock_mut(sock).close();
                            }
                            return true;
                        }
                    }
                }
                false
            }
            RpcState::Done => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servers::{Internet, RpcServer};
    use netstack::dns::DNS_PORT;
    use netstack::{IpAddr, SocketAddr, TcpConfig};
    use simcore::{DetRng, SimTime};

    #[test]
    fn rpc_completes_against_generic_server() {
        let resolver = SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT);
        let mut internet = Internet::new(resolver, DetRng::seed_from_u64(5));
        internet.add_server(
            "api.example.com",
            IpAddr::new(93, 184, 0, 1),
            Box::new(RpcServer::new(&[443])),
        );
        let mut phone_host = Host::new(IpAddr::new(10, 0, 0, 1), resolver, TcpConfig::default());

        let mut rpc = Rpc::new("api.example.com", 443, 1, 2_000, 50_000);
        let now = SimTime::ZERO;
        // Shuttle packets directly (no links) until done.
        for _ in 0..10_000 {
            rpc.poll(&mut phone_host, now);
            phone_host.poll(now);
            let ups = phone_host.take_egress();
            for p in ups {
                internet.route(p, now);
            }
            for p in crate::servers::tests::tick_all(&mut internet, now) {
                phone_host.on_packet(&p, now);
            }
            if rpc.poll(&mut phone_host, now) {
                break;
            }
        }
        assert!(rpc.is_done());
        assert_eq!(rpc.bytes_received(&phone_host), 50_000);
    }
}
