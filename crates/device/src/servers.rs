//! The internet side: DNS, origin servers, and the routing hub.
//!
//! Servers are marker-driven: a generic [`RpcServer`] answers any
//! `Request(tag, resp_bytes)` marker with `resp_bytes` of payload tagged
//! `Response(tag)`. The [`FacebookOrigin`] additionally keeps persistent
//! "notification" connections (the Facebook MQTT-style channel) and relays
//! each acknowledged post down them — this is how device A's posts reach
//! device B in §7.3.

use crate::proto::{self, Kind};
use netstack::dns::DnsServer;
use netstack::{Host, IpAddr, IpPacket, SockId, SocketAddr};
use simcore::{earlier, DetRng, SimDuration, SimTime};

/// The first tick of a server app opens its listening ports, so a server
/// that has not listened yet is due at t = 0.
fn listen_wake(listening: bool) -> Option<SimTime> {
    (!listening).then_some(SimTime::ZERO)
}

/// Server-side application logic attached to a host.
///
/// The internet ticks a server whenever a packet reaches its host and at its
/// own wake; a tick at any other instant must be a no-op.
pub trait ServerApp {
    /// Drive the server at `now`.
    fn tick(&mut self, host: &mut Host, now: SimTime, rng: &mut DetRng);
    /// Earliest self-scheduled work (first listen, processing delays, push
    /// timers), if any.
    fn next_wake(&self) -> Option<SimTime>;
}

/// Jitter fraction of an [`RpcServer`]'s processing delay.
const DELAY_JITTER: f64 = 0.3;

/// Generic request/response server: listens on the given ports, accepts
/// connections, and answers request markers after a configurable
/// processing delay (origin/application time — this is the "server
/// processing delay" bucket of the paper's *other delay*, Fig. 9).
pub struct RpcServer {
    ports: Vec<u16>,
    conns: Vec<SockId>,
    listening: bool,
    /// The host's reaped-socket count when `conns` was last pruned.
    reaped_seen: u64,
    delay: SimDuration,
    pending: simcore::EventQueue<(SockId, u16, u64)>,
}

impl RpcServer {
    /// Server answering on `ports` with no processing delay.
    pub fn new(ports: &[u16]) -> RpcServer {
        RpcServer {
            ports: ports.to_vec(),
            conns: Vec::new(),
            listening: false,
            reaped_seen: 0,
            delay: SimDuration::ZERO,
            pending: simcore::EventQueue::new(),
        }
    }

    /// Builder: add a mean per-request processing delay.
    pub fn with_delay(mut self, delay: SimDuration) -> RpcServer {
        self.delay = delay;
        self
    }

    /// Listen (first tick), accept new connections, and drop the ids of
    /// reaped sockets. Returns true when the host reaped sockets since the
    /// last call, so owners of other id lists prune them too.
    fn accept_all(&mut self, host: &mut Host) -> bool {
        if !self.listening {
            for p in &self.ports {
                host.listen(*p);
            }
            self.listening = true;
        }
        for &p in &self.ports {
            while let Some(s) = host.accept(p) {
                self.conns.push(s);
            }
        }
        let reaped = host.sockets_reaped() != self.reaped_seen;
        if reaped {
            self.reaped_seen = host.sockets_reaped();
            self.conns.retain(|&s| host.is_live(s));
        }
        reaped
    }

    fn drive(&mut self, host: &mut Host, now: SimTime, rng: &mut DetRng) {
        for &s in &self.conns {
            // `sock_mut` queues the socket's wake for re-registration, so
            // reach for it only when there is news.
            if !host.sock(s).has_markers() {
                continue;
            }
            let markers = host.sock_mut(s).take_markers();
            for m in markers {
                if let Some((Kind::Request, tag, resp_bytes)) = proto::unpack(m) {
                    if self.delay.is_zero() {
                        host.sock_mut(s)
                            .send_marked(resp_bytes.max(1), proto::resp(tag));
                    } else {
                        let d = rng.jittered(self.delay, DELAY_JITTER);
                        self.pending.push(now + d, (s, tag, resp_bytes));
                    }
                }
            }
        }
        while let Some((_, (s, tag, resp_bytes))) = self.pending.pop_due(now) {
            host.sock_mut(s)
                .send_marked(resp_bytes.max(1), proto::resp(tag));
        }
    }
}

impl ServerApp for RpcServer {
    fn tick(&mut self, host: &mut Host, now: SimTime, rng: &mut DetRng) {
        self.accept_all(host);
        self.drive(host, now, rng);
    }

    fn next_wake(&self) -> Option<SimTime> {
        earlier(listen_wake(self.listening), self.pending.next_at())
    }
}

/// Jitter fraction of a [`FacebookOrigin`]'s write-path delay.
const WRITE_JITTER: f64 = 0.15;

/// The Facebook origin of the two-device experiments (§7.3/§7.4): the
/// write path (port 443, posts from device A) and the push channel (port
/// 8883, device B's persistent connection) live on one host. Each
/// acknowledged post is relayed as a notification to every subscriber —
/// device A's posts reach device B with no scripted schedule.
pub struct FacebookOrigin {
    rpc: RpcServer,
    subscribers: Vec<SockId>,
    /// Notification payload per relayed post.
    pub notification_bytes: u64,
    /// Server-side processing before the post is acknowledged and relayed.
    pub write_delay: SimDuration,
    pending: simcore::EventQueue<(SockId, u16, u64)>,
    push_seq: u16,
    /// Notifications relayed so far.
    pub notifications_sent: u64,
}

impl FacebookOrigin {
    /// New origin: posts on 443, subscriptions on 8883.
    pub fn new(notification_bytes: u64, write_delay: SimDuration) -> FacebookOrigin {
        FacebookOrigin {
            rpc: RpcServer::new(&[443, 8883]),
            subscribers: Vec::new(),
            notification_bytes,
            write_delay,
            pending: simcore::EventQueue::new(),
            push_seq: 0,
            notifications_sent: 0,
        }
    }
}

impl ServerApp for FacebookOrigin {
    fn tick(&mut self, host: &mut Host, now: SimTime, rng: &mut DetRng) {
        if self.rpc.accept_all(host) {
            self.subscribers.retain(|&s| host.is_live(s));
        }
        for &s in &self.rpc.conns {
            if !host.sock(s).has_markers() {
                continue;
            }
            let markers = host.sock_mut(s).take_markers();
            for m in markers {
                match proto::unpack(m) {
                    Some((Kind::Request, tag, resp_bytes)) => {
                        // A post upload: acknowledge after the write-path
                        // delay, then relay.
                        let d = rng.jittered(self.write_delay, WRITE_JITTER);
                        self.pending.push(now + d, (s, tag, resp_bytes));
                    }
                    Some((Kind::Subscribe, _, _)) => self.subscribers.push(s),
                    _ => {}
                }
            }
        }
        while let Some((_, (s, tag, resp_bytes))) = self.pending.pop_due(now) {
            host.sock_mut(s)
                .send_marked(resp_bytes.max(1), proto::resp(tag));
            // Relay the post to every live subscriber.
            for &sub in &self.subscribers {
                if host.sock(sub).is_established() && !host.sock(sub).is_closed() {
                    self.push_seq = self.push_seq.wrapping_add(1);
                    host.sock_mut(sub).send_marked(
                        self.notification_bytes,
                        proto::push(self.push_seq, self.notification_bytes),
                    );
                    self.notifications_sent += 1;
                }
            }
        }
    }

    fn next_wake(&self) -> Option<SimTime> {
        earlier(listen_wake(self.rpc.listening), self.pending.next_at())
    }
}

/// One origin: a host plus its application.
pub struct ServerNode {
    /// Hostname registered in DNS.
    pub name: String,
    /// The server's network stack.
    pub host: Host,
    /// Its application logic.
    pub app: Box<dyn ServerApp>,
}

/// The public internet: resolver plus origin servers, with routing by
/// destination address.
pub struct Internet {
    /// The DNS resolver.
    pub dns: DnsServer,
    /// Origin servers.
    pub nodes: Vec<ServerNode>,
    rng: DetRng,
    dns_egress: Vec<IpPacket>,
    next_dns_id: u64,
    /// Injected DNS failure windows `[from, until)`: queries arriving
    /// inside a window are dropped (resolver unreachable; the stub
    /// resolver's retry handles recovery).
    dns_outages: Vec<(SimTime, SimTime)>,
    /// Injected per-server stall windows: `(server_name, from, until)` —
    /// packets to that server are dropped inside the window, so
    /// established connections stall until TCP retransmits past it.
    server_stalls: Vec<(String, SimTime, SimTime)>,
    /// Queries dropped by DNS outages.
    pub dns_dropped: u64,
    /// Packets dropped by server stalls.
    pub stall_dropped: u64,
}

impl Internet {
    /// New internet with a resolver at `resolver`.
    pub fn new(resolver: SocketAddr, rng: DetRng) -> Internet {
        Internet {
            dns: DnsServer::new(resolver),
            nodes: Vec::new(),
            rng,
            dns_egress: Vec::new(),
            next_dns_id: 0,
            dns_outages: Vec::new(),
            server_stalls: Vec::new(),
            dns_dropped: 0,
            stall_dropped: 0,
        }
    }

    /// Inject a DNS failure window: queries in `[from, until)` go
    /// unanswered.
    pub fn fail_dns(&mut self, from: SimTime, until: SimTime) {
        self.dns_outages.push((from, until));
    }

    /// Inject a server stall: packets addressed to the server registered
    /// as `name` are dropped in `[from, until)` (connection appears hung,
    /// new connection attempts time out and retry).
    pub fn stall_server(&mut self, name: &str, from: SimTime, until: SimTime) {
        self.server_stalls.push((name.to_string(), from, until));
    }

    /// Register an additional DNS name for an existing server's address.
    pub fn add_alias(&mut self, name: &str, ip: IpAddr) {
        self.dns.register(name, ip);
    }

    /// Register a named server.
    pub fn add_server(&mut self, name: &str, ip: IpAddr, app: Box<dyn ServerApp>) {
        self.dns.register(name, ip);
        self.nodes.push(ServerNode {
            name: name.to_string(),
            host: Host::new(ip, self.dns.addr),
            app,
        });
    }

    /// Deliver a packet arriving from an access network. Returns where it
    /// went: the resolver queued an answer, or a server's host took it (that
    /// server is then due at `now`).
    pub fn route(&mut self, pkt: IpPacket, now: SimTime) -> Routed {
        if pkt.dst == self.dns.addr {
            if self.dns_outages.iter().any(|(f, u)| *f <= now && now < *u) {
                self.dns_dropped += 1;
                return Routed::Dropped;
            }
            let seq = &mut self.next_dns_id;
            let mut next_id = || {
                *seq += 1;
                0xD00D_0000_0000 | *seq
            };
            if let Some(resp) = self.dns.handle(&pkt, &mut next_id) {
                self.dns_egress.push(resp);
                return Routed::Dns;
            }
            return Routed::Dropped;
        }
        if let Some(i) = self.nodes.iter().position(|n| n.host.ip == pkt.dst.ip) {
            let node = &mut self.nodes[i];
            let stalled = self
                .server_stalls
                .iter()
                .any(|(name, f, u)| name == &node.name && *f <= now && now < *u);
            if stalled {
                self.stall_dropped += 1;
                return Routed::Dropped;
            }
            node.host.on_packet(&pkt, now);
            return Routed::Node(i);
        }
        Routed::Dropped
    }

    /// Drive server `i`: its application, then its host.
    pub fn tick_node(&mut self, i: usize, now: SimTime) {
        let node = &mut self.nodes[i];
        node.app.tick(&mut node.host, now, &mut self.rng);
        node.host.poll(now);
    }

    /// Earliest instant server `i` has work of its own.
    pub fn node_wake(&mut self, i: usize) -> Option<SimTime> {
        let node = &mut self.nodes[i];
        earlier(node.app.next_wake(), node.host.next_wake())
    }

    /// Earliest instant the resolver has answers waiting to leave.
    pub fn dns_wake(&self) -> Option<SimTime> {
        (!self.dns_egress.is_empty()).then_some(SimTime::ZERO)
    }

    /// Append the resolver's queued answers to `out`.
    pub fn take_dns_egress(&mut self, out: &mut Vec<IpPacket>) {
        out.append(&mut self.dns_egress);
    }

    /// Append server `i`'s outgoing packets to `out`.
    pub fn take_node_egress(&mut self, i: usize, out: &mut Vec<IpPacket>) {
        while let Some(p) = self.nodes[i].host.pop_egress() {
            out.push(p);
        }
    }
}

/// Where [`Internet::route`] delivered a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routed {
    /// The resolver answered; the answer waits in its egress.
    Dns,
    /// Server `i`'s host took the packet.
    Node(usize),
    /// Dropped: unknown destination, DNS outage, server stall, or a query
    /// the resolver could not answer.
    Dropped,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use netstack::dns::DNS_PORT;

    fn resolver() -> SocketAddr {
        SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT)
    }

    /// Tick every server and drain everything the internet sends back.
    pub(crate) fn tick_all(net: &mut Internet, now: SimTime) -> Vec<IpPacket> {
        let mut out = Vec::new();
        net.take_dns_egress(&mut out);
        for i in 0..net.nodes.len() {
            net.tick_node(i, now);
            net.take_node_egress(i, &mut out);
        }
        out
    }

    /// Pump packets between a client host and the internet with no links.
    fn pump(client: &mut Host, net: &mut Internet, now: SimTime) {
        for _ in 0..10_000 {
            client.poll(now);
            let ups = client.take_egress();
            let had = !ups.is_empty();
            for p in ups {
                net.route(p, now);
            }
            let downs = tick_all(net, now);
            let got = !downs.is_empty();
            for p in downs {
                client.on_packet(&p, now);
            }
            if !had && !got {
                break;
            }
        }
    }

    #[test]
    fn rpc_server_answers_requests() {
        let mut net = Internet::new(resolver(), DetRng::seed_from_u64(1));
        net.add_server(
            "web.example.com",
            IpAddr::new(93, 184, 0, 1),
            Box::new(RpcServer::new(&[80])),
        );
        let mut client = Host::new(IpAddr::new(10, 0, 0, 1), resolver());
        // DNS round.
        assert!(client.resolve("web.example.com", SimTime::ZERO).is_none());
        pump(&mut client, &mut net, SimTime::ZERO);
        let ip = client
            .resolve("web.example.com", SimTime::ZERO)
            .expect("resolved");
        let s = client.connect(SocketAddr::new(ip, 80));
        client.sock_mut(s).send_marked(500, proto::req(9, 30_000));
        pump(&mut client, &mut net, SimTime::ZERO);
        assert_eq!(client.sock(s).total_received(), 30_000);
        assert_eq!(client.sock_mut(s).take_markers(), vec![proto::resp(9)]);
    }

    /// Pump packets between a client host and a bare origin host until
    /// both go quiet.
    fn pump_origin(
        client: &mut Host,
        server: &mut Host,
        origin: &mut FacebookOrigin,
        rng: &mut DetRng,
        now: SimTime,
    ) {
        for _ in 0..10_000 {
            client.poll(now);
            let ups = client.take_egress();
            let had = !ups.is_empty();
            for p in ups {
                server.on_packet(&p, now);
            }
            origin.tick(server, now, rng);
            server.poll(now);
            let downs = server.take_egress();
            let got = !downs.is_empty();
            for p in downs {
                client.on_packet(&p, now);
            }
            if !had && !got {
                break;
            }
        }
    }

    #[test]
    fn facebook_origin_relays_each_post_to_live_subscribers() {
        let origin_ip = IpAddr::new(31, 13, 64, 2);
        let mut server = Host::new(origin_ip, resolver());
        let mut origin = FacebookOrigin::new(9_000, SimDuration::from_secs(1));
        let mut rng = DetRng::seed_from_u64(2);
        let mut client = Host::new(IpAddr::new(10, 0, 0, 1), resolver());
        let t0 = SimTime::ZERO;
        // The first tick opens the listening ports.
        origin.tick(&mut server, t0, &mut rng);
        let subs: Vec<SockId> = (1..=3)
            .map(|tag| {
                let s = client.connect(SocketAddr::new(origin_ip, 8883));
                client.sock_mut(s).send_marked(100, proto::subscribe(tag));
                s
            })
            .collect();
        pump_origin(&mut client, &mut server, &mut origin, &mut rng, t0);
        assert_eq!(origin.subscribers.len(), 3);
        // Tear down the middle subscription from both ends.
        client.sock_mut(subs[1]).close();
        pump_origin(&mut client, &mut server, &mut origin, &mut rng, t0);
        server.sock_mut(origin.subscribers[1]).close();
        pump_origin(&mut client, &mut server, &mut origin, &mut rng, t0);
        for (i, &s) in origin.subscribers.iter().enumerate() {
            assert!(server.is_live(s));
            assert_eq!(server.sock(s).is_closed(), i == 1);
        }
        // A post is held for the write-path delay, then acknowledged.
        let post = client.connect(SocketAddr::new(origin_ip, 443));
        client.sock_mut(post).send_marked(500, proto::req(7, 300));
        pump_origin(&mut client, &mut server, &mut origin, &mut rng, t0);
        assert_eq!(client.sock(post).total_received(), 0);
        assert_eq!(origin.notifications_sent, 0);
        let t1 = SimTime::from_secs(2);
        pump_origin(&mut client, &mut server, &mut origin, &mut rng, t1);
        assert_eq!(client.sock_mut(post).take_markers(), vec![proto::resp(7)]);
        // Exactly one notification per live, established subscriber; none
        // to the closed one.
        assert_eq!(origin.notifications_sent, 2);
        for (i, &s) in subs.iter().enumerate() {
            let markers = client.sock_mut(s).take_markers();
            if i == 1 {
                assert_eq!(client.sock(s).total_received(), 0);
                assert!(markers.is_empty());
            } else {
                assert_eq!(client.sock(s).total_received(), 9_000);
                assert_eq!(markers.len(), 1);
                assert!(matches!(
                    proto::unpack(markers[0]),
                    Some((Kind::Push, _, 9_000))
                ));
            }
        }
    }

    #[test]
    fn unknown_destination_is_dropped() {
        let mut net = Internet::new(resolver(), DetRng::seed_from_u64(3));
        let stray = IpPacket {
            id: 1,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 1),
            dst: SocketAddr::new(IpAddr::new(99, 99, 99, 99), 80),
            proto: netstack::Proto::Tcp,
            tcp: None,
            payload_len: 0,
            udp_payload: None,
            markers: Vec::new(),
        };
        assert_eq!(net.route(stray, SimTime::ZERO), Routed::Dropped);
        assert!(tick_all(&mut net, SimTime::ZERO).is_empty());
    }
}
