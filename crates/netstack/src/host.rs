//! A host: socket table, demultiplexing, and a DNS stub resolver client.
//!
//! Both the simulated phone and the origin servers own a `Host`. The host is
//! a passive state machine in the smoltcp style: the owner feeds incoming
//! packets with [`Host::on_packet`], drives protocol machinery with
//! [`Host::poll`], and drains outgoing packets from [`Host::take_egress`].
//!
//! The socket table is a slot table. A [`SockId`] names a slot and the
//! generation the slot had when the socket was created, so an id kept past
//! its socket's reaping is caught instead of aliasing a newer socket.
//! Inbound TCP segments are demultiplexed through a `(local, remote)` map,
//! and each socket's next wake sits in a per-host timer set: [`Host::poll`]
//! services only the sockets that are due, in creation order, so the cost of
//! a poll does not grow with the number of sockets a session has opened.
//! A fully closed socket lingers for a 60 s TIME_WAIT (re-acknowledging a
//! retransmitted FIN) and is then reaped by the next poll.

use crate::addr::{IpAddr, SocketAddr};
use crate::dns;
use crate::packet::{IpPacket, Proto};
use crate::tcp::TcpSocket;
use simcore::{earlier, SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Handle to a socket owned by a [`Host`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SockId {
    slot: u32,
    generation: u32,
}

/// DNS retry interval for unanswered queries.
const DNS_RETRY: SimDuration = SimDuration::from_secs(1);

/// How long a fully closed socket stays in the table before it is reaped:
/// 2 × MSL, as Linux's TIME_WAIT.
const TIME_WAIT: SimDuration = SimDuration::from_secs(60);

/// First ephemeral port.
const EPHEMERAL_BASE: u16 = 40_000;

#[derive(Debug)]
struct PendingQuery {
    name: String,
    next_retry: SimTime,
    inflight: bool,
}

/// A live socket and its bookkeeping.
struct Entry {
    sock: TcpSocket,
    /// Creation order. Due sockets are serviced in it, so packet ids and
    /// egress order do not depend on which slot a socket reuses.
    seq: u64,
    /// The wake registered in [`Host::timers`].
    wake: Option<SimTime>,
    /// Queued in [`Host::touched`] for wake re-registration.
    touched: bool,
    /// Closed and waiting out [`TIME_WAIT`].
    lingering: bool,
}

struct Slot {
    generation: u32,
    entry: Option<Entry>,
}

/// A network host with a TCP socket table and DNS client.
pub struct Host {
    /// This host's address.
    pub ip: IpAddr,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Inbound demultiplexing: `(local, remote)` → socket.
    demux: HashMap<(SocketAddr, SocketAddr), SockId>,
    /// Socket wakes keyed by `(wake, creation seq, slot)`.
    timers: BTreeSet<(SimTime, u64, u32)>,
    /// Slots whose socket the owner or an inbound packet may have changed
    /// since their wake was last registered.
    touched: Vec<u32>,
    /// Closed sockets in close order with their reap deadline.
    lingering: VecDeque<(SimTime, SockId)>,
    /// Scratch list of due sockets for one poll.
    due: Vec<(u64, u32)>,
    next_seq: u64,
    live: usize,
    reaped: u64,
    listen_ports: HashSet<u16>,
    accept_queues: HashMap<u16, VecDeque<SockId>>,
    next_ephemeral: u16,
    next_packet_seq: u64,
    egress: VecDeque<IpPacket>,
    resolver: SocketAddr,
    dns_cache: HashMap<String, IpAddr>,
    /// Unanswered names in first-request order, so queries (and the packet
    /// ids they take) go out in an order that does not depend on hashing.
    dns_pending: Vec<PendingQuery>,
}

impl Host {
    /// New host at `ip` using `resolver` for DNS.
    pub fn new(ip: IpAddr, resolver: SocketAddr) -> Host {
        Host {
            ip,
            slots: Vec::new(),
            free_slots: Vec::new(),
            demux: HashMap::new(),
            timers: BTreeSet::new(),
            touched: Vec::new(),
            lingering: VecDeque::new(),
            due: Vec::new(),
            next_seq: 0,
            live: 0,
            reaped: 0,
            listen_ports: HashSet::new(),
            accept_queues: HashMap::new(),
            next_ephemeral: EPHEMERAL_BASE,
            next_packet_seq: 0,
            egress: VecDeque::new(),
            resolver,
            dns_cache: HashMap::new(),
            dns_pending: Vec::new(),
        }
    }

    /// Move the ephemeral-port cursor to `base` (clamped to ≥ 40 000). A
    /// freshly exec'd process must not reuse the ports of its predecessor:
    /// the server may still hold half-open flow state for the old 4-tuples,
    /// which would wedge the new connections.
    pub fn set_ephemeral_base(&mut self, base: u16) {
        self.next_ephemeral = base.max(EPHEMERAL_BASE);
    }

    fn next_packet_id(&mut self) -> u64 {
        self.next_packet_seq += 1;
        ((self.ip.0 as u64) << 32) | self.next_packet_seq
    }

    fn entry(&self, id: SockId) -> Option<&Entry> {
        self.slots
            .get(id.slot as usize)
            .filter(|s| s.generation == id.generation)
            .and_then(|s| s.entry.as_ref())
    }

    fn entry_mut(&mut self, id: SockId) -> Option<&mut Entry> {
        self.slots
            .get_mut(id.slot as usize)
            .filter(|s| s.generation == id.generation)
            .and_then(|s| s.entry.as_mut())
    }

    /// Queue `slot` for wake re-registration.
    fn touch(&mut self, slot: u32) {
        let entry = self.slots[slot as usize]
            .entry
            .as_mut()
            .expect("touched slot is live");
        if !entry.touched {
            entry.touched = true;
            self.touched.push(slot);
        }
    }

    /// Re-register the wake of the socket in `slot`.
    fn reregister(timers: &mut BTreeSet<(SimTime, u64, u32)>, entry: &mut Entry, slot: u32) {
        let wake = entry.sock.next_wake();
        if wake != entry.wake {
            if let Some(t) = entry.wake {
                timers.remove(&(t, entry.seq, slot));
            }
            if let Some(t) = wake {
                timers.insert((t, entry.seq, slot));
            }
            entry.wake = wake;
        }
    }

    fn flush_touched(&mut self) {
        for slot in self.touched.drain(..) {
            if let Some(entry) = self.slots[slot as usize].entry.as_mut() {
                entry.touched = false;
                Self::reregister(&mut self.timers, entry, slot);
            }
        }
    }

    fn insert(&mut self, sock: TcpSocket) -> SockId {
        let key = (sock.local, sock.remote);
        let entry = Entry {
            sock,
            seq: self.next_seq,
            wake: None,
            touched: false,
            lingering: false,
        };
        self.next_seq += 1;
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize].entry = Some(entry);
                slot
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    entry: Some(entry),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let id = SockId {
            slot,
            generation: self.slots[slot as usize].generation,
        };
        self.demux.insert(key, id);
        self.live += 1;
        self.touch(slot);
        id
    }

    /// Remove a lingering socket whose TIME_WAIT has passed.
    fn reap(&mut self, id: SockId) {
        let Some(entry) = self.entry(id) else {
            return;
        };
        let key = (entry.sock.local, entry.sock.remote);
        let slot = &mut self.slots[id.slot as usize];
        let entry = slot.entry.take().expect("checked live");
        if let Some(t) = entry.wake {
            self.timers.remove(&(t, entry.seq, id.slot));
        }
        slot.generation = slot.generation.wrapping_add(1);
        self.demux.remove(&key);
        self.free_slots.push(id.slot);
        self.live -= 1;
        self.reaped += 1;
    }

    /// Open a client connection to `remote`. The SYN goes out on next poll.
    /// The ephemeral port skips any whose 4-tuple toward `remote` is still
    /// held by a live or lingering socket.
    pub fn connect(&mut self, remote: SocketAddr) -> SockId {
        for _ in EPHEMERAL_BASE..=u16::MAX {
            let port = self.next_ephemeral;
            self.next_ephemeral = self.next_ephemeral.wrapping_add(1).max(EPHEMERAL_BASE);
            let local = SocketAddr::new(self.ip, port);
            if !self.demux.contains_key(&(local, remote)) {
                let sock = TcpSocket::connect(local, remote);
                return self.insert(sock);
            }
        }
        panic!(
            "{}: every ephemeral port toward {remote} is in use",
            self.ip
        );
    }

    /// Start accepting connections on `port`.
    pub fn listen(&mut self, port: u16) {
        self.listen_ports.insert(port);
        self.accept_queues.entry(port).or_default();
    }

    /// Take the next established-or-establishing connection on `port`.
    pub fn accept(&mut self, port: u16) -> Option<SockId> {
        loop {
            let id = self.accept_queues.get_mut(&port)?.pop_front()?;
            if self.is_live(id) {
                return Some(id);
            }
        }
    }

    /// True while `id` names a socket in the table (it has not been reaped).
    pub fn is_live(&self, id: SockId) -> bool {
        self.entry(id).is_some()
    }

    /// Borrow a socket, or `None` once it has been reaped.
    pub fn try_sock(&self, id: SockId) -> Option<&TcpSocket> {
        self.entry(id).map(|e| &e.sock)
    }

    /// Borrow a socket. Panics on a stale id (a socket already reaped).
    pub fn sock(&self, id: SockId) -> &TcpSocket {
        match self.entry(id) {
            Some(e) => &e.sock,
            None => panic!("{}: stale socket id {id:?}", self.ip),
        }
    }

    /// Mutably borrow a socket. Panics on a stale id. The socket's wake is
    /// re-read before the next poll.
    pub fn sock_mut(&mut self, id: SockId) -> &mut TcpSocket {
        if self.entry(id).is_none() {
            panic!("{}: stale socket id {id:?}", self.ip);
        }
        self.touch(id.slot);
        &mut self.entry_mut(id).expect("checked live").sock
    }

    /// Number of live sockets: open, closing, or lingering in TIME_WAIT.
    /// Reaped sockets no longer count.
    pub fn socket_count(&self) -> usize {
        self.live
    }

    /// Number of sockets ever opened on this host (reaped ones included).
    pub fn sockets_opened(&self) -> u64 {
        self.next_seq
    }

    /// Number of sockets reaped so far. Owners holding socket ids compare it
    /// with a previous reading to know when to drop stale ids.
    pub fn sockets_reaped(&self) -> u64 {
        self.reaped
    }

    /// Resolve `name`, returning the cached address or issuing a query.
    /// Callers re-poll until `Some` is returned.
    pub fn resolve(&mut self, name: &str, now: SimTime) -> Option<IpAddr> {
        if let Some(ip) = self.dns_cache.get(name) {
            return Some(*ip);
        }
        if !self.dns_pending.iter().any(|pq| pq.name == name) {
            self.dns_pending.push(PendingQuery {
                name: name.to_string(),
                next_retry: now,
                inflight: false,
            });
        }
        None
    }

    /// Feed an incoming packet to the right socket or the DNS client.
    pub fn on_packet(&mut self, pkt: &IpPacket, now: SimTime) {
        if pkt.dst.ip != self.ip {
            return; // not ours; scenario mis-wiring is silently dropped as on a real NIC
        }
        match pkt.proto {
            Proto::Udp => {
                if pkt.src == self.resolver {
                    if let Some((name, ip)) =
                        pkt.udp_payload.as_deref().and_then(dns::parse_response)
                    {
                        self.dns_pending.retain(|pq| pq.name != name);
                        self.dns_cache.insert(name, ip);
                    }
                }
            }
            Proto::Tcp => {
                // Existing connection?
                if let Some(&id) = self.demux.get(&(pkt.dst, pkt.src)) {
                    let entry = self.entry_mut(id).expect("demux names live sockets");
                    entry.sock.on_packet(pkt, now);
                    let closed = entry.sock.is_closed() && !entry.lingering;
                    if closed {
                        entry.lingering = true;
                        self.lingering.push_back((now + TIME_WAIT, id));
                    }
                    self.touch(id.slot);
                    return;
                }
                // New connection to a listening port?
                let is_syn = pkt.tcp.is_some_and(|h| h.flags.syn && !h.flags.ack);
                if is_syn && self.listen_ports.contains(&pkt.dst.port) {
                    let sock = TcpSocket::accept_from_syn(pkt.dst, pkt.src);
                    let id = self.insert(sock);
                    self.accept_queues
                        .entry(pkt.dst.port)
                        .or_default()
                        .push_back(id);
                }
            }
        }
    }

    /// Run timers and emit everything the host can send right now. Only
    /// sockets whose wake has come are serviced; the rest have nothing to
    /// do. Sockets whose TIME_WAIT has passed are reaped.
    pub fn poll(&mut self, now: SimTime) {
        // DNS queries and retries.
        let resolver = self.resolver;
        let mut queries = Vec::new();
        for pq in self.dns_pending.iter_mut() {
            if !pq.inflight || now >= pq.next_retry {
                pq.inflight = true;
                pq.next_retry = now + DNS_RETRY;
                queries.push(pq.name.clone());
            }
        }
        for name in queries {
            let body = dns::encode_query(&name);
            let pkt = IpPacket {
                id: 0, // assigned below
                src: SocketAddr::new(self.ip, 5353),
                dst: resolver,
                proto: Proto::Udp,
                tcp: None,
                payload_len: body.len() as u32,
                udp_payload: Some(body),
                markers: Vec::new(),
            };
            let id = self.next_packet_id();
            self.egress.push_back(IpPacket { id, ..pkt });
        }
        // TCP: timers, retransmissions, then regular output, for the due
        // sockets in creation order.
        self.flush_touched();
        let mut due = core::mem::take(&mut self.due);
        due.extend(
            self.timers
                .range(..=(now, u64::MAX, u32::MAX))
                .map(|&(_, seq, slot)| (seq, slot)),
        );
        due.sort_unstable();
        let base = (self.ip.0 as u64) << 32;
        let mut out = Vec::new();
        for &(_, slot) in &due {
            let entry = self.slots[slot as usize]
                .entry
                .as_mut()
                .expect("timers name live sockets");
            let sock = &mut entry.sock;
            sock.on_timer(now);
            {
                // Split-borrow dance: packet ids come from the host counter.
                let mut seq = self.next_packet_seq;
                let mut next_id = move || {
                    seq += 1;
                    base | seq
                };
                if let Some(p) = sock.take_retransmit(now, &mut next_id) {
                    out.push(p);
                }
                sock.poll(now, &mut next_id, &mut out);
            }
            self.next_packet_seq += out.len() as u64;
            self.egress.extend(out.drain(..));
            Self::reregister(&mut self.timers, entry, slot);
        }
        due.clear();
        self.due = due;
        // Reap sockets whose TIME_WAIT has passed and that owe nothing.
        while let Some(&(deadline, id)) = self.lingering.front() {
            if deadline > now {
                break;
            }
            self.lingering.pop_front();
            match self.entry(id) {
                Some(e) if e.wake.is_some() => self.lingering.push_back((now + TIME_WAIT, id)),
                Some(_) => self.reap(id),
                None => {}
            }
        }
    }

    /// Drain packets queued for transmission.
    pub fn take_egress(&mut self) -> Vec<IpPacket> {
        self.egress.drain(..).collect()
    }

    /// Pop the next packet queued for transmission, if any. The zero-copy
    /// sibling of [`Host::take_egress`]: a `while let` loop over this moves
    /// each packet straight from the egress ring to the link with no
    /// intermediate `Vec` per tick.
    pub fn pop_egress(&mut self) -> Option<IpPacket> {
        self.egress.pop_front()
    }

    /// True when packets are waiting in the egress queue.
    pub fn has_egress(&self) -> bool {
        !self.egress.is_empty()
    }

    /// Earliest instant this host needs service: queued egress, the head
    /// of the socket timer set, or a DNS query to (re)send. Re-registers
    /// the sockets touched since the last call first, so the answer is
    /// exact without visiting idle sockets.
    pub fn next_wake(&mut self) -> Option<SimTime> {
        self.flush_touched();
        let mut wake = if self.egress.is_empty() {
            None
        } else {
            Some(SimTime::ZERO)
        };
        wake = earlier(wake, self.timers.first().map(|&(t, _, _)| t));
        for pq in &self.dns_pending {
            let at = if pq.inflight {
                pq.next_retry
            } else {
                SimTime::ZERO
            };
            wake = earlier(wake, Some(at));
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::{DnsServer, DNS_PORT};

    fn resolver_addr() -> SocketAddr {
        SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT)
    }

    /// Shuttle packets between two hosts (and a resolver) instantly.
    fn pump(a: &mut Host, b: &mut Host, dns: &DnsServer, now: SimTime) {
        for _ in 0..10_000 {
            a.poll(now);
            b.poll(now);
            let pkts: Vec<IpPacket> = a.take_egress().into_iter().chain(b.take_egress()).collect();
            if pkts.is_empty() {
                break;
            }
            let mut id = 1_000_000u64;
            for p in pkts {
                if p.dst == dns.addr {
                    if let Some(resp) = dns.handle(&p, &mut || {
                        id += 1;
                        id
                    }) {
                        a.on_packet(&resp, now);
                        b.on_packet(&resp, now);
                    }
                } else {
                    a.on_packet(&p, now);
                    b.on_packet(&p, now);
                }
            }
        }
    }

    #[test]
    fn connect_and_transfer_through_hosts() {
        let mut client = Host::new(IpAddr::new(10, 0, 0, 1), resolver_addr());
        let mut server = Host::new(IpAddr::new(31, 13, 0, 2), resolver_addr());
        server.listen(443);
        let dns = DnsServer::new(resolver_addr());
        let c = client.connect(SocketAddr::new(server.ip, 443));
        client.sock_mut(c).send(10_000);
        pump(&mut client, &mut server, &dns, SimTime::ZERO);
        let s = server.accept(443).expect("accepted connection");
        assert!(server.sock(s).is_established());
        assert_eq!(server.sock(s).total_received(), 10_000);
        assert!(client.sock(c).all_acked());
    }

    #[test]
    fn pending_names_are_queried_in_request_order() {
        // Many hosts, so a per-host hashed order would show up on some.
        for last in 1..=64 {
            let mut host = Host::new(IpAddr::new(10, 0, 0, last), resolver_addr());
            let names = ["zeta.example.com", "alpha.example.com", "mid.example.com"];
            for name in names {
                assert!(host.resolve(name, SimTime::ZERO).is_none());
            }
            host.poll(SimTime::ZERO);
            let queries: Vec<String> = host
                .take_egress()
                .iter()
                .map(|p| {
                    let body = p.udp_payload.as_deref().expect("a DNS query");
                    dns::parse_query(body).expect("a DNS query").to_owned()
                })
                .collect();
            assert_eq!(queries, names, "host {last}");
        }
    }

    #[test]
    fn dns_resolution_round_trip() {
        let mut client = Host::new(IpAddr::new(10, 0, 0, 1), resolver_addr());
        let mut other = Host::new(IpAddr::new(10, 0, 0, 9), resolver_addr());
        let mut dns = DnsServer::new(resolver_addr());
        dns.register("video.youtube.com", IpAddr::new(74, 125, 0, 3));
        assert!(client.resolve("video.youtube.com", SimTime::ZERO).is_none());
        pump(&mut client, &mut other, &dns, SimTime::ZERO);
        assert_eq!(
            client.resolve("video.youtube.com", SimTime::ZERO),
            Some(IpAddr::new(74, 125, 0, 3))
        );
    }

    #[test]
    fn dns_retries_until_answered() {
        let mut client = Host::new(IpAddr::new(10, 0, 0, 1), resolver_addr());
        assert!(client.resolve("x.example", SimTime::ZERO).is_none());
        client.poll(SimTime::ZERO);
        assert_eq!(client.take_egress().len(), 1);
        // No response: nothing to send until the retry timer.
        client.poll(SimTime::from_millis(10));
        assert!(client.take_egress().is_empty());
        let wake = client.next_wake().expect("retry scheduled");
        assert_eq!(wake, SimTime::from_secs(1));
        client.poll(wake);
        assert_eq!(client.take_egress().len(), 1);
    }

    #[test]
    fn syn_to_closed_port_is_ignored() {
        let mut server = Host::new(IpAddr::new(31, 13, 0, 2), resolver_addr());
        let mut client = Host::new(IpAddr::new(10, 0, 0, 1), resolver_addr());
        let _c = client.connect(SocketAddr::new(server.ip, 9999));
        client.poll(SimTime::ZERO);
        for p in client.take_egress() {
            server.on_packet(&p, SimTime::ZERO);
        }
        server.poll(SimTime::ZERO);
        assert!(server.take_egress().is_empty());
        assert_eq!(server.socket_count(), 0);
        assert_eq!(server.sockets_opened(), 0);
        assert_eq!(client.socket_count(), 1);
        assert_eq!(client.sockets_opened(), 1);
    }

    #[test]
    fn packets_for_other_hosts_are_dropped() {
        let mut host = Host::new(IpAddr::new(10, 0, 0, 1), resolver_addr());
        host.listen(80);
        let stray = IpPacket {
            id: 1,
            src: SocketAddr::new(IpAddr::new(9, 9, 9, 9), 1234),
            dst: SocketAddr::new(IpAddr::new(10, 0, 0, 2), 80), // different host
            proto: Proto::Tcp,
            tcp: Some(crate::packet::TcpHeader {
                seq: 0,
                ack: 0,
                flags: crate::packet::TcpFlags {
                    syn: true,
                    ..Default::default()
                },
            }),
            payload_len: 0,
            udp_payload: None,
            markers: Vec::new(),
        };
        host.on_packet(&stray, SimTime::ZERO);
        assert_eq!(host.socket_count(), 0);
    }

    #[test]
    fn packet_ids_are_unique_per_host() {
        let mut client = Host::new(IpAddr::new(10, 0, 0, 1), resolver_addr());
        let c1 = client.connect(SocketAddr::new(IpAddr::new(1, 1, 1, 1), 80));
        let c2 = client.connect(SocketAddr::new(IpAddr::new(1, 1, 1, 2), 80));
        client.sock_mut(c1).send(0);
        client.sock_mut(c2).send(0);
        client.poll(SimTime::ZERO);
        let ids: Vec<u64> = client.take_egress().iter().map(|p| p.id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
        assert_eq!(ids.len(), 2);
    }

    fn host(last: u8) -> Host {
        Host::new(IpAddr::new(10, 0, 0, last), resolver_addr())
    }

    /// Deliver everything each host sends to the other, recording the
    /// client's outgoing packets, until both go quiet at `now`.
    fn exchange(a: &mut Host, b: &mut Host, now: SimTime, sent_by_a: &mut Vec<IpPacket>) {
        for _ in 0..1_000 {
            a.poll(now);
            b.poll(now);
            let from_a = a.take_egress();
            let from_b = b.take_egress();
            if from_a.is_empty() && from_b.is_empty() {
                return;
            }
            for p in &from_a {
                b.on_packet(p, now);
            }
            for p in &from_b {
                a.on_packet(p, now);
            }
            sent_by_a.extend(from_a);
        }
        panic!("exchange did not settle");
    }

    /// A connection both sides have closed: the client's socket lingers.
    /// Returns `(client, server, client socket, server socket, the client's
    /// FIN packet)`.
    fn closed_pair() -> (Host, Host, SockId, SockId, IpPacket) {
        let mut client = host(1);
        let mut server = host(2);
        server.listen(80);
        let c = client.connect(SocketAddr::new(server.ip, 80));
        client.sock_mut(c).send(1_000);
        let mut sent = Vec::new();
        exchange(&mut client, &mut server, SimTime::ZERO, &mut sent);
        let s = server.accept(80).expect("accepted");
        server.sock_mut(s).close();
        exchange(&mut client, &mut server, SimTime::ZERO, &mut sent);
        client.sock_mut(c).close();
        exchange(&mut client, &mut server, SimTime::ZERO, &mut sent);
        assert!(client.sock(c).is_closed() && server.sock(s).is_closed());
        let fin = sent
            .into_iter()
            .rev()
            .find(|p| p.tcp.is_some_and(|h| h.flags.fin))
            .expect("client sent a FIN");
        (client, server, c, s, fin)
    }

    #[test]
    fn closed_sockets_linger_then_are_reaped() {
        let (mut client, _server, c, _s, _fin) = closed_pair();
        // Still in the table through TIME_WAIT.
        client.poll(SimTime::ZERO + TIME_WAIT - SimDuration::from_millis(1));
        assert!(client.is_live(c));
        assert_eq!(client.socket_count(), 1);
        client.poll(SimTime::ZERO + TIME_WAIT);
        assert!(!client.is_live(c));
        assert!(client.try_sock(c).is_none());
        assert_eq!(client.socket_count(), 0);
        assert_eq!(client.sockets_opened(), 1);
        assert_eq!(client.sockets_reaped(), 1);
        // Reaping never registers a wake of its own.
        assert_eq!(client.next_wake(), None);
    }

    #[test]
    fn stale_sock_id_never_aliases_a_new_socket() {
        let (mut client, server, c, _s, _fin) = closed_pair();
        client.poll(SimTime::ZERO + TIME_WAIT);
        // The new socket reuses the reaped slot under a new generation.
        let fresh = client.connect(SocketAddr::new(server.ip, 80));
        assert_ne!(fresh, c);
        assert!(client.is_live(fresh));
        assert!(!client.is_live(c));
        assert!(client.try_sock(c).is_none());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            client.sock_mut(c).send(1);
        }));
        assert!(caught.is_err(), "a stale id must be rejected");
        assert_eq!(client.sock(fresh).total_received(), 0);
    }

    #[test]
    fn duplicate_fin_inside_linger_is_acked_again() {
        let (_client, mut server, _c, s, fin) = closed_pair();
        let later = SimTime::from_secs(10);
        server.poll(later);
        assert!(server.take_egress().is_empty());
        // The client's FIN again, as if the server's final ACK was lost.
        server.on_packet(&fin, later);
        assert_eq!(server.next_wake(), Some(SimTime::ZERO));
        server.poll(later);
        let out = server.take_egress();
        assert_eq!(out.len(), 1);
        let hdr = out[0].tcp.expect("tcp");
        assert!(hdr.flags.ack && !hdr.flags.fin && !hdr.flags.syn);
        assert_eq!(out[0].src, server.sock(s).local);
        assert!(server.sock(s).is_closed());
    }

    #[test]
    fn reused_port_skips_a_lingering_four_tuple() {
        let (mut client, server, c, _s, _fin) = closed_pair();
        let remote = SocketAddr::new(server.ip, 80);
        let lingering_port = client.sock(c).local.port;
        assert!(client.is_live(c));
        // Point the cursor at the lingering socket's port.
        client.set_ephemeral_base(lingering_port);
        let fresh = client.connect(remote);
        assert_ne!(client.sock(fresh).local.port, lingering_port);
        assert_eq!(client.sock(fresh).local.port, lingering_port + 1);
        // Another remote may reuse the port: its 4-tuple is free.
        client.set_ephemeral_base(lingering_port);
        let other = client.connect(SocketAddr::new(IpAddr::new(1, 1, 1, 1), 80));
        assert_eq!(client.sock(other).local.port, lingering_port);
    }

    #[test]
    fn wrapped_ephemeral_cursor_skips_live_tuples() {
        let mut client = host(1);
        let remote = SocketAddr::new(IpAddr::new(9, 9, 9, 9), 443);
        client.set_ephemeral_base(u16::MAX);
        let a = client.connect(remote);
        // The cursor wraps back to 40 000, then finds 65 535 taken later.
        let b = client.connect(remote);
        assert_eq!(client.sock(a).local.port, u16::MAX);
        assert_eq!(client.sock(b).local.port, 40_000);
        client.set_ephemeral_base(u16::MAX);
        let c = client.connect(remote);
        assert_eq!(client.sock(c).local.port, 40_001);
    }

    /// The socket the pre-map host would have picked: the first socket in
    /// creation order whose 4-tuple matches.
    fn linear_scan(host: &Host, local: SocketAddr, remote: SocketAddr) -> Option<SockId> {
        let mut live: Vec<(u64, SockId)> = host
            .slots
            .iter()
            .enumerate()
            .filter_map(|(slot, s)| {
                s.entry.as_ref().map(|e| {
                    let id = SockId {
                        slot: slot as u32,
                        generation: s.generation,
                    };
                    (e.seq, id)
                })
            })
            .collect();
        live.sort_unstable();
        live.into_iter()
            .map(|(_, id)| id)
            .find(|&id| host.sock(id).local == local && host.sock(id).remote == remote)
    }

    #[test]
    fn demux_map_agrees_with_a_linear_scan() {
        let mut rng = simcore::DetRng::seed_from_u64(7);
        let mut client = host(1);
        let remotes: Vec<SocketAddr> = (0..4)
            .map(|i| SocketAddr::new(IpAddr::new(31, 13, 0, i), 443))
            .collect();
        for round in 0..400 {
            let remote = remotes[rng.index(remotes.len())];
            if rng.chance(0.3) {
                client.set_ephemeral_base(40_000 + rng.index(8) as u16);
            }
            client.connect(remote);
            // Probe tuples that exist and tuples that do not.
            for _ in 0..4 {
                let local = SocketAddr::new(client.ip, 40_000 + rng.index(12) as u16);
                let remote = remotes[rng.index(remotes.len())];
                let mapped = client.demux.get(&(local, remote)).copied();
                assert_eq!(mapped, linear_scan(&client, local, remote), "round {round}");
            }
        }
        assert_eq!(client.socket_count(), 400);
    }
}
