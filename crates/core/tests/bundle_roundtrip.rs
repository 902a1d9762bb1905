//! Property tests for the trace-bundle seam: every artifact a bundle can
//! hold must round-trip `Collection → disk → Collection` losslessly, and a
//! damaged bundle must fail with a structured [`TraceError`], never a
//! panic. Losslessness is what makes analyze-from-disk byte-identical to
//! the inline pipeline, so these properties guard the tentpole invariant.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use device::phone::CpuMeter;
use device::ui::ScreenEvent;
use netstack::packet::{IpPacket, Proto, TcpFlags, TcpHeader};
use netstack::pcap::{Direction, PacketRecord};
use netstack::{IpAddr, SocketAddr};
use proptest::prelude::*;
use qoe_doctor::bundle::{
    BEHAVIOR, BEHAVIOR_MAGIC, CAMERA, CAMERA_MAGIC, CPU, CPU_MAGIC, PDUS, QXDM, TRACE,
};
use qoe_doctor::{BehaviorRecord, Collection, CollectionSet, StartKind};
use radio::codec::{read_pdu_truth, read_qxdm, write_pdu_truth, write_qxdm};
use radio::qxdm::{PduRecord, QxdmLog, StatusRecord};
use radio::rlc::PduEvent;
use radio::rrc::{RrcState, RrcTransition};
use simcore::{RecordLog, SimDuration, SimTime};
use trace::{
    decode_artifact, encode_artifact, entry_checksum, seal_manifest, BundleArtifact, BundleMeta,
    BundleReader, Manifest, Reads, TraceError, DATA_FILE, FORMAT_VERSION,
};

/// A fresh, unique scratch directory (cases within one property run
/// sequentially, but distinct properties may run in parallel test threads).
fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qd-bundle-rt-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The byte range of entry `name` in the bundle file under `dir`.
fn entry_range(dir: &Path, name: &str) -> Range<usize> {
    let r = BundleReader::open(dir).unwrap();
    let range = r
        .manifest()
        .entry(name)
        .expect("the bundle lists the entry")
        .range();
    range.start as usize..range.end as usize
}

/// The finished bundle's manifest, and its data file's bytes up to the
/// manifest.
fn split_bundle(dir: &Path) -> (Manifest, Vec<u8>) {
    let manifest = BundleReader::open(dir).unwrap().manifest().clone();
    let mut data = fs::read(dir.join(DATA_FILE)).unwrap();
    data.truncate(manifest.data_len() as usize);
    (manifest, data)
}

/// Replace the bundle's manifest text by `edit` of it, behind a footer
/// that matches the new text, so only the manifest parser can object.
fn edit_manifest(dir: &Path, edit: impl FnOnce(&str) -> String) {
    let (manifest, mut data) = split_bundle(dir);
    data.extend(seal_manifest(&edit(&manifest.render())));
    fs::write(dir.join(DATA_FILE), data).unwrap();
}

fn meta(seed: u64, config_digest: u64) -> BundleMeta {
    BundleMeta {
        seed,
        config_digest,
        scenario: "proptest/bundle".into(),
        end: SimTime::ZERO,
    }
}

// ---- strategies --------------------------------------------------------
//
// The vendored proptest shim has no `prop_oneof`/`option::of`, so enums
// draw an index and Options pair a presence bool with an inner value.

fn st_time() -> impl Strategy<Value = SimTime> {
    (0u64..600_000_000).prop_map(SimTime::from_micros)
}

fn st_dur() -> impl Strategy<Value = SimDuration> {
    (0u64..5_000_000).prop_map(SimDuration::from_micros)
}

fn st_dir() -> impl Strategy<Value = Direction> {
    any::<bool>().prop_map(|up| {
        if up {
            Direction::Uplink
        } else {
            Direction::Downlink
        }
    })
}

/// A time-sorted [`RecordLog`] of up to `max - 1` elements (possibly
/// empty): `push` asserts non-decreasing timestamps, so draws are sorted
/// before insertion.
fn st_log<S>(element: S, max: usize) -> impl Strategy<Value = RecordLog<S::Value>>
where
    S: Strategy + 'static,
{
    prop::collection::vec((0u64..600_000_000u64, element), 0..max).prop_map(|mut drawn| {
        drawn.sort_by_key(|(at, _)| *at);
        let mut log = RecordLog::new();
        for (at, rec) in drawn {
            log.push(SimTime::from_micros(at), rec);
        }
        log
    })
}

fn st_behavior() -> impl Strategy<Value = BehaviorRecord> {
    (
        ("[a-z:_]{1,16}", st_time(), st_dur()),
        (0u8..2, st_dur(), any::<bool>()),
    )
        .prop_map(
            |((action, start, len), (kind, mean_parse, timed_out))| BehaviorRecord {
                action,
                start,
                end: start + len,
                start_kind: if kind == 0 {
                    StartKind::Trigger
                } else {
                    StartKind::Parse
                },
                mean_parse,
                timed_out,
            },
        )
}

/// Full-range `u64`s biased toward the wrapping edges of the delta
/// columns: 0, 1, `u64::MAX - 1` and `u64::MAX` each come up about one
/// draw in six.
fn st_u64() -> impl Strategy<Value = u64> {
    (0u8..6, any::<u64>()).prop_map(|(k, v)| match k {
        0 => 0,
        1 => u64::MAX,
        2 => 1,
        3 => u64::MAX - 1,
        _ => v,
    })
}

/// Full-range `u32`s biased toward 0 and `u32::MAX`.
fn st_u32() -> impl Strategy<Value = u32> {
    (0u8..4, any::<u32>()).prop_map(|(k, v)| match k {
        0 => 0,
        1 => u32::MAX,
        _ => v,
    })
}

fn st_sock() -> impl Strategy<Value = SocketAddr> {
    (any::<u32>(), any::<u16>()).prop_map(|(ip, port)| SocketAddr::new(IpAddr(ip), port))
}

fn st_tcp() -> impl Strategy<Value = Option<TcpHeader>> {
    (any::<bool>(), st_u64(), st_u64(), 0u8..16).prop_map(|(present, seq, ack, bits)| {
        present.then_some(TcpHeader {
            seq,
            ack,
            flags: TcpFlags {
                syn: bits & 1 != 0,
                ack: bits & 2 != 0,
                fin: bits & 4 != 0,
                rst: bits & 8 != 0,
            },
        })
    })
}

fn st_udp_payload() -> impl Strategy<Value = Option<Arc<[u8]>>> {
    (any::<bool>(), prop::collection::vec(any::<u8>(), 0..24))
        .prop_map(|(present, bytes)| present.then(|| Arc::from(bytes)))
}

fn st_packet() -> impl Strategy<Value = PacketRecord> {
    (
        (st_u64(), st_sock(), st_sock(), any::<bool>()),
        (
            st_tcp(),
            0u32..200_000,
            st_udp_payload(),
            prop::collection::vec((st_u64(), any::<u64>()), 0..4),
            st_dir(),
        ),
    )
        .prop_map(
            |((id, src, dst, is_tcp), (tcp, payload_len, udp_payload, markers, dir))| {
                PacketRecord {
                    dir,
                    pkt: IpPacket {
                        id,
                        src,
                        dst,
                        proto: if is_tcp { Proto::Tcp } else { Proto::Udp },
                        tcp,
                        payload_len,
                        udp_payload,
                        markers,
                    },
                }
            },
        )
}

fn st_rrc_state() -> impl Strategy<Value = RrcState> {
    (0u8..7).prop_map(|i| {
        [
            RrcState::Dch,
            RrcState::Fach,
            RrcState::Pch,
            RrcState::LteContinuous,
            RrcState::LteShortDrx,
            RrcState::LteLongDrx,
            RrcState::LteIdle,
        ][i as usize]
    })
}

fn st_rrc_transition() -> impl Strategy<Value = RrcTransition> {
    (st_rrc_state(), st_rrc_state()).prop_map(|(from, to)| RrcTransition { from, to })
}

fn st_li() -> impl Strategy<Value = Option<u16>> {
    (any::<bool>(), any::<u16>()).prop_map(|(present, v)| present.then_some(v))
}

fn st_pdu_record() -> impl Strategy<Value = PduRecord> {
    (
        (st_dir(), st_u32(), any::<u16>(), any::<u8>(), any::<u8>()),
        (st_li(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((dir, sn, payload_len, b0, b1), (li, poll, retransmission))| PduRecord {
                dir,
                sn,
                payload_len,
                first2: [b0, b1],
                li,
                poll,
                retransmission,
            },
        )
}

fn st_status() -> impl Strategy<Value = StatusRecord> {
    (st_dir(), st_u32()).prop_map(|(data_dir, acks_sn)| StatusRecord { data_dir, acks_sn })
}

fn st_qxdm() -> impl Strategy<Value = QxdmLog> {
    (
        st_log(st_rrc_transition(), 10),
        st_log(st_pdu_record(), 16),
        st_log(st_status(), 8),
    )
        .prop_map(|(rrc, pdus, statuses)| QxdmLog {
            rrc,
            pdus,
            statuses,
        })
}

/// A coverage slot: often all-zero (how the recorder leaves an unused
/// slot), otherwise arbitrary, so unused slots are drawn both zero and
/// non-zero.
fn st_cover() -> impl Strategy<Value = (u64, u32)> {
    (any::<bool>(), st_u64(), st_u32())
        .prop_map(|(zero, id, off)| if zero { (0, 0) } else { (id, off) })
}

fn st_pdu_event() -> impl Strategy<Value = PduEvent> {
    (st_pdu_record(), (st_cover(), st_cover(), 0u8..3)).prop_map(|(pdu, (c0, c1, covers_len))| {
        PduEvent {
            pdu,
            covers: [c0, c1],
            covers_len,
        }
    })
}

fn st_screen() -> impl Strategy<Value = ScreenEvent> {
    ("[a-z:_]{1,20}", st_time()).prop_map(|(label, changed_at)| ScreenEvent { label, changed_at })
}

fn st_cpu() -> impl Strategy<Value = CpuMeter> {
    (st_dur(), st_dur()).prop_map(|(app_busy, controller_busy)| CpuMeter {
        app_busy,
        controller_busy,
    })
}

/// An arbitrary collection. `cellular` gates qxdm + pdu_truth together,
/// the way a real attachment does: both present (cellular) or both absent
/// (WiFi) — the WiFi/`None` case is therefore exercised on roughly half
/// the draws, and pinned by a dedicated test below.
fn st_collection() -> impl Strategy<Value = Collection> {
    (
        (st_log(st_behavior(), 10), st_log(st_packet(), 16)),
        (any::<bool>(), st_qxdm(), st_log(st_pdu_event(), 12)),
        (st_log(st_screen(), 10), st_cpu(), 0u64..600_000_000),
    )
        .prop_map(
            |((behavior, trace), (cellular, qxdm, pdu_truth), (camera, cpu, end_us))| Collection {
                behavior,
                trace,
                qxdm: cellular.then_some(qxdm),
                pdu_truth: cellular.then_some(pdu_truth),
                camera,
                cpu,
                end: SimTime::from_micros(end_us),
            },
        )
}

// ---- per-artifact codec round trips ------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn behavior_artifact_round_trips(log in st_log(st_behavior(), 20)) {
        let bytes = encode_artifact(BEHAVIOR_MAGIC, FORMAT_VERSION, &log);
        let back: RecordLog<BehaviorRecord> =
            decode_artifact(&bytes, BEHAVIOR_MAGIC, FORMAT_VERSION).unwrap();
        prop_assert_eq!(back, log);
    }

    #[test]
    fn trace_artifact_round_trips(trace in st_log(st_packet(), 24)) {
        let bytes = netstack::pcap::write_trace(&trace);
        prop_assert_eq!(netstack::pcap::read_trace(&bytes).unwrap(), trace);
    }

    #[test]
    fn qxdm_artifact_round_trips(log in st_qxdm()) {
        prop_assert_eq!(read_qxdm(&write_qxdm(&log)).unwrap(), log);
    }

    #[test]
    fn pdu_truth_artifact_round_trips(truth in st_log(st_pdu_event(), 20)) {
        prop_assert_eq!(read_pdu_truth(&write_pdu_truth(&truth)).unwrap(), truth);
    }

    #[test]
    fn camera_artifact_round_trips(camera in st_log(st_screen(), 20)) {
        let bytes = encode_artifact(CAMERA_MAGIC, FORMAT_VERSION, &camera);
        let back: RecordLog<ScreenEvent> =
            decode_artifact(&bytes, CAMERA_MAGIC, FORMAT_VERSION).unwrap();
        prop_assert_eq!(back, camera);
    }

    #[test]
    fn cpu_artifact_round_trips(cpu in st_cpu()) {
        let bytes = encode_artifact(CPU_MAGIC, FORMAT_VERSION, &cpu);
        let back: CpuMeter = decode_artifact(&bytes, CPU_MAGIC, FORMAT_VERSION).unwrap();
        prop_assert_eq!(back, cpu);
    }
}

// ---- column codec edge cases -------------------------------------------

/// One packet of flow `i`: a distinct source port per flow.
fn flow_packet(i: u64, id: u64) -> PacketRecord {
    let udp = i.is_multiple_of(5);
    PacketRecord {
        dir: if i.is_multiple_of(3) {
            Direction::Downlink
        } else {
            Direction::Uplink
        },
        pkt: IpPacket {
            id,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 1024 + i as u16),
            dst: SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443),
            proto: if udp { Proto::Udp } else { Proto::Tcp },
            tcp: (!udp).then_some(TcpHeader {
                seq: id.wrapping_mul(1400),
                ack: u64::MAX - id,
                flags: TcpFlags::default(),
            }),
            payload_len: 1400,
            udp_payload: udp.then(|| Arc::from(vec![i as u8; 12])),
            markers: vec![(id, i)],
        },
    }
}

/// Each damaged copy of `bytes` — every proper prefix, and every single
/// byte xor-ed with `mask` — is rejected, or (for a flip) decodes to a
/// value whose encoding is exactly the damaged bytes. Never a panic.
fn check_damage<T>(
    bytes: &[u8],
    mask: u8,
    read: impl Fn(&[u8]) -> Result<T, TraceError>,
    write: impl Fn(&T) -> Vec<u8>,
) {
    for cut in 0..bytes.len() {
        assert!(
            read(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes accepted"
        );
    }
    for i in 0..bytes.len() {
        let mut damaged = bytes.to_vec();
        damaged[i] ^= mask;
        if let Ok(v) = read(&damaged) {
            assert_eq!(
                write(&v),
                damaged,
                "byte {i} flipped: non-canonical bytes accepted"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// More than 127 flows: the flow index needs a multi-byte varint, and
    /// every flow keeps its own delta state.
    #[test]
    fn trace_with_many_flows_round_trips(flows in 128u64..300, rounds in 1u64..4) {
        let mut trace = RecordLog::new();
        for r in 0..rounds {
            for i in 0..flows {
                trace.push(SimTime::from_micros(r * 1_000 + i), flow_packet(i, r * flows + i));
            }
        }
        let bytes = netstack::pcap::write_trace(&trace);
        prop_assert_eq!(netstack::pcap::read_trace(&bytes).unwrap(), trace);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn damaged_trace_is_rejected_or_canonical(trace in st_log(st_packet(), 6), mask in 1u8..=255) {
        check_damage(
            &netstack::pcap::write_trace(&trace),
            mask,
            netstack::pcap::read_trace,
            netstack::pcap::write_trace,
        );
    }

    #[test]
    fn damaged_qxdm_is_rejected_or_canonical(log in st_qxdm(), mask in 1u8..=255) {
        check_damage(&write_qxdm(&log), mask, read_qxdm, write_qxdm);
    }

    #[test]
    fn damaged_pdu_truth_is_rejected_or_canonical(
        truth in st_log(st_pdu_event(), 10),
        mask in 1u8..=255,
    ) {
        check_damage(&write_pdu_truth(&truth), mask, read_pdu_truth, write_pdu_truth);
    }
}

/// Empty and one-record logs of every column codec, STATUS records in both
/// directions, and a UDP payload.
#[test]
fn empty_and_single_record_logs_round_trip() {
    let at = SimTime::from_micros(u64::MAX);
    let empty_trace = RecordLog::new();
    let mut one_packet = RecordLog::new();
    one_packet.push(at, flow_packet(0, u64::MAX));
    for trace in [empty_trace, one_packet] {
        let bytes = netstack::pcap::write_trace(&trace);
        assert_eq!(netstack::pcap::read_trace(&bytes).unwrap(), trace);
    }

    let mut one = QxdmLog::default();
    one.pdus.push(
        at,
        PduRecord {
            dir: Direction::Downlink,
            sn: u32::MAX,
            payload_len: u16::MAX,
            first2: [0xFF, 0],
            li: Some(u16::MAX),
            poll: true,
            retransmission: true,
        },
    );
    for (i, data_dir) in [Direction::Uplink, Direction::Downlink]
        .into_iter()
        .enumerate()
    {
        one.statuses.push(
            at,
            StatusRecord {
                data_dir,
                acks_sn: u32::MAX - i as u32,
            },
        );
    }
    for log in [QxdmLog::default(), one] {
        assert_eq!(read_qxdm(&write_qxdm(&log)).unwrap(), log);
    }

    let mut one_event = RecordLog::new();
    one_event.push(
        at,
        PduEvent {
            pdu: PduRecord {
                dir: Direction::Uplink,
                sn: 0,
                payload_len: 0,
                first2: [0, 0],
                li: None,
                poll: false,
                retransmission: false,
            },
            covers: [(u64::MAX, u32::MAX), (0, 1)],
            covers_len: 1,
        },
    );
    for truth in [RecordLog::new(), one_event] {
        assert_eq!(read_pdu_truth(&write_pdu_truth(&truth)).unwrap(), truth);
    }
}

/// Inside a bundle, every single-byte flip of a column artifact is caught
/// (by the manifest checksum if not by the decoder).
#[test]
fn flipped_artifact_bytes_fail_the_load() {
    let mut trace = RecordLog::new();
    trace.push(SimTime::from_micros(5), flow_packet(5, 9));
    let mut truth = RecordLog::new();
    truth.push(
        SimTime::from_micros(6),
        PduEvent {
            pdu: PduRecord {
                dir: Direction::Downlink,
                sn: 3,
                payload_len: 40,
                first2: [0x45, 6],
                li: Some(40),
                poll: true,
                retransmission: false,
            },
            covers: [(9, 0), (0, 0)],
            covers_len: 1,
        },
    );
    let col = Collection {
        behavior: RecordLog::new(),
        trace,
        qxdm: Some(QxdmLog::default()),
        pdu_truth: Some(truth),
        camera: RecordLog::new(),
        cpu: CpuMeter::default(),
        end: SimTime::from_secs(1),
    };
    let dir = fresh_dir("flip");
    col.save(&dir, &meta(5, 6)).unwrap();
    let path = dir.join(DATA_FILE);
    let good = fs::read(&path).unwrap();
    for name in [TRACE, QXDM, PDUS] {
        for i in entry_range(&dir, name) {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            fs::write(&path, &bad).unwrap();
            assert!(Collection::load(&dir).is_err(), "{name} byte {i}");
        }
        fs::write(&path, &good).unwrap();
    }
    assert_eq!(Collection::load(&dir).unwrap().0, col);
    let _ = fs::remove_dir_all(&dir);
}

// ---- whole-bundle round trips ------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn collection_round_trips_through_disk(
        col in st_collection(),
        seed in any::<u64>(),
        cfg in any::<u64>(),
    ) {
        let dir = fresh_dir("col");
        col.save(&dir, &meta(seed, cfg)).unwrap();
        let (back, got) = Collection::load(&dir).unwrap();
        prop_assert_eq!(&back, &col);
        prop_assert_eq!(got.seed, seed);
        prop_assert_eq!(got.config_digest, cfg);
        // save() pins the manifest's end to the collection's clock.
        prop_assert_eq!(got.end, col.end);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn collection_set_round_trips_through_disk(
        cols in prop::collection::vec(st_collection(), 1..4),
        seed in any::<u64>(),
    ) {
        let set = CollectionSet {
            items: cols
                .into_iter()
                .enumerate()
                .map(|(i, c)| (format!("session {i}"), c))
                .collect(),
        };
        let dir = fresh_dir("set");
        set.save_bundle(&dir, &meta(seed, 0)).unwrap();
        let (back, got) = CollectionSet::load_bundle(&dir).unwrap();
        prop_assert_eq!(&back, &set);
        prop_assert_eq!(got.seed, seed);
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---- declared reads ----------------------------------------------------

/// Each entry declared alone, then none, then every entry.
const READS_EACH: [Reads; 8] = [
    Reads::artifacts(&[BEHAVIOR]),
    Reads::artifacts(&[TRACE]),
    Reads::artifacts(&[QXDM]),
    Reads::artifacts(&[CPU]),
    Reads::artifacts(&[]).and_truths(&[PDUS]),
    Reads::artifacts(&[]).and_truths(&[CAMERA]),
    Reads::artifacts(&[]),
    Collection::READS_ALL,
];

/// `declared` when the entry is declared, `empty` when it is not.
fn kept<'a, T>(declared: bool, full: &'a T, empty: &'a T) -> &'a T {
    if declared {
        full
    } else {
        empty
    }
}

/// `back` holds exactly the entries of `col` that `reads` declares; every
/// other entry is empty.
fn assert_narrowed(back: &Collection, col: &Collection, reads: &Reads) {
    let (no_behavior, no_trace, no_camera) = (RecordLog::new(), RecordLog::new(), RecordLog::new());
    let what = format!("{reads:?}");
    assert_eq!(
        &back.behavior,
        kept(reads.artifact(BEHAVIOR), &col.behavior, &no_behavior),
        "{what}"
    );
    assert_eq!(
        &back.trace,
        kept(reads.artifact(TRACE), &col.trace, &no_trace),
        "{what}"
    );
    assert_eq!(
        back.qxdm.as_ref(),
        col.qxdm.as_ref().filter(|_| reads.artifact(QXDM)),
        "{what}"
    );
    assert_eq!(
        &back.cpu,
        kept(reads.artifact(CPU), &col.cpu, &CpuMeter::default()),
        "{what}"
    );
    assert_eq!(
        back.pdu_truth.as_ref(),
        col.pdu_truth.as_ref().filter(|_| reads.truth(PDUS)),
        "{what}"
    );
    assert_eq!(
        &back.camera,
        kept(reads.truth(CAMERA), &col.camera, &no_camera),
        "{what}"
    );
    assert_eq!(back.end, col.end, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn declared_reads_decode_exactly_the_declared_entries(
        first in st_collection(),
        second in st_collection(),
    ) {
        let dir = fresh_dir("reads");
        first.save(&dir, &meta(1, 2)).unwrap();
        for reads in &READS_EACH {
            let (back, _) = Collection::load_reading(&dir, reads).unwrap();
            assert_narrowed(&back, &first, reads);
        }
        // A set applies the same reads to each of its sessions, and its
        // full load stays lossless.
        let set = CollectionSet {
            items: vec![("a".into(), first), ("b".into(), second)],
        };
        let set_dir = fresh_dir("reads-set");
        set.save_bundle(&set_dir, &meta(1, 2)).unwrap();
        let reads = Reads::artifacts(&[BEHAVIOR]).and_truths(&[CAMERA]);
        let (back, _) = CollectionSet::load_reading(&set_dir, &reads).unwrap();
        prop_assert_eq!(back.items.len(), set.items.len());
        for ((name, got), (want_name, want)) in back.items.iter().zip(&set.items) {
            prop_assert_eq!(name, want_name);
            assert_narrowed(got, want, &reads);
        }
        prop_assert_eq!(CollectionSet::load_bundle(&set_dir).unwrap().0, set);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&set_dir);
    }
}

/// A cellular collection with every entry non-empty.
fn full_cellular_collection() -> Collection {
    let mut behavior = RecordLog::new();
    behavior.push(
        SimTime::from_secs(1),
        BehaviorRecord {
            action: "upload_post:photos".into(),
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(2),
            start_kind: StartKind::Trigger,
            mean_parse: SimDuration::from_millis(40),
            timed_out: false,
        },
    );
    let mut trace = RecordLog::new();
    trace.push(SimTime::from_micros(1_500_000), flow_packet(4, 11));
    let mut qxdm = QxdmLog::default();
    qxdm.rrc.push(
        SimTime::from_micros(1_100_000),
        RrcTransition {
            from: RrcState::Pch,
            to: RrcState::Fach,
        },
    );
    let mut truth = RecordLog::new();
    truth.push(
        SimTime::from_micros(1_600_000),
        PduEvent {
            pdu: PduRecord {
                dir: Direction::Uplink,
                sn: 8,
                payload_len: 40,
                first2: [0x45, 0],
                li: None,
                poll: false,
                retransmission: false,
            },
            covers: [(11, 0), (0, 0)],
            covers_len: 1,
        },
    );
    let mut camera = RecordLog::new();
    camera.push(
        SimTime::from_secs(2),
        ScreenEvent {
            label: "news_feed:item:photos".into(),
            changed_at: SimTime::from_secs(2),
        },
    );
    Collection {
        behavior,
        trace,
        qxdm: Some(qxdm),
        pdu_truth: Some(truth),
        camera,
        cpu: CpuMeter {
            app_busy: SimDuration::from_millis(300),
            controller_busy: SimDuration::from_millis(9),
        },
        end: SimTime::from_secs(3),
    }
}

/// A declared-reads load still checksums the entries it does not decode:
/// one flipped byte in any undeclared entry fails the load, naming that
/// entry.
#[test]
fn undeclared_entries_are_still_checksummed() {
    let dir = fresh_dir("reads-flip");
    full_cellular_collection().save(&dir, &meta(5, 6)).unwrap();
    let path = dir.join(DATA_FILE);
    let good = fs::read(&path).unwrap();
    for name in [BEHAVIOR, TRACE, QXDM, CPU, PDUS, CAMERA] {
        let range = entry_range(&dir, name);
        let mut bad = good.clone();
        bad[(range.start + range.end) / 2] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        for reads in &READS_EACH {
            if reads.artifact(name) || reads.truth(name) {
                continue;
            }
            match Collection::load_reading(&dir, reads) {
                Err(TraceError::ChecksumMismatch { name: got }) => assert_eq!(got, name),
                other => {
                    panic!("{name} flipped, {reads:?}: expected a checksum error, got {other:?}")
                }
            }
        }
        fs::write(&path, &good).unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Append a byte to entry `name` and rewrite the manifest to match (the
/// entry's length and checksum, the later entries' offsets), so the
/// checksums pass and only the decoder can object.
fn append_with_consistent_checksum(dir: &Path, name: &str) {
    let (mut manifest, old) = split_bundle(dir);
    let mut data = Vec::new();
    for entry in manifest
        .artifacts
        .iter_mut()
        .chain(manifest.truths.iter_mut())
    {
        let mut bytes = old[entry.range().start as usize..entry.range().end as usize].to_vec();
        if entry.name == name {
            bytes.push(0);
            entry.checksum = entry_checksum(&bytes);
        }
        entry.offset = data.len() as u64;
        entry.bytes = bytes.len() as u64;
        data.extend(bytes);
    }
    data.extend(seal_manifest(&manifest.render()));
    fs::write(dir.join(DATA_FILE), data).unwrap();
}

/// A declared entry keeps every canonical-bytes check: trailing bytes
/// behind a consistent checksum are rejected when the entry is declared,
/// and only verified (so accepted) when it is not.
#[test]
fn non_canonical_declared_entry_is_rejected_despite_its_checksum() {
    for (name, declared) in [
        (TRACE, Reads::artifacts(&[TRACE])),
        (PDUS, Reads::artifacts(&[]).and_truths(&[PDUS])),
    ] {
        let dir = fresh_dir("reads-canon");
        full_cellular_collection().save(&dir, &meta(5, 6)).unwrap();
        append_with_consistent_checksum(&dir, name);
        match Collection::load_reading(&dir, &declared) {
            Err(TraceError::Corrupt(_)) => {}
            other => panic!("{name}: expected a structural error, got {other:?}"),
        }
        assert!(Collection::load(&dir).is_err(), "{name}: full load");
        let (col, _) = Collection::load_reading(&dir, &Reads::artifacts(&[BEHAVIOR])).unwrap();
        assert_eq!(col.behavior, full_cellular_collection().behavior);
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---- pinned edge cases -------------------------------------------------

/// A WiFi run has no QxDM log and no PDU truth; manifest-entry absence is
/// the canonical `None` encoding and must round-trip exactly.
#[test]
fn wifi_collection_round_trips_none_artifacts() {
    let mut behavior = RecordLog::new();
    behavior.push(
        SimTime::from_secs(1),
        BehaviorRecord {
            action: "page_load".into(),
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(3),
            start_kind: StartKind::Trigger,
            mean_parse: SimDuration::from_millis(50),
            timed_out: false,
        },
    );
    let col = Collection {
        behavior,
        trace: RecordLog::new(),
        qxdm: None,
        pdu_truth: None,
        camera: RecordLog::new(),
        cpu: CpuMeter::default(),
        end: SimTime::from_secs(4),
    };
    let dir = fresh_dir("wifi");
    col.save(&dir, &meta(1, 2)).unwrap();
    let (back, _) = Collection::load(&dir).unwrap();
    assert_eq!(back, col);
    assert!(back.qxdm.is_none());
    assert!(back.pdu_truth.is_none());
    let _ = fs::remove_dir_all(&dir);
}

/// The degenerate bundle: every log empty, zero end time.
#[test]
fn empty_collection_round_trips() {
    let col = Collection {
        behavior: RecordLog::new(),
        trace: RecordLog::new(),
        qxdm: Some(QxdmLog::default()),
        pdu_truth: Some(RecordLog::new()),
        camera: RecordLog::new(),
        cpu: CpuMeter::default(),
        end: SimTime::ZERO,
    };
    let dir = fresh_dir("empty");
    col.save(&dir, &meta(0, 0)).unwrap();
    let (back, _) = Collection::load(&dir).unwrap();
    assert_eq!(back, col);
    let _ = fs::remove_dir_all(&dir);
}

// ---- damaged bundles fail structurally ---------------------------------

fn saved_bundle(tag: &str) -> PathBuf {
    let col = Collection {
        behavior: RecordLog::new(),
        trace: RecordLog::new(),
        qxdm: None,
        pdu_truth: None,
        camera: RecordLog::new(),
        cpu: CpuMeter::default(),
        end: SimTime::from_secs(9),
    };
    let dir = fresh_dir(tag);
    col.save(&dir, &meta(3, 4)).unwrap();
    dir
}

#[test]
fn truncated_manifest_is_a_structured_error() {
    let dir = saved_bundle("trunc");
    // Cut mid-way through the fixed header fields.
    edit_manifest(&dir, |full| {
        full[..full.find("end_us").unwrap()].to_string()
    });
    match Collection::load(&dir) {
        Err(TraceError::Manifest { .. }) => {}
        other => panic!("expected a manifest error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_manifest_is_a_structured_error() {
    let dir = saved_bundle("garbage");
    edit_manifest(&dir, |_| "not a bundle at all\n".to_string());
    match Collection::load(&dir) {
        Err(TraceError::BadMagic(_)) => {}
        other => panic!("expected a bad-magic error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn future_format_version_is_rejected() {
    let dir = saved_bundle("version");
    edit_manifest(&dir, |text| {
        text.replace(
            &format!("qoe-trace-bundle v{FORMAT_VERSION}"),
            "qoe-trace-bundle v99",
        )
    });
    match Collection::load(&dir) {
        Err(TraceError::BadVersion { found: 99, .. }) => {}
        other => panic!("expected a version error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tampered_artifact_fails_its_checksum() {
    let dir = saved_bundle("tamper");
    let path = dir.join(DATA_FILE);
    let mut bytes = fs::read(&path).unwrap();
    bytes[entry_range(&dir, BEHAVIOR).end - 1] ^= 0xFF;
    fs::write(&path, bytes).unwrap();
    match Collection::load(&dir) {
        Err(TraceError::ChecksumMismatch { .. }) => {}
        other => panic!("expected a checksum error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_artifact_file_is_a_structured_error() {
    let dir = saved_bundle("missing");
    // Every entry lives in the one data file.
    fs::remove_file(dir.join(DATA_FILE)).unwrap();
    match Collection::load(&dir) {
        Err(TraceError::Io { .. }) => {}
        other => panic!("expected an io error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

// ---- sessions of a set -------------------------------------------------

fn one_session(end_secs: u64) -> Collection {
    Collection {
        end: SimTime::from_secs(end_secs),
        ..full_cellular_collection()
    }
}

/// A single-session set is a root bundle file and one session directory
/// holding one file.
#[test]
fn single_session_set_is_one_file_per_directory() {
    let dir = fresh_dir("single");
    CollectionSet::single(one_session(3))
        .save_bundle(&dir, &meta(1, 2))
        .unwrap();
    let names = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    assert_eq!(names(&dir), [DATA_FILE, "session"]);
    assert_eq!(names(&dir.join("session")), [DATA_FILE]);
    let _ = fs::remove_dir_all(&dir);
}

/// Session names that map to one directory are refused, not saved over
/// each other.
#[test]
fn colliding_session_names_are_refused() {
    let set = CollectionSet {
        items: vec![
            ("a b".into(), one_session(3)),
            ("a-b".into(), one_session(4)),
        ],
    };
    let dir = fresh_dir("collide");
    match set.save_bundle(&dir, &meta(1, 2)) {
        Err(TraceError::SubDirectory { name, dir }) => {
            assert_eq!((name.as_str(), dir.as_str()), ("a-b", "a-b"));
        }
        other => panic!("expected a sub-directory error, got {other:?}"),
    }
    // The set never completed, so nothing loads as if it had.
    assert!(CollectionSet::load_bundle(&dir).is_err());
    let _ = fs::remove_dir_all(&dir);
}
