//! The replicated store against its wipe + replay oracle.
//!
//! Compaction and scrub replay their ops from empty once, into a scratch
//! target, and reconcile each replica to it, writing only the files that
//! differ. The oracle kept here is the direct construction they replace:
//! wipe a replica's tree and log, write the log bytes back, and replay
//! them op by op. After every compaction and scrub, every file under
//! every replica root — logs included — must equal what the oracle
//! leaves on a copy of the filesystem taken just before; replicas the
//! pass must not touch (dead ones, during compaction) stay byte-for-byte
//! as they were. The codec and torn-append pins for the `CRZL` log live
//! here too.

use std::collections::BTreeMap;
use std::sync::Arc;

use cruz::chunk::ChunkId;
use cruz::replog::{
    append_record, encode_record, install_replica_faults, read_log, torn_prefix, LogOp,
    ReplicaFault, ReplicaFaultKind, ReplicatedStore, StoreOpPoint, REPLOG_MAGIC, REPLOG_VERSION,
};
use cruz::store::{PreparedPut, StoreConfig};
use proptest::prelude::*;
use simos::fs::NetFs;

const JOB: &str = "job";

fn image(fill: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| fill.wrapping_add((i / 256) as u8))
        .collect()
}

fn cfg() -> StoreConfig {
    StoreConfig {
        chunk_bytes: 256,
        dedup: true,
        compress: true,
        threads: 1,
        replicas: 3,
    }
}

fn store(fs: &NetFs, k: usize) -> ReplicatedStore {
    ReplicatedStore::new(fs.clone(), JOB, k).with_threads(1)
}

/// Puts two pods' images for `epoch` and commits it.
fn put_epoch(rs: &ReplicatedStore, epoch: u64, fill: u8) {
    for (pod, f) in [("pod0", fill), ("pod1", fill ^ 0x5a)] {
        let prep = rs.prepare_chunked(&image(f, 1024), &[], &cfg());
        rs.put_prepared(pod, epoch, PreparedPut::Chunked(prep));
    }
    rs.commit(epoch);
}

/// A copy of every file, on a filesystem of its own.
fn deep_copy(fs: &NetFs) -> NetFs {
    let copy = NetFs::new();
    for path in fs.list("") {
        copy.write_file(&path, fs.read_file(&path).unwrap_or_default());
    }
    copy
}

/// Every file on `fs` except the fault-plane control files.
fn files(fs: &NetFs) -> BTreeMap<String, Vec<u8>> {
    fs.list("")
        .into_iter()
        .filter(|p| !p.starts_with("/replctl/"))
        .map(|p| {
            let bytes = fs.read_file(&p).unwrap_or_default();
            (p, bytes)
        })
        .collect()
}

/// Replica `r`'s store tree, keyed by path relative to the replica root.
fn tree(rs: &ReplicatedStore, fs: &NetFs, r: usize) -> BTreeMap<String, Vec<u8>> {
    let root = rs.replica(r).root().to_owned();
    fs.list(&format!("{root}/ckpt/{JOB}/"))
        .into_iter()
        .map(|p| {
            let bytes = fs.read_file(&p).unwrap_or_default();
            (p[root.len()..].to_owned(), bytes)
        })
        .collect()
}

// ---- the oracle --------------------------------------------------------------

/// Removes replica `r`'s whole store tree and its log.
fn wipe(rs: &ReplicatedStore, fs: &NetFs, r: usize) {
    let root = rs.replica(r).root().to_owned();
    for path in fs.list(&format!("{root}/ckpt/{JOB}/")) {
        fs.remove(&path);
    }
    fs.remove(&rs.log_path(r));
}

/// Writes `log` as replica `r`'s log and replays it op by op.
fn replay(rs: &ReplicatedStore, fs: &NetFs, r: usize, log: &[u8]) {
    fs.write_file(&rs.log_path(r), log.to_vec());
    let (ops, _) = read_log(fs, &rs.log_path(r));
    let store = rs.replica(r);
    for op in &ops {
        op.apply(&store);
    }
}

/// The tree a replay of `log` from empty constructs.
fn replayed_tree(log: &[u8]) -> BTreeMap<String, Vec<u8>> {
    let fs = NetFs::new();
    let rs = store(&fs, 2);
    replay(&rs, &fs, 0, log);
    tree(&rs, &fs, 0)
}

fn header() -> Vec<u8> {
    let mut h = REPLOG_MAGIC.to_le_bytes().to_vec();
    h.extend_from_slice(&REPLOG_VERSION.to_le_bytes());
    h
}

/// Runs `compact_logs` on `fs` and the oracle on a copy taken just
/// before, then demands byte-identical filesystems.
fn check_compaction(fs: &NetFs, k: usize) {
    let rs = store(fs, k);
    let before = deep_copy(fs);
    let oracle = store(&before, k);
    let alive = oracle.alive_replicas();
    let reads = |rs: &ReplicatedStore| -> Vec<Option<Vec<u8>>> {
        let p = rs.primary();
        let mut out = Vec::new();
        for e in p.committed_epochs() {
            for pod in p.pods_in_epoch(e) {
                out.push(p.get_image(&pod, e));
            }
        }
        out
    };
    let reads_before = reads(&oracle);
    let old = alive
        .first()
        .map(|&p| read_log(&before, &oracle.log_path(p)));

    let rep = rs.compact_logs();

    assert_eq!(rep.compacted, alive);
    if let (Some(&p), Some((old_ops, old_len))) = (alive.first(), old) {
        let log = fs.read_file(&rs.log_path(p)).expect("compacted log");
        assert_eq!(rep.ops_before, old_ops.len());
        assert_eq!(rep.ops_after, read_log(fs, &rs.log_path(p)).0.len());
        assert_eq!(
            rep.bytes_reclaimed,
            old_len.saturating_sub(log.len() as u64)
        );
        for &r in &alive {
            wipe(&oracle, &before, r);
            replay(&oracle, &before, r, &log);
        }
    }
    assert_eq!(files(fs), files(&before), "compaction diverged from oracle");
    assert_eq!(
        fs.read_file("/replctl/DEAD"),
        before.read_file("/replctl/DEAD")
    );
    assert_eq!(reads(&rs), reads_before, "compaction changed a read");
}

/// Runs `scrub_and_repair` on `fs` and the pre-reconcile scrub — elect,
/// then wipe + replay the reference and every diverging replica — on a
/// copy taken just before, then demands byte-identical replicas.
fn check_scrub(fs: &NetFs, k: usize) {
    let rs = store(fs, k);
    let before = deep_copy(fs);
    let oracle = store(&before, k);
    let mut reference = 0;
    let mut best = None;
    for r in 0..k {
        let (ops, _) = read_log(&before, &oracle.log_path(r));
        let newest = ops
            .iter()
            .filter_map(|op| match op {
                LogOp::Commit { epoch } => Some(*epoch),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let key = (newest, ops.len());
        if best.is_none_or(|b| key > b) {
            best = Some(key);
            reference = r;
        }
    }
    let (_, valid) = read_log(&before, &oracle.log_path(reference));
    let ref_log = before
        .read_file(&oracle.log_path(reference))
        .map(|b| b[..valid as usize].to_vec())
        .unwrap_or_else(header);
    wipe(&oracle, &before, reference);
    replay(&oracle, &before, reference, &ref_log);
    let want = tree(&oracle, &before, reference);
    let mut repaired = Vec::new();
    for r in (0..k).filter(|&r| r != reference) {
        let r_log = before.read_file(&oracle.log_path(r)).unwrap_or_default();
        if r_log != ref_log || tree(&oracle, &before, r) != want {
            wipe(&oracle, &before, r);
            replay(&oracle, &before, r, &ref_log);
            repaired.push(r);
        }
    }

    let rep = rs.scrub_and_repair();

    assert_eq!(rep.reference, reference);
    assert_eq!(rep.repaired, repaired);
    assert_eq!(files(fs), files(&before), "scrub diverged from oracle");
    assert_eq!(rs.alive_replicas(), (0..k).collect::<Vec<_>>());
}

// ---- drivers -----------------------------------------------------------------

#[derive(Debug, Clone)]
enum Step {
    Put(u8),
    Discard,
    Prune,
    Gc,
    Torn(u8, u8),
    Compact,
}

fn run(fs: &NetFs, k: usize, steps: &[Step]) {
    let rs = store(fs, k);
    let mut next = rs.primary().all_epochs().last().map_or(1, |e| e + 1);
    for step in steps {
        match *step {
            Step::Put(fill) => {
                put_epoch(&rs, next, fill);
                next += 1;
            }
            Step::Discard => {
                if let Some(e) = rs.latest_committed_epoch() {
                    rs.discard_epoch(e);
                }
            }
            Step::Prune => {
                if let Some(e) = rs.latest_committed_epoch() {
                    rs.prune_below(e);
                }
            }
            Step::Gc => {
                rs.gc_orphan_chunks();
            }
            Step::Torn(fill, frac) => {
                let prep = rs.prepare_chunked(&image(fill, 1024), &[], &cfg());
                rs.put_torn(&PreparedPut::Chunked(prep), frac);
            }
            Step::Compact => check_compaction(fs, k),
        }
    }
}

fn fault(replica: usize, point: StoreOpPoint, nth: u32, kind: ReplicaFaultKind) -> ReplicaFault {
    ReplicaFault {
        replica,
        point,
        nth,
        kind,
    }
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => any::<u8>().prop_map(Step::Put),
        1 => Just(Step::Discard),
        1 => Just(Step::Prune),
        1 => Just(Step::Gc),
        1 => (any::<u8>(), 1u8..=255).prop_map(|(f, frac)| Step::Torn(f, frac)),
        2 => Just(Step::Compact),
    ]
}

fn fault_kind() -> impl Strategy<Value = ReplicaFaultKind> {
    prop_oneof![
        Just(ReplicaFaultKind::Crash),
        (0u8..=255).prop_map(ReplicaFaultKind::TornLog),
        (0u8..=255).prop_map(ReplicaFaultKind::TornChunk),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any program of puts, discards, prunes, GCs and torn puts, with up
    /// to one armed replica fault: every compaction along the way, the
    /// final scrub and a compaction after it all match the oracle.
    #[test]
    fn compaction_and_scrub_match_wipe_and_replay(
        k in 2usize..=3,
        steps in proptest::collection::vec(step(), 1..12),
        armed in proptest::option::of((0usize..3, 0usize..4, 0u32..3, fault_kind())),
    ) {
        let fs = NetFs::new();
        if let Some((r, p, nth, kind)) = armed {
            install_replica_faults(&fs, &[fault(r % k, StoreOpPoint::ALL[p], nth, kind)]);
        }
        run(&fs, k, &steps);
        check_scrub(&fs, k);
        check_compaction(&fs, k);
    }

    /// With no faults and no torn puts, every replica's tree after every
    /// logged write is exactly the replay of its log from empty, and all
    /// logs are byte-equal.
    #[test]
    fn every_write_matches_replay_from_empty(
        k in 2usize..=3,
        steps in proptest::collection::vec(step(), 1..10),
    ) {
        let fs = NetFs::new();
        let rs = store(&fs, k);
        for s in steps.iter().filter(|s| !matches!(s, Step::Torn(..))) {
            run(&fs, k, std::slice::from_ref(s));
            let log0 = fs.read_file(&rs.log_path(0)).unwrap_or_default();
            for r in 0..k {
                let log = fs.read_file(&rs.log_path(r)).unwrap_or_default();
                prop_assert_eq!(&log, &log0);
                prop_assert_eq!(tree(&rs, &fs, r), replayed_tree(&log));
            }
        }
    }
}

// ---- pinned cases -------------------------------------------------------------

#[test]
fn compaction_after_prune_and_gc_matches_oracle_at_k2_and_k3() {
    for k in [2, 3] {
        let fs = NetFs::new();
        run(
            &fs,
            k,
            &[
                Step::Put(0x61),
                Step::Put(0x61),
                Step::Put(0x77),
                Step::Prune,
                Step::Gc,
                Step::Compact,
                Step::Put(0x78),
                Step::Compact,
            ],
        );
        check_scrub(&fs, k);
    }
}

#[test]
fn torn_chunk_replica_matches_oracle() {
    for victim in [0, 1] {
        let fs = NetFs::new();
        install_replica_faults(
            &fs,
            &[fault(
                victim,
                StoreOpPoint::Put,
                1,
                ReplicaFaultKind::TornChunk(90),
            )],
        );
        run(
            &fs,
            3,
            &[
                Step::Put(0x10),
                Step::Put(0x20),
                Step::Compact,
                Step::Put(0x30),
            ],
        );
        check_scrub(&fs, 3);
        check_compaction(&fs, 3);
    }
}

#[test]
fn put_torn_orphans_are_reconciled_away_like_the_oracle() {
    let fs = NetFs::new();
    let rs = store(&fs, 3);
    run(&fs, 3, &[Step::Put(0x40), Step::Torn(0xc0, 200)]);
    assert!(!rs.orphan_chunks().is_empty());
    check_compaction(&fs, 3);
    assert!(rs.orphan_chunks().is_empty());
    run(&fs, 3, &[Step::Torn(0xd0, 255)]);
    check_scrub(&fs, 3);
    assert!(rs.orphan_chunks().is_empty());
}

#[test]
fn compaction_leaves_a_dead_replica_untouched() {
    let fs = NetFs::new();
    let rs = store(&fs, 3);
    install_replica_faults(
        &fs,
        &[fault(1, StoreOpPoint::Put, 1, ReplicaFaultKind::Crash)],
    );
    run(&fs, 3, &[Step::Put(0x50), Step::Put(0x51), Step::Prune]);
    assert_eq!(rs.alive_replicas(), vec![0, 2]);
    let dead_tree = tree(&rs, &fs, 1);
    let dead_log = fs.read_file(&rs.log_path(1));
    check_compaction(&fs, 3);
    assert_eq!(tree(&rs, &fs, 1), dead_tree);
    assert_eq!(fs.read_file(&rs.log_path(1)), dead_log);
    check_scrub(&fs, 3);
}

#[test]
fn torn_log_put_leaves_a_prefix_of_a_healthy_log() {
    for frac in [1, 100, 255] {
        let fs = NetFs::new();
        let rs = store(&fs, 3);
        put_epoch(&rs, 1, 0x11);
        install_replica_faults(
            &fs,
            &[fault(
                2,
                StoreOpPoint::Put,
                0,
                ReplicaFaultKind::TornLog(frac),
            )],
        );
        put_epoch(&rs, 2, 0x22);
        let healthy = fs.read_file(&rs.log_path(0)).unwrap();
        let torn = fs.read_file(&rs.log_path(2)).unwrap();
        assert!(torn.len() < healthy.len());
        assert_eq!(&healthy[..torn.len()], &torn[..]);
        assert_eq!(fs.read_file(&rs.log_path(1)), Some(healthy.clone()));
        // The torn replica holds epoch 1's two puts and commit only.
        assert_eq!(read_log(&fs, &rs.log_path(2)).0.len(), 3);
    }
}

#[test]
fn record_codec_round_trips_every_op() {
    let ops = vec![
        LogOp::PutChunked {
            pod: "b".into(),
            epoch: 4,
            manifest: vec![9; 40],
            image: ChunkId(7, 8),
            blobs: vec![
                (ChunkId(1, 2), Arc::from(vec![5; 10])),
                (ChunkId(3, 4), Arc::from(vec![])),
            ],
        },
        LogOp::Commit { epoch: 4 },
        LogOp::Discard { epoch: 3 },
        LogOp::Gc,
        LogOp::Prune { keep: 4 },
    ];
    let fs = NetFs::new();
    for op in &ops {
        append_record(&fs, "/replog/t.log", &encode_record(op));
    }
    let (back, valid) = read_log(&fs, "/replog/t.log");
    assert_eq!(back, ops);
    assert_eq!(valid, fs.len_of("/replog/t.log").unwrap());
}

#[test]
fn torn_append_keeps_only_the_valid_prefix() {
    let fs = NetFs::new();
    let a = LogOp::Commit { epoch: 1 };
    let b = LogOp::Commit { epoch: 2 };
    append_record(&fs, "/replog/t.log", &encode_record(&a));
    append_record(&fs, "/replog/t.log", torn_prefix(&encode_record(&b), 128));
    let (ops, valid) = read_log(&fs, "/replog/t.log");
    assert_eq!(ops, vec![a]);
    assert!(valid < fs.len_of("/replog/t.log").unwrap());
}
