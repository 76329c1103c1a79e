//! Mutation fuzzing of every decoder that reads bytes from outside the
//! process: pod images, chunk manifests (through the store's read path),
//! replica operation logs, fault plans, control frames and stored chunk
//! containers.
//!
//! Real encodings — taken from a checkpoint of a running job, so they are
//! the bytes a crash or a torn write would actually damage — are mutated
//! by 1–4 byte flips, truncations and `u32::MAX` splices (the count field
//! a hostile writer would forge). Formats that carry a checksum are fed
//! each mutant twice: as is, where the checksum must reject it, and
//! re-sealed, so it reaches the structural decoder. Every decode must
//! return `Err`/`None` or a value that re-encodes canonically; none may
//! panic, and none may ask the allocator for more than 1 MiB at once. A
//! counting global allocator records the largest single allocation (per
//! thread, so the harness's threads do not count).
//!
//! The mutation streams are seeded, so a failure names a reproducible
//! input: it prints the decoder, the mutant's index and its bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};

use cruz_repro::cluster::{
    ClusterParams, FaultPlan, JobSpec, PodSpec, ReplicaFault, ReplicaFaultKind, StoreOpPoint, World,
};
use cruz_repro::cruz::chunk::{decode_chunk, encode_chunk};
use cruz_repro::cruz::proto::{CtlMsg, OpKind, ProtocolMode};
use cruz_repro::cruz::replog::{encode_record, read_log, REPLOG_MAGIC, REPLOG_VERSION};
use cruz_repro::cruz::store::{CheckpointStore, StoreConfig};
use cruz_repro::des::digest;
use cruz_repro::des::SimRng;
use cruz_repro::simnet::addr::{IpAddr, MacAddr};
use cruz_repro::simos::fs::NetFs;
use cruz_repro::workloads::compute::ComputeConfig;
use cruz_repro::zap::image::MacMode;
use cruz_repro::zap::PodImage;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Largest;

// SAFETY: every call forwards unchanged to the system allocator; the
// record is a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|m| m.set(m.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|m| m.set(m.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The largest single allocation any decode may request.
const BOUND: usize = 1 << 20;

/// Mutants per seed input.
const MUTANTS: usize = 4000;

/// Runs `decode` on `input`, failing the test — with the input — if it
/// panics or allocates past [`BOUND`].
fn checked<T>(what: &str, idx: usize, input: &[u8], decode: impl FnOnce() -> T) -> T {
    LARGEST.with(|m| m.set(0));
    let out = panic::catch_unwind(AssertUnwindSafe(decode));
    let largest = LARGEST.with(Cell::get);
    match out {
        Ok(v) if largest <= BOUND => v,
        Ok(_) => {
            panic!("{what} mutant {idx} allocated {largest} bytes at once; input {input:02x?}")
        }
        Err(_) => panic!("{what} mutant {idx} panicked; input {input:02x?}"),
    }
}

/// One seeded mutation of `orig`: 1–4 byte flips, a truncation, or a
/// `u32::MAX` splice. `None` when the draw left the bytes unchanged.
fn mutate(rng: &mut SimRng, orig: &[u8]) -> Option<Vec<u8>> {
    let mut m = orig.to_vec();
    let len = m.len() as u64;
    match rng.range(0, 3) {
        0 => {
            for _ in 0..rng.range(1, 5) {
                let at = rng.range(0, len) as usize;
                m[at] ^= rng.range(1, 256) as u8;
            }
        }
        1 => m.truncate(rng.range(0, len) as usize),
        _ => {
            let at = rng.range(0, len.saturating_sub(4) + 1) as usize;
            let end = (at + 4).min(m.len());
            m[at..end].copy_from_slice(&u32::MAX.to_le_bytes()[..end - at]);
        }
    }
    (m != orig).then_some(m)
}

/// Re-seals a body that ends in an FNV-1a trailer (pod images, chunk
/// manifests) over everything before it.
fn reseal_trailer(m: &[u8]) -> Vec<u8> {
    let mut m = m.to_vec();
    if m.len() >= 8 {
        let body = m.len() - 8;
        let sum = digest::fnv1a(&m[..body]);
        m[body..].copy_from_slice(&sum.to_le_bytes());
    }
    m
}

/// Two checkpoints of a finished compute job in a k = 3 store with dedup
/// and compression: `(world, job, pod, latest epoch)`.
fn checkpointed_world() -> (World, &'static str, &'static str, u64) {
    let mut p = ClusterParams {
        store: StoreConfig::dedup_compress(),
        ..ClusterParams::default()
    };
    p.store.replicas = 3;
    p.store.threads = 1;
    let mut w = World::new(2, p);
    let cfg = ComputeConfig {
        outer: 20,
        inner: 30,
    };
    w.launch_job(&JobSpec {
        name: "fz".into(),
        coordinator_node: 1,
        pods: vec![PodSpec {
            name: "p0".into(),
            ip: IpAddr::from_octets([10, 0, 1, 7]),
            mac_mode: MacMode::Dedicated(MacAddr::from_index(4001)),
            node: 0,
            programs: vec![cfg.program()],
        }],
    })
    .expect("launch");
    assert!(w.run_until_pred(20_000_000, |w| w.job_finished("fz")));
    // Two epochs, so the replica log holds more than one put/commit pair.
    let mut op = 0;
    for _ in 0..2 {
        op = w
            .start_checkpoint("fz", ProtocolMode::Blocking, None)
            .expect("checkpoint");
        assert!(w.run_until_op(op, 20_000_000));
    }
    assert!(w.store("fz").is_committed(op));
    (w, "fz", "p0", op)
}

#[test]
fn pod_image_decode_survives_mutation() {
    let (w, job, pod, epoch) = checkpointed_world();
    let orig = w.store(job).get_image(pod, epoch).expect("stored image");
    assert!(
        orig.len() < BOUND / 4,
        "seed image stays well under the bound"
    );
    let mut rng = SimRng::from_seed(0x1a6e);
    for idx in 0..MUTANTS {
        let Some(m) = mutate(&mut rng, &orig) else {
            continue;
        };
        let raw = checked("image", idx, &m, || PodImage::decode(&m));
        assert!(raw.is_err(), "image mutant {idx} passed its checksum");
        let sealed = reseal_trailer(&m);
        if let Ok(img) = checked("sealed image", idx, &sealed, || PodImage::decode(&sealed)) {
            assert_eq!(
                PodImage::decode(&img.encode()).as_ref(),
                Ok(&img),
                "sealed image mutant {idx} does not round-trip"
            );
        }
    }
}

#[test]
fn manifest_read_path_survives_mutation() {
    let (w, job, pod, epoch) = checkpointed_world();
    let want = w.store(job).get_image(pod, epoch).expect("stored image");
    let store = CheckpointStore::new(w.fs.clone(), job).with_threads(1);
    let path = store.manifest_path(pod, epoch);
    let orig = w.fs.read_file(&path).expect("manifest");
    let mut rng = SimRng::from_seed(0xc42a);
    for idx in 0..MUTANTS {
        let Some(m) = mutate(&mut rng, &orig) else {
            continue;
        };
        for (sealed, bytes) in [(false, m.clone()), (true, reseal_trailer(&m))] {
            w.fs.write_file(&path, bytes.clone());
            let got = checked("manifest", idx, &bytes, || {
                (store.image_len(pod, epoch), store.get_image(pod, epoch))
            });
            // The image root and chunk addresses are verified on read, so a
            // damaged manifest serves nothing or exactly the stored image.
            assert!(
                got.1.is_none() || got.1.as_ref() == Some(&want),
                "manifest mutant {idx} (sealed: {sealed}) served wrong bytes"
            );
            if !sealed {
                assert_eq!(
                    got,
                    (None, None),
                    "manifest mutant {idx} passed its checksum"
                );
            }
        }
    }
    w.fs.write_file(&path, orig);
    assert_eq!(store.get_image(pod, epoch), Some(want));
}

/// `(start, end)` of every record in a well-formed replica log.
fn log_records(log: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 6;
    while at < log.len() {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        let end = at + 4 + 1 + len + 8;
        out.push((at, end));
        at = end;
    }
    out
}

#[test]
fn replica_log_reader_survives_mutation() {
    let (w, job, _, _) = checkpointed_world();
    let path = w.store(job).log_path(0);
    let orig = w.fs.read_file(&path).expect("replica log");
    let (ops, valid) = read_log(&w.fs, &path);
    assert_eq!(valid, orig.len() as u64, "the seed log is whole");
    assert!(
        orig.len() < BOUND / 4,
        "seed log stays well under the bound"
    );
    let records = log_records(&orig);
    let mut rng = SimRng::from_seed(0x10c5);
    for idx in 0..MUTANTS {
        let Some(m) = mutate(&mut rng, &orig) else {
            continue;
        };
        let mut sealed = m.clone();
        for &(start, end) in &records {
            if end <= sealed.len() {
                let sum = digest::fold(digest::OFFSET, &sealed[start + 4..end - 8]);
                sealed[end - 8..end].copy_from_slice(&sum.to_le_bytes());
            }
        }
        for (is_sealed, bytes) in [(false, m), (true, sealed)] {
            let fs = NetFs::new();
            fs.write_file("/replog/fz.log", bytes.clone());
            let (got, n) = checked("log", idx, &bytes, || read_log(&fs, "/replog/fz.log"));
            assert!(n as usize <= bytes.len(), "log mutant {idx} over-read");
            if !is_sealed {
                // A damaged record ends the scan: what survives is a
                // prefix of the original history.
                assert_eq!(
                    got[..],
                    ops[..got.len()],
                    "log mutant {idx} changed history"
                );
            }
            // What the reader accepted re-encodes to exactly the bytes it
            // consumed.
            if n > 0 {
                let mut canon = REPLOG_MAGIC.to_le_bytes().to_vec();
                canon.extend_from_slice(&REPLOG_VERSION.to_le_bytes());
                for op in &got {
                    canon.extend_from_slice(&encode_record(op));
                }
                assert_eq!(
                    canon[..],
                    bytes[..n as usize],
                    "log mutant {idx} (sealed: {is_sealed}) is not canonical"
                );
            }
        }
    }
}

#[test]
fn fault_plan_decode_survives_mutation() {
    let mut plans: Vec<FaultPlan> = (0..8).map(|s| FaultPlan::random(s, 4)).collect();
    let mut with_replicas = FaultPlan::random(99, 4);
    with_replicas.replicas = vec![ReplicaFault {
        replica: 1,
        point: StoreOpPoint::from_tag(0).expect("a store-op point"),
        nth: 2,
        kind: ReplicaFaultKind::TornLog(40),
    }];
    plans.push(with_replicas);
    let mut rng = SimRng::from_seed(0xfa17);
    for plan in plans {
        let orig = plan.encode();
        for idx in 0..MUTANTS / 4 {
            let Some(m) = mutate(&mut rng, &orig) else {
                continue;
            };
            if let Some(p) = checked("plan", idx, &m, || FaultPlan::decode(&m)) {
                let again = FaultPlan::decode(&p.encode()).expect("re-encoded plan decodes");
                assert_eq!(
                    again.encode(),
                    p.encode(),
                    "plan mutant {idx} does not round-trip"
                );
            }
        }
    }
}

#[test]
fn ctl_msg_decode_survives_mutation() {
    let msgs = [
        CtlMsg::Start {
            kind: OpKind::Restart,
            epoch: 7,
            mode: ProtocolMode::Optimized,
            cow: true,
        },
        CtlMsg::CommDisabled { epoch: 1 },
        CtlMsg::Done { epoch: 2 },
        CtlMsg::Continue { epoch: 3 },
        CtlMsg::ContinueDone { epoch: 4 },
        CtlMsg::Durable { epoch: 5 },
        CtlMsg::Abort { epoch: 6 },
        CtlMsg::Ping { seq: 8 },
        CtlMsg::Pong { seq: 9 },
    ];
    let mut rng = SimRng::from_seed(0xc7d1);
    for msg in msgs {
        let orig = msg.encode();
        for idx in 0..MUTANTS / 4 {
            let Some(m) = mutate(&mut rng, &orig) else {
                continue;
            };
            if let Some(got) = checked("ctl", idx, &m, || CtlMsg::decode(&m)) {
                assert_eq!(CtlMsg::decode(&got.encode()), Some(got), "ctl mutant {idx}");
            }
        }
    }
}

#[test]
fn chunk_container_decode_survives_mutation() {
    // One LZ container (compressible bytes) and one raw container.
    let text: Vec<u8> = b"checkpoint ".iter().cycle().take(4096).copied().collect();
    let mut noise = SimRng::from_seed(5);
    let random: Vec<u8> = (0..512).map(|_| noise.range(0, 256) as u8).collect();
    let mut rng = SimRng::from_seed(0xc4c4);
    for raw in [text, random] {
        let orig = encode_chunk(&raw, true);
        for idx in 0..MUTANTS {
            let Some(m) = mutate(&mut rng, &orig) else {
                continue;
            };
            // A container whose header still reads LZ may legitimately
            // decode to other bytes; it must never panic or over-allocate.
            let _decoded = checked("chunk", idx, &m, || decode_chunk(&m));
        }
    }
}
