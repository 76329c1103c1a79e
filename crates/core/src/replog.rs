//! k-way replicated checkpoint store over a deterministic operation log.
//!
//! The single [`CheckpointStore`] is one logical disk: lose it and every
//! committed epoch is gone. This module replicates it k ways behind the
//! same API. Every logical mutation — a prepared put, a commit record, an
//! epoch discard, an orphan GC — is encoded as a [`LogOp`] and appended to
//! each replica's append-only operation log (the byte-exact `CRZL` format
//! below, pinned in `wire-registry.txt`); the replica then applies the op
//! to its own store tree. Because the ops are deterministic and the
//! per-replica apply is idempotent, *log bytes equal ⇒ store trees
//! byte-identical*, which is the invariant every repair path leans on:
//!
//! * **Quorum reads** — [`ReplicatedStore::get_image`] collects the image
//!   digest sidecar from every live replica, picks the majority digest
//!   (ties break to the lowest replica index), and serves the first
//!   replica whose reassembled bytes actually verify against it. A torn
//!   or corrupt copy — caught by the store's per-chunk content addresses
//!   and image root — just falls through to a healthy replica.
//! * **Scrub/repair** — [`ReplicatedStore::scrub_and_repair`] elects a
//!   reference replica by `(newest committed epoch in the log, log
//!   length)` — commit history first, so a freshly compacted log outranks
//!   a stale replica's longer one — replays the reference's valid log
//!   prefix from empty into a scratch tree once, and reconciles every
//!   replica (the reference included) to that target: stale files
//!   removed, differing files rewritten, the log reset to the prefix.
//!   Replay-from-empty is the one true constructor of replica state, so
//!   convergence is byte-exact by construction, and a replica that died
//!   mid-append (a *torn log*: valid prefix + garbage tail) is revived
//!   with the tail truncated to the last whole record.
//!
//! Replica faults are armed declaratively (see [`ReplicaFault`]) and
//! tracked in small control files on the shared simulated filesystem, so
//! fault state survives store-handle reconstruction and replays
//! deterministically under a pinned seed.
//!
//! With `k = 1` every method short-circuits to the plain store: no log,
//! no control files, byte-for-byte the unreplicated layout.
//!
//! # `CRZL` log format
//!
//! ```text
//! header:  u32 REPLOG_MAGIC | u16 REPLOG_VERSION
//! record:  u32 payload_len | u8 tag | payload | u64 fnv(tag ++ payload)
//! ```
//!
//! All integers little-endian. A reader accepts the longest prefix of
//! whole, checksum-valid records and ignores everything after the first
//! invalid byte — exactly the semantics a torn append needs.

use std::collections::BTreeSet;
use std::sync::Arc;

use simos::fs::NetFs;

use crate::chunk::ChunkId;
use crate::digest;
use crate::pagecache::{DigestCache, PageHint};
use crate::store::{self, CheckpointStore, PreparedChunked, PreparedPut, StoreConfig};

/// Magic number of a replica operation log (`CRZL`).
pub const REPLOG_MAGIC: u32 = 0x4352_5a4c;
/// Current operation-log format version.
pub const REPLOG_VERSION: u16 = 2;

// ---- fault model (re-exported from the fault plane) --------------------------

pub use crate::repfault::{
    clear_replica_faults, install_replica_faults, ReplicaFault, ReplicaFaultKind, StoreOpPoint,
};
use crate::repfault::{read_dead, take_fault_effect, write_dead, Cur};

// ---- operation log ----------------------------------------------------------

/// One logical store mutation, as recorded in the `CRZL` operation log.
/// Replaying a log's ops in order against an empty store tree is the
/// canonical constructor of replica state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogOp {
    /// A pod-image put (tag 1; tag 0 is retired). Carries only the chunk
    /// bodies that were novel when the op was logged — replay encounters
    /// the same store state the writer saw, so the log is self-contained.
    PutChunked {
        /// Pod name.
        pod: String,
        /// Checkpoint epoch.
        epoch: u64,
        /// The serialized `CRZM` manifest.
        manifest: Vec<u8>,
        /// The image root (the epoch's digest sidecar).
        image: ChunkId,
        /// Novel chunk bodies: `(content address, encoded container)`,
        /// shared with the prepared write rather than copied out of it.
        blobs: Vec<(ChunkId, Arc<[u8]>)>,
    },
    /// A commit-record write for an epoch.
    Commit {
        /// The epoch committed.
        epoch: u64,
    },
    /// An epoch discard (abort rollback or recovery cleanup).
    Discard {
        /// The epoch discarded.
        epoch: u64,
    },
    /// An orphan-chunk garbage collection.
    Gc,
    /// Discard of every committed epoch below `keep` (retention pruning).
    Prune {
        /// Oldest epoch retained.
        keep: u64,
    },
}

impl LogOp {
    /// The protocol point this op counts as for fault injection.
    pub fn point(&self) -> StoreOpPoint {
        match self {
            LogOp::PutChunked { .. } => StoreOpPoint::Put,
            LogOp::Commit { .. } => StoreOpPoint::Commit,
            LogOp::Discard { .. } | LogOp::Prune { .. } => StoreOpPoint::Discard,
            LogOp::Gc => StoreOpPoint::Gc,
        }
    }

    /// Applies this op to a store tree — the one apply path behind the
    /// live fan-out, the compaction and scrub target build, and any replay
    /// of a log. Returns the GC reclaim count for [`LogOp::Gc`], `0`
    /// otherwise.
    pub fn apply(&self, store: &CheckpointStore) -> usize {
        apply_op(store, self, None)
    }

    /// Appends the op's payload to `w`; returns its record tag.
    fn encode_payload(&self, w: &mut Vec<u8>) -> u8 {
        match self {
            LogOp::PutChunked {
                pod,
                epoch,
                manifest,
                image,
                blobs,
            } => {
                put_str(w, pod);
                w.extend_from_slice(&epoch.to_le_bytes());
                put_bytes(w, manifest);
                w.extend_from_slice(&image.0.to_le_bytes());
                w.extend_from_slice(&image.1.to_le_bytes());
                w.extend_from_slice(&(blobs.len() as u32).to_le_bytes());
                for (id, body) in blobs {
                    w.extend_from_slice(&id.0.to_le_bytes());
                    w.extend_from_slice(&id.1.to_le_bytes());
                    put_bytes(w, body);
                }
                1
            }
            LogOp::Commit { epoch } => {
                w.extend_from_slice(&epoch.to_le_bytes());
                2
            }
            LogOp::Discard { epoch } => {
                w.extend_from_slice(&epoch.to_le_bytes());
                3
            }
            LogOp::Gc => 4,
            LogOp::Prune { keep } => {
                w.extend_from_slice(&keep.to_le_bytes());
                5
            }
        }
    }

    fn decode_payload(tag: u8, payload: &[u8]) -> Option<LogOp> {
        let mut c = Cur::new(payload);
        let op = match tag {
            1 => {
                let pod = c.string()?;
                let epoch = c.u64()?;
                let manifest = c.bytes()?;
                let image = ChunkId(c.u64()?, c.u64()?);
                let n = c.u32()?;
                // A blob is at least its id and length prefix (20 bytes):
                // reserve no more than the payload left can hold.
                let mut blobs = Vec::with_capacity((n as usize).min(c.remaining() / 20));
                for _ in 0..n {
                    let id = ChunkId(c.u64()?, c.u64()?);
                    blobs.push((id, Arc::from(c.slice()?)));
                }
                LogOp::PutChunked {
                    pod,
                    epoch,
                    manifest,
                    image,
                    blobs,
                }
            }
            2 => LogOp::Commit { epoch: c.u64()? },
            3 => LogOp::Discard { epoch: c.u64()? },
            4 => LogOp::Gc,
            5 => LogOp::Prune { keep: c.u64()? },
            _ => return None,
        };
        c.done().then_some(op)
    }
}

fn put_bytes(w: &mut Vec<u8>, b: &[u8]) {
    w.extend_from_slice(&(b.len() as u32).to_le_bytes());
    w.extend_from_slice(b);
}

fn put_str(w: &mut Vec<u8>, s: &str) {
    put_bytes(w, s.as_bytes());
}

fn log_header() -> Vec<u8> {
    let mut h = Vec::with_capacity(6);
    h.extend_from_slice(&REPLOG_MAGIC.to_le_bytes());
    h.extend_from_slice(&REPLOG_VERSION.to_le_bytes());
    h
}

/// Appends `op`'s whole `CRZL` record to `out`.
fn encode_record_into(out: &mut Vec<u8>, op: &LogOp) {
    let start = out.len();
    out.extend_from_slice(&[0; 5]);
    let tag = op.encode_payload(out);
    let len = (out.len() - start - 5) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4] = tag;
    let h = digest::fold(digest::OFFSET, &out[start + 4..]);
    out.extend_from_slice(&h.to_le_bytes());
}

/// Encodes one op as a whole `CRZL` record. A logical op is encoded once
/// and the same bytes go to every replica's log.
pub fn encode_record(op: &LogOp) -> Vec<u8> {
    let mut rec = Vec::new();
    encode_record_into(&mut rec, op);
    rec
}

/// The first `frac`/256 of an encoded record — what a log append torn by
/// a mid-write crash leaves behind. The valid-prefix reader stops at the
/// record boundary before the tear.
pub fn torn_prefix(rec: &[u8], frac: u8) -> &[u8] {
    &rec[..rec.len() * frac as usize / 256]
}

/// Appends encoded record bytes — whole records, or a [`torn_prefix`] of
/// one — to the `CRZL` log at `path`, creating the file (with its header)
/// on first use.
pub fn append_record(fs: &NetFs, path: &str, bytes: &[u8]) {
    if !fs.exists(path) {
        fs.write_file(path, log_header());
    }
    fs.append_file(path, bytes);
}

/// Walks the longest valid prefix of `CRZL` log bytes, handing each
/// whole, checksum-valid record's tag and payload to `decode`; a bad
/// header, torn tail, checksum mismatch or record `decode` rejects ends
/// the prefix. Returns the decoded records and the prefix's byte length
/// (header included; `0` for a bad header).
fn scan_log<T>(bytes: &[u8], mut decode: impl FnMut(u8, &[u8]) -> Option<T>) -> (Vec<T>, u64) {
    let Some(mut c) = after_header(bytes) else {
        return (Vec::new(), 0);
    };
    let mut out = Vec::new();
    let mut valid = c.i as u64;
    loop {
        let rec = (|| {
            let len = c.u32()? as usize;
            let tag = c.u8()?;
            let payload = c.take(len)?;
            let want = digest::fold(digest::fold(digest::OFFSET, &[tag]), payload);
            if c.u64()? != want {
                return None;
            }
            decode(tag, payload)
        })();
        match rec {
            Some(x) => {
                out.push(x);
                valid = c.i as u64;
            }
            None => break,
        }
    }
    (out, valid)
}

/// Reads the longest valid prefix of the log at `path`: the decoded ops
/// and the byte length of that prefix (header included). A missing file,
/// bad header, torn tail or checksum mismatch terminates the scan at the
/// last whole record.
pub fn read_log(fs: &NetFs, path: &str) -> (Vec<LogOp>, u64) {
    fs.with_file(path, |bytes| scan_log(bytes, LogOp::decode_payload))
        .unwrap_or_default()
}

/// A cursor just past the `CRZL` header of `bytes`, if it has one.
fn after_header(bytes: &[u8]) -> Option<Cur<'_>> {
    let mut c = Cur::new(bytes);
    (c.u32()? == REPLOG_MAGIC && c.u16()? == REPLOG_VERSION).then_some(c)
}

/// `(op count, newest committed epoch or 0)` of the valid prefix of the
/// log at `path`, decoding one record at a time without holding the ops.
fn log_summary(fs: &NetFs, path: &str) -> (usize, u64) {
    fs.with_file(path, |bytes| {
        let (commits, _) = scan_log(bytes, |tag, payload| {
            match LogOp::decode_payload(tag, payload)? {
                LogOp::Commit { epoch } => Some(epoch),
                _ => Some(0),
            }
        });
        (commits.len(), commits.into_iter().max().unwrap_or(0))
    })
    .unwrap_or_default()
}

/// `(record count, byte length)` of log bytes read by their record
/// framing alone — no checksum or payload is re-read. Exact for a live
/// replica's log, which only ever holds whole records: a torn append
/// takes its replica out of the live set.
fn log_extent(bytes: &[u8]) -> (usize, u64) {
    let Some(mut c) = after_header(bytes) else {
        return (0, 0);
    };
    let mut count = 0;
    let mut valid = c.i as u64;
    // Each record is its length prefix, tag, payload and checksum.
    while let Some(len) = c.u32() {
        if c.take(len as usize + 9).is_none() {
            break;
        }
        count += 1;
        valid = c.i as u64;
    }
    (count, valid)
}

// ---- op application ---------------------------------------------------------

/// Applies one log op to a replica's store tree. `torn` injects a
/// torn-data fault: the op's log record landed whole, but chunk bodies
/// only got `frac`/256 of their bytes. Returns the GC reclaim count for
/// [`LogOp::Gc`], `0` otherwise.
fn apply_op(store: &CheckpointStore, op: &LogOp, torn: Option<u8>) -> usize {
    match op {
        LogOp::PutChunked {
            pod,
            epoch,
            manifest,
            image,
            blobs,
        } => apply_chunked(store, pod, *epoch, manifest, *image, blobs, torn),
        LogOp::Commit { epoch } => store.commit(*epoch),
        LogOp::Discard { epoch } => store.discard_epoch(*epoch),
        LogOp::Gc => return store.gc_orphan_chunks(),
        LogOp::Prune { keep } => store.prune_below(*keep),
    }
    0
}

/// The put apply: write absent chunk bodies (torn to a prefix under a
/// [`ReplicaFaultKind::TornChunk`] fault), then land the manifest exactly
/// as [`CheckpointStore::put_prepared`] does.
fn apply_chunked(
    store: &CheckpointStore,
    pod: &str,
    epoch: u64,
    manifest: &[u8],
    image: ChunkId,
    blobs: &[(ChunkId, Arc<[u8]>)],
    torn: Option<u8>,
) {
    for (id, body) in blobs {
        let path = store.chunk_path(*id);
        if !store.fs().exists(&path) {
            let keep = torn.map_or(body.len(), |frac| body.len() * frac as usize / 256);
            store.fs().write_file(&path, body[..keep].to_vec());
        }
    }
    let ids: Vec<ChunkId> = store::decode_manifest(manifest)
        .map(|(_, recs)| recs.into_iter().map(|(id, _, _)| id).collect())
        .unwrap_or_default();
    store.land_manifest(pod, epoch, manifest.to_vec(), image, ids);
}

// ---- the replicated store ---------------------------------------------------

/// What a scrub pass found and fixed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// The replica elected as reference: newest committed epoch in its
    /// valid log prefix, then log length, ties to the lowest index.
    pub reference: usize,
    /// Replicas whose log or tree diverged and were rebuilt from the
    /// reference log.
    pub repaired: Vec<usize>,
    /// Previously-crashed replicas brought back into the read/write set.
    pub revived: Vec<usize>,
}

/// What a compaction pass rewrote (see [`ReplicatedStore::compact_logs`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// The live replicas whose logs were rewritten, ascending.
    pub compacted: Vec<usize>,
    /// Op count of the primary's log before compaction.
    pub ops_before: usize,
    /// Op count of the synthesized minimal log.
    pub ops_after: usize,
    /// Log bytes reclaimed per replica (primary's old length minus the
    /// minimal log's length; saturating).
    pub bytes_reclaimed: u64,
}

/// k replica [`CheckpointStore`]s behind the one-store API. Replica 0
/// lives at the primary `/ckpt/...` layout; replica `i > 0` under
/// `/rep<i>`. All writes fan out through the operation log; reads are
/// digest-checked quorum reads with healthy-replica fallback.
#[derive(Debug, Clone)]
pub struct ReplicatedStore {
    fs: NetFs,
    job: String,
    k: usize,
    threads: usize,
}

impl ReplicatedStore {
    /// Creates a k-way replicated store view for `job` (`k` is clamped to
    /// at least 1; `k = 1` is the plain unreplicated store).
    pub fn new(fs: NetFs, job: impl Into<String>, k: usize) -> Self {
        ReplicatedStore {
            fs,
            job: job.into(),
            k: k.max(1),
            threads: 0,
        }
    }

    /// Sets the worker count for the capture/restore kernels (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The job name.
    pub fn job(&self) -> &str {
        &self.job
    }

    /// The replication factor k.
    pub fn replica_count(&self) -> usize {
        self.k
    }

    fn replica_root(r: usize) -> String {
        if r == 0 {
            String::new()
        } else {
            format!("/rep{r}")
        }
    }

    /// The store view of replica `r` (0 = the primary layout).
    pub fn replica(&self, r: usize) -> CheckpointStore {
        CheckpointStore::new(self.fs.clone(), self.job.clone())
            .with_root(Self::replica_root(r))
            .with_threads(self.threads)
    }

    /// Path of replica `r`'s operation log.
    pub fn log_path(&self, r: usize) -> String {
        format!("{}/replog/{}.log", Self::replica_root(r), self.job)
    }

    fn dead(&self) -> BTreeSet<usize> {
        if self.k == 1 {
            BTreeSet::new()
        } else {
            read_dead(&self.fs)
        }
    }

    /// Replica indices currently in the read/write set, ascending.
    pub fn alive_replicas(&self) -> Vec<usize> {
        let dead = self.dead();
        (0..self.k).filter(|r| !dead.contains(r)).collect()
    }

    fn primary_index(&self) -> usize {
        self.alive_replicas().first().copied().unwrap_or(0)
    }

    /// The first live replica's store view — the one whose state every
    /// prepare consults (all live replicas are byte-identical, so any
    /// would do; picking the lowest index keeps it deterministic).
    pub fn primary(&self) -> CheckpointStore {
        self.replica(self.primary_index())
    }

    /// Path prefix of replica `r`'s store tree (`<root>/ckpt/<job>/`).
    fn tree_prefix(&self, r: usize) -> String {
        format!("{}/ckpt/{}/", Self::replica_root(r), self.job)
    }

    /// Fans one logical op out to every live replica: fault check, log
    /// append, apply. The op's record is encoded once; every replica's
    /// log gets the same bytes (a torn append, a prefix of them). Returns
    /// the primary's apply result (the GC count).
    fn write_op(&self, op: LogOp) -> usize {
        let mut dead = read_dead(&self.fs);
        let point = op.point();
        let rec = encode_record(&op);
        let mut out = None;
        for r in 0..self.k {
            if dead.contains(&r) {
                continue;
            }
            let log = self.log_path(r);
            match take_fault_effect(&self.fs, r, point) {
                Some(ReplicaFaultKind::Crash) => {
                    dead.insert(r);
                }
                Some(ReplicaFaultKind::TornLog(frac)) => {
                    append_record(&self.fs, &log, torn_prefix(&rec, frac));
                    dead.insert(r);
                }
                Some(ReplicaFaultKind::TornChunk(frac)) => {
                    append_record(&self.fs, &log, &rec);
                    apply_op(&self.replica(r), &op, Some(frac));
                }
                None => {
                    append_record(&self.fs, &log, &rec);
                    let n = apply_op(&self.replica(r), &op, None);
                    out.get_or_insert(n);
                }
            }
        }
        write_dead(&self.fs, &dead);
        out.unwrap_or(0)
    }

    // ---- writes (logged) ------------------------------------------------

    /// Applies a prepared write to every live replica through the log.
    pub fn put_prepared(&self, pod_name: &str, epoch: u64, put: PreparedPut) {
        if self.k == 1 {
            return self.replica(0).put_prepared(pod_name, epoch, put);
        }
        let PreparedPut::Chunked(c) = put;
        // The record carries exactly the chunk bodies absent from the live
        // replicas' shared state right now, so replaying the log from
        // empty encounters the same store the writer saw and the log stays
        // self-contained.
        let primary = self.primary();
        let mut blobs = Vec::new();
        for ch in &c.chunks {
            let Some(stored) = &ch.stored else { continue };
            if !self.fs.exists(&primary.chunk_path(ch.id)) {
                blobs.push((ch.id, Arc::clone(stored)));
            }
        }
        self.write_op(LogOp::PutChunked {
            pod: pod_name.to_owned(),
            epoch,
            image: c.image_digest(),
            manifest: c.manifest,
            blobs,
        });
    }

    /// Applies only a torn prefix of a prepared write — a disk tear, not a
    /// store op, so it is deliberately *not* logged: replay never
    /// resurrects the stranded bytes, and the next compaction or scrub
    /// reconciles them away on every replica.
    pub fn put_torn(&self, put: &PreparedPut, frac: u8) {
        for r in self.alive_replicas() {
            self.replica(r).put_torn(put, frac);
        }
    }

    /// Writes the commit record for `epoch` on every live replica.
    pub fn commit(&self, epoch: u64) {
        if self.k == 1 {
            return self.replica(0).commit(epoch);
        }
        self.write_op(LogOp::Commit { epoch });
    }

    /// Discards every file of `epoch` on every live replica.
    pub fn discard_epoch(&self, epoch: u64) {
        if self.k == 1 {
            return self.replica(0).discard_epoch(epoch);
        }
        self.write_op(LogOp::Discard { epoch });
    }

    /// Discards every committed epoch below `keep` on every live replica.
    pub fn prune_below(&self, keep: u64) {
        if self.k == 1 {
            return self.replica(0).prune_below(keep);
        }
        self.write_op(LogOp::Prune { keep });
    }

    /// Reclaims orphan chunk files on every live replica; returns the
    /// primary's reclaim count.
    pub fn gc_orphan_chunks(&self) -> usize {
        if self.k == 1 {
            return self.replica(0).gc_orphan_chunks();
        }
        self.write_op(LogOp::Gc)
    }

    // ---- prepares (pure, primary state) ---------------------------------

    /// [`CheckpointStore::prepare_chunked`] against the primary replica's
    /// chunk population.
    pub fn prepare_chunked(
        &self,
        raw: &[u8],
        cuts: &[(usize, usize)],
        cfg: &StoreConfig,
    ) -> PreparedChunked {
        self.primary().prepare_chunked(raw, cuts, cfg)
    }

    /// [`CheckpointStore::prepare_chunked_hinted`] against the primary
    /// replica's chunk population.
    pub fn prepare_chunked_hinted(
        &self,
        raw: &[u8],
        hints: &[PageHint],
        cfg: &StoreConfig,
        pod_name: &str,
        cache: &mut DigestCache,
    ) -> PreparedChunked {
        self.primary()
            .prepare_chunked_hinted(raw, hints, cfg, pod_name, cache)
    }

    // ---- reads ----------------------------------------------------------

    /// Quorum read of a pod image: collect digest-sidecar votes from every
    /// live replica, elect the majority digest (ties to the lowest
    /// replica), and serve the first replica whose bytes verify against
    /// it. Falls back to any live replica that self-verifies when no
    /// majority copy is readable.
    pub fn get_image(&self, pod_name: &str, epoch: u64) -> Option<Vec<u8>> {
        if self.k == 1 {
            return self.replica(0).get_image(pod_name, epoch);
        }
        let alive = self.alive_replicas();
        let mut votes: Vec<(ChunkId, usize)> = Vec::new();
        for &r in &alive {
            if let Some(d) = self.replica(r).read_digest(pod_name, epoch) {
                match votes.iter_mut().find(|(x, _)| *x == d) {
                    Some((_, n)) => *n += 1,
                    None => votes.push((d, 1)),
                }
            }
        }
        let mut winner = None;
        for &(d, n) in &votes {
            if winner.is_none_or(|(_, wn)| n > wn) {
                winner = Some((d, n));
            }
        }
        let (want, _) = winner?;
        for &r in &alive {
            let rep = self.replica(r);
            if rep.read_digest(pod_name, epoch) == Some(want) {
                // The store's own read path re-verifies chunk addresses
                // and the image root, so a corrupt copy under a matching
                // sidecar still falls through.
                if let Some(bytes) = rep.get_image(pod_name, epoch) {
                    return Some(bytes);
                }
            }
        }
        for &r in &alive {
            if let Some(bytes) = self.replica(r).get_image(pod_name, epoch) {
                return Some(bytes);
            }
        }
        None
    }

    /// Logical image size, from the primary replica.
    pub fn image_len(&self, pod_name: &str, epoch: u64) -> Option<u64> {
        self.primary().image_len(pod_name, epoch)
    }

    /// Physical restore size, from the primary replica.
    pub fn stored_len(&self, pod_name: &str, epoch: u64) -> Option<u64> {
        self.primary().stored_len(pod_name, epoch)
    }

    /// True if `epoch` has a commit record on the primary replica.
    pub fn is_committed(&self, epoch: u64) -> bool {
        self.primary().is_committed(epoch)
    }

    /// The newest committed epoch visible on *any* live replica — what a
    /// restart rolls back to even when the primary died mid-commit.
    pub fn latest_committed_epoch(&self) -> Option<u64> {
        self.alive_replicas()
            .into_iter()
            .filter_map(|r| self.replica(r).latest_committed_epoch())
            .max()
    }

    /// Committed epochs on the primary replica, ascending.
    pub fn committed_epochs(&self) -> Vec<u64> {
        self.primary().committed_epochs()
    }

    /// Uncommitted (half-written) epochs on the primary replica.
    pub fn uncommitted_epochs(&self) -> Vec<u64> {
        self.primary().uncommitted_epochs()
    }

    /// Pod names with images in an epoch, from the primary replica.
    pub fn pods_in_epoch(&self, epoch: u64) -> Vec<String> {
        self.primary().pods_in_epoch(epoch)
    }

    /// Orphan chunk audit on the primary replica.
    pub fn orphan_chunks(&self) -> Vec<ChunkId> {
        self.primary().orphan_chunks()
    }

    /// Every chunk file on the primary replica, ascending.
    pub fn live_chunks(&self) -> Vec<ChunkId> {
        self.primary().live_chunks()
    }

    // ---- compaction -----------------------------------------------------

    /// Rewrites every live replica's log (and tree) to the minimal
    /// self-contained form that reconstructs its current contents: one
    /// put per pod image still on disk plus one commit record per
    /// committed epoch, in epoch order.
    ///
    /// The append-only log otherwise retains every historical put's blob
    /// bytes forever — discarded and pruned epochs included — so a
    /// long-running job's write amplification grows with history, not
    /// state. Compaction caps it at ≈2k (k store trees + k minimal logs);
    /// the floor is 2k rather than k because the log must keep carrying
    /// the retained epochs' blobs — replay-from-empty is scrub's one true
    /// constructor of replica state.
    ///
    /// The synthesized ops are replayed from empty once, into a scratch
    /// tree, and every live replica is reconciled to that target (files
    /// it lacks removed, differing files rewritten, the log replaced), so
    /// each ends exactly as a wipe + replay of the synthesized log would
    /// leave it. The post-compaction invariant is therefore scrub's: log
    /// bytes equal ⇒ trees byte-identical. Dead replicas keep their stale
    /// logs until scrub revives them; the scrub election ranks newest
    /// commit epoch above log length precisely so a freshly compacted
    /// (short) log still outranks a stale replica's longer history. A
    /// maintenance pass, not a logical store op: nothing is appended to
    /// the log and the replica fault points do not fire. No-op at `k = 1`.
    pub fn compact_logs(&self) -> CompactReport {
        if self.k == 1 {
            return CompactReport::default();
        }
        let alive = self.alive_replicas();
        let Some(&primary) = alive.first() else {
            return CompactReport::default();
        };
        let (ops_before, old_len) = self
            .fs
            .with_file(&self.log_path(primary), log_extent)
            .unwrap_or_default();
        let ops = self.synthesize_ops(primary);
        let mut log = log_header();
        for op in &ops {
            encode_record_into(&mut log, op);
        }
        let target = self.replay_target(&ops);
        let ops_after = ops.len();
        // Free the synthesized blobs before the k log copies land.
        drop(ops);
        for &r in &alive {
            self.reconcile(r, &target, &log);
        }
        CompactReport {
            compacted: alive,
            ops_before,
            ops_after,
            bytes_reclaimed: old_len.saturating_sub(log.len() as u64),
        }
    }

    /// The minimal op sequence whose replay-from-empty reconstructs
    /// replica `r`'s current tree: for each epoch still on disk
    /// (ascending) the put of every pod image present, then its commit
    /// record if committed. Chunk blobs ride with the first put that
    /// references them, exactly as a live [`ReplicatedStore::put_prepared`]
    /// would have logged them against an empty store, so the synthesized
    /// log is self-contained.
    fn synthesize_ops(&self, r: usize) -> Vec<LogOp> {
        let store = self.replica(r);
        let committed: BTreeSet<u64> = store.committed_epochs().into_iter().collect();
        let mut epochs: Vec<u64> = store.uncommitted_epochs();
        epochs.extend(committed.iter().copied());
        epochs.sort_unstable();
        epochs.dedup();
        let mut emitted: BTreeSet<ChunkId> = BTreeSet::new();
        let mut ops = Vec::new();
        for &epoch in &epochs {
            let mut pods = store.pods_in_epoch(epoch);
            pods.sort();
            pods.dedup();
            for pod in pods {
                if let Some(manifest) = self.fs.read_file(&store.manifest_path(&pod, epoch)) {
                    // A chunked image missing its digest sidecar is torn
                    // state no quorum read will ever serve; drop it rather
                    // than synthesize a sidecar the bytes never earned.
                    let Some(image) = store.read_digest(&pod, epoch) else {
                        continue;
                    };
                    let mut blobs = Vec::new();
                    if let Some((_, recs)) = store::decode_manifest(&manifest) {
                        for (id, _, _) in recs {
                            if emitted.insert(id) {
                                if let Some(body) =
                                    self.fs.with_file(&store.chunk_path(id), |b| Arc::from(b))
                                {
                                    blobs.push((id, body));
                                }
                            }
                        }
                    }
                    ops.push(LogOp::PutChunked {
                        pod,
                        epoch,
                        manifest,
                        image,
                        blobs,
                    });
                }
            }
            if committed.contains(&epoch) {
                ops.push(LogOp::Commit { epoch });
            }
        }
        ops
    }

    // ---- scrub ----------------------------------------------------------

    /// Digest of replica `r`'s entire store tree (every path and byte
    /// under its `/ckpt/<job>/` prefix). Two replicas with equal tree
    /// digests hold byte-identical checkpoint state.
    pub fn tree_digest(&self, r: usize) -> u64 {
        let root = Self::replica_root(r);
        let mut h = digest::OFFSET;
        for path in self.fs.list(&self.tree_prefix(r)) {
            let rel = path.strip_prefix(&root).unwrap_or(&path);
            h = digest::fold_u64(h, rel.len() as u64);
            h = digest::fold(h, rel.as_bytes());
            let bytes = self.fs.read_file(&path).unwrap_or_default();
            h = digest::fold_u64(h, bytes.len() as u64);
            h = digest::fold(h, &bytes);
        }
        h
    }

    /// Replays `ops` from empty into a scratch filesystem: the replica
    /// tree those ops construct, built once and then reconciled onto
    /// every replica that must hold it.
    fn replay_target(&self, ops: &[LogOp]) -> NetFs {
        let fs = NetFs::new();
        let store = CheckpointStore::new(fs.clone(), self.job.clone()).with_threads(self.threads);
        for op in ops {
            op.apply(&store);
        }
        fs
    }

    /// Brings replica `r` to exactly the `target` tree (built by
    /// [`ReplicatedStore::replay_target`]) and the log bytes `log`,
    /// writing only the files that differ: the state a wipe + replay of
    /// `log` would leave. Returns true if anything changed.
    fn reconcile(&self, r: usize, target: &NetFs, log: &[u8]) -> bool {
        let tree = self
            .fs
            .mirror(&self.tree_prefix(r), target, &self.tree_prefix(0));
        let path = self.log_path(r);
        let stale_log = !self.fs.file_eq(&path, log);
        if stale_log {
            self.fs.write_file(&path, log.to_vec());
        }
        tree || stale_log
    }

    /// Compares replica logs and trees, elects a reference replica by
    /// `(newest committed epoch in the valid log prefix, op count)` — ties
    /// to the lowest index — replays its valid log prefix from empty into
    /// a scratch target, and reconciles every replica to that target and
    /// prefix: the reference itself (which truncates any torn tail and
    /// reclaims unlogged stranded bytes) and each diverging replica.
    /// Crashed replicas are revived: after repair they hold the reference
    /// state and rejoin the read/write set.
    ///
    /// Commit history outranks raw length so that a live replica whose
    /// log was compacted (short, but current) can never lose the election
    /// to a replica that died before compaction holding a longer — but
    /// staler — history, which would silently roll back committed epochs.
    pub fn scrub_and_repair(&self) -> ScrubReport {
        if self.k == 1 {
            return ScrubReport::default();
        }
        let prev_dead = read_dead(&self.fs);
        let mut reference = 0;
        let mut best: Option<(u64, usize)> = None;
        for r in 0..self.k {
            let (count, newest_commit) = log_summary(&self.fs, &self.log_path(r));
            let key = (newest_commit, count);
            if best.is_none_or(|b| key > b) {
                best = Some(key);
                reference = r;
            }
        }
        let (ops, valid) = read_log(&self.fs, &self.log_path(reference));
        let ref_log = self
            .fs
            .with_file(&self.log_path(reference), |b| b[..valid as usize].to_vec())
            .unwrap_or_else(log_header);
        // Replay-from-empty is the one true constructor, so even a
        // reference whose *tree* was corrupted (torn chunk bodies under an
        // intact log) is reconciled to the state its log dictates.
        let target = self.replay_target(&ops);
        drop(ops);
        self.reconcile(reference, &target, &ref_log);
        let mut repaired = Vec::new();
        for r in 0..self.k {
            if r != reference && self.reconcile(r, &target, &ref_log) {
                repaired.push(r);
            }
        }
        write_dead(&self.fs, &BTreeSet::new());
        ScrubReport {
            reference,
            repaired,
            revived: prev_dead.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(fill: u8, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| fill.wrapping_add((i / 256) as u8))
            .collect()
    }

    fn dedup_cfg() -> StoreConfig {
        StoreConfig {
            chunk_bytes: 256,
            dedup: true,
            compress: true,
            threads: 1,
            replicas: 3,
        }
    }

    fn put_epoch(rs: &ReplicatedStore, cfg: &StoreConfig, epoch: u64, fill: u8) {
        let raw = image(fill, 1024);
        let prepared = rs.prepare_chunked(&raw, &[], cfg);
        rs.put_prepared("pod0", epoch, PreparedPut::Chunked(prepared));
        rs.commit(epoch);
    }

    fn digests(rs: &ReplicatedStore) -> Vec<u64> {
        (0..rs.replica_count()).map(|r| rs.tree_digest(r)).collect()
    }

    #[test]
    fn replicas_converge_and_replay_is_idempotent() {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        put_epoch(&rs, &cfg, 1, 0x11);
        put_epoch(&rs, &cfg, 2, 0x11); // heavy dedup vs epoch 1
        rs.prune_below(2);
        let d = digests(&rs);
        assert_eq!(d[0], d[1]);
        assert_eq!(d[1], d[2]);
        // Re-applying the full log over the existing replica state must be
        // a no-op (crash-during-replay safety).
        let (ops, _) = read_log(&fs, &rs.log_path(1));
        let store = rs.replica(1);
        for op in &ops {
            op.apply(&store);
        }
        assert_eq!(rs.tree_digest(1), d[1]);
        // And replaying onto an empty tree reconstructs the same bytes.
        let fresh = ReplicatedStore::new(rs.replay_target(&ops), "job", 3);
        assert_eq!(fresh.tree_digest(0), d[1]);
    }

    #[test]
    fn quorum_read_survives_crash_and_corruption() {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        put_epoch(&rs, &cfg, 1, 0x22);
        let raw = image(0x22, 1024);
        install_replica_faults(
            &fs,
            &[
                ReplicaFault {
                    replica: 0,
                    point: StoreOpPoint::Put,
                    nth: 0,
                    kind: ReplicaFaultKind::Crash,
                },
                ReplicaFault {
                    replica: 1,
                    point: StoreOpPoint::Put,
                    nth: 0,
                    kind: ReplicaFaultKind::TornChunk(64),
                },
            ],
        );
        let raw2 = image(0x99, 1024);
        let prepared = rs.prepare_chunked(&raw2, &[], &cfg);
        rs.put_prepared("pod0", 2, PreparedPut::Chunked(prepared));
        rs.commit(2);
        // Replica 0 crashed (stale), replica 1 is corrupt, replica 2 is
        // whole: epoch 2 must still read back exactly.
        assert_eq!(rs.alive_replicas(), vec![1, 2]);
        assert_eq!(rs.get_image("pod0", 2), Some(raw2));
        assert_eq!(rs.get_image("pod0", 1), Some(raw));
        assert_eq!(rs.latest_committed_epoch(), Some(2));
    }

    #[test]
    fn scrub_converges_torn_and_crashed_replicas() {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        put_epoch(&rs, &cfg, 1, 0x33);
        install_replica_faults(
            &fs,
            &[
                ReplicaFault {
                    replica: 1,
                    point: StoreOpPoint::Put,
                    nth: 0,
                    kind: ReplicaFaultKind::TornChunk(100),
                },
                ReplicaFault {
                    replica: 2,
                    point: StoreOpPoint::Commit,
                    nth: 0,
                    kind: ReplicaFaultKind::TornLog(77),
                },
            ],
        );
        put_epoch(&rs, &cfg, 2, 0x44);
        let rep = rs.scrub_and_repair();
        assert_eq!(rep.reference, 0);
        assert_eq!(rep.repaired, vec![1, 2]);
        assert_eq!(rep.revived, vec![2]);
        let d = digests(&rs);
        assert_eq!(d[0], d[1]);
        assert_eq!(d[1], d[2]);
        assert_eq!(rs.alive_replicas(), vec![0, 1, 2]);
        assert_eq!(rs.get_image("pod0", 2), Some(image(0x44, 1024)));
    }

    #[test]
    fn compaction_minimizes_logs_and_preserves_reads() {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        put_epoch(&rs, &cfg, 1, 0x61);
        put_epoch(&rs, &cfg, 2, 0x61); // heavy dedup vs epoch 1
        put_epoch(&rs, &cfg, 3, 0x77);
        rs.prune_below(3);
        rs.gc_orphan_chunks();
        let before_len = fs.len_of(&rs.log_path(0)).unwrap_or(0);

        let rep = rs.compact_logs();
        assert_eq!(rep.compacted, vec![0, 1, 2]);
        // History: 3 × (put + commit) + prune + gc = 8 ops; state: one
        // retained epoch = put + commit.
        assert_eq!(rep.ops_before, 8);
        assert_eq!(rep.ops_after, 2);
        assert!(rep.bytes_reclaimed > 0);
        assert!(fs.len_of(&rs.log_path(0)).unwrap_or(u64::MAX) < before_len);

        // All replicas hold identical trees and the retained epoch still
        // reads back exactly.
        let d = digests(&rs);
        assert_eq!(d[0], d[1]);
        assert_eq!(d[1], d[2]);
        assert_eq!(rs.get_image("pod0", 3), Some(image(0x77, 1024)));
        assert_eq!(rs.latest_committed_epoch(), Some(3));

        // The compacted log is self-contained: replay-from-empty
        // reconstructs the same tree.
        let (ops, _) = read_log(&fs, &rs.log_path(0));
        let fresh = ReplicatedStore::new(rs.replay_target(&ops), "job", 3);
        assert_eq!(fresh.tree_digest(0), d[0]);

        // And a scrub over the compacted set is a no-op.
        let scrub = rs.scrub_and_repair();
        assert!(scrub.repaired.is_empty());
        assert_eq!(digests(&rs), d);
    }

    #[test]
    fn scrub_election_prefers_commit_history_over_log_length() {
        let fs = NetFs::new();
        let cfg = dedup_cfg();
        let rs = ReplicatedStore::new(fs.clone(), "job", 3).with_threads(1);
        put_epoch(&rs, &cfg, 1, 0x11);
        put_epoch(&rs, &cfg, 2, 0x22);
        // Replica 2 dies before epoch 3, stranded with the 4-op history
        // [put1, commit1, put2, commit2].
        install_replica_faults(
            &fs,
            &[ReplicaFault {
                replica: 2,
                point: StoreOpPoint::Put,
                nth: 0,
                kind: ReplicaFaultKind::Crash,
            }],
        );
        put_epoch(&rs, &cfg, 3, 0x33);
        rs.prune_below(3);
        // The live replicas compact to the 2-op minimal log [put3,
        // commit3] — *shorter* than the dead replica's stale history. A
        // longest-log election would resurrect the stale replica as
        // reference and roll committed epoch 3 back; the commit-first key
        // must keep a live replica in charge.
        rs.compact_logs();
        let rep = rs.scrub_and_repair();
        assert_eq!(rep.reference, 0);
        assert_eq!(rep.revived, vec![2]);
        let d = digests(&rs);
        assert_eq!(d[0], d[1]);
        assert_eq!(d[1], d[2]);
        assert_eq!(rs.latest_committed_epoch(), Some(3));
        assert_eq!(rs.get_image("pod0", 3), Some(image(0x33, 1024)));
    }

    #[test]
    fn k1_writes_no_control_or_log_files() {
        let fs = NetFs::new();
        let rs = ReplicatedStore::new(fs.clone(), "job", 1);
        let prepared = rs.prepare_chunked(&image(0x55, 512), &[], &dedup_cfg());
        rs.put_prepared("pod0", 1, PreparedPut::Chunked(prepared));
        rs.commit(1);
        assert_eq!(rs.compact_logs(), CompactReport::default());
        assert!(fs.list("/replog/").is_empty());
        assert!(fs.list("/replctl/").is_empty());
        assert!(fs.list("/rep").is_empty());
        assert_eq!(rs.get_image("pod0", 1), Some(image(0x55, 512)));
    }
}
