//! Per-layer costs, measured from outside through each layer's public
//! functions.
//!
//! [`Replayer`] takes the images a workload's checkpoints committed, in
//! epoch order, and runs them again through `zap` (decode/encode),
//! `chunk` (content ids, codec), `store` (chunked prepare, put, read),
//! `pagecache` (the digest-cache prepare over consecutive epochs),
//! `parpool` (1 vs 2 workers) and `replog` (k=3 against k=1), each call
//! timed on its own. The guest-side layers (`simcpu`, `simos`) and `simnet`
//! TCP are measured on bare instances: the benchmark's own guest loops on
//! one kernel with no cluster around it, and a `Tcb` pair with no stack.

use std::collections::{BTreeMap, BTreeSet};

use cluster::{ReplicatedStore, StoreConfig};
use cruz::chunk::{self, ChunkId};
use cruz::pagecache::{page_hints, DigestCache};
use cruz::store::{CheckpointStore, PreparedPut};
use des::SimTime;
use simnet::addr::{IpAddr, MacAddr, SockAddr};
use simnet::tcp::seq::SeqNum;
use simnet::tcp::{Tcb, TcpConfig};
use simnet::NetStack;
use simos::disk::{Disk, DiskParams};
use simos::fs::NetFs;
use simos::kernel::{Kernel, KernelParams};
use simos::mem::PAGE_SIZE;
use simos::program::Program;
use zap::image::PodImage;

use crate::spans::{now, Recorder};
use crate::stats::median;
use crate::workload::STORE_THREADS;

/// Wall time of each replayed layer call over one epoch (all pods), ms.
#[derive(Debug, Default, Clone, Copy)]
pub struct EpochMs {
    /// `PodImage::encode_with_page_cuts`.
    pub encode: f64,
    /// `PodImage::decode`.
    pub decode: f64,
    /// `CheckpointStore::prepare_chunked`, 2 workers.
    pub prepare: f64,
    /// The same prepare, 1 worker.
    pub prepare_1: f64,
    /// `prepare_chunked_hinted` through the digest cache.
    pub hinted: f64,
    /// `CheckpointStore::put_prepared`.
    pub put: f64,
    /// `ReplicatedStore::put_prepared`, k=3.
    pub put_3: f64,
    /// `CheckpointStore::get_image`, 2 workers.
    pub get: f64,
    /// The same read, 1 worker.
    pub get_1: f64,
    /// `ReplicatedStore::get_image`, k=3.
    pub get_3: f64,
}

/// Timings and counts gathered while replaying one workload's epochs.
#[derive(Debug, Default, Clone)]
pub struct LayerSamples {
    /// Image bytes per epoch (all pods).
    pub image_bytes: Vec<u64>,
    /// Layer call walls per epoch.
    pub epochs: Vec<EpochMs>,
    /// `ChunkId::of` over whole images: (bytes, ns).
    pub id: (u64, u64),
    /// `chunk::compress` over page-sized pieces: (bytes, ns).
    pub compress: (u64, u64),
    /// `chunk::decompress` of those pieces: (bytes, ns).
    pub decompress: (u64, u64),
    /// Stored bytes `chunk::encode_chunk` (codec on) produced, and raw bytes.
    pub stored: (u64, u64),
    /// Chunks prepared, and how many were novel.
    pub chunks: (u64, u64),
    /// Filesystem bytes each store gained: k=1, k=3.
    pub written: (u64, u64),
    /// Checkpoint op wall minus replayed encode + prepare + put, ms.
    pub ckpt_residual_ms: Vec<f64>,
    /// Restart op wall minus replayed read + decode, ms.
    pub restore_residual_ms: Vec<f64>,
    /// Replayed bytes that did not round-trip (must stay 0).
    pub mismatches: u64,
}

impl LayerSamples {
    /// One field of every epoch.
    pub fn each(&self, field: impl Fn(&EpochMs) -> f64) -> Vec<f64> {
        self.epochs.iter().map(field).collect()
    }
}

/// Runs `f` inside a span named `name`, adding its wall ms to `acc`.
fn timed<T>(rec: &mut Recorder, name: &'static str, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    rec.open(name);
    let t = now();
    let out = f();
    *acc += t.elapsed().as_secs_f64() * 1e3;
    rec.close();
    out
}

/// Replays committed epochs through the storage-side layers.
pub struct Replayer {
    cfg: StoreConfig,
    /// Whether the workload's own store is replicated (its restore reads
    /// go through the quorum path).
    replicated: bool,
    /// Whether the workload's own store is chunked (its capture prepares).
    chunked: bool,
    fs1: NetFs,
    fs3: NetFs,
    store: CheckpointStore,
    store_1: CheckpointStore,
    rep3: ReplicatedStore,
    cache: DigestCache,
    /// Previous epoch's decoded image of each pod (the dirty-page oracle).
    prev: BTreeMap<String, PodImage>,
    /// Replayed read + decode ms of each epoch (for restore residuals).
    restore_ms: BTreeMap<u64, f64>,
    /// The samples gathered so far.
    pub samples: LayerSamples,
}

fn fs_bytes(fs: &NetFs) -> u64 {
    fs.list("").iter().filter_map(|p| fs.len_of(p)).sum()
}

/// Pages of each group that differ from the previous capture of the pod.
fn dirty_sets(img: &PodImage, prev: Option<&PodImage>) -> Vec<BTreeSet<u64>> {
    img.groups
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let old: BTreeMap<u64, &Vec<u8>> = prev
                .and_then(|p| p.groups.get(gi))
                .map(|pg| pg.pages.iter().map(|(a, b)| (*a, b)).collect())
                .unwrap_or_default();
            g.pages
                .iter()
                .filter(|(a, b)| old.get(a) != Some(&b))
                .map(|(a, _)| *a)
                .collect()
        })
        .collect()
}

impl Replayer {
    /// A replayer for a workload whose store is configured as `workload`.
    /// The replay always takes the chunked path (dedup on), with the
    /// workload's codec setting and [`STORE_THREADS`] workers.
    pub fn new(workload: &StoreConfig) -> Self {
        let cfg = StoreConfig {
            dedup: true,
            threads: STORE_THREADS,
            replicas: 1,
            ..workload.clone()
        };
        let fs1 = NetFs::new();
        let fs3 = NetFs::new();
        Replayer {
            replicated: workload.replicas > 1,
            chunked: workload.dedup,
            store: CheckpointStore::new(fs1.clone(), "replay").with_threads(STORE_THREADS),
            store_1: CheckpointStore::new(fs1.clone(), "replay").with_threads(1),
            rep3: ReplicatedStore::new(fs3.clone(), "replay", 3).with_threads(STORE_THREADS),
            fs1,
            fs3,
            cfg,
            cache: DigestCache::new(),
            prev: BTreeMap::new(),
            restore_ms: BTreeMap::new(),
            samples: LayerSamples::default(),
        }
    }

    /// Replays one committed epoch (`pods`: name and image bytes) whose
    /// checkpoint op took `op_wall_ms`; each layer call is a span in `rec`.
    pub fn checkpoint(
        &mut self,
        epoch: u64,
        pods: &[(String, Vec<u8>)],
        op_wall_ms: f64,
        rec: &mut Recorder,
    ) {
        rec.open("replay");
        let s = &mut self.samples;
        let mut e = EpochMs::default();
        let mut bytes = 0u64;
        let cfg_1 = StoreConfig {
            threads: 1,
            ..self.cfg.clone()
        };
        let written0 = (fs_bytes(&self.fs1), fs_bytes(&self.fs3));
        for (pod, raw) in pods {
            bytes += raw.len() as u64;
            // zap: the codec the capture and restore paths call.
            let Ok(img) = timed(rec, "zap.decode", &mut e.decode, || PodImage::decode(raw)) else {
                s.mismatches += 1;
                continue;
            };
            let (encoded, cuts) = timed(rec, "zap.encode", &mut e.encode, || {
                img.encode_with_page_cuts()
            });
            s.mismatches += u64::from(encoded != *raw);

            // chunk: content ids over the whole image, codec per page.
            let mut id_ms = 0.0;
            timed(rec, "chunk.id", &mut id_ms, || {
                std::hint::black_box(ChunkId::of(raw))
            });
            s.id.0 += raw.len() as u64;
            s.id.1 += (id_ms * 1e6) as u64;
            rec.open("chunk.codec");
            for piece in raw.chunks(PAGE_SIZE as usize) {
                let t = now();
                let packed = chunk::compress(piece);
                s.compress.1 += t.elapsed().as_nanos() as u64;
                s.compress.0 += piece.len() as u64;
                let t = now();
                let unpacked = chunk::decompress(&packed);
                s.decompress.1 += t.elapsed().as_nanos() as u64;
                s.decompress.0 += piece.len() as u64;
                s.mismatches += u64::from(unpacked.as_deref().ok() != Some(piece));
                s.stored.0 += chunk::encode_chunk(piece, true).len() as u64;
                s.stored.1 += piece.len() as u64;
            }
            rec.close();

            // store + parpool: the reference prepare at 2 and 1 workers.
            let store = &self.store;
            let put = timed(rec, "store.prepare", &mut e.prepare, || {
                store.prepare_chunked(raw, &cuts, &self.cfg)
            });
            let put_1 = timed(rec, "parpool.prepare_1", &mut e.prepare_1, || {
                store.prepare_chunked(raw, &cuts, &cfg_1)
            });
            s.mismatches += u64::from(put_1.manifest() != put.manifest());

            // pagecache: the hinted prepare over consecutive epochs.
            let dirty = dirty_sets(&img, self.prev.get(pod));
            let hints = page_hints(&img, &cuts, &dirty);
            let cache = &mut self.cache;
            let hinted = timed(rec, "pagecache.hinted_prepare", &mut e.hinted, || {
                store.prepare_chunked_hinted(raw, &hints, &self.cfg, pod, cache)
            });
            s.mismatches += u64::from(hinted.manifest() != put.manifest());

            s.chunks.0 += put.chunk_count() as u64;
            s.chunks.1 += put.novel_count() as u64;
            let rep3 = &self.rep3;
            let put_3 = rep3.prepare_chunked(raw, &cuts, &self.cfg);
            timed(rec, "store.put", &mut e.put, || {
                store.put_prepared(pod, epoch, PreparedPut::Chunked(put))
            });
            timed(rec, "replog.put", &mut e.put_3, || {
                rep3.put_prepared(pod, epoch, PreparedPut::Chunked(put_3))
            });

            // Reads: 2 workers, 1 worker, and the k=3 quorum read.
            let back = timed(rec, "store.get_image", &mut e.get, || {
                store.get_image(pod, epoch)
            });
            let back_1 = timed(rec, "parpool.get_1", &mut e.get_1, || {
                self.store_1.get_image(pod, epoch)
            });
            let back_3 = timed(rec, "replog.get_image", &mut e.get_3, || {
                rep3.get_image(pod, epoch)
            });
            for b in [back, back_1, back_3] {
                s.mismatches += u64::from(b.as_deref() != Some(raw.as_slice()));
            }
            self.prev.insert(pod.clone(), img);
        }
        self.store.commit(epoch);
        self.rep3.commit(epoch);
        s.written.0 += fs_bytes(&self.fs1) - written0.0;
        s.written.1 += fs_bytes(&self.fs3) - written0.1;
        self.store.prune_below(epoch);
        self.rep3.prune_below(epoch);
        rec.close();

        // What the workload's own capture path ran: encode, plus the
        // (cache-hinted) chunked prepare and the put when its store is
        // chunked; its restore path: read plus decode.
        let put = if self.replicated { e.put_3 } else { e.put };
        let capture = e.encode + if self.chunked { e.hinted + put } else { 0.0 };
        let restore = e.decode + if self.replicated { e.get_3 } else { e.get };
        s.ckpt_residual_ms.push(op_wall_ms - capture);
        s.image_bytes.push(bytes);
        s.epochs.push(e);
        self.restore_ms.insert(epoch, restore);
    }

    /// Records a restart from `epoch` whose op took `op_wall_ms`. A
    /// restore rewrites pod memory outside a capture, so the digest cache
    /// is dropped, as the cluster does.
    pub fn restore(&mut self, epoch: u64, op_wall_ms: f64) {
        if let Some(ms) = self.restore_ms.get(&epoch) {
            self.samples.restore_residual_ms.push(op_wall_ms - ms);
        }
        self.cache.clear();
        self.prev.clear();
    }

    /// Digest-cache hits / (hits + misses) so far.
    pub fn hit_ratio(&self) -> f64 {
        let (h, m) = (self.cache.hits(), self.cache.misses());
        h as f64 / (h + m).max(1) as f64
    }
}

/// Throughput of a (bytes, ns) pair in MB/s (10^6 bytes).
pub fn mb_per_s((bytes, ns): (u64, u64)) -> f64 {
    bytes as f64 * 1e3 / ns.max(1) as f64
}

// ---- bare guest and TCP layers ----------------------------------------------

fn bare_kernel() -> Kernel {
    let net = NetStack::new(
        MacAddr::from_index(1),
        IpAddr::from_octets([10, 0, 0, 1]),
        16,
        TcpConfig::default(),
    );
    Kernel::new(
        net,
        NetFs::new(),
        Disk::new(DiskParams::era_2005()),
        KernelParams::default(),
    )
}

/// Runs `program` to exit on a bare kernel with `Kernel::run_slice`.
/// Returns (guest instructions, wall ns). Instructions are the simulated
/// time consumed minus the `syscalls` the program makes, at the default
/// 1 ns per instruction.
pub fn bare_run(program: &Program, syscalls: u64) -> (u64, u64) {
    let mut k = bare_kernel();
    let params = k.params();
    let Ok(pid) = k.spawn(program) else {
        return (0, 1);
    };
    let mut sim_now = SimTime::ZERO;
    let t = now();
    while k.process(pid).is_some_and(|p| p.state.is_ready()) {
        sim_now += k.run_slice(sim_now).elapsed;
    }
    let wall = t.elapsed().as_nanos() as u64;
    let sim = sim_now.as_nanos() - syscalls * params.syscall_time.as_nanos();
    (sim / params.inst_time.as_nanos().max(1), wall.max(1))
}

/// Moves `bytes` through a connected `Tcb` pair (no stack, no timers).
/// Returns (bytes delivered, wall ns).
pub fn tcb_pair(bytes: usize) -> (u64, u64) {
    let cfg = TcpConfig::default();
    let t0 = SimTime::ZERO;
    let la = SockAddr::new(IpAddr::from_octets([10, 0, 0, 1]), 5001);
    let lb = SockAddr::new(IpAddr::from_octets([10, 0, 0, 2]), 5002);
    let (mut a, syn) = Tcb::connect(cfg.clone(), la, lb, SeqNum::new(7), t0);
    let Some(syn) = syn.first() else {
        return (0, 1);
    };
    let (mut b, synack) = Tcb::accept_syn(cfg, lb, la, SeqNum::new(9), syn, t0);
    for seg in synack.iter().flat_map(|s| a.on_segment(s, t0)) {
        b.on_segment(&seg, t0);
    }
    a.set_nodelay(true, t0);
    let payload = vec![0x5au8; 64 * 1024];
    let mut delivered = 0u64;
    let t = now();
    while (delivered as usize) < bytes {
        let want = (bytes - delivered as usize).min(payload.len());
        let (_, segs) = a.write(&payload[..want], t0);
        let mut acks: Vec<_> = segs.iter().flat_map(|s| b.on_segment(s, t0)).collect();
        let (data, more) = b.read(usize::MAX, t0);
        delivered += data.len() as u64;
        acks.extend(more);
        for s in &acks {
            a.on_segment(s, t0);
        }
        if segs.is_empty() && data.is_empty() && acks.is_empty() {
            break; // stalled: report what arrived
        }
    }
    (delivered, (t.elapsed().as_nanos() as u64).max(1))
}

/// Median ns per unit over `reps` runs of `f` (each returning units, ns).
pub fn ns_per(reps: usize, mut f: impl FnMut() -> (u64, u64)) -> (u64, f64) {
    let mut units = 0;
    let per: Vec<f64> = (0..reps)
        .map(|_| {
            let (u, ns) = f();
            units = u;
            ns as f64 / u.max(1) as f64
        })
        .collect();
    (units, median(&per))
}
