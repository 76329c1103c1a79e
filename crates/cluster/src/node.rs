//! The node-local half of the checkpoint agent, shared by both runtimes.
//!
//! This module sits at the bottom of the cluster layer map (DESIGN.md
//! §14): it imports nothing from this crate above the base, so the
//! transport seam, every protocol layer, the world driver and the net
//! runtime can all name a node and call into it without a dependency
//! that points up the stack.
//!
//! Whichever carrier brings the coordinator's messages, a node does the
//! same work: it is built, launches its pods, fences their traffic,
//! captures them (stop-the-world, or COW arm then drain), restores them
//! from the store, and resumes or rolls them back. Those jobs are the
//! methods of [`Node`]. Beside them sit the job-store functions both
//! runtimes call: opening a job's store, preparing and landing images,
//! reading them back for a restore, and the coordinator's commit and
//! abort effects. What stays with each runtime is *when* a step fires —
//! the simulator charges disk and CPU time and arms deadlines, the net
//! runtime runs each step as soon as the last one finishes.

use std::collections::BTreeSet;

use des::SimTime;
use simnet::addr::{IpAddr, MacAddr};
use simnet::NetStack;
use simos::disk::Disk;
use simos::fs::NetFs;
use simos::kernel::Kernel;
use simos::program::Program;
use zap::image::{MacMode, PodImage};
use zap::pod::PodId;
use zap::{ArmedPodCheckpoint, PodConfig, Zap, ZapError};

use cruz::agent::Agent;
use cruz::error::CruzError;
use cruz::pagecache::{page_hints, DigestCache};
use cruz::proto::OpKind;
use cruz::replog::ReplicatedStore;
use cruz::store::{PreparedPut, StoreConfig};

use crate::params::ClusterParams;
use crate::runtime::CtlAddr;

/// An opaque handle to one bound control-plane endpoint on one node.
///
/// Backends map it onto whatever their socket notion is; holders can only
/// pass it back into the transport that issued it. (Re-exported through
/// `crate::transport`, which is where users meet it.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CtlSock(pub(crate) u64);

impl CtlSock {
    /// A handle that no transport ever issues — the pre-bind placeholder.
    pub(crate) const UNBOUND: CtlSock = CtlSock(u64::MAX);
}

/// One pod of a job: where it runs and what it executes.
#[derive(Debug, Clone)]
pub struct PodSpec {
    /// Pod name (unique within the job; keys checkpoint images).
    pub name: String,
    /// The pod's externally routable IP.
    pub ip: IpAddr,
    /// VIF MAC configuration.
    pub mac_mode: MacMode,
    /// Node index the pod initially runs on.
    pub node: usize,
    /// Guest programs to spawn inside the pod.
    pub programs: Vec<Program>,
}

/// Live placement of one pod.
#[derive(Debug, Clone)]
pub struct PodPlacement {
    /// Pod name.
    pub name: String,
    /// The pod's IP (stable across migration).
    pub ip: IpAddr,
    /// MAC configuration.
    pub mac_mode: MacMode,
    /// Node currently hosting the pod.
    pub node: usize,
    /// The pod's id on that node (`None` while not instantiated, e.g.
    /// between crash and restart).
    pub pod_id: Option<PodId>,
}

/// One simulated machine.
pub struct Node {
    /// The node's kernel (OS, stack, disk).
    pub kernel: Kernel,
    /// The node's Zap layer.
    pub zap: Zap,
    pub(crate) agent: Agent,
    pub(crate) agent_sock: CtlSock,
    pub(crate) agent_coord_addr: Option<CtlAddr>,
    pub(crate) alive: bool,
    pub(crate) run_scheduled: bool,
    pub(crate) timer_scheduled: Option<SimTime>,
    /// When this node's control-plane CPU frees up: sending and processing
    /// coordination messages serialize here (the N-proportional component
    /// of Fig. 5(b)).
    pub(crate) ctl_cpu_free: SimTime,
}

/// The IP of node `i`: `10.0.0.(i+1)`.
pub fn node_ip(i: usize) -> IpAddr {
    IpAddr::from_octets([10, 0, 0, (i + 1) as u8])
}

impl Node {
    /// Builds node `i` over the shared filesystem `fs`: MAC and IP derive
    /// from the index, the kernel from `params`, with Zap installed, an
    /// idle agent and no control endpoint bound yet.
    pub(crate) fn new(i: usize, fs: NetFs, params: &ClusterParams) -> Node {
        let net = NetStack::new(
            MacAddr::from_index(i as u32 + 1),
            node_ip(i),
            params.subnet_prefix,
            params.tcp.clone(),
        );
        let mut kernel = Kernel::new(net, fs, Disk::new(params.disk), params.kernel);
        let zap = Zap::new();
        zap.install(&mut kernel);
        Node {
            kernel,
            zap,
            agent: Agent::new(),
            agent_sock: CtlSock::UNBOUND,
            agent_coord_addr: None,
            alive: true,
            run_scheduled: false,
            timer_scheduled: None,
            ctl_cpu_free: SimTime::ZERO,
        }
    }

    /// Creates `spec`'s pod for `job` (named `job:pod` inside Zap) and
    /// spawns its programs in order.
    ///
    /// # Errors
    ///
    /// Zap errors from pod creation or program loading.
    pub(crate) fn launch_pod(
        &mut self,
        job: &str,
        spec: &PodSpec,
    ) -> Result<PodPlacement, ZapError> {
        let pod_id = self.zap.create_pod(
            &mut self.kernel,
            PodConfig {
                name: format!("{}:{}", job, spec.name),
                ip: spec.ip,
                mac_mode: spec.mac_mode,
            },
        )?;
        for prog in &spec.programs {
            self.zap.spawn_in_pod(&mut self.kernel, pod_id, prog)?;
        }
        Ok(PodPlacement {
            name: spec.name.clone(),
            ip: spec.ip,
            mac_mode: spec.mac_mode,
            node: spec.node,
            pod_id: Some(pod_id),
        })
    }

    /// The comm fence: silently drop (or readmit) all traffic to and from
    /// `pods` at this node's packet filter.
    pub(crate) fn set_comm(&mut self, pods: &[PodPlacement], enabled: bool) {
        let f = self.kernel.net.filter_mut();
        for p in pods {
            if enabled {
                f.remove_drop_rule(p.ip);
            } else {
                f.add_drop_rule(p.ip);
            }
        }
    }

    /// Stop-the-world capture: freezes and extracts each instantiated pod
    /// in turn, handing its image and dirty-page sets to `prepare` before
    /// the next pod is captured.
    ///
    /// # Errors
    ///
    /// The first Zap error; pods captured before it are dropped.
    pub(crate) fn capture<T>(
        &mut self,
        pods: &[PodPlacement],
        now: SimTime,
        mut prepare: impl FnMut(&str, PodImage, Vec<BTreeSet<u64>>) -> T,
    ) -> Result<Vec<(String, T)>, ZapError> {
        let mut out = Vec::new();
        for p in pods {
            let Some(pod_id) = p.pod_id else { continue };
            let (img, dirty) = self
                .zap
                .checkpoint_pod_dirty(&mut self.kernel, pod_id, now)?;
            out.push((p.name.clone(), prepare(&p.name, img, dirty)));
        }
        Ok(out)
    }

    /// COW capture, arm phase: arms a memory snapshot of each instantiated
    /// pod. The freeze covers only this; [`drain`] materializes the pages
    /// later.
    ///
    /// # Errors
    ///
    /// The first Zap error; snapshots armed before it are cancelled.
    pub(crate) fn arm(
        &mut self,
        pods: &[PodPlacement],
        now: SimTime,
    ) -> Result<Vec<(String, ArmedPodCheckpoint)>, ZapError> {
        let mut armed: Vec<(String, ArmedPodCheckpoint)> = Vec::new();
        for p in pods {
            let Some(pod_id) = p.pod_id else { continue };
            match self.zap.checkpoint_pod_arm(&mut self.kernel, pod_id, now) {
                Ok(a) => armed.push((p.name.clone(), a)),
                Err(e) => {
                    cancel(armed);
                    return Err(e);
                }
            }
        }
        Ok(armed)
    }

    /// Restore: restarts each image read by [`read_images`] on this node,
    /// calling `placed` with the image and new pod id of every pod as it
    /// comes up.
    ///
    /// # Errors
    ///
    /// The first Zap error; pods restarted before it stay up.
    pub(crate) fn restart(
        &mut self,
        images: Vec<RestoreImage>,
        now: SimTime,
        mut placed: impl FnMut(&RestoreImage, PodId),
    ) -> Result<(), ZapError> {
        for r in images {
            let pod_id = self.zap.restart_pod(&mut self.kernel, &r.image, now)?;
            placed(&r, pod_id);
        }
        Ok(())
    }

    /// Resumes every instantiated pod in `pods`, returning the error of
    /// each pod that would not resume (it stays frozen).
    pub(crate) fn resume(&mut self, pods: &[PodPlacement], now: SimTime) -> Vec<ZapError> {
        pods.iter()
            .filter_map(|p| p.pod_id)
            .filter_map(|pod_id| self.zap.resume_pod(&mut self.kernel, pod_id, now).err())
            .collect()
    }

    /// The abort path: cancels any undrained COW snapshot, resumes the
    /// pods and lifts the fence. Returns the resume errors.
    pub(crate) fn roll_back(
        &mut self,
        pods: &[PodPlacement],
        armed: Vec<(String, ArmedPodCheckpoint)>,
        now: SimTime,
    ) -> Vec<ZapError> {
        cancel(armed);
        let errs = self.resume(pods, now);
        self.set_comm(pods, true);
        errs
    }
}

/// COW capture, drain phase: materializes each armed snapshot (the
/// frozen-instant memory, rebuilt from preserved pre-images where resumed
/// guests overwrote pages) and hands it to `prepare`. Also returns the
/// pre-image bytes copied because guest writes raced the drain.
pub(crate) fn drain<T>(
    armed: Vec<(String, ArmedPodCheckpoint)>,
    mut prepare: impl FnMut(&str, PodImage, Vec<BTreeSet<u64>>) -> T,
) -> (Vec<(String, T)>, u64) {
    let mut copied = 0;
    let mut out = Vec::new();
    for (name, a) in armed {
        let (img, pre_copied, dirty) = a.drain_with_dirty();
        copied += pre_copied;
        let t = prepare(&name, img, dirty);
        out.push((name, t));
    }
    (out, copied)
}

/// Drops armed COW snapshots without materializing anything.
pub(crate) fn cancel(armed: Vec<(String, ArmedPodCheckpoint)>) {
    for (_, a) in armed {
        a.cancel();
    }
}

// ---- the job's checkpoint store --------------------------------------------

/// Opens `job`'s checkpoint store on `fs`: `cfg.replicas` replica stores
/// behind the one-store API (1 = the plain unreplicated store), with the
/// capture/restore worker count `cfg.threads` (a wall-clock knob only —
/// produced bytes are identical at every width).
pub(crate) fn open_store(fs: NetFs, job: &str, cfg: &StoreConfig) -> ReplicatedStore {
    ReplicatedStore::new(fs, job, cfg.replicas.max(1)).with_threads(cfg.threads)
}

/// Serializes a captured image and prepares its store write — the one
/// capture path every checkpoint takes, stop-the-world and COW drain
/// alike. Clean pages reuse the job's page-digest cache; the rest
/// hash/encode across `cfg.threads` workers. Byte-identical at every
/// width.
pub(crate) fn prepare_image(
    store: &ReplicatedStore,
    cfg: &StoreConfig,
    pod_name: &str,
    img: &PodImage,
    dirty: &[BTreeSet<u64>],
    cache: &mut DigestCache,
) -> PreparedPut {
    let (bytes, cuts) = img.encode_with_page_cuts();
    let hints = page_hints(img, &cuts, dirty);
    PreparedPut::Chunked(store.prepare_chunked_hinted(&bytes, &hints, cfg, pod_name, cache))
}

/// Lands one node's prepared images in the store under `epoch`. The store
/// then holds every chunk they made novel, so the job's page-digest cache
/// drops the containers it kept for them.
pub(crate) fn land_images(
    store: &ReplicatedStore,
    cache: Option<&mut DigestCache>,
    epoch: u64,
    images: Vec<(String, PreparedPut)>,
) {
    for (pod_name, put) in images {
        store.put_prepared(&pod_name, epoch, put);
    }
    if let Some(cache) = cache {
        cache.release_stored();
    }
}

/// One pod image read back for a restore.
pub(crate) struct RestoreImage {
    /// The pod's store name.
    pub pod: String,
    /// The decoded image.
    pub image: PodImage,
    /// Serialized image length.
    pub raw_len: u64,
    /// Bytes the store holds for it (`CheckpointStore::stored_len`).
    pub stored_len: u64,
}

/// Reads and decodes every image of `pods` in `epoch`, in order — the
/// restore's get + decode, before [`Node::restart`] brings the pods up.
///
/// # Errors
///
/// A pod with no readable image in `epoch`, or an image that fails to
/// decode: restarting without it would silently drop the pod.
pub(crate) fn read_images(
    store: &ReplicatedStore,
    pods: &[String],
    epoch: u64,
) -> Result<Vec<RestoreImage>, CruzError> {
    let mut out = Vec::with_capacity(pods.len());
    for pod in pods {
        let bytes = store.get_image(pod, epoch).ok_or(CruzError::Protocol(
            "checkpoint image missing from the store",
        ))?;
        let image = PodImage::decode(&bytes)?;
        let raw_len = bytes.len() as u64;
        out.push(RestoreImage {
            pod: pod.clone(),
            image,
            raw_len,
            stored_len: store.stored_len(pod, epoch).unwrap_or(raw_len),
        });
    }
    Ok(out)
}

/// The coordinator's commit effect: writes the commit record for `epoch`;
/// with retention pruning on, drops every older epoch and compacts the
/// replica logs down to it, so write amplification tracks the retained
/// state, not the job's age (compaction is a no-op at k = 1).
pub(crate) fn commit_epoch(store: &ReplicatedStore, epoch: u64, prune: bool) {
    store.commit(epoch);
    if prune {
        store.prune_below(epoch);
        store.compact_logs();
    }
}

/// The coordinator's abort effect: an aborted checkpoint's uncommitted
/// epoch is discarded and any chunks stranded by a torn or interrupted
/// write are reclaimed. An aborted *restart* is reading a committed epoch
/// and leaves the store alone.
pub(crate) fn abort_epoch(store: &ReplicatedStore, kind: OpKind, epoch: u64) {
    if kind == OpKind::Checkpoint {
        store.discard_epoch(epoch);
        store.gc_orphan_chunks();
    }
}
