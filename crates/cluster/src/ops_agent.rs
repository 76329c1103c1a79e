//! Coordinated-operation runtime, agent side: when each participant
//! node's protocol actions happen in the simulator.
//!
//! The coordinator half (install, retry/timeout, abort bookkeeping) is in
//! [`crate::ops`]; this module wires everything a *participant node* does
//! — answering liveness probes, freezing and capturing pods, persisting
//! images, restoring from the store, resuming, and rolling back — onto
//! the simulated disk and control CPU. The work itself is the shared node
//! agent of [`crate::node`], the same calls the net runtime makes; the
//! COW arm/drain schedule is in [`crate::drain`]. Like the coordinator
//! half, every future action is registered through the
//! [`crate::runtime::Timers`] seam.

use simos::disk::WriteFault;
use zap::ZapError;

use cruz::agent::AgentAction;
use cruz::error::CruzError;
use cruz::proto::{CtlMsg, OpKind};
use cruz::store::PreparedPut;

use des::SimTime;

use crate::fault::ProtocolPoint;
use crate::jobs::PodPlacement;
use crate::node::{land_images, prepare_image, read_images};
use crate::params::CkptCaptureMode;
use crate::runtime::{CtlAddr, Deadline, Timers};
use crate::state::World;
use crate::transport::CtlTransport;

impl World {
    // ---- agent wiring -------------------------------------------------------

    pub(crate) fn on_agent_ctl(&mut self, node: usize, msg: CtlMsg, reply_to: CtlAddr) {
        if !self.nodes[node].alive {
            return;
        }
        // Liveness probes answer from the node itself — a pong proves the
        // whole receive path (NIC, kernel, control CPU), not just the wire.
        if let CtlMsg::Ping { seq } = msg {
            let sock = self.nodes[node].agent_sock;
            let now = self.now;
            self.ctl()
                .send(node, sock, reply_to, &CtlMsg::Pong { seq }, now.into());
            self.postprocess(node);
            return;
        }
        if matches!(
            msg,
            CtlMsg::Start {
                kind: OpKind::Checkpoint,
                ..
            }
        ) && self.maybe_crash(node, ProtocolPoint::CheckpointReceived)
        {
            return;
        }
        if matches!(msg, CtlMsg::Start { .. }) {
            self.nodes[node].agent_coord_addr = Some(reply_to);
        }
        let op = msg.epoch();
        let actions = self.nodes[node].agent.on_ctl(msg, self.now);
        self.run_agent_actions(node, op, actions);
        self.postprocess(node);
    }

    pub(crate) fn on_agent_durable(&mut self, node: usize, op: u64) {
        if !self.nodes[node].alive {
            return;
        }
        let (job, image_epoch, images) = {
            let Some(o) = self.ops.get_mut(&op) else {
                return;
            };
            if o.aborted {
                // The epoch was already discarded by the rollback; persisting
                // now would leave orphan images the store can never commit.
                o.pending_ckpt.remove(&node);
                return;
            }
            (
                o.job.clone(),
                o.image_epoch,
                o.pending_ckpt.remove(&node).unwrap_or_default(),
            )
        };
        self.land(&job, image_epoch, images);
        let actions = self.nodes[node].agent.on_local_durable(self.now);
        self.run_agent_actions(node, op, actions);
        self.postprocess(node);
    }

    pub(crate) fn on_agent_local_done(&mut self, node: usize, op: u64) {
        if !self.nodes[node].alive {
            return;
        }
        // Materialize the pending work at its completion time.
        let (kind, cow) = match self.ops.get(&op) {
            Some(o) => (o.kind, o.cow),
            None => return,
        };
        // Fault plan: kill the node right at the protocol point — local
        // work finished but neither reported nor durable (checkpoint), or
        // mid-restore (restart).
        let point = match kind {
            OpKind::Checkpoint => ProtocolPoint::LocalDoneToDurable,
            OpKind::Restart => ProtocolPoint::Restore,
        };
        if self.maybe_crash(node, point) {
            return;
        }
        match kind {
            OpKind::Checkpoint if !cow => {
                let Some((job, image_epoch, images, aborted)) = self.ops.get_mut(&op).map(|o| {
                    (
                        o.job.clone(),
                        o.image_epoch,
                        o.pending_ckpt.remove(&node).unwrap_or_default(),
                        o.aborted,
                    )
                }) else {
                    return;
                };
                if aborted {
                    // The epoch was already discarded by the abort path;
                    // persisting this straggler would strand orphan chunks
                    // and dangling refs the store can never commit.
                    return;
                }
                self.land(&job, image_epoch, images);
            }
            OpKind::Checkpoint => {} // COW: images persist at AgentDurable
            OpKind::Restart => {
                let Some((job, images)) = self.ops.get_mut(&op).map(|o| {
                    (
                        o.job.clone(),
                        o.pending_restore.remove(&node).unwrap_or_default(),
                    )
                }) else {
                    return;
                };
                let jobs = &mut self.jobs;
                let restarted = self.nodes[node].restart(images, self.now, |r, pod_id| {
                    if let Some(p) = jobs.get_mut(&job).and_then(|jr| jr.placement_mut(&r.pod)) {
                        p.pod_id = Some(pod_id);
                        p.node = node;
                    }
                });
                if let Err(e) = restarted {
                    self.fail_op(op, CruzError::Zap(e));
                    return;
                }
            }
        }
        let actions = self.nodes[node].agent.on_local_done(self.now);
        self.run_agent_actions(node, op, actions);
        self.postprocess(node);
    }

    /// Lands one node's prepared images in the job's store, with the
    /// job's page-digest cache.
    fn land(&mut self, job: &str, epoch: u64, images: Vec<(String, PreparedPut)>) {
        let store = self.store(job);
        land_images(&store, self.digest_caches.get_mut(job), epoch, images);
    }

    pub(crate) fn run_agent_actions(&mut self, node: usize, op: u64, actions: Vec<AgentAction>) {
        for action in actions {
            match action {
                AgentAction::DisableComm => self.set_comm(node, op, false),
                AgentAction::EnableComm => self.set_comm(node, op, true),
                AgentAction::BeginLocalCheckpoint { .. } => self.begin_local_checkpoint(node, op),
                AgentAction::BeginLocalRestore { .. } => self.begin_local_restore(node, op),
                AgentAction::ResumePods => self.resume_pods(node, op),
                AgentAction::RollBack { .. } => self.roll_back(node, op),
                AgentAction::Send(msg) => self.agent_send(node, msg),
            }
        }
    }

    pub(crate) fn job_pods_on_node(&self, op: u64, node: usize) -> Vec<PodPlacement> {
        let Some(o) = self.ops.get(&op) else {
            return Vec::new();
        };
        let Some(jr) = self.jobs.get(&o.job) else {
            return Vec::new();
        };
        jr.pods_on_node(node).into_iter().cloned().collect()
    }

    pub(crate) fn set_comm(&mut self, node: usize, op: u64, enabled: bool) {
        let pods = self.job_pods_on_node(op, node);
        self.nodes[node].set_comm(&pods, enabled);
    }

    fn begin_local_checkpoint(&mut self, node: usize, op: u64) {
        let Some((cow, capture, job)) =
            self.ops.get(&op).map(|o| (o.cow, o.capture, o.job.clone()))
        else {
            return;
        };
        if capture == CkptCaptureMode::Cow {
            self.begin_local_checkpoint_cow(node, op);
            return;
        }
        let pods = self.job_pods_on_node(op, node);
        let store = self.store(&job);
        // The job's page-digest cache rides outside `self` for the capture;
        // a capture failure drops it, which doubles as invalidation.
        let mut cache = self.digest_caches.remove(&job).unwrap_or_default();
        let cfg = &self.params.store;
        let captured = self.nodes[node].capture(&pods, self.now, |name, img, dirty| {
            prepare_image(&store, cfg, name, &img, &dirty, &mut cache)
        });
        let images = match captured {
            Ok(images) => images,
            Err(e) => {
                self.fail_op(op, CruzError::Zap(e));
                return;
            }
        };
        self.digest_caches.insert(job, cache);
        let captured_at = self.now + self.params.extract_time(raw_total(&images));
        let durable_at = self.submit_image_io(
            node,
            ImageIo::Write {
                start: self.now,
                images: &images,
            },
        );
        if let Some(fault) = self.nodes[node].kernel.disk.take_write_fault() {
            self.apply_ckpt_disk_fault(op, fault, images);
            return;
        }
        if cow {
            // §5.2/COW: the blackout ends when the state is captured; the
            // disk write proceeds in the background and gates the commit.
            if let Some(o) = self.ops.get_mut(&op) {
                o.pending_ckpt.insert(node, images);
                o.local_ops.insert(node, (self.now, captured_at));
            }
            self.arm(captured_at.into(), Deadline::AgentLocalDone { node, op });
            self.arm(durable_at.into(), Deadline::AgentDurable { node, op });
        } else {
            if let Some(o) = self.ops.get_mut(&op) {
                o.pending_ckpt.insert(node, images);
                o.local_ops.insert(node, (self.now, durable_at));
            }
            self.arm(durable_at.into(), Deadline::AgentLocalDone { node, op });
        }
    }

    /// Submits image-store traffic to `node`'s simulated disk and returns
    /// when it completes. This is the one place `StoreConfig::dedup` is
    /// read: every image is stored as a chunk manifest, and the flag only
    /// picks what the disk is charged.
    ///
    /// * Off (the paper's testbed): a checkpoint writes each full image in
    ///   one write once capture ends; a restore reads each full image.
    /// * On: a checkpoint streams only the novel chunks as capture
    ///   serializes up to them, plus each manifest once its image is
    ///   complete, as one batched operation (single seek) that never
    ///   completes before capture ends; a restore reads each manifest plus
    ///   every distinct chunk it references.
    pub(crate) fn submit_image_io(&mut self, node: usize, io: ImageIo<'_>) -> SimTime {
        let dedup = self.params.store.dedup;
        let params = &self.params;
        let disk = &mut self.nodes[node].kernel.disk;
        match io {
            ImageIo::Read { start, lens } => {
                let total = lens
                    .iter()
                    .map(|&(raw, stored)| if dedup { stored } else { raw })
                    .sum();
                disk.submit_read(start, total)
            }
            ImageIo::Write { start, images } if dedup => {
                let mut batch: Vec<(SimTime, u64)> = Vec::new();
                let mut total = 0;
                for (_, PreparedPut::Chunked(c)) in images {
                    for (raw_end, stored) in c.novel_writes() {
                        batch.push((start + params.extract_time(total + raw_end), stored));
                    }
                    total += c.raw_len();
                    batch.push((start + params.extract_time(total), c.manifest_len()));
                }
                disk.submit_write_batch(start, &batch)
            }
            ImageIo::Write { start, images } => {
                let total = raw_total(images);
                disk.submit_write(start + params.extract_time(total), total)
            }
        }
    }

    /// An injected disk fault struck a checkpoint write: the write syscall
    /// reports the failure, durability is never claimed, and the operation
    /// force-aborts. A torn write additionally leaves a partial prefix of
    /// the image on disk — chunks with no manifest referencing them — which
    /// the abort path's orphan-chunk garbage collection reclaims.
    pub(crate) fn apply_ckpt_disk_fault(
        &mut self,
        op: u64,
        fault: WriteFault,
        images: Vec<(String, PreparedPut)>,
    ) {
        if let WriteFault::Torn(frac) = fault {
            if let Some(o) = self.ops.get(&op) {
                let store = self.store(&o.job.clone());
                for (_, put) in &images {
                    store.put_torn(put, frac);
                }
            }
        }
        self.fail_op(op, CruzError::Protocol("injected disk write fault"));
    }

    fn begin_local_restore(&mut self, node: usize, op: u64) {
        let (job, image_epoch) = match self.ops.get(&op) {
            Some(o) => (o.job.clone(), o.image_epoch),
            None => return,
        };
        let pods: Vec<String> = self
            .job_pods_on_node(op, node)
            .into_iter()
            .map(|p| p.name)
            .collect();
        // Read and decode now, so a missing or bad image fails the op at the
        // instant the read is issued; the decoded images wait for the disk.
        let images = match read_images(&self.store(&job), &pods, image_epoch) {
            Ok(images) => images,
            Err(e) => {
                self.fail_op(op, e);
                return;
            }
        };
        let lens: Vec<(u64, u64)> = images.iter().map(|r| (r.raw_len, r.stored_len)).collect();
        let done_at = self.submit_image_io(
            node,
            ImageIo::Read {
                start: self.now,
                lens: &lens,
            },
        );
        if let Some(o) = self.ops.get_mut(&op) {
            o.pending_restore.insert(node, images);
            o.local_ops.insert(node, (self.now, done_at));
        }
        self.arm(done_at.into(), Deadline::AgentLocalDone { node, op });
    }

    pub(crate) fn resume_pods(&mut self, node: usize, op: u64) {
        let pods = self.job_pods_on_node(op, node);
        let errs = self.nodes[node].resume(&pods, self.now);
        self.note_resumed(node, op, errs);
    }

    /// Records a node's resume: a pod that will not resume stays frozen,
    /// so its cause is surfaced instead of silently dropped.
    fn note_resumed(&mut self, node: usize, op: u64, errs: Vec<ZapError>) {
        let now = self.now;
        for e in errs {
            self.soft_faults.push((now, "resume-pod", e.into()));
        }
        if let Some(o) = self.ops.get_mut(&op) {
            o.resumed_at.entry(node).or_insert(now);
        }
    }

    fn roll_back(&mut self, node: usize, op: u64) {
        // Abort path: disarm any undrained COW snapshot, resume pods, lift
        // filters, discard this epoch's images.
        let armed = self
            .ops
            .get_mut(&op)
            .and_then(|o| o.pending_arm.remove(&node))
            .map(|(_, armed)| armed)
            .unwrap_or_default();
        let pods = self.job_pods_on_node(op, node);
        let errs = self.nodes[node].roll_back(&pods, armed, self.now);
        self.note_resumed(node, op, errs);
        if let Some(o) = self.ops.get(&op) {
            // Only a checkpoint abort owns its epoch. An aborted *restart*
            // is reading a committed epoch — discarding it would destroy
            // the very checkpoint recovery needs to retry from.
            if o.kind == OpKind::Checkpoint {
                let store = self.store(&o.job.clone());
                store.discard_epoch(o.image_epoch);
            }
        }
    }

    fn agent_send(&mut self, node: usize, msg: CtlMsg) {
        let Some(addr) = self.nodes[node].agent_coord_addr else {
            return;
        };
        let sock = self.nodes[node].agent_sock;
        let now = self.now;
        self.ctl().send(node, sock, addr, &msg, now.into());
    }

    /// Drains a node's agent endpoint: each decodable control frame costs
    /// one control-CPU slot and becomes a [`Deadline::AgentCtl`] firing.
    pub(crate) fn pump_agent(&mut self, n: usize) {
        let sock = self.nodes[n].agent_sock;
        while let Some((from, msg)) = self.ctl().recv(n, sock) {
            let mut at = self.ctl_slot(n);
            // Start/continue handling configures the packet filter and
            // signals pods before anything else runs.
            if matches!(msg, CtlMsg::Start { .. } | CtlMsg::Continue { .. }) {
                at += self.params.agent_op_cpu;
                self.nodes[n].ctl_cpu_free = at;
            }
            self.arm(
                at.into(),
                Deadline::AgentCtl {
                    node: n,
                    msg,
                    reply_to: from,
                },
            );
        }
    }
}

/// Image-store traffic for [`World::submit_image_io`] to charge.
pub(crate) enum ImageIo<'a> {
    /// One node's checkpoint write-out of `images`, whose capture began
    /// at `start`.
    Write {
        start: SimTime,
        images: &'a [(String, PreparedPut)],
    },
    /// A restore read starting at `start`: per pod image, its length and
    /// the bytes the store holds for it (`CheckpointStore::stored_len`).
    Read {
        start: SimTime,
        lens: &'a [(u64, u64)],
    },
}

/// Total serialized length of `images`.
fn raw_total(images: &[(String, PreparedPut)]) -> u64 {
    images
        .iter()
        .map(|(_, PreparedPut::Chunked(c))| c.raw_len())
        .sum()
}
