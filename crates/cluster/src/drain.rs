//! COW capture scheduling: snapshot arm, background drain, retroactive
//! disk batches.
//!
//! The §5.2 split taken one step further: the freeze window covers only
//! *arming* per-pod memory snapshots (O(non-memory state)); pages
//! materialize in the background at the [`Deadline::CkptDrain`] firing
//! while resumed guests race the drain with writes, paying the bounded
//! pre-image copy cost the [`crate::ops::OpReport`] records as
//! `cow_copied_bytes`.

use cruz::error::CruzError;

use crate::fault::ProtocolPoint;
use crate::node::{cancel, drain, prepare_image};
use crate::ops_agent::ImageIo;
use crate::runtime::{Deadline, Timers};
use crate::state::World;

impl World {
    /// COW capture, arm phase: freeze covers only arming the memory
    /// snapshots and serializing the image skeletons (registers, sockets,
    /// pipes, shm) — O(non-memory state) instead of O(image bytes). Pages
    /// drain in the background at the [`Deadline::CkptDrain`] firing.
    pub(crate) fn begin_local_checkpoint_cow(&mut self, node: usize, op: u64) {
        let pods = self.job_pods_on_node(op, node);
        let armed = match self.nodes[node].arm(&pods, self.now) {
            Ok(armed) => armed,
            Err(e) => {
                self.fail_op(op, CruzError::Zap(e));
                return;
            }
        };
        let arm_bytes: u64 = armed.iter().map(|(_, a)| a.arm_bytes()).sum();
        let page_bytes: u64 = armed.iter().map(|(_, a)| a.pending_page_bytes()).sum();
        let t_arm = self.now + self.params.extract_time(arm_bytes);
        // Arming pins the page set, so the drain length is known now even
        // though page *contents* are only materialized at the drain event —
        // after resumed guests have raced it with writes.
        let t_drain = t_arm + self.params.extract_time(page_bytes);
        if let Some(o) = self.ops.get_mut(&op) {
            o.pending_arm.insert(node, (t_arm, armed));
            o.local_ops.insert(node, (self.now, t_arm));
        }
        self.arm(t_arm.into(), Deadline::AgentLocalDone { node, op });
        self.arm(t_drain.into(), Deadline::CkptDrain { node, op });
    }

    /// COW capture, drain phase: materialize each armed snapshot (the
    /// frozen-instant memory, reconstructed from preserved pre-images where
    /// resumed guests overwrote pages), encode/chunk it, and hand it to the
    /// disk. The write-out is submitted retroactively at arm time so it
    /// overlaps the background encode exactly as the eager path overlaps
    /// capture; the batch can never complete before its last ready time,
    /// which is at or after this event.
    pub(crate) fn on_ckpt_drain(&mut self, node: usize, op: u64) {
        if !self.nodes[node].alive {
            return;
        }
        let (job, t_arm, armed, aborted) = {
            let Some(o) = self.ops.get_mut(&op) else {
                return;
            };
            let Some((t_arm, armed)) = o.pending_arm.remove(&node) else {
                return;
            };
            (o.job.clone(), t_arm, armed, o.aborted)
        };
        if aborted {
            // A failed drain (or any abort while draining) discards the
            // epoch exactly like a stop-the-world abort: drop the snapshots
            // without materializing anything. Arming re-baselined dirty
            // tracking without a completed prepare, so the job's remembered
            // page digests are stale.
            self.digest_caches.remove(&job);
            cancel(armed);
            return;
        }
        // Fault plan: die mid-drain — pods already resumed, pages still
        // flowing to the store. The armed snapshots die with the node.
        if self.maybe_crash(node, ProtocolPoint::CowDrain) {
            self.digest_caches.remove(&job);
            cancel(armed);
            return;
        }
        let store = self.store(&job);
        let mut cache = self.digest_caches.remove(&job).unwrap_or_default();
        let cfg = &self.params.store;
        let (images, copied) = drain(armed, |name, img, dirty| {
            prepare_image(&store, cfg, name, &img, &dirty, &mut cache)
        });
        self.digest_caches.insert(job, cache);
        let durable_at = self.submit_image_io(
            node,
            ImageIo::Write {
                start: t_arm,
                images: &images,
            },
        );
        if let Some(fault) = self.nodes[node].kernel.disk.take_write_fault() {
            self.apply_ckpt_disk_fault(op, fault, images);
            return;
        }
        if let Some(o) = self.ops.get_mut(&op) {
            o.pending_ckpt.insert(node, images);
            *o.cow_copied.entry(node).or_insert(0) += copied;
        }
        self.arm(durable_at.into(), Deadline::AgentDurable { node, op });
    }
}
