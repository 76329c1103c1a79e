//! The DES backend of the runtime seam: [`SimRuntime`] drives the full
//! checkpoint → fault → recover → restore cycle inside the deterministic
//! simulator.
//!
//! This is the *oracle* half of the twin-runtime pair. It owns a
//! [`World`] and replays the exact protocol the golden traces pin —
//! nothing here schedules events of its own; every deadline still flows
//! through [`crate::runtime::Timers`] into the pinned DES queue, so a
//! `SimRuntime` run is byte-identical to driving the same `World` by
//! hand. Its counterpart, [`crate::netrt::NetRuntime`], runs the same
//! protocol engine over real loopback UDP sockets and OS threads; the
//! two must agree on the restored-image digest for the same workload
//! (the twin-runtime property `tests/twin_runtime.rs` checks).

use cruz::proto::ProtocolMode;

use crate::jobs::JobSpec;
use crate::params::ClusterParams;
use crate::runtime::restored_set;
use crate::state::{ClusterError, World};

/// Outcome of one full cycle: run the job to completion, checkpoint it,
/// fail the hosting node(s), restore the committed epoch onto a spare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    /// The committed checkpoint epoch the restore rolled back to.
    pub epoch: u64,
    /// FNV-1a digest over the restored pods' image bytes as read back
    /// from the store — the cross-backend comparison point.
    pub restored_digest: u64,
    /// The pods restored onto the spare, in digest order.
    pub restored_pods: Vec<String>,
    /// Each store replica's tree digest after the restore
    /// (`ReplicatedStore::tree_digest`), replica 0 first.
    pub replica_digests: Vec<u64>,
    /// DES events processed over the whole cycle (sim backend only).
    pub events_processed: u64,
}

/// The deterministic-simulator backend of the runtime seam.
///
/// Wraps a [`World`] and exposes the same cycle API as
/// [`crate::netrt::NetRuntime`]. Because it *is* the pinned DES engine,
/// its behavior is covered by `tests/golden_trace.rs`; this type adds no
/// scheduling of its own.
pub struct SimRuntime {
    world: World,
}

/// The per-phase DES event budget of a cycle.
const EVENT_BUDGET: u64 = 50_000_000;

impl SimRuntime {
    /// A cluster of `n` simulated nodes.
    pub fn new(n: usize, params: ClusterParams) -> SimRuntime {
        SimRuntime {
            world: World::new(n, params),
        }
    }

    /// Read access to the underlying world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the underlying world (fault plans, params).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Runs the full cycle for `spec`: launch, run the workload to
    /// completion, take a blocking checkpoint, crash every node hosting a
    /// pod, then restore the committed epoch onto `spare`.
    ///
    /// The workload must terminate on its own (every process exits) — the
    /// cycle checkpoints the *finished* state so the image bytes are
    /// independent of capture timing, which is what makes the digest
    /// comparable across backends.
    ///
    /// # Errors
    ///
    /// Any [`ClusterError`] from launch/checkpoint/restore, or
    /// [`ClusterError::Protocol`] when a phase exhausts the event budget.
    pub fn run_cycle(&mut self, spec: &JobSpec, spare: usize) -> Result<CycleReport, ClusterError> {
        let job = spec.name.clone();
        let app_nodes = spec.app_nodes();
        if app_nodes.contains(&spare) {
            return Err(ClusterError::protocol("spare node hosts a pod of the job"));
        }
        self.world.launch_job(spec)?;
        if !self
            .world
            .run_until_pred(EVENT_BUDGET, |w| w.job_finished(&job))
        {
            return Err(ClusterError::protocol(
                "workload did not finish within the event budget",
            ));
        }
        let op = self
            .world
            .start_checkpoint(&job, ProtocolMode::Blocking, None)?;
        self.finish(op, "checkpoint did not finish within the event budget")?;
        let epoch =
            self.world
                .store(&job)
                .latest_committed_epoch()
                .ok_or(ClusterError::protocol(
                    "no committed epoch after checkpoint",
                ))?;
        for &n in &app_nodes {
            self.world.crash_node(n);
        }
        let placement: Vec<(String, usize)> =
            spec.pods.iter().map(|p| (p.name.clone(), spare)).collect();
        let op = self
            .world
            .start_restart(&job, epoch, &placement, ProtocolMode::Blocking)?;
        self.finish(op, "restore did not finish within the event budget")?;
        let pods: Vec<String> = spec.pods.iter().map(|p| p.name.clone()).collect();
        let restored = restored_set(&self.world.store(&job), epoch, &pods)?;
        Ok(CycleReport {
            epoch,
            restored_digest: restored.digest,
            restored_pods: restored.pods,
            replica_digests: restored.replica_digests,
            events_processed: self.world.events_processed(),
        })
    }

    /// Runs operation `op` to its end: exhausting the event budget fails
    /// with `stalled`, an abort fails too.
    fn finish(&mut self, op: u64, stalled: &'static str) -> Result<(), ClusterError> {
        if !self.world.run_until_op(op, EVENT_BUDGET) {
            return Err(ClusterError::protocol(stalled));
        }
        if self.world.op_report(op).is_none_or(|r| r.aborted) {
            return Err(ClusterError::protocol("operation aborted"));
        }
        Ok(())
    }
}
