//! The four workloads and the host-side runner that times them.
//!
//! Every workload is a fixed script of simulated time driven through the
//! public [`cluster::World`] API: set up (build the world, launch the job,
//! warm up), then a timed phase of application slices, coordinated
//! checkpoints, node crashes and restarts onto spare nodes, with an output
//! check after every restore. One call of [`run_rep`] is one repetition.
//! Wall time is measured around each phase; the modelled figures of a
//! repetition ([`Model`]) are a pure function of the workload, the scale and
//! the seed, and the benchmark checks that they repeat bit for bit.

mod compute;
mod slm;
mod stream;

use cluster::{CkptCaptureMode, CkptOptions, ClusterParams, OpReport, StoreConfig, World};
use cruz::proto::ProtocolMode;
use des::{SimDuration, SimTime};
use simos::disk::DiskParams;
use simos::program::Program;

use crate::layers::Replayer;
use crate::spans::{now, Recorder};

use compute::ComputePlan;
use slm::{ChurnPlan, SlmPlan};
use stream::StreamPlan;

/// Store worker threads, pinned (never `0`/auto) so the parallel
/// capture/restore pool has the same width on every host.
pub const STORE_THREADS: usize = 2;

/// Event budget of one `run_until_*` call; hitting it is a failed op.
const MAX_EVENTS: u64 = 200_000_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Guest interpretation: an ALU loop and a seeded memory-writing loop.
    GuestCompute,
    /// The Fig. 5 `slm` ring: mostly clean pages, dedup+lz store, k=1.
    SlmSteady,
    /// Seeded random state every epoch, COW capture, k=3 replicated store.
    ChurnRestore,
    /// The Fig. 6 gigabit stream across checkpoints and a restart.
    TcpStream,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::GuestCompute,
        Workload::SlmSteady,
        Workload::ChurnRestore,
        Workload::TcpStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GuestCompute => "guest_compute",
            Workload::SlmSteady => "slm_steady",
            Workload::ChurnRestore => "churn_restore",
            Workload::TcpStream => "tcp_stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn job(self) -> &'static str {
        match self {
            Workload::GuestCompute => "gc",
            Workload::SlmSteady | Workload::ChurnRestore => "slm",
            Workload::TcpStream => "stream",
        }
    }
}

/// Workload size: `Full` is what the benchmark measures; `Small` keeps the
/// same scripts at a fraction of the size for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Measured size.
    Full,
    /// Reduced size (tests).
    Small,
}

/// The modelled (simulated) figures of one repetition. A pure function of
/// (workload, scale, seed): any difference between repetitions or
/// processes is a determinism failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    /// Fig. 5(a) latency of each checkpoint, ns.
    pub ckpt_latency_ns: Vec<u64>,
    /// Fig. 5(b) coordination overhead of each checkpoint, ns.
    pub coord_overhead_ns: Vec<u64>,
    /// Latency of each restart, ns.
    pub restart_latency_ns: Vec<u64>,
    /// Per-node blocked (frozen) time of every checkpoint, ns.
    pub freeze_ns: Vec<u64>,
    /// Simulated `Disk::bytes_written` of each checkpoint, all nodes.
    pub disk_bytes_per_ckpt: Vec<u64>,
    /// Dirty guest pages (all pods) when each checkpoint started.
    pub dirty_pages_per_ckpt: Vec<u64>,
    /// DES events of the timed phase.
    pub events: u64,
    /// DES events inside application slices.
    pub app_events: u64,
    /// DES events inside each checkpoint operation.
    pub ckpt_events: Vec<u64>,
    /// Simulated length of the timed phase, ns.
    pub sim_ns: u64,
    /// Application bytes the guests received over TCP in the timed phase
    /// (net of restart rollback).
    pub rx_bytes: u64,
    /// `tcp_stream` only: stream goodput over the timed phase, bits/s.
    pub stream_goodput_bps: u64,
    /// `tcp_stream` only: restart-op end until the rate is back at ≥50 %
    /// of the pre-checkpoint rate, ns.
    pub stream_recovery_ns: u64,
    /// Checked outputs (exit codes, counters, digests), in check order.
    pub outputs: Vec<u64>,
    /// The world's trace digest at the end of the repetition.
    pub trace_digest: u64,
}

impl Model {
    /// FNV-1a digest of every field: equal digests mean equal models.
    pub fn digest(&self) -> u64 {
        des::digest::fnv1a(format!("{self:?}").as_bytes())
    }
}

/// Wall-time and model results of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// World build + launch + warm-up, s.
    pub setup_s: f64,
    /// The timed phase, s.
    pub run_wall_s: f64,
    /// Each checkpoint op, ms.
    pub ckpt_wall_ms: Vec<f64>,
    /// Each restart op, ms.
    pub restore_wall_ms: Vec<f64>,
    /// Wall inside application slices, ns.
    pub app_wall_ns: u64,
    /// Ops and output checks attempted.
    pub attempted: u64,
    /// Ops that aborted or errored, plus failed output checks.
    pub failed: u64,
    /// The modelled figures.
    pub model: Model,
}

/// The host-side runner of one repetition: wraps the world, times each
/// phase, records spans, and feeds images to the layer replayer.
struct Runner<'a> {
    w: World,
    job: &'static str,
    rec: &'a mut Recorder,
    replay: Option<&'a mut Replayer>,
    rep: Rep,
}

impl Runner<'_> {
    fn events(&self) -> u64 {
        self.w.events_processed()
    }

    /// Runs the application for `d` of simulated time.
    fn app(&mut self, d: SimDuration) {
        let until = self.w.now + d;
        self.app_until(until);
    }

    /// Runs the application until simulated time `t`.
    fn app_until(&mut self, t: SimTime) {
        self.run_app(|w| w.run_until(t));
    }

    /// Runs the application until the job has exited; false on timeout.
    fn app_to_exit(&mut self) -> bool {
        let job = self.job;
        self.run_app(|w| w.run_until_pred(MAX_EVENTS, |w| w.job_finished(job)))
    }

    /// Advances the world with `run` inside an `app` span, counting its
    /// wall time and events as application time.
    fn run_app<T>(&mut self, run: impl FnOnce(&mut World) -> T) -> T {
        self.rec.open("app");
        let ev = self.events();
        let t0 = now();
        let out = run(&mut self.w);
        self.rep.app_wall_ns += t0.elapsed().as_nanos() as u64;
        self.rep.model.app_events += self.events() - ev;
        self.rec.close();
        out
    }

    /// (node, real pid) of every pod's first process.
    fn pod_pids(&self) -> Vec<(String, usize, simos::Pid)> {
        let Some(jr) = self.w.job(self.job) else {
            return Vec::new();
        };
        jr.placements
            .iter()
            .filter_map(|p| {
                let pid = self.w.zap(p.node).real_pid(p.pod_id?, 1)?;
                Some((p.name.clone(), p.node, pid))
            })
            .collect()
    }

    fn disk_bytes(&self) -> u64 {
        (0..self.w.node_count())
            .map(|n| self.w.kernel(n).disk.bytes_written())
            .sum()
    }

    /// Starts an op with `start` and runs it to its end inside a span named
    /// `name`, counting it as attempted, and as failed unless it committed.
    /// Returns the op, its report and its wall time in ms.
    fn run_op(
        &mut self,
        name: &'static str,
        start: impl FnOnce(&mut World) -> Option<u64>,
    ) -> Option<(u64, OpReport, f64)> {
        self.rec.open(name);
        let t0 = now();
        let op = start(&mut self.w);
        let finished = op.is_some_and(|op| self.w.run_until_op(op, MAX_EVENTS));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.rec.close();
        self.rep.attempted += 1;
        let done = op
            .filter(|&op| finished && self.w.op_error(op).is_none())
            .and_then(|op| Some((op, self.w.op_report(op)?, wall_ms)))
            .filter(|(_, r, _)| r.complete && !r.aborted);
        if done.is_none() {
            self.rep.failed += 1;
        }
        done
    }

    /// One coordinated checkpoint; returns its epoch if it committed.
    fn checkpoint(&mut self, opts: CkptOptions) -> Option<u64> {
        let dirty: u64 = self
            .pod_pids()
            .iter()
            .filter_map(|&(_, n, pid)| self.w.kernel(n).process(pid))
            .map(|p| p.mem.borrow().dirty_count() as u64)
            .sum();
        let disk0 = self.disk_bytes();
        let ev = self.events();
        let job = self.job;
        let (op, report, wall_ms) =
            self.run_op("checkpoint", |w| w.start_checkpoint_with(job, opts).ok())?;
        self.rep.ckpt_wall_ms.push(wall_ms);
        let (ev1, disk1) = (self.events(), self.disk_bytes());
        let m = &mut self.rep.model;
        m.ckpt_events.push(ev1 - ev);
        m.dirty_pages_per_ckpt.push(dirty);
        m.disk_bytes_per_ckpt.push(disk1 - disk0);
        let ns = |d: Option<SimDuration>| d.map_or(0, |d| d.as_nanos());
        m.ckpt_latency_ns
            .push(ns(report.stats.checkpoint_latency()));
        m.coord_overhead_ns.push(ns(report.coordination_overhead()));
        m.freeze_ns
            .extend(report.blocked_durations().iter().map(|(_, d)| d.as_nanos()));
        if let Some(r) = self.replay.as_deref_mut() {
            let store = self.w.store(self.job);
            let pods: Vec<(String, Vec<u8>)> = store
                .pods_in_epoch(op)
                .into_iter()
                .filter_map(|pod| Some((pod.clone(), store.get_image(&pod, op)?)))
                .collect();
            r.checkpoint(op, &pods, wall_ms, self.rec);
        }
        Some(op)
    }

    /// Crashes `nodes`.
    fn crash(&mut self, nodes: &[usize]) {
        self.rec.open("crash");
        for &n in nodes {
            self.w.crash_node(n);
        }
        self.rec.close();
    }

    /// Restarts the job from `epoch`, pod `i` of `placement` onto its node.
    fn restart(&mut self, epoch: u64, placement: &[(String, usize)]) -> bool {
        let job = self.job;
        let Some((_, report, wall_ms)) = self.run_op("restart", |w| {
            w.start_restart(job, epoch, placement, ProtocolMode::Blocking)
                .ok()
        }) else {
            return false;
        };
        self.rep.restore_wall_ms.push(wall_ms);
        let lat = report
            .stats
            .checkpoint_latency()
            .map_or(0, |d| d.as_nanos());
        self.rep.model.restart_latency_ns.push(lat);
        if let Some(r) = self.replay.as_deref_mut() {
            r.restore(epoch, wall_ms);
        }
        true
    }

    /// Runs one output check: `f` returns the checked values, or `None`
    /// when the output is wrong.
    fn verify(&mut self, f: impl FnOnce(&World) -> Option<Vec<u64>>) -> bool {
        self.rec.open("verify");
        let got = f(&self.w);
        self.rec.close();
        self.rep.attempted += 1;
        match got {
            Some(values) => {
                self.rep.model.outputs.extend(values);
                true
            }
            None => {
                self.rep.failed += 1;
                false
            }
        }
    }

    fn peek_u64(&self, pod: &str, addr: u64) -> Option<u64> {
        let b = self.w.peek_guest(self.job, pod, 1, addr, 8)?;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    /// Spare placement: pod `i` of `pods` onto node `first + i`.
    fn placement(pods: &[String], first: usize) -> Vec<(String, usize)> {
        pods.iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), first + i))
            .collect()
    }
}

/// Runs one repetition of `wl`. Spans go to `rec` (a disabled recorder
/// records nothing); when `replay` is given, every committed epoch's images
/// and every restore are fed to it after their op's wall time is taken.
pub fn run_rep(
    wl: Workload,
    scale: Scale,
    seed: u64,
    rec: &mut Recorder,
    replay: Option<&mut Replayer>,
) -> Rep {
    rec.open("rep");
    rec.open("setup");
    let t0 = now();
    let (w, plan) = setup(wl, scale, seed);
    let setup_s = t0.elapsed().as_secs_f64();
    rec.close();
    let mut d = Runner {
        w,
        job: wl.job(),
        rec,
        replay,
        rep: Rep {
            setup_s,
            ..Rep::default()
        },
    };
    let ev0 = d.events();
    let sim0 = d.w.now;
    let t1 = now();
    match plan {
        Plan::Compute(p) => compute::script(&mut d, &p),
        Plan::Slm(p) => slm::steady_script(&mut d, &p),
        Plan::Churn(p) => slm::churn_script(&mut d, &p),
        Plan::Stream(p) => stream::script(&mut d, &p),
    }
    d.rep.run_wall_s = t1.elapsed().as_secs_f64();
    d.rep.model.events = d.events() - ev0;
    d.rep.model.sim_ns = d.w.now.duration_since(sim0).as_nanos();
    d.rep.model.trace_digest = d.w.trace_digest();
    d.rec.close();
    d.rep
}

/// What a workload's script needs beyond the world.
enum Plan {
    Compute(ComputePlan),
    Slm(SlmPlan),
    Churn(ChurnPlan),
    Stream(StreamPlan),
}

/// The checkpoint-store configuration a workload's world runs with.
pub fn store_config(wl: Workload) -> StoreConfig {
    let store = match wl {
        Workload::GuestCompute | Workload::TcpStream => StoreConfig::default(),
        Workload::SlmSteady => StoreConfig::dedup_compress(),
        Workload::ChurnRestore => StoreConfig {
            replicas: 3,
            ..StoreConfig::dedup_compress()
        },
    };
    StoreConfig {
        threads: STORE_THREADS,
        ..store
    }
}

/// The `guest_compute` loops at a fixed reduced size, for the bare-kernel
/// layer measurements: (ALU program, its syscalls, memory program, its
/// syscalls).
pub fn guest_loops(seed: u64) -> (Program, u64, Program, u64) {
    let mut plan = ComputePlan::new(Scale::Full, seed);
    plan.alu.outer = 400;
    plan.iters = 150_000;
    (
        plan.alu.program(),
        plan.alu.outer + 1,
        plan.mem_program(),
        1,
    )
}

fn params(wl: Workload) -> ClusterParams {
    ClusterParams {
        store: store_config(wl),
        ..ClusterParams::default()
    }
}

fn setup(wl: Workload, scale: Scale, seed: u64) -> (World, Plan) {
    match wl {
        Workload::GuestCompute => {
            let plan = ComputePlan::new(scale, seed);
            let mut w = World::new(5, params(wl));
            w.launch_job(&plan.job_spec())
                .expect("launch guest_compute");
            w.run_for(SimDuration::from_micros(200));
            (w, Plan::Compute(plan))
        }
        Workload::SlmSteady => {
            let plan = SlmPlan::new(scale);
            let nodes = plan.slm.ranks * (plan.cycles + 1) + 1;
            let mut p = params(wl);
            // Fig. 5's disk, scaled with the state so a save lands near 1 s.
            p.disk = DiskParams {
                bandwidth_bps: 8 * 1024 * 1024,
                op_overhead: SimDuration::from_millis(5),
            };
            p.prune_old_epochs = true;
            let mut w = World::new(nodes, p);
            w.launch_job(&plan.slm.job_spec("slm", nodes - 1))
                .expect("launch slm");
            w.run_for(SimDuration::from_millis(100));
            (w, Plan::Slm(plan))
        }
        Workload::ChurnRestore => {
            let plan = ChurnPlan::new(scale, seed);
            let nodes = plan.slm.ranks * (plan.epochs + 1) + 1;
            let mut p = params(wl);
            p.capture = CkptCaptureMode::Cow;
            p.prune_old_epochs = true;
            let mut w = World::new(nodes, p);
            w.launch_job(&plan.slm.job_spec("slm", nodes - 1))
                .expect("launch slm");
            w.run_for(SimDuration::from_millis(100));
            (w, Plan::Churn(plan))
        }
        Workload::TcpStream => {
            let plan = StreamPlan::new(scale);
            let mut w = World::new(5, params(wl));
            w.launch_job(&plan.job_spec()).expect("launch stream");
            w.run_for(SimDuration::from_millis(300));
            (w, Plan::Stream(plan))
        }
    }
}
