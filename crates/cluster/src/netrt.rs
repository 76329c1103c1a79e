//! The `std::net` backend of the runtime seam: the same protocol engine
//! and the same node agent over real loopback UDP sockets, one OS thread
//! per node, and a wall clock.
//!
//! Where [`crate::simrt::SimRuntime`] drives the coordinator/agent
//! protocol through the deterministic event queue, [`NetRuntime`] runs it
//! the way the paper's testbed did: each node is an OS thread owning its
//! own [`Node`] (kernel + Zap + agent), control frames are real UDP
//! datagrams on `127.0.0.1`, failure detection is heartbeat pings against
//! the wall clock, and checkpoint images go to a store-service thread
//! that owns the job's store. Everything a node *does* — launch, fence,
//! capture (stop-the-world or COW arm/drain), restore, resume, roll back
//! — and every store effect are the shared calls of [`crate::node`], the
//! same ones the simulator makes. This module owns only the carrier:
//! sockets ([`NetCtl`]), the clock (`NetClock`), the threads, and the
//! coordinator's pacing and heartbeat loops.
//!
//! Timing here is *not* deterministic; what *is* pinned is the restored
//! state: a workload run to completion before capture produces image bytes
//! independent of when the capture happened, so [`NetRuntime::run_cycle`]
//! and [`crate::simrt::SimRuntime::run_cycle`] must agree on
//! `runtime::restored_set` for the same [`JobSpec`] and
//! configuration (checked by `tests/twin_runtime.rs` and the
//! `loopback_demo` bench bin). The wall clock enters in exactly one place
//! (`NetClock`).

use std::collections::BTreeSet;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use des::{SimDuration, SimTime};
use simos::fs::NetFs;
use zap::image::PodImage;

use cruz::agent::AgentAction;
use cruz::coordinator::{CoordEffect, Coordinator};
use cruz::error::CruzError;
use cruz::pagecache::DigestCache;
use cruz::proto::{CtlMsg, OpKind, ProtocolMode, AGENT_PORT, COORD_PORT};
use cruz::replog::ReplicatedStore;

use crate::jobs::JobSpec;
use crate::node::{
    abort_epoch, commit_epoch, drain, land_images, open_store, prepare_image, read_images, Node,
    PodPlacement, PodSpec,
};
use crate::ops::CkptOptions;
use crate::params::{CkptCaptureMode, ClusterParams};
use crate::runtime::{restored_set, CtlAddr, CtlInstant, RestoredSet};
use crate::state::ClusterError;
use crate::transport::{CtlSock, CtlTransport};

/// True when this environment permits binding loopback UDP sockets.
///
/// Sandboxed CI runners sometimes forbid even `127.0.0.1`; callers (the
/// `loopback_demo` bin, the twin-runtime test) probe this first and skip
/// cleanly instead of failing.
pub fn loopback_available() -> bool {
    UdpSocket::bind(("127.0.0.1", 0)).is_ok()
}

// ---------------------------------------------------------------------------
// The wall clock — the net backend's single source of time.
// ---------------------------------------------------------------------------

/// The net runtime's clock: nanoseconds of real time elapsed since the
/// runtime epoch, read as [`SimTime`] so the shared state machines never
/// know which backend is feeding them.
struct NetClock(std::time::Instant);

impl NetClock {
    fn start() -> NetClock {
        // The one wall-clock read site of the net backend: every other
        // timestamp derives from this epoch. cruz-lint: allow(wall-clock)
        NetClock(std::time::Instant::now())
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.0.elapsed().as_nanos() as u64)
    }
}

// ---------------------------------------------------------------------------
// Loopback transport: the second CtlTransport backend.
// ---------------------------------------------------------------------------

/// Shared registry mapping engine addresses to real loopback endpoints.
type AddrTable = Arc<Mutex<Vec<((u32, u16), SocketAddr)>>>;

/// The registry, even if a thread panicked while holding it (entries are
/// only ever pushed whole, so a poisoned table is still consistent).
fn entries(table: &AddrTable) -> MutexGuard<'_, Vec<((u32, u16), SocketAddr)>> {
    table.lock().unwrap_or_else(|p| p.into_inner())
}

/// The loopback-UDP backend of [`CtlTransport`]: control frames ride real
/// `std::net::UdpSocket` datagrams on `127.0.0.1`, and [`CtlAddr`]s map
/// onto real endpoints through a registry shared by every thread's
/// transport.
///
/// The contract matches the simnet backend exactly: sends are
/// fire-and-forget, receives drain at most one decodable frame (sockets
/// carry a short read timeout, so `recv` doubles as the poll pacing of
/// the caller's event loop), and frames from unregistered sources are
/// discarded.
pub struct NetCtl {
    table: AddrTable,
    socks: Vec<UdpSocket>,
}

impl NetCtl {
    /// A transport over `table`, with no endpoints bound yet.
    fn new(table: AddrTable) -> NetCtl {
        NetCtl {
            table,
            socks: Vec::new(),
        }
    }

    fn lookup(&self, addr: CtlAddr) -> Option<SocketAddr> {
        entries(&self.table)
            .iter()
            .find(|(k, _)| *k == (addr.node, addr.port))
            .map(|&(_, real)| real)
    }
}

impl CtlTransport for NetCtl {
    fn bind(&mut self, node: usize, port: u16) -> Result<CtlSock, CruzError> {
        let sock = UdpSocket::bind(("127.0.0.1", 0))
            .map_err(|_| CruzError::Protocol("loopback bind refused"))?;
        sock.set_read_timeout(Some(Duration::from_millis(1)))
            .map_err(|_| CruzError::Protocol("socket read timeout rejected"))?;
        let real = sock
            .local_addr()
            .map_err(|_| CruzError::Protocol("bound socket has no local address"))?;
        let vport = if port == 0 { real.port() } else { port };
        if self.lookup(CtlAddr::new(node, vport)).is_some() {
            return Err(CruzError::Protocol("control port already bound"));
        }
        entries(&self.table).push(((node as u32, vport), real));
        self.socks.push(sock);
        Ok(CtlSock((self.socks.len() - 1) as u64))
    }

    fn send(&mut self, _node: usize, sock: CtlSock, dst: CtlAddr, msg: &CtlMsg, _now: CtlInstant) {
        let Some(real) = self.lookup(dst) else {
            return; // unroutable ≡ lost in flight, by the seam contract
        };
        let Some(s) = self.socks.get(sock.0 as usize) else {
            return;
        };
        // Fire-and-forget by contract; the protocol layers own retry.
        // cruz-lint: allow(swallowed-error)
        let _ = s.send_to(&msg.encode(), real);
    }

    fn recv(&mut self, _node: usize, sock: CtlSock) -> Option<(CtlAddr, CtlMsg)> {
        let s = self.socks.get(sock.0 as usize)?;
        let mut buf = [0u8; 65536];
        loop {
            // Timeout, would-block or refusal all read as "nothing queued".
            let (n, src) = s.recv_from(&mut buf).ok()?;
            let Some(msg) = CtlMsg::decode(&buf[..n]) else {
                continue;
            };
            let from = entries(&self.table)
                .iter()
                .find(|(_, r)| *r == src)
                .map(|&((node, port), _)| CtlAddr { node, port });
            if let Some(from) = from {
                return Some((from, msg));
            }
        }
    }

    fn agent_addr(&self, node: usize) -> CtlAddr {
        CtlAddr::new(node, AGENT_PORT)
    }
}

// ---------------------------------------------------------------------------
// Store service thread.
// ---------------------------------------------------------------------------

/// One unit of work for the store service.
type StoreJob = Box<dyn FnOnce(&ReplicatedStore, &mut DigestCache) + Send>;

/// A handle on the store service: one thread owning the (non-`Send`,
/// `Rc`-backed) shared filesystem, the job's checkpoint store and its
/// page-digest cache, serving every node thread and the coordinator — the
/// net runtime's stand-in for the NFS server of the paper's testbed. The
/// thread exits once every handle is dropped.
#[derive(Clone)]
struct StoreSvc(mpsc::Sender<StoreJob>);

impl StoreSvc {
    /// Spawns the service for `job`, its store opened from `params`.
    fn spawn(
        job: String,
        params: &ClusterParams,
    ) -> Result<(StoreSvc, thread::JoinHandle<()>), ClusterError> {
        let (tx, rx) = mpsc::channel::<StoreJob>();
        let cfg = params.store.clone();
        let handle = thread::Builder::new()
            .name("netrt-store".into())
            .spawn(move || {
                let store = open_store(NetFs::new(), &job, &cfg);
                let mut cache = DigestCache::default();
                while let Ok(f) = rx.recv() {
                    f(&store, &mut cache);
                }
            })
            .map_err(|_| ClusterError::protocol("could not spawn the store-service thread"))?;
        Ok((StoreSvc(tx), handle))
    }

    /// Runs `f` against the store and its page-digest cache on the service
    /// thread, and waits for the result.
    fn call<R: Send + 'static>(
        &self,
        f: impl FnOnce(&ReplicatedStore, &mut DigestCache) -> R + Send + 'static,
    ) -> Result<R, ClusterError> {
        let (tx, rx) = mpsc::channel();
        let job: StoreJob = Box::new(move |store, cache| {
            // A vanished caller is already tearing down, which is not the
            // store's problem. cruz-lint: allow(swallowed-error)
            let _ = tx.send(f(store, cache));
        });
        let died = ClusterError::protocol("store service died");
        self.0
            .send(job)
            .ok()
            .and_then(|()| rx.recv().ok())
            .ok_or(died)
    }
}

// ---------------------------------------------------------------------------
// Node agent threads.
// ---------------------------------------------------------------------------

/// What a node thread reports when it exits.
#[derive(Default)]
struct NodeExit {
    killed: bool,
    workload_finished: bool,
}

/// Everything a node thread starts from (all of it `Send`).
struct NodeTask {
    idx: usize,
    job: String,
    pods: Vec<PodSpec>,
    ctl: NetCtl,
    sock: CtlSock,
    store: StoreSvc,
    kill: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    params: ClusterParams,
}

/// One node of the net runtime: the shared [`Node`], built *inside* its
/// thread because the kernel layers are `Rc`-backed and not `Send`, plus
/// the pods it hosts and its local virtual clock.
struct NetNode {
    t: NodeTask,
    node: Node,
    pods: Vec<PodPlacement>,
    vnow: SimTime,
}

impl NetNode {
    /// Runs this node's kernel in local virtual time until every process
    /// has exited (the workloads of the twin cycle terminate on their
    /// own). Bounded so a runaway guest cannot wedge the thread.
    fn run_workload(&mut self) -> bool {
        let kernel = &mut self.node.kernel;
        for _ in 0..50_000_000u64 {
            if kernel.has_runnable() {
                let out = kernel.run_slice(self.vnow);
                self.vnow += out.elapsed.max(SimDuration::from_nanos(1));
            } else if let Some(t) = kernel.next_timer() {
                self.vnow = t.max(self.vnow);
                kernel.on_tick(self.vnow);
            } else {
                // Pods emit frames (gratuitous ARPs) with nowhere to go on
                // a single-kernel node; drop them like an unplugged cable.
                kernel.take_frames();
                return true;
            }
            kernel.take_frames();
        }
        false
    }

    /// Handles one control frame: pings answer from the node, everything
    /// else goes to the agent, which replies to whoever sent the `Start`.
    fn on_ctl(&mut self, from: CtlAddr, msg: CtlMsg) {
        self.vnow += self.t.params.agent_op_cpu;
        if let CtlMsg::Ping { seq } = msg {
            self.send(from, &CtlMsg::Pong { seq });
            return;
        }
        if matches!(msg, CtlMsg::Start { .. }) {
            self.node.agent_coord_addr = Some(from);
        }
        let acts = self.node.agent.on_ctl(msg, self.vnow);
        self.run(acts);
    }

    fn send(&mut self, to: CtlAddr, msg: &CtlMsg) {
        let (sock, now) = (self.node.agent_sock, self.vnow.into());
        self.t.ctl.send(self.t.idx, sock, to, msg, now);
    }

    /// Maps the agent's actions onto the shared node calls, completing each
    /// step as soon as it finishes. A failed step stays silent: the
    /// coordinator's timeout aborts the operation, as in the simulator.
    fn run(&mut self, acts: Vec<AgentAction>) {
        for act in acts {
            match act {
                AgentAction::DisableComm => self.node.set_comm(&self.pods, false),
                AgentAction::EnableComm => self.node.set_comm(&self.pods, true),
                AgentAction::BeginLocalCheckpoint { epoch } => {
                    if let Ok(next) = self.checkpoint(epoch) {
                        self.run(next);
                    }
                }
                AgentAction::BeginLocalRestore { epoch } => {
                    if let Ok(next) = self.restore(epoch) {
                        self.run(next);
                    }
                }
                AgentAction::ResumePods => {
                    // Resuming a finished pod is a no-op; failure here is
                    // unreachable for live ones.
                    self.node.resume(&self.pods, self.vnow);
                }
                AgentAction::RollBack { .. } => {
                    // The epoch itself is discarded by the coordinator's
                    // abort effect.
                    self.node.roll_back(&self.pods, Vec::new(), self.vnow);
                }
                AgentAction::Send(msg) => {
                    if let Some(to) = self.node.agent_coord_addr {
                        self.send(to, &msg);
                    }
                }
            }
        }
    }

    /// The local checkpoint: capture, prepare each image on the store
    /// service, land them, then report `done`. Under COW capture the node
    /// reports `done` once the snapshots are armed, then drains, lands and
    /// reports `durable`. Returns the agent's next actions.
    fn checkpoint(&mut self, epoch: u64) -> Result<Vec<AgentAction>, ClusterError> {
        let (store, cfg) = (self.t.store.clone(), self.t.params.store.clone());
        let prepare = |name: &str, img: PodImage, dirty: Vec<BTreeSet<u64>>| {
            let (cfg, name) = (cfg.clone(), name.to_owned());
            store.call(move |s, cache| prepare_image(s, &cfg, &name, &img, &dirty, cache))
        };
        let cow = self.t.params.capture == CkptCaptureMode::Cow;
        let puts = if cow {
            self.node.arm(&self.pods, self.vnow).map(|armed| {
                let next = self.node.agent.on_local_done(self.vnow);
                self.run(next);
                drain(armed, prepare).0
            })
        } else {
            self.node.capture(&self.pods, self.vnow, prepare)
        }?;
        let images = puts
            .into_iter()
            .map(|(name, put)| put.map(|p| (name, p)))
            .collect::<Result<Vec<_>, _>>()?;
        store.call(move |s, cache| land_images(s, Some(cache), epoch, images))?;
        Ok(if cow {
            self.node.agent.on_local_durable(self.vnow)
        } else {
            self.node.agent.on_local_done(self.vnow)
        })
    }

    /// Reads every pod image of `epoch` from the store service and brings
    /// the pods up here (the restore path of Fig. 2, over channels instead
    /// of NFS). Returns the agent's next actions.
    fn restore(&mut self, epoch: u64) -> Result<Vec<AgentAction>, ClusterError> {
        let images = self
            .t
            .store
            .call(move |store, _| read_images(store, &store.pods_in_epoch(epoch), epoch))??;
        let (idx, pods) = (self.t.idx, &mut self.pods);
        self.node.restart(images, self.vnow, |r, pod_id| {
            pods.push(PodPlacement {
                name: r.pod.clone(),
                ip: r.image.ip,
                mac_mode: r.image.mac_mode,
                node: idx,
                pod_id: Some(pod_id),
            });
        })?;
        Ok(self.node.agent.on_local_done(self.vnow))
    }
}

/// The body of one node thread: build the node, run its workload to
/// completion, then serve the control endpoint until killed or shut down.
fn node_thread(t: NodeTask) -> NodeExit {
    let mut node = Node::new(t.idx, NetFs::new(), &t.params);
    node.agent_sock = t.sock;
    let mut pods = Vec::new();
    for spec in &t.pods {
        match node.launch_pod(&t.job, spec) {
            Ok(p) => pods.push(p),
            Err(_) => return NodeExit::default(),
        }
    }
    let mut n = NetNode {
        t,
        node,
        pods,
        vnow: SimTime::ZERO,
    };
    let workload_finished = n.run_workload();
    loop {
        let killed = n.t.kill.load(Ordering::Relaxed);
        if killed || n.t.shutdown.load(Ordering::Relaxed) {
            // A kill is fail-stop: the socket drops mid-protocol and the
            // node stops answering.
            return NodeExit {
                killed,
                workload_finished,
            };
        }
        // recv carries a 1 ms read timeout, so this loop paces itself.
        if let Some((from, msg)) = n.t.ctl.recv(n.t.idx, n.node.agent_sock) {
            n.on_ctl(from, msg);
        }
    }
}

// ---------------------------------------------------------------------------
// The runtime.
// ---------------------------------------------------------------------------

/// Outcome of one loopback-UDP cycle (the net twin of
/// [`crate::simrt::CycleReport`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetRuntimeReport {
    /// The committed checkpoint epoch the restore rolled back to.
    pub epoch: u64,
    /// FNV-1a digest over the restored pods' image bytes as read back
    /// from the store — must equal the sim backend's digest for the same
    /// spec.
    pub restored_digest: u64,
    /// The pods restored onto the spare, in digest order.
    pub restored_pods: Vec<String>,
    /// Each store replica's tree digest after the restore
    /// (`ReplicatedStore::tree_digest`), replica 0 first.
    pub replica_digests: Vec<u64>,
    /// Heartbeat probes sent during failure detection.
    pub pings_sent: u64,
    /// Heartbeat replies received during failure detection.
    pub pongs_received: u64,
    /// Nodes the heartbeat pass declared dead (the injected fault set).
    pub failed_nodes: Vec<usize>,
    /// OS threads that exited and were joined at shutdown (node threads
    /// plus the store service) — the no-hung-threads guarantee.
    pub joined_threads: usize,
    /// Node threads that exited through the fail-stop kill flag (the
    /// fault-injection path) rather than graceful shutdown.
    pub killed_threads: usize,
    /// Node threads whose workload ran to completion before serving the
    /// control endpoint.
    pub workloads_finished: usize,
}

/// Everything `run_cycle` spins up and must tear down again.
struct NetCluster {
    clock: NetClock,
    netctl: NetCtl,
    coord_node: usize,
    csock: CtlSock,
    store: StoreSvc,
    store_handle: thread::JoinHandle<()>,
    node_handles: Vec<thread::JoinHandle<NodeExit>>,
    kill: Vec<Arc<AtomicBool>>,
    shutdown: Arc<AtomicBool>,
    pings_sent: u64,
    pongs_received: u64,
}

impl NetCluster {
    /// Joins everything, returning `(threads joined, fail-stop exits,
    /// workloads that ran to completion)`.
    fn teardown(self) -> (usize, usize, usize) {
        self.shutdown.store(true, Ordering::Relaxed);
        let (mut joined, mut killed, mut finished) = (0, 0, 0);
        for h in self.node_handles {
            if let Ok(exit) = h.join() {
                joined += 1;
                killed += usize::from(exit.killed);
                finished += usize::from(exit.workload_finished);
            }
        }
        // The last store handle: the service drains and exits.
        drop(self.store);
        if self.store_handle.join().is_ok() {
            joined += 1;
        }
        (joined, killed, finished)
    }

    /// Sends `msg` from the coordinator endpoint to `node`'s agent.
    fn send(&mut self, node: usize, msg: &CtlMsg) {
        let (dst, now) = (self.netctl.agent_addr(node), self.clock.now());
        self.netctl
            .send(self.coord_node, self.csock, dst, msg, now.into());
    }

    /// The next frame queued on the coordinator endpoint, if any (waits at
    /// most the socket's 1 ms read timeout, which paces the caller's loop).
    fn recv(&mut self) -> Option<(CtlAddr, CtlMsg)> {
        self.netctl.recv(self.coord_node, self.csock)
    }

    /// Sends coordinator output to the agent endpoints it names (agent
    /// index `i` is `targets[i]`).
    fn emit(&mut self, targets: &[usize], msgs: Vec<(usize, CtlMsg)>) {
        for (idx, msg) in msgs {
            if let Some(&node) = targets.get(idx) {
                self.send(node, &msg);
            }
        }
    }
}

/// The loopback-UDP runtime: drives the same checkpoint → fault →
/// recover → restore cycle as [`crate::simrt::SimRuntime`], but over real
/// sockets, real threads and a real clock.
pub struct NetRuntime {
    n: usize,
    params: ClusterParams,
}

/// The whole-cycle wall-clock budget: on expiry the cycle errors out
/// instead of hanging its caller.
const WALL_BUDGET: Duration = Duration::from_secs(30);

impl NetRuntime {
    /// A cluster of `n` node threads (plus a store-service thread and the
    /// caller-side coordinator).
    pub fn new(n: usize, params: ClusterParams) -> NetRuntime {
        NetRuntime { n, params }
    }

    /// Runs the full cycle for `spec`: launch the pods on their node
    /// threads, run the workload to completion, checkpoint over UDP, kill
    /// every hosting node's thread, detect the deaths by heartbeat,
    /// restore the committed epoch onto `spare`, and digest the restored
    /// state. Always joins every thread it spawned before returning.
    ///
    /// # Errors
    ///
    /// [`ClusterError::BadNode`] for out-of-range placements,
    /// [`ClusterError::Protocol`] when sockets are unavailable or a phase
    /// exceeds the wall budget.
    pub fn run_cycle(
        &self,
        spec: &JobSpec,
        spare: usize,
    ) -> Result<NetRuntimeReport, ClusterError> {
        let app_nodes = spec.app_nodes();
        if spare >= self.n {
            return Err(ClusterError::BadNode(spare));
        }
        if let Some(&bad) = app_nodes.iter().find(|&&x| x >= self.n) {
            return Err(ClusterError::BadNode(bad));
        }
        if app_nodes.contains(&spare) {
            return Err(ClusterError::protocol("spare node hosts a pod of the job"));
        }
        let mut cluster = self.launch(spec)?;
        // Whatever fails from here, every thread spawned so far is joined.
        let result = self
            .spawn_nodes(&mut cluster, spec)
            .and_then(|()| self.drive(&mut cluster, spec, &app_nodes, spare));
        let pings_sent = cluster.pings_sent;
        let pongs_received = cluster.pongs_received;
        let (joined, killed, finished) = cluster.teardown();
        let (epoch, restored, failed_nodes) = result?;
        Ok(NetRuntimeReport {
            epoch,
            restored_digest: restored.digest,
            restored_pods: restored.pods,
            replica_digests: restored.replica_digests,
            pings_sent,
            pongs_received,
            failed_nodes,
            joined_threads: joined,
            killed_threads: killed,
            workloads_finished: finished,
        })
    }

    /// Spawns the store service and hands back the cluster's handles.
    fn launch(&self, spec: &JobSpec) -> Result<NetCluster, ClusterError> {
        let (store, store_handle) = StoreSvc::spawn(spec.name.clone(), &self.params)?;
        Ok(NetCluster {
            clock: NetClock::start(),
            netctl: NetCtl::new(Arc::new(Mutex::new(Vec::new()))),
            coord_node: spec.coordinator_node,
            csock: CtlSock(0),
            store,
            store_handle,
            node_handles: Vec::new(),
            kill: Vec::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
            pings_sent: 0,
            pongs_received: 0,
        })
    }

    /// Binds every socket and spawns one thread per node.
    fn spawn_nodes(&self, cluster: &mut NetCluster, spec: &JobSpec) -> Result<(), ClusterError> {
        cluster.csock = cluster.netctl.bind(spec.coordinator_node, COORD_PORT)?;
        for node in 0..self.n {
            // Bound here, before the thread starts, so a `Start` sent while
            // the node still runs its workload waits in the socket buffer.
            let mut ctl = NetCtl::new(cluster.netctl.table.clone());
            let sock = ctl.bind(node, AGENT_PORT)?;
            let kill = Arc::new(AtomicBool::new(false));
            let task = NodeTask {
                idx: node,
                job: spec.name.clone(),
                pods: spec
                    .pods
                    .iter()
                    .filter(|p| p.node == node)
                    .cloned()
                    .collect(),
                ctl,
                sock,
                store: cluster.store.clone(),
                kill: kill.clone(),
                shutdown: cluster.shutdown.clone(),
                params: self.params.clone(),
            };
            let handle = thread::Builder::new()
                .name(format!("netrt-node-{node}"))
                .spawn(move || node_thread(task))
                .map_err(|_| ClusterError::protocol("could not spawn a node thread"))?;
            cluster.kill.push(kill);
            cluster.node_handles.push(handle);
        }
        Ok(())
    }

    /// The coordinator side of the cycle, run on the caller's thread.
    fn drive(
        &self,
        c: &mut NetCluster,
        spec: &JobSpec,
        app_nodes: &[usize],
        spare: usize,
    ) -> Result<(u64, RestoredSet, Vec<usize>), ClusterError> {
        let timeout = self.params.recovery.op_timeout;
        // Phase 1: checkpoint the finished workload. The node threads run
        // their workloads before serving the control endpoint, so the
        // coordinator's `Start` waits for them naturally.
        let opts = CkptOptions {
            timeout: Some(timeout),
            ..CkptOptions::default()
        };
        let (coord, _) = opts.coordinator(&self.params, 1, app_nodes.len());
        self.run_op(c, coord, app_nodes)?;
        // Phase 2: fail-stop every node hosting a pod.
        for &n in app_nodes {
            c.kill[n].store(true, Ordering::Relaxed);
        }
        // Phase 3: heartbeat detection against the wall clock.
        let failed = self.detect_failures(c, app_nodes);
        if failed != app_nodes {
            return Err(ClusterError::protocol("heartbeats missed the kill"));
        }
        // Phase 4: roll back to the last committed epoch on the spare.
        let epoch = c
            .store
            .call(|store, _| store.latest_committed_epoch())?
            .ok_or(ClusterError::protocol("no committed epoch to roll back to"))?;
        let coord = Coordinator::new(OpKind::Restart, ProtocolMode::Blocking, epoch, vec![0])
            .with_timeout(timeout);
        self.run_op(c, coord, &[spare])?;
        // Phase 5: what the restore left in the store.
        let pods: Vec<String> = spec.pods.iter().map(|p| p.name.clone()).collect();
        let restored = c
            .store
            .call(move |store, _| restored_set(store, epoch, &pods))??;
        Ok((epoch, restored, failed))
    }

    /// Runs one coordinated operation against `targets` (agent index `i`
    /// is `targets[i]`), driving the shared [`Coordinator`] state machine
    /// with real datagrams and wall-clock retry/timeout, and applying its
    /// store effects through the store service.
    fn run_op(
        &self,
        c: &mut NetCluster,
        mut coord: Coordinator,
        targets: &[usize],
    ) -> Result<(), ClusterError> {
        let started = c.clock.now();
        let retry = self.params.ctl_retry;
        let mut attempt: u32 = 0;
        let mut next_retry = retry
            .as_ref()
            .and_then(|r| r.delay(attempt))
            .map(|d| started + d);
        let (msgs, effects) = coord.start(started);
        c.emit(targets, msgs);
        self.apply_effects(c, &coord, effects)?;
        loop {
            if coord.is_complete() {
                return Ok(());
            }
            if coord.is_aborted() {
                return Err(ClusterError::protocol("operation aborted"));
            }
            let now = c.clock.now();
            if now > SimTime::from_nanos(WALL_BUDGET.as_nanos() as u64) {
                return Err(ClusterError::protocol("wall budget exhausted"));
            }
            if let Some((from, msg)) = c.recv() {
                if let Some(idx) = targets.iter().position(|&t| t as u32 == from.node) {
                    let (msgs, effects) = coord.on_message(idx, msg, now);
                    self.apply_effects(c, &coord, effects)?;
                    c.emit(targets, msgs);
                }
                continue;
            }
            if coord.deadline().is_some_and(|d| now >= d) {
                let (msgs, effects) = coord.on_timeout(now);
                self.apply_effects(c, &coord, effects)?;
                c.emit(targets, msgs);
                continue;
            }
            if let (Some(pol), Some(at)) = (&retry, next_retry) {
                if now >= at {
                    let msgs = coord.on_retry(now);
                    c.emit(targets, msgs);
                    attempt += 1;
                    next_retry = pol.delay(attempt).map(|d| now + d);
                }
            }
        }
    }

    /// The coordinator's store effects: the shared commit and abort
    /// effects, run on the store service.
    fn apply_effects(
        &self,
        c: &NetCluster,
        coord: &Coordinator,
        effects: Vec<CoordEffect>,
    ) -> Result<(), ClusterError> {
        let (kind, prune) = (coord.kind(), self.params.prune_old_epochs);
        for e in effects {
            match e {
                CoordEffect::Commit { epoch } => {
                    c.store
                        .call(move |store, _| commit_epoch(store, epoch, prune))?;
                }
                CoordEffect::Aborted { epoch } => c.store.call(move |store, cache| {
                    abort_epoch(store, kind, epoch);
                    // An abort may have re-baselined dirty tracking without
                    // a completed prepare: remembered digests are stale.
                    *cache = DigestCache::default();
                })?,
                CoordEffect::Complete { .. } => {}
            }
        }
        Ok(())
    }

    /// Heartbeat failure detection over real sockets: ping every app node
    /// each interval; a node that misses `MISS_ROUNDS` consecutive rounds
    /// is declared dead. Returns the dead set in ascending order.
    fn detect_failures(&self, c: &mut NetCluster, nodes: &[usize]) -> Vec<usize> {
        const MISS_ROUNDS: u32 = 3;
        const MAX_ROUNDS: u64 = 200;
        let interval = self.params.recovery.heartbeat_interval;
        let mut misses = vec![0u32; nodes.len()];
        for seq in 1..=MAX_ROUNDS {
            let deadline = c.clock.now() + interval;
            for &n in nodes {
                c.send(n, &CtlMsg::Ping { seq });
                c.pings_sent += 1;
            }
            let mut ponged: Vec<usize> = Vec::new();
            while c.clock.now() < deadline {
                if let Some((from, CtlMsg::Pong { seq: got })) = c.recv() {
                    c.pongs_received += 1;
                    if got == seq {
                        ponged.push(from.node as usize);
                    }
                }
            }
            for (m, n) in misses.iter_mut().zip(nodes) {
                *m = if ponged.contains(n) { 0 } else { *m + 1 };
            }
            if misses.iter().all(|&m| m >= MISS_ROUNDS) {
                break;
            }
        }
        nodes
            .iter()
            .zip(&misses)
            .filter(|&(_, &m)| m >= MISS_ROUNDS)
            .map(|(&n, _)| n)
            .collect()
    }
}
