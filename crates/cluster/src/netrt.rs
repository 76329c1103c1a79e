//! The `std::net` backend of the runtime seam: the same protocol engine
//! over real loopback UDP sockets, one OS thread per node, and a wall
//! clock.
//!
//! Where [`crate::simrt::SimRuntime`] drives the coordinator/agent
//! protocol through the deterministic event queue, [`NetRuntime`] runs it
//! the way the paper's testbed did: each node is an OS thread owning its
//! own kernel + Zap instance, control frames are real UDP datagrams on
//! `127.0.0.1`, failure detection is heartbeat pings against the wall
//! clock, and checkpoint images flow over channels to a store-service
//! thread, which puts them into the same chunk store the simulator uses.
//! The pure state machines ([`cruz::coordinator::Coordinator`],
//! [`cruz::agent::Agent`]) are shared with the simulator verbatim — only
//! the carrier differs, which is the whole point of the seam.
//!
//! Timing here is *not* deterministic and is pinned by nothing; what *is*
//! pinned is the restored-image digest: a workload that runs to
//! completion before capture produces image bytes independent of when the
//! capture happened, so [`NetRuntime::run_cycle`] and
//! [`crate::simrt::SimRuntime::run_cycle`] must agree on
//! [`crate::runtime::image_set_digest`] for the same [`JobSpec`]
//! (checked by `tests/twin_runtime.rs` and the `loopback_demo` bench
//! bin).
//!
//! The wall clock enters in exactly one place (`NetClock`); everything
//! else reads time through it, keeping the rest of this module honest
//! about the seam.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use des::{SimDuration, SimTime};
use simnet::addr::MacAddr;
use simnet::NetStack;
use simos::disk::Disk;
use simos::fs::NetFs;
use simos::kernel::Kernel;
use zap::image::PodImage;
use zap::{PodConfig, Zap};

use cruz::agent::{Agent, AgentAction};
use cruz::coordinator::{CoordEffect, Coordinator};
use cruz::error::CruzError;
use cruz::proto::{CtlMsg, OpKind, ProtocolMode, AGENT_PORT, COORD_PORT};
use cruz::replog::ReplicatedStore;
use cruz::store::{PreparedPut, StoreConfig};

use crate::jobs::{JobSpec, PodSpec};
use crate::node::node_ip;
use crate::params::ClusterParams;
use crate::runtime::{image_set_digest, CtlAddr, CtlInstant};
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

fn stuck(what: &'static str) -> ClusterError {
    ClusterError::Protocol(CruzError::Protocol(what))
}

// ---------------------------------------------------------------------------
// The wall clock — the net backend's single source of time.
// ---------------------------------------------------------------------------

/// The net runtime's clock: nanoseconds of real time elapsed since the
/// runtime epoch, read as [`SimTime`] so the shared state machines never
/// know which backend is feeding them.
struct NetClock {
    t0: std::time::Instant,
}

impl NetClock {
    fn start() -> NetClock {
        // The one wall-clock read site of the net backend: every other
        // timestamp derives from this epoch. cruz-lint: allow(wall-clock)
        let t0 = std::time::Instant::now();
        NetClock { t0 }
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.t0.elapsed().as_nanos() as u64)
    }
}

// ---------------------------------------------------------------------------
// Loopback transport: the second CtlTransport backend.
// ---------------------------------------------------------------------------

/// Shared registry mapping engine addresses to real loopback endpoints.
type AddrTable = Arc<Mutex<Vec<((u32, u16), SocketAddr)>>>;

fn table_lookup(table: &AddrTable, addr: CtlAddr) -> Option<SocketAddr> {
    let g = match table.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    g.iter()
        .find(|(k, _)| *k == (addr.node, addr.port))
        .map(|&(_, real)| real)
}

fn table_reverse(table: &AddrTable, real: SocketAddr) -> Option<CtlAddr> {
    let g = match table.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    g.iter()
        .find(|(_, r)| *r == real)
        .map(|&((n, p), _)| CtlAddr { node: n, port: p })
}

fn table_insert(table: &AddrTable, addr: CtlAddr, real: SocketAddr) {
    let mut g = match table.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    g.push(((addr.node, addr.port), real));
}

/// The loopback-UDP backend of [`CtlTransport`]: control frames ride real
/// `std::net::UdpSocket` datagrams on `127.0.0.1`, and [`CtlAddr`]s map
/// onto real endpoints through a registry shared with the node threads.
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
        if table_lookup(&self.table, CtlAddr::new(node, vport)).is_some() {
            return Err(CruzError::Protocol("control port already bound"));
        }
        table_insert(&self.table, CtlAddr::new(node, vport), real);
        self.socks.push(sock);
        Ok(CtlSock((self.socks.len() - 1) as u64))
    }

    fn send(&mut self, _node: usize, sock: CtlSock, dst: CtlAddr, msg: &CtlMsg, _now: CtlInstant) {
        let Some(real) = table_lookup(&self.table, dst) else {
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
            match s.recv_from(&mut buf) {
                Ok((n, src)) => {
                    if let Some(msg) = CtlMsg::decode(&buf[..n]) {
                        if let Some(from) = table_reverse(&self.table, src) {
                            return Some((from, msg));
                        }
                    }
                }
                Err(_) => return None, // timeout, would-block, or refusal
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

enum StoreReq {
    Put {
        pod: String,
        epoch: u64,
        bytes: Vec<u8>,
        /// Page-payload cuts of `bytes` (see
        /// `PodImage::encode_with_page_cuts`).
        cuts: Vec<(usize, usize)>,
    },
    Commit {
        epoch: u64,
    },
    Discard {
        epoch: u64,
    },
    LatestCommitted {
        reply: mpsc::Sender<Option<u64>>,
    },
    Pods {
        epoch: u64,
        reply: mpsc::Sender<Vec<String>>,
    },
    Get {
        pod: String,
        epoch: u64,
        reply: mpsc::Sender<Option<Vec<u8>>>,
    },
    Shutdown,
}

/// Replies best-effort: a vanished requester means the runtime is already
/// tearing down, which is not the store's problem.
fn reply_to<T>(tx: &mpsc::Sender<T>, v: T) {
    // cruz-lint: allow(swallowed-error)
    let _ = tx.send(v);
}

/// The store service: one thread owning the (non-`Send`, `Rc`-backed)
/// shared filesystem and the checkpoint store, serving every node thread
/// and the coordinator over a channel — the net runtime's stand-in for
/// the NFS server of the paper's testbed.
fn store_service(job: String, cfg: StoreConfig, rx: &mpsc::Receiver<StoreReq>) -> u64 {
    let fs = NetFs::new();
    let store = ReplicatedStore::new(fs, &job, 1).with_threads(cfg.threads);
    let mut puts = 0u64;
    while let Ok(req) = rx.recv() {
        match req {
            StoreReq::Put {
                pod,
                epoch,
                bytes,
                cuts,
            } => {
                let prepared = store.prepare_chunked(&bytes, &cuts, &cfg);
                store.put_prepared(&pod, epoch, PreparedPut::Chunked(prepared));
                puts += 1;
            }
            StoreReq::Commit { epoch } => store.commit(epoch),
            StoreReq::Discard { epoch } => store.discard_epoch(epoch),
            StoreReq::LatestCommitted { reply } => {
                reply_to(&reply, store.latest_committed_epoch());
            }
            StoreReq::Pods { epoch, reply } => reply_to(&reply, store.pods_in_epoch(epoch)),
            StoreReq::Get { pod, epoch, reply } => reply_to(&reply, store.get_image(&pod, epoch)),
            StoreReq::Shutdown => break,
        }
    }
    puts
}

// ---------------------------------------------------------------------------
// Node agent threads.
// ---------------------------------------------------------------------------

/// What a node thread reports when it exits.
struct NodeExit {
    killed: bool,
    workload_finished: bool,
}

struct NodeTask {
    node: usize,
    job: String,
    pods: Vec<PodSpec>,
    sock: UdpSocket,
    store: mpsc::Sender<StoreReq>,
    kill: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    params: ClusterParams,
}

/// One node of the net runtime: its own kernel + Zap + agent, mirroring
/// the per-node state a simulated [`crate::world::World`] node carries —
/// constructed *inside* the thread because the kernel layers are
/// `Rc`-backed and not `Send`.
struct NodeHost {
    kernel: Kernel,
    zap: Zap,
    agent: Agent,
    sock: UdpSocket,
    store: mpsc::Sender<StoreReq>,
    pods: Vec<(String, zap::pod::PodId)>,
    coord: Option<SocketAddr>,
    vnow: SimTime,
    op_cpu: SimDuration,
}

impl NodeHost {
    /// Sends a control frame best-effort, matching the transport seam's
    /// fire-and-forget contract. cruz-lint: allow(swallowed-error)
    fn send_best_effort(&self, msg: &CtlMsg, to: SocketAddr) {
        let _ = self.sock.send_to(&msg.encode(), to); // cruz-lint: allow(swallowed-error)
    }

    /// Runs this node's kernel in local virtual time until every process
    /// has exited (the workloads of the twin cycle terminate on their
    /// own). Bounded so a runaway guest cannot wedge the thread.
    fn run_workload(&mut self) -> bool {
        for _ in 0..50_000_000u64 {
            if self.kernel.has_runnable() {
                let out = self.kernel.run_slice(self.vnow);
                self.vnow = self.vnow + out.elapsed.max(SimDuration::from_nanos(1));
            } else if let Some(t) = self.kernel.next_timer() {
                self.vnow = t.max(self.vnow);
                self.kernel.on_tick(self.vnow);
            } else {
                // Pods emit frames (gratuitous ARPs) with nowhere to go on
                // a single-kernel node; drop them like an unplugged cable.
                self.kernel.take_frames();
                return true;
            }
            self.kernel.take_frames();
        }
        false
    }

    fn on_datagram(&mut self, msg: CtlMsg, src: SocketAddr) {
        self.vnow = self.vnow + self.op_cpu;
        match msg {
            CtlMsg::Ping { seq } => self.send_best_effort(&CtlMsg::Pong { seq }, src),
            other => {
                self.coord = Some(src);
                let acts = self.agent.on_ctl(other, self.vnow);
                self.run_actions(acts);
            }
        }
    }

    fn run_actions(&mut self, acts: Vec<AgentAction>) {
        let mut q: VecDeque<AgentAction> = acts.into();
        while let Some(a) = q.pop_front() {
            match a {
                // Comm fencing guards cross-pod traffic during capture; the
                // twin workloads are network-quiet by construction, so the
                // net backend's fence is a no-op (the sim backend models it
                // the same way — a filter flag on the node).
                AgentAction::DisableComm | AgentAction::EnableComm => {}
                AgentAction::BeginLocalCheckpoint { epoch } => {
                    let mut ok = true;
                    for (name, pid) in self.pods.clone() {
                        match self.zap.checkpoint_pod(&mut self.kernel, pid, self.vnow) {
                            Ok(img) => {
                                let (bytes, cuts) = img.encode_with_page_cuts();
                                if self
                                    .store
                                    .send(StoreReq::Put {
                                        pod: name,
                                        epoch,
                                        bytes,
                                        cuts,
                                    })
                                    .is_err()
                                {
                                    ok = false;
                                }
                            }
                            Err(_) => ok = false,
                        }
                    }
                    if ok {
                        let next = self.agent.on_local_done(self.vnow);
                        q.extend(next);
                    }
                    // On failure we stay silent; the coordinator's timeout
                    // aborts the operation, exactly as in the simulator.
                }
                AgentAction::BeginLocalRestore { epoch } => {
                    if self.restore_epoch(epoch) {
                        let next = self.agent.on_local_done(self.vnow);
                        q.extend(next);
                    }
                }
                AgentAction::ResumePods => {
                    for (_, pid) in self.pods.clone() {
                        // Resuming a finished pod is a no-op; failure here
                        // is unreachable for live ones.
                        // cruz-lint: allow(swallowed-error)
                        let _ = self.zap.resume_pod(&mut self.kernel, pid, self.vnow);
                    }
                }
                AgentAction::RollBack { epoch } => {
                    // cruz-lint: allow(swallowed-error)
                    let _ = self.store.send(StoreReq::Discard { epoch });
                    for (_, pid) in self.pods.clone() {
                        // cruz-lint: allow(swallowed-error)
                        let _ = self.zap.resume_pod(&mut self.kernel, pid, self.vnow);
                    }
                }
                AgentAction::Send(msg) => {
                    if let Some(c) = self.coord {
                        self.send_best_effort(&msg, c);
                    }
                }
            }
        }
    }

    /// Fetches every pod image of `epoch` from the store service and
    /// restarts them locally (the restore path of Fig. 2, over channels
    /// instead of NFS). False on any failure — the agent then stays
    /// silent and the coordinator aborts by timeout.
    fn restore_epoch(&mut self, epoch: u64) -> bool {
        let (tx, rx) = mpsc::channel();
        if self
            .store
            .send(StoreReq::Pods { epoch, reply: tx })
            .is_err()
        {
            return false;
        }
        let mut names = match rx.recv() {
            Ok(v) => v,
            Err(_) => return false,
        };
        if names.is_empty() {
            return false;
        }
        names.sort();
        for name in names {
            let (tx, rx) = mpsc::channel();
            if self
                .store
                .send(StoreReq::Get {
                    pod: name.clone(),
                    epoch,
                    reply: tx,
                })
                .is_err()
            {
                return false;
            }
            let bytes = match rx.recv() {
                Ok(Some(b)) => b,
                _ => return false,
            };
            let img = match PodImage::decode(&bytes) {
                Ok(i) => i,
                Err(_) => return false,
            };
            let pid = match self.zap.restart_pod(&mut self.kernel, &img, self.vnow) {
                Ok(p) => p,
                Err(_) => return false,
            };
            self.pods.push((name, pid));
        }
        true
    }
}

/// The body of one node thread: build the node, run its workload to
/// completion, then serve the control endpoint until killed or shut down.
fn node_thread(task: NodeTask) -> NodeExit {
    let NodeTask {
        node,
        job,
        pods,
        sock,
        store,
        kill,
        shutdown,
        params,
    } = task;
    // Mirror the simulated World::new node construction exactly — same
    // MAC/IP derivation, same kernel parameters — and the launch_job pod
    // sequence exactly (same pod names, same spawn order), so a workload
    // run to completion leaves byte-identical state on both backends.
    let net = NetStack::new(
        MacAddr::from_index(node as u32 + 1),
        node_ip(node),
        params.subnet_prefix,
        params.tcp.clone(),
    );
    let mut kernel = Kernel::new(net, NetFs::new(), Disk::new(params.disk), params.kernel);
    let zap = Zap::new();
    zap.install(&mut kernel);
    let mut host = NodeHost {
        kernel,
        zap,
        agent: Agent::new(),
        sock,
        store,
        pods: Vec::new(),
        coord: None,
        vnow: SimTime::ZERO,
        op_cpu: params.agent_op_cpu,
    };
    for p in &pods {
        let pod_id = match host.zap.create_pod(
            &mut host.kernel,
            PodConfig {
                name: format!("{}:{}", job, p.name),
                ip: p.ip,
                mac_mode: p.mac_mode,
            },
        ) {
            Ok(id) => id,
            Err(_) => {
                return NodeExit {
                    killed: false,
                    workload_finished: false,
                }
            }
        };
        for prog in &p.programs {
            if host
                .zap
                .spawn_in_pod(&mut host.kernel, pod_id, prog)
                .is_err()
            {
                return NodeExit {
                    killed: false,
                    workload_finished: false,
                };
            }
        }
        host.pods.push((p.name.clone(), pod_id));
    }
    let workload_finished = host.run_workload();
    let mut buf = [0u8; 65536];
    loop {
        if kill.load(Ordering::Relaxed) {
            // Fail-stop: drop the socket mid-protocol and stop answering.
            return NodeExit {
                killed: true,
                workload_finished,
            };
        }
        if shutdown.load(Ordering::Relaxed) {
            return NodeExit {
                killed: false,
                workload_finished,
            };
        }
        match host.sock.recv_from(&mut buf) {
            Ok((n, src)) => {
                if let Some(msg) = CtlMsg::decode(&buf[..n]) {
                    host.on_datagram(msg, src);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                return NodeExit {
                    killed: false,
                    workload_finished,
                }
            }
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
    csock: CtlSock,
    store_tx: mpsc::Sender<StoreReq>,
    store_handle: thread::JoinHandle<u64>,
    node_handles: Vec<(usize, thread::JoinHandle<NodeExit>)>,
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
        for (_, h) in self.node_handles {
            if let Ok(exit) = h.join() {
                joined += 1;
                if exit.killed {
                    killed += 1;
                }
                if exit.workload_finished {
                    finished += 1;
                }
            }
        }
        // cruz-lint: allow(swallowed-error)
        let _ = self.store_tx.send(StoreReq::Shutdown);
        if self.store_handle.join().is_ok() {
            joined += 1;
        }
        (joined, killed, finished)
    }
}

/// The loopback-UDP runtime: drives the same checkpoint → fault →
/// recover → restore cycle as [`crate::simrt::SimRuntime`], but over real
/// sockets, real threads and a real clock.
pub struct NetRuntime {
    n: usize,
    params: ClusterParams,
    wall_budget: Duration,
}

impl NetRuntime {
    /// A cluster of `n` node threads (plus a store-service thread and the
    /// caller-side coordinator).
    pub fn new(n: usize, params: ClusterParams) -> NetRuntime {
        NetRuntime {
            n,
            params,
            wall_budget: Duration::from_secs(30),
        }
    }

    /// Overrides the whole-cycle wall-clock budget (default 30 s); on
    /// expiry the cycle errors out instead of hanging its caller.
    #[must_use]
    pub fn with_wall_budget(mut self, budget: Duration) -> NetRuntime {
        self.wall_budget = budget;
        self
    }

    /// Runs the full cycle for `spec`: launch the pods on their node
    /// threads, run the workload to completion, checkpoint over UDP, kill
    /// every hosting node's thread, detect the deaths by heartbeat,
    /// restore the committed epoch onto `spare`, and digest the restored
    /// images. Always joins every thread it spawned before returning.
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
        let app_nodes: Vec<usize> = {
            let mut v: Vec<usize> = spec.pods.iter().map(|p| p.node).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        if spare >= self.n {
            return Err(ClusterError::BadNode(spare));
        }
        if let Some(&bad) = app_nodes.iter().find(|&&x| x >= self.n) {
            return Err(ClusterError::BadNode(bad));
        }
        if app_nodes.contains(&spare) {
            return Err(stuck("spare node hosts a pod of the job"));
        }
        let mut cluster = self.launch(spec)?;
        let result = self.drive(&mut cluster, spec, &app_nodes, spare);
        let pings_sent = cluster.pings_sent;
        let pongs_received = cluster.pongs_received;
        let (joined, killed, finished) = cluster.teardown();
        let (epoch, restored_digest, restored_pods, failed_nodes) = result?;
        Ok(NetRuntimeReport {
            epoch,
            restored_digest,
            restored_pods,
            pings_sent,
            pongs_received,
            failed_nodes,
            joined_threads: joined,
            killed_threads: killed,
            workloads_finished: finished,
        })
    }

    /// Binds every socket, spawns the store service and one thread per
    /// node, and hands back the handles.
    fn launch(&self, spec: &JobSpec) -> Result<NetCluster, ClusterError> {
        let table: AddrTable = Arc::new(Mutex::new(Vec::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (store_tx, store_rx) = mpsc::channel();
        let job = spec.name.clone();
        let cfg = self.params.store.clone();
        let store_handle = thread::Builder::new()
            .name("netrt-store".into())
            .spawn(move || store_service(job, cfg, &store_rx))
            .map_err(|_| stuck("could not spawn the store-service thread"))?;
        let mut cluster = NetCluster {
            clock: NetClock::start(),
            netctl: NetCtl::new(table.clone()),
            csock: CtlSock(0),
            store_tx,
            store_handle,
            node_handles: Vec::new(),
            kill: Vec::new(),
            shutdown,
            pings_sent: 0,
            pongs_received: 0,
        };
        cluster.csock = cluster
            .netctl
            .bind(spec.coordinator_node, COORD_PORT)
            .map_err(ClusterError::Protocol)?;
        for node in 0..self.n {
            let sock = UdpSocket::bind(("127.0.0.1", 0))
                .map_err(|_| stuck("loopback bind refused for a node endpoint"))?;
            sock.set_read_timeout(Some(Duration::from_millis(2)))
                .map_err(|_| stuck("socket read timeout rejected"))?;
            let real = sock
                .local_addr()
                .map_err(|_| stuck("bound socket has no local address"))?;
            table_insert(&table, CtlAddr::new(node, AGENT_PORT), real);
            let kill = Arc::new(AtomicBool::new(false));
            let task = NodeTask {
                node,
                job: spec.name.clone(),
                pods: spec
                    .pods
                    .iter()
                    .filter(|p| p.node == node)
                    .cloned()
                    .collect(),
                sock,
                store: cluster.store_tx.clone(),
                kill: kill.clone(),
                shutdown: cluster.shutdown.clone(),
                params: self.params.clone(),
            };
            let handle = thread::Builder::new()
                .name(format!("netrt-node-{node}"))
                .spawn(move || node_thread(task))
                .map_err(|_| stuck("could not spawn a node thread"))?;
            cluster.kill.push(kill);
            cluster.node_handles.push((node, handle));
        }
        Ok(cluster)
    }

    /// The coordinator side of the cycle, run on the caller's thread.
    #[allow(clippy::type_complexity)]
    fn drive(
        &self,
        c: &mut NetCluster,
        spec: &JobSpec,
        app_nodes: &[usize],
        spare: usize,
    ) -> Result<(u64, u64, Vec<String>, Vec<usize>), ClusterError> {
        // Phase 1: blocking checkpoint of the finished workload. The node
        // threads run their workloads before serving the control endpoint,
        // so the coordinator's (retried) Start waits for them naturally.
        let ckpt_epoch = 1;
        self.run_op(c, spec, OpKind::Checkpoint, ckpt_epoch, app_nodes)?;
        // Phase 2: fail-stop every node hosting a pod.
        for &n in app_nodes {
            c.kill[n].store(true, Ordering::Relaxed);
        }
        // Phase 3: heartbeat detection against the wall clock.
        let failed = self.detect_failures(c, spec, app_nodes);
        if failed != app_nodes {
            return Err(stuck("heartbeat pass did not converge on the killed nodes"));
        }
        // Phase 4: roll back to the last committed epoch on the spare.
        let (tx, rx) = mpsc::channel();
        if c.store_tx
            .send(StoreReq::LatestCommitted { reply: tx })
            .is_err()
        {
            return Err(stuck("store service died"));
        }
        let epoch = match rx.recv() {
            Ok(Some(e)) => e,
            _ => return Err(stuck("no committed epoch to roll back to")),
        };
        self.run_op(c, spec, OpKind::Restart, epoch, &[spare])?;
        // Phase 5: digest the restored images straight from the store.
        let (tx, rx) = mpsc::channel();
        if c.store_tx
            .send(StoreReq::Pods { epoch, reply: tx })
            .is_err()
        {
            return Err(stuck("store service died"));
        }
        let mut pods = match rx.recv() {
            Ok(v) => v,
            Err(_) => return Err(stuck("store service died")),
        };
        pods.sort();
        let mut pairs: Vec<(String, Vec<u8>)> = Vec::with_capacity(pods.len());
        for p in pods {
            let (tx, rx) = mpsc::channel();
            if c.store_tx
                .send(StoreReq::Get {
                    pod: p.clone(),
                    epoch,
                    reply: tx,
                })
                .is_err()
            {
                return Err(stuck("store service died"));
            }
            match rx.recv() {
                Ok(Some(bytes)) => pairs.push((p, bytes)),
                _ => return Err(stuck("restored pod image missing from the store")),
            }
        }
        Ok((
            epoch,
            image_set_digest(&pairs),
            pairs.into_iter().map(|(p, _)| p).collect(),
            failed,
        ))
    }

    /// Runs one coordinated operation against `targets` (agent index `i`
    /// is `targets[i]`), driving the shared [`Coordinator`] state machine
    /// with real datagrams and wall-clock retry/timeout.
    fn run_op(
        &self,
        c: &mut NetCluster,
        spec: &JobSpec,
        kind: OpKind,
        epoch: u64,
        targets: &[usize],
    ) -> Result<(), ClusterError> {
        let started = c.clock.now();
        let timeout = self.params.recovery.op_timeout;
        let mut coord = Coordinator::new(
            kind,
            ProtocolMode::Blocking,
            epoch,
            (0..targets.len()).collect(),
        )
        .with_timeout(timeout);
        let retry = self.params.ctl_retry.clone();
        let mut attempt: u32 = 0;
        let mut next_retry = retry
            .as_ref()
            .and_then(|r| r.delay(attempt))
            .map(|d| started + d);
        let (msgs, effects) = coord.start(started);
        self.emit(c, spec, targets, msgs);
        self.apply_effects(c, effects)?;
        loop {
            if coord.is_complete() {
                return Ok(());
            }
            if coord.is_aborted() {
                return Err(stuck("operation aborted"));
            }
            let now = c.clock.now();
            if now.duration_since(SimTime::ZERO)
                > SimDuration::from_nanos(self.wall_budget.as_nanos() as u64)
            {
                return Err(stuck("wall budget exhausted mid-operation"));
            }
            // recv carries a 1 ms read timeout, so this loop paces itself.
            if let Some((from, msg)) = c.netctl.recv(spec.coordinator_node, c.csock) {
                if let Some(idx) = targets.iter().position(|&t| t as u32 == from.node) {
                    let (msgs, effects) = coord.on_message(idx, msg, now);
                    self.apply_effects(c, effects)?;
                    self.emit(c, spec, targets, msgs);
                }
                continue;
            }
            if let Some(d) = coord.deadline() {
                if now >= d {
                    let (msgs, effects) = coord.on_timeout(now);
                    self.apply_effects(c, effects)?;
                    self.emit(c, spec, targets, msgs);
                    continue;
                }
            }
            if let (Some(pol), Some(at)) = (&retry, next_retry) {
                if now >= at {
                    let msgs = coord.on_retry(now);
                    self.emit(c, spec, targets, msgs);
                    attempt += 1;
                    next_retry = pol.delay(attempt).map(|d| now + d);
                }
            }
        }
    }

    /// Sends coordinator output to the agent endpoints it names.
    fn emit(
        &self,
        c: &mut NetCluster,
        spec: &JobSpec,
        targets: &[usize],
        msgs: Vec<(usize, CtlMsg)>,
    ) {
        let now = c.clock.now();
        for (idx, msg) in msgs {
            let Some(&node) = targets.get(idx) else {
                continue;
            };
            let dst = c.netctl.agent_addr(node);
            c.netctl
                .send(spec.coordinator_node, c.csock, dst, &msg, now.into());
        }
    }

    fn apply_effects(
        &self,
        c: &mut NetCluster,
        effects: Vec<CoordEffect>,
    ) -> Result<(), ClusterError> {
        for e in effects {
            match e {
                CoordEffect::Commit { epoch } => {
                    if c.store_tx.send(StoreReq::Commit { epoch }).is_err() {
                        return Err(stuck("store service died"));
                    }
                }
                CoordEffect::Complete { .. } | CoordEffect::Aborted { .. } => {}
            }
        }
        Ok(())
    }

    /// Heartbeat failure detection over real sockets: ping every app node
    /// each interval; a node that misses `MISS_ROUNDS` consecutive rounds
    /// is declared dead. Returns the dead set in ascending order.
    fn detect_failures(&self, c: &mut NetCluster, spec: &JobSpec, nodes: &[usize]) -> Vec<usize> {
        const MISS_ROUNDS: u32 = 3;
        const MAX_ROUNDS: u32 = 200;
        let interval = self.params.recovery.heartbeat_interval;
        let mut misses: BTreeMap<usize, u32> = nodes.iter().map(|&n| (n, 0)).collect();
        let mut seq: u64 = 0;
        for _ in 0..MAX_ROUNDS {
            seq += 1;
            let sent = c.clock.now();
            for &n in nodes {
                let dst = c.netctl.agent_addr(n);
                c.netctl.send(
                    spec.coordinator_node,
                    c.csock,
                    dst,
                    &CtlMsg::Ping { seq },
                    sent.into(),
                );
                c.pings_sent += 1;
            }
            let deadline = sent + interval;
            let mut ponged: Vec<usize> = Vec::new();
            while c.clock.now() < deadline {
                if let Some((from, CtlMsg::Pong { seq: got })) =
                    c.netctl.recv(spec.coordinator_node, c.csock)
                {
                    c.pongs_received += 1;
                    if got == seq {
                        ponged.push(from.node as usize);
                    }
                }
            }
            for &n in nodes {
                let m = misses.entry(n).or_insert(0);
                if ponged.contains(&n) {
                    *m = 0;
                } else {
                    *m += 1;
                }
            }
            if misses.values().all(|&m| m >= MISS_ROUNDS) {
                break;
            }
        }
        misses
            .into_iter()
            .filter(|&(_, m)| m >= MISS_ROUNDS)
            .map(|(n, _)| n)
            .collect()
    }
}
