//! The twin-runtime property (the runtime-seam acceptance test): the
//! deterministic DES backend and the loopback-UDP backend must restore
//! **byte-identical** images for the same pinned workload.
//!
//! The workload runs to completion before capture on both backends, so
//! its image bytes are independent of *when* the capture happened — the
//! only thing the two backends can legitimately disagree on is timing,
//! and the digest deliberately excludes it.
//!
//! Both backends run the one shared node agent and store code, so the
//! property is swept across the configuration space: capture mode, dedup
//! and replication factor must not open a gap between them, down to the
//! bytes of every store replica's tree.
//!
//! The net-backend tests probe `loopback_available()` first and skip
//! cleanly where the sandbox forbids even `127.0.0.1` sockets.

use cruz_repro::cluster::netrt::loopback_available;
use cruz_repro::cluster::{
    CkptCaptureMode, ClusterParams, JobSpec, NetRuntime, PodSpec, SimRuntime,
};
use cruz_repro::simnet::addr::{IpAddr, MacAddr};
use cruz_repro::workloads::compute::ComputeConfig;
use cruz_repro::zap::image::MacMode;

/// The pinned single-node workload: a short compute pod on node 0,
/// coordinator on node 2, node 1 held as the restore spare.
fn twin_spec() -> JobSpec {
    let cfg = ComputeConfig {
        outer: 40,
        inner: 50,
    };
    JobSpec {
        name: "twin".into(),
        coordinator_node: 2,
        pods: vec![PodSpec {
            name: "p0".into(),
            ip: IpAddr::from_octets([10, 0, 1, 9]),
            mac_mode: MacMode::Dedicated(MacAddr::from_index(3001)),
            node: 0,
            programs: vec![cfg.program()],
        }],
    }
}

#[test]
fn sim_and_net_backends_restore_identical_images() {
    let spec = twin_spec();
    let mut sim = SimRuntime::new(3, ClusterParams::default());
    let sim_rep = sim.run_cycle(&spec, 1).expect("sim cycle completes");
    assert_eq!(sim_rep.restored_pods, vec!["p0".to_string()]);

    if !loopback_available() {
        eprintln!("SKIPPED: loopback UDP unavailable in this environment");
        return;
    }
    let net = NetRuntime::new(3, ClusterParams::default());
    let net_rep = net.run_cycle(&spec, 1).expect("net cycle completes");
    assert_eq!(net_rep.restored_pods, sim_rep.restored_pods);
    assert_eq!(
        net_rep.restored_digest, sim_rep.restored_digest,
        "twin runtimes disagree on restored image bytes"
    );
}

#[test]
fn sim_cycle_is_replayable() {
    let spec = twin_spec();
    let a = SimRuntime::new(3, ClusterParams::default())
        .run_cycle(&spec, 1)
        .expect("first sim cycle");
    let b = SimRuntime::new(3, ClusterParams::default())
        .run_cycle(&spec, 1)
        .expect("second sim cycle");
    assert_eq!(a, b, "the DES backend must replay identically");
}

#[test]
fn net_runtime_shuts_down_cleanly_under_fault() {
    if !loopback_available() {
        eprintln!("SKIPPED: loopback UDP unavailable in this environment");
        return;
    }
    let spec = twin_spec();
    let net = NetRuntime::new(3, ClusterParams::default());
    let rep = net.run_cycle(&spec, 1).expect("net cycle completes");
    // Every OS thread spawned (3 nodes + store service) was joined — no
    // hung threads, and every socket they owned is closed with them.
    assert_eq!(rep.joined_threads, 4, "hung or leaked node threads");
    // Exactly the fault-injected node died fail-stop; the heartbeat pass
    // over real sockets converged on it.
    assert_eq!(rep.killed_threads, 1);
    assert_eq!(rep.failed_nodes, vec![0]);
    assert!(rep.workloads_finished >= 1);
    assert!(rep.pings_sent > 0);
    assert!(rep.pongs_received <= rep.pings_sent);
}

/// `params` with the swept store and capture knobs applied.
fn sweep_params(capture: CkptCaptureMode, dedup: bool, replicas: usize) -> ClusterParams {
    let mut p = ClusterParams {
        capture,
        ..ClusterParams::default()
    };
    p.store.dedup = dedup;
    p.store.replicas = replicas;
    p
}

#[test]
fn twin_sweep_restores_identical_state_in_every_configuration() {
    if !loopback_available() {
        eprintln!("SKIPPED: loopback UDP unavailable in this environment");
        return;
    }
    let spec = twin_spec();
    let mut mismatches = Vec::new();
    for capture in [CkptCaptureMode::StopTheWorld, CkptCaptureMode::Cow] {
        for dedup in [false, true] {
            for k in [1, 3] {
                let p = sweep_params(capture, dedup, k);
                let sim = SimRuntime::new(3, p.clone())
                    .run_cycle(&spec, 1)
                    .expect("sim cycle completes");
                let net = NetRuntime::new(3, p)
                    .run_cycle(&spec, 1)
                    .expect("net cycle completes");
                assert_eq!(sim.replica_digests.len(), k, "one digest per replica");
                if (net.restored_digest, &net.replica_digests)
                    != (sim.restored_digest, &sim.replica_digests)
                {
                    mismatches.push(format!(
                        "{capture:?} dedup={dedup} k={k}: sim {:#x} {:x?} vs net {:#x} {:x?}",
                        sim.restored_digest,
                        sim.replica_digests,
                        net.restored_digest,
                        net.replica_digests
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "twin runtimes diverge:\n{}",
        mismatches.join("\n")
    );
}

/// Two compute pods on two app nodes (0 and 1), spare node 2, coordinator
/// node 3.
fn two_node_spec() -> JobSpec {
    let mut spec = twin_spec();
    spec.name = "twin2".into();
    spec.coordinator_node = 3;
    let cfg = ComputeConfig {
        outer: 30,
        inner: 70,
    };
    spec.pods.push(PodSpec {
        name: "p1".into(),
        ip: IpAddr::from_octets([10, 0, 1, 10]),
        mac_mode: MacMode::Dedicated(MacAddr::from_index(3002)),
        node: 1,
        programs: vec![cfg.program()],
    });
    spec
}

#[test]
fn twin_two_app_nodes_restore_identical_images() {
    if !loopback_available() {
        eprintln!("SKIPPED: loopback UDP unavailable in this environment");
        return;
    }
    let spec = two_node_spec();
    // The two nodes' puts interleave differently on threads than in the
    // event queue, so replica logs may differ; the restored bytes may not.
    for p in [
        ClusterParams::default(),
        sweep_params(CkptCaptureMode::Cow, true, 3),
    ] {
        let sim = SimRuntime::new(4, p.clone())
            .run_cycle(&spec, 2)
            .expect("sim cycle completes");
        let net = NetRuntime::new(4, p)
            .run_cycle(&spec, 2)
            .expect("net cycle completes");
        assert_eq!(sim.restored_pods, vec!["p0".to_string(), "p1".to_string()]);
        assert_eq!(net.restored_pods, sim.restored_pods);
        assert_eq!(net.failed_nodes, vec![0, 1]);
        assert_eq!(
            net.restored_digest, sim.restored_digest,
            "twin runtimes disagree on restored image bytes"
        );
    }
}
