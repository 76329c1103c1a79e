//! The benchmark's own checks, at reduced size: every workload's outputs
//! pass, its modelled figures repeat bit for bit within a process and
//! across processes, and the seed reaches only the generated inputs.

use std::process::Command;

use perfbench::spans::Recorder;
use perfbench::workload::{run_rep, Model, Rep};
use perfbench::{Scale, Workload};

fn rep(wl: Workload, seed: u64) -> Rep {
    let r = run_rep(wl, Scale::Small, seed, &mut Recorder::new(false), None);
    assert_eq!(
        r.failed,
        0,
        "{}: {} of {} failed",
        wl.name(),
        r.failed,
        r.attempted
    );
    assert!(r.attempted > 0);
    r
}

#[test]
fn every_workload_passes_its_checks_and_repeats_its_model() {
    for wl in Workload::ALL {
        let a = rep(wl, 1);
        let b = rep(wl, 1);
        assert_eq!(
            a.model,
            b.model,
            "{}: same seed, different model",
            wl.name()
        );
        assert!(!a.ckpt_wall_ms.is_empty() && !a.restore_wall_ms.is_empty());
        assert!(
            !a.model.outputs.is_empty(),
            "{}: nothing checked",
            wl.name()
        );
    }
}

/// The model with the fields the seed is allowed to reach zeroed out.
fn seed_free(m: &Model) -> Model {
    Model {
        outputs: Vec::new(),
        trace_digest: 0,
        ..m.clone()
    }
}

#[test]
fn a_second_seed_changes_only_the_generated_inputs() {
    // No seeded input: the seed reaches nothing.
    for wl in [Workload::SlmSteady, Workload::TcpStream] {
        assert_eq!(rep(wl, 1).model, rep(wl, 2).model, "{}", wl.name());
    }
    // Seeded churn bytes: the restored state (its digests) changes, while
    // incompressible bytes of any seed cost the same to move and store.
    let (a, b) = (
        rep(Workload::ChurnRestore, 1),
        rep(Workload::ChurnRestore, 2),
    );
    assert_ne!(a.model.outputs, b.model.outputs);
    assert_eq!(seed_free(&a.model), seed_free(&b.model));
    // Seeded working set: the exit code the host computes changes with it.
    let (a, b) = (
        rep(Workload::GuestCompute, 1),
        rep(Workload::GuestCompute, 3),
    );
    assert_ne!(a.model.outputs, b.model.outputs);
}

fn header(wl: Workload) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", wl.name(), "--seed", "5", "--seconds", "0"])
        .args(["--trace", "0", "--small"])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{}: exit {:?}", wl.name(), out.status);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    let first = stdout.lines().next().unwrap_or_default();
    first
        .split_whitespace()
        .find(|w| w.starts_with("model_digest="))
        .expect("header names the model digest")
        .to_owned()
}

#[test]
fn the_model_repeats_across_processes() {
    for wl in [Workload::GuestCompute, Workload::ChurnRestore] {
        assert_eq!(header(wl), header(wl), "{}", wl.name());
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2", "--workload", "tcp_stream"][..],
        &["--seed"][..],
        &[][..],
    ] {
        let st = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(st.status.code(), Some(2), "{args:?}");
        assert!(st.stdout.is_empty(), "{args:?} printed a result");
    }
}
