//! CI chaos smoke: replay fault-plan seeds and demand byte-identical event
//! traces.
//!
//! Each `(world_seed, plan_seed)` pair drives the full chaos scenario
//! twice — clean baseline checkpoint, a random [`FaultPlan`] round-tripped
//! through its wire encoding, periodic checkpoints under crashes/disk
//! faults/frame faults — and the two runs must produce the same trace
//! digest and event count. The underlying harness additionally asserts
//! the world quiesces and the chunk pool leaks no orphans.
//!
//! With no arguments it replays the pinned pairs. `--sweep N [--from S]`
//! instead replays `N` unpinned pairs, world seeds `S..S+N` (default
//! `S = 0`), each with a plan seed derived from its world seed, and names
//! the first pair that diverges or panics. A pair that fails gets a fix
//! and joins `PINNED`.
//!
//! [`FaultPlan`]: cluster::FaultPlan

use std::panic;
use std::process::ExitCode;

use bench::recovery::replay_fingerprints;

const PINNED: [(u64, u64); 3] = [(1, 7), (2, 19), (9, 104)];

/// The plan seed swept alongside world seed `s` (SplitMix64 of `s`, so
/// neighbouring world seeds get unrelated plans).
fn plan_seed(s: u64) -> u64 {
    let mut z = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The value following `flag` on the command line, if any.
fn arg(args: &[String], flag: &str) -> Option<u64> {
    let at = args.iter().position(|a| a == flag)?;
    match args.get(at + 1).and_then(|v| v.parse().ok()) {
        Some(v) => Some(v),
        None => panic!("{flag} needs a non-negative integer"),
    }
}

fn pinned() {
    println!(
        "# chaos replay smoke: {} pinned fault-plan seeds",
        PINNED.len()
    );
    println!(
        "{:>11} {:>10} {:>20} {:>12}",
        "world_seed", "plan_seed", "trace_digest", "events"
    );
    for (world_seed, plan_seed) in PINNED {
        let (a, b) = replay_fingerprints(world_seed, plan_seed);
        assert_eq!(
            a, b,
            "replay of plan seed {plan_seed} (world {world_seed}) diverged"
        );
        println!(
            "{:>11} {:>10} {:>#20x} {:>12}",
            world_seed, plan_seed, a.0, a.1
        );
    }
    println!("# all pinned plans replay byte-for-byte");
}

fn sweep(n: u64, from: u64) -> ExitCode {
    println!(
        "# chaos sweep: {n} unpinned fault-plan seeds, world seeds {from}..{}",
        from + n
    );
    for world_seed in from..from + n {
        let plan = plan_seed(world_seed);
        match panic::catch_unwind(|| replay_fingerprints(world_seed, plan)) {
            Ok((a, b)) if a == b => {}
            Ok(_) => {
                println!("# first failing pair: world {world_seed} plan {plan} (replay diverged)");
                return ExitCode::FAILURE;
            }
            Err(_) => {
                println!("# first failing pair: world {world_seed} plan {plan} (panicked)");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("# all {n} swept plans replay byte-for-byte");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match arg(&args, "--sweep") {
        Some(n) => sweep(n, arg(&args, "--from").unwrap_or(0)),
        None => {
            pinned();
            ExitCode::SUCCESS
        }
    }
}
