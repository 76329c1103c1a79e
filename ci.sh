#!/bin/sh
# The full gate, in fail-fast order: cheap checks first.
#
#   1. rustfmt          — formatting drift
#   2. cruz-lint        — the determinism/architecture auditor: token
#                         rules, layer graph, wire registry (DESIGN.md
#                         §14); also emits lint-report.json for tooling
#   3. release build    — the whole workspace compiles
#   4. cluster docs     — `cargo doc -p cluster` stays warning-free
#                         (the layered-engine seams are documented API)
#   5. tests            — every suite, including the same-seed
#                         byte-identical-images regression test, then
#                         the perfbench package's own suite (it builds
#                         against the crates' public API, so an API
#                         change that breaks the benchmark fails here)
#   6. examples smoke   — all four examples run to completion (each
#                         asserts its own story, so a broken one fails)
#   7. bench smoke      — `--quick` runs of the store-ablation,
#                         Fig 5(a), COW-downtime and recovery binaries
#                         (their asserts are the check)
#   8. hotpath smoke    — ref/opt micro-bench pairs must agree
#                         byte-for-byte, hit the speedup floors, and the
#                         image digests pinned in the cow/recovery JSON
#                         must be untouched by the optimization pass
#   9. parallel smoke   — pooled capture/restore at threads 1/2/4/8 must
#                         produce byte-identical manifests, store files
#                         and restored images (the serial path is the
#                         oracle), and the pinned image digests must
#                         survive the pool too
#  10. replication smoke— kill k-1 of k replica stores mid-checkpoint;
#                         the job must heal with byte-identical rollback
#                         images and write amplification tracking k, and
#                         the rewritten BENCH_replication.json must match
#                         the committed one byte for byte
#  11. chaos smoke      — replays three pinned fault-plan seeds and
#                         demands byte-identical event traces, then the
#                         same for three pinned replica-kill plans at k=3
#  12. loopback smoke   — the twin-runtime demo: the full checkpoint →
#                         kill-node → recover → restore cycle over real
#                         loopback UDP sockets must restore the exact
#                         bytes the simulated run pins (the bin prints
#                         SKIPPED and exits 0 where the sandbox forbids
#                         even 127.0.0.1 sockets)
#
# Everything runs offline: the only dependencies are the vendored stubs
# under vendor/ (see DESIGN.md, "Offline builds").
set -eu

cd "$(dirname "$0")"

echo "== no build artifacts tracked"
if git ls-files -- 'target/' '*/target/' | grep -q .; then
    echo "error: target/ build artifacts are tracked by git:" >&2
    git ls-files -- 'target/' '*/target/' | head >&2
    exit 1
fi

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cruz-lint --workspace"
# Machine report first (written even when findings exist), then the
# human-readable run, which is the actual gate.
cargo run --offline -q -p cruz-lint -- --workspace --json > lint-report.json || true
cargo run --offline -q -p cruz-lint -- --workspace

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== cargo doc -p cluster"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -q -p cluster

echo "== cargo test"
cargo test --offline --workspace -q
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== examples smoke"
for example in quickstart maintenance_migration fault_tolerance grid_suspend_resume; do
    cargo run --offline -q --release --example "$example"
done

echo "== bench smoke (--quick)"
cargo run --offline -q --release -p bench --bin store_dedup -- --quick
cargo run --offline -q --release -p bench --bin fig5a -- --quick
cargo run --offline -q --release -p bench --bin cow_downtime -- --quick
cargo run --offline -q --release -p bench --bin recovery -- --quick

echo "== hotpath smoke (--quick)"
# Runs after cow_downtime/recovery so their JSON (with the pinned image
# digests) is fresh; bench_hotpath re-checks those digests and writes
# BENCH_hotpath.json.
cargo run --offline -q --release -p bench --bin bench_hotpath -- --quick

echo "== parallel smoke (--quick)"
# Byte-identity across pool widths is asserted unconditionally; the
# throughput floor only gates on hosts with >=4 CPUs (recorded in
# BENCH_parallel.json as host_cpus either way).
cargo run --offline -q --release -p bench --bin bench_parallel -- --quick

echo "== replication smoke (--quick)"
cargo run --offline -q --release -p bench --bin bench_replication -- --quick
# Every figure in BENCH_replication.json is modelled (sim time, byte
# counts, digests), so a re-run must rewrite it byte-identically: a
# change to the replicated store's bytes cannot pass silently.
git diff --exit-code -- BENCH_replication.json

echo "== chaos smoke (pinned fault-plan replay)"
cargo run --offline -q --release -p bench --bin chaos
cargo run --offline -q --release -p bench --bin bench_replication -- --chaos

echo "== loopback smoke (real-socket twin-runtime demo)"
# The NetRuntime caps each cycle with a 30 s wall budget of its own, so
# a wedged socket path fails the stage instead of hanging it. The bin
# skips cleanly (exit 0) when loopback sockets are unavailable.
cargo run --offline -q --release -p bench --bin loopback_demo

echo "ci: all green"
