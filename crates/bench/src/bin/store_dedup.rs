//! The dedup-store ablation table: bytes written per checkpoint epoch,
//! checkpoint latency and restart cost of the slm ring under the plain,
//! dedup and dedup+compress disk-charge models of the chunk store.
//!
//! `--quick` runs a reduced sweep (smaller state, fewer epochs) as a CI
//! smoke test.

use bench::dedup::run_dedup_sweep;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (ranks, state_bytes, checkpoints) = if quick {
        (2usize, 1024 * 1024u64, 3usize)
    } else {
        (2usize, 8 * 1024 * 1024u64, 4usize)
    };
    println!(
        "# Store ablation: slm ring, {ranks} ranks x {} MiB state, {checkpoints} epochs ~100 ms apart",
        state_bytes / (1024 * 1024)
    );
    println!(
        "{:>9} {:>12} {:>13} {:>11} {:>12} {:>13} {:>12}",
        "store",
        "first_MiB",
        "steady_KiB",
        "first_lat_s",
        "steady_lat_s",
        "restart_MiB",
        "restart_s"
    );
    let rows = run_dedup_sweep(ranks, state_bytes, checkpoints);
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    for r in &rows {
        println!(
            "{:>9} {:>12.2} {:>13.1} {:>11.3} {:>12.3} {:>13.2} {:>12.3}",
            r.label,
            mib(r.first_epoch_bytes),
            r.steady_epoch_bytes as f64 / 1024.0,
            r.first_latency.as_secs_f64(),
            r.steady_latency.as_secs_f64(),
            mib(r.restart_bytes),
            r.restart_latency.as_secs_f64(),
        );
        assert!(r.progressed, "{}: job stalled after restart", r.label);
    }
    let plain = &rows[0];
    for r in &rows[1..] {
        assert_eq!(
            r.image_digest, plain.image_digest,
            "{}: restored images diverge from plain",
            r.label
        );
    }
    let ratio = plain.steady_epoch_bytes as f64 / rows[2].steady_epoch_bytes.max(1) as f64;
    println!("# dedup+lz steady-state write reduction vs plain: {ratio:.1}x");
    println!("# restored images byte-identical across all variants");
}
