//! The two measurement modes and the all-workload summary.
//!
//! * [`end_to_end`] repeats a workload until the wall budget is spent and
//!   reports medians over repetitions (set-up, timed phase) and over ops
//!   (checkpoint and restart walls), plus the modelled figures.
//! * [`per_layer`] runs traced repetitions, then one repetition whose
//!   committed images are replayed layer by layer, then the bare guest and
//!   TCP measurements, and writes the spans.

use std::process::Command;

use crate::layers::{self, mb_per_s, Replayer};
use crate::spans::{now, Recorder};
use crate::stats::{median, median_u64, metrics_array, table, tail, Metric, MIB};
use crate::workload::{self, run_rep, Rep, Scale, Workload, STORE_THREADS};
use crate::{host_cpus, out_dir, peak_rss_mib, reset_peak_rss, Args};

/// Fewest repetitions behind an end-to-end median.
const MIN_REPS: usize = 3;
/// Fewest traced repetitions behind a per-layer median.
const MIN_TRACED: usize = 2;

/// What one measurement produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every op committed, every output check passed, the modelled
    /// figures repeated exactly, and every replay round-tripped.
    pub correct: bool,
    /// Ops and output checks attempted.
    pub attempted: u64,
    /// Failed ops and output checks.
    pub failed: u64,
    /// The metrics the result line carries.
    pub metrics: Vec<Metric>,
    /// Everything reported (a superset of `metrics`).
    pub report: Vec<Metric>,
    /// Repetitions run.
    pub reps: usize,
    /// Simulated length of the timed phase, ms.
    pub sim_length_ms: f64,
    /// [`workload::Model::digest`] of the first repetition.
    pub model_digest: u64,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// A wrong output carries no numbers.
    pub fn result_line(&self) -> String {
        let metrics = if self.correct {
            crate::stats::metrics_object(&self.metrics)
        } else {
            "{}".to_owned()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct, self.attempted, self.failed, metrics
        )
    }

    /// The JSON report written next to the traces.
    pub fn report_json(&self, wl: Workload, seed: u64, scale: Scale, trace: bool) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"scale\": \"{:?}\", \"trace\": {}, \
             \"host_cpus\": {}, \"store_threads\": {}, \"reps\": {}, \"sim_length_ms\": {}, \
             \"model_digest\": \"{:#018x}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {}}}\n",
            wl.name(),
            seed,
            scale,
            trace,
            host_cpus(),
            STORE_THREADS,
            self.reps,
            self.sim_length_ms,
            self.model_digest,
            self.correct,
            self.attempted,
            self.failed,
            metrics_array(&self.report)
        )
    }

    /// The human-readable header and table printed before the result line.
    pub fn describe(&self, wl: Workload, seed: u64) -> String {
        format!(
            "# perfbench {} seed={} host_cpus={} store_threads={} reps={} sim_length_ms={} \
             model_digest={:#018x} correct={} attempted={} failed={}\n{}",
            wl.name(),
            seed,
            host_cpus(),
            STORE_THREADS,
            self.reps,
            self.sim_length_ms,
            self.model_digest,
            self.correct,
            self.attempted,
            self.failed,
            table(&self.report)
        )
    }
}

/// Repeats `wl` until `seconds` of wall time are spent (at least
/// [`MIN_REPS`] times) and reports the end-to-end metrics.
pub fn end_to_end(wl: Workload, scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let start = now();
    let mut rec = Recorder::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let mut peaks = Vec::new();
    while reps.len() < MIN_REPS || fits(start, reps.len(), seconds) {
        let reset = reset_peak_rss();
        let r = run_rep(wl, scale, seed, &mut rec, None);
        if reset {
            peaks.push(peak_rss_mib());
        }
        eprintln!(
            "# rep {}: setup {:.4} s, run {:.4} s, peak {:.1} MiB, {} ops, {} failed",
            reps.len(),
            r.setup_s,
            r.run_wall_s,
            peak_rss_mib(),
            r.ckpt_wall_ms.len() + r.restore_wall_ms.len(),
            r.failed
        );
        reps.push(r);
    }
    let m = &reps[0].model;
    let same = reps.iter().all(|r| r.model == *m);
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let ckpts: Vec<f64> = reps.iter().flat_map(|r| r.ckpt_wall_ms.clone()).collect();
    let restores: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.restore_wall_ms.clone())
        .collect();
    let n = reps.len();
    let metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            n,
        ),
        Metric::new(
            "run_wall_s",
            "s",
            median(&reps.iter().map(|r| r.run_wall_s).collect::<Vec<_>>()),
            n,
        ),
        Metric::new("ckpt_wall_ms", "ms", median(&ckpts), ckpts.len()),
        Metric::new("restore_wall_ms", "ms", median(&restores), restores.len()),
        // Per-repetition peaks where the kernel lets the peak be reset,
        // else the process's peak over all repetitions.
        if peaks.is_empty() {
            Metric::new("peak_rss_mib", "MiB", peak_rss_mib(), 1)
        } else {
            Metric::new("peak_rss_mib", "MiB", median(&peaks), peaks.len())
        },
    ];
    let ms = |v: &[u64]| median_u64(v) / 1e6;
    let mut report = metrics.clone();
    for (name, xs) in [("ckpt_wall_ms", &ckpts), ("restore_wall_ms", &restores)] {
        if let Some((pct, v)) = tail(xs) {
            report.push(Metric::new(format!("{name}.p{pct}"), "ms", v, xs.len()));
        }
    }
    report.extend([
        Metric::new(
            "ops_failed_ratio",
            "ratio",
            failed as f64 / attempted.max(1) as f64,
            attempted as usize,
        ),
        Metric::new(
            "sim_ckpt_latency_ms",
            "ms",
            ms(&m.ckpt_latency_ns),
            m.ckpt_latency_ns.len(),
        ),
        Metric::new(
            "sim_coord_overhead_us",
            "us",
            median_u64(&m.coord_overhead_ns) / 1e3,
            m.coord_overhead_ns.len(),
        ),
        Metric::new(
            "sim_restart_latency_ms",
            "ms",
            ms(&m.restart_latency_ns),
            m.restart_latency_ns.len(),
        ),
        Metric::new("sim_freeze_ms", "ms", ms(&m.freeze_ns), m.freeze_ns.len()),
        Metric::new(
            "disk_mib_per_ckpt",
            "MiB",
            median_u64(&m.disk_bytes_per_ckpt) / MIB,
            m.disk_bytes_per_ckpt.len(),
        ),
    ]);
    if wl == Workload::TcpStream {
        report.extend([
            Metric::new(
                "stream_goodput_mbps",
                "Mb/s",
                m.stream_goodput_bps as f64 / 1e6,
                1,
            ),
            Metric::new(
                "stream_recovery_ms",
                "ms",
                m.stream_recovery_ns as f64 / 1e6,
                1,
            ),
        ]);
    }
    Outcome {
        correct: same && failed == 0,
        attempted,
        failed,
        metrics,
        report,
        reps: n,
        sim_length_ms: m.sim_ns as f64 / 1e6,
        model_digest: m.digest(),
    }
}

/// True if one more repetition, at the mean pace so far, still ends
/// within `seconds` of `start`.
fn fits(start: std::time::Instant, done: usize, seconds: f64) -> bool {
    let spent = start.elapsed().as_secs_f64();
    spent + spent / done.max(1) as f64 <= seconds
}

/// The traced run: traced repetitions (spent on about half the budget),
/// the layer replay, and the bare guest and TCP layers. Writes the spans
/// as JSON Lines and Chrome trace JSON under [`out_dir`].
pub fn per_layer(wl: Workload, scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let start = now();
    let mut rec = Recorder::new(true);
    let mut traced = Vec::new();
    while traced.len() < MIN_TRACED || fits(start, traced.len(), seconds / 2.0) {
        rec.set_run(traced.len() as u32);
        traced.push(run_rep(wl, scale, seed, &mut rec, None));
    }
    let spans_per_rep = rec.spans().len() as f64 / traced.len() as f64;
    let mut replay = Replayer::new(&workload::store_config(wl));
    rec.set_run(traced.len() as u32);
    let replayed = run_rep(wl, scale, seed, &mut rec, Some(&mut replay));

    // Bare guest loops and TCP pair.
    let (alu, alu_sys, mem, mem_sys) = workload::guest_loops(seed);
    rec.open("simcpu.alu_loop");
    let (insts, ns_inst) = layers::ns_per(3, || layers::bare_run(&alu, alu_sys));
    rec.close();
    rec.open("simos.memory_loop");
    let (_, ns_store) = layers::ns_per(3, || layers::bare_run(&mem, mem_sys));
    rec.close();
    rec.open("simnet.tcb_pair");
    let tcp_bytes = 32 << 20;
    let (_, ns_byte) = layers::ns_per(3, || layers::tcb_pair(tcp_bytes));
    rec.close();

    let all: Vec<&Rep> = traced.iter().chain([&replayed]).collect();
    let m = &all[0].model;
    let same = all.iter().all(|r| r.model == *m);
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let s = &replay.samples;
    let correct = same && failed == 0 && s.mismatches == 0 && !s.image_bytes.is_empty();

    let wall = median(&traced.iter().map(|r| r.run_wall_s).collect::<Vec<_>>());
    let ns_per_event = median(
        &traced
            .iter()
            .map(|r| r.app_wall_ns as f64 / r.model.app_events.max(1) as f64)
            .collect::<Vec<_>>(),
    );
    let image_mib = s.image_bytes.iter().sum::<u64>() as f64 / MIB;
    let epochs = s.image_bytes.len();
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let np = traced.len();
    let metrics = vec![
        Metric::new("des.events", "count", m.events as f64, 1),
        Metric::new("des.ns_per_event", "ns", ns_per_event, np),
        Metric::new("simcpu.guest_insts", "count", insts as f64, 1),
        Metric::new("simcpu.ns_per_inst", "ns", ns_inst, 3),
        Metric::new("simos.store_ns_per_inst", "ns", ns_store, 3),
        Metric::new(
            "simos.dirty_pages_per_ckpt",
            "count",
            median_u64(&m.dirty_pages_per_ckpt),
            m.dirty_pages_per_ckpt.len(),
        ),
        Metric::new("simnet.tcp_mib_per_s", "MiB/s", 1e9 / ns_byte / MIB, 3),
        Metric::new("simnet.rx_bytes", "count", m.rx_bytes as f64, 1),
        Metric::new(
            "zap.image_mib",
            "MiB",
            median_u64(&s.image_bytes) / MIB,
            epochs,
        ),
        Metric::new(
            "zap.encode_ms_per_mib",
            "ms/MiB",
            sum(&s.each(|e| e.encode)) / image_mib,
            epochs,
        ),
        Metric::new(
            "zap.decode_ms_per_mib",
            "ms/MiB",
            sum(&s.each(|e| e.decode)) / image_mib,
            epochs,
        ),
        Metric::new("chunk.id_mb_per_s", "MB/s", mb_per_s(s.id), epochs),
        Metric::new(
            "chunk.compress_mb_per_s",
            "MB/s",
            mb_per_s(s.compress),
            epochs,
        ),
        Metric::new(
            "chunk.decompress_mb_per_s",
            "MB/s",
            mb_per_s(s.decompress),
            epochs,
        ),
        Metric::new(
            "chunk.stored_ratio",
            "ratio",
            ratio(s.stored.0, s.stored.1),
            epochs,
        ),
        Metric::new(
            "store.prepare_ms",
            "ms",
            median(&s.each(|e| e.prepare)),
            epochs,
        ),
        Metric::new("store.put_ms", "ms", median(&s.each(|e| e.put)), epochs),
        Metric::new(
            "store.get_image_ms",
            "ms",
            median(&s.each(|e| e.get)),
            epochs,
        ),
        Metric::new(
            "store.novel_chunk_ratio",
            "ratio",
            ratio(s.chunks.1, s.chunks.0),
            epochs,
        ),
        Metric::new("pagecache.hit_ratio", "ratio", replay.hit_ratio(), epochs),
        Metric::new(
            "pagecache.hinted_prepare_ms",
            "ms",
            median(&s.each(|e| e.hinted)),
            epochs,
        ),
        Metric::new(
            "parpool.prepare_speedup",
            "x",
            sum(&s.each(|e| e.prepare_1)) / sum(&s.each(|e| e.prepare)),
            epochs,
        ),
        Metric::new(
            "parpool.get_speedup",
            "x",
            sum(&s.each(|e| e.get_1)) / sum(&s.each(|e| e.get)),
            epochs,
        ),
        Metric::new(
            "replog.write_amp",
            "ratio",
            ratio(s.written.1, s.written.0),
            epochs,
        ),
        Metric::new("replog.put_ms", "ms", median(&s.each(|e| e.put_3)), epochs),
        Metric::new(
            "replog.get_image_ms",
            "ms",
            median(&s.each(|e| e.get_3)),
            epochs,
        ),
        Metric::new(
            "cluster.events_per_ckpt",
            "count",
            median_u64(&m.ckpt_events),
            m.ckpt_events.len(),
        ),
        Metric::new(
            "cluster.ckpt_residual_ms",
            "ms",
            median(&s.ckpt_residual_ms),
            s.ckpt_residual_ms.len(),
        ),
        Metric::new(
            "cluster.restore_residual_ms",
            "ms",
            median(&s.restore_residual_ms),
            s.restore_residual_ms.len(),
        ),
        Metric::new(
            "cluster.sim_per_wall",
            "ratio",
            m.sim_ns as f64 / 1e9 / wall,
            np,
        ),
        Metric::new(
            "trace.overhead_pct",
            "%",
            spans_per_rep * Recorder::span_cost_ns() / 1e9 / wall * 100.0,
            np,
        ),
    ];
    write_traces(wl, seed, &rec);
    Outcome {
        correct,
        attempted,
        failed,
        report: metrics.clone(),
        metrics,
        reps: all.len(),
        sim_length_ms: m.sim_ns as f64 / 1e6,
        model_digest: m.digest(),
    }
}

fn write_traces(wl: Workload, seed: u64, rec: &Recorder) {
    let dir = out_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        eprintln!("# cannot create {}", dir.display());
        return;
    }
    let base = format!("trace-{}-seed{}", wl.name(), seed);
    for (ext, body) in [("jsonl", rec.to_jsonl()), ("chrome.json", rec.to_chrome())] {
        let path = dir.join(format!("{base}.{ext}"));
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("# cannot write {}: {e}", path.display());
        }
    }
}

/// Runs one workload as the command line asks; prints the table and the
/// result line and writes the report. Returns the exit code.
pub fn run_one(args: &Args, wl: Workload) -> i32 {
    let outcome = if args.trace {
        per_layer(wl, args.scale, args.seed, args.seconds)
    } else {
        end_to_end(wl, args.scale, args.seed, args.seconds)
    };
    let dir = out_dir();
    let kind = if args.trace { "layers" } else { "e2e" };
    let path = dir.join(format!("{}-{kind}.json", wl.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                &path,
                outcome.report_json(wl, args.seed, args.scale, args.trace),
            )
        })
        .is_ok();
    if !written {
        eprintln!("# cannot write {}", path.display());
    }
    print!("{}", outcome.describe(wl, args.seed));
    println!("{}", outcome.result_line());
    if outcome.correct {
        0
    } else {
        1
    }
}

/// Runs every workload end to end, each in a child process of its own (so
/// `peak_rss_mib` is that workload's alone, and all load stays in one
/// process at a time), then gathers the reports into `out/results.json`.
pub fn run_all(args: &Args) -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("# cannot locate the benchmark binary");
        return 2;
    };
    let mut code = 0;
    let mut reports = Vec::new();
    for wl in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", wl.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"]);
        if args.scale == Scale::Small {
            cmd.arg("--small");
        }
        match cmd.status() {
            Ok(st) if st.success() => {}
            _ => code = 1,
        }
        let path = out_dir().join(format!("{}-e2e.json", wl.name()));
        reports.push(std::fs::read_to_string(path).unwrap_or_default());
    }
    let body = format!(
        "{{\"host_cpus\": {}, \"store_threads\": {}, \"workloads\": [\n{}]}}\n",
        host_cpus(),
        STORE_THREADS,
        reports
            .iter()
            .map(|r| r.trim())
            .filter(|r| !r.is_empty())
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let path = out_dir().join("results.json");
    if std::fs::write(&path, body).is_err() {
        eprintln!("# cannot write {}", path.display());
        code = 1;
    }
    println!("# all workloads: {}", path.display());
    code
}
