//! The repository benchmark: wall cost of checkpoint → crash → restore on
//! the simulated Cruz cluster, end to end and per layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --all [--seed <n>] [--seconds <s>]
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` and reports the
//! end-to-end metrics; `--trace 1` records wall-clock spans and replays
//! the workload's images through each layer, and reports the per-layer
//! metrics. The last stdout line is always one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--all` runs every
//! workload in its own process and prints all end-to-end metrics. See
//! `perfbench/README.md` for what each workload and metric is for.

#![warn(missing_docs)]

pub mod layers;
pub mod measure;
pub mod spans;
pub mod stats;
pub mod workload;

use std::path::PathBuf;

pub use workload::{Scale, Workload};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload (`None` with `--all`).
    pub workload: Option<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Wall budget of the measurement, s.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Reduced sizes (the benchmark's own tests).
    pub scale: Scale,
    /// Run every workload, each in its own process.
    pub all: bool,
}

/// Parses `argv[1..]`.
///
/// # Errors
///
/// A message naming the bad or missing argument.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        all: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--small" => args.scale = Scale::Small,
            "--all" => args.all = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && !args.all {
        return Err("--workload <name> or --all is required".into());
    }
    Ok(args)
}

/// Where reports and traces are written: `perfbench/out/` of the checkout
/// the benchmark was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Logical CPUs of this host.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resets this process's peak resident set to its current size (writes
/// `5` to `/proc/self/clear_refs`); false where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
