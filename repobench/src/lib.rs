//! The repository benchmark: three seeded workloads, one per hot
//! surface of the workspace — the trainer (`train`), the cost model
//! (`engine_sweep`) and the daemon (`serve_repeat`) — timed from outside
//! through the library crates' public items. See `README.md`.

pub mod host;
pub mod inputs;
mod serve;
pub mod stats;
mod sweep;
mod train;

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["train", "engine_sweep", "serve_repeat"];

/// Runs one workload; `trace` selects the traced run (per-layer metrics)
/// over the untraced one (end-to-end metrics).
///
/// # Errors
///
/// Reports set-up failures (e.g. a daemon that cannot bind) and unknown
/// workload names.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<stats::Outcome, String> {
    match workload {
        "train" => Ok(train::run(seed, seconds, trace)),
        "engine_sweep" => Ok(sweep::run(seed, seconds, trace)),
        "serve_repeat" => serve::run(seed, seconds, trace),
        other => Err(format!("unknown workload '{other}' (one of {WORKLOADS:?})")),
    }
}
