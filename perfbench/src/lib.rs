//! End-to-end and per-layer benchmark of the tt-diag workspace.
//!
//! Four closed-loop workloads drive the public API of the layers they
//! exercise (see `perfbench/NOTES.md` for why each exists and which layer
//! metric should move which end-to-end metric):
//!
//! * [`sweep`] — Sec. 9 grids through `tt_analysis::run_sweep` (lockstep);
//! * [`campaign`] — the Sec. 8 campaign on `SupervisedCampaign` (scalar);
//! * [`explore`] — coverage-guided `Explorer` sessions for the three
//!   protocol variants (scalar + oracles);
//! * [`serve`] — an in-process `DiagService` driven like `ttdiag submit`.
//!
//! An untraced run ([`Opts::trace`] off) times the workload's user-level
//! jobs and prints the end-to-end metrics. A traced run times the same jobs
//! again while recording a span around every call the benchmark makes into
//! a layer ([`trace::Trace`]); the per-layer metrics come from those spans.
//! No instrumentation lives inside the measured program.

pub mod campaign;
pub mod explore;
pub mod report;
pub mod serve;
pub mod sweep;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use report::{Metric, Outcome, END_TO_END, PER_LAYER};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sweep", "campaign", "explore", "serve"];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// How large one workload's jobs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Minimal sizes for the benchmark's own tests.
    Tiny,
}

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the timed job loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Job sizes.
    pub scale: Scale,
    /// Worker threads for the multi-threaded layers (`nproc`).
    pub threads: usize,
    /// Scratch directory for service state and checkpoints.
    pub work_dir: PathBuf,
}

/// Runs one workload and returns its outcome.
///
/// # Errors
///
/// Unknown workload names and I/O failures of the service state directory.
pub fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let mut outcome = match workload {
        "sweep" => sweep::run(opts),
        "campaign" => campaign::run(opts),
        "explore" => explore::run(opts),
        "serve" => serve::run(opts),
        other => return Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }?;
    outcome.complete(opts.trace);
    Ok(outcome)
}

/// Derives the seed of item `index` of a workload's input stream.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    tt_fault::splitmix64(seed, index)
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with the
/// median wall time in seconds and the number of repetitions.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64, u64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one repetition"),
        report::median(&times),
        SETUP_REPS as u64,
    )
}

/// Runs `job(i)` for `i = 0, 1, …` in whole cycles of `cycle` jobs until
/// `seconds` have elapsed (at least one cycle), so every run times the
/// same job mix. Each result is handed to `keep` outside the timed span,
/// so the benchmark's own bookkeeping (digests, dropping outputs) stays
/// out of the latencies. Returns what `keep` returned with each job's
/// latency.
pub fn closed_loop<T, K>(
    seconds: f64,
    cycle: usize,
    mut job: impl FnMut(u64) -> T,
    mut keep: impl FnMut(u64, T) -> K,
) -> Vec<(K, Duration)> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut out = Vec::new();
    let mut i = 0u64;
    while out.is_empty() || out.len() % cycle.max(1) != 0 || started.elapsed() < budget {
        let t = Instant::now();
        let r = job(i);
        let took = t.elapsed();
        out.push((keep(i, r), took));
        i += 1;
    }
    out
}

/// Cycles in a run of `seconds` for a workload whose job set must not
/// depend on the host's speed: as many as take about that long when one
/// cycle takes `cycle_seconds` on the reference host, at least one.
pub fn fixed_cycles(seconds: f64, cycle_seconds: f64) -> u64 {
    ((seconds / cycle_seconds).round() as u64).max(1)
}

/// Folds a value's `Debug` rendering into a running FNV-1a digest: the
/// output digest a simulator-only change must leave unchanged.
pub fn fold_digest(digest: u64, value: &impl std::fmt::Debug) -> u64 {
    use std::hash::Hasher;
    let mut h = tt_sim::Fnv1a64::new();
    h.write_u64(digest);
    h.write(format!("{value:?}").as_bytes());
    h.finish()
}
