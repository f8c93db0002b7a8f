//! Benchmark-side tracing: spans around the calls the benchmark makes into
//! each layer, kept in memory and summarized when the run ends.
//!
//! Spans are recorded only by the benchmark's own code, never inside the
//! measured program. Calls that run inside an engine (a lockstep job's
//! `execute`, a scalar `Job::execute`) are timed by wrapper types that the
//! engine drives like any other job ([`TimedLockstep`], [`TimedJob`]).

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tt_sim::{BatchLanes, Job, JobCtx, LockstepJob};

/// All spans recorded under one layer-call name.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Calls recorded.
    pub calls: u64,
    /// Summed duration, in nanoseconds.
    pub total_ns: u64,
    /// Every call's duration, in nanoseconds (for percentiles).
    pub samples: Vec<u64>,
}

impl Layer {
    /// Mean duration per call, in nanoseconds (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }

    /// Call durations in microseconds.
    pub fn samples_us(&self) -> Vec<f64> {
        self.samples.iter().map(|&ns| ns as f64 / 1e3).collect()
    }
}

/// In-memory span store, keyed by layer-call name.
#[derive(Debug, Default)]
pub struct Trace {
    layers: BTreeMap<&'static str, Layer>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_nanos() as u64);
        out
    }

    /// Records one call of `ns` nanoseconds under `name`.
    pub fn add(&mut self, name: &'static str, ns: u64) {
        let layer = self.layers.entry(name).or_default();
        layer.calls += 1;
        layer.total_ns += ns;
        layer.samples.push(ns);
    }

    /// Records `calls` calls totalling `ns` nanoseconds under `name`
    /// without per-call samples (for wrappers that only accumulate).
    pub fn add_bulk(&mut self, name: &'static str, calls: u64, ns: u64) {
        let layer = self.layers.entry(name).or_default();
        layer.calls += calls;
        layer.total_ns += ns;
    }

    /// The spans recorded under `name` (empty if none).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    /// Total calls recorded under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.layers.get(name).map_or(0, |l| l.calls)
    }

    /// Summed nanoseconds recorded under `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.layers.get(name).map_or(0, |l| l.total_ns)
    }

    /// The non-vacuity check: `Err` naming every expected layer that
    /// recorded zero calls.
    pub fn expect_layers(&self, expected: &[&str]) -> Result<(), String> {
        let missing: Vec<&str> = expected
            .iter()
            .copied()
            .filter(|name| self.calls(name) == 0)
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "layers recorded zero calls: {}",
                missing.join(", ")
            ))
        }
    }

    /// `(name, calls)` of every recorded layer, for the run record.
    pub fn summary(&self) -> String {
        self.layers
            .iter()
            .map(|(name, l)| format!("{name}={}", l.calls))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Times a lockstep job's `execute` and counts the lane-rounds it steps.
pub struct TimedLockstep<'a, J: LockstepJob> {
    /// The wrapped job.
    pub inner: &'a mut J,
    /// Summed `execute` time, in nanoseconds.
    pub job_ns: u64,
    /// `execute` calls (rounds stepped).
    pub calls: u64,
    /// Live lanes summed over the rounds stepped.
    pub live_lane_rounds: u64,
    /// Lanes (live or retired) summed over the rounds stepped.
    pub lane_rounds: u64,
}

impl<'a, J: LockstepJob> TimedLockstep<'a, J> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'a mut J) -> Self {
        TimedLockstep {
            inner,
            job_ns: 0,
            calls: 0,
            live_lane_rounds: 0,
            lane_rounds: 0,
        }
    }
}

impl<J: LockstepJob> LockstepJob for TimedLockstep<'_, J> {
    fn execute(&mut self, lanes: &mut BatchLanes) {
        self.calls += 1;
        self.live_lane_rounds += lanes.live_count() as u64;
        self.lane_rounds += lanes.batch() as u64;
        let t = Instant::now();
        self.inner.execute(lanes);
        self.job_ns += t.elapsed().as_nanos() as u64;
    }
}

/// Shared counters of every [`TimedJob`] of one cluster.
#[derive(Debug, Default)]
pub struct JobTimes {
    /// `execute` calls.
    pub calls: AtomicU64,
    /// Summed `execute` time, in nanoseconds.
    pub ns: AtomicU64,
}

/// Times a scalar job's `execute`; `as_any` delegates to the wrapped job
/// so the engine's `job_as` downcasts see the real job type.
pub struct TimedJob {
    inner: Box<dyn Job>,
    times: Arc<JobTimes>,
}

impl TimedJob {
    /// Wraps `inner`, accumulating into `times`.
    pub fn new(inner: Box<dyn Job>, times: Arc<JobTimes>) -> Self {
        TimedJob { inner, times }
    }
}

impl Job for TimedJob {
    fn execute(&mut self, ctx: &mut JobCtx<'_>) {
        let t = Instant::now();
        self.inner.execute(ctx);
        let ns = t.elapsed().as_nanos() as u64;
        // Statistics only: no other data is published through them.
        self.times.calls.fetch_add(1, Ordering::Relaxed);
        self.times.ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}
