//! Metric catalogue, statistics helpers and the result/record lines.

use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics (untraced runs), with units. Every workload prints
/// every one; `perfbench/NOTES.md` defines each per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("experiments_per_s", "1/s"),
    ("schedules_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with units. A traced run prints every
/// one; a layer that does not run on the workload prints 0 and is listed
/// under `not_run` in the run record.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("fault.sampled.gen_ns_per_exp", "ns"),
    ("fault.batch_eval.plan_ns_per_exp", "ns"),
    ("sim.batch.setup_us_per_batch", "us"),
    ("sim.batch.slot_ns_per_lane_round", "ns"),
    ("core.batch.job_ns_per_lane_round.n4", "ns"),
    ("core.batch.job_ns_per_lane_round.n8", "ns"),
    ("core.batch.job_ns_per_lane_round.n16", "ns"),
    ("sim.batch.live_lane_share", "ratio"),
    ("analysis.sweep.fold_ns_per_exp", "ns"),
    ("analysis.sweep.scalar_fallback_cells", "count"),
    ("fault.campaign.experiment_us.p50", "us"),
    ("fault.campaign.experiment_us.p99", "us"),
    ("bench.parallel.busy_share", "ratio"),
    ("bench.parallel.speedup", "ratio"),
    ("bench.supervised.overhead_share", "ratio"),
    ("fault.explore.step_us.diag", "us"),
    ("fault.explore.step_us.membership", "us"),
    ("fault.explore.step_us.lowlat", "us"),
    ("fault.explore.exec_us.diag", "us"),
    ("fault.explore.exec_us.membership", "us"),
    ("fault.explore.exec_us.lowlat", "us"),
    ("fault.explore.bookkeeping_share", "ratio"),
    ("sim.engine.slot_ns_per_round", "ns"),
    ("core.protocol.job_ns_per_round", "ns"),
    ("core.membership.job_ns_per_round", "ns"),
    ("fault.explore.novel_share.diag", "ratio"),
    ("fault.explore.novel_share.membership", "ratio"),
    ("fault.explore.novel_share.lowlat", "ratio"),
    ("fault.explore.unique_states", "count"),
    ("fault.explore.shrink_execs", "count"),
    ("fault.explore.counterexamples", "count"),
    ("bench.service.queue_wait_ms", "ms"),
    ("bench.service.chunk_ms.first", "ms"),
    ("bench.service.chunk_ms.last", "ms"),
    ("bench.service.checkpoint_bytes", "bytes"),
    ("bench.service.vs_direct", "ratio"),
    ("sim.stream.delivered", "count"),
    ("sim.stream.dropped", "count"),
    ("trace.overhead_share", "ratio"),
];

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (from [`END_TO_END`] or [`PER_LAYER`]).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in the catalogue.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: u64,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was a traced run.
    pub traced: bool,
    /// Output checks: name and `Err(detail)` on failure.
    pub checks: Vec<(String, Result<(), String>)>,
    /// Operations attempted (experiments, schedules or jobs).
    pub attempted: u64,
    /// Operations that failed (see `NOTES.md` for each workload's rule).
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Vec<Metric>,
    /// Free-form record entries (digest, percentile used, known defects).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// A fresh outcome for `workload`.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Outcome {
            workload,
            seed,
            traced,
            ..Outcome::default()
        }
    }

    /// Records a metric; the unit comes from the catalogue.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both catalogues (a benchmark bug).
    pub fn metric(&mut self, name: &str, value: f64, samples: u64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.checks.push((name.to_string(), result));
    }

    /// Records a note for the run record.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
    }

    /// The metric named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Restricts the metrics to the catalogue of this run's mode, in
    /// catalogue order: all end-to-end metrics for a timed run, all
    /// per-layer metrics for a traced one (layers that did not run on this
    /// workload print 0 and are listed as `not_run`). A missing end-to-end
    /// metric or a non-finite value fails the run.
    pub fn complete(&mut self, traced: bool) {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = Vec::with_capacity(catalogue.len());
        let mut not_run = Vec::new();
        for &(name, unit) in catalogue {
            match self.get(name).cloned() {
                Some(m) if m.value.is_finite() => out.push(m),
                Some(m) => {
                    let detail = format!("{name} is not finite: {}", m.value);
                    self.checks.push(("finite_metrics".into(), Err(detail)));
                    out.push(Metric { value: 0.0, ..m });
                }
                None => {
                    if !traced {
                        let detail = format!("end-to-end metric {name} was not measured");
                        self.checks.push(("all_metrics".into(), Err(detail)));
                    }
                    not_run.push(name);
                    out.push(Metric {
                        name: name.to_string(),
                        value: 0.0,
                        unit,
                        samples: 0,
                    });
                }
            }
        }
        self.metrics = out;
        if !not_run.is_empty() {
            self.note("not_run", not_run.join(","));
        }
    }

    /// The last line of a run: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (`{"name": {"value": v, "unit": u}}`).
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                json_number(m.value),
                escape(m.unit)
            );
        }
        s.push_str("}}");
        s
    }

    /// The run record printed before the result line: workload, seed,
    /// host fingerprint, every check, each metric's sample count and the
    /// notes.
    pub fn record_json(&self, host: &tt_bench::HostFingerprint) -> String {
        let mut s = format!(
            "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \
             \"host\": {{\"logical_cores\": {}, \"cpu_model\": \"{}\", \"target_cpu\": \"{}\"}}, \
             \"checks\": [",
            self.workload,
            self.seed,
            self.traced,
            host.logical_cores,
            escape(&host.cpu_model),
            escape(&host.target_cpu)
        );
        for (i, (name, r)) in self.checks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                escape(name),
                r.is_ok(),
                escape(r.as_ref().err().map_or("", String::as_str))
            );
        }
        s.push_str("], \"samples\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {}", escape(&m.name), m.samples);
        }
        s.push_str("}, \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": \"{}\"", escape(k), escape(v));
        }
        s.push_str("}}}");
        s
    }

    /// One human-readable line per metric (name, value, unit, samples).
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{:<42} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        s
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Median (mean of the two middle values for an even count; 0 if empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100) of `values` (0 if empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The tail latency: the highest percentile with at least ten samples
/// beyond it. Returns `(value, percentile used)`. When that percentile
/// would not lie above the median (fewer than 20 samples), the maximum
/// (percentile 100) is used instead.
pub fn tail(values: &[f64]) -> (f64, u64) {
    if values.is_empty() {
        return (0.0, 100);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 20 {
        return (v[n - 1], 100);
    }
    let pct = (100 * (n - 10) / n) as u64;
    (v[n - 11], pct)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Records the end-to-end latency metrics of a job-latency sample.
pub fn record_latency(out: &mut Outcome, latencies_ms: &[f64]) {
    let n = latencies_ms.len() as u64;
    out.metric("job_latency_p50_ms", median(latencies_ms), n);
    let (tail_ms, pct) = tail(latencies_ms);
    out.metric("job_latency_tail_ms", tail_ms, n);
    out.note("job_latency_tail_percentile", pct);
}

/// Throughput with every job kind at its median job time:
/// `Σ_k n_k·w̄_k / Σ_k n_k·t50_k` over `(kind, work, seconds)` samples,
/// where `n_k` is the kind's job count, `w̄_k` its mean work per job and
/// `t50_k` its median job time.
///
/// The median rather than the total: a single stalled job moves a total
/// but not a median.
pub fn median_rate<K: Ord + Copy>(samples: &[(K, f64, f64)]) -> f64 {
    let mut kinds: std::collections::BTreeMap<K, (f64, Vec<f64>)> = Default::default();
    for &(kind, work, secs) in samples {
        let entry = kinds.entry(kind).or_default();
        entry.0 += work;
        entry.1.push(secs);
    }
    let (mut work, mut time) = (0.0, 0.0);
    for (w, times) in kinds.values() {
        work += w;
        time += times.len() as f64 * median(times);
    }
    if time > 0.0 {
        work / time
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few), (5.0, 100));
    }

    #[test]
    fn median_rate_weights_kinds_by_count() {
        // Two "a" jobs of 10 units at 1 s and 3 s (median 2 s) and one "b"
        // job of 30 units at 2 s: (10 + 10 + 30) / (2·2 + 1·2).
        let r = median_rate(&[("a", 10.0, 1.0), ("a", 10.0, 3.0), ("b", 30.0, 2.0)]);
        assert_eq!(r, 50.0 / 6.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
    }
}
