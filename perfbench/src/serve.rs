//! `serve`: an in-process `DiagService` driven through `start`, `submit`
//! and `status` — the `ttdiag serve` job path without the socket.
//!
//! One client submits a fixed mix of jobs, waits for each to finish
//! (closed loop, one job in flight) and keeps a drained subscriber on
//! `hubs().progress`. Campaign jobs use the CLI default `--chunk 25`; the
//! mix also holds one tune-sweep and one explore job. The only workload
//! that runs the chunk loop, the atomic checkpoint rewrites and the
//! `StreamHub` fan-out.
//!
//! A run is a fixed number of cycles, set by `--seconds` and
//! [`CYCLE_SECONDS`], not a timed loop: an explore job fails when its
//! session finds a counterexample (the known defect in `NOTES.md`), so a
//! given seed and run length must always submit the same jobs and report
//! the same failures, however fast the host runs that day.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tt_analysis::{sweep_json, SweepCheckpoint, SweepConfig, SweepReport};
use tt_bench::{DiagService, JobSpec, JobState, SupervisedCampaign, SupervisorConfig};
use tt_fault::{
    execute_schedule, read_json, sec8_classes, CampaignCheckpoint, Counterexample,
    ExploreCheckpoint, NoHarnessFaults,
};
use tt_sim::{ProgressEvent, Subscription};

use crate::explore::check_counterexample;
use crate::report::{median, median_rate, ms, peak_rss_mb, record_latency, Outcome};
use crate::trace::Trace;
use crate::{derive_seed, fixed_cycles, fold_digest, timed_setup, Opts, Scale};

/// Nominal seconds of one cycle on the reference host (`NOTES.md`).
pub const CYCLE_SECONDS: f64 = 6.0;

/// The CLI's default `--chunk`.
pub const CHUNK: u64 = 25;

/// Ring capacity of the progress subscriber: far above the events one job
/// publishes between two drains, so a drained subscriber drops nothing.
const SUBSCRIBER_CAPACITY: usize = 1 << 16;

/// Longest wait for the next progress event before the run is failed.
const EVENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The job mix of cycle `cycle`: campaign jobs of one size, plus one
/// tune-sweep job and one explore job, each sized to take about as long as
/// a campaign job so that no job kind alone sets the tail latency.
pub fn mix(opts: &Opts, cycle: u64) -> Vec<JobSpec> {
    let (campaigns, reps, budget) = match opts.scale {
        Scale::Full => (12, 100, 300),
        Scale::Tiny => (2, 1, 30),
    };
    let seed = |i: u64| derive_seed(opts.seed, cycle * 64 + i);
    let campaign = |i: u64| JobSpec::Campaign {
        nodes: 4,
        reps,
        base_seed: seed(i),
        threads: opts.threads,
        chunk: CHUNK,
    };
    let mut jobs: Vec<JobSpec> = (0..campaigns / 2).map(campaign).collect();
    jobs.push(JobSpec::TuneSweep { chunk: CHUNK });
    jobs.extend((campaigns / 2..campaigns).map(campaign));
    jobs.push(JobSpec::Explore {
        nodes: 4,
        rounds: 24,
        budget,
        seed: seed(63),
        chunk: CHUNK,
    });
    jobs
}

/// Simulated experiments behind a finished job's settled items: campaign
/// experiments, explore schedule executions, or sweep cells × experiments
/// per cell.
pub fn experiments(spec: &JobSpec, settled: u64) -> u64 {
    match spec {
        JobSpec::TuneSweep { .. } => settled * SweepConfig::default().experiments,
        _ => settled,
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Service-assigned id.
    pub id: u64,
    /// Submit → `JobStarted`.
    pub queue_wait: Duration,
    /// Submit → `JobFinished`.
    pub latency: Duration,
    /// Arrival time of each `Chunk` event, relative to `JobStarted`.
    pub chunks: Vec<Duration>,
    /// Checkpoint size read after each `Chunk` event (traced runs only).
    pub checkpoint_bytes: Vec<u64>,
    /// Items settled at `JobFinished`.
    pub settled: u64,
    /// Items of the job.
    pub total: u64,
    /// `JobFinished.passed`.
    pub passed: bool,
    /// Final job-table state.
    pub state: JobState,
}

/// Every job ended Done with settled == total, and Passed unless it is an
/// explore job: an explore job that found counterexamples ends not Passed,
/// and [`Client::check_counterexamples`] checks those instead.
pub fn check_job(job: &JobTrace) -> Result<(), String> {
    let passed = job.passed || matches!(job.spec, JobSpec::Explore { .. });
    if passed && job.state == JobState::Done && job.settled == job.total {
        Ok(())
    } else {
        Err(format!(
            "job {} ({}) ended {:?}, passed {}, settled {}/{}",
            job.id,
            job.spec.kind(),
            job.state,
            job.passed,
            job.settled,
            job.total
        ))
    }
}

/// A running service, its progress subscriber and its state directory.
pub struct Client {
    service: Arc<DiagService>,
    progress: Subscription<ProgressEvent>,
    state_dir: PathBuf,
}

impl Client {
    /// Starts a service on a fresh state directory under `work_dir`.
    ///
    /// # Errors
    ///
    /// Fails if the state directory cannot be created.
    pub fn start(opts: &Opts, tag: &str) -> Result<Client, String> {
        let state_dir = opts
            .work_dir
            .join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let service =
            DiagService::start(&state_dir).map_err(|e| format!("DiagService::start: {e}"))?;
        let progress = service.hubs().progress.subscribe(SUBSCRIBER_CAPACITY);
        Ok(Client {
            service,
            progress,
            state_dir,
        })
    }

    /// Submits `spec` and waits for its `JobFinished`. With `trace`, spans
    /// the submit call and reads the checkpoint size after every chunk.
    ///
    /// # Errors
    ///
    /// Rejected submissions and event timeouts.
    pub fn run_job(
        &self,
        spec: JobSpec,
        mut trace: Option<&mut Trace>,
    ) -> Result<JobTrace, String> {
        let submitted = Instant::now();
        let status = match trace.as_deref_mut() {
            Some(t) => t.span("bench.service.DiagService::submit", || {
                self.service.submit(spec)
            }),
            None => self.service.submit(spec),
        }
        .map_err(|e| format!("submit: {e}"))?;
        let id = status.id;
        let mut job = JobTrace {
            spec,
            id,
            queue_wait: Duration::ZERO,
            latency: Duration::ZERO,
            chunks: Vec::new(),
            checkpoint_bytes: Vec::new(),
            settled: 0,
            total: status.total,
            passed: false,
            state: status.state,
        };
        let mut started = None;
        loop {
            let frames = self.progress.recv_timeout(EVENT_TIMEOUT, usize::MAX);
            if frames.is_empty() {
                return Err(format!("job {id}: no progress event for {EVENT_TIMEOUT:?}"));
            }
            let now = Instant::now();
            for frame in frames {
                if frame.event.job() != id {
                    continue;
                }
                match frame.event {
                    ProgressEvent::JobStarted { .. } => {
                        job.queue_wait = now - submitted;
                        started = Some(now);
                    }
                    ProgressEvent::Chunk { .. } => {
                        job.chunks.push(now - started.unwrap_or(submitted));
                        if let Some(t) = trace.as_deref_mut() {
                            let path = self.service.checkpoint_path(id);
                            let bytes = t.span("bench.service.checkpoint_read", || {
                                std::fs::metadata(&path).map_or(0, |m| m.len())
                            });
                            job.checkpoint_bytes.push(bytes);
                        }
                    }
                    ProgressEvent::JobFinished {
                        completed, passed, ..
                    } => {
                        job.latency = now - submitted;
                        job.settled = completed;
                        job.passed = passed;
                        job.state = self
                            .service
                            .status(id)
                            .map_or(JobState::Failed, |s| s.state);
                        if let Some(t) = trace.as_deref_mut() {
                            t.add(job_layer(&spec), job.latency.as_nanos() as u64);
                            for pair in job.chunks.windows(2) {
                                t.add("bench.service.chunk", (pair[1] - pair[0]).as_nanos() as u64);
                            }
                        }
                        return Ok(job);
                    }
                    _ => {}
                }
            }
        }
    }

    /// The counterexamples of an explore job that ended not Passed, read
    /// from its final checkpoint: there must be at least one, and each
    /// shrunk schedule, re-run through `execute_schedule`, must fail with
    /// the reported violations.
    ///
    /// # Errors
    ///
    /// An unreadable checkpoint, no counterexamples, or one that does not
    /// reproduce.
    pub fn check_counterexamples(&self, job: &JobTrace) -> Result<Vec<Counterexample>, String> {
        let path = self.service.checkpoint_path(job.id);
        let cp: ExploreCheckpoint =
            read_json(&path).map_err(|e| format!("job {} checkpoint: {e}", job.id))?;
        let found = cp.report.counterexamples;
        if found.is_empty() {
            return Err(format!(
                "job {} ended not Passed without counterexamples",
                job.id
            ));
        }
        for cex in &found {
            check_counterexample(cex, &execute_schedule(&cex.shrunk))?;
        }
        Ok(found)
    }

    /// Records the failures and output checks of finished jobs: a job
    /// that did not end Passed counts as failed.
    fn check_jobs(&self, jobs: &[JobTrace], out: &mut Outcome) {
        for j in jobs {
            if let Err(e) = check_job(j) {
                out.check(&format!("job{}_passed", j.id), Err(e));
            }
            if j.passed {
                continue;
            }
            out.failed += 1;
            if !matches!(j.spec, JobSpec::Explore { .. }) {
                continue;
            }
            match self.check_counterexamples(j) {
                Ok(found) => {
                    for (k, cex) in found.iter().enumerate() {
                        out.note(
                            &format!("counterexample.job{}.{k}", j.id),
                            format!("{:?}", cex.violations),
                        );
                    }
                }
                Err(e) => out.check(&format!("job{}_counterexamples_reproduce", j.id), Err(e)),
            }
        }
    }

    /// Digest of a finished job's final checkpoint (its simulated outputs).
    fn output_digest(&self, digest: u64, job: &JobTrace) -> Result<u64, String> {
        let path = self.service.checkpoint_path(job.id);
        let err = |e: std::io::Error| format!("job {} checkpoint: {e}", job.id);
        Ok(match job.spec {
            JobSpec::Campaign { .. } => {
                let cp: CampaignCheckpoint = read_json(&path).map_err(err)?;
                fold_digest(digest, &cp.completed)
            }
            JobSpec::Explore { .. } => {
                let cp: ExploreCheckpoint = read_json(&path).map_err(err)?;
                fold_digest(digest, &cp.report)
            }
            JobSpec::TuneSweep { .. } => {
                let cp: SweepCheckpoint = read_json(&path).map_err(err)?;
                let report = SweepReport {
                    config: cp.config,
                    cells: cp.completed,
                };
                fold_digest(digest, &sweep_json(&report))
            }
        })
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.service.shutdown_wait();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

fn job_layer(spec: &JobSpec) -> &'static str {
    match spec {
        JobSpec::Campaign { .. } => "bench.service.job.campaign",
        JobSpec::Explore { .. } => "bench.service.job.explore",
        JobSpec::TuneSweep { .. } => "bench.service.job.tune-sweep",
    }
}

/// Runs one cycle of the mix, one job at a time.
fn run_cycle(
    client: &Client,
    opts: &Opts,
    cycle: u64,
    mut trace: Option<&mut Trace>,
) -> Result<Vec<JobTrace>, String> {
    mix(opts, cycle)
        .into_iter()
        .map(|spec| client.run_job(spec, trace.as_deref_mut()))
        .collect()
}

fn warmup_spec(opts: &Opts) -> JobSpec {
    JobSpec::Campaign {
        nodes: 4,
        reps: match opts.scale {
            Scale::Full => 100,
            Scale::Tiny => 1,
        },
        base_seed: derive_seed(opts.seed, u64::MAX),
        threads: opts.threads,
        chunk: CHUNK,
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Fails if the service cannot start.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new("serve", opts.seed, opts.trace);
    let mut rep = 0;
    let (client, setup_s, setup_reps) = timed_setup(|| {
        rep += 1;
        let client = Client::start(opts, &format!("setup{rep}"))?;
        let warm = client.run_job(warmup_spec(opts), None)?;
        check_job(&warm)?;
        Ok::<Client, String>(client)
    });
    let client = client?;
    if opts.trace {
        traced(opts, &client, &mut out);
        return Ok(out);
    }
    out.metric("setup_s", setup_s, setup_reps);

    let cycles = fixed_cycles(opts.seconds, CYCLE_SECONDS);
    let mut jobs: Vec<JobTrace> = Vec::new();
    for cycle in 0..cycles {
        match run_cycle(&client, opts, cycle, None) {
            Ok(js) => jobs.extend(js),
            Err(e) => {
                out.check("jobs_finish", Err(e));
                break;
            }
        }
    }
    out.metric("peak_rss_mb", peak_rss_mb(), 1);

    let n = jobs.len() as u64;
    let rate = |work: &dyn Fn(&JobTrace) -> u64| {
        let samples: Vec<(&str, f64, f64)> = jobs
            .iter()
            .map(|j| (j.spec.kind(), work(j) as f64, j.latency.as_secs_f64()))
            .collect();
        median_rate(&samples)
    };
    out.metric(
        "experiments_per_s",
        rate(&|j| experiments(&j.spec, j.settled)),
        n,
    );
    out.metric("schedules_per_s", rate(&|j| j.settled), n);
    let latencies: Vec<f64> = jobs.iter().map(|j| ms(j.latency)).collect();
    record_latency(&mut out, &latencies);
    out.attempted = n;
    client.check_jobs(&jobs, &mut out);
    out.check("jobs_passed", Ok(()));
    let mut digest = 0u64;
    for j in jobs.iter().take(mix(opts, 0).len()) {
        match client.output_digest(digest, j) {
            Ok(d) => digest = d,
            Err(e) => out.check("digest", Err(e)),
        }
    }
    let stats = client.progress.stats();
    out.check(
        "subscriber_dropped_nothing",
        if stats.dropped == 0 {
            Ok(())
        } else {
            Err(format!(
                "progress subscriber dropped {} frames",
                stats.dropped
            ))
        },
    );
    for kind in ["campaign", "tune-sweep", "explore"] {
        let of_kind: Vec<f64> = jobs
            .iter()
            .filter(|j| j.spec.kind() == kind)
            .map(|j| ms(j.latency))
            .collect();
        out.note(&format!("job_latency_p50_ms.{kind}"), median(&of_kind));
    }
    out.note("cycles", cycles);
    out.note("digest.cycle0", format!("{digest:016x}"));
    drop(client);
    Ok(out)
}

fn traced(opts: &Opts, client: &Client, out: &mut Outcome) {
    let mut trace = Trace::new();
    let t = Instant::now();
    let plain = run_cycle(client, opts, 0, None);
    let untraced = t.elapsed();
    let t = Instant::now();
    let spanned = run_cycle(client, opts, 0, Some(&mut trace));
    let traced_wall = t.elapsed();
    let (plain, spanned) = match (plain, spanned) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            out.check("jobs_finish", Err(e));
            return;
        }
    };
    client.check_jobs(&plain, out);
    client.check_jobs(&spanned, out);

    let waits: Vec<f64> = spanned.iter().map(|j| ms(j.queue_wait)).collect();
    out.metric(
        "bench.service.queue_wait_ms",
        median(&waits),
        waits.len() as u64,
    );
    let campaigns: Vec<&JobTrace> = spanned
        .iter()
        .filter(|j| matches!(j.spec, JobSpec::Campaign { .. }))
        .collect();
    let first: Vec<f64> = campaigns
        .iter()
        .filter_map(|j| j.chunks.first())
        .map(|d| ms(*d))
        .collect();
    let last: Vec<f64> = campaigns
        .iter()
        .filter(|j| j.chunks.len() >= 2)
        .map(|j| ms(j.chunks[j.chunks.len() - 1] - j.chunks[j.chunks.len() - 2]))
        .collect();
    out.metric(
        "bench.service.chunk_ms.first",
        median(&first),
        first.len() as u64,
    );
    out.metric(
        "bench.service.chunk_ms.last",
        median(&last),
        last.len() as u64,
    );
    let bytes: Vec<u64> = spanned
        .iter()
        .flat_map(|j| j.checkpoint_bytes.iter().copied())
        .collect();
    out.metric(
        "bench.service.checkpoint_bytes",
        bytes.iter().sum::<u64>() as f64,
        bytes.len() as u64,
    );

    // The same campaign jobs, unchunked, straight through the supervisor.
    let serve_exps: u64 = plain
        .iter()
        .filter(|j| matches!(j.spec, JobSpec::Campaign { .. }))
        .map(|j| j.settled)
        .sum();
    let serve_secs: f64 = plain
        .iter()
        .filter(|j| matches!(j.spec, JobSpec::Campaign { .. }))
        .map(|j| j.latency.as_secs_f64())
        .sum();
    let mut direct_exps = 0u64;
    for j in &plain {
        if let JobSpec::Campaign {
            nodes,
            reps,
            base_seed,
            threads,
            ..
        } = j.spec
        {
            let classes = sec8_classes(nodes);
            let campaign = SupervisedCampaign {
                classes: &classes,
                n: nodes,
                reps,
                base_seed,
                config: SupervisorConfig {
                    threads,
                    ..SupervisorConfig::default()
                },
            };
            match trace.span("bench.supervised.SupervisedCampaign::run", || {
                campaign.run(&NoHarnessFaults)
            }) {
                Ok(o) => direct_exps += o.result.outcomes.len() as u64,
                Err(e) => out.check("direct_campaign", Err(e.to_string())),
            }
        }
    }
    let direct_secs = trace.total_ns("bench.supervised.SupervisedCampaign::run") as f64 / 1e9;
    out.metric(
        "bench.service.vs_direct",
        (serve_exps as f64 / serve_secs) / (direct_exps as f64 / direct_secs),
        campaigns.len() as u64,
    );
    let stats = client.progress.stats();
    out.metric("sim.stream.delivered", stats.delivered as f64, 1);
    out.metric("sim.stream.dropped", stats.dropped as f64, 1);
    out.metric(
        "trace.overhead_share",
        traced_wall.as_secs_f64() / untraced.as_secs_f64(),
        spanned.len() as u64,
    );
    out.check(
        "non_vacuous_trace",
        trace.expect_layers(&[
            "bench.service.DiagService::submit",
            "bench.service.job.campaign",
            "bench.service.job.tune-sweep",
            "bench.service.job.explore",
            "bench.service.chunk",
            "bench.service.checkpoint_read",
            "bench.supervised.SupervisedCampaign::run",
        ]),
    );
    out.attempted = (plain.len() + spanned.len()) as u64;
    out.note("layer_calls", trace.summary());
}
