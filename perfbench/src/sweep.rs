//! `sweep`: Sec. 9 tuning grids through `tt_analysis::run_sweep` on one
//! thread — the `ttdiag tune sweep` path.
//!
//! The lockstep engine does nearly all the work. N = 16 is the only grid
//! size past the N ≤ 8 SWAR vote tally, so every job runs it.
//!
//! A job is one `run_sweep` call over the cluster sizes in [`SIZES`] and
//! the default grid's P, R, s, λ and intermittent-period axes (24 cells
//! of 64 experiments per size, one 64-lane batch each), with its own base
//! seed: `ttdiag tune sweep --nodes 4,8,16`.

use std::time::Instant;

use tt_analysis::{
    run_sweep, sweep_json, CellReport, SweepCell, SweepConfig, SweepReport, SweepSupervisor,
};
use tt_core::BatchDiagJob;
use tt_fault::{
    experiment_seed, lane_params, lane_plan, observe_schedule, observe_schedules_batched,
    sampled_schedule, victim_arrivals, FaultSchedule, ScheduleObservation, TransientCell,
};
use tt_sim::BatchCluster;

use crate::report::{median_rate, ms, peak_rss_mb, record_latency, Outcome};
use crate::trace::{TimedLockstep, Trace};
use crate::{closed_loop, derive_seed, fold_digest, timed_setup, Opts, Scale};

/// Cluster sizes of one cycle, in job order.
pub const SIZES: [usize; 3] = [4, 8, 16];

/// Experiments per cell re-observed on the scalar path by the output check.
pub const SCALAR_SAMPLE: usize = 2;

/// Sweep jobs timed (untraced, then traced) by a traced run.
const TRACED_JOBS: u64 = 2;

/// The grid of job `job`.
pub fn config(opts: &Opts, job: u64) -> SweepConfig {
    let nodes = SIZES.to_vec();
    let base_seed = derive_seed(opts.seed, job);
    match opts.scale {
        Scale::Full => SweepConfig {
            nodes,
            rounds: vec![64],
            experiments: 64,
            batch_size: 64,
            base_seed,
            ..SweepConfig::default()
        },
        Scale::Tiny => SweepConfig {
            nodes,
            rounds: vec![16],
            penalty_thresholds: vec![1],
            reward_thresholds: vec![2],
            criticalities: vec![1],
            intermittent_periods: vec![0, 6],
            experiments: 4,
            batch_size: 4,
            base_seed,
            ..SweepConfig::default()
        },
    }
}

/// The transient workload of one grid cell.
pub fn transient(cell: &SweepCell) -> TransientCell {
    TransientCell {
        n: cell.n,
        rounds: cell.rounds,
        penalty_threshold: cell.penalty_threshold,
        reward_threshold: cell.reward_threshold,
        rate_per_hour: cell.rate_per_hour,
        intermittent_period: cell.intermittent_period,
    }
}

fn sweep(config: &SweepConfig) -> Result<SweepReport, String> {
    run_sweep(config, &SweepSupervisor::default())
        .map(|o| o.report)
        .map_err(|e| format!("run_sweep: {e}"))
}

fn experiments(report: &SweepReport) -> u64 {
    report.cells.iter().map(|c| c.estimate.experiments).sum()
}

/// Runs the workload.
///
/// # Errors
///
/// Never; sweep failures are recorded as failed checks.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new("sweep", opts.seed, opts.trace);
    // Warm-up: one job at a quarter of the experiments per cell.
    let (warm, setup_s, setup_reps) = timed_setup(|| {
        let c = config(opts, u64::MAX);
        let quarter = (c.experiments / 4).max(1);
        sweep(&SweepConfig {
            experiments: quarter,
            batch_size: quarter as usize,
            ..c
        })
        .map(drop)
    });
    out.check("warmup", warm);
    if opts.trace {
        traced(opts, &mut out);
        return Ok(out);
    }
    out.metric("setup_s", setup_s, setup_reps);

    // Each job's report is reduced to its experiment count as it
    // finishes; the first is kept whole for the output check and the
    // digest.
    let mut first = None;
    let jobs = closed_loop(
        opts.seconds,
        1,
        |j| sweep(&config(opts, j)),
        |j, report| {
            let report = report?;
            let exps = experiments(&report);
            if j == 0 {
                first = Some(report);
            }
            Ok::<_, String>(exps)
        },
    );
    out.metric("peak_rss_mb", peak_rss_mb(), 1);
    let mut exps = 0u64;
    let mut samples = Vec::with_capacity(jobs.len());
    for (i, (job, took)) in jobs.iter().enumerate() {
        match job {
            Ok(e) => {
                exps += e;
                samples.push(((), *e as f64, took.as_secs_f64()));
            }
            Err(e) => out.check(&format!("job{i}"), Err(e.clone())),
        }
    }
    let n = jobs.len() as u64;
    let rate = median_rate(&samples);
    out.metric("experiments_per_s", rate, n);
    out.metric("schedules_per_s", rate, n);
    let latencies: Vec<f64> = jobs.iter().map(|(_, d)| ms(*d)).collect();
    record_latency(&mut out, &latencies);
    out.attempted = exps;
    out.failed = 0;
    out.note("jobs", n);
    let digest = first.iter().fold(0, |d, r| fold_digest(d, &sweep_json(r)));
    out.note("digest.job0", format!("{digest:016x}"));
    if let Some(report) = &first {
        out.check(
            "job0_scalar_reobservation",
            check_report(&config(opts, 0), report),
        );
    }
    Ok(out)
}

/// The schedules of every experiment of `cell`, in `run_sweep`'s order.
pub fn cell_schedules(config: &SweepConfig, cell: &SweepCell) -> Vec<FaultSchedule> {
    let workload = transient(cell);
    (0..config.experiments)
        .map(|r| sampled_schedule(&workload, experiment_seed(config.base_seed, cell.index, r)))
        .collect()
}

/// Re-derives every cell of `report`: all experiments re-observed on the
/// lockstep path must reproduce the report's counts, and the first
/// [`SCALAR_SAMPLE`] of each cell re-observed through the scalar
/// `observe_schedule` must match their lockstep observations.
pub fn check_report(config: &SweepConfig, report: &SweepReport) -> Result<(), String> {
    let cells = config.cells();
    if cells.len() != report.cells.len() {
        return Err(format!(
            "{} cells reported, {} configured",
            report.cells.len(),
            cells.len()
        ));
    }
    for (cell, done) in cells.iter().zip(&report.cells) {
        let crit = vec![cell.criticality; cell.n];
        let schedules = cell_schedules(config, cell);
        let batched = observe_schedules_batched(&schedules, &crit)
            .map_err(|e| format!("cell {}: {e}", cell.index))?;
        let scalar: Vec<ScheduleObservation> = schedules
            .iter()
            .take(SCALAR_SAMPLE)
            .map(|s| observe_schedule(s, &crit))
            .collect();
        check_cell(done, &schedules, &batched, &scalar)?;
    }
    Ok(())
}

/// The per-cell comparison behind [`check_report`].
pub fn check_cell(
    reported: &CellReport,
    schedules: &[FaultSchedule],
    batched: &[ScheduleObservation],
    scalar_sample: &[ScheduleObservation],
) -> Result<(), String> {
    let index = reported.cell.index;
    for (i, (s, b)) in scalar_sample.iter().zip(batched).enumerate() {
        if s != b {
            return Err(format!(
                "cell {index} experiment {i}: scalar {s:?} != lockstep {b:?}"
            ));
        }
    }
    let est = &reported.estimate;
    let isolated = batched
        .iter()
        .filter(|o| o.isolation_of(0).is_some())
        .count() as u64;
    let arrivals: u64 = schedules.iter().map(victim_arrivals).sum();
    let forgiveness: u64 = batched.iter().map(|o| o.forgiveness).sum();
    let got = (isolated, arrivals, forgiveness);
    let want = (est.false_isolation.successes, est.arrivals, est.forgiveness);
    if got != want {
        return Err(format!(
            "cell {index}: re-observed (isolations, arrivals, forgiveness) {got:?} != reported {want:?}"
        ));
    }
    Ok(())
}

/// Per-cluster-size counters of the traced decomposition.
#[derive(Default)]
struct LaneCounts {
    live: [u64; 3],
    stepped: [u64; 3],
    batches: u64,
    isolations: u64,
}

fn size_index(n: usize) -> Option<usize> {
    SIZES.iter().position(|&m| m == n)
}

const JOB_LAYERS: [&str; 3] = [
    "core.batch.BatchDiagJob::execute.n4",
    "core.batch.BatchDiagJob::execute.n8",
    "core.batch.BatchDiagJob::execute.n16",
];

/// The traced decomposition of one sweep job: `run_sweep`'s per-cell
/// lockstep observation, call by call, with a span around each.
fn traced_job(
    config: &SweepConfig,
    trace: &mut Trace,
    counts: &mut LaneCounts,
) -> Result<(), String> {
    for cell in config.cells() {
        let crit = vec![cell.criticality; cell.n];
        let workload = transient(&cell);
        let mut rep = 0u64;
        while rep < config.experiments {
            let chunk = (config.experiments - rep).min(config.batch_size as u64);
            let schedules: Vec<FaultSchedule> = (rep..rep + chunk)
                .map(|r| {
                    let seed = experiment_seed(config.base_seed, cell.index, r);
                    trace.span("fault.sampled.sampled_schedule", || {
                        sampled_schedule(&workload, seed)
                    })
                })
                .collect();
            let plans: Vec<_> = schedules
                .iter()
                .map(|s| trace.span("fault.batch_eval.lane_plan", || lane_plan(s)))
                .collect();
            let params: Vec<_> = schedules
                .iter()
                .map(|s| trace.span("fault.batch_eval.lane_params", || lane_params(s)))
                .collect();
            let rounds: Vec<u64> = schedules.iter().map(|s| s.rounds).collect();
            let mut batch = trace
                .span("sim.batch.BatchCluster::new", || {
                    BatchCluster::new(cell.n, plans)
                })
                .map_err(|e| format!("cell {}: {e}", cell.index))?;
            let mut job = trace.span("core.batch.BatchDiagJob::new", || {
                BatchDiagJob::new(cell.n, &params).with_criticalities(crit.clone())
            });
            let mut timed = TimedLockstep::new(&mut job);
            trace.span("sim.batch.run_lane_rounds", || {
                batch.run_lane_rounds(&rounds, &mut timed)
            });
            let slot = size_index(cell.n).ok_or("grid size outside {4, 8, 16}")?;
            trace.add_bulk(JOB_LAYERS[slot], timed.calls, timed.job_ns);
            counts.live[slot] += timed.live_lane_rounds;
            counts.stepped[slot] += timed.lane_rounds;
            counts.batches += 1;
            counts.isolations += (0..schedules.len())
                .filter(|&lane| {
                    job.isolation_events(lane, cell.n - 1)
                        .iter()
                        .any(|e| e.node.index() == 0)
                })
                .count() as u64;
            rep += chunk;
        }
    }
    Ok(())
}

/// The spans of [`traced_job`] outside the lockstep job wrapper.
const CALL_LAYERS: [&str; 6] = [
    "fault.sampled.sampled_schedule",
    "fault.batch_eval.lane_plan",
    "fault.batch_eval.lane_params",
    "sim.batch.BatchCluster::new",
    "core.batch.BatchDiagJob::new",
    "sim.batch.run_lane_rounds",
];

fn call_layers_ns(trace: &Trace) -> u64 {
    CALL_LAYERS.iter().map(|l| trace.total_ns(l)).sum()
}

/// Each traced job runs [`REPEATS`] times untraced and [`REPEATS`] times
/// decomposed, interleaved, and the differences use each side's fastest
/// repeat: host load moves single runs by far more than the fold costs.
const REPEATS: usize = 3;

fn traced(opts: &Opts, out: &mut Outcome) {
    let configs: Vec<SweepConfig> = (0..TRACED_JOBS).map(|j| config(opts, j)).collect();
    let mut trace = Trace::new();
    let mut counts = LaneCounts::default();
    let mut reports = Vec::new();
    let (mut untraced, mut traced_wall, mut fold) = (0.0, 0.0, 0.0);
    for c in &configs {
        let (mut plain, mut spanned, mut layers) = (f64::MAX, f64::MAX, f64::MAX);
        for rep in 0..REPEATS {
            let t = Instant::now();
            let r = sweep(c);
            let took = t.elapsed();
            trace.add("analysis.sweep.run_sweep", took.as_nanos() as u64);
            plain = plain.min(took.as_nanos() as f64);
            match r {
                Ok(r) if rep == 0 => reports.push(r),
                Ok(_) => {}
                Err(e) => out.check("run_sweep", Err(e)),
            }
            let before = call_layers_ns(&trace);
            let t = Instant::now();
            if let Err(e) = traced_job(c, &mut trace, &mut counts) {
                out.check("traced_job", Err(e));
            }
            spanned = spanned.min(t.elapsed().as_nanos() as f64);
            layers = layers.min((call_layers_ns(&trace) - before) as f64);
        }
        untraced += plain;
        traced_wall += spanned;
        fold += plain - layers;
    }

    let exps: u64 = reports.iter().map(experiments).sum();
    let reported_isolations: u64 = reports
        .iter()
        .flat_map(|r| &r.cells)
        .map(|c| c.estimate.false_isolation.successes)
        .sum::<u64>()
        * REPEATS as u64;
    out.check(
        "traced_matches_run_sweep",
        if reported_isolations == counts.isolations {
            Ok(())
        } else {
            Err(format!(
                "traced decomposition isolated {} victims, run_sweep reported {reported_isolations}",
                counts.isolations
            ))
        },
    );
    let traced_exps = exps * REPEATS as u64;
    let per_exp = |ns: u64| ns as f64 / traced_exps.max(1) as f64;
    let gen = trace.total_ns("fault.sampled.sampled_schedule");
    let plan = trace.total_ns("fault.batch_eval.lane_plan")
        + trace.total_ns("fault.batch_eval.lane_params");
    let setup = trace.total_ns("sim.batch.BatchCluster::new")
        + trace.total_ns("core.batch.BatchDiagJob::new");
    let stepped = trace.total_ns("sim.batch.run_lane_rounds");
    let job_ns: u64 = JOB_LAYERS.iter().map(|l| trace.total_ns(l)).sum();
    let live: u64 = counts.live.iter().sum();
    let lane_rounds: u64 = counts.stepped.iter().sum();
    out.metric("fault.sampled.gen_ns_per_exp", per_exp(gen), traced_exps);
    out.metric(
        "fault.batch_eval.plan_ns_per_exp",
        per_exp(plan),
        traced_exps,
    );
    out.metric(
        "sim.batch.setup_us_per_batch",
        setup as f64 / 1e3 / counts.batches.max(1) as f64,
        counts.batches,
    );
    out.metric(
        "sim.batch.slot_ns_per_lane_round",
        stepped.saturating_sub(job_ns) as f64 / live.max(1) as f64,
        live,
    );
    for (slot, name) in [
        "core.batch.job_ns_per_lane_round.n4",
        "core.batch.job_ns_per_lane_round.n8",
        "core.batch.job_ns_per_lane_round.n16",
    ]
    .into_iter()
    .enumerate()
    {
        if counts.live[slot] > 0 {
            let ns = trace.total_ns(JOB_LAYERS[slot]) as f64 / counts.live[slot] as f64;
            out.metric(name, ns, counts.live[slot]);
        }
    }
    out.metric(
        "sim.batch.live_lane_share",
        live as f64 / lane_rounds.max(1) as f64,
        lane_rounds,
    );
    // May read below zero when host load slows every decomposed repeat
    // of a job; reported as measured.
    out.metric(
        "analysis.sweep.fold_ns_per_exp",
        fold / exps.max(1) as f64,
        exps,
    );
    let fallback = reports
        .iter()
        .flat_map(|r| &r.cells)
        .filter(|c| !c.estimate.batched)
        .count();
    out.metric(
        "analysis.sweep.scalar_fallback_cells",
        fallback as f64,
        reports.iter().map(|r| r.cells.len() as u64).sum(),
    );
    out.metric(
        "trace.overhead_share",
        traced_wall / untraced,
        configs.len() as u64,
    );
    let mut expected = vec!["analysis.sweep.run_sweep"];
    expected.extend(CALL_LAYERS);
    expected.extend(JOB_LAYERS);
    out.check("non_vacuous_trace", trace.expect_layers(&expected));
    out.attempted = exps;
    out.note("layer_calls", trace.summary());
}
