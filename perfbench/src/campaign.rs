//! `campaign`: the Sec. 8 validation campaign on `SupervisedCampaign` at
//! N = 4 with `nproc` worker threads — the `ttdiag campaign` path.
//!
//! Scalar `DiagJob` clusters, fault injection, the Theorem 1 checks, the
//! executor and the supervisor do the work; the lockstep engine sits idle.
//! A job is one supervised campaign of every Sec. 8 class × `reps`, with
//! its own base seed.

use std::time::{Duration, Instant};

use tt_bench::{CampaignExecutor, SupervisedCampaign, SupervisedOutcome, SupervisorConfig};
use tt_fault::{
    experiment_seed, run_campaign, run_experiment, sec8_classes, ExperimentClass,
    ExperimentOutcome, NoHarnessFaults,
};

use crate::report::{median, median_rate, ms, peak_rss_mb, percentile, record_latency, Outcome};
use crate::trace::Trace;
use crate::{closed_loop, derive_seed, fold_digest, timed_setup, Opts, Scale};

/// Cluster size of the campaign (the paper's prototype).
pub const N: usize = 4;

/// Jobs whose outcomes are re-run sequentially through `run_campaign` by
/// the output check.
const VERIFIED_JOBS: usize = 8;

/// Jobs timed (untraced, traced, and on the bare executors) by a traced
/// run.
const TRACED_JOBS: u64 = 4;

/// Repetitions per class of one job: `ttdiag campaign`'s default. A job
/// of about 50 ms spans the sub-10 ms scheduling hiccups of a shared
/// host, so the tail latency measures jobs rather than hiccups.
pub fn reps(opts: &Opts) -> u64 {
    match opts.scale {
        Scale::Full => 100,
        Scale::Tiny => 1,
    }
}

/// The base seed of job `job`.
pub fn base_seed(opts: &Opts, job: u64) -> u64 {
    derive_seed(opts.seed, job)
}

fn supervised<'a>(
    opts: &Opts,
    classes: &'a [ExperimentClass],
    base_seed: u64,
) -> SupervisedCampaign<'a> {
    SupervisedCampaign {
        classes,
        n: N,
        reps: reps(opts),
        base_seed,
        config: SupervisorConfig {
            threads: opts.threads,
            ..SupervisorConfig::default()
        },
    }
}

fn run_job(
    opts: &Opts,
    classes: &[ExperimentClass],
    base_seed: u64,
) -> Result<SupervisedOutcome, String> {
    supervised(opts, classes, base_seed)
        .run(&NoHarnessFaults)
        .map_err(|e| format!("supervised campaign: {e}"))
}

/// Experiments of `outcome` that failed: not passed, or quarantined.
pub fn failures(outcome: &SupervisedOutcome) -> u64 {
    outcome.result.outcomes.iter().filter(|o| !o.passed).count() as u64
        + outcome.supervision.quarantined.len() as u64
}

/// Every experiment passed and none was quarantined.
pub fn check_passed(outcome: &SupervisedOutcome) -> Result<(), String> {
    if let Some(q) = outcome.supervision.quarantined.first() {
        return Err(format!(
            "{} quarantined, first {q:?}",
            outcome.supervision.quarantined.len()
        ));
    }
    match outcome.result.outcomes.iter().find(|o| !o.passed) {
        Some(o) => Err(format!(
            "{} (seed {}) failed: {:?}",
            o.label, o.seed, o.notes
        )),
        None => Ok(()),
    }
}

/// The supervised outcomes equal the sequential ones, in order.
pub fn check_matches(
    supervised: &[ExperimentOutcome],
    sequential: &[ExperimentOutcome],
) -> Result<(), String> {
    if supervised.len() != sequential.len() {
        return Err(format!(
            "{} supervised outcomes, {} sequential",
            supervised.len(),
            sequential.len()
        ));
    }
    match supervised.iter().zip(sequential).position(|(a, b)| a != b) {
        Some(i) => Err(format!(
            "outcome {i} differs: supervised {:?} != sequential {:?}",
            supervised[i], sequential[i]
        )),
        None => Ok(()),
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Never; campaign failures are recorded as failed checks.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new("campaign", opts.seed, opts.trace);
    let (classes, setup_s, setup_reps) = timed_setup(|| {
        let classes = sec8_classes(N);
        // Warm-up: one campaign two jobs long.
        let warm = SupervisedCampaign {
            reps: 2 * reps(opts),
            ..supervised(opts, &classes, base_seed(opts, u64::MAX))
        }
        .run(&NoHarnessFaults)
        .map(drop)
        .map_err(|e| format!("warm-up campaign: {e}"));
        (classes, warm)
    });
    let (classes, warm) = classes;
    out.check("warmup", warm);
    if opts.trace {
        traced(opts, &classes, &mut out);
        return Ok(out);
    }
    out.metric("setup_s", setup_s, setup_reps);

    // Each job is reduced to (settled, failures, check) as it finishes;
    // the first few keep their outcomes for the sequential comparison and
    // the digest.
    let mut verify = Vec::new();
    let jobs = closed_loop(
        opts.seconds,
        1,
        |j| run_job(opts, &classes, base_seed(opts, j)),
        |j, job| {
            let o = job?;
            let settled = o.result.outcomes.len() as u64 + o.supervision.quarantined.len() as u64;
            let kept = (settled, failures(&o), check_passed(&o));
            if (j as usize) < VERIFIED_JOBS {
                verify.push((j, o.result.outcomes));
            }
            Ok::<_, String>(kept)
        },
    );
    out.metric("peak_rss_mb", peak_rss_mb(), 1);
    let mut settled = 0u64;
    for (i, (job, _)) in jobs.iter().enumerate() {
        match job {
            Ok((s, failed, passed)) => {
                settled += s;
                out.failed += failed;
                if let Err(e) = passed {
                    out.check(&format!("job{i}_passed"), Err(e.clone()));
                }
            }
            Err(e) => out.check(&format!("job{i}"), Err(e.clone())),
        }
    }
    let n = jobs.len() as u64;
    let samples: Vec<(&str, f64, f64)> = jobs
        .iter()
        .filter_map(|(j, d)| {
            j.as_ref()
                .ok()
                .map(|(s, ..)| ("campaign", *s as f64, d.as_secs_f64()))
        })
        .collect();
    let rate = median_rate(&samples);
    out.metric("experiments_per_s", rate, n);
    out.metric("schedules_per_s", rate, n);
    let latencies: Vec<f64> = jobs.iter().map(|(_, d)| ms(*d)).collect();
    record_latency(&mut out, &latencies);
    out.attempted = settled;
    out.check("all_passed", Ok(()));
    for (j, outcomes) in &verify {
        let sequential = run_campaign(&classes, N, reps(opts), base_seed(opts, *j));
        out.check(
            &format!("job{j}_matches_run_campaign"),
            check_matches(outcomes, &sequential.outcomes),
        );
    }
    out.note("jobs", jobs.len());
    out.note("threads", opts.threads);
    let digest = verify.iter().fold(0, |d, (_, o)| fold_digest(d, o));
    out.note(
        &format!("digest.jobs0-{}", verify.len()),
        format!("{digest:016x}"),
    );
    Ok(out)
}

fn traced(opts: &Opts, classes: &[ExperimentClass], out: &mut Outcome) {
    let seeds: Vec<u64> = (0..TRACED_JOBS).map(|j| base_seed(opts, j)).collect();
    let mut trace = Trace::new();
    // Every job runs untraced, traced, on the bare executor at `nproc`
    // threads and at one, and experiment by experiment on one thread, back
    // to back, so the ratios compare runs under the same host load.
    let pool = CampaignExecutor::new(opts.threads);
    let single = CampaignExecutor::new(1);
    let mut untraced = Duration::ZERO;
    let mut items = 0u64;
    for &s in &seeds {
        let t = Instant::now();
        if let Err(e) = run_job(opts, classes, s) {
            out.check("untraced_job", Err(e));
        }
        untraced += t.elapsed();
        let supervised = trace.span("bench.supervised.SupervisedCampaign::run", || {
            run_job(opts, classes, s)
        });
        let bare = trace.span("bench.parallel.CampaignExecutor::run", || {
            pool.run(classes, N, reps(opts), s)
        });
        match supervised {
            Ok(o) => {
                out.failed += failures(&o);
                if let Err(e) = check_matches(&o.result.outcomes, &bare.outcomes) {
                    out.check("executor_matches_supervised", Err(e));
                }
            }
            Err(e) => out.check("traced_job", Err(e)),
        }
        trace.span("bench.parallel.CampaignExecutor::run.1thread", || {
            single.run(classes, N, reps(opts), s)
        });
        for (ci, &class) in classes.iter().enumerate() {
            for rep in 0..reps(opts) {
                let seed = experiment_seed(s, ci, rep);
                trace.span("fault.campaign.run_experiment", || {
                    run_experiment(class, N, seed)
                });
                items += 1;
            }
        }
    }
    drop((pool, single));

    let exp = trace.layer("fault.campaign.run_experiment");
    let exp_us = exp.samples_us();
    out.metric(
        "fault.campaign.experiment_us.p50",
        median(&exp_us),
        exp.calls,
    );
    out.metric(
        "fault.campaign.experiment_us.p99",
        percentile(&exp_us, 99.0),
        exp.calls,
    );
    let par = Duration::from_nanos(trace.total_ns("bench.parallel.CampaignExecutor::run"));
    let one = Duration::from_nanos(trace.total_ns("bench.parallel.CampaignExecutor::run.1thread"));
    let sup = Duration::from_nanos(trace.total_ns("bench.supervised.SupervisedCampaign::run"));
    out.metric(
        "bench.parallel.busy_share",
        exp.total_ns as f64 / (par.as_nanos() as f64 * opts.threads as f64),
        items,
    );
    out.metric(
        "bench.parallel.speedup",
        one.as_secs_f64() / par.as_secs_f64(),
        seeds.len() as u64,
    );
    out.metric(
        "bench.supervised.overhead_share",
        1.0 - par.as_secs_f64() / sup.as_secs_f64(),
        seeds.len() as u64,
    );
    out.metric(
        "trace.overhead_share",
        sup.as_secs_f64() / untraced.as_secs_f64(),
        seeds.len() as u64,
    );
    out.check(
        "non_vacuous_trace",
        trace.expect_layers(&[
            "bench.supervised.SupervisedCampaign::run",
            "fault.campaign.run_experiment",
            "bench.parallel.CampaignExecutor::run",
            "bench.parallel.CampaignExecutor::run.1thread",
        ]),
    );
    out.check("executor_matches_supervised", Ok(()));
    out.attempted = items;
    out.note("threads", opts.threads);
    out.note("layer_calls", trace.summary());
}
