//! `explore`: coverage-guided `Explorer` sessions for the diag, membership
//! and low-latency variants on one thread — the `ttdiag explore` path.
//!
//! The only workload that runs `MembershipJob`, `LowLatCluster`, the
//! Theorem 2 oracles, fingerprint hashing, mutation and shrinking. Its
//! clusters are short (24 rounds), so cluster build and oracle cost weigh
//! more than in `campaign`. A job is one session; a cycle is one session
//! per variant, sized so that no variant dominates the cycle (a lowlat
//! schedule costs about 3.4× a diag one).
//!
//! A run is a fixed number of cycles, set by `--seconds` and
//! [`CYCLE_SECONDS`], not a timed loop: the sessions' counterexamples count
//! as failed schedules, so a given seed and run length must always attempt
//! the same sessions and report the same failures, however fast the host
//! runs that day.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tt_core::{DiagJob, MembershipJob, ProtocolConfig};
use tt_fault::{
    execute_schedule, no_extra_oracle, round_for, schedule_pipeline, Counterexample, ExploreConfig,
    ExploreReport, Explorer, FaultSchedule, ProtocolUnderTest, ScheduleExec,
};
use tt_sim::{ClusterBuilder, Job, NodeId};

use crate::report::{median, median_rate, ms, peak_rss_mb, record_latency, Outcome};
use crate::trace::{JobTimes, TimedJob, Trace};
use crate::{derive_seed, fixed_cycles, fold_digest, timed_setup, Opts, Scale};

/// The variants of one cycle, with their labels.
pub const VARIANTS: [(ProtocolUnderTest, &str); 3] = [
    (ProtocolUnderTest::Diag, "diag"),
    (ProtocolUnderTest::Membership, "membership"),
    (ProtocolUnderTest::Lowlat, "lowlat"),
];

/// Corpus schedules replayed per variant on timed-job clusters.
const REPLAY_CAP: usize = 2_000;

/// Schedule executions of one session of variant `v`. The diag budget is
/// the one at which the known Theorem 1 consistency counterexamples show
/// (`NOTES.md`); the others are sized to take about as long.
pub fn budget(opts: &Opts, v: usize) -> u64 {
    match opts.scale {
        Scale::Full => [20_000, 20_000, 7_000][v],
        Scale::Tiny => 40,
    }
}

/// The configuration of variant `v`'s session in cycle `cycle`. Cycle 0
/// uses the workload seed itself, so `--seed S` reproduces
/// `ttdiag explore --seed S --budget B --protocol P`.
pub fn config(opts: &Opts, cycle: u64, v: usize) -> ExploreConfig {
    ExploreConfig {
        protocol: VARIANTS[v].0,
        budget: budget(opts, v),
        seed: if cycle == 0 {
            opts.seed
        } else {
            derive_seed(opts.seed, cycle)
        },
        ..ExploreConfig::default()
    }
}

/// One complete session.
pub fn session(cfg: &ExploreConfig) -> ExploreReport {
    let mut s = Explorer::new(cfg, &[]);
    while s.step(&no_extra_oracle) {}
    s.into_report()
}

/// Nominal seconds of one cycle on the reference host (`NOTES.md`).
pub const CYCLE_SECONDS: f64 = 5.0;

/// Schedule executions between two clock reads of a timed session.
pub const SLICE: u64 = 1_000;

/// One complete session, driven like [`session`], with the steps and the
/// time of each [`SLICE`] of it.
pub fn timed_session(cfg: &ExploreConfig) -> (ExploreReport, Vec<(u64, f64)>) {
    let mut s = Explorer::new(cfg, &[]);
    let mut slices = Vec::new();
    let (mut t, mut steps) = (Instant::now(), 0);
    while s.step(&no_extra_oracle) {
        steps += 1;
        if steps == SLICE {
            slices.push((steps, t.elapsed().as_secs_f64()));
            (t, steps) = (Instant::now(), 0);
        }
    }
    if steps > 0 {
        slices.push((steps, t.elapsed().as_secs_f64()));
    }
    (s.into_report(), slices)
}

/// Two runs of one seed gave identical reports.
pub fn check_identical(first: &ExploreReport, again: &ExploreReport) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!(
            "reports differ: executed {} vs {}, unique states {} vs {}, corpus {} vs {}, \
             counterexamples {} vs {}",
            first.executed,
            again.executed,
            first.unique_states,
            again.unique_states,
            first.corpus.len(),
            again.corpus.len(),
            first.counterexamples.len(),
            again.counterexamples.len()
        ))
    }
}

/// A counterexample's shrunk schedule, re-executed, still fails with the
/// reported violations.
pub fn check_counterexample(cex: &Counterexample, exec: &ScheduleExec) -> Result<(), String> {
    if exec.verdict.ok() {
        return Err(format!("counterexample {:?} no longer fails", cex.shrunk));
    }
    if exec.verdict.all() != cex.violations {
        return Err(format!(
            "counterexample reproduces {:?}, reported {:?}",
            exec.verdict.all(),
            cex.violations
        ));
    }
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// Never; check failures are recorded in the outcome.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new("explore", opts.seed, opts.trace);
    let warm_budget = match opts.scale {
        Scale::Full => 600,
        Scale::Tiny => 10,
    };
    let ((), setup_s, setup_reps) = timed_setup(|| {
        for (v, _) in VARIANTS.iter().enumerate() {
            session(&ExploreConfig {
                budget: warm_budget,
                ..config(opts, u64::MAX, v)
            });
        }
    });
    if opts.trace {
        traced(opts, &mut out);
        return Ok(out);
    }
    out.metric("setup_s", setup_s, setup_reps);

    // Sessions run in whole cycles. Each report is reduced as it finishes
    // (its counterexamples); cycle 0 is kept whole for the determinism
    // check and the digest.
    let variants = VARIANTS.len() as u64;
    let c = fixed_cycles(opts.seconds, CYCLE_SECONDS);
    let mut first_cycle = Vec::new();
    let sessions: Vec<_> = (0..c * variants)
        .map(|i| {
            let t = Instant::now();
            let (report, slices) =
                timed_session(&config(opts, i / variants, (i % variants) as usize));
            let took = t.elapsed();
            let summary = Summary::of(&report);
            if i < variants {
                first_cycle.push(report);
            }
            ((summary, slices), took)
        })
        .collect();
    out.metric("peak_rss_mb", peak_rss_mb(), 1);

    let executed: u64 = sessions.iter().map(|((r, _), _)| r.executed).sum();
    let shrinks: u64 = sessions.iter().map(|((r, _), _)| r.shrink_steps).sum();
    // Sessions are few and long, so the median is taken over slices:
    // every slice of one variant's sessions is one sample of that kind.
    let slices: Vec<(usize, f64, f64)> = sessions
        .iter()
        .enumerate()
        .flat_map(|(i, ((_, slices), _))| {
            slices
                .iter()
                .map(move |&(steps, secs)| (i % VARIANTS.len(), steps as f64, secs))
        })
        .collect();
    let rate = median_rate(&slices);
    out.metric("schedules_per_s", rate, slices.len() as u64);
    out.metric(
        "experiments_per_s",
        rate * (executed + shrinks) as f64 / executed.max(1) as f64,
        slices.len() as u64,
    );
    let latencies: Vec<f64> = sessions.iter().map(|(_, d)| ms(*d)).collect();
    record_latency(&mut out, &latencies);
    out.attempted = executed;
    out.failed = sessions
        .iter()
        .map(|((r, _), _)| r.counterexamples.len() as u64)
        .sum();

    for (i, ((r, _), _)) in sessions.iter().enumerate() {
        let label = VARIANTS[i % VARIANTS.len()].1;
        for (k, cex) in r.counterexamples.iter().enumerate() {
            out.check(
                &format!("session{i}_{label}_counterexample{k}_reproduces"),
                check_counterexample(cex, &execute_schedule(&cex.shrunk)),
            );
            out.note(
                &format!("counterexample.session{i}.{label}.{k}"),
                format!("{:?}", cex.violations),
            );
        }
    }
    for (v, first) in first_cycle.iter().enumerate() {
        let again = session(&config(opts, 0, v));
        out.check(
            &format!("{}_same_seed_same_report", VARIANTS[v].1),
            check_identical(first, &again),
        );
    }
    out.note("cycles", c);
    let digest = first_cycle.iter().fold(0, fold_digest);
    out.note("digest.cycle0", format!("{digest:016x}"));
    Ok(out)
}

/// What the timed loop keeps of one session's report.
struct Summary {
    executed: u64,
    shrink_steps: u64,
    counterexamples: Vec<Counterexample>,
}

impl Summary {
    fn of(r: &ExploreReport) -> Self {
        Summary {
            executed: r.executed,
            shrink_steps: r.shrink_steps,
            counterexamples: r.counterexamples.clone(),
        }
    }
}

/// Replays `corpus` on clusters whose jobs are wrapped in [`TimedJob`];
/// returns (`run_rounds` ns, rounds run, job ns) and records the spans.
fn replay(
    corpus: &[FaultSchedule],
    protocol: ProtocolUnderTest,
    trace: &mut Trace,
) -> Result<(u64, u64, u64), String> {
    let (span, job_layer) = match protocol {
        ProtocolUnderTest::Diag => (
            "sim.engine.Cluster::run_rounds.diag",
            "core.protocol.DiagJob::execute",
        ),
        _ => (
            "sim.engine.Cluster::run_rounds.membership",
            "core.membership.MembershipJob::execute",
        ),
    };
    let times = Arc::new(JobTimes::default());
    let mut rounds = 0u64;
    for s in corpus.iter().take(REPLAY_CAP) {
        let cfg = ProtocolConfig::builder(s.n)
            .penalty_threshold(s.penalty_threshold)
            .reward_threshold(s.reward_threshold)
            .build()
            .map_err(|e| format!("corpus schedule config: {e}"))?;
        let t = Arc::clone(&times);
        let mut cluster = ClusterBuilder::new(s.n)
            .round_length(round_for(s.n))
            .build_with_jobs(
                move |id| {
                    let inner: Box<dyn Job> = match protocol {
                        ProtocolUnderTest::Diag => {
                            Box::new(DiagJob::new(id, cfg.clone()).with_counter_trace())
                        }
                        _ => Box::new(MembershipJob::new(id, cfg.clone())),
                    };
                    Box::new(TimedJob::new(inner, Arc::clone(&t)))
                },
                schedule_pipeline(s),
            );
        rounds += trace.span(span, || cluster.run_rounds(s.rounds));
        let node = NodeId::from_slot(0);
        let downcast = match protocol {
            ProtocolUnderTest::Diag => cluster.job_as::<DiagJob>(node).is_ok(),
            _ => cluster.job_as::<MembershipJob>(node).is_ok(),
        };
        if !downcast {
            return Err("timed job does not delegate as_any".into());
        }
    }
    let calls = times.calls.load(std::sync::atomic::Ordering::Relaxed);
    let job_ns = times.ns.load(std::sync::atomic::Ordering::Relaxed);
    trace.add_bulk(job_layer, calls, job_ns);
    Ok((trace.total_ns(span), rounds, job_ns))
}

const STEP_LAYERS: [&str; 3] = [
    "fault.explore.Explorer::step.diag",
    "fault.explore.Explorer::step.membership",
    "fault.explore.Explorer::step.lowlat",
];
const EXEC_LAYERS: [&str; 3] = [
    "fault.explore.execute_schedule.diag",
    "fault.explore.execute_schedule.membership",
    "fault.explore.execute_schedule.lowlat",
];

fn traced(opts: &Opts, out: &mut Outcome) {
    // Each variant's session runs untraced, then traced, back to back, so
    // both see the same host load.
    let mut trace = Trace::new();
    let (mut untraced, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let mut reports = Vec::new();
    for (v, (_, label)) in VARIANTS.iter().enumerate() {
        let cfg = config(opts, 0, v);
        let t = Instant::now();
        let plain = session(&cfg);
        untraced += t.elapsed();
        let t = Instant::now();
        let mut s = Explorer::new(&cfg, &[]);
        while trace.span(STEP_LAYERS[v], || s.step(&no_extra_oracle)) {}
        let spanned = s.into_report();
        traced_wall += t.elapsed();
        out.check(
            &format!("{label}_traced_same_report"),
            check_identical(&plain, &spanned),
        );
        reports.push(spanned);
    }

    let mut est_exec_ns = 0.0;
    let mut step_ns = 0u64;
    for (v, r) in reports.iter().enumerate() {
        for s in &r.corpus {
            trace.span(EXEC_LAYERS[v], || execute_schedule(s));
        }
        let exec = trace.layer(EXEC_LAYERS[v]);
        let step = trace.layer(STEP_LAYERS[v]);
        // `step` returns false once without executing; that call is not a
        // schedule execution.
        let steps: Vec<f64> = step
            .samples_us()
            .into_iter()
            .take(r.executed as usize)
            .collect();
        let label = VARIANTS[v].1;
        out.metric(
            &format!("fault.explore.step_us.{label}"),
            median(&steps),
            r.executed,
        );
        out.metric(
            &format!("fault.explore.exec_us.{label}"),
            exec.mean_ns() / 1e3,
            exec.calls,
        );
        out.metric(
            &format!("fault.explore.novel_share.{label}"),
            r.corpus.len() as f64 / r.executed.max(1) as f64,
            r.executed,
        );
        est_exec_ns += exec.mean_ns() * r.executed as f64;
        step_ns += step.total_ns;
    }
    out.metric(
        "fault.explore.bookkeeping_share",
        1.0 - est_exec_ns / step_ns.max(1) as f64,
        reports.iter().map(|r| r.executed).sum(),
    );
    let sum = |f: fn(&ExploreReport) -> u64| reports.iter().map(f).sum::<u64>();
    let n = reports.len() as u64;
    out.metric(
        "fault.explore.unique_states",
        sum(|r| r.unique_states) as f64,
        n,
    );
    out.metric(
        "fault.explore.shrink_execs",
        sum(|r| r.shrink_steps) as f64,
        n,
    );
    out.metric(
        "fault.explore.counterexamples",
        sum(|r| r.counterexamples.len() as u64) as f64,
        n,
    );

    let mut engine_ns = 0u64;
    let mut jobs_ns = 0u64;
    let mut all_rounds = 0u64;
    for (v, name) in [
        (0usize, "core.protocol.job_ns_per_round"),
        (1, "core.membership.job_ns_per_round"),
    ] {
        match replay(&reports[v].corpus, VARIANTS[v].0, &mut trace) {
            Ok((cluster_ns, rounds, job_ns)) => {
                out.metric(name, job_ns as f64 / rounds.max(1) as f64, rounds);
                engine_ns += cluster_ns;
                jobs_ns += job_ns;
                all_rounds += rounds;
            }
            Err(e) => out.check("corpus_replay", Err(e)),
        }
    }
    out.metric(
        "sim.engine.slot_ns_per_round",
        engine_ns.saturating_sub(jobs_ns) as f64 / all_rounds.max(1) as f64,
        all_rounds,
    );
    out.metric(
        "trace.overhead_share",
        traced_wall.as_secs_f64() / untraced.as_secs_f64(),
        n,
    );
    let mut expected: Vec<&str> = STEP_LAYERS.to_vec();
    expected.extend(EXEC_LAYERS);
    expected.extend([
        "sim.engine.Cluster::run_rounds.diag",
        "sim.engine.Cluster::run_rounds.membership",
        "core.protocol.DiagJob::execute",
        "core.membership.MembershipJob::execute",
    ]);
    out.check("non_vacuous_trace", trace.expect_layers(&expected));
    out.attempted = sum(|r| r.executed);
    out.failed = sum(|r| r.counterexamples.len() as u64);
    out.note("layer_calls", trace.summary());
}
