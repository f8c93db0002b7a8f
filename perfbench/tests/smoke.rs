//! The benchmark's own tests: a tiny run of every workload prints every
//! named metric with its unit, and every output check fires on a planted
//! mismatch.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::time::Duration;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::serve::{check_job, JobTrace};
use perfbench::trace::Trace;
use perfbench::{campaign, explore, run, sweep, Opts, Scale, WORKLOADS};
use tt_analysis::{run_sweep, SweepSupervisor};
use tt_bench::{JobSpec, JobState};
use tt_fault::{
    execute_schedule, observe_schedule, observe_schedules_batched, run_campaign, sec8_classes,
    ExploreConfig, ObservedIsolation,
};

fn opts(trace: bool, tag: &str) -> Opts {
    Opts {
        seed: 3,
        seconds: 0.01,
        trace,
        scale: Scale::Tiny,
        threads: 2,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}")),
    }
}

fn assert_prints_catalogue(workload: &str, trace: bool) {
    let outcome = run(workload, &opts(trace, &format!("{workload}-{trace}"))).expect("runs");
    let failed: Vec<_> = outcome.checks.iter().filter(|(_, r)| r.is_err()).collect();
    assert!(failed.is_empty(), "{workload} (trace {trace}): {failed:?}");
    assert!(outcome.correct());
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let json = outcome.result_json();
    for (name, unit) in catalogue {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = json
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {json}"));
        let rest = &json[at + entry.len()..];
        let close = rest.find('}').expect("entry closes");
        assert!(
            rest[..close].ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} unit in {}",
            &rest[..close]
        );
    }
    assert_eq!(
        outcome.metrics.len(),
        catalogue.len(),
        "{workload}: no extra metrics"
    );
    if !trace {
        for m in &outcome.metrics {
            assert!(
                m.value > 0.0,
                "{workload}: end-to-end {} is {}",
                m.name,
                m.value
            );
        }
    }
    assert!(outcome.attempted >= 1);
    let record = outcome.record_json(&tt_bench::HostFingerprint::detect());
    assert!(record.contains("\"seed\": 3") && record.contains("\"cpu_model\""));
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        assert_prints_catalogue(w, false);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in WORKLOADS {
        assert_prints_catalogue(w, true);
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run("net", &opts(false, "unknown")).is_err());
}

#[test]
fn non_vacuity_check_fires_on_a_silent_layer() {
    let mut t = Trace::new();
    t.add("a", 5);
    assert!(t.expect_layers(&["a"]).is_ok());
    let err = t.expect_layers(&["a", "b"]).unwrap_err();
    assert!(err.contains('b'), "{err}");
}

#[test]
fn sweep_check_fires_on_planted_mismatches() {
    let o = opts(false, "sweep-check");
    let config = sweep::config(&o, 0);
    let report = run_sweep(&config, &SweepSupervisor::default())
        .expect("sweep")
        .report;
    assert!(sweep::check_report(&config, &report).is_ok());

    let cell = &config.cells()[0];
    let done = &report.cells[0];
    let crit = vec![cell.criticality; cell.n];
    let schedules = sweep::cell_schedules(&config, cell);
    let batched = observe_schedules_batched(&schedules, &crit).expect("lockstep");
    let scalar: Vec<_> = schedules
        .iter()
        .take(2)
        .map(|s| observe_schedule(s, &crit))
        .collect();
    assert!(sweep::check_cell(done, &schedules, &batched, &scalar).is_ok());

    // A scalar re-observation that disagrees with the lockstep one.
    let mut planted = scalar.clone();
    planted[0].forgiveness += 1;
    assert!(sweep::check_cell(done, &schedules, &batched, &planted).is_err());

    // A lockstep observation that disagrees with the report's counts.
    let mut wrong = batched.clone();
    wrong[1].isolations.push(ObservedIsolation {
        subject: 0,
        diagnosed: 9,
        decided_at: 12,
    });
    wrong[1].forgiveness += 1;
    assert!(sweep::check_cell(done, &schedules, &wrong, &[]).is_err());
}

#[test]
fn campaign_checks_fire_on_planted_mismatches() {
    let classes = sec8_classes(campaign::N);
    let a = run_campaign(&classes, campaign::N, 1, 11).outcomes;
    assert!(campaign::check_matches(&a, &a).is_ok());
    let mut flipped = a.clone();
    flipped[3].passed = !flipped[3].passed;
    assert!(campaign::check_matches(&a, &flipped).is_err());
    assert!(campaign::check_matches(&a, &a[1..]).is_err());

    let o = opts(false, "campaign-check");
    let mut outcome = tt_bench::SupervisedCampaign {
        classes: &classes,
        n: campaign::N,
        reps: 1,
        base_seed: 11,
        config: tt_bench::SupervisorConfig {
            threads: o.threads,
            ..tt_bench::SupervisorConfig::default()
        },
    }
    .run(&tt_fault::NoHarnessFaults)
    .expect("campaign");
    assert!(campaign::check_passed(&outcome).is_ok());
    assert_eq!(campaign::failures(&outcome), 0);
    outcome.result.outcomes[0].passed = false;
    assert!(campaign::check_passed(&outcome).is_err());
    assert_eq!(campaign::failures(&outcome), 1);
}

#[test]
fn explore_checks_fire_on_planted_mismatches() {
    let cfg = ExploreConfig {
        budget: 30,
        seed: 5,
        ..ExploreConfig::default()
    };
    let a = explore::session(&cfg);
    assert!(explore::check_identical(&a, &explore::session(&cfg)).is_ok());
    let mut b = a.clone();
    b.unique_states += 1;
    assert!(explore::check_identical(&a, &b).is_err());

    // A counterexample whose schedule passes every oracle does not
    // reproduce; one whose violations differ does not either.
    let passing = a.corpus[0].clone();
    let exec = execute_schedule(&passing);
    assert!(exec.verdict.ok());
    let cex = tt_fault::Counterexample {
        original: passing.clone(),
        shrunk: passing,
        violations: vec!["theorem1: planted".into()],
        shrink_steps: 0,
    };
    assert!(explore::check_counterexample(&cex, &exec).is_err());
    let mut failing = exec.clone();
    failing.verdict.theorem1.push("Consistency".into());
    assert!(explore::check_counterexample(&cex, &failing).is_err());
    let reproduced = tt_fault::Counterexample {
        violations: failing.verdict.all(),
        ..cex
    };
    assert!(explore::check_counterexample(&reproduced, &failing).is_ok());
}

#[test]
fn serve_check_fires_on_planted_mismatches() {
    let ok = JobTrace {
        spec: JobSpec::TuneSweep { chunk: 25 },
        id: 1,
        queue_wait: Duration::ZERO,
        latency: Duration::from_millis(1),
        chunks: Vec::new(),
        checkpoint_bytes: Vec::new(),
        settled: 48,
        total: 48,
        passed: true,
        state: JobState::Done,
    };
    assert!(check_job(&ok).is_ok());
    assert!(check_job(&JobTrace {
        settled: 47,
        ..ok.clone()
    })
    .is_err());
    assert!(check_job(&JobTrace {
        passed: false,
        ..ok.clone()
    })
    .is_err());
    // An explore job that found counterexamples ends not Passed; the run
    // checks those by reproduction instead.
    let explore = JobTrace {
        spec: JobSpec::Explore {
            nodes: 4,
            rounds: 24,
            budget: 30,
            seed: 1,
            chunk: 25,
        },
        passed: false,
        ..ok.clone()
    };
    assert!(check_job(&explore).is_ok());
    assert!(check_job(&JobTrace {
        state: JobState::Halted,
        ..explore
    })
    .is_err());
    assert!(check_job(&JobTrace {
        state: JobState::Halted,
        ..ok
    })
    .is_err());
}
