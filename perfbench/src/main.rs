//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload sweep|campaign|explore|serve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), then the
//! run record (workload, seed, host fingerprint, checks, notes) and, as the
//! last line, the result object. Exits 1 when an output check fails and 2
//! on a usage error.

use std::process::ExitCode;

use perfbench::{run, Opts, Scale, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {}|all --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(&format!("bad --seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => seconds = v,
                _ => return usage(&format!("bad --seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad --trace {value:?}")),
            },
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let work_dir = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("perfbench-work"),
        Err(e) => return usage(&format!("cannot locate the benchmark binary: {e}")),
    };
    let opts = Opts {
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work_dir,
    };
    let host = tt_bench::HostFingerprint::detect();
    let mut all_correct = true;
    for name in names {
        let outcome = match run(name, &opts) {
            Ok(o) => o,
            Err(e) => return usage(&e),
        };
        all_correct &= outcome.correct();
        print!("{}", outcome.table());
        println!("{}", outcome.record_json(&host));
        println!("{}", outcome.result_json());
    }
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
