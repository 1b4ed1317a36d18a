//! `loadgen` — the benchmark's out-of-process side.
//!
//! ```text
//! loadgen run --bin-dir DIR --out-dir DIR [--probe-bin FILE]
//!             [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
//!             [--quick] [--server-args "--flag value ..."]
//! loadgen compare BENCHMARK.json --a A.json [A2.json ...] --b B.json [...]
//! ```
//!
//! `run` spawns the release `urbane-serve` in its default configuration,
//! drives one workload (or all five) over loopback HTTP, checks every
//! answer, and prints every metric by name. With one `--workload` the last
//! line of stdout is the result object the driver reads. `benchmark/run.sh`
//! builds the binaries and calls this.

mod affinity;
mod answer;
mod compare;
mod http;
mod json;
mod metrics;
mod probe;
mod prom;
mod report;
mod rng;
mod runner;
mod server;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: loadgen run --bin-dir DIR --out-dir DIR [--probe-bin FILE] [--workload W] \
[--seed S] [--seconds T] [--trace [0|1]] [--quick] [--server-args \"...\"]\n       \
loadgen compare BENCHMARK.json --a A.json [...] --b B.json [...]";

struct RunArgs {
    bin_dir: PathBuf,
    out_dir: PathBuf,
    probe_bin: Option<PathBuf>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    server_args: Vec<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        bin_dir: PathBuf::new(),
        out_dir: PathBuf::new(),
        probe_bin: None,
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        server_args: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--bin-dir" => parsed.bin_dir = value()?.into(),
            "--out-dir" => parsed.out_dir = value()?.into(),
            "--probe-bin" => parsed.probe_bin = Some(value()?.into()),
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed: not a whole number")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?
            }
            "--quick" => parsed.quick = true,
            "--server-args" => {
                parsed.server_args = value()?.split_whitespace().map(String::from).collect()
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand a bare `--trace` turns it on.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if parsed.bin_dir.as_os_str().is_empty() || parsed.out_dir.as_os_str().is_empty() {
        return Err("--bin-dir and --out-dir are required".into());
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let selected: Vec<workloads::Workload> = match &args.workload {
        Some(name) => {
            vec![workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?]
        }
        None => workloads::WORKLOADS.to_vec(),
    };
    // Split the CPUs before any thread or child exists, so all inherit it.
    let placement = affinity::CpuSet::allowed()
        .ok()
        .and_then(|all| all.split_last());
    if let Some((_, own)) = &placement {
        own.pin_current()
            .map_err(|e| format!("pinning the load generator: {e}"))?;
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let cfg = runner::RunConfig {
        bins: server::Binaries::in_dir(&args.bin_dir)?,
        out_dir: args.out_dir.clone(),
        seed: args.seed,
        // Smoke scale is a twentieth of the run.
        seconds: if args.quick {
            args.seconds / 20.0
        } else {
            args.seconds
        },
        quick: args.quick,
        server_args: args.server_args.clone(),
        server_cpus: placement.map(|(rest, _)| rest),
    };
    match &cfg.server_cpus {
        Some(cpus) => println!(
            "placement: the server has {} CPU(s), the load generator the last one",
            cpus.count()
        ),
        None => println!("placement: one CPU, shared by the server and the load generator"),
    }

    let mut runs = Vec::new();
    for w in selected {
        let run = runner::run_workload(&cfg, w)?;
        let traced = args
            .trace
            .then(|| probe::trace(&cfg, args.probe_bin.as_deref(), &run));
        report::print_workload(&run, traced.as_ref());
        runs.push((run, traced));
    }
    let header = report::RunHeader {
        server_cpus: cfg.server_cpus.map_or(0, |c| c.count()),
        seed: args.seed,
        seconds: cfg.seconds,
        quick: args.quick,
        server_args: &args.server_args,
    };
    let result = args.out_dir.join("result.json");
    report::write_result(&result, &header, &runs)?;
    println!("\nwrote {}", result.display());

    let correct = runs.iter().all(|(run, _)| run.findings.is_empty());
    if let (Some(_), [(run, traced)]) = (&args.workload, runs.as_slice()) {
        println!("{}", report::driver_line(run, traced.as_ref()));
    }
    Ok(correct)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let (benchmark, rest) = args.split_first().ok_or(USAGE)?;
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    for arg in rest {
        match arg.as_str() {
            "--a" => side = Some(&mut a),
            "--b" => side = Some(&mut b),
            path => side.as_mut().ok_or(USAGE)?.push(path.to_string()),
        }
    }
    compare::compare(benchmark, &a, &b)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Incorrect answers, a failed self-validation or a `worse` row:
        // everything was printed, the exit code says it did not pass.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::from(2)
        }
    }
}
