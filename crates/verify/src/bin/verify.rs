//! `verify` — run the full differential + metamorphic harness and write
//! `VERIFY_report.json`.
//!
//! ```text
//! verify [--workloads N] [--seed S] [--laws N] [--out PATH] [--full] [--quiet]
//! ```
//!
//! Defaults run the fast CI corpus (15 differential workloads ≈ 245
//! certified runs, laws on 6 workloads) in a few seconds. `--full` — or
//! `VERIFY_FULL=1` in the environment, which is how ci.sh requests the
//! nightly sweep — quadruples the corpus. Exit status is 0 iff every run
//! and every law passed; the report is written either way.

use std::process::ExitCode;

use urbane_verify::metamorphic::run_laws;
use urbane_verify::report::VerifyReport;
use urbane_verify::{corpus, verify_scenario};

/// Seed such that corpora here and in `tests/verify_certification.rs`
/// don't overlap (prefix-stable seeds are consecutive from the base).
const BASE_SEED: u64 = 20_260_805;

struct Args {
    workloads: usize,
    law_workloads: usize,
    seed: u64,
    out: String,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let full_env = std::env::var("VERIFY_FULL").map(|v| v == "1").unwrap_or(false);
    let mut args = Args {
        workloads: 15,
        law_workloads: 6,
        seed: BASE_SEED,
        out: "VERIFY_report.json".to_string(),
        quiet: false,
    };
    let mut full = full_env;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let take = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv.get(i).map(String::as_str) {
            Some("--workloads") => {
                args.workloads =
                    take(&mut i, "--workloads")?.parse().map_err(|e| format!("--workloads: {e}"))?;
            }
            Some("--laws") => {
                args.law_workloads =
                    take(&mut i, "--laws")?.parse().map_err(|e| format!("--laws: {e}"))?;
            }
            Some("--seed") => {
                args.seed = take(&mut i, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            Some("--out") => args.out = take(&mut i, "--out")?,
            Some("--full") => full = true,
            Some("--quiet") => args.quiet = true,
            Some(other) => return Err(format!("unknown argument {other:?}")),
            None => break,
        }
        i += 1;
    }
    if full {
        args.workloads *= 4;
        args.law_workloads *= 2;
    }
    Ok(args)
}

fn run(args: &Args) -> Result<VerifyReport, String> {
    let mut report = VerifyReport::new();

    for s in corpus(args.workloads, args.seed) {
        let records =
            verify_scenario(&s).map_err(|e| format!("differential run {}: {e}", s.name))?;
        if !args.quiet {
            let failed = records.iter().filter(|r| !r.passed()).count();
            let tag = if failed == 0 { "ok" } else { "FAIL" };
            eprintln!("verify: {:<44} {:>3} runs {tag}", s.name, records.len());
        }
        report.add_runs(&records);
    }

    for s in corpus(args.law_workloads, args.seed ^ 0x4C41_5753) {
        let laws = run_laws(&s).map_err(|e| format!("laws on {}: {e}", s.name))?;
        report.add_laws(&laws);
    }

    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verify: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verify: {e}");
            return ExitCode::from(2);
        }
    };

    if let Err(e) = std::fs::write(&args.out, report.to_json()) {
        eprintln!("verify: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }

    print!("{}", report.render());
    println!("report: {}", args.out);
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
