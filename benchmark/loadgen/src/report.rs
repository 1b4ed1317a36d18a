//! What a run leaves behind: the metric table on stdout, `result.json`,
//! and the one-line result the driver reads.

use crate::json::Json;
use crate::metrics::Metric;
use crate::runner::WorkloadRun;
use std::path::Path;
use std::process::Command;

/// The traced part of a run: the probe's metrics, or why there are none.
pub struct Traced {
    pub probed: Vec<Metric>,
    pub note: Option<String>,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Every metric of one workload by name, with its unit; latency
/// percentiles carry the sample count they were taken over.
pub fn print_workload(run: &WorkloadRun, traced: Option<&Traced>) {
    let w = &run.workload;
    println!(
        "\n== {} ==  {} client(s), closed loop, {:.2} s window, {} ops attempted (lead-in included), {} failed, {} reloads timed",
        w.name, w.clients, run.window_s, run.attempted, run.failed, run.reloads
    );
    println!("   {}", w.why);
    let row =
        |m: &Metric, note: &str| println!("  {:<36} {:>16.4} {:<8}{note}", m.name, m.value, m.unit);
    for m in &run.end_to_end {
        row(m, &sample_note(m, run.samples));
    }
    let worst = run.audit.worst_bounded_error;
    println!(
        "  audit: {} queries re-issued as index and accurate, {} rejected; worst bounded error by level {:.4} / {:.4} / {:.4}",
        run.audit.audited, run.audit.rejected, worst[0], worst[1], worst[2]
    );
    println!("  -- per layer, scraped --");
    for m in &run.scraped {
        row(m, &sample_note(m, run.samples));
    }
    if let Some(t) = traced {
        println!("  -- per layer, traced replay --");
        for m in &t.probed {
            row(m, "");
        }
        if let Some(note) = &t.note {
            println!("  note: {note}");
        }
    }
    for f in &run.findings {
        println!("  INCORRECT: {f}");
    }
}

/// The scraped metrics, then the probed ones if the run was traced.
fn per_layer(run: &WorkloadRun, traced: Option<&Traced>) -> Vec<Metric> {
    let mut all = run.scraped.clone();
    all.extend(traced.iter().flat_map(|t| t.probed.iter().cloned()));
    all
}

/// Latency percentiles carry the sample count they were taken over.
fn sample_note(m: &Metric, samples: usize) -> String {
    if m.name.contains("query_p") {
        format!(" (n={samples})")
    } else {
        String::new()
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub struct RunHeader<'a> {
    /// CPUs reserved for the server; 0 when it shares one with the generator.
    pub server_cpus: u32,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub server_args: &'a [String],
}

/// `result.json`: where and how the numbers were taken, then the numbers.
pub fn write_result(
    path: &Path,
    header: &RunHeader,
    runs: &[(WorkloadRun, Option<Traced>)],
) -> Result<(), String> {
    let workloads = runs
        .iter()
        .map(|(run, traced)| {
            (
                run.workload.name.to_string(),
                Json::obj([
                    ("clients", Json::Num(run.workload.clients as f64)),
                    ("rows", Json::Num(run.workload.rows as f64)),
                    (
                        "store_rows",
                        run.workload
                            .store_rows
                            .map_or(Json::Null, |r| Json::Num(r as f64)),
                    ),
                    ("attempted", Json::Num(run.attempted as f64)),
                    ("failed", Json::Num(run.failed as f64)),
                    ("query_samples", Json::Num(run.samples as f64)),
                    ("reloads", Json::Num(run.reloads as f64)),
                    ("window_s", Json::Num(run.window_s)),
                    ("correct", Json::Bool(run.findings.is_empty())),
                    (
                        "findings",
                        Json::Arr(run.findings.iter().cloned().map(Json::Str).collect()),
                    ),
                    ("end_to_end", metrics_json(&run.end_to_end)),
                    ("per_layer", metrics_json(&per_layer(run, traced.as_ref()))),
                ]),
            )
        })
        .collect();
    let doc = Json::obj([
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("server_cpus", Json::Num(f64::from(header.server_cpus))),
        ("seed", Json::Num(header.seed as f64)),
        ("seconds", Json::Num(header.seconds)),
        ("quick", Json::Bool(header.quick)),
        // Extra server flags make the run ad hoc: compare refuses it.
        (
            "gated",
            Json::Bool(header.server_args.is_empty() && !header.quick),
        ),
        (
            "server_args",
            Json::Arr(header.server_args.iter().cloned().map(Json::Str).collect()),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// The driver's line: `correct`, `attempted`, `failed` and the end-to-end
/// metrics (tracing off) or the per-layer metrics (tracing on).
pub fn driver_line(run: &WorkloadRun, traced: Option<&Traced>) -> String {
    let metrics = match traced {
        None => metrics_json(&run.end_to_end),
        Some(_) => metrics_json(&per_layer(run, traced)),
    };
    Json::obj([
        ("correct", Json::Bool(run.findings.is_empty())),
        ("attempted", Json::Num(run.attempted.max(1) as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", metrics),
    ])
    .to_text()
}
