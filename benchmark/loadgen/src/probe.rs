//! The traced run: hand the window's request bodies to `benchmark/probe`,
//! which replays them in-process, and read its per-layer metrics back.
//!
//! The probe links the workspace crates, so a refactor can break its build
//! without touching anything the gate depends on. That must not fail a
//! run: without a probe, every probed metric reads 0 and
//! `bench.probe_available` says why.

use crate::json::Json;
use crate::metrics::{Metric, PROBED};
use crate::report::Traced;
use crate::runner::{RunConfig, WorkloadRun};
use std::path::Path;
use std::process::{Command, Stdio};

/// The replay is untimed by the driver; this keeps it near the window's length.
const REPLAY_BUDGET_S: f64 = 8.0;

pub fn trace(cfg: &RunConfig, probe_bin: Option<&Path>, run: &WorkloadRun) -> Traced {
    match probe_bin
        .ok_or_else(|| "benchmark/probe was not built".to_string())
        .and_then(|bin| replay(cfg, bin, run))
    {
        Ok(values) => Traced {
            probed: PROBED
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: if name == "bench.probe_available" {
                        1.0
                    } else {
                        values
                            .get(name)
                            .and_then(|m| m.get("value"))
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0)
                    },
                })
                .collect(),
            note: None,
        },
        Err(why) => Traced {
            probed: PROBED
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                })
                .collect(),
            note: Some(format!("no traced replay, probed metrics read 0: {why}")),
        },
    }
}

fn replay(cfg: &RunConfig, bin: &Path, run: &WorkloadRun) -> Result<Json, String> {
    let w = &run.workload;
    let requests = cfg.out_dir.join(format!("requests-{}.jsonl", w.name));
    std::fs::write(&requests, run.sent.join("\n"))
        .map_err(|e| format!("{}: {e}", requests.display()))?;
    let budget = if cfg.quick {
        REPLAY_BUDGET_S / 20.0
    } else {
        REPLAY_BUDGET_S
    };
    let out = Command::new(bin)
        .arg("--workload")
        .arg(w.name)
        .arg("--requests")
        .arg(&requests)
        .arg("--rows")
        .arg(w.rows.to_string())
        .arg("--store-rows")
        .arg(w.store_rows.unwrap_or(0).to_string())
        .arg("--out-dir")
        .arg(&cfg.out_dir)
        .arg("--seconds")
        .arg(budget.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", bin.display(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("the probe printed nothing")?;
    let doc = Json::parse(last).map_err(|e| format!("the probe's report does not parse: {e}"))?;
    doc.get("metrics")
        .cloned()
        .ok_or_else(|| "the probe's report has no \"metrics\"".to_string())
}
