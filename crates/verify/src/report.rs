//! Aggregation of run records and law results into a certification report.
//!
//! Two renderings of the same data:
//!
//! * [`VerifyReport::render`] — a human-readable summary table for the
//!   terminal / CI log;
//! * [`VerifyReport::to_json`] — the machine-readable `VERIFY_report.json`
//!   (built on the workspace's own [`Json`] tree, whose `BTreeMap` object
//!   representation makes key order — and therefore the bytes — fully
//!   deterministic for a given corpus).

use std::collections::BTreeMap;

use urbane_geom::geojson::Json;

use crate::metamorphic::LawResult;
use crate::runner::RunRecord;

/// Per-execution-mode rollup across every scenario in the corpus.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModeSummary {
    /// Total runs of this mode (across scenarios × tilings × row orders).
    pub runs: usize,
    /// Runs that asserted a bound (budget or exactness) rather than only
    /// observing the error (MIN/MAX under approximate modes observe only).
    pub certified_runs: usize,
    /// Max over runs of the max per-region `|approx − exact|`.
    pub max_abs_err: f64,
    /// Max over runs of error/budget utilisation (certified runs only).
    pub max_budget_util: f64,
    /// Failed runs of this mode.
    pub failures: usize,
}

/// The full harness outcome.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Distinct scenarios executed through the differential runner.
    pub scenarios: usize,
    /// Total differential runs recorded.
    pub runs: usize,
    /// Per-mode rollups, keyed by the run's mode label.
    pub modes: BTreeMap<String, ModeSummary>,
    /// Metamorphic law executions.
    pub law_runs: usize,
    /// Distinct law names exercised (the acceptance floor counts these).
    pub law_names: std::collections::BTreeSet<&'static str>,
    /// Human-readable law violations (empty = all laws held).
    pub law_failures: Vec<String>,
    /// Human-readable differential failures (empty = all runs passed).
    pub failures: Vec<String>,
}

impl VerifyReport {
    /// Empty report, ready to absorb records.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one scenario's run records in.
    pub fn add_runs(&mut self, records: &[RunRecord]) {
        self.scenarios += 1;
        for r in records {
            self.runs += 1;
            let m = self.modes.entry(r.mode.to_string()).or_default();
            m.runs += 1;
            m.max_abs_err = m.max_abs_err.max(r.max_abs_err);
            if r.certified {
                m.certified_runs += 1;
                m.max_budget_util = m.max_budget_util.max(r.max_budget_util);
            }
            if !r.passed() {
                m.failures += 1;
                for f in &r.failures {
                    self.failures.push(format!(
                        "{} [{} {} tiles {}]: {}",
                        r.scenario, r.mode, r.tiles, r.order, f
                    ));
                }
            }
        }
    }

    /// Fold one scenario's law results in.
    pub fn add_laws(&mut self, laws: &[LawResult]) {
        for l in laws {
            self.law_runs += 1;
            self.law_names.insert(l.law);
            if let Some(v) = &l.violation {
                self.law_failures.push(format!("{} [{}]: {}", l.scenario, l.law, v));
            }
        }
    }

    /// Total certified runs across modes.
    pub fn certified_runs(&self) -> usize {
        self.modes.values().map(|m| m.certified_runs).sum()
    }

    /// Did every differential run and every law pass?
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.law_failures.is_empty()
    }

    /// The `VERIFY_report.json` document (deterministic byte-for-byte for a
    /// given corpus: objects are `BTreeMap`-ordered).
    pub fn to_json(&self) -> String {
        let mode_obj = |m: &ModeSummary| {
            let mut o = BTreeMap::new();
            o.insert("runs".to_string(), Json::Number(m.runs as f64));
            o.insert("certified_runs".to_string(), Json::Number(m.certified_runs as f64));
            o.insert("max_abs_err".to_string(), Json::Number(m.max_abs_err));
            o.insert("max_budget_util".to_string(), Json::Number(m.max_budget_util));
            o.insert("failures".to_string(), Json::Number(m.failures as f64));
            Json::Object(o)
        };
        let strings = |xs: &[String]| Json::Array(xs.iter().cloned().map(Json::String).collect());

        let mut laws = BTreeMap::new();
        laws.insert("runs".to_string(), Json::Number(self.law_runs as f64));
        laws.insert(
            "names".to_string(),
            Json::Array(
                self.law_names.iter().map(|n| Json::String(n.to_string())).collect(),
            ),
        );
        laws.insert("failures".to_string(), strings(&self.law_failures));

        let mut root = BTreeMap::new();
        root.insert("schema".to_string(), Json::String("urbane-verify/1".to_string()));
        root.insert("scenarios".to_string(), Json::Number(self.scenarios as f64));
        root.insert("runs".to_string(), Json::Number(self.runs as f64));
        root.insert("certified_runs".to_string(), Json::Number(self.certified_runs() as f64));
        root.insert("passed".to_string(), Json::Bool(self.passed()));
        root.insert(
            "modes".to_string(),
            Json::Object(
                self.modes.iter().map(|(k, m)| (k.clone(), mode_obj(m))).collect(),
            ),
        );
        root.insert("laws".to_string(), Json::Object(laws));
        root.insert("failures".to_string(), strings(&self.failures));
        Json::Object(root).to_string()
    }

    /// Terminal summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "urbane-verify: {} scenarios, {} runs ({} certified), {} law checks\n",
            self.scenarios,
            self.runs,
            self.certified_runs(),
            self.law_runs
        ));
        out.push_str(&format!(
            "{:<18} {:>5} {:>10} {:>13} {:>15} {:>9}\n",
            "mode", "runs", "certified", "max_abs_err", "max_budget_util", "failures"
        ));
        for (mode, m) in &self.modes {
            out.push_str(&format!(
                "{:<18} {:>5} {:>10} {:>13.6} {:>15.4} {:>9}\n",
                mode, m.runs, m.certified_runs, m.max_abs_err, m.max_budget_util, m.failures
            ));
        }
        for f in self.failures.iter().chain(&self.law_failures) {
            out.push_str(&format!("FAIL {f}\n"));
        }
        out.push_str(if self.passed() { "VERIFY: PASS\n" } else { "VERIFY: FAIL\n" });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mode: &'static str, err: f64, fail: bool) -> RunRecord {
        RunRecord {
            scenario: "s".to_string(),
            mode,
            tiles: 1,
            order: "generator",
            epsilon: 0.5,
            zones: Default::default(),
            max_abs_err: err,
            max_budget_util: err / 10.0,
            certified: true,
            failures: if fail { vec!["boom".to_string()] } else { Vec::new() },
        }
    }

    #[test]
    fn report_rolls_up_modes_and_failures() {
        let mut rep = VerifyReport::new();
        rep.add_runs(&[run("bounded", 1.0, false), run("bounded", 3.0, false)]);
        rep.add_runs(&[run("accurate", 0.0, true)]);
        assert_eq!(rep.scenarios, 2);
        assert_eq!(rep.runs, 3);
        assert_eq!(rep.modes["bounded"].max_abs_err, 3.0);
        assert_eq!(rep.modes["accurate"].failures, 1);
        assert!(!rep.passed());
        let json = rep.to_json();
        assert!(json.contains("\"schema\":\"urbane-verify/1\""));
        assert!(json.contains("\"passed\":false"));
        let human = rep.render();
        assert!(human.contains("VERIFY: FAIL"));
        assert!(human.contains("boom"));
    }

    #[test]
    fn json_is_deterministic() {
        let mut a = VerifyReport::new();
        let mut b = VerifyReport::new();
        for rep in [&mut a, &mut b] {
            rep.add_runs(&[run("weighted", 2.0, false)]);
            rep.add_laws(&[LawResult {
                law: "translation",
                scenario: "s".to_string(),
                violation: None,
            }]);
        }
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.passed());
    }
}
