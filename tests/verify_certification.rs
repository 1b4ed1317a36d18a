//! Acceptance test for the ε-certification harness: the claim the paper
//! makes about Raster Join's error bound, checked end-to-end on the same
//! corpus the `verify` binary and the ci.sh `verify` stage run.
//!
//! * ≥200 budget-certified runs across the execution paths (bounded /
//!   weighted / accurate × tiling {`MAX_TILE`, one tile} × row order
//!   {generator, clustered}, each mode prepared over both orders, and the
//!   index join);
//! * the accurate paths are exact (counts bit-equal to the oracle, value
//!   channels within f32-accumulator tolerance);
//! * the approximate paths stay within their analytic per-region budget;
//! * every metamorphic law holds on its own corpus;
//! * the machine-readable report round-trips through the workspace JSON
//!   parser and says `passed`.

use urbane_geom::geojson::{parse_json, Json};
use urbane_verify::metamorphic::run_laws;
use urbane_verify::report::VerifyReport;
use urbane_verify::runner::MAX_TILE;
use urbane_verify::{corpus, verify_scenario};

/// Same base seed as the `verify` binary, so this test certifies the exact
/// corpus CI publishes a report for.
const BASE_SEED: u64 = 20_260_805;

#[test]
fn epsilon_bound_certified_across_the_execution_matrix() {
    let mut report = VerifyReport::new();
    for s in corpus(15, BASE_SEED) {
        let records = verify_scenario(&s).expect("no executor may fail on the corpus");
        for r in &records {
            assert!(
                r.passed(),
                "{} [{} {} tiles {}]: {:?}",
                r.scenario,
                r.mode,
                r.tiles,
                r.order,
                r.failures
            );
        }
        // Matrix shape: both tilings over both row orders ran, and each
        // mode's prepared replay over both orders. A canvas wider than
        // MAX_TILE splits into several tiles at MAX_TILE; every canvas is
        // one tile in the other run.
        let multi = s.resolution > MAX_TILE;
        for order in ["generator", "clustered"] {
            for mode in ["bounded", "weighted", "accurate"] {
                let tiles: Vec<usize> =
                    records.iter().filter(|r| r.mode == mode && r.order == order).map(|r| r.tiles).collect();
                assert_eq!(tiles.len(), 2, "{}: {mode} × {order} ran {tiles:?}", s.name);
                assert_eq!(tiles[1], 1, "{}: {mode} × {order} single-tile run", s.name);
                assert_eq!(tiles[0] > 1, multi, "{}: {mode} × {order} MAX_TILE run", s.name);
            }
            for mode in ["prepared", "prepared_weighted", "prepared_accurate"] {
                assert!(
                    records.iter().any(|r| r.mode == mode && r.order == order),
                    "{}: missing {mode} × {order}",
                    s.name
                );
            }
        }
        assert_eq!(records.len(), 19, "{}: 3 paths × 2 tilings × 2 orders + 3 × 2 prepared + 1", s.name);
        report.add_runs(&records);
    }

    assert_eq!(report.scenarios, 15);
    assert!(report.runs >= 200, "only {} differential runs", report.runs);
    assert!(
        report.certified_runs() >= 200,
        "only {} certified runs — acceptance demands ≥200",
        report.certified_runs()
    );

    // Every execution path is present, each raster mode also prepared.
    for mode in [
        "bounded",
        "weighted",
        "accurate",
        "prepared",
        "prepared_weighted",
        "prepared_accurate",
        "index_join",
    ] {
        assert!(report.modes.contains_key(mode), "mode {mode} never ran");
    }

    // Exactness where exactness is claimed: the accurate paths' worst
    // observed error is down at f32 roundoff, not at the ε scale.
    for mode in ["accurate", "prepared_accurate"] {
        let m = &report.modes[mode];
        assert_eq!(m.runs, m.certified_runs, "{mode} must certify every run");
        assert!(m.max_abs_err < 1e-2, "{mode} max error {} is not roundoff", m.max_abs_err);
    }

    // The approximate paths really use their budget (the harness is not
    // vacuous) and never exceed it.
    let bounded = &report.modes["bounded"];
    assert!(bounded.max_abs_err > 0.0, "bounded never erred — budget untested");
    assert!(bounded.max_budget_util <= 1.0 + 1e-9, "budget exceeded");

    assert!(report.passed());

    // The report is valid JSON under the workspace's own parser, with the
    // documented top-level shape.
    let json = parse_json(&report.to_json()).expect("report is valid JSON");
    assert_eq!(json.get("schema").and_then(Json::as_str), Some("urbane-verify/1"));
    assert_eq!(json.get("passed").and_then(Json::as_bool), Some(true));
    assert_eq!(json.get("scenarios").and_then(Json::as_f64), Some(15.0));
    let modes = json.get("modes").expect("modes object");
    assert!(modes.get("bounded").is_some() && modes.get("accurate").is_some());
}

#[test]
fn metamorphic_laws_hold_on_their_corpus() {
    let mut seen = std::collections::BTreeSet::new();
    for s in corpus(6, BASE_SEED ^ 0x4C41_5753) {
        for law in run_laws(&s).expect("laws must execute") {
            seen.insert(law.law);
            assert!(
                law.violation.is_none(),
                "{} [{}]: {}",
                law.scenario,
                law.law,
                law.violation.unwrap_or_default()
            );
        }
    }
    assert!(
        seen.len() >= 5,
        "acceptance demands ≥5 distinct metamorphic laws, saw {seen:?}"
    );
}
