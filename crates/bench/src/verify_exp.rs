//! `--exp verify` — run the urbane-verify differential + metamorphic
//! harness through the repro binary, so the certification report sits next
//! to the performance tables it validates.
//!
//! The experiment is a thin front-end over [`urbane_verify`]: the same
//! seeded corpus, the same execution matrix (bounded / weighted / accurate
//! × threads {1,4} × row order {generator, clustered}, plus each mode
//! prepared), the
//! same analytic ε budget. `scale` maps to the number of differential workloads
//! (the repro convention of "bigger scale, bigger run"): the fast corpus is
//! 15 workloads, and `--scale` above the default requests proportionally
//! more, capped to keep a misplaced `--scale 1000000` from running for
//! hours.

use urbane_verify::metamorphic::run_laws;
use urbane_verify::report::VerifyReport;
use urbane_verify::{corpus, verify_scenario};

/// Same base seed as the `verify` binary and
/// `tests/verify_certification.rs`, so every entry point certifies the one
/// corpus the report in CI describes.
pub const BASE_SEED: u64 = 20_260_805;

/// Fast-corpus workload count (the ci.sh `verify` stage and `cargo test`
/// both use this).
pub const FAST_WORKLOADS: usize = 15;

/// Upper bound on differential workloads reachable through `--scale`.
pub const MAX_WORKLOADS: usize = 240;

/// Map the repro `--scale` knob to a workload count: the default scale
/// (1e6) keeps the fast corpus; larger scales grow it linearly up to
/// [`MAX_WORKLOADS`].
pub fn workloads_for_scale(scale: usize) -> usize {
    let scaled = FAST_WORKLOADS * (scale / 1_000_000).max(1);
    scaled.clamp(FAST_WORKLOADS, MAX_WORKLOADS)
}

/// Run the harness at `workloads` differential workloads (laws run on a
/// proportional slice) and return the aggregated report. Errors are the
/// harness's own — an executor failing outright, not a certification miss;
/// certification misses land in the report as failures.
pub fn run(workloads: usize) -> Result<VerifyReport, urbane_verify::VerifyError> {
    let mut report = VerifyReport::new();
    for s in corpus(workloads, BASE_SEED) {
        report.add_runs(&verify_scenario(&s)?);
    }
    let law_workloads = (workloads * 2 / 5).max(2);
    for s in corpus(law_workloads, BASE_SEED ^ 0x4C41_5753) {
        report.add_laws(&run_laws(&s)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_mapping_is_clamped() {
        assert_eq!(workloads_for_scale(0), FAST_WORKLOADS);
        assert_eq!(workloads_for_scale(1_000_000), FAST_WORKLOADS);
        assert_eq!(workloads_for_scale(4_000_000), 4 * FAST_WORKLOADS);
        assert_eq!(workloads_for_scale(usize::MAX), MAX_WORKLOADS);
    }

    #[test]
    fn tiny_run_passes_and_reports() {
        let report = run(2).expect("harness executes");
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.runs > 0 && report.law_runs > 0);
    }
}
