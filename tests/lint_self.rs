//! Self-test for `urbane-lint`: the fixture corpus must fire exactly at its
//! `//~` markers, the live workspace must stay within the committed
//! baseline, and the suppression grammar must round-trip.
//!
//! Expectation markers in `crates/lint/fixtures/*.rs`:
//!   `code(); //~ rule-name`   — this line violates `rule-name`
//!   `//~^ rule-name`          — the *previous* line violates `rule-name`

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use urbane_lint::{check, find_workspace_root, scan_fixtures, scan_source, scan_workspace};
use urbane_lint::{Baseline, CallGraph, RuleId, ScanMode, SourceFile};

fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the test binary runs inside the workspace")
}

/// `(file, line, rule)` triples the markers in `dir` promise.
fn expected_from_markers(dir: &Path) -> BTreeSet<(String, u32, String)> {
    let mut expected = BTreeSet::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("fixture dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "fixture corpus is empty");
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        for (i, line) in src.lines().enumerate() {
            let Some(idx) = line.find("//~") else { continue };
            let mut rest = &line[idx + 3..];
            let mut target = (i + 1) as u32;
            if let Some(stripped) = rest.strip_prefix('^') {
                rest = stripped;
                target -= 1;
            }
            for rule in rest.split_whitespace() {
                assert!(
                    RuleId::from_str(rule).is_some(),
                    "{name}:{}: marker names unknown rule {rule:?}",
                    i + 1
                );
                expected.insert((name.clone(), target, rule.to_string()));
            }
        }
    }
    expected
}

#[test]
fn fixture_corpus_fires_exactly_at_marked_lines() {
    let dir = workspace_root().join("crates/lint/fixtures");
    let expected = expected_from_markers(&dir);
    let found: BTreeSet<(String, u32, String)> = scan_fixtures(&dir)
        .expect("fixture scan")
        .into_iter()
        .map(|v| (v.file, v.line, v.rule.as_str().to_string()))
        .collect();

    let missing: Vec<_> = expected.difference(&found).collect();
    let unexpected: Vec<_> = found.difference(&expected).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "fixture mismatch\n  marked but not fired: {missing:?}\n  fired but not marked: {unexpected:?}"
    );
    // Every rule must be exercised by at least one fixture.
    let rules_hit: BTreeSet<&str> = expected.iter().map(|(_, _, r)| r.as_str()).collect();
    for rule in RuleId::ALL {
        assert!(
            rules_hit.contains(rule.as_str()),
            "no fixture exercises rule {}",
            rule.as_str()
        );
    }
}

#[test]
fn live_workspace_is_within_the_committed_baseline() {
    let root = workspace_root();
    let violations = scan_workspace(&root).expect("workspace scan");
    let baseline = Baseline::load(&root.join("lint-baseline.json")).expect("baseline parses");
    assert!(
        baseline.entries.is_empty(),
        "the baseline was burned to zero — new debt ({} entries) must be fixed or carry an \
         evidence directive, not re-enter the ledger",
        baseline.entries.len()
    );
    let report = check(&violations, &baseline);
    assert!(
        report.regressions.is_empty(),
        "lint regressions vs committed baseline: {:#?}",
        report.regressions
    );
}

#[test]
fn injected_debt_regresses_against_the_committed_baseline() {
    let root = workspace_root();
    let mut violations = scan_workspace(&root).expect("workspace scan");
    // Simulate pasting a fixture snippet into a library crate: the ratchet
    // must refuse the new debt against the empty committed baseline.
    let snippet = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let injected = scan_source("crates/core/src/injected.rs", snippet, ScanMode::Workspace);
    assert_eq!(injected.violations.len(), 1, "snippet must violate panic-freedom");
    violations.extend(injected.violations);

    let baseline = Baseline::load(&root.join("lint-baseline.json")).expect("baseline parses");
    let report = check(&violations, &baseline);
    assert_eq!(report.regressions.len(), 1, "injected debt must be a regression");
    assert_eq!(report.regressions[0].file, "crates/core/src/injected.rs");
}

#[test]
fn graph_rules_fire_with_witness_traces() {
    let dir = workspace_root().join("crates/lint/fixtures");
    let violations = scan_fixtures(&dir).expect("fixture scan");

    // Each cross-procedural rule fires at its fixture's marked line and
    // carries a non-empty witness trace explaining the path.
    let expect = [
        ("cancel_poll.rs", 25, RuleId::CancelPollReachability, 3),
        ("lock_order.rs", 14, RuleId::LockOrder, 2),
        ("wire_taint.rs", 6, RuleId::WireTaint, 1),
        ("wire_taint.rs", 37, RuleId::WireTaint, 2),
    ];
    for (file, line, rule, min_steps) in expect {
        let v = violations
            .iter()
            .find(|v| v.file == file && v.line == line && v.rule == rule)
            .unwrap_or_else(|| panic!("{file}:{line} must fire {}", rule.as_str()));
        assert!(
            v.trace.len() >= min_steps,
            "{file}:{line} witness trace too short: {:?}",
            v.trace
        );
    }

    // Corrected twins in the same fixtures stay silent: exactly the marked
    // findings per (file, rule), nothing else.
    let count = |file: &str, rule: RuleId| {
        violations.iter().filter(|v| v.file == file && v.rule == rule).count()
    };
    assert_eq!(count("cancel_poll.rs", RuleId::CancelPollReachability), 1);
    assert_eq!(count("lock_order.rs", RuleId::LockOrder), 1);
    assert_eq!(count("wire_taint.rs", RuleId::WireTaint), 2);
}

#[test]
fn malformed_entrypoint_fails_closed() {
    // An entrypoint directive with no reason must not seed the reachability
    // analysis (no cancel-poll finding), and the directive itself is a
    // violation — fail closed, never silently weaker.
    let src = "\
// lint: entrypoint
pub fn mh_entry(xs: &[f64]) {
    for i in 0..xs.len() {
        let _ = xs[i];
    }
}
";
    let files = vec![SourceFile::parse("crates/core/src/m.rs", src)];
    let graph = CallGraph::build(&files);
    let flow = urbane_lint::dataflow::run(&files, &graph, ScanMode::AllRules);
    assert!(
        flow.iter().all(|v| v.rule != RuleId::CancelPollReachability),
        "malformed entrypoint must not seed the analysis: {flow:?}"
    );
    let scan = scan_source("crates/core/src/m.rs", src, ScanMode::AllRules);
    assert!(
        scan.violations.iter().any(|v| v.rule == RuleId::DirectiveSyntax && v.line == 1),
        "{:?}",
        scan.violations
    );
}

#[test]
fn token_soup_never_panics_and_scopes_stay_balanced() {
    // 1000 seeded random fragment soups through the lexer and the scope
    // index: totality (no panics on arbitrary input — unterminated strings,
    // stray braces, mangled escapes) and the structural invariant that every
    // reported span is well-formed and within bounds.
    const FRAGMENTS: &[&str] = &[
        "fn ", "impl ", "mod ", "{", "}", "(", ")", "[", "]", "#[test]", "#[cfg(test)]",
        "r#type", "r#match", "ident", "x9", "'a", "'a'", "'\\x41'", "'\\''", "0.5", "42",
        "\"str\"", "\"esc \\\" q\"", "\"unterminated", "r\"raw\"", "r#\"hashed\"#",
        "// line comment\n", "/* block */", "/* nested /* deep */ */", "/* unterminated",
        "::", ".", ";", ",", "->", "=>", "&&", "||", ".unwrap()", ".lock()", "for p in points ",
        "let x = ", "\n", " ", "\t", "//~", "// lint: allow(panic-freedom)\n", "r#", "'",
    ];
    let mut seed: u64 = 0x5eed_cafe_f00d_0001;
    let mut next = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 33) as usize
    };
    for _ in 0..1000 {
        let len = 1 + next() % 60;
        let mut soup = String::new();
        for _ in 0..len {
            soup.push_str(FRAGMENTS[next() % FRAGMENTS.len()]);
        }
        let tokens = urbane_lint::lexer::lex(&soup);
        let sig = urbane_lint::scope::significant(&tokens);
        assert!(sig.iter().all(|&i| i < tokens.len()), "sig index out of bounds\n{soup:?}");
        // Token lines are monotone: a desynced lexer walks backwards.
        assert!(tokens.windows(2).all(|w| w[0].line <= w[1].line), "line order\n{soup:?}");
        let scopes = urbane_lint::scope::analyze(&tokens, &sig);
        for span in scopes.fn_spans() {
            assert!(span.body.start <= span.body.end, "inverted span\n{soup:?}");
            assert!(span.body.end <= sig.len(), "span out of bounds\n{soup:?}");
        }
        // The scan must also be total on soup (rules walk the same index).
        let _ = scan_source("crates/core/src/soup.rs", &soup, ScanMode::AllRules);
    }
}

#[test]
fn suppression_roundtrip() {
    let bare = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let scan = scan_source("crates/core/src/x.rs", bare, ScanMode::Workspace);
    assert_eq!(scan.violations.len(), 1);
    assert_eq!(scan.violations[0].rule, RuleId::PanicFreedom);
    assert_eq!(scan.violations[0].line, 2);

    // A justified allow on the same line silences it ...
    let allowed =
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // lint: allow(panic-freedom) proven present by caller\n}\n";
    let scan = scan_source("crates/core/src/x.rs", allowed, ScanMode::Workspace);
    assert!(scan.violations.is_empty(), "{:?}", scan.violations);

    // ... but an unjustified allow is itself a directive-syntax violation
    // and does not suppress.
    let malformed =
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // lint: allow(panic-freedom)\n}\n";
    let scan = scan_source("crates/core/src/x.rs", malformed, ScanMode::Workspace);
    let rules: Vec<RuleId> = scan.violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&RuleId::PanicFreedom), "{rules:?}");
    assert!(rules.contains(&RuleId::DirectiveSyntax), "{rules:?}");
}
