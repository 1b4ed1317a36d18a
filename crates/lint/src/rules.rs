//! The rule catalog and the per-file scanner.
//!
//! Each rule encodes one project invariant the last three PRs established by
//! convention (DESIGN.md §8–§10) and nothing previously enforced:
//!
//! | rule                  | invariant                                                        |
//! |-----------------------|------------------------------------------------------------------|
//! | `panic-freedom`       | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`/ literal indexing in non-test library code |
//! | `relaxed-ordering`    | every `Ordering::Relaxed` carries `// lint: relaxed-ok <reason>` |
//! | `release-acquire`     | every `store(…, Release)` has a matching `Acquire` load somewhere |
//! | `catch-unwind-pairing`| every `catch_unwind` is followed, in the same function, by poison recovery or abort-flag propagation |
//! | `bounded-growth`      | `push`/`insert` into `self.*` state on request paths carries `// lint: bounded-by <cap>` |
//! | `determinism`         | no `Instant::now`/`SystemTime` in merge/answer paths             |
//! | `bounded-retry`       | every retry loop visibly references an attempt cap or budget     |
//! | `directive-syntax`    | every `// lint:` comment parses                                  |
//!
//! Three further rules are *cross-procedural* — they run over the workspace
//! call graph (see [`crate::callgraph`] / [`crate::dataflow`]) and report a
//! witness trace with every violation:
//!
//! | rule                       | invariant                                                   |
//! |----------------------------|-------------------------------------------------------------|
//! | `cancel-poll-reachability` | work loops (reading rows or column slices, batching a slice, indexing a column per row) reachable from a request entry point must reach a budget/cancel poll |
//! | `lock-order`               | the interprocedural lock acquisition graph is acyclic       |
//! | `wire-taint`               | request-derived sizes are capped before sizing allocations  |
//!
//! Suppression grammar (line comments only, applies to its own line, or —
//! when the comment stands alone — to the next code line):
//!
//! ```text
//! // lint: allow(<rule>) <justification>
//! // lint: relaxed-ok <reason>          (shorthand for allow(relaxed-ordering))
//! // lint: bounded-by <cap>             (shorthand for allow(bounded-growth))
//! // lint: capped-by <bound>            (shorthand for allow(wire-taint))
//! ```
//!
//! Evidence directives feed the graph analyses instead of suppressing:
//!
//! ```text
//! // lint: entrypoint <why>             (next fn is a request entry point)
//! // lint: polls-budget <why>           (this loop/fn polls the budget in a
//! //                                     way the token scanner cannot see)
//! ```
//!
//! The justification/reason/cap is mandatory: a suppression without a *why*
//! is itself a `directive-syntax` violation.

use crate::callgraph::SourceFile;
use crate::lexer::{Token, TokenKind};
use crate::scope::Scopes;

/// Identity of a lint rule; `as_str` gives the kebab-case name used in
/// suppressions, baselines, and output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    PanicFreedom,
    RelaxedOrdering,
    ReleaseAcquire,
    CatchUnwindPairing,
    BoundedGrowth,
    Determinism,
    BoundedRetry,
    DirectiveSyntax,
    CancelPollReachability,
    LockOrder,
    WireTaint,
}

impl RuleId {
    pub const ALL: [RuleId; 11] = [
        RuleId::PanicFreedom,
        RuleId::RelaxedOrdering,
        RuleId::ReleaseAcquire,
        RuleId::CatchUnwindPairing,
        RuleId::BoundedGrowth,
        RuleId::Determinism,
        RuleId::BoundedRetry,
        RuleId::DirectiveSyntax,
        RuleId::CancelPollReachability,
        RuleId::LockOrder,
        RuleId::WireTaint,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::PanicFreedom => "panic-freedom",
            RuleId::RelaxedOrdering => "relaxed-ordering",
            RuleId::ReleaseAcquire => "release-acquire",
            RuleId::CatchUnwindPairing => "catch-unwind-pairing",
            RuleId::BoundedGrowth => "bounded-growth",
            RuleId::Determinism => "determinism",
            RuleId::BoundedRetry => "bounded-retry",
            RuleId::DirectiveSyntax => "directive-syntax",
            RuleId::CancelPollReachability => "cancel-poll-reachability",
            RuleId::LockOrder => "lock-order",
            RuleId::WireTaint => "wire-taint",
        }
    }

    #[allow(clippy::should_implement_trait)] // Option-returning name lookup, not FromStr
    pub fn from_str(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.as_str() == s)
    }
}

/// One step of a witness trace: a source location plus what happens there
/// (entry point, call, lock acquisition, taint source, sink…).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    pub file: String,
    pub line: u32,
    pub note: String,
}

/// One rule violation at a source location. `file` is repo-relative with
/// forward slashes. Cross-procedural rules attach the `trace` proving the
/// violation (call chain, lock chain, taint path); per-line rules leave it
/// empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
    pub trace: Vec<TraceStep>,
}

impl Violation {
    pub fn new(file: &str, line: u32, rule: RuleId, message: String) -> Violation {
        Violation { file: file.to_string(), line, rule, message, trace: Vec::new() }
    }

    pub fn render(&self) -> String {
        format!("{}:{} [{}] {}", self.file, self.line, self.rule.as_str(), self.message)
    }

    /// Human rendering of the witness trace, one indented line per step.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.trace.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&format!("      {}. {}:{} {}", i + 1, s.file, s.line, s.note));
        }
        out
    }
}

/// A `Release` store or `Acquire` load on an atomic, keyed by the nearest
/// receiver identifier (the field/variable name).
#[derive(Debug, Clone)]
pub struct AtomicSite {
    pub name: String,
    pub file: String,
    pub line: u32,
}

/// Result of scanning one file. Release/Acquire sites are resolved
/// cross-file by the engine.
#[derive(Debug, Default)]
pub struct FileScan {
    pub violations: Vec<Violation>,
    pub release_stores: Vec<AtomicSite>,
    pub acquire_loads: Vec<AtomicSite>,
}

/// How path-based rule scoping is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Real workspace scan: rules apply only where the invariant lives
    /// (see [`rule_in_scope`]).
    Workspace,
    /// Fixture/corpus scan: every rule applies to every file.
    AllRules,
}

/// Path scoping for [`ScanMode::Workspace`]. `rel` uses forward slashes and
/// is rooted at the repo (e.g. `crates/core/src/executor.rs`).
pub fn rule_in_scope(rule: RuleId, rel: &str) -> bool {
    let bench = rel.starts_with("crates/bench/");
    match rule {
        // The bench harness is measurement code: panics abort an experiment,
        // not a query, and timing calls are its whole point.
        RuleId::PanicFreedom => !bench,
        RuleId::RelaxedOrdering
        | RuleId::ReleaseAcquire
        | RuleId::CatchUnwindPairing
        | RuleId::DirectiveSyntax => true,
        // "Reachable from request handling": the server crate, the
        // session-facing state holders in `urbane`, and the out-of-core
        // store (readers buffer chunk payloads on query paths).
        RuleId::BoundedGrowth => {
            rel.starts_with("crates/server/src")
                || rel.starts_with("crates/store/src")
                || matches!(
                    rel,
                    "crates/urbane/src/service.rs"
                        | "crates/urbane/src/cache.rs"
                        | "crates/urbane/src/session.rs"
                )
        }
        // Merge/answer paths only. Budget (deadlines), fault (seeded clock
        // skew), guard (ladder timing), and metrics are wall-clock by design;
        // the server crate is transport (read timeouts), not an answer path.
        RuleId::Determinism => {
            const ALLOWLISTED: [&str; 4] = [
                "crates/core/src/budget.rs",
                "crates/core/src/fault.rs",
                "crates/urbane/src/guard.rs",
                "crates/server/src/metrics.rs",
            ];
            let crate_in_scope = ["core", "urbane", "raster", "index", "data", "geometry", "store"]
                .iter()
                .any(|c| rel.starts_with(&format!("crates/{c}/src")));
            crate_in_scope && !rel.contains("/src/bin/") && !ALLOWLISTED.contains(&rel)
        }
        // Retry loops belong on the request path: the serving layer (which
        // makes no outbound calls, so has none today) and the guard ladder,
        // which retries a panicked full rung once.
        RuleId::BoundedRetry => {
            rel.starts_with("crates/server/src")
                || matches!(
                    rel,
                    "crates/urbane/src/service.rs" | "crates/urbane/src/guard.rs"
                )
        }
        // Loops on the request path live in the engine crates. The bench
        // harness, the linter itself, and the offline verifier never serve a
        // request, so a missing poll there cannot stall a query.
        RuleId::CancelPollReachability => {
            !bench && !rel.starts_with("crates/lint/") && !rel.starts_with("crates/verify/")
        }
        // Lock graphs span every serving crate; the bench harness and the
        // linter run single-purpose processes where an inversion cannot
        // deadlock a query.
        RuleId::LockOrder => !bench && !rel.starts_with("crates/lint/"),
        // Wire bytes enter through the server crate only; everything else
        // sees sizes already validated at the boundary.
        RuleId::WireTaint => rel.starts_with("crates/server/src"),
    }
}

/// A parsed `// lint:` directive and the code line it governs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Directive {
    Allow(RuleId),
    RelaxedOk,
    BoundedBy,
    /// `capped-by <bound>` — evidence a request-derived size is bounded;
    /// suppresses `wire-taint` on its target line.
    CappedBy,
    /// `entrypoint <why>` — the next `fn` is a request entry point; seeds
    /// the cancel-poll reachability analysis.
    Entrypoint,
    /// `polls-budget <why>` — evidence this loop/function polls the budget
    /// in a way the token scanner cannot see (e.g. through a trait object).
    PollsBudget,
}

#[derive(Debug, Clone)]
pub(crate) struct Annotation {
    pub(crate) directive: Directive,
    /// The code line this annotation suppresses on.
    pub(crate) target_line: u32,
}

/// Annotations of a file, without directive-syntax reporting — for the graph
/// analyses, which consume evidence directives (`entrypoint`, `polls-budget`,
/// `capped-by`) the per-file scanner has already syntax-checked.
pub(crate) fn annotations_of(tokens: &[Token]) -> Vec<Annotation> {
    collect_annotations("", tokens, false).0
}

/// Extract annotations (and malformed-directive violations) from the token
/// stream. A trailing comment targets its own line; a standalone comment
/// targets the next line bearing a significant token.
fn collect_annotations(
    rel: &str,
    tokens: &[Token],
    emit_syntax: bool,
) -> (Vec<Annotation>, Vec<Violation>) {
    let mut anns = Vec::new();
    let mut viols = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("lint:") else { continue };
        let rest = rest.trim();
        let code_before = tokens[..i].iter().any(|p| !p.is_comment() && p.line == t.line);
        let target_line = if code_before {
            t.line
        } else {
            tokens[i + 1..]
                .iter()
                .find(|p| !p.is_comment())
                .map(|p| p.line)
                .unwrap_or(t.line)
        };
        match parse_directive(rest) {
            Ok(directive) => anns.push(Annotation { directive, target_line }),
            Err(why) => {
                if emit_syntax {
                    viols.push(Violation::new(
                        rel,
                        t.line,
                        RuleId::DirectiveSyntax,
                        format!("malformed `// lint:` directive: {why}"),
                    ));
                }
            }
        }
    }
    (anns, viols)
}

fn parse_directive(rest: &str) -> Result<Directive, String> {
    if let Some(after) = rest.strip_prefix("allow(") {
        let Some(close) = after.find(')') else {
            return Err("missing `)` in `allow(<rule>)`".to_string());
        };
        let (name, justification) = (after[..close].trim(), after[close + 1..].trim());
        let Some(rule) = RuleId::from_str(name) else {
            return Err(format!("unknown rule `{name}`"));
        };
        if justification.is_empty() {
            return Err(format!("`allow({name})` needs a justification"));
        }
        Ok(Directive::Allow(rule))
    } else if let Some(reason) = rest.strip_prefix("relaxed-ok") {
        if reason.trim().is_empty() {
            Err("`relaxed-ok` needs a reason".to_string())
        } else {
            Ok(Directive::RelaxedOk)
        }
    } else if let Some(cap) = rest.strip_prefix("bounded-by") {
        if cap.trim().is_empty() {
            Err("`bounded-by` needs a cap".to_string())
        } else {
            Ok(Directive::BoundedBy)
        }
    } else if let Some(bound) = rest.strip_prefix("capped-by") {
        if bound.trim().is_empty() {
            Err("`capped-by` needs a bound".to_string())
        } else {
            Ok(Directive::CappedBy)
        }
    } else if let Some(why) = rest.strip_prefix("entrypoint") {
        if why.trim().is_empty() {
            Err("`entrypoint` needs a why".to_string())
        } else {
            Ok(Directive::Entrypoint)
        }
    } else if let Some(why) = rest.strip_prefix("polls-budget") {
        if why.trim().is_empty() {
            Err("`polls-budget` needs a why".to_string())
        } else {
            Ok(Directive::PollsBudget)
        }
    } else {
        Err(format!(
            "expected `allow(<rule>) <why>`, `relaxed-ok <reason>`, `bounded-by <cap>`, \
             `capped-by <bound>`, `entrypoint <why>`, or `polls-budget <why>`, got `{rest}`"
        ))
    }
}

pub(crate) fn suppressed(anns: &[Annotation], rule: RuleId, line: u32) -> bool {
    anns.iter().any(|a| {
        a.target_line == line
            && match a.directive {
                Directive::Allow(r) => r == rule,
                Directive::RelaxedOk => rule == RuleId::RelaxedOrdering,
                Directive::BoundedBy => rule == RuleId::BoundedGrowth,
                Directive::CappedBy => rule == RuleId::WireTaint,
                // `polls-budget` is primarily evidence, but targeting a loop
                // line it also vouches for that loop directly.
                Directive::PollsBudget => rule == RuleId::CancelPollReachability,
                Directive::Entrypoint => false,
            }
    })
}

/// Atomic RMW/store operations that publish with Release semantics, and
/// loads that observe with Acquire semantics. `AcqRel` counts on both sides;
/// `SeqCst` implies Acquire on the load side.
const STORE_OPS: [&str; 8] = [
    "store", "swap", "fetch_or", "fetch_and", "fetch_add", "fetch_sub", "fetch_update",
    "compare_exchange",
];
const LOAD_OPS: [&str; 9] = [
    "load", "swap", "fetch_or", "fetch_and", "fetch_add", "fetch_sub", "fetch_update",
    "compare_exchange", "compare_exchange_weak",
];

/// Evidence that a `catch_unwind` result is actually handled: poison
/// recovery, error propagation, or abort-flag traffic later in the function.
const UNWIND_EVIDENCE: [&str; 12] = [
    "clear_poison",
    "Err",
    "is_err",
    "map_err",
    "unwrap_or",
    "unwrap_or_else",
    "abort",
    "poisoned",
    "PoisonError",
    "into_inner",
    "cancel",
    "store",
];

struct FileCtx<'a> {
    rel: &'a str,
    tokens: &'a [Token],
    sig: &'a [usize],
    scopes: &'a Scopes,
    anns: Vec<Annotation>,
    mode: ScanMode,
}

impl FileCtx<'_> {
    fn tok(&self, pos: usize) -> Option<&Token> {
        self.sig.get(pos).map(|&i| &self.tokens[i])
    }

    fn active(&self, rule: RuleId) -> bool {
        self.mode == ScanMode::AllRules || rule_in_scope(rule, self.rel)
    }

    /// Skip test code and attribute interiors for code rules.
    fn skip(&self, pos: usize) -> bool {
        self.sig
            .get(pos)
            .is_none_or(|&i| self.scopes.in_test(i) || self.scopes.in_attr(i))
    }

    fn violation(&self, out: &mut Vec<Violation>, rule: RuleId, line: u32, message: String) {
        if !suppressed(&self.anns, rule, line) {
            out.push(Violation::new(self.rel, line, rule, message));
        }
    }

    /// Sig-position of the `}` matching the `{` at sig-position `open`.
    fn match_brace(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for pos in open..self.sig.len() {
            let t = self.tok(pos)?;
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(pos);
                }
            }
        }
        None
    }

    /// Sig-position of the `)` matching the `(` at sig-position `open`.
    fn match_paren(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for pos in open..self.sig.len() {
            let t = self.tok(pos)?;
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(pos);
                }
            }
        }
        None
    }

    /// The nearest receiver identifier before the `.` at sig-position
    /// `dot` — for `self.shards[i].head.store(…)` that is `head`.
    fn receiver_name(&self, dot: usize) -> Option<String> {
        let mut j = dot.checked_sub(1)?;
        loop {
            let t = self.tok(j)?;
            if t.kind == TokenKind::Ident {
                return Some(t.text.clone());
            }
            if t.is_punct(']') || t.is_punct(')') {
                let (open_c, close_c) =
                    if t.is_punct(']') { ('[', ']') } else { ('(', ')') };
                let mut depth = 0usize;
                loop {
                    let u = self.tok(j)?;
                    if u.is_punct(close_c) {
                        depth += 1;
                    } else if u.is_punct(open_c) {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    j = j.checked_sub(1)?;
                }
                j = j.checked_sub(1)?;
            } else {
                return None;
            }
        }
    }

    /// Is the `.`-chain receiver before the call at sig-position `dot`
    /// rooted at `self`?
    fn rooted_at_self(&self, dot: usize) -> bool {
        let mut j = match dot.checked_sub(1) {
            Some(j) => j,
            None => return false,
        };
        loop {
            let Some(t) = self.tok(j) else { return false };
            if t.is_ident("self") {
                // `self` must begin the chain: the token before it must not
                // be a `.` (which would make it a field named self — not a
                // thing — or a different expression).
                return true;
            }
            if t.kind == TokenKind::Ident {
                match j.checked_sub(2) {
                    Some(prev) if self.tok(j - 1).is_some_and(|p| p.is_punct('.')) => j = prev,
                    _ => return false,
                }
            } else if t.is_punct(']') {
                let mut depth = 0usize;
                loop {
                    let Some(u) = self.tok(j) else { return false };
                    if u.is_punct(']') {
                        depth += 1;
                    } else if u.is_punct('[') {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    let Some(nj) = j.checked_sub(1) else { return false };
                    j = nj;
                }
                let Some(nj) = j.checked_sub(1) else { return false };
                j = nj;
            } else {
                return false;
            }
        }
    }

    /// Do the call arguments starting at the `(` at sig-position `open`
    /// mention one of `orderings` (as `Ordering::X` path segments)?
    fn args_mention(&self, open: usize, orderings: &[&str]) -> bool {
        let Some(close) = self.match_paren(open) else { return false };
        (open..close).any(|p| {
            self.tok(p)
                .is_some_and(|t| t.kind == TokenKind::Ident && orderings.contains(&t.text.as_str()))
        })
    }
}

/// Scan one file's source. `rel` must be the repo-relative path (used both
/// for output and for path-scoped rules). Convenience wrapper over
/// [`scan_file`] for callers holding raw source.
pub fn scan_source(rel: &str, src: &str, mode: ScanMode) -> FileScan {
    scan_file(&SourceFile::parse(rel, src), mode)
}

/// Run the per-file rules over an already-parsed [`SourceFile`]. The graph
/// rules run separately in [`crate::dataflow`] over the whole file set.
pub fn scan_file(sf: &SourceFile, mode: ScanMode) -> FileScan {
    let rel = sf.rel.as_str();
    let emit_syntax = mode == ScanMode::AllRules || rule_in_scope(RuleId::DirectiveSyntax, rel);
    let (anns, mut violations) = collect_annotations(rel, &sf.tokens, emit_syntax);
    let ctx =
        FileCtx { rel, tokens: &sf.tokens, sig: &sf.sig, scopes: &sf.scopes, anns, mode };

    let mut scan = FileScan::default();

    for pos in 0..ctx.sig.len() {
        let Some(t) = ctx.tok(pos) else { break };
        if t.kind == TokenKind::Ident && !ctx.skip(pos) {
            scan_ident(&ctx, pos, t, &mut violations, &mut scan);
        }
        if t.is_punct('[') && !ctx.skip(pos) {
            scan_index(&ctx, pos, &mut violations);
        }
    }

    scan.violations = violations;
    scan
}

fn scan_ident(
    ctx: &FileCtx<'_>,
    pos: usize,
    t: &Token,
    violations: &mut Vec<Violation>,
    scan: &mut FileScan,
) {
    let prev_dot = pos > 0 && ctx.tok(pos - 1).is_some_and(|p| p.is_punct('.'));
    let next_paren = ctx.tok(pos + 1).is_some_and(|n| n.is_punct('('));
    let next_bang = ctx.tok(pos + 1).is_some_and(|n| n.is_punct('!'));

    // panic-freedom: method-style panics.
    if ctx.active(RuleId::PanicFreedom) {
        if prev_dot && next_paren && (t.text == "unwrap" || t.text == "expect") {
            ctx.violation(
                violations,
                RuleId::PanicFreedom,
                t.line,
                format!(
                    "`.{}()` in library code — return a typed error or add `// lint: allow(panic-freedom) <why>`",
                    t.text
                ),
            );
        }
        if next_bang
            && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
        {
            ctx.violation(
                violations,
                RuleId::PanicFreedom,
                t.line,
                format!("`{}!` in library code — return a typed error instead", t.text),
            );
        }
    }

    // relaxed-ordering: `Ordering::Relaxed` without a relaxed-ok reason.
    if ctx.active(RuleId::RelaxedOrdering)
        && t.text == "Relaxed"
        && pos >= 3
        && ctx.tok(pos - 1).is_some_and(|p| p.is_punct(':'))
        && ctx.tok(pos - 2).is_some_and(|p| p.is_punct(':'))
        && ctx.tok(pos - 3).is_some_and(|p| p.is_ident("Ordering"))
    {
        ctx.violation(
            violations,
            RuleId::RelaxedOrdering,
            t.line,
            "`Ordering::Relaxed` without `// lint: relaxed-ok <reason>` — pure counters only; \
             cross-thread flags need Acquire/Release"
                .to_string(),
        );
    }

    // release-acquire: collect candidate publish/observe sites.
    if ctx.active(RuleId::ReleaseAcquire) && prev_dot && next_paren {
        let name = || ctx.receiver_name(pos - 1).unwrap_or_else(|| "<expr>".to_string());
        if STORE_OPS.contains(&t.text.as_str())
            && ctx.args_mention(pos + 1, &["Release", "AcqRel"])
            && !suppressed(&ctx.anns, RuleId::ReleaseAcquire, t.line)
        {
            scan.release_stores.push(AtomicSite {
                name: name(),
                file: ctx.rel.to_string(),
                line: t.line,
            });
        }
        if LOAD_OPS.contains(&t.text.as_str())
            && ctx.args_mention(pos + 1, &["Acquire", "AcqRel", "SeqCst"])
        {
            scan.acquire_loads.push(AtomicSite {
                name: name(),
                file: ctx.rel.to_string(),
                line: t.line,
            });
        }
        // A zero-argument `load()` cannot happen (Ordering is mandatory), so
        // argument scanning is sufficient.
    }

    // catch-unwind-pairing.
    if ctx.active(RuleId::CatchUnwindPairing) && t.text == "catch_unwind" && next_paren {
        let sig_idx = ctx.sig.get(pos).copied().unwrap_or(0);
        let end_tok = ctx
            .scopes
            .enclosing_fn(sig_idx)
            .map(|f| f.body.end)
            .unwrap_or(ctx.tokens.len());
        let has_evidence = ((pos + 1)..ctx.sig.len())
            .take_while(|&p| ctx.sig.get(p).is_some_and(|&i| i < end_tok))
            .any(|p| {
                ctx.tok(p).is_some_and(|u| {
                    u.kind == TokenKind::Ident && UNWIND_EVIDENCE.contains(&u.text.as_str())
                })
            });
        if !has_evidence {
            ctx.violation(
                violations,
                RuleId::CatchUnwindPairing,
                t.line,
                "`catch_unwind` result is not visibly handled in this function — recover \
                 poisoned state or propagate an abort flag"
                    .to_string(),
            );
        }
    }

    // bounded-growth: push/insert into self-rooted state.
    if ctx.active(RuleId::BoundedGrowth)
        && prev_dot
        && next_paren
        && matches!(t.text.as_str(), "push" | "insert")
        && ctx.rooted_at_self(pos - 1)
    {
        ctx.violation(
            violations,
            RuleId::BoundedGrowth,
            t.line,
            format!(
                "`.{}()` into request-path state without `// lint: bounded-by <cap>` — \
                 unbounded growth under load",
                t.text
            ),
        );
    }

    // bounded-retry: a `loop`/`while` whose body retries must show a cap.
    if ctx.active(RuleId::BoundedRetry) && matches!(t.text.as_str(), "loop" | "while") {
        scan_retry_loop(ctx, pos, t, violations);
    }

    // determinism: wall-clock reads in merge/answer paths.
    if ctx.active(RuleId::Determinism) {
        let instant_now = t.text == "Instant"
            && ctx.tok(pos + 1).is_some_and(|p| p.is_punct(':'))
            && ctx.tok(pos + 2).is_some_and(|p| p.is_punct(':'))
            && ctx.tok(pos + 3).is_some_and(|p| p.is_ident("now"));
        if instant_now || t.text == "SystemTime" {
            let what = if instant_now { "Instant::now" } else { "SystemTime" };
            ctx.violation(
                violations,
                RuleId::Determinism,
                t.line,
                format!(
                    "`{what}` in a merge/answer path — answers must not depend on wall-clock; \
                     thread time through QueryBudget or annotate `// lint: allow(determinism) <why>`"
                ),
            );
        }
    }
}

/// Identifiers that mark a loop as a retry loop.
const RETRY_MARKERS: [&str; 2] = ["retry", "backoff"];
/// Identifiers that count as visible evidence the loop is bounded.
const CAP_EVIDENCE: [&str; 6] = ["max", "budget", "deadline", "cap", "attempt", "remaining"];

/// bounded-retry: a `loop`/`while` at sig-position `pos` whose body mentions
/// retry/backoff identifiers must also mention a cap (attempt limit, budget,
/// deadline) in its condition or body — an unbounded retry loop turns a dead
/// dependency into a livelock.
fn scan_retry_loop(ctx: &FileCtx<'_>, pos: usize, t: &Token, violations: &mut Vec<Violation>) {
    // The body is the first `{` after the keyword up to its matching `}`.
    // A `while` condition cannot contain a bare struct literal, so the
    // first brace opens the body.
    let Some(open) =
        ((pos + 1)..ctx.sig.len()).find(|&p| ctx.tok(p).is_some_and(|u| u.is_punct('{')))
    else {
        return;
    };
    let Some(close) = ctx.match_brace(open) else { return };
    let mentions = |p: usize, needles: &[&str]| {
        ctx.tok(p).is_some_and(|u| {
            u.kind == TokenKind::Ident && {
                let low = u.text.to_ascii_lowercase();
                needles.iter().any(|n| low.contains(n))
            }
        })
    };
    if !(open..close).any(|p| mentions(p, &RETRY_MARKERS)) {
        return;
    }
    // Cap evidence may live in the loop condition (`while attempt < max`)
    // or in the body (`if attempt >= max_attempts { break }`).
    if !(pos..close).any(|p| mentions(p, &CAP_EVIDENCE)) {
        ctx.violation(
            violations,
            RuleId::BoundedRetry,
            t.line,
            "retry loop without a visible attempt cap or budget — bound it (max attempts, \
             remaining deadline) or add `// lint: allow(bounded-retry) <why>`"
                .to_string(),
        );
    }
}

/// panic-freedom: indexing by an integer literal (`xs[0]`).
fn scan_index(ctx: &FileCtx<'_>, pos: usize, violations: &mut Vec<Violation>) {
    if !ctx.active(RuleId::PanicFreedom) || pos == 0 {
        return;
    }
    let prev_is_place = ctx.tok(pos - 1).is_some_and(|p| {
        (p.kind == TokenKind::Ident && !is_keyword(&p.text)) || p.is_punct(')') || p.is_punct(']')
    });
    let lit_inside = ctx.tok(pos + 1).is_some_and(|n| n.kind == TokenKind::Int)
        && ctx.tok(pos + 2).is_some_and(|n| n.is_punct(']'));
    if prev_is_place && lit_inside {
        if let Some(t) = ctx.tok(pos + 1) {
            ctx.violation(
                violations,
                RuleId::PanicFreedom,
                t.line,
                format!(
                    "indexing by literal `[{}]` in library code — use `.get({})` or prove \
                     bounds and add `// lint: allow(panic-freedom) <why>`",
                    t.text, t.text
                ),
            );
        }
    }
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`let [a, b] = …`, `match x { … }` arms are brace-side).
fn is_keyword(s: &str) -> bool {
    matches!(s, "let" | "mut" | "ref" | "in" | "return" | "box" | "const" | "static" | "as")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn viols(rel: &str, src: &str) -> Vec<(RuleId, u32)> {
        scan_source(rel, src, ScanMode::AllRules)
            .violations
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn unwrap_fires_and_suppression_works() {
        let src = "fn f() {\n    x.unwrap();\n    y.unwrap(); // lint: allow(panic-freedom) proven nonempty\n}\n";
        assert_eq!(viols("lib.rs", src), vec![(RuleId::PanicFreedom, 2)]);
    }

    #[test]
    fn standalone_comment_targets_next_line() {
        let src = "fn f() {\n    // lint: allow(panic-freedom) fixture\n    x.unwrap();\n    y.unwrap();\n}\n";
        assert_eq!(viols("lib.rs", src), vec![(RuleId::PanicFreedom, 4)]);
    }

    #[test]
    fn malformed_directive_is_a_violation() {
        let src = "// lint: allow(panic-freedom)\nfn f() {}\n";
        assert_eq!(viols("lib.rs", src), vec![(RuleId::DirectiveSyntax, 1)]);
    }

    #[test]
    fn relaxed_needs_reason() {
        let src = "fn f(a: &AtomicU64) {\n    a.fetch_add(1, Ordering::Relaxed);\n    a.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok pure counter\n}\n";
        assert_eq!(viols("lib.rs", src), vec![(RuleId::RelaxedOrdering, 2)]);
    }

    #[test]
    fn index_literal() {
        let src = "fn f(xs: &[u32]) -> u32 {\n    let a = [0u8; 4];\n    let _ = &a;\n    xs[0]\n}\n";
        assert_eq!(viols("lib.rs", src), vec![(RuleId::PanicFreedom, 4)]);
    }

    #[test]
    fn self_push_needs_bound() {
        let src = "impl S {\n    fn add(&mut self, v: u32) {\n        self.items.push(v);\n        self.capped.push(v); // lint: bounded-by MAX_ITEMS\n        local.push(v);\n    }\n}\nfn g(local: &mut Vec<u32>) { local.push(1); }\n";
        assert_eq!(viols("lib.rs", src), vec![(RuleId::BoundedGrowth, 3)]);
    }

    #[test]
    fn workspace_scoping_applies() {
        let src = "fn f() { self.items.push(1); }";
        // bounded-growth is out of scope for a geometry file.
        let fs = scan_source("crates/geometry/src/polygon.rs", src, ScanMode::Workspace);
        assert!(fs.violations.is_empty());
    }

    #[test]
    fn store_crate_is_in_scope_for_growth_and_determinism() {
        // The out-of-core store sits on query paths: unbounded chunk
        // caching and wall-clock reads in its library code must fire.
        let growth = "impl S {\n    fn f(&mut self) { self.chunks.push(1); }\n}\n";
        let fs = scan_source("crates/store/src/reader.rs", growth, ScanMode::Workspace);
        assert_eq!(
            fs.violations.iter().map(|v| v.rule).collect::<Vec<_>>(),
            vec![RuleId::BoundedGrowth]
        );
        let clock = "fn merge() { let _ = Instant::now(); }\n";
        let fs = scan_source("crates/store/src/format.rs", clock, ScanMode::Workspace);
        assert_eq!(
            fs.violations.iter().map(|v| v.rule).collect::<Vec<_>>(),
            vec![RuleId::Determinism]
        );
    }

    #[test]
    fn query_cache_is_in_scope_for_growth() {
        // The query-result cache admits an entry per distinct query; an
        // uncapped insert there is exactly the growth this rule exists for,
        // and the `bounded-by` note on the LRU path must suppress it.
        let src = "impl Shard {\n    fn admit(&mut self, k: u64, v: u32) {\n        self.map.insert(k, v);\n        // lint: bounded-by capacity (LRU evicts)\n        self.map.insert(k, v);\n    }\n}\n";
        let fs = scan_source("crates/urbane/src/cache.rs", src, ScanMode::Workspace);
        assert_eq!(
            fs.violations.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>(),
            vec![(RuleId::BoundedGrowth, 3)]
        );
    }
}
