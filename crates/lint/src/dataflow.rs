//! Cross-procedural dataflow rules over the workspace call graph.
//!
//! Three analyses, each producing violations with a **witness trace** — the
//! call chain, lock chain, or taint path that proves the finding:
//!
//! 1. **`cancel-poll-reachability`** — starting from functions marked
//!    `// lint: entrypoint <why>`, walk the call graph; any reachable *work
//!    loop* must poll the query budget inside the loop — directly
//!    (`is_cancelled`, `is_exhausted`, `budget.check()`) or
//!    through a callee that transitively polls. A loop is a work loop by
//!    what it does, never by what its variables are called: it reads rows
//!    from a store (`read_zone`, `read_chunk`), reads column slices
//!    (`.locs()`, `.attr(`, `.column(`), walks a slice in batches
//!    (`.chunks(`), or indexes a column slice by its own loop variable (a
//!    `&[f64]`/`&[f32]`/`&[i64]` parameter, or a `let` bound from a column
//!    read), or walks rows handed in as an iterator (a parameter typed
//!    `impl Iterator`/`impl IntoIterator`, or a generic bounded by one). A
//!    loop that cannot reach a poll escapes the §8 degradation
//!    ladder: a slow query keeps burning CPU after its deadline.
//! 2. **`lock-order`** — every empty-argument `.lock()`/`.read()`/`.write()`
//!    (and `.get_or_init(`) is an acquisition of the lock named by its
//!    receiver. While a guard is live (let-bound: until `drop(guard)` or the
//!    end of its block; temporary: until the end of the statement), further
//!    acquisitions — in the same function or transitively through calls —
//!    impose an order edge. A cycle in the resulting order graph is a
//!    deadlock waiting for the right interleaving.
//! 3. **`wire-taint`** — identifiers derived from HTTP request bytes
//!    (headers, body, content_length, query params) are tainted; taint
//!    propagates through `let` bindings and call arguments, and is cleared
//!    by a visible bounds check (`.min(`/`.clamp(`, an explicit `<`/`>`
//!    comparison, or `// lint: capped-by <bound>`). Tainted values must not
//!    reach `Vec::with_capacity`, `vec![_; n]`, slice indexing, `.chunks(`,
//!    `.reserve(`, or `.div_ceil(` unchecked — a forged Content-Length must
//!    not size an allocation.
//!
//! All three are over-approximate in their graph (extra call edges from
//! name-based resolution) and under-approximate in their evidence
//! (annotations assert what tokens cannot show); the witness trace makes
//! every finding checkable by a human.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{match_delim, receiver_name, CallGraph, FnNode, SourceFile};
use crate::lexer::TokenKind;
use crate::rules::{
    annotations_of, rule_in_scope, suppressed, Annotation, Directive, RuleId, ScanMode, TraceStep,
    Violation,
};

/// Run all graph analyses over a parsed file set.
pub fn run(files: &[SourceFile], graph: &CallGraph, mode: ScanMode) -> Vec<Violation> {
    let anns: Vec<Vec<Annotation>> = files.iter().map(|f| annotations_of(&f.tokens)).collect();
    let cx = Cx { files, graph, anns, mode };
    let mut out = Vec::new();
    cancel_poll(&cx, &mut out);
    lock_order(&cx, &mut out);
    wire_taint(&cx, &mut out);
    out
}

struct Cx<'a> {
    files: &'a [SourceFile],
    graph: &'a CallGraph,
    anns: Vec<Vec<Annotation>>,
    mode: ScanMode,
}

impl Cx<'_> {
    fn sf(&self, fid: usize) -> &SourceFile {
        &self.files[self.graph.fns[fid].file]
    }

    fn in_scope(&self, rule: RuleId, file_idx: usize) -> bool {
        self.mode == ScanMode::AllRules || rule_in_scope(rule, &self.files[file_idx].rel)
    }

    fn suppressed(&self, file_idx: usize, rule: RuleId, line: u32) -> bool {
        suppressed(&self.anns[file_idx], rule, line)
    }

    /// First/last source line of a function body.
    fn body_lines(&self, fid: usize) -> (u32, u32) {
        let f = &self.graph.fns[fid];
        let sf = self.sf(fid);
        let first = sf.tok(f.body.start).map(|t| t.line).unwrap_or(f.line);
        let last = f
            .body
            .end
            .checked_sub(1)
            .and_then(|p| sf.tok(p))
            .map(|t| t.line)
            .unwrap_or(first);
        (first, last)
    }
}

fn step(file: &str, line: u32, note: String) -> TraceStep {
    TraceStep { file: file.to_string(), line, note }
}

// ---------------------------------------------------------------------------
// cancel-poll-reachability
// ---------------------------------------------------------------------------

/// Calls that read rows of a point store.
const ROW_READS: [&str; 3] = ["read_zone", "read_chunk", "read_chunk_into"];

/// Methods that hand out a table's or zone's column slices.
const COLUMN_READS: [&str; 3] = ["locs", "attr", "column"];

/// Slice methods that walk a slice in fixed-size batches.
const BATCHES: [&str; 2] = ["chunks", "chunks_exact"];

/// The column slices a function body can index: its column-typed
/// parameters, and the names a `let` binds from a column read
/// (`let (xs, ys) = zone.locs();`).
fn column_names(sf: &SourceFile, f: &FnNode) -> Vec<String> {
    let mut names = f.columns.clone();
    for pos in f.body.start..f.body.end {
        if !sf.tok(pos).is_some_and(|t| t.is_ident("let")) {
            continue;
        }
        let Some(eq) = (pos + 1..f.body.end).find(|&p| sf.tok(p).is_some_and(|t| t.is_punct('=')))
        else {
            continue;
        };
        let end = (eq..f.body.end)
            .find(|&p| sf.tok(p).is_some_and(|t| t.is_punct(';')))
            .unwrap_or(f.body.end);
        let reads_columns = (eq..end).any(|p| {
            sf.tok(p)
                .is_some_and(|t| COLUMN_READS.contains(&t.text.as_str()))
                && sf.tok(p - 1).is_some_and(|t| t.is_punct('.'))
        });
        if reads_columns {
            names.extend(
                (pos + 1..eq)
                    .filter_map(|p| sf.tok(p))
                    .filter(|t| t.kind == TokenKind::Ident && t.text != "mut")
                    .map(|t| t.text.clone()),
            );
        }
    }
    names
}

/// What makes the loop `for <pat> in <header> { <body> }` a work loop —
/// the header spans sig-positions `pos..open` (from the `for` keyword to the
/// body's `{`), the body `open..close` — or `None` if it does no per-row
/// work: it reads rows from a store, reads column slices, walks a slice in
/// batches, indexes one of `columns` by one of its own loop variables, or
/// walks one of `iterators`, the rows a caller handed in. A loop over
/// metadata (a header's chunk list, a canvas's tiles, a ring's vertices)
/// does none of these, whatever its variables are called.
fn work_evidence(
    sf: &SourceFile,
    columns: &[String],
    iterators: &[String],
    pos: usize,
    open: usize,
    close: usize,
) -> Option<String> {
    let text = |p: usize| sf.tok(p).map_or("", |t| t.text.as_str());
    let is_call = |p: usize| sf.tok(p + 1).is_some_and(|t| t.is_punct('('));
    let is_method = |p: usize| p > 0 && sf.tok(p - 1).is_some_and(|t| t.is_punct('.'));
    let in_kw = ((pos + 1)..open).find(|&p| sf.tok(p).is_some_and(|t| t.is_ident("in")))?;
    // The pattern's bindings: lowercase identifiers before `in`.
    let vars: Vec<&str> = ((pos + 1)..in_kw)
        .filter(|&p| sf.tok(p).is_some_and(|t| t.kind == TokenKind::Ident))
        .map(text)
        .filter(|v| v.starts_with(|c: char| c.is_ascii_lowercase()) && !matches!(*v, "mut" | "ref"))
        .collect();
    for p in (pos + 1)..close {
        let Some(t) = sf.tok(p) else { break };
        if t.kind == TokenKind::Ident && is_call(p) {
            if ROW_READS.contains(&t.text.as_str()) {
                return Some(format!("reads rows (`{}`)", t.text));
            }
            if is_method(p) && COLUMN_READS.contains(&t.text.as_str()) {
                return Some(format!("reads column slices (`.{}(`)", t.text));
            }
            if p < open && is_method(p) && BATCHES.contains(&t.text.as_str()) {
                return Some(format!("walks a slice in batches (`.{}(`)", t.text));
            }
        }
        // `col[v …]` / `col[*v …]`: per-row indexing of a column slice by a
        // loop variable.
        if p > open && t.is_punct('[') && columns.iter().any(|c| c == text(p - 1)) {
            let first = if sf.tok(p + 1).is_some_and(|n| n.is_punct('*')) {
                p + 2
            } else {
                p + 1
            };
            if sf
                .tok(first)
                .is_some_and(|n| n.kind == TokenKind::Ident && vars.contains(&n.text.as_str()))
            {
                return Some(format!(
                    "indexes column `{}[{}]` per row",
                    text(p - 1),
                    text(first)
                ));
            }
        }
    }
    // `for r in rows` / `for (k, r) in rows.into_iter().enumerate()`: the
    // header walks an iterator parameter (not a field of that name).
    ((in_kw + 1)..open)
        .find(|&p| {
            sf.tok(p).is_some_and(|t| t.kind == TokenKind::Ident)
                && !is_method(p)
                && iterators.iter().any(|i| i == text(p))
        })
        .map(|p| format!("walks the rows handed in as `{}`", text(p)))
}

/// Identifiers whose presence is a budget/cancel poll.
const POLL_IDENTS: [&str; 2] = ["is_cancelled", "is_exhausted"];

/// Is the token at sig-position `pos` a budget/cancel poll?
fn polls_at(sf: &SourceFile, pos: usize) -> bool {
    let Some(t) = sf.tok(pos) else { return false };
    if t.kind != TokenKind::Ident {
        return false;
    }
    if POLL_IDENTS.contains(&t.text.as_str()) {
        return true;
    }
    // `budget.check()` / `self.budget.check(n)` — a `.check(` whose receiver
    // names the budget.
    t.text == "check"
        && pos > 0
        && sf.tok(pos - 1).is_some_and(|p| p.is_punct('.'))
        && sf.tok(pos + 1).is_some_and(|n| n.is_punct('('))
        && receiver_name(sf, pos - 1)
            .is_some_and(|r| r.to_ascii_lowercase().contains("budget"))
}

fn cancel_poll(cx: &Cx<'_>, out: &mut Vec<Violation>) {
    let g = cx.graph;
    let n = g.fns.len();

    // Direct polls: a poll token in the body, or a `polls-budget` evidence
    // directive targeting the fn or any line of its body.
    let mut polls: Vec<bool> = (0..n)
        .map(|fid| {
            let f = &g.fns[fid];
            let sf = cx.sf(fid);
            if (f.body.start..f.body.end).any(|p| polls_at(sf, p)) {
                return true;
            }
            let (lo, hi) = cx.body_lines(fid);
            cx.anns[f.file].iter().any(|a| {
                a.directive == Directive::PollsBudget
                    && (a.target_line == f.line || (a.target_line >= lo && a.target_line <= hi))
            })
        })
        .collect();

    // Transitive closure: a fn polls if any callee polls.
    loop {
        let mut changed = false;
        for fid in 0..n {
            if !polls[fid] && g.fns[fid].calls.iter().any(|c| polls[c.callee]) {
                polls[fid] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Entry points: fns targeted by `// lint: entrypoint <why>`.
    let entries: Vec<usize> = (0..n)
        .filter(|&fid| {
            let f = &g.fns[fid];
            cx.anns[f.file]
                .iter()
                .any(|a| a.directive == Directive::Entrypoint && a.target_line == f.line)
        })
        .collect();

    // BFS with parent pointers for the witness chain.
    let mut parent: Vec<Option<(usize, u32)>> = vec![None; n];
    let mut seen: Vec<bool> = vec![false; n];
    let mut origin: Vec<usize> = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for &e in &entries {
        if !seen[e] {
            seen[e] = true;
            origin[e] = e;
            queue.push_back(e);
        }
    }
    while let Some(fid) = queue.pop_front() {
        for c in &g.fns[fid].calls {
            if !seen[c.callee] {
                seen[c.callee] = true;
                parent[c.callee] = Some((fid, c.line));
                origin[c.callee] = origin[fid];
                queue.push_back(c.callee);
            }
        }
    }

    for fid in 0..n {
        if !seen[fid] || !cx.in_scope(RuleId::CancelPollReachability, g.fns[fid].file) {
            continue;
        }
        let f = &g.fns[fid];
        let sf = cx.sf(fid);
        let columns = column_names(sf, f);
        for pos in f.body.start..f.body.end {
            if !sf.tok(pos).is_some_and(|t| t.is_ident("for")) {
                continue;
            }
            // Header: `for <pat> in <expr> {`, then the body up to its `}`.
            let Some(open) = ((pos + 1)..f.body.end)
                .find(|&p| sf.tok(p).is_some_and(|t| t.is_punct('{')))
            else {
                continue;
            };
            let Some(close) = match_delim(sf, open, '{', '}') else {
                continue;
            };
            let Some(work) = work_evidence(sf, &columns, &f.iterators, pos, open, close) else {
                continue;
            };
            let loop_line = sf.tok(pos).map(|t| t.line).unwrap_or(f.line);

            let polled = (pos..close).any(|p| polls_at(sf, p))
                || f.calls.iter().any(|c| c.pos > pos && c.pos < close && polls[c.callee]);
            if polled
                || cx.suppressed(f.file, RuleId::CancelPollReachability, loop_line)
            {
                continue;
            }

            // Witness: entry -> … -> this fn -> the loop.
            let entry = origin[fid];
            let mut chain = Vec::new();
            let mut cur = fid;
            while let Some((p, call_line)) = parent[cur] {
                chain.push(step(
                    &cx.sf(p).rel,
                    call_line,
                    format!("calls `{}`", g.fns[cur].qual()),
                ));
                cur = p;
            }
            chain.push(step(
                &cx.sf(entry).rel,
                g.fns[entry].line,
                format!("entry point `{}`", g.fns[entry].qual()),
            ));
            chain.reverse();
            chain.push(step(
                &sf.rel,
                loop_line,
                format!("loop {work} and never reaches a budget/cancel poll"),
            ));

            out.push(Violation {
                file: sf.rel.clone(),
                line: loop_line,
                rule: RuleId::CancelPollReachability,
                message: format!(
                    "loop in `{}` {work}, is reachable from entry point `{}`, but \
                     never reaches a budget/cancel poll — poll QueryBudget in the loop or \
                     annotate `// lint: polls-budget <why>`",
                    f.qual(),
                    g.fns[entry].qual()
                ),
                trace: chain,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Acq {
    lock: String,
    recv: String,
    line: u32,
    pos: usize,
    hold_end: usize,
}

/// All lock acquisitions in a function body, with the sig-span over which
/// each guard is (over-approximately) held.
fn acquisitions(cx: &Cx<'_>, fid: usize) -> Vec<Acq> {
    let f = &cx.graph.fns[fid];
    let sf = cx.sf(fid);
    let mut out = Vec::new();
    for pos in f.body.start..f.body.end {
        let Some(t) = sf.tok(pos) else { break };
        if t.kind != TokenKind::Ident
            || pos == 0
            || !sf.tok(pos - 1).is_some_and(|p| p.is_punct('.'))
            || !sf.tok(pos + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        // `.lock()` / `.read()` / `.write()` take no arguments on
        // Mutex/RwLock — an argument means I/O, not a lock. `get_or_init`
        // takes its init closure.
        let bare = sf.tok(pos + 2).is_some_and(|n| n.is_punct(')'));
        let is_acq = (bare && matches!(t.text.as_str(), "lock" | "read" | "write"))
            || t.text == "get_or_init";
        if !is_acq {
            continue;
        }
        let Some(recv) = receiver_name(sf, pos - 1) else { continue };
        let lock = format!("{}:{}", sf.crate_name(), recv);

        // Statement start: just past the previous `;`/`{`/`}`.
        let stmt_start = (f.body.start..pos)
            .rev()
            .find(|&p| {
                sf.tok(p).is_some_and(|u| {
                    u.is_punct(';') || u.is_punct('{') || u.is_punct('}')
                })
            })
            .map(|p| p + 1)
            .unwrap_or(f.body.start);
        let let_bound = (stmt_start..pos).any(|p| sf.tok(p).is_some_and(|u| u.is_ident("let")));

        let hold_end = if let_bound {
            // Guard lives until `drop(name)` or the end of its block.
            let guard = (stmt_start..pos)
                .skip_while(|&p| !sf.tok(p).is_some_and(|u| u.is_ident("let")))
                .skip(1)
                .find_map(|p| {
                    sf.tok(p).and_then(|u| {
                        (u.kind == TokenKind::Ident
                            && !matches!(u.text.as_str(), "mut" | "Ok" | "Some" | "Err"))
                        .then(|| u.text.clone())
                    })
                });
            let dropped = guard.as_ref().and_then(|gname| {
                (pos..f.body.end).find(|&p| {
                    sf.tok(p).is_some_and(|u| u.is_ident("drop"))
                        && sf.tok(p + 1).is_some_and(|u| u.is_punct('('))
                        && sf.tok(p + 2).is_some_and(|u| u.is_ident(gname))
                })
            });
            dropped.unwrap_or_else(|| enclosing_block_end(sf, pos, f.body.end))
        } else {
            // Temporary guard: dropped at the end of the statement.
            let mut depth = 0usize;
            let mut end = f.body.end;
            for p in pos..f.body.end {
                let Some(u) = sf.tok(p) else { break };
                if u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct('}') {
                    if depth == 0 {
                        end = p;
                        break;
                    }
                    depth -= 1;
                } else if u.is_punct(';') && depth == 0 {
                    end = p;
                    break;
                }
            }
            end
        };
        out.push(Acq { lock, recv, line: t.line, pos, hold_end });
    }
    out
}

/// Sig-position of the `}` closing the innermost block containing `pos`.
fn enclosing_block_end(sf: &SourceFile, pos: usize, limit: usize) -> usize {
    let mut depth = 0usize;
    for p in pos..limit {
        let Some(u) = sf.tok(p) else { break };
        if u.is_punct('{') {
            depth += 1;
        } else if u.is_punct('}') {
            if depth == 0 {
                return p;
            }
            depth -= 1;
        }
    }
    limit
}

fn lock_order(cx: &Cx<'_>, out: &mut Vec<Violation>) {
    let g = cx.graph;
    let n = g.fns.len();
    let acqs: Vec<Vec<Acq>> = (0..n)
        .map(|fid| if cx.in_scope(RuleId::LockOrder, g.fns[fid].file) { acquisitions(cx, fid) } else { Vec::new() })
        .collect();

    // Transitive acquisition summaries with a representative witness path.
    let mut acq_paths: Vec<BTreeMap<String, Vec<TraceStep>>> = (0..n)
        .map(|fid| {
            let mut m = BTreeMap::new();
            for a in &acqs[fid] {
                m.entry(a.lock.clone()).or_insert_with(|| {
                    vec![step(&cx.sf(fid).rel, a.line, format!("acquires `{}`", a.lock))]
                });
            }
            m
        })
        .collect();
    loop {
        let mut changed = false;
        for fid in 0..n {
            for c in g.fns[fid].calls.clone() {
                if c.callee == fid {
                    continue;
                }
                let callee_paths = acq_paths[c.callee].clone();
                for (lock, path) in callee_paths {
                    if !acq_paths[fid].contains_key(&lock) {
                        let mut p = vec![step(
                            &cx.sf(fid).rel,
                            c.line,
                            format!("calls `{}`", g.fns[c.callee].qual()),
                        )];
                        p.extend(path);
                        acq_paths[fid].insert(lock, p);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges: lock A held while lock B is acquired (directly or through
    // a call). Keyed (from, to); first witness wins (deterministic order).
    type EdgeInfo = (Vec<TraceStep>, usize, u32); // witness, report file, line
    let mut edges: BTreeMap<(String, String), EdgeInfo> = BTreeMap::new();
    for (fid, facqs) in acqs.iter().enumerate() {
        let f = &g.fns[fid];
        let sf = cx.sf(fid);
        for a in facqs {
            let astep = step(&sf.rel, a.line, format!("acquires `{}` (`{}`)", a.lock, a.recv));
            for b in facqs {
                if b.pos > a.pos && b.pos < a.hold_end && b.lock != a.lock {
                    edges
                        .entry((a.lock.clone(), b.lock.clone()))
                        .or_insert_with(|| {
                            (
                                vec![
                                    astep.clone(),
                                    step(
                                        &sf.rel,
                                        b.line,
                                        format!("then acquires `{}` while holding it", b.lock),
                                    ),
                                ],
                                f.file,
                                a.line,
                            )
                        });
                }
            }
            for c in &f.calls {
                if c.pos <= a.pos || c.pos >= a.hold_end {
                    continue;
                }
                for (lock, path) in &acq_paths[c.callee] {
                    if *lock == a.lock {
                        continue;
                    }
                    edges.entry((a.lock.clone(), lock.clone())).or_insert_with(|| {
                        let mut w = vec![
                            astep.clone(),
                            step(
                                &sf.rel,
                                c.line,
                                format!(
                                    "calls `{}` while holding `{}`",
                                    g.fns[c.callee].qual(),
                                    a.lock
                                ),
                            ),
                        ];
                        w.extend(path.clone());
                        (w, f.file, a.line)
                    });
                }
            }
        }
    }

    // Cycle detection: an edge (a, b) with a path b ~> a closes a cycle.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    for ((a, b), (witness, file_idx, line)) in &edges {
        // BFS b ~> a with parents.
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue = VecDeque::from([b.as_str()]);
        let mut found = false;
        while let Some(node) = queue.pop_front() {
            if node == a.as_str() {
                found = true;
                break;
            }
            for &next in adj.get(node).into_iter().flatten() {
                if next != b.as_str() && !parent.contains_key(next) {
                    parent.insert(next, node);
                    queue.push_back(next);
                }
            }
        }
        if !found {
            continue;
        }
        // Path b -> … -> a from the parent map.
        let mut path = vec![a.as_str()];
        let mut cur = a.as_str();
        while let Some(&p) = parent.get(cur) {
            path.push(p);
            cur = p;
        }
        path.push(b.as_str());
        path.reverse(); // b, …, a
        let key: BTreeSet<String> = path.iter().map(|s| s.to_string()).collect();
        let key = {
            let mut k = key;
            k.insert(a.clone());
            k.insert(b.clone());
            k
        };
        if !reported.insert(key) {
            continue;
        }
        if cx.suppressed(*file_idx, RuleId::LockOrder, *line) {
            continue;
        }
        let cycle: Vec<&str> = std::iter::once(a.as_str()).chain(path.iter().copied()).collect();
        let mut trace = witness.clone();
        // Append the witnesses of the return path's edges.
        for pair in path.windows(2) {
            if let [from, to] = pair {
                if let Some((w, _, _)) = edges.get(&(from.to_string(), to.to_string())) {
                    trace.extend(w.clone());
                }
            }
        }
        out.push(Violation {
            file: cx.files[*file_idx].rel.clone(),
            line: *line,
            rule: RuleId::LockOrder,
            message: format!(
                "lock order cycle `{}` — these locks are acquired in inconsistent order and \
                 can deadlock; pick one order or annotate `// lint: allow(lock-order) <why>`",
                cycle.join("` -> `")
            ),
            trace,
        });
    }
}

// ---------------------------------------------------------------------------
// wire-taint
// ---------------------------------------------------------------------------

/// Identifiers that carry request-derived bytes/sizes wherever they appear.
const WIRE_SOURCES: [&str; 10] = [
    "headers", "header", "body", "content_length", "params", "param", "query", "payload", "req",
    "request",
];

/// One tainted flow into a sink; `steps` ends at the sink site.
#[derive(Debug, Clone)]
struct Flow {
    var: String,
    steps: Vec<TraceStep>,
}

/// Scan one function body for taint flows. `seed` names identifiers tainted
/// on entry (parameter summaries); `implicit` additionally treats
/// [`WIRE_SOURCES`] identifiers as tainted (top-level scan of the wire
/// boundary). `vuln` holds per-(fn, param) sink summaries for call edges.
fn flows_in(
    cx: &Cx<'_>,
    fid: usize,
    seed: &BTreeSet<String>,
    implicit: bool,
    vuln: &[BTreeMap<usize, Vec<TraceStep>>],
) -> Vec<Flow> {
    let f = &cx.graph.fns[fid];
    let sf = cx.sf(fid);
    let mut flows = Vec::new();
    let mut tainted: BTreeMap<String, usize> = BTreeMap::new();
    let mut capped: BTreeMap<String, usize> = BTreeMap::new();

    let is_tainted = |name: &str,
                      pos: usize,
                      tainted: &BTreeMap<String, usize>,
                      capped: &BTreeMap<String, usize>| {
        let sourced = seed.contains(name)
            || (implicit && WIRE_SOURCES.contains(&name))
            || tainted.get(name).is_some_and(|&tp| tp <= pos);
        sourced && capped.get(name).is_none_or(|&cp| cp >= pos)
    };

    let sink = |flows: &mut Vec<Flow>, var: &str, line: u32, what: &str| {
        flows.push(Flow {
            var: var.to_string(),
            steps: vec![step(&sf.rel, line, format!("request-derived `{var}` sizes {what}"))],
        });
    };

    for pos in f.body.start..f.body.end {
        let Some(t) = sf.tok(pos) else { break };

        // Cap events: comparisons and `.min(`/`.clamp(` clear taint forward.
        if t.kind == TokenKind::Ident {
            let cmp_next = sf.tok(pos + 1).is_some_and(|u| u.is_punct('<') || u.is_punct('>'));
            let cmp_prev = pos > 0
                && sf.tok(pos - 1).is_some_and(|u| u.is_punct('<') || u.is_punct('>'));
            let capped_call = sf.tok(pos + 1).is_some_and(|u| u.is_punct('.'))
                && sf
                    .tok(pos + 2)
                    .is_some_and(|u| u.is_ident("min") || u.is_ident("clamp"));
            if cmp_next || cmp_prev || capped_call {
                capped.entry(t.text.clone()).or_insert(pos);
            }
        }

        // `let <pat> = <rhs>;` — taint propagates from rhs to the binding.
        if t.is_ident("let") {
            let mut eq = None;
            for q in (pos + 1)..f.body.end {
                let Some(u) = sf.tok(q) else { break };
                if u.is_punct('=')
                    && !sf.tok(q + 1).is_some_and(|v| v.is_punct('='))
                    && !sf.tok(q.wrapping_sub(1)).is_some_and(|v| {
                        v.is_punct('=') || v.is_punct('!') || v.is_punct('<') || v.is_punct('>')
                    })
                {
                    eq = Some(q);
                    break;
                }
                if u.is_punct(';') || u.is_punct('{') {
                    break;
                }
            }
            let Some(eq) = eq else { continue };
            let binding = ((pos + 1)..eq).find_map(|q| {
                sf.tok(q).and_then(|u| {
                    (u.kind == TokenKind::Ident
                        && !matches!(u.text.as_str(), "mut" | "Ok" | "Some" | "Err"))
                    .then(|| u.text.clone())
                })
            });
            let Some(binding) = binding else { continue };
            // RHS extends to the `;` at depth 0.
            let mut depth = 0usize;
            let mut rhs_end = f.body.end;
            for q in (eq + 1)..f.body.end {
                let Some(u) = sf.tok(q) else { break };
                if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                    depth = depth.saturating_sub(1);
                } else if u.is_punct(';') && depth == 0 {
                    rhs_end = q;
                    break;
                }
            }
            let rhs_capped = ((eq + 1)..rhs_end).any(|q| {
                sf.tok(q).is_some_and(|u| u.is_ident("min") || u.is_ident("clamp"))
                    && sf.tok(q.wrapping_sub(1)).is_some_and(|u| u.is_punct('.'))
            });
            let rhs_tainted = ((eq + 1)..rhs_end).any(|q| {
                sf.tok(q).is_some_and(|u| {
                    u.kind == TokenKind::Ident && is_tainted(&u.text, q, &tainted, &capped)
                })
            });
            if rhs_tainted && !rhs_capped {
                tainted.insert(binding, rhs_end);
            }
            continue;
        }

        // Sinks.
        let next_paren = sf.tok(pos + 1).is_some_and(|u| u.is_punct('('));
        let prev_dot = pos > 0 && sf.tok(pos - 1).is_some_and(|u| u.is_punct('.'));
        let alloc_sink = t.kind == TokenKind::Ident
            && next_paren
            && (t.text == "with_capacity"
                || (prev_dot && matches!(t.text.as_str(), "reserve" | "chunks" | "div_ceil")));
        if alloc_sink {
            if let Some(close) = match_delim(sf, pos + 1, '(', ')') {
                for q in (pos + 2)..close {
                    let Some(u) = sf.tok(q) else { break };
                    if u.kind == TokenKind::Ident && is_tainted(&u.text, q, &tainted, &capped) {
                        let what = match t.text.as_str() {
                            "with_capacity" => "`with_capacity`".to_string(),
                            m => format!("`.{m}(…)`"),
                        };
                        sink(&mut flows, &u.text, t.line, &what);
                        break;
                    }
                }
            }
            continue;
        }

        // `vec![elem; n]` — the length expression after `;`.
        if t.is_ident("vec")
            && sf.tok(pos + 1).is_some_and(|u| u.is_punct('!'))
            && sf.tok(pos + 2).is_some_and(|u| u.is_punct('['))
        {
            if let Some(close) = match_delim(sf, pos + 2, '[', ']') {
                if let Some(semi) =
                    ((pos + 3)..close).find(|&q| sf.tok(q).is_some_and(|u| u.is_punct(';')))
                {
                    for q in (semi + 1)..close {
                        let Some(u) = sf.tok(q) else { break };
                        if u.kind == TokenKind::Ident && is_tainted(&u.text, q, &tainted, &capped)
                        {
                            sink(&mut flows, &u.text, t.line, "`vec![_; n]`");
                            break;
                        }
                    }
                }
            }
            continue;
        }

        // Slice indexing `xs[n]` by a tainted n (a `%` inside bounds it).
        if t.is_punct('[')
            && pos > 0
            && sf.tok(pos - 1).is_some_and(|u| {
                (u.kind == TokenKind::Ident && u.text != "vec") || u.is_punct(')') || u.is_punct(']')
            })
        {
            if let Some(close) = match_delim(sf, pos, '[', ']') {
                let bounded =
                    ((pos + 1)..close).any(|q| sf.tok(q).is_some_and(|u| u.is_punct('%')));
                if !bounded {
                    for q in (pos + 1)..close {
                        let Some(u) = sf.tok(q) else { break };
                        if u.kind == TokenKind::Ident && is_tainted(&u.text, q, &tainted, &capped)
                        {
                            sink(&mut flows, &u.text, t.line, "a slice index");
                            break;
                        }
                    }
                }
            }
            continue;
        }
    }

    // Call edges: a tainted, uncapped argument in a position the callee's
    // summary marks as flowing to a sink.
    for c in &f.calls {
        if vuln[c.callee].is_empty() {
            continue;
        }
        let Some(close) = match_delim(sf, c.pos + 1, '(', ')') else { continue };
        let mut arg = 0usize;
        let mut depth = 0usize;
        // Method calls shift positional args by one vs the declared params
        // only when the callee takes self — the param list already skips
        // `self`, so positions line up.
        for q in (c.pos + 2)..close {
            let Some(u) = sf.tok(q) else { break };
            if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                depth += 1;
            } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if u.is_punct(',') && depth == 0 {
                arg += 1;
            } else if u.kind == TokenKind::Ident && is_tainted(&u.text, q, &tainted, &capped) {
                if let Some(path) = vuln[c.callee].get(&arg) {
                    let mut steps = vec![step(
                        &sf.rel,
                        c.line,
                        format!(
                            "passes request-derived `{}` to `{}`",
                            u.text,
                            cx.graph.fns[c.callee].qual()
                        ),
                    )];
                    steps.extend(path.clone());
                    flows.push(Flow { var: u.text.clone(), steps });
                }
            }
        }
    }

    flows
}

fn wire_taint(cx: &Cx<'_>, out: &mut Vec<Violation>) {
    let g = cx.graph;
    let n = g.fns.len();

    // Parameter summaries: does param `i` of fn `f` reach a sink uncapped?
    let mut vuln: Vec<BTreeMap<usize, Vec<TraceStep>>> = vec![BTreeMap::new(); n];
    for _round in 0..8 {
        let mut changed = false;
        for fid in 0..n {
            for (i, pname) in g.fns[fid].params.clone().into_iter().enumerate() {
                if vuln[fid].contains_key(&i) {
                    continue;
                }
                let seed: BTreeSet<String> = std::iter::once(pname).collect();
                let flows = flows_in(cx, fid, &seed, false, &vuln);
                if let Some(fl) = flows.first() {
                    vuln[fid].insert(i, fl.steps.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Top-level: wire sources are implicit taint in boundary files.
    let rel_index: BTreeMap<&str, usize> =
        cx.files.iter().enumerate().map(|(i, f)| (f.rel.as_str(), i)).collect();
    let mut seen_sinks: BTreeSet<(String, u32)> = BTreeSet::new();
    let empty = BTreeSet::new();
    for fid in 0..n {
        let f = &g.fns[fid];
        if !cx.in_scope(RuleId::WireTaint, f.file) {
            continue;
        }
        let sf = cx.sf(fid);
        for fl in flows_in(cx, fid, &empty, true, &vuln) {
            let Some(last) = fl.steps.last().cloned() else { continue };
            if !seen_sinks.insert((last.file.clone(), last.line)) {
                continue;
            }
            let first_line = fl.steps.first().map(|s| s.line).unwrap_or(last.line);
            let sink_file_idx = rel_index.get(last.file.as_str()).copied().unwrap_or(f.file);
            if cx.suppressed(sink_file_idx, RuleId::WireTaint, last.line)
                || cx.suppressed(f.file, RuleId::WireTaint, first_line)
            {
                continue;
            }
            let mut trace = vec![step(
                &sf.rel,
                first_line,
                format!("`{}` derives from request bytes in `{}`", fl.var, f.qual()),
            )];
            trace.extend(fl.steps.clone());
            out.push(Violation {
                file: last.file.clone(),
                line: last.line,
                rule: RuleId::WireTaint,
                message: format!(
                    "request-derived `{}` flows into an allocation/index size without a \
                     bounds check — cap it (`.min(cap)`, explicit compare) or annotate \
                     `// lint: capped-by <bound>`",
                    fl.var
                ),
                trace,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn run_on(srcs: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<SourceFile> =
            srcs.iter().map(|(rel, src)| SourceFile::parse(rel, src)).collect();
        let graph = CallGraph::build(&files);
        run(&files, &graph, ScanMode::AllRules)
    }

    #[test]
    fn cancel_poll_fires_through_a_call_chain() {
        let src = "\
// lint: entrypoint fixture
pub fn handle() { middle(); }
fn middle() { hot(); }
fn hot(xs: &[f64]) {
    for i in 0..xs.len() {
        let _ = xs[i];
    }
}
fn fine(xs: &[f64], budget: &B) {
    for i in 0..xs.len() {
        budget.check(1);
        let _ = xs[i];
    }
}
";
        let v = run_on(&[("crates/core/src/x.rs", src)]);
        let cp: Vec<&Violation> =
            v.iter().filter(|v| v.rule == RuleId::CancelPollReachability).collect();
        assert_eq!(cp.len(), 1, "{v:?}");
        assert_eq!(cp[0].line, 5);
        assert!(cp[0].trace.len() >= 3, "{:?}", cp[0].trace);
        assert!(cp[0].trace[0].note.contains("entry point"));
    }

    /// A work loop is what its body does: the same body gets one verdict
    /// under any spelling of its row set, a zone's column slices make a
    /// work loop of a loop over anything, and metadata loops are silent.
    #[test]
    fn work_loops_are_decided_by_their_bodies() {
        let verdicts = |body: &str| {
            let src = format!(
                "// lint: entrypoint fixture\npub fn handle(xs: &[f64], zone: &Z, h: &H) {{\n{body}\n}}\n"
            );
            run_on(&[("crates/core/src/x.rs", &src)])
                .iter()
                .filter(|v| v.rule == RuleId::CancelPollReachability)
                .count()
        };
        for rows in ["rows", "bits", "idx", "set"] {
            let body = format!("for i in {rows} {{ let _ = xs[i]; }}");
            assert_eq!(verdicts(&body), 1, "{body}");
            let polled = format!("for i in {rows} {{ budget.check(1); let _ = xs[i]; }}");
            assert_eq!(verdicts(&polled), 0, "{polled}");
        }
        // Slices a `let` takes from a zone are columns too.
        assert_eq!(
            verdicts("let (ys, _) = zone.locs(); for k in 0..9 { let _ = ys[k]; }"),
            1
        );
        assert_eq!(verdicts("for z in 0..9 { let _ = zone.attr(z); }"), 1);
        assert_eq!(verdicts("for z in 0..9 { let _ = h.read_zone(z); }"), 1);
        assert_eq!(
            verdicts("for batch in recorded.chunks(64) { let _ = batch; }"),
            1
        );
        // Metadata: a header's chunk list, a tile grid, an index by another
        // variable, a non-column slice.
        assert_eq!(
            verdicts("for chunk in &h.chunks { let _ = chunk.rows; }"),
            0
        );
        assert_eq!(verdicts("for tile in tiles { let _ = xs[0]; }"), 0);
        assert_eq!(
            verdicts("for points in 0..9 { let _ = offsets[points]; }"),
            0
        );
    }

    #[test]
    fn lock_order_cycle_and_clean_order() {
        let src = "\
struct S;
impl S {
    fn ab(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        drop(b);
        drop(a);
    }
    fn ba(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        drop(a);
        drop(b);
    }
}
";
        let v = run_on(&[("crates/core/src/l.rs", src)]);
        let lo: Vec<&Violation> = v.iter().filter(|v| v.rule == RuleId::LockOrder).collect();
        assert_eq!(lo.len(), 1, "{v:?}");
        assert!(!lo[0].trace.is_empty());

        let clean = "\
struct S;
impl S {
    fn ab(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        drop(b);
        drop(a);
    }
    fn ab2(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        drop(b);
        drop(a);
    }
}
";
        let v = run_on(&[("crates/core/src/l.rs", clean)]);
        assert!(v.iter().all(|v| v.rule != RuleId::LockOrder), "{v:?}");
    }

    #[test]
    fn wire_taint_flags_uncapped_and_respects_guard() {
        let src = "\
fn read(headers: &[String]) -> Vec<u8> {
    let n = headers.len();
    let buf = vec![0u8; n];
    buf
}
fn guarded(headers: &[String], max: usize) -> Vec<u8> {
    let n = headers.len();
    if n > max { return Vec::new(); }
    vec![0u8; n]
}
";
        let v = run_on(&[("crates/server/src/h.rs", src)]);
        let wt: Vec<&Violation> = v.iter().filter(|v| v.rule == RuleId::WireTaint).collect();
        assert_eq!(wt.len(), 1, "{v:?}");
        assert_eq!(wt[0].line, 3);
        assert!(!wt[0].trace.is_empty());
    }

    #[test]
    fn wire_taint_interprocedural() {
        let src = "\
fn boundary(body: &str) {
    let size = body.len();
    alloc_for(size);
}
fn alloc_for(n: usize) -> Vec<u8> {
    Vec::with_capacity(n)
}
";
        let v = run_on(&[("crates/server/src/i.rs", src)]);
        let wt: Vec<&Violation> = v.iter().filter(|v| v.rule == RuleId::WireTaint).collect();
        assert_eq!(wt.len(), 1, "{v:?}");
        assert_eq!(wt[0].line, 6, "{wt:?}");
        assert!(wt[0].trace.iter().any(|s| s.note.contains("alloc_for")), "{:?}", wt[0].trace);
    }
}
