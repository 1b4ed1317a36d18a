//! Workspace call graph recovered from tokens.
//!
//! The cross-procedural rules (cancel-poll reachability, lock ordering,
//! wire-input taint — see [`crate::dataflow`]) need to follow execution
//! across function boundaries. This module builds the graph they walk, from
//! nothing but the existing [`crate::lexer`] token stream and the
//! brace-matching [`crate::scope`] index — still std-only, no `syn`:
//!
//! 1. **Function index** — every `fn` item with a body, tagged with the type
//!    it is implemented on (recovered from an `impl … { … }` pass) so that
//!    `QueryBudget::check` and `Breaker::check` stay distinct nodes.
//! 2. **Call edges** — `.method(…)`, `free_call(…)`, and `Path::call(…)`
//!    sites inside each body, resolved by name against the function index.
//!    Resolution is deliberately over-approximate (a method call links to
//!    every method of that name); reachability analyses stay sound under
//!    extra edges, and the witness trace shows exactly which chain fired.
//!
//! Everything here works in *sig-position* space: indices into the
//! significant (non-comment) token list, so comments never split a pattern.

use std::collections::BTreeMap;

use crate::lexer::{lex, Token, TokenKind};
use crate::scope::{analyze, significant, Scopes, Span};

/// One parsed source file, shared by the per-file rules and the graph
/// analyses so each file is lexed and scope-indexed exactly once.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    pub tokens: Vec<Token>,
    /// Indices of non-comment tokens, in order.
    pub sig: Vec<usize>,
    pub scopes: Scopes,
}

impl SourceFile {
    pub fn parse(rel: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let sig = significant(&tokens);
        let scopes = analyze(&tokens, &sig);
        SourceFile { rel: rel.to_string(), tokens, sig, scopes }
    }

    /// Token at sig-position `pos`.
    pub fn tok(&self, pos: usize) -> Option<&Token> {
        self.sig.get(pos).map(|&i| &self.tokens[i])
    }

    /// The crate name for `crates/<name>/src/…` paths (empty otherwise).
    pub fn crate_name(&self) -> &str {
        self.rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
    }
}

/// Sig-position of the closer matching the opener at sig-position `open`.
pub fn match_delim(sf: &SourceFile, open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for pos in open..sf.sig.len() {
        let t = sf.tok(pos)?;
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(pos);
            }
        }
    }
    None
}

/// The nearest receiver identifier before the `.` at sig-position `dot` —
/// for `self.shards[i].head.lock()` that is `head`.
pub fn receiver_name(sf: &SourceFile, dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    loop {
        let t = sf.tok(j)?;
        if t.kind == TokenKind::Ident {
            return Some(t.text.clone());
        }
        if t.is_punct(']') || t.is_punct(')') {
            let (open_c, close_c) = if t.is_punct(']') { ('[', ']') } else { ('(', ')') };
            let mut depth = 0usize;
            loop {
                let u = sf.tok(j)?;
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

/// A call site inside a function body, resolved to a graph node.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    /// Index into [`CallGraph::fns`].
    pub callee: usize,
    pub line: u32,
    /// Sig-position of the callee name token (for ordering against lock
    /// acquisition spans).
    pub pos: usize,
}

/// One `fn` item with a body.
#[derive(Debug)]
pub struct FnNode {
    /// Index into the file set the graph was built from.
    pub file: usize,
    pub name: String,
    /// The `impl` type owning this method, when inside an `impl` block, or
    /// the trait providing it, when inside a `trait` block.
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Body interior as a sig-position span within the owning file.
    pub body: Span,
    /// Parameter names in declaration order (`self` excluded).
    pub params: Vec<String>,
    /// The parameters typed as a column slice: `&[f64]`, `&[f32]` or
    /// `&[i64]`, the element types of a point table's columns.
    pub columns: Vec<String>,
    /// The parameters that hand in rows as an iterator: typed
    /// `impl Iterator`/`impl IntoIterator`, or a generic bounded by one.
    pub iterators: Vec<String>,
    pub calls: Vec<CallEdge>,
}

impl FnNode {
    /// Display name: `Owner::name` for methods, bare `name` otherwise.
    pub fn qual(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace call graph. Node indices are stable for one build.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnNode>,
}

/// Keywords that look like calls when followed by `(`.
fn is_call_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while" | "for" | "match" | "loop" | "return" | "fn" | "let" | "move" | "as"
    )
}

/// Method names so common on std containers that resolving a bare `.name(`
/// against our own impls is almost always a false edge (`.get(i)` on a Vec
/// is not `Buffer2D::get`). Calls to these resolve only through qualified
/// paths (`Buffer2D::get(…)`), never by bare method name.
fn is_ambient_method(s: &str) -> bool {
    matches!(
        s,
        "get" | "get_mut"
            | "insert"
            | "remove"
            | "push"
            | "pop"
            | "len"
            | "is_empty"
            | "iter"
            | "iter_mut"
            | "next"
            | "clone"
            | "new"
            | "clear"
            | "set"
            | "contains"
            | "contains_key"
            | "extend"
            | "write"
            | "read"
            | "send"
            | "recv"
    )
}

impl CallGraph {
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut graph = CallGraph::default();

        // Pass 1: function index. Test functions never serve a request, so
        // they are not graph nodes (fixture corpora contain no test spans).
        for (fi, sf) in files.iter().enumerate() {
            let impls = impl_spans(sf);
            for f in sf.scopes.fn_spans() {
                if sf.scopes.in_test(f.fn_idx) {
                    continue;
                }
                let Some(fn_pos) = sf.sig.binary_search(&f.fn_idx).ok() else { continue };
                let Some(name_tok) = sf.tok(fn_pos + 1) else { continue };
                if name_tok.kind != TokenKind::Ident {
                    continue;
                }
                let owner = impls
                    .iter()
                    .find(|(span, _)| span.contains(f.fn_idx))
                    .map(|(_, ty)| ty.clone());
                let body = token_span_to_sig(sf, f.body);
                // First `(` outside generic brackets opens the param list
                // (`fn f<F: Fn(u32)>(x: F)` must skip the `Fn(` paren).
                let mut angle = 0isize;
                let mut paren = None;
                for p in (fn_pos + 2)..body.start {
                    let Some(t) = sf.tok(p) else { break };
                    if t.is_punct('<') {
                        angle += 1;
                    } else if t.is_punct('>') {
                        angle -= 1;
                    } else if t.is_punct('(') && angle <= 0 {
                        paren = Some(p);
                        break;
                    }
                }
                graph.fns.push(FnNode {
                    file: fi,
                    name: name_tok.text.clone(),
                    owner,
                    line: sf.tokens[f.fn_idx].line,
                    body,
                    params: paren.map(|p| param_names(sf, p)).unwrap_or_default(),
                    columns: paren.map(|p| column_params(sf, p)).unwrap_or_default(),
                    iterators: paren
                        .map(|p| iterator_params(sf, fn_pos + 2, p, body.start))
                        .unwrap_or_default(),
                    calls: Vec::new(),
                });
            }
        }

        // Name-resolution maps.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut qualified: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, f) in graph.fns.iter().enumerate() {
            match &f.owner {
                Some(o) => {
                    methods.entry(&f.name).or_default().push(id);
                    qualified.entry((o.as_str(), &f.name)).or_default().push(id);
                }
                None => free.entry(&f.name).or_default().push(id),
            }
        }

        // Pass 2: call edges.
        let mut all_calls: Vec<Vec<CallEdge>> = Vec::with_capacity(graph.fns.len());
        for f in &graph.fns {
            let sf = &files[f.file];
            let mut calls = Vec::new();
            for pos in f.body.start..f.body.end {
                let Some(t) = sf.tok(pos) else { break };
                if t.kind != TokenKind::Ident
                    || is_call_keyword(&t.text)
                    || !sf.tok(pos + 1).is_some_and(|n| n.is_punct('('))
                {
                    continue;
                }
                let prev = pos.checked_sub(1).and_then(|p| sf.tok(p));
                let callees: Vec<usize> = if prev.is_some_and(|p| p.is_punct('.')) {
                    // Method call: every method of that name. A bare name
                    // can also be a closure-field call — acceptable noise.
                    if is_ambient_method(&t.text) {
                        Vec::new()
                    } else {
                        methods.get(t.text.as_str()).cloned().unwrap_or_default()
                    }
                } else if prev.is_some_and(|p| p.is_punct(':')) {
                    // `Path::call(…)` — qualifier is the ident before `::`.
                    let q = pos
                        .checked_sub(3)
                        .and_then(|p| sf.tok(p))
                        .filter(|q| q.kind == TokenKind::Ident)
                        .map(|q| q.text.as_str());
                    let q = match q {
                        // `Self::m` resolves against the enclosing impl.
                        Some("Self") => f.owner.as_deref(),
                        other => other,
                    };
                    match q.and_then(|q| qualified.get(&(q, t.text.as_str()))) {
                        Some(ids) => ids.clone(),
                        // Qualifier may be a module path (`exec::run`): fall
                        // back to free functions of that name.
                        None => free.get(t.text.as_str()).cloned().unwrap_or_default(),
                    }
                } else if prev.is_some_and(|p| p.is_ident("fn")) {
                    continue; // nested fn declaration, not a call
                } else {
                    // Free call: prefer same-file, then same-crate targets to
                    // keep same-named helpers in different crates apart.
                    let ids = free.get(t.text.as_str()).cloned().unwrap_or_default();
                    let same_file: Vec<usize> =
                        ids.iter().copied().filter(|&i| graph.fns[i].file == f.file).collect();
                    if same_file.is_empty() {
                        let same_crate: Vec<usize> = ids
                            .iter()
                            .copied()
                            .filter(|&i| {
                                files[graph.fns[i].file].crate_name() == sf.crate_name()
                            })
                            .collect();
                        if same_crate.is_empty() { ids } else { same_crate }
                    } else {
                        same_file
                    }
                };
                for callee in callees {
                    calls.push(CallEdge { callee, line: t.line, pos });
                }
            }
            all_calls.push(calls);
        }
        for (f, calls) in graph.fns.iter_mut().zip(all_calls) {
            f.calls = calls;
        }
        graph
    }
}

/// Convert a token-index span to the corresponding sig-position span.
fn token_span_to_sig(sf: &SourceFile, span: Span) -> Span {
    let start = sf.sig.partition_point(|&i| i < span.start);
    let end = sf.sig.partition_point(|&i| i < span.end);
    Span { start, end }
}

/// `(body token-span, type name)` for every `impl` block in the file, and
/// `(body token-span, trait name)` for every `trait` block, whose provided
/// method bodies are methods of the trait.
/// Handles `impl Foo`, `impl Trait for Foo`, `impl<T> Foo<T> where …`,
/// `trait Name<T>: Bound where … {`.
fn impl_spans(sf: &SourceFile) -> Vec<(Span, String)> {
    let mut out = Vec::new();
    for pos in 0..sf.sig.len() {
        if sf.tok(pos).is_some_and(|t| t.is_ident("trait")) {
            let name = sf.tok(pos + 1).filter(|t| t.kind == TokenKind::Ident);
            // The body opens at the first `{`; a `;` first is no trait block.
            let open = ((pos + 1)..sf.sig.len())
                .find(|&q| sf.tok(q).is_some_and(|t| t.is_punct('{') || t.is_punct(';')))
                .filter(|&q| sf.tok(q).is_some_and(|t| t.is_punct('{')));
            if let (Some(open), Some(name)) = (open, name) {
                out.extend(block_span(sf, open).map(|span| (span, name.text.clone())));
            }
            continue;
        }
        if !sf.tok(pos).is_some_and(|t| t.is_ident("impl")) {
            continue;
        }
        // Walk to the body `{`, tracking angle depth so generic bounds do
        // not confuse the type-name pick.
        let mut angle = 0isize;
        let mut idents: Vec<String> = Vec::new();
        let mut open = None;
        for q in pos + 1..sf.sig.len() {
            let Some(t) = sf.tok(q) else { break };
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if t.is_punct('{') && angle <= 0 {
                open = Some(q);
                break;
            } else if t.is_punct(';') && angle <= 0 {
                break;
            } else if t.kind == TokenKind::Ident && angle <= 0 {
                if t.text == "where" {
                    break; // `impl Foo where …` — type name already seen
                }
                if t.text == "for" {
                    idents.clear(); // keep only the implementing type
                    continue;
                }
                idents.push(t.text.clone());
            }
        }
        // `where` exits the ident loop before finding `{` — resume the walk.
        let open = match open {
            Some(o) => Some(o),
            None => ((pos + 1)..sf.sig.len())
                .find(|&q| sf.tok(q).is_some_and(|t| t.is_punct('{'))),
        };
        let (Some(open), Some(ty)) = (open, idents.last().cloned()) else { continue };
        out.extend(block_span(sf, open).map(|span| (span, ty)));
    }
    out
}

/// The token span of the `{ … }` block opening at sig-position `open`.
fn block_span(sf: &SourceFile, open: usize) -> Option<Span> {
    let close = match_delim(sf, open, '{', '}')?;
    let (&s, &e) = (sf.sig.get(open)?, sf.sig.get(close)?);
    Some(Span { start: s, end: e + 1 })
}

/// The parameters, from the `(` at sig-position `open`, whose type is a
/// slice of a column element type (`[f64]`, `[f32]`, `[i64]`).
fn column_params(sf: &SourceFile, open: usize) -> Vec<String> {
    let Some(close) = match_delim(sf, open, '(', ')') else {
        return Vec::new();
    };
    let names = param_names(sf, open);
    let mut out = Vec::new();
    for pos in open..close {
        let is_column = sf.tok(pos).is_some_and(|t| t.is_punct('['))
            && sf
                .tok(pos + 1)
                .is_some_and(|t| matches!(t.text.as_str(), "f64" | "f32" | "i64"))
            && sf.tok(pos + 2).is_some_and(|t| t.is_punct(']'));
        if !is_column {
            continue;
        }
        // The parameter this type belongs to: the last `name :` before it.
        let owner = (open..pos).rev().find_map(|p| {
            let t = sf.tok(p)?;
            (t.kind == TokenKind::Ident
                && names.contains(&t.text)
                && sf.tok(p + 1).is_some_and(|n| n.is_punct(':')))
            .then(|| t.text.clone())
        });
        out.extend(owner.filter(|o| !out.contains(o)));
    }
    out
}

/// Does the type or bound at sig-positions `from..` (up to the first `,` or
/// `{` outside brackets, a `where`, an unmatched closer, or `end`) name
/// `Iterator` or `IntoIterator`?
fn names_iterator(sf: &SourceFile, from: usize, end: usize) -> bool {
    let mut depth = 0isize;
    for p in from..end {
        let Some(t) = sf.tok(p) else { break };
        if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && (t.is_punct(',') || t.is_punct('{') || t.is_ident("where")) {
            break;
        } else if t.is_ident("Iterator") || t.is_ident("IntoIterator") {
            return true;
        }
    }
    false
}

/// The parameters, from the `(` at sig-position `open`, whose type names
/// `Iterator`/`IntoIterator` (`impl Iterator<Item = usize>`) or is a
/// generic bounded by one, inline (`<I: IntoIterator<…>>`, sig-positions
/// `generics..open`) or in a `where` clause (before `body_start`).
fn iterator_params(
    sf: &SourceFile,
    generics: usize,
    open: usize,
    body_start: usize,
) -> Vec<String> {
    let Some(close) = match_delim(sf, open, '(', ')') else {
        return Vec::new();
    };
    // `Name :` outside the parameter list, not a `::` path.
    let bound_at = |p: usize| {
        sf.tok(p).is_some_and(|t| t.kind == TokenKind::Ident)
            && sf.tok(p + 1).is_some_and(|t| t.is_punct(':'))
            && !sf.tok(p + 2).is_some_and(|t| t.is_punct(':'))
            && !sf.tok(p.wrapping_sub(1)).is_some_and(|t| t.is_punct(':'))
    };
    let bounded: Vec<&str> = (generics..open)
        .chain(close..body_start)
        .filter(|&p| bound_at(p) && names_iterator(sf, p + 2, body_start))
        .filter_map(|p| sf.tok(p).map(|t| t.text.as_str()))
        .collect();
    param_names(sf, open)
        .into_iter()
        .filter(|name| {
            let Some(colon) = (open..close).find(|&p| {
                sf.tok(p).is_some_and(|t| t.text == *name)
                    && sf.tok(p + 1).is_some_and(|t| t.is_punct(':'))
            }) else {
                return false;
            };
            let ty = colon + 2;
            names_iterator(sf, ty, close)
                || sf.tok(ty).is_some_and(|t| bounded.contains(&t.text.as_str()))
        })
        .collect()
}

/// Parameter names from the `(` at sig-position `open` (skipping `self`):
/// idents immediately before a `:` at paren depth 1.
fn param_names(sf: &SourceFile, open: usize) -> Vec<String> {
    let mut params = Vec::new();
    if !sf.tok(open).is_some_and(|t| t.is_punct('(')) {
        return params;
    }
    let Some(close) = match_delim(sf, open, '(', ')') else { return params };
    let mut depth = 0usize;
    let mut angle = 0isize;
    for pos in open..close {
        let Some(t) = sf.tok(pos) else { break };
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.kind == TokenKind::Ident
            && t.text != "self"
            && depth == 1
            && angle <= 0
            && sf.tok(pos + 1).is_some_and(|n| n.is_punct(':'))
            && !sf.tok(pos + 2).is_some_and(|n| n.is_punct(':'))
        {
            params.push(t.text.clone());
        }
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> =
            srcs.iter().map(|(rel, src)| SourceFile::parse(rel, src)).collect();
        let g = CallGraph::build(&files);
        (files, g)
    }

    fn find<'g>(g: &'g CallGraph, qual: &str) -> &'g FnNode {
        g.fns
            .iter()
            .find(|f| f.qual() == qual)
            .unwrap_or_else(|| panic!("no fn {qual} in {:?}",
                g.fns.iter().map(|f| f.qual()).collect::<Vec<_>>()))
    }

    #[test]
    fn methods_get_impl_owners() {
        let src = "struct A;\nimpl A {\n    fn go(&self) {}\n}\nimpl Clone for A {\n    fn clone(&self) -> A { A }\n}\nfn free() {}\n";
        let (_, g) = graph_of(&[("crates/core/src/a.rs", src)]);
        assert_eq!(find(&g, "A::go").owner.as_deref(), Some("A"));
        assert_eq!(find(&g, "A::clone").owner.as_deref(), Some("A"));
        assert!(find(&g, "free").owner.is_none());
    }

    /// A trait's provided method body is a method of the trait: a `.name(`
    /// call reaches it, and `Self::` inside it resolves against the trait.
    #[test]
    fn provided_trait_methods_are_methods() {
        let src = "pub trait Index<T>: Sized where T: Copy {\n    fn probe(&self) -> u32;\n    fn join_rows(&self) { Self::helper(); }\n    fn helper() {}\n}\npub fn caller(i: &I) { i.join_rows(); }\ntrait Alias = Sized;\nfn after() {}\n";
        let (_, g) = graph_of(&[("crates/core/src/t.rs", src)]);
        let provided = find(&g, "Index::join_rows");
        assert_eq!(g.fns[provided.calls[0].callee].qual(), "Index::helper");
        let caller = find(&g, "caller");
        let quals: Vec<String> = caller.calls.iter().map(|c| g.fns[c.callee].qual()).collect();
        assert_eq!(quals, ["Index::join_rows"]);
        assert!(find(&g, "after").owner.is_none());
        assert!(!g.fns.iter().any(|f| f.name == "probe"), "a required method has no body");
    }

    #[test]
    fn calls_resolve_across_files() {
        let a = "pub fn caller() { helper(); other::remote(); x.method_here(); }\nfn helper() {}\n";
        let b = "pub fn remote() {}\npub struct T;\nimpl T {\n    pub fn method_here(&self) {}\n}\n";
        let (_, g) = graph_of(&[("crates/core/src/a.rs", a), ("crates/core/src/b.rs", b)]);
        let caller = find(&g, "caller");
        let quals: Vec<String> =
            caller.calls.iter().map(|c| g.fns[c.callee].qual()).collect();
        assert!(quals.contains(&"helper".to_string()), "{quals:?}");
        assert!(quals.contains(&"remote".to_string()), "{quals:?}");
        assert!(quals.contains(&"T::method_here".to_string()), "{quals:?}");
    }

    #[test]
    fn self_calls_resolve_to_enclosing_impl() {
        let src = "struct S;\nimpl S {\n    fn a(&self) { Self::b(); }\n    fn b() {}\n}\n";
        let (_, g) = graph_of(&[("crates/core/src/s.rs", src)]);
        let a = find(&g, "S::a");
        assert_eq!(a.calls.len(), 1);
        assert_eq!(g.fns[a.calls[0].callee].qual(), "S::b");
    }

    #[test]
    fn params_and_test_fns() {
        let src = "fn f(a: u32, mut b: &str, c: Vec<(u32, u32)>) {}\n#[cfg(test)]\nmod t {\n    fn hidden() {}\n}\n";
        let (_, g) = graph_of(&[("crates/core/src/p.rs", src)]);
        assert_eq!(find(&g, "f").params, vec!["a", "b", "c"]);
        assert!(!g.fns.iter().any(|f| f.name == "hidden"));
    }
}
