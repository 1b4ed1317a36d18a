#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # urbane-lint — workspace invariant checker
//!
//! The reproduction's correctness story (bit-identical answers regardless of
//! thread count, the §8 degradation ladder, poison-recovering panic
//! isolation) rests on conventions that `rustc` cannot see. This crate makes
//! them mechanical: a lightweight Rust [`lexer`] (string/char/comment/
//! raw-string aware — no `syn`, the tree is offline), a structural [`scope`]
//! index (test spans, attributes, fn bodies), a [`rules`] catalog of ten
//! project invariants, a whole-workspace [`callgraph`] feeding the
//! [`dataflow`] analyses (cancel-poll reachability, lock ordering,
//! wire-input taint — each finding carries a witness trace), and an
//! [`engine`] that walks every `crates/*/src` file. A finding is fixed, or
//! suppressed inline with its reason.
//!
//! ```text
//! cargo run -p urbane-lint -- check      # exit 0 clean, 1 on any finding, 2 on an error
//! ```
//!
//! See DESIGN.md §11 for the rule catalog and suppression grammar, and §16
//! for the call-graph analyses and the evidence-directive vocabulary.

pub mod callgraph;
pub mod dataflow;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod scope;

pub use callgraph::{CallGraph, SourceFile};
pub use engine::{
    collect_workspace_files, find_workspace_root, scan_files, scan_fixtures, scan_workspace,
};
pub use rules::{scan_source, RuleId, ScanMode, TraceStep, Violation};
