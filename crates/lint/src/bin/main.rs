#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
//! `urbane-lint` CLI.
//!
//! ```text
//! urbane-lint check [--root DIR] [--json] [--trace FILE:LINE]
//! ```
//!
//! `--trace crates/x/src/y.rs:42` prints the full witness path of the
//! violation at that location (call chain / lock chain / taint path) and
//! nothing else.
//!
//! Exit codes: 0 no unsuppressed finding, 1 any finding, 2 usage or I/O
//! error.

use std::env;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use urbane_lint::engine::{find_workspace_root, scan_workspace};
use urbane_lint::RuleId;

const USAGE: &str = "usage: urbane-lint check [--root DIR] [--json] [--trace FILE:LINE]";

struct Opts {
    root: Option<PathBuf>,
    json: bool,
    trace: Option<(String, u32)>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut it = args.iter();
    let command = it.next().ok_or_else(|| USAGE.to_string())?;
    if command != "check" {
        return Err(format!("unknown command `{command}`\n{USAGE}"));
    }
    let mut opts = Opts { root: None, json: false, trace: None };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                opts.root =
                    Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--json" => opts.json = true,
            "--trace" => {
                let spec = it.next().ok_or("--trace needs FILE:LINE")?;
                let (file, line) =
                    spec.rsplit_once(':').ok_or("--trace needs FILE:LINE")?;
                let line: u32 =
                    line.parse().map_err(|_| format!("--trace: bad line in `{spec}`"))?;
                opts.trace = Some((file.to_string(), line));
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = env::args().skip(1).collect();
    let opts = parse_args(&args)?;

    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no workspace root (Cargo.toml + crates/) above cwd; pass --root")?
        }
    };

    let violations = scan_workspace(&root)?;

    if let Some((file, line)) = opts.trace {
        let matches: Vec<_> =
            violations.iter().filter(|v| v.file == file && v.line == line).collect();
        if matches.is_empty() {
            println!("urbane-lint: no violation at {file}:{line}");
            return Ok(ExitCode::FAILURE);
        }
        for v in matches {
            println!("{}", v.render());
            if v.trace.is_empty() {
                println!("  (per-line rule — no witness trace)");
            } else {
                println!("  witness:\n{}", v.render_trace());
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    let ok = violations.is_empty();

    if opts.json {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"ok\": {}, \"current_total\": {}, \"rules\": [",
            ok,
            violations.len()
        );
        for (i, r) in RuleId::ALL.iter().enumerate() {
            let comma = if i + 1 == RuleId::ALL.len() { "" } else { ", " };
            let _ = write!(out, "{}{}", escape(r.as_str()), comma);
        }
        out.push_str("], \"violations\": [");
        for (i, v) in violations.iter().enumerate() {
            let comma = if i + 1 == violations.len() { "" } else { ", " };
            let mut trace = String::from("[");
            for (j, s) in v.trace.iter().enumerate() {
                let tc = if j + 1 == v.trace.len() { "" } else { ", " };
                let _ = write!(
                    trace,
                    "{{\"file\": {}, \"line\": {}, \"note\": {}}}{}",
                    escape(&s.file),
                    s.line,
                    escape(&s.note),
                    tc
                );
            }
            trace.push(']');
            let _ = write!(
                out,
                "{{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"trace\": {}}}{}",
                escape(&v.file),
                v.line,
                escape(v.rule.as_str()),
                escape(&v.message),
                trace,
                comma
            );
        }
        out.push_str("]}");
        println!("{out}");
    } else if ok {
        println!("urbane-lint: OK — no findings");
    } else {
        println!("urbane-lint: FAILED — {} finding(s):", violations.len());
        for v in &violations {
            println!("  {}", v.render());
            if !v.trace.is_empty() {
                println!("{}", v.render_trace());
            }
        }
        println!(
            "fix each finding, or add an inline `// lint: allow(<rule>) <why>` where it is \
             deliberate"
        );
    }

    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Escape `s` as a JSON string literal, quotes included.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("urbane-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::escape;

    #[test]
    fn escape_quotes_backslashes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\te\r"), r#""a\"b\\c\nd\te\r""#);
        assert_eq!(escape("\u{1}ü"), "\"\\u0001ü\"");
    }
}
