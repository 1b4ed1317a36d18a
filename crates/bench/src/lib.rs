//! # urbane-bench — experiment harness
//!
//! Shared workload builders and measurement helpers behind the `repro`
//! binary, which regenerates every experiment table of DESIGN.md §4
//! (`cargo run --release -p urbane-bench --bin repro -- --exp all`).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod verify_exp;
pub mod workload;

use std::time::Instant;

/// Time a closure, returning `(result, milliseconds)`.
pub fn time_ms<T, F: FnOnce() -> T>(f: F) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Run `f` `reps` times and report the median wall-clock milliseconds.
pub fn median_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    assert!(reps >= 1);
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    times[times.len() / 2]
}

/// Minimal fixed-width table printer for the repro binary's output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (must match header arity).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for c in 0..ncols {
                if c > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:>w$}", cells[c], w = widths[c]));
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers() {
        let (v, ms) = time_ms(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        let m = median_ms(3, || {});
        assert!(m >= 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["method", "ms"]);
        t.row(["raster-join", "1.5"]);
        t.row(["naive", "10000"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("method"));
        assert!(lines[3].contains("10000"));
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }
}
