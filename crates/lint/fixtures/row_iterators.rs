//! Fixture: rows handed in as an iterator are rows. A loop over a parameter
//! typed `impl Iterator`/`impl IntoIterator`, or over a generic bounded by
//! one, is a work loop whatever its body does.

pub struct RiBudget {
    cancelled: bool,
}

impl RiBudget {
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }
}

// lint: entrypoint fixture request dispatch
pub fn ri_handle(budget: &RiBudget) -> f64 {
    ri_impl_rows(0..4)
        + ri_generic_rows(0..4)
        + ri_where_rows([1.0, 2.0])
        + ri_polled_rows(0..4, budget)
        + ri_count(4)
}

/// `impl IntoIterator` in the parameter list, walked through an adaptor.
fn ri_impl_rows(rows: impl IntoIterator<Item = usize>) -> f64 {
    let mut acc = 0.0;
    for (k, r) in rows.into_iter().enumerate() {
        //~^ cancel-poll-reachability
        acc += (k + r) as f64;
    }
    acc
}

/// A generic bounded inline.
fn ri_generic_rows<I: Iterator<Item = usize>>(rows: I) -> f64 {
    let mut acc = 0.0;
    for r in rows {
        //~^ cancel-poll-reachability
        acc += r as f64;
    }
    acc
}

/// A generic bounded in a `where` clause.
fn ri_where_rows<I>(rows: I) -> f64
where
    I: IntoIterator<Item = f64>,
{
    let mut acc = 0.0;
    for v in rows {
        //~^ cancel-poll-reachability
        acc += v;
    }
    acc
}

/// The corrected twin: polls once per row.
fn ri_polled_rows(rows: impl Iterator<Item = usize>, budget: &RiBudget) -> f64 {
    let mut acc = 0.0;
    for r in rows {
        if budget.is_cancelled() {
            return acc;
        }
        acc += r as f64;
    }
    acc
}

/// A count is not an iterator: a range over it touches no rows.
fn ri_count(n: usize) -> f64 {
    let mut acc = 0.0;
    for k in 0..n {
        acc += k as f64;
    }
    acc
}
