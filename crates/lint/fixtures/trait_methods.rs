//! Fixture: a trait's provided method body is a method of the trait, so a
//! `.name(` call from a request path reaches it and its work loops are
//! checked like any impl method's.

pub struct TmBudget {
    cancelled: bool,
}

impl TmBudget {
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }
}

pub trait TmIndex {
    fn tm_probe(&self, x: f64) -> bool;

    /// Provided: every implementor walks the rows here.
    fn tm_join_rows(&self, xs: &[f64]) -> usize {
        let mut hits = 0;
        for i in 0..xs.len() {
            //~^ cancel-poll-reachability
            hits += usize::from(self.tm_probe(xs[i]));
        }
        hits
    }

    /// The corrected twin: polls once per row.
    fn tm_join_polled(&self, xs: &[f64], budget: &TmBudget) -> usize {
        let mut hits = 0;
        for i in 0..xs.len() {
            if budget.is_cancelled() {
                return hits;
            }
            hits += usize::from(self.tm_probe(xs[i]));
        }
        hits
    }
}

pub struct TmGrid;

impl TmIndex for TmGrid {
    fn tm_probe(&self, x: f64) -> bool {
        x > 0.0
    }
}

// lint: entrypoint fixture request dispatch
pub fn tm_handle(xs: &[f64], budget: &TmBudget) -> usize {
    let grid = TmGrid;
    grid.tm_join_rows(xs) + grid.tm_join_polled(xs, budget)
}
