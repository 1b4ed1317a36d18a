//! Fixture: cancel-poll reachability. Work loops (loops that touch rows)
//! reached from an annotated entry point must transitively hit a poll.

pub struct CpBudget {
    cancelled: bool,
}

impl CpBudget {
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }
}

// lint: entrypoint fixture request dispatch
pub fn cp_handle(xs: &[f64], budget: &CpBudget) -> f64 {
    cp_route(xs, budget)
}

fn cp_route(xs: &[f64], budget: &CpBudget) -> f64 {
    cp_scan_unpolled(xs) + cp_scan_polled(xs, budget) + cp_scan_waived(xs)
}

fn cp_scan_unpolled(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..xs.len() {
        //~^ cancel-poll-reachability
        acc += xs[i];
    }
    acc
}

fn cp_scan_polled(xs: &[f64], budget: &CpBudget) -> f64 {
    let mut acc = 0.0;
    for i in 0..xs.len() {
        if budget.is_cancelled() {
            return acc;
        }
        acc += xs[i];
    }
    acc
}

fn cp_scan_waived(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    // lint: allow(cancel-poll-reachability) fixture: bounded preview slice
    for i in 0..xs.len() {
        acc += xs[i];
    }
    acc
}

/// Not reachable from any entry point: silent even without a poll.
pub fn cp_offline_rebuild(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..xs.len() {
        acc += xs[i];
    }
    acc
}
