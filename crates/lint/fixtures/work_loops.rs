//! Fixture: a work loop is decided by what its body touches, never by
//! what its variables are called.

pub struct WlBudget {
    cancelled: bool,
}

impl WlBudget {
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }
}

// lint: entrypoint fixture request dispatch
pub fn wl_handle(xs: &[f64], budget: &WlBudget) -> f64 {
    wl_spellings(xs, budget)
}

/// One body, two spellings of its row set: one verdict each way.
fn wl_spellings(xs: &[f64], budget: &WlBudget) -> f64 {
    let (rows, bits) = ([0usize, 1], [0usize, 1]);
    let mut acc = 0.0;
    for &i in &rows {
        //~^ cancel-poll-reachability
        acc += xs[i];
    }
    for &i in &bits {
        //~^ cancel-poll-reachability
        acc += xs[i];
    }
    for &i in &rows {
        if budget.is_cancelled() {
            return acc;
        }
        acc += xs[i];
    }
    for &i in &bits {
        if budget.is_cancelled() {
            return acc;
        }
        acc += xs[i];
    }
    let header = WlHeader {
        chunks: vec![WlChunk { rows: 2 }],
    };
    acc + wl_header_rows(&header) as f64 + wl_records(&[], budget) + wl_zones(&WlStore, 2)
}

pub struct WlHeader {
    pub chunks: Vec<WlChunk>,
}

pub struct WlChunk {
    pub rows: u64,
}

/// Metadata, whatever it is called: no row is touched, nothing to report.
fn wl_header_rows(header: &WlHeader) -> u64 {
    let mut n = 0;
    for chunk in &header.chunks {
        n += chunk.rows;
    }
    n
}

pub struct WlRecord {
    pub v: f64,
}

/// Recorded rows walked in batches: a work loop, and it passes only
/// because it polls once a batch.
fn wl_records(records: &[WlRecord], budget: &WlBudget) -> f64 {
    let mut acc = 0.0;
    for batch in records.chunks(4096) {
        if budget.is_cancelled() {
            return acc;
        }
        for r in batch {
            acc += r.v;
        }
    }
    for batch in records.chunks(4096) {
        //~^ cancel-poll-reachability
        for r in batch {
            acc += r.v;
        }
    }
    acc
}

pub struct WlStore;

impl WlStore {
    pub fn read_zone(&self, z: usize) -> f64 {
        z as f64
    }
}

/// A store read per iteration is a work loop, whatever the variable is.
fn wl_zones(store: &WlStore, n: usize) -> f64 {
    let mut acc = 0.0;
    for k in 0..n {
        //~^ cancel-poll-reachability
        acc += store.read_zone(k);
    }
    acc
}
