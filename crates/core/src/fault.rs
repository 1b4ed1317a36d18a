//! Deterministic fault injection for the guardrail test-suite.
//!
//! A [`FaultPlan`] attached to [`RasterJoinConfig`](crate::RasterJoinConfig)
//! makes chosen tiles misbehave on purpose — panic, stall, or fail —
//! so the cancellation, panic-isolation, and degradation paths can be tested
//! deterministically instead of with wall-clock races. Everything is plain
//! data plus shared atomic counters: clones of a plan observe and update the
//! same state, which is what lets a test hold one clone while the executor
//! runs another.
//!
//! Faults disarm after their first trigger (per plan), so a retry or a
//! fallback rung after the injected failure runs clean — exactly the
//! "transient fault" shape the degradation ladder is designed for.
//!
//! A config without a plan (`faults: None`, the default) pays one branch per
//! tile.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::budget::QueryBudget;
use crate::{RasterJoinError, Result};

/// One injected misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Panic when the given tile (index within one execute call) starts.
    PanicOnTile(usize),
    /// Stall the given tile, sleeping in 1 ms slices while polling the
    /// budget — so cancellation still lands promptly mid-delay.
    DelayOnTile { tile: usize, ms: u64 },
    /// Return `Internal` from the n-th tile start overall (counted across
    /// execute calls — lets a test fail attempt #1 and let the retry pass).
    FailNth(usize),
}

/// A deterministic set of injected faults with shared observability.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    armed: Arc<AtomicBool>,
    started: Arc<AtomicUsize>,
}

impl FaultPlan {
    /// An empty, armed plan.
    pub fn new() -> Self {
        FaultPlan { faults: Vec::new(), armed: Arc::new(AtomicBool::new(true)), started: Arc::new(AtomicUsize::new(0)) }
    }

    /// Panic when tile `tile` of an execute call starts.
    pub fn panic_on_tile(mut self, tile: usize) -> Self {
        self.faults.push(Fault::PanicOnTile(tile));
        self
    }

    /// Stall tile `tile` for `delay`, polling the budget every ~1 ms.
    pub fn delay_on_tile(mut self, tile: usize, delay: Duration) -> Self {
        self.faults.push(Fault::DelayOnTile { tile, ms: delay.as_millis() as u64 });
        self
    }

    /// Fail the `n`-th tile start (0-based, counted across execute calls)
    /// with [`RasterJoinError::Internal`].
    pub fn fail_nth(mut self, n: usize) -> Self {
        self.faults.push(Fault::FailNth(n));
        self
    }

    /// How many tile starts this plan has observed (across all clones).
    /// Tests use this to wait for a query to reach an injected delay
    /// without sleeping on wall-clock guesses.
    pub fn tiles_started(&self) -> usize {
        self.started.load(Ordering::SeqCst)
    }

    /// Is the plan still armed (no fault has triggered yet)?
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Executor hook: called as each tile starts. May panic (PanicOnTile),
    /// stall (DelayOnTile), or return an error (FailNth / budget exhausted
    /// mid-delay).
    pub(crate) fn on_tile_start(&self, tile: usize, budget: &QueryBudget) -> Result<()> {
        let nth = self.started.fetch_add(1, Ordering::SeqCst);
        if !self.armed.load(Ordering::SeqCst) {
            return Ok(());
        }
        for f in &self.faults {
            match *f {
                Fault::PanicOnTile(t) if t == tile
                    && self.disarm() => {
                        // lint: allow(panic-freedom) fault injection: a controlled panic is this module's entire purpose
                        panic!("injected fault: panic on tile {tile}");
                    }
                Fault::DelayOnTile { tile: t, ms } if t == tile
                    && self.disarm() => {
                        let end = Instant::now() + Duration::from_millis(ms);
                        while Instant::now() < end {
                            budget.check()?;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                Fault::FailNth(n) if n == nth
                    && self.disarm() => {
                        return Err(RasterJoinError::Internal(format!(
                            "injected fault: fail on tile start #{nth}"
                        )));
                    }
                _ => {}
            }
        }
        Ok(())
    }

    /// Atomically trip the armed flag; `true` for the first caller only.
    fn disarm(&self) -> bool {
        self.armed.swap(false, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelHandle;

    #[test]
    fn fail_nth_triggers_once() {
        let plan = FaultPlan::new().fail_nth(1);
        let b = QueryBudget::unlimited();
        assert!(plan.on_tile_start(0, &b).is_ok());
        assert!(matches!(plan.on_tile_start(1, &b), Err(RasterJoinError::Internal(_))));
        // Disarmed: the same tile start passes on retry.
        assert!(plan.on_tile_start(1, &b).is_ok());
        assert_eq!(plan.tiles_started(), 3);
    }

    #[test]
    fn clones_share_state() {
        let plan = FaultPlan::new().fail_nth(0);
        let clone = plan.clone();
        let b = QueryBudget::unlimited();
        assert!(clone.on_tile_start(0, &b).is_err());
        assert!(!plan.is_armed());
        assert_eq!(plan.tiles_started(), 1);
    }

    #[test]
    fn delay_aborts_promptly_on_cancel() {
        let plan = FaultPlan::new().delay_on_tile(0, Duration::from_secs(3600));
        let h = CancelHandle::new();
        h.cancel();
        let b = QueryBudget::unlimited().cancellable(&h);
        let start = Instant::now();
        assert_eq!(plan.on_tile_start(0, &b), Err(RasterJoinError::Cancelled));
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn panic_fault_panics() {
        let plan = FaultPlan::new().panic_on_tile(2);
        let b = QueryBudget::unlimited();
        assert!(plan.on_tile_start(0, &b).is_ok());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = plan.on_tile_start(2, &b);
        }));
        assert!(r.is_err());
        assert!(!plan.is_armed());
    }
}
