//! Cooperative query budgets: deadlines and cancellation.
//!
//! Interactive exploration lives or dies on latency guarantees — a pan at
//! 60 fps cannot wait for a join that turned out to be expensive. A
//! [`QueryBudget`] carries an optional wall-clock deadline plus a shared
//! cancel flag; the executor and every tile/point loop poll it at chunk
//! granularity (thousands of points, one polygon, one tile), so a raised
//! flag or an elapsed deadline aborts the query within a few milliseconds
//! without any preemption machinery.
//!
//! Budgets are cheap to clone and thread-safe: the cancel flag is an
//! `Arc<AtomicBool>`, so a [`CancelHandle`] kept by the UI thread cancels
//! the same query the thread running it is polling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{RasterJoinError, Result};

/// Owner side of a cancellation flag. Clone freely; all clones (and all
/// budgets derived via [`QueryBudget::cancellable`]) share one flag.
#[derive(Debug, Clone, Default)]
pub struct CancelHandle {
    flag: Arc<AtomicBool>,
}

impl CancelHandle {
    /// A fresh, unraised handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise the flag: every budget sharing it fails its next check with
    /// [`RasterJoinError::Cancelled`].
    ///
    /// Release/Acquire pairing: this is a cross-thread control flag, so the
    /// store synchronizes-with the Acquire loads in [`Self::is_cancelled`]
    /// and [`QueryBudget::check`] — whatever the cancelling thread wrote
    /// before raising the flag is visible to workers that observe it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has the flag been raised?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Deadline + cancel flag for one query, polled cooperatively.
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl QueryBudget {
    /// No deadline, no cancel flag — every check passes.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget expiring `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        QueryBudget { deadline: Some(Instant::now() + timeout), cancel: None }
    }

    /// A budget expiring at an absolute instant (used to keep one deadline
    /// across a ladder of fallback attempts).
    pub fn until(deadline: Instant) -> Self {
        QueryBudget { deadline: Some(deadline), cancel: None }
    }

    /// Attach a cancel handle (builder-style).
    pub fn cancellable(mut self, handle: &CancelHandle) -> Self {
        self.cancel = Some(Arc::clone(&handle.flag));
        self
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline (`None` when unlimited, zero when
    /// already past).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Poll the budget. Cancellation wins over the deadline, so an explicit
    /// user abort is reported as [`RasterJoinError::Cancelled`] even when
    /// the deadline has also passed.
    pub fn check(&self) -> Result<()> {
        if let Some(c) = &self.cancel {
            // Acquire side of the CancelHandle::cancel Release store.
            if c.load(Ordering::Acquire) {
                return Err(RasterJoinError::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(RasterJoinError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// `true` when [`check`](Self::check) would fail.
    pub fn is_exhausted(&self) -> bool {
        self.check().is_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_passes() {
        let b = QueryBudget::unlimited();
        assert!(b.check().is_ok());
        assert_eq!(b.remaining(), None);
        assert_eq!(b.deadline(), None);
    }

    #[test]
    fn elapsed_deadline_fails_check() {
        let b = QueryBudget::until(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.check(), Err(RasterJoinError::DeadlineExceeded));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_deadline_passes() {
        let b = QueryBudget::with_deadline(Duration::from_secs(3600));
        assert!(b.check().is_ok());
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancel_handle_reaches_all_clones() {
        let h = CancelHandle::new();
        let a = QueryBudget::unlimited().cancellable(&h);
        let b = a.clone();
        assert!(a.check().is_ok());
        h.cancel();
        assert_eq!(a.check(), Err(RasterJoinError::Cancelled));
        assert_eq!(b.check(), Err(RasterJoinError::Cancelled));
        assert!(h.is_cancelled());
    }

    #[test]
    fn cancellation_outranks_deadline() {
        let h = CancelHandle::new();
        h.cancel();
        let b = QueryBudget::until(Instant::now() - Duration::from_millis(1)).cancellable(&h);
        assert_eq!(b.check(), Err(RasterJoinError::Cancelled));
    }
}
