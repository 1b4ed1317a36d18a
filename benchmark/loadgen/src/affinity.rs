//! CPU placement: the load generator takes the last CPU it is allowed and
//! leaves the others to the server.
//!
//! On a two-core box an unpinned client and server share cores as the
//! scheduler sees fit, and a 50 µs cache hit then costs one or two
//! cross-core wake-ups depending on where the threads last ran: its median
//! moved by a quarter between otherwise equal runs. Splitting the cores the
//! way one would split machines makes every request pay the same wake-ups
//! and keeps the generator's own parsing off the cores it measures.

use std::io;

/// Room for 1024 CPUs, the kernel's default `CONFIG_NR_CPUS` ceiling.
const WORDS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSet([u64; WORDS]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The CPUs this thread may run on.
    pub fn allowed() -> io::Result<CpuSet> {
        let mut set = CpuSet([0; WORDS]);
        // SAFETY: `set.0` is a live, writable buffer of exactly the byte
        // length passed; the kernel writes at most that many bytes. Pid 0
        // names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        if rc == 0 {
            Ok(set)
        } else {
            Err(io::Error::last_os_error())
        }
    }

    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Split off the highest CPU: `(the rest, that one)`. `None` when there
    /// is only one CPU to go round.
    pub fn split_last(&self) -> Option<(CpuSet, CpuSet)> {
        if self.count() < 2 {
            return None;
        }
        let word = self.0.iter().rposition(|w| *w != 0)?;
        let bit = 63 - self.0[word].leading_zeros() as usize;
        let mut rest = *self;
        rest.0[word] &= !(1u64 << bit);
        let mut last = CpuSet([0; WORDS]);
        last.0[word] = 1u64 << bit;
        Some((rest, last))
    }

    /// Restrict the calling thread (and every thread or process it creates
    /// afterwards) to this set. Makes one system call and allocates nothing,
    /// so it may run between `fork` and `exec`.
    pub fn pin_current(&self) -> io::Result<()> {
        // SAFETY: `self.0` is a live buffer of exactly the byte length
        // passed and the kernel only reads it. Pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_the_highest_cpu_off() {
        let mut set = CpuSet([0; WORDS]);
        set.0[0] = 0b1011;
        set.0[1] = 0b10;
        let (rest, last) = set.split_last().unwrap();
        assert_eq!(last.0[1], 0b10);
        assert_eq!(last.count(), 1);
        assert_eq!(rest.0[0], 0b1011);
        assert_eq!(rest.0[1], 0);
        assert_eq!(rest.count(), 3);
        let mut one = CpuSet([0; WORDS]);
        one.0[0] = 0b100;
        assert_eq!(one.split_last(), None);
    }

    #[test]
    fn reads_this_threads_allowed_cpus() {
        let set = CpuSet::allowed().unwrap();
        assert!(set.count() >= 1);
    }
}
