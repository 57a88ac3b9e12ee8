//! Host facts read once per process.
//!
//! `std::thread::available_parallelism` reads cgroup quota and procfs
//! files on Linux — on the order of 100 µs, which is most of the fixed
//! cost of starting a small simulated run. The answer cannot change in
//! any way the runtime cares about while the process lives, so every
//! consumer (the default worker count, the barrier spin budget, worker
//! pinning, the scaling bench) reads it through [`host_cores`], which
//! probes the host on first use and caches the result.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Times the host has been probed in this process: 0 or 1 by
/// construction, which `tests/end_to_end.rs` asserts.
static PROBES: AtomicUsize = AtomicUsize::new(0);

/// The host's available parallelism (at least 1), probed on the first
/// call and cached for the life of the process.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        PROBES.fetch_add(1, Ordering::Relaxed);
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// How many times [`host_cores`] has probed the host in this process.
#[doc(hidden)]
pub fn host_probes() -> usize {
    PROBES.load(Ordering::Relaxed)
}
