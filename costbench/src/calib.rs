//! A fixed calibration kernel: the machine's current speed, read between
//! deployments.
//!
//! On a shared host the same deployment runs 20–35% slower for seconds or
//! minutes at a time while neighbours load the cores, caches and memory
//! bus. The kernel below is the benchmark's own code and never changes, so
//! its time moves only with the machine. Host times are scaled by
//! [`REFERENCE_NS`] over the kernel time measured around the deployment
//! (see [`crate::stats::speed_scales`]), which reads them at one fixed
//! machine speed.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::window::thread_cpu_ns;

/// Kernel CPU time (ns) that defines the reference machine speed: about
/// the kernel's median on a 2-core x86_64 cloud VM (Intel Xeon, KVM).
pub const REFERENCE_NS: f64 = 6e6;

/// Events one pass of the kernel runs.
const EVENTS: u64 = 100_000;

/// Events pending at any time.
const PENDING: u64 = 256;

/// Fewest and most timed passes per reading.
const PASSES: (usize, usize) = (3, 41);

/// Share of a deployment's wall time spent on the reading after it.
const SHARE: f64 = 0.1;

thread_local! {
    /// The kernel's event queue, allocated once per thread: a pass
    /// allocates nothing, so the allocator's state after a deployment
    /// cannot move it.
    static QUEUE: RefCell<BinaryHeap<Reverse<(u64, u64)>>> =
        RefCell::new(BinaryHeap::with_capacity(PENDING as usize + 1));
}

/// One pass of the kernel: a discrete-event loop over a binary heap, the
/// core of what the simulator does, with pseudo-random delays. Returns
/// its thread CPU ns.
///
/// Variants that also chased pointers through an 8 MB ring, or allocated
/// as they went, tracked the workloads' slowdowns worse: the ring's cache
/// state and the allocator's state after a deployment moved them more than
/// the machine did.
fn pass_ns() -> u64 {
    QUEUE.with_borrow_mut(|queue| {
        let t0 = thread_cpu_ns();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        queue.clear();
        for id in 0..PENDING {
            queue.push(Reverse((next() % 1_000, id)));
        }
        let mut digest = 0u64;
        for _ in 0..EVENTS {
            let Reverse((at, id)) = queue.pop().expect("queue never drains");
            digest = digest.wrapping_add(id);
            queue.push(Reverse((at + 1 + next() % 1_000, next() % 8192)));
        }
        black_box(digest);
        thread_cpu_ns() - t0
    })
}

/// One speed reading, taken after `span_ns` of wall time spent on other
/// work: one untimed pass to bring the kernel back into the caches, then
/// the median thread CPU ns of enough passes to take about [`SHARE`] of
/// `span_ns` (within [`PASSES`]).
pub fn reading_ns(span_ns: f64) -> f64 {
    let passes = ((span_ns * SHARE / REFERENCE_NS) as usize).clamp(PASSES.0, PASSES.1) | 1;
    pass_ns();
    let mut ns: Vec<u64> = (0..passes).map(|_| pass_ns()).collect();
    ns.sort_unstable();
    ns[passes / 2] as f64
}
