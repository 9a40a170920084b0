//! A counting global allocator: allocation calls, live bytes and the peak
//! of live bytes since the last [`reset_peak`].
//!
//! A `realloc` counts as one allocation call and moves the live total by
//! the size difference, so a growing buffer is charged once per growth
//! step, never twice for the same bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Allocation counters. One instance backs the global allocator; tests
/// build their own so parallel test threads cannot disturb them.
pub struct HeapCounter {
    calls: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

/// A point-in-time reading of a [`HeapCounter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapReading {
    /// Allocation calls (alloc, alloc_zeroed and realloc) so far.
    pub calls: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last peak reset.
    pub peak: u64,
}

impl HeapCounter {
    /// Zeroed counters.
    pub const fn new() -> Self {
        HeapCounter {
            calls: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Records a fresh block of `size` bytes.
    pub fn on_alloc(&self, size: usize) {
        self.calls.fetch_add(1, Relaxed);
        self.grow(size as u64);
    }

    /// Records a freed block of `size` bytes.
    pub fn on_dealloc(&self, size: usize) {
        self.live.fetch_sub(size as u64, Relaxed);
    }

    /// Records a block resized from `old` to `new` bytes.
    pub fn on_realloc(&self, old: usize, new: usize) {
        self.calls.fetch_add(1, Relaxed);
        if new >= old {
            self.grow((new - old) as u64);
        } else {
            self.live.fetch_sub((old - new) as u64, Relaxed);
        }
    }

    fn grow(&self, by: u64) {
        let live = self.live.fetch_add(by, Relaxed) + by;
        // The benchmark allocates from one thread; a racing update could
        // only under-report the peak, never corrupt the live total.
        if live > self.peak.load(Relaxed) {
            self.peak.store(live, Relaxed);
        }
    }

    /// Restarts peak tracking from the current live total.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    /// The current counters.
    pub fn read(&self) -> HeapReading {
        HeapReading {
            calls: self.calls.load(Relaxed),
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
        }
    }
}

/// The system allocator behind the process-wide [`HeapCounter`].
pub struct Counting;

static GLOBAL_COUNTER: HeapCounter = HeapCounter::new();

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read the sizes and
// never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            GLOBAL_COUNTER.on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            GLOBAL_COUNTER.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        GLOBAL_COUNTER.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            GLOBAL_COUNTER.on_realloc(layout.size(), new_size);
        }
        p
    }
}

/// The process-wide counters.
pub fn heap() -> HeapReading {
    GLOBAL_COUNTER.read()
}

/// Allocation calls so far (the cheap read used around every traced call).
pub fn calls() -> u64 {
    GLOBAL_COUNTER.calls.load(Relaxed)
}

/// Restarts the process-wide peak from the current live total.
pub fn reset_peak() {
    GLOBAL_COUNTER.reset_peak();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_and_peak_follow_alloc_realloc_dealloc() {
        let c = HeapCounter::new();
        c.on_alloc(100);
        c.on_alloc(50);
        assert_eq!(
            c.read(),
            HeapReading {
                calls: 2,
                live: 150,
                peak: 150
            }
        );
        c.on_realloc(100, 300);
        assert_eq!(
            c.read(),
            HeapReading {
                calls: 3,
                live: 350,
                peak: 350
            }
        );
        c.on_realloc(300, 10);
        assert_eq!(
            c.read(),
            HeapReading {
                calls: 4,
                live: 60,
                peak: 350
            }
        );
        c.on_dealloc(50);
        c.on_dealloc(10);
        assert_eq!(
            c.read(),
            HeapReading {
                calls: 4,
                live: 0,
                peak: 350
            }
        );
    }

    #[test]
    fn peak_reset_restarts_from_live() {
        let c = HeapCounter::new();
        c.on_alloc(1000);
        c.on_dealloc(1000);
        c.on_alloc(40);
        c.reset_peak();
        assert_eq!(c.read().peak, 40);
        c.on_alloc(2);
        c.on_dealloc(2);
        assert_eq!(c.read().peak, 42);
        assert_eq!(c.read().live, 40);
    }
}
