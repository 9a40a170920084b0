//! What one measured deployment yields: its deterministic simulated
//! figures, its host cost, and (when traced) the wrappers' ledger.

use std::time::Instant;

use crate::alloc;
use crate::probe::{self, Ledger};

/// The simulated outcome of one window. Everything here is a function of
/// the seed alone, so it must repeat exactly across processes and between
/// the traced and untraced runs of a seed.
#[derive(Clone, Debug, PartialEq)]
pub struct SimFigures {
    /// Measured simulated seconds.
    pub window_s: f64,
    /// Client ops completed inside the window (refusals not included).
    pub ops: u64,
    /// Write latencies (µs) of the window's completed writes.
    pub write_us: Vec<u64>,
    /// Read latencies (µs) of the window's completed reads.
    pub read_us: Vec<u64>,
    /// Crash-to-next-completion gap, on cells with a crash.
    pub unavail_ms: Option<f64>,
    /// Client resubmissions inside the window.
    pub retries: u64,
    /// Ops still unanswered at the deadline.
    pub unanswered: u64,
    /// Ops the system answered with a terminal refusal.
    pub refused: u64,
    /// Bytes offered on inter-region links inside the window.
    pub wan_bytes: u64,
    /// Further deterministic counters, by name, window-scoped.
    pub counts: Vec<(&'static str, u64)>,
    /// The harness's own `RunReport` for the whole run, debug-printed
    /// (harness cells only).
    pub report: Option<String>,
}

impl SimFigures {
    /// A named counter.
    ///
    /// # Panics
    ///
    /// Panics when the cell did not record `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("counter {name} not recorded"))
            .1
    }
}

/// Host cost of one deployment.
#[derive(Clone, Copy, Debug)]
pub struct HostFigures {
    /// Build plus warmup, wall seconds.
    pub setup_s: f64,
    /// Build plus warmup, thread CPU ns.
    pub setup_cpu_ns: u64,
    /// Wall ns inside the measured `run_until`.
    pub window_ns: u64,
    /// Thread CPU ns inside the measured `run_until`.
    pub window_cpu_ns: u64,
    /// Allocation calls inside the measured `run_until`.
    pub allocs: u64,
    /// Peak live heap above the pre-build level, bytes.
    pub peak_bytes: u64,
    /// Live heap at the window's end minus at its start, bytes.
    pub retained_bytes: i64,
}

/// One measured deployment.
#[derive(Clone, Debug)]
pub struct Window {
    /// Deterministic figures.
    pub sim: SimFigures,
    /// Host cost.
    pub host: HostFigures,
    /// The wrappers' ledger for the window (traced runs only).
    pub ledger: Option<Ledger>,
}

impl Window {
    /// Thread CPU µs per completed op, unscaled.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.host.window_cpu_ns as f64 / 1e3 / self.sim.ops.max(1) as f64
    }
}

/// Brackets a deployment's phases with clocks and heap readings.
pub struct Stopwatch {
    start: (Instant, u64),
    base_live: u64,
    setup: (f64, u64),
    window_start: Option<(Instant, u64, alloc::HeapReading)>,
}

impl Stopwatch {
    /// Starts timing set-up; resets the ledger and the heap peak.
    pub fn start() -> Self {
        probe::reset_all();
        alloc::reset_peak();
        Stopwatch {
            start: (Instant::now(), thread_cpu_ns()),
            base_live: alloc::heap().live,
            setup: (0.0, 0),
            window_start: None,
        }
    }

    /// Ends set-up and opens the measured window.
    pub fn open(&mut self) {
        self.setup = (
            self.start.0.elapsed().as_secs_f64(),
            thread_cpu_ns() - self.start.1,
        );
        probe::reset();
        self.window_start = Some((Instant::now(), thread_cpu_ns(), alloc::heap()));
    }

    /// Closes the measured window.
    pub fn close(self) -> HostFigures {
        let (t0, c0, h0) = self.window_start.expect("window opened");
        let window_ns = t0.elapsed().as_nanos() as u64;
        let window_cpu_ns = thread_cpu_ns() - c0;
        let h1 = alloc::heap();
        HostFigures {
            setup_s: self.setup.0,
            setup_cpu_ns: self.setup.1,
            window_ns,
            window_cpu_ns,
            allocs: h1.calls - h0.calls,
            peak_bytes: h1.peak.saturating_sub(self.base_live),
            retained_bytes: h1.live as i64 - h0.live as i64,
        }
    }
}

/// CPU time the calling thread has used, ns (`CLOCK_THREAD_CPUTIME_ID`).
/// The benchmark runs on one thread and never sleeps, so this is its wall
/// time less the time the thread waited for a core: time stolen by the
/// hypervisor or taken by other processes does not count.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
