//! The `shard_park` workload: `shard::ShardRunner` with 3 procs and 1024
//! classic-Raft groups, 128 closed-loop clients writing Zipf(0.99) keys
//! over 16384 keys, default 1 s hibernation. Cold groups keep parking and
//! unparking, so the timer wheel, park/unpark, routing and envelope
//! coalescing carry most of the cost.

use des::{SimDuration, SimTime};
use raft::Timing;
use shard::{raft_factory, ShardConfig, ShardMetrics, ShardNode, ShardRunner, WorkloadSpec};

use crate::probe::{self, OpClock, Traced};
use crate::window::{SimFigures, Stopwatch, Window};

/// Groups hosted.
const GROUPS: u32 = 1024;
/// Closed-loop clients.
const CLIENTS: usize = 128;
/// When clients start.
const START: SimTime = SimTime::from_secs(5);
/// Window opening: clients have run long enough for parking to cycle.
const OPEN_AT: SimTime = SimTime::from_secs(8);
/// Measured simulated seconds.
pub const WINDOW: SimDuration = SimDuration::from_secs(25);

fn config(seed: u64) -> ShardConfig {
    ShardConfig {
        procs: 3,
        groups: GROUPS,
        seed,
        idle_after: SimDuration::from_secs(1),
        workload: WorkloadSpec {
            clients: CLIENTS,
            keys: 16_384,
            zipf_theta: 0.99,
            payload_bytes: 64,
            start_at: START,
            ..WorkloadSpec::default()
        },
    }
}

/// Lifetime counters the window diffs.
fn lifetime(m: &ShardMetrics) -> [u64; 6] {
    [
        m.parks,
        m.unparks,
        m.timers_set,
        m.timers_cancelled,
        m.retries,
        m.elections,
    ]
}

fn measure<P: ShardNode>(
    mut watch: Stopwatch,
    mut runner: ShardRunner<P>,
    seed: u64,
    traced: bool,
) -> Result<Window, String> {
    let end = OPEN_AT + WINDOW;
    runner.set_measure_window(OPEN_AT, end);
    runner.run_until(OPEN_AT);
    let before = lifetime(runner.metrics());
    watch.open();
    runner.run_until(end);
    let host = watch.close();
    let ops = probe::take_ops();
    let ledger = probe::snapshot();

    if let Some(v) = runner.violations().first() {
        return Err(format!(
            "shard_park seed {seed}: {} commit-agreement violations, first: {v}",
            runner.violations().len()
        ));
    }
    let m = runner.metrics();
    let after = lifetime(m);
    let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let write_us: Vec<u64> = ops
        .iter()
        .filter(|&&(_, done)| done >= OPEN_AT && done < end)
        .map(|&(issued, done)| done.saturating_since(issued).as_micros())
        .collect();
    // The gateway-side clock must agree with the runner's own counters.
    let latency_sum: u64 = write_us.iter().sum();
    if write_us.len() as u64 != m.completed_window || latency_sum != m.latency_window_us {
        return Err(format!(
            "shard_park seed {seed}: op clock saw {} ops / {latency_sum} µs, runner counted {} / {} µs",
            write_us.len(),
            m.completed_window,
            m.latency_window_us
        ));
    }
    let sim = SimFigures {
        window_s: WINDOW.as_secs_f64(),
        ops: m.completed_window,
        write_us,
        read_us: Vec::new(),
        unavail_ms: None,
        retries: d[4],
        unanswered: ledger.open_ops,
        refused: ledger.refused_ops,
        wan_bytes: 0,
        counts: vec![
            ("parks", d[0]),
            ("unparks", d[1]),
            ("timers_set", d[2]),
            ("timers_cancelled", d[3]),
            ("elections", d[5]),
            ("events", m.events_window),
            ("frames", m.frames_window),
            ("group_msgs", m.group_msgs_window),
        ],
        report: Some(format!("{m:?}")),
    };
    Ok(Window {
        sim,
        host,
        ledger: traced.then_some(ledger),
    })
}

/// One `shard_park` window. Engines always carry an [`OpClock`] (the
/// runner exposes no per-op samples); `traced` adds [`Traced`] inside it.
pub fn run_shard_park(seed: u64, traced: bool) -> Result<Window, String> {
    let cfg = config(seed);
    let make = raft_factory(Timing::lan());
    let watch = Stopwatch::start();
    if traced {
        let runner = ShardRunner::new(cfg, Vec::new(), move |g, id, c, rng| {
            OpClock::new(Traced::new(make(g, id, c, rng)))
        });
        measure(watch, runner, seed, true)
    } else {
        let runner = ShardRunner::new(cfg, Vec::new(), move |g, id, c, rng| {
            OpClock::new(make(g, id, c, rng))
        });
        measure(watch, runner, seed, false)
    }
}

/// A bare `ShardRunner<RaftNode>`'s metrics for the same run,
/// debug-printed: the [`OpClock`] around every engine must leave them
/// untouched, bit for bit.
pub fn reference(seed: u64) -> String {
    let end = OPEN_AT + WINDOW;
    let mut bare = ShardRunner::new(config(seed), Vec::new(), raft_factory(Timing::lan()));
    bare.set_measure_window(OPEN_AT, end);
    bare.run_until(OPEN_AT);
    bare.run_until(end);
    format!("{:?}", bare.metrics())
}
