//! Turns a run's deployments into the printed metrics: end-to-end ones
//! from the untraced deployments, per-layer ones from the traced twins.

use std::fmt::Write as _;

use crate::stats::{self, LayerTimes, Tail};
use crate::window::Window;
use crate::Runs;

/// The printed result of one run.
#[derive(Default)]
pub struct Report {
    /// Human-readable lines, printed before the JSON line.
    pub text: String,
    /// Ops issued in the distinct windows' runs and completed, refused or
    /// still unanswered at the deadline.
    pub attempted: u64,
    /// Ops the system refused (terminal `SessionExpired`).
    pub failed: u64,
    /// `(name, value, unit)` for the JSON line.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn line(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        let _ = writeln!(self.text, "  {name:<28} {value:>14.4} {unit:<6} {note}");
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Host µs per op: thread CPU time at the reference speed, per-seed
/// medians, pooled (see [`stats::seed_medians_pooled`]).
fn host_us_per_op(windows: &[Window], scales: &[f64], distinct: usize) -> f64 {
    let cost_and_work: Vec<(f64, f64)> = windows
        .iter()
        .zip(scales)
        .map(|(w, s)| (w.host.window_cpu_ns as f64 / 1e3 * s, w.sim.ops as f64))
        .collect();
    stats::seed_medians_pooled(&cost_and_work, distinct)
}

/// Each window's tail latency (ms) by the [`Tail`] rule, and their
/// median over the windows, with a note naming the percentiles and
/// sample counts. Taken per window, not over the pooled samples, so the
/// chosen percentile depends on a window's length, not on how many seeds
/// a run pools.
fn window_tail(
    windows: &[Window],
    samples: fn(&Window) -> &Vec<u64>,
) -> Result<(f64, String), String> {
    let tails = windows
        .iter()
        .map(|w| {
            Tail::of(&sorted(samples(w).clone())).ok_or("too few samples for a tail percentile")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let value = stats::median(
        &tails
            .iter()
            .map(|t| t.value as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let mut labels: Vec<String> = tails.iter().map(Tail::label).collect();
    labels.dedup();
    let n: Vec<String> = tails
        .iter()
        .map(|t| format!("{}/{}", t.beyond, t.n))
        .collect();
    let note = format!(
        "{} per window, median of {}; beyond/n {}",
        labels.join(","),
        tails.len(),
        n.join(" ")
    );
    Ok((value, note))
}

/// The end-to-end metrics, appended to `r` as text and (when `json`) as
/// JSON entries.
fn end_to_end(workload: &str, runs: &Runs, r: &mut Report, json: bool) -> Result<(), String> {
    let all = &runs.plain;
    let distinct = &runs.plain[..runs.distinct];
    let n_all = all.len();
    let ops: u64 = distinct.iter().map(|w| w.sim.ops).sum();
    let sim_s: f64 = distinct.iter().map(|w| w.sim.window_s).sum();
    let writes = sorted(
        distinct
            .iter()
            .flat_map(|w| w.sim.write_us.iter().copied())
            .collect(),
    );
    let write_tail = window_tail(distinct, |w| &w.sim.write_us)?;
    let retries: u64 = distinct.iter().map(|w| w.sim.retries).sum();
    let unanswered: u64 = distinct.iter().map(|w| w.sim.unanswered).sum();
    let refused: u64 = distinct.iter().map(|w| w.sim.refused).sum();
    r.attempted = ops + refused + unanswered;
    r.failed = refused;

    let scaled_setup: Vec<f64> = all
        .iter()
        .zip(&runs.scales)
        .map(|(w, s)| w.host.setup_cpu_ns as f64 / 1e9 * s)
        .collect();
    let med_distinct =
        |f: &dyn Fn(&Window) -> f64| stats::median(&distinct.iter().map(f).collect::<Vec<_>>());
    let of_all = format!("median of {n_all} deployments");
    let of_distinct = format!("median of {} seeds", runs.distinct);
    let per_seed = format!("per-seed medians of {n_all} deployments, pooled");
    let pooled = format!("{} seeds pooled", runs.distinct);
    let window_note = format!(
        "{} x {} sim-s windows",
        runs.distinct, distinct[0].sim.window_s
    );
    let e2e: Vec<(&'static str, f64, &'static str, String)> = vec![
        (
            "setup_s",
            stats::median(&scaled_setup),
            "s",
            format!("CPU at reference speed, {of_all}"),
        ),
        (
            "host_us_per_op",
            host_us_per_op(all, &runs.scales, runs.distinct),
            "us",
            format!("CPU at reference speed, {per_seed}"),
        ),
        (
            "allocs_per_op",
            ratio(
                distinct.iter().map(|w| w.host.allocs as f64).sum(),
                ops as f64,
            ),
            "count",
            pooled.clone(),
        ),
        (
            "peak_heap_mb",
            med_distinct(&|w| w.host.peak_bytes as f64 / 1e6),
            "MB",
            of_distinct.clone(),
        ),
        ("tput_ops_s", ratio(ops as f64, sim_s), "1/s", window_note),
        (
            "write_mean_ms",
            ratio(writes.iter().sum::<u64>() as f64, writes.len() as f64) / 1e3,
            "ms",
            format!("n={}", writes.len()),
        ),
        (
            "failed_op_frac",
            stats::failed_op_frac(ops, refused, retries, unanswered),
            "frac",
            format!(
                "{retries} retries + {unanswered} unanswered + {refused} refused of {} attempts",
                ops + refused + retries + unanswered
            ),
        ),
    ];
    let _ = writeln!(r.text, "end-to-end ({workload}):");
    for (name, value, unit, note) in e2e {
        if !value.is_finite() {
            return Err(format!("{name} is not a number"));
        }
        r.line(name, value, unit, &note);
        if json {
            r.metrics.push((name, value, unit));
        }
    }
    // Printed, not in the JSON: the raw wall figures behind the two host
    // times above.
    let wall: Vec<(f64, f64)> = all
        .iter()
        .map(|w| (w.host.window_ns as f64 / 1e3, w.sim.ops as f64))
        .collect();
    r.line(
        "host_wall_us_per_op",
        stats::seed_medians_pooled(&wall, runs.distinct),
        "us",
        &format!("wall, unscaled, {per_seed}; not gated"),
    );
    r.line(
        "setup_wall_s",
        stats::median(&all.iter().map(|w| w.host.setup_s).collect::<Vec<_>>()),
        "s",
        &format!("wall, unscaled, {of_all}; not gated"),
    );
    r.line(
        "speed_scale",
        stats::median(&runs.scales),
        "x",
        &format!(
            "reference {} ms / calibration kernel ms, {of_all}; not gated",
            crate::calib::REFERENCE_NS / 1e6
        ),
    );
    // C-Raft writes finish on its 50 ms decision
    // tick, so their median reads 50 ms on every seed and their tail jumps
    // between tick multiples; the rest exist on one workload only.
    let p50 = stats::percentile(&writes, 500_000) as f64 / 1e3;
    r.line(
        "write_p50_ms",
        p50,
        "ms",
        &format!("n={}; not gated", writes.len()),
    );
    r.line(
        "write_tail_ms",
        write_tail.0,
        "ms",
        &format!("{}; not gated", write_tail.1),
    );
    if distinct.iter().any(|w| !w.sim.read_us.is_empty()) {
        let (v, note) = window_tail(distinct, |w| &w.sim.read_us)?;
        r.line("read_tail_ms", v, "ms", &format!("{note}; not gated"));
    }
    if distinct.iter().all(|w| w.sim.unavail_ms.is_some()) {
        let v = stats::median(
            &distinct
                .iter()
                .filter_map(|w| w.sim.unavail_ms)
                .collect::<Vec<_>>(),
        );
        r.line(
            "unavail_ms",
            v,
            "ms",
            &format!("crash to next completed op, {of_distinct}; not gated"),
        );
    }
    let wan: u64 = distinct.iter().map(|w| w.sim.wan_bytes).sum();
    if wan > 0 {
        r.line(
            "wan_bytes_per_op",
            ratio(wan as f64, ops as f64),
            "bytes",
            &format!("{pooled}; not gated"),
        );
    }
    Ok(())
}

/// One per-layer metric of one traced window, as a ratio.
struct Part {
    name: &'static str,
    unit: &'static str,
    num: f64,
    den: f64,
    /// Host time: per-seed medians over every traced window, pooled.
    /// Otherwise a count: pooled over the distinct windows.
    time: bool,
}

fn layer_times(w: &Window) -> LayerTimes {
    let l = w.ledger.as_ref().expect("traced window");
    LayerTimes {
        total_ns: w.host.window_ns,
        engine_ns: l.engine_total().ns,
        simnet_ns: l.simnet.ns,
        codec_ns: l.codec.span.ns,
    }
}

/// Every per-layer metric of one traced window. Layers a workload does
/// not touch read zero.
fn layer_parts(workload: &str, w: &Window, plain: &Window) -> Vec<Part> {
    const TIME: bool = true;
    const COUNT: bool = false;
    let l = w.ledger.as_ref().expect("traced window");
    let e = l.engine_total();
    let s = &w.sim;
    let ops = s.ops as f64;
    let driver_us = layer_times(w).driver_ns().unwrap_or(0) as f64 / 1e3;
    let wrapped_allocs = (e.allocs + l.simnet.allocs + l.codec.span.allocs) as f64;
    let driver_allocs = (w.host.allocs as f64 - wrapped_allocs).max(0.0);
    // `harness::Runner` drives `consensus-core` engines; `ShardRunner`
    // drives `raft` ones.
    let (core, raft) = if workload == "shard_park" {
        (0.0, 1.0)
    } else {
        (1.0, 0.0)
    };
    let (harness, shard) = (core, raft);
    let count = |name| {
        s.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |c| c.1 as f64)
    };
    let reads = count("readindex_reads") + count("lease_reads");
    let (msgs, writes) = (l.codec.span.calls as f64, s.write_us.len() as f64);
    #[rustfmt::skip]
    let table = [
        ("core.step_us_per_op", "us", core * e.ns as f64 / 1e3, ops, TIME),
        ("core.steps_per_op", "count", core * e.calls as f64, ops, COUNT),
        ("core.allocs_per_op", "count", core * e.allocs as f64, ops, COUNT),
        ("raft.step_us_per_op", "us", raft * e.ns as f64 / 1e3, ops, TIME),
        ("raft.steps_per_op", "count", raft * e.calls as f64, ops, COUNT),
        ("raft.allocs_per_op", "count", raft * e.allocs as f64, ops, COUNT),
        ("harness.driver_us_per_op", "us", harness * driver_us, ops, TIME),
        ("harness.allocs_per_op", "count", harness * driver_allocs, ops, COUNT),
        ("shard.driver_us_per_op", "us", shard * driver_us, ops, TIME),
        ("shard.allocs_per_op", "count", shard * driver_allocs, ops, COUNT),
        ("shard.parks_per_kop", "count", 1e3 * count("parks"), ops, COUNT),
        ("shard.msgs_per_frame", "count", count("group_msgs"), count("frames"), COUNT),
        ("des.events_per_op", "count", count("events"), ops, COUNT),
        ("des.timer_cmds_per_op", "count", e.timer_cmds as f64, ops, COUNT),
        ("wire.msgs_per_op", "count", e.sends as f64, ops, COUNT),
        ("wire.bytes_per_op", "bytes", e.send_bytes as f64, ops, COUNT),
        ("storage.fsyncs_per_write", "count", e.fsync_steps as f64, writes, COUNT),
        ("storage.cmds_per_fsync", "count", e.persist_cmds as f64, e.fsync_steps as f64, COUNT),
        ("core.readindex_frac", "frac", count("readindex_reads"), reads, COUNT),
        ("core.elections", "count", core * count("elections"), 1.0, COUNT),
        ("simnet.model_ns_per_msg", "ns", l.simnet.ns as f64, count("net_offered"), TIME),
        ("simnet.drop_frac", "frac", count("net_dropped"), count("net_offered"), COUNT),
        ("heap.retained_bytes_per_op", "bytes", plain.host.retained_bytes as f64, ops, COUNT),
        ("wire.encode_ns_per_msg", "ns", l.codec.encode_ns as f64, msgs, TIME),
        ("wire.decode_ns_per_msg", "ns", l.codec.decode_ns as f64, msgs, TIME),
    ];
    table
        .into_iter()
        .map(|(name, unit, num, den, time)| Part {
            name,
            unit,
            num,
            den,
            time,
        })
        .collect()
}

/// Checks one traced window: the codec round trip held for every
/// delivered message, the layer self times fit inside the measured
/// window, and (on harness cells) the wrappers' tallies of the returned
/// effects match the runner's own counters.
pub fn check_traced(workload: &str, w: &Window) -> Result<(), String> {
    let l = w.ledger.as_ref().expect("traced window");
    if l.codec.mismatch_count > 0 {
        return Err(format!(
            "{workload}: {} wire round-trip mismatches, e.g. {:?}",
            l.codec.mismatch_count, l.codec.mismatches
        ));
    }
    layer_times(w).driver_ns()?;
    if workload != "shard_park" {
        let e = l.engine_total();
        let pairs = [
            ("fsync steps", e.fsync_steps, w.sim.count("persist_batches")),
            (
                "persist commands",
                e.persist_cmds,
                w.sim.count("persist_cmds"),
            ),
            ("messages sent", e.sends, w.sim.count("messages_sent")),
            ("bytes sent", e.send_bytes, w.sim.count("bytes_sent")),
        ];
        for (what, ours, runner) in pairs {
            if ours != runner {
                return Err(format!(
                    "{workload}: wrappers tallied {ours} {what}, the runner {runner}"
                ));
            }
        }
    }
    Ok(())
}

/// The per-layer metrics, appended to `r`.
fn per_layer(workload: &str, runs: &Runs, r: &mut Report) {
    let paired: Vec<(&Window, &Window)> = runs.traced.iter().zip(&runs.plain).collect();
    let parts: Vec<Vec<Part>> = paired
        .iter()
        .map(|(t, p)| layer_parts(workload, t, p))
        .collect();
    let _ = writeln!(r.text, "per-layer ({workload}, traced twins):");
    for (k, first) in parts[0].iter().enumerate() {
        let value = if first.time {
            let cost_and_work: Vec<(f64, f64)> =
                parts.iter().map(|p| (p[k].num, p[k].den)).collect();
            stats::seed_medians_pooled(&cost_and_work, runs.distinct)
        } else {
            let d = &parts[..runs.distinct];
            ratio(
                d.iter().map(|p| p[k].num).sum(),
                d.iter().map(|p| p[k].den).sum(),
            )
        };
        let note = if first.time {
            "per-seed medians, pooled"
        } else {
            "pooled"
        };
        r.line(first.name, value, first.unit, note);
        r.metrics.push((first.name, value, first.unit));
    }
    let plain = host_us_per_op(&runs.plain, &runs.scales, runs.distinct);
    let traced = host_us_per_op(&runs.traced, &runs.scales, runs.distinct);
    let overhead = 100.0 * (traced / plain - 1.0);
    r.line(
        "trace.overhead_pct",
        overhead,
        "%",
        &format!("traced {traced:.3} vs untraced {plain:.3} host us/op"),
    );
    r.metrics.push(("trace.overhead_pct", overhead, "%"));

    // Where the engine time goes, by call type and message kind.
    let mut calls: Vec<((&str, &str), crate::probe::CallTally)> = Vec::new();
    for (t, _) in &paired[..runs.distinct] {
        for (label, c) in &t.ledger.as_ref().expect("traced").engine {
            match calls.iter_mut().find(|(l, _)| l == label) {
                Some((_, acc)) => acc.add(c),
                None => calls.push((*label, *c)),
            }
        }
    }
    calls.sort_by_key(|c| std::cmp::Reverse(c.1.ns));
    let ops: u64 = paired[..runs.distinct].iter().map(|(t, _)| t.sim.ops).sum();
    let _ = writeln!(
        r.text,
        "engine calls ({} seeds pooled, per op):",
        runs.distinct
    );
    for ((level, kind), c) in calls {
        let _ = writeln!(
            r.text,
            "  {:<36} {:>9.3} us {:>8.3} calls {:>8.3} allocs {:>8.3} sends",
            format!("{level}.{kind}"),
            ratio(c.ns as f64 / 1e3, ops as f64),
            ratio(c.calls as f64, ops as f64),
            ratio(c.allocs as f64, ops as f64),
            ratio(c.sends as f64, ops as f64),
        );
    }
}

/// Builds the report: end-to-end metrics always (in the JSON only
/// untraced), per-layer metrics when traced.
pub fn report(workload: &str, trace: bool, runs: &Runs) -> Result<Report, String> {
    let mut r = Report::default();
    end_to_end(workload, runs, &mut r, !trace)?;
    if trace {
        per_layer(workload, runs, &mut r);
    }
    if let Some((name, v, _)) = r.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} = {v}"));
    }
    Ok(r)
}
