//! The two `harness::Runner` workloads: `craft_geo` (C-Raft, 10 clusters
//! of 2 sites on the AWS-global delay matrix, writes only) and
//! `fast_rw_crash` (Fast Raft, 5 sites in one region, 50% linearizable
//! reads, 2 ms fsync, the biased leader crashing mid-window).
//!
//! The benchmark wires each deployment itself, the way
//! `harness::run_craft` / `harness::run_fast_raft` do, so that it can wrap
//! the nodes and the network models. [`reference`] gives what that the unwrapped
//! wiring reproduces the harness's `RunReport` bit for bit.

use std::convert::identity;

use consensus_core::{CRaftConfig, CRaftNode, FastRaftNode};
use des::{SimDuration, SimRng, SimTime};
use harness::{
    CRaftScenario, FaultAction, NetworkKind, ReadMix, RunReport, Runner, RunnerConfig,
    SafetyChecker, Scenario, Workload,
};
use raft::Timing;
use simnet::{
    BernoulliLoss, LatencyModel, LossModel, Network, RegionLatency, Topology, UniformLatency,
};
use wire::{ClusterId, Configuration, ConsensusProtocol, Consistency, LogScope, NodeId};

use crate::probe::{TimedLatency, TimedLoss, Traced};
use crate::stats;
use crate::window::{SimFigures, Stopwatch, Window};

/// `craft_geo`: warmup (leader elections on both levels settle).
const CRAFT_WARMUP: SimDuration = SimDuration::from_secs(10);
/// `craft_geo`: measured simulated seconds.
pub const CRAFT_WINDOW: SimDuration = SimDuration::from_secs(60);
/// `fast_rw_crash`: warmup.
const FAST_WARMUP: SimDuration = SimDuration::from_secs(3);
/// `fast_rw_crash`: measured simulated seconds; the crash lands halfway.
pub const FAST_WINDOW: SimDuration = SimDuration::from_secs(300);
/// `fast_rw_crash`: crash to recovery.
const FAST_DOWNTIME: SimDuration = SimDuration::from_secs(10);
/// `fast_rw_crash`: modeled cost of one fsync boundary.
const FAST_FSYNC: SimDuration = SimDuration::from_millis(2);
/// The crashing (and election-biased) site.
const FAST_VICTIM: NodeId = NodeId(0);

/// The `craft_geo` scenario: Fig. 5's 10-cluster cell (one client per
/// cluster, at a seed-chosen site) with the paper's C-Raft parameters.
pub fn craft_geo(seed: u64) -> (Scenario, CRaftScenario) {
    let (clusters, per) = (10u64, 2u64);
    let mut rng = SimRng::seed_from_u64(seed ^ 0xF1_65);
    let proposers = (0..clusters)
        .map(|c| NodeId(c * per + rng.gen_range(0..per)))
        .collect();
    let s = Scenario {
        seed,
        sites: clusters * per,
        network: NetworkKind::Regions { regions: clusters },
        loss: 0.0,
        timing: Timing::lan(),
        proposers,
        payload_bytes: 64,
        target_commits: None,
        duration: CRAFT_WARMUP + CRAFT_WINDOW,
        warmup: CRAFT_WARMUP,
        faults: Vec::new(),
        leader_bias: None,
        reads: None,
        unbatched_persists: false,
    };
    (s, CRaftScenario::paper(clusters))
}

/// When `fast_rw_crash` crashes its biased leader.
pub fn fast_crash_at() -> SimTime {
    SimTime::ZERO + FAST_WARMUP + FAST_WINDOW / 2
}

/// The `fast_rw_crash` scenario.
pub fn fast_rw_crash(seed: u64) -> Scenario {
    let mut timing = Timing::lan();
    timing.disk_fsync_latency = FAST_FSYNC;
    let crash = fast_crash_at();
    Scenario {
        seed,
        sites: 5,
        network: NetworkKind::SingleRegion,
        loss: 0.0,
        timing,
        proposers: (0..5).map(NodeId).collect(),
        payload_bytes: 64,
        target_commits: None,
        duration: FAST_WARMUP + FAST_WINDOW,
        warmup: FAST_WARMUP,
        faults: vec![
            (crash, FaultAction::Crash(FAST_VICTIM)),
            (
                crash.saturating_add(FAST_DOWNTIME),
                FaultAction::Recover(FAST_VICTIM),
            ),
        ],
        leader_bias: Some(FAST_VICTIM),
        reads: Some(ReadMix {
            ratio: 0.5,
            consistency: Consistency::Linearizable,
            final_read: false,
        }),
        unbatched_persists: false,
    }
}

// ----------------------------------------------------------------------
// Wiring, mirroring `harness::scenario` (its helpers are private).
// ----------------------------------------------------------------------

/// Per-node timing: the scenario's, with the biased node's election
/// window shortened exactly as the harness does it.
fn timing_for(s: &Scenario, id: NodeId) -> Timing {
    let mut t = s.timing;
    if s.leader_bias == Some(id) {
        let floor = t.lease_duration + t.max_clock_skew;
        let lo = (t.election_min / 5).max(t.heartbeat * 2).max(floor);
        let hi = (t.election_min / 4).max(lo + t.heartbeat);
        t.election_min = lo;
        t.election_max = hi;
    }
    t
}

fn network(s: &Scenario, timed: bool) -> Network {
    let (topo, latency): (Topology, Box<dyn LatencyModel + Send>) = match s.network {
        NetworkKind::SingleRegion => (
            Topology::single_region("local", (0..s.sites).map(NodeId)),
            Box::new(UniformLatency::new(
                SimDuration::from_micros(100),
                SimDuration::from_micros(500),
            )),
        ),
        NetworkKind::Regions { regions } => {
            let mut topo = Topology::new();
            let per = s.sites / regions;
            let ids: Vec<_> = (0..regions)
                .map(|r| topo.add_region(format!("region-{r}")))
                .collect();
            for n in 0..s.sites {
                topo.place(NodeId(n), ids[(n / per).min(regions - 1) as usize]);
            }
            let latency = RegionLatency::aws_global(topo.clone());
            (topo, Box::new(latency))
        }
        ref other => unreachable!("no benchmark cell uses {other:?}"),
    };
    let loss: Box<dyn LossModel + Send> = Box::new(BernoulliLoss::new(s.loss));
    if timed {
        Network::new(
            topo,
            Box::new(TimedLatency(latency)),
            Box::new(TimedLoss(loss)),
        )
    } else {
        Network::new(topo, latency, loss)
    }
}

fn workload(s: &Scenario) -> Workload {
    let mut w = Workload::writes_only(
        s.proposers.clone(),
        s.payload_bytes,
        s.target_commits,
        SimTime::ZERO + s.warmup,
    );
    if let Some(mix) = &s.reads {
        w.read_ratio = mix.ratio;
        w.read_consistency = mix.consistency;
        w.final_read = mix.final_read;
    }
    w
}

fn runner_cfg(s: &Scenario, ack_scope: LogScope) -> RunnerConfig {
    RunnerConfig {
        seed: s.seed,
        ack_scope,
        measure_from: SimTime::ZERO + s.warmup,
        clock_skew: s.timing.max_clock_skew,
        disk_fsync_latency: s.timing.disk_fsync_latency,
        unbatched_persists: s.unbatched_persists,
        persist_stalls: None,
    }
}

fn fast_runner<N: ConsensusProtocol + 'static>(
    s: &Scenario,
    wrap: fn(FastRaftNode) -> N,
    timed_net: bool,
) -> Runner<N> {
    let cfg: Configuration = (0..s.sites).map(NodeId).collect();
    let root = SimRng::seed_from_u64(s.seed);
    let nodes = (0..s.sites).map(|i| {
        wrap(FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            timing_for(s, NodeId(i)),
            root.split_indexed("fast-node", i),
        ))
    });
    let mut runner = Runner::new(
        nodes,
        network(s, timed_net),
        workload(s),
        s.faults.clone(),
        runner_cfg(s, LogScope::Global),
        SafetyChecker::new(),
    );
    let timing = s.timing;
    let recover_rng = root.split("recover");
    runner.set_recovery(move |id, stable| {
        wrap(FastRaftNode::recover(
            id,
            stable,
            cfg.clone(),
            timing,
            recover_rng.split_indexed("r", id.as_u64()),
        ))
    });
    runner
}

fn craft_runner<N: ConsensusProtocol + 'static>(
    s: &Scenario,
    c: &CRaftScenario,
    wrap: fn(CRaftNode) -> N,
    timed_net: bool,
) -> Runner<N> {
    let per = s.sites / c.clusters;
    let craft_cfg = {
        let (local_timing, c) = (s.timing, c.clone());
        move |cluster: ClusterId| CRaftConfig {
            cluster,
            local_timing,
            global_timing: c.global_timing,
            batch_size: c.batch_size,
            max_batch_bytes: c.max_batch_bytes,
            batch_flush_ms: 1000,
            global_snapshot_threshold: c.global_snapshot_threshold,
            global_proposal_mode: c.global_proposal_mode,
        }
    };
    let (nodes, global_bootstrap) =
        consensus_core::build_deployment(c.clusters, per, craft_cfg, s.seed);
    let mut runner = Runner::new(
        nodes.into_iter().map(wrap),
        network(s, timed_net),
        workload(s),
        s.faults.clone(),
        runner_cfg(s, LogScope::Local),
        SafetyChecker::with_domains(move |n| n.as_u64() / per),
    );
    let seed = s.seed;
    runner.set_recovery(move |id, stable| {
        let cluster = id.as_u64() / per;
        let members: Configuration = (0..per).map(|i| NodeId(cluster * per + i)).collect();
        wrap(CRaftNode::recover(
            id,
            stable,
            members,
            global_bootstrap.clone(),
            craft_cfg(ClusterId(cluster)),
            SimRng::seed_from_u64(seed).split_indexed("craft-recover", id.as_u64()),
        ))
    });
    runner
}

// ----------------------------------------------------------------------
// Measurement.
// ----------------------------------------------------------------------

/// Counters the window diffs, read from the runner.
#[derive(Clone, Copy, Default)]
struct Tallies {
    completed: u64,
    retries: u64,
    refused: u64,
    elections: u64,
    lease_reads: u64,
    readindex_reads: u64,
    persist_batches: u64,
    persist_cmds: u64,
    messages_sent: u64,
    bytes_sent: u64,
    offered: u64,
    dropped: u64,
    wan_bytes: u64,
}

impl Tallies {
    fn read<P: ConsensusProtocol>(r: &Runner<P>) -> Self {
        let m = r.metrics();
        let n = r.net_stats();
        Tallies {
            completed: r.completed(),
            retries: m.client_retries,
            refused: m.sessions_expired,
            elections: m.elections,
            lease_reads: m.lease_reads,
            readindex_reads: m.readindex_reads,
            persist_batches: m.persist_batches,
            persist_cmds: m.persist_cmds,
            messages_sent: m.messages_sent,
            bytes_sent: m.bytes_sent,
            offered: n.offered,
            dropped: n.dropped_total(),
            wan_bytes: n.inter_region_bytes,
        }
    }

    fn since(self, o: Tallies) -> Tallies {
        Tallies {
            completed: self.completed - o.completed,
            retries: self.retries - o.retries,
            refused: self.refused - o.refused,
            elections: self.elections - o.elections,
            lease_reads: self.lease_reads - o.lease_reads,
            readindex_reads: self.readindex_reads - o.readindex_reads,
            persist_batches: self.persist_batches - o.persist_batches,
            persist_cmds: self.persist_cmds - o.persist_cmds,
            messages_sent: self.messages_sent - o.messages_sent,
            bytes_sent: self.bytes_sent - o.bytes_sent,
            offered: self.offered - o.offered,
            dropped: self.dropped - o.dropped,
            wan_bytes: self.wan_bytes - o.wan_bytes,
        }
    }
}

/// Runs a built deployment through warmup and the window, and collects
/// its figures. Fails on any safety or linearizability violation.
fn measure<P: ConsensusProtocol>(
    mut watch: Stopwatch,
    mut runner: Runner<P>,
    s: &Scenario,
    protocol: &str,
    crash_at: Option<SimTime>,
    traced: bool,
) -> Result<Window, String> {
    let open_at = SimTime::ZERO + s.warmup;
    let end = SimTime::ZERO + s.duration;
    runner.run_until(open_at);
    let t0 = Tallies::read(&runner);
    watch.open();
    runner.run_until(end);
    let host = watch.close();
    let ledger = traced.then(crate::probe::snapshot);

    let safety = runner.safety();
    if !safety.is_ok() {
        return Err(format!(
            "{protocol} seed {}: safety violations {:?}, linearizability violations {:?}",
            s.seed,
            safety.violations().first(),
            safety.lin_violations().first()
        ));
    }
    let d = Tallies::read(&runner).since(t0);
    let m = runner.metrics();
    let lat = |v: &[harness::LatencySample]| -> Vec<u64> {
        v.iter().map(|x| x.latency().as_micros()).collect()
    };
    let unavail_ms = match crash_at {
        Some(c) => {
            let done = m.samples.iter().chain(&m.read_samples);
            let gap = stats::unavail_ms(c.as_micros(), done.map(|x| x.committed_at.as_micros()));
            Some(gap.ok_or_else(|| {
                format!(
                    "{protocol} seed {}: no op completed after the crash",
                    s.seed
                )
            })?)
        }
        None => None,
    };
    let report = RunReport::assemble(
        protocol,
        s.seed,
        runner.now().as_secs_f64(),
        runner.now().saturating_since(open_at).as_secs_f64(),
        m,
        runner.net_stats(),
        safety,
        runner.completed(),
    );
    let sim = SimFigures {
        window_s: end.saturating_since(open_at).as_secs_f64(),
        ops: d.completed - d.refused,
        write_us: lat(&m.samples),
        read_us: lat(&m.read_samples),
        unavail_ms,
        retries: d.retries,
        unanswered: runner.outstanding_ops() as u64,
        refused: d.refused,
        wan_bytes: d.wan_bytes,
        counts: vec![
            ("elections", d.elections),
            ("lease_reads", d.lease_reads),
            ("readindex_reads", d.readindex_reads),
            ("persist_batches", d.persist_batches),
            ("persist_cmds", d.persist_cmds),
            ("messages_sent", d.messages_sent),
            ("bytes_sent", d.bytes_sent),
            ("net_offered", d.offered),
            ("net_dropped", d.dropped),
        ],
        report: Some(format!("{report:?}")),
    };
    // The harness samples a refusal like a completion.
    if sim.write_us.len() as u64 + sim.read_us.len() as u64 != d.completed {
        return Err(format!(
            "{protocol} seed {}: {} latency samples for {} completed ops",
            s.seed,
            sim.write_us.len() + sim.read_us.len(),
            d.completed
        ));
    }
    Ok(Window { sim, host, ledger })
}

/// One `craft_geo` window; `traced` wraps the nodes and network models.
pub fn run_craft_geo(seed: u64, traced: bool) -> Result<Window, String> {
    let (s, c) = craft_geo(seed);
    let watch = Stopwatch::start();
    if traced {
        let runner = craft_runner(&s, &c, Traced::new, true);
        measure(watch, runner, &s, "c-raft", None, true)
    } else {
        let runner = craft_runner(&s, &c, identity, false);
        measure(watch, runner, &s, "c-raft", None, false)
    }
}

/// One `fast_rw_crash` window; `traced` wraps the nodes and network
/// models.
pub fn run_fast_rw_crash(seed: u64, traced: bool) -> Result<Window, String> {
    let s = fast_rw_crash(seed);
    let watch = Stopwatch::start();
    let crash = Some(fast_crash_at());
    if traced {
        let runner = fast_runner(&s, Traced::new, true);
        measure(watch, runner, &s, "fast-raft", crash, true)
    } else {
        let runner = fast_runner(&s, identity, false);
        measure(watch, runner, &s, "fast-raft", crash, false)
    }
}

/// The harness's own `RunReport` for the cell's scenario at `seed`,
/// debug-printed: the benchmark's unwrapped wiring must reproduce it bit
/// for bit.
pub fn reference(workload: &str, seed: u64) -> String {
    let report = match workload {
        "craft_geo" => {
            let (s, c) = craft_geo(seed);
            harness::run_craft(&s, &c).0
        }
        "fast_rw_crash" => harness::run_fast_raft(&fast_rw_crash(seed)).0,
        other => unreachable!("no harness reference for {other}"),
    };
    format!("{report:?}")
}
