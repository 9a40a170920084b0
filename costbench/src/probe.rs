//! Measurement from outside the program, through its public types.
//!
//! - [`Traced`] wraps any [`ConsensusProtocol`] (and [`ShardNode`]): it
//!   times and allocation-counts every call, keyed by call type and, for
//!   `on_message`, by message kind; tallies the [`Actions`] each call
//!   returns; and round-trips every delivered message through the wire
//!   codec.
//! - [`TimedLatency`] / [`TimedLoss`] wrap the simulated network's models.
//! - [`OpClock`] timestamps client ops at their gateway engine, for the
//!   shard runner, which exposes no per-op samples of its own.
//!
//! Everything lands in one thread-local [`Ledger`]; the benchmark runs on
//! one thread.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

use consensus_core::{CRaftMessage, FastRaftMessage};
use des::{SimDuration, SimRng, SimTime};
use raft::RaftMessage;
use shard::ShardNode;
use simnet::{LatencyModel, LossModel};
use wire::{
    Actions, ClientOutcome, ClientRequest, ConsensusProtocol, Message, NodeId, Observation,
    SessionId, TimerKind, Wire,
};

use crate::alloc;

/// Work done by one kind of engine call, and the effects it returned.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTally {
    /// Calls made.
    pub calls: u64,
    /// Host ns inside the calls.
    pub ns: u64,
    /// Allocation calls made inside them.
    pub allocs: u64,
    /// Messages returned for sending.
    pub sends: u64,
    /// `wire_size()` bytes of those messages.
    pub send_bytes: u64,
    /// Timer set/cancel commands returned.
    pub timer_cmds: u64,
    /// Persist commands returned.
    pub persist_cmds: u64,
    /// Calls that returned at least one persist command: one fsync
    /// boundary each under group commit.
    pub fsync_steps: u64,
}

impl CallTally {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &CallTally) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.allocs += o.allocs;
        self.sends += o.sends;
        self.send_bytes += o.send_bytes;
        self.timer_cmds += o.timer_cmds;
        self.persist_cmds += o.persist_cmds;
        self.fsync_steps += o.fsync_steps;
    }
}

/// Host cost of one wrapped non-engine layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTally {
    /// Calls (or messages, for the codec).
    pub calls: u64,
    /// Host ns inside them.
    pub ns: u64,
    /// Allocation calls made inside them.
    pub allocs: u64,
}

/// The codec round-trip check's counters.
#[derive(Clone, Debug, Default)]
pub struct CodecTally {
    /// The whole check, per delivered message.
    pub span: SpanTally,
    /// Inside `Wire::to_bytes`.
    pub encode_ns: u64,
    /// Inside `Wire::from_bytes`.
    pub decode_ns: u64,
    /// First few mismatches, described.
    pub mismatches: Vec<String>,
    /// All mismatches.
    pub mismatch_count: u64,
}

/// Everything the wrappers measured since the last [`reset`].
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Engine calls by label.
    pub engine: Vec<(Label, CallTally)>,
    /// Latency and loss model calls together.
    pub simnet: SpanTally,
    /// The codec check.
    pub codec: CodecTally,
    /// Client ops timestamped by [`OpClock`]: `(issued, answered)`.
    pub ops: Vec<(SimTime, SimTime)>,
    /// Ops whose terminal answer was a refusal (`SessionExpired`).
    pub refused_ops: u64,
    /// Ops [`OpClock`] saw issued and not yet answered.
    pub open_ops: u64,
}

impl Ledger {
    /// All engine calls summed.
    pub fn engine_total(&self) -> CallTally {
        let mut t = CallTally::default();
        for (_, c) in &self.engine {
            t.add(c);
        }
        t
    }

    fn engine_entry(&mut self, label: Label) -> &mut CallTally {
        let i = match self.engine.iter().position(|(l, _)| *l == label) {
            Some(i) => i,
            None => {
                self.engine.push((label, CallTally::default()));
                self.engine.len() - 1
            }
        };
        &mut self.engine[i].1
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

/// Clears the engine, network and codec tallies (op timestamps and the
/// open-op count carry over: they describe client state, not a window).
pub fn reset() {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.engine.clear();
        l.simnet = SpanTally::default();
        l.codec = CodecTally::default();
    });
}

/// Clears everything, for a fresh deployment.
pub fn reset_all() {
    LEDGER.with(|l| *l.borrow_mut() = Ledger::default());
}

/// A copy of the ledger.
pub fn snapshot() -> Ledger {
    LEDGER.with(|l| l.borrow().clone())
}

/// Takes the op timestamps out of the ledger.
pub fn take_ops() -> Vec<(SimTime, SimTime)> {
    LEDGER.with(|l| std::mem::take(&mut l.borrow_mut().ops))
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A tally key: `("call", "timer")`-style for non-message calls,
/// `(level, kind)` for delivered messages.
pub type Label = (&'static str, &'static str);

/// Message types the benchmark can label and round-trip.
pub trait Traceable: Message + Wire + PartialEq {
    /// Label for per-kind tallies.
    fn label(&self) -> Label;
}

impl Traceable for RaftMessage {
    fn label(&self) -> Label {
        ("msg", self.kind())
    }
}

impl Traceable for FastRaftMessage {
    fn label(&self) -> Label {
        ("msg", self.kind())
    }
}

impl Traceable for CRaftMessage {
    fn label(&self) -> Label {
        let level = if self.is_global() { "global" } else { "local" };
        (level, self.kind())
    }
}

/// Round-trips `msg` through the codec, checking that it decodes to
/// itself and that `encoded_len()`, the encoding's length and the
/// `wire_size()` the network charges all agree.
fn codec_check<M: Traceable>(msg: &M) {
    let a0 = alloc::calls();
    let t0 = Instant::now();
    let bytes = msg.to_bytes();
    let t1 = Instant::now();
    let back = M::from_bytes(&bytes);
    let t2 = Instant::now();
    let encoded_len = msg.encoded_len();
    let wire_size = msg.wire_size();
    let problem = match &back {
        Err(e) => Some(format!("{:?}: decode failed: {e:?}", msg.label())),
        Ok(b) if b != msg => Some(format!("{:?}: decoded value differs", msg.label())),
        Ok(_) if bytes.len() != encoded_len || encoded_len != wire_size => Some(format!(
            "{:?}: encoded {} bytes, encoded_len {encoded_len}, wire_size {wire_size}",
            msg.label(),
            bytes.len()
        )),
        Ok(_) => None,
    };
    // Free both copies inside the span: freeing is codec cost too.
    drop(back);
    drop(bytes);
    let ns = elapsed_ns(t0);
    let allocs = alloc::calls() - a0;
    LEDGER.with(|l| {
        let c = &mut l.borrow_mut().codec;
        c.span.calls += 1;
        c.span.ns += ns;
        c.span.allocs += allocs;
        c.encode_ns += (t1 - t0).as_nanos() as u64;
        c.decode_ns += (t2 - t1).as_nanos() as u64;
        if let Some(p) = problem {
            c.mismatch_count += 1;
            if c.mismatches.len() < 8 {
                c.mismatches.push(p);
            }
        }
    });
}

/// Lengths of an [`Actions`] buffer's queues, to tally one call's share
/// of a buffer the caller may reuse across calls.
#[derive(Clone, Copy)]
struct Marks {
    sends: usize,
    timers: usize,
    persists: usize,
}

impl Marks {
    fn of<M>(out: &Actions<M>) -> Self {
        Marks {
            sends: out.sends.len(),
            timers: out.timers.len(),
            persists: out.persists.len(),
        }
    }
}

/// Times, allocation-counts and tallies every call into the engine `P`.
pub struct Traced<P> {
    inner: P,
}

impl<P: ConsensusProtocol> Traced<P>
where
    P::Message: Traceable,
{
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Traced { inner }
    }

    fn step(
        &mut self,
        label: Label,
        out: &mut Actions<P::Message>,
        call: impl FnOnce(&mut P, &mut Actions<P::Message>),
    ) {
        let before = Marks::of(out);
        let a0 = alloc::calls();
        let t0 = Instant::now();
        call(&mut self.inner, out);
        let ns = elapsed_ns(t0);
        let allocs = alloc::calls() - a0;
        let new_sends = &out.sends[before.sends..];
        let persists = (out.persists.len() - before.persists) as u64;
        let tally = CallTally {
            calls: 1,
            ns,
            allocs,
            sends: new_sends.len() as u64,
            send_bytes: new_sends.iter().map(|(_, m)| m.wire_size() as u64).sum(),
            timer_cmds: (out.timers.len() - before.timers) as u64,
            persist_cmds: persists,
            fsync_steps: u64::from(persists > 0),
        };
        LEDGER.with(|l| l.borrow_mut().engine_entry(label).add(&tally));
    }
}

impl<P: ConsensusProtocol> ConsensusProtocol for Traced<P>
where
    P::Message: Traceable,
{
    type Message = P::Message;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn set_local_clock(&mut self, now: SimTime) {
        self.inner.set_local_clock(now);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, out: &mut Actions<Self::Message>) {
        codec_check(&msg);
        let label = msg.label();
        self.step(label, out, |n, o| n.on_message(from, msg, o));
    }

    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<Self::Message>) {
        self.step(("call", "timer"), out, |n, o| n.on_timer(kind, o));
    }

    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<Self::Message>) {
        self.step(("call", "client_request"), out, |n, o| {
            n.on_client_request(req, o)
        });
    }

    fn bootstrap(&mut self, out: &mut Actions<Self::Message>) {
        self.step(("call", "bootstrap"), out, |n, o| n.bootstrap(o));
    }

    fn pending_applies(&self) -> u64 {
        self.inner.pending_applies()
    }

    fn drain_applies(&mut self, out: &mut Actions<Self::Message>) {
        self.step(("call", "drain_applies"), out, |n, o| n.drain_applies(o));
    }
}

impl<P: ShardNode> ShardNode for Traced<P>
where
    P::Message: Traceable,
{
    fn is_settled_leader(&self) -> bool {
        self.inner.is_settled_leader()
    }

    fn is_quiet_follower(&self) -> bool {
        self.inner.is_quiet_follower()
    }
}

/// Timestamps client ops at their gateway engine: issued at the first
/// `on_client_request` for a `(session, seq)`, answered at the first
/// terminal `ClientResponse` the engine returns for it. One instance per
/// engine, so keys never collide across groups.
pub struct OpClock<P> {
    inner: P,
    now: SimTime,
    open: HashMap<(SessionId, u64), SimTime>,
}

impl<P: ConsensusProtocol> OpClock<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        OpClock {
            inner,
            now: SimTime::ZERO,
            open: HashMap::new(),
        }
    }

    /// Records terminal answers among the observations from `from` on.
    fn answered(&mut self, out: &Actions<P::Message>, from: usize) {
        if self.open.is_empty() {
            return;
        }
        for obs in &out.observations[from..] {
            let Observation::ClientResponse {
                session,
                seq,
                outcome,
            } = obs
            else {
                continue;
            };
            let refused = match outcome {
                ClientOutcome::Redirect { .. } | ClientOutcome::Retry => continue,
                ClientOutcome::SessionExpired => true,
                _ => false,
            };
            if let Some(issued) = self.open.remove(&(*session, *seq)) {
                let now = self.now;
                LEDGER.with(|l| {
                    let mut l = l.borrow_mut();
                    l.open_ops -= 1;
                    if refused {
                        l.refused_ops += 1;
                    } else {
                        l.ops.push((issued, now));
                    }
                });
            }
        }
    }

    fn step(
        &mut self,
        out: &mut Actions<P::Message>,
        call: impl FnOnce(&mut P, &mut Actions<P::Message>),
    ) {
        let mark = out.observations.len();
        call(&mut self.inner, out);
        self.answered(out, mark);
    }
}

impl<P: ConsensusProtocol> ConsensusProtocol for OpClock<P> {
    type Message = P::Message;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn set_local_clock(&mut self, now: SimTime) {
        self.now = now;
        self.inner.set_local_clock(now);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, out: &mut Actions<Self::Message>) {
        self.step(out, |n, o| n.on_message(from, msg, o));
    }

    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<Self::Message>) {
        self.step(out, |n, o| n.on_timer(kind, o));
    }

    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<Self::Message>) {
        let now = self.now;
        self.open.entry((req.session, req.seq)).or_insert_with(|| {
            LEDGER.with(|l| l.borrow_mut().open_ops += 1);
            now
        });
        self.step(out, |n, o| n.on_client_request(req, o));
    }

    fn bootstrap(&mut self, out: &mut Actions<Self::Message>) {
        self.step(out, |n, o| n.bootstrap(o));
    }

    fn pending_applies(&self) -> u64 {
        self.inner.pending_applies()
    }

    fn drain_applies(&mut self, out: &mut Actions<Self::Message>) {
        self.step(out, |n, o| n.drain_applies(o));
    }
}

impl<P: ShardNode> ShardNode for OpClock<P> {
    fn is_settled_leader(&self) -> bool {
        self.inner.is_settled_leader()
    }

    fn is_quiet_follower(&self) -> bool {
        self.inner.is_quiet_follower()
    }
}

fn simnet_span<T>(f: impl FnOnce() -> T) -> T {
    let a0 = alloc::calls();
    let t0 = Instant::now();
    let v = f();
    let ns = elapsed_ns(t0);
    let allocs = alloc::calls() - a0;
    LEDGER.with(|l| {
        let s = &mut l.borrow_mut().simnet;
        s.calls += 1;
        s.ns += ns;
        s.allocs += allocs;
    });
    v
}

/// A latency model whose every sample is timed.
pub struct TimedLatency(pub Box<dyn LatencyModel + Send>);

impl LatencyModel for TimedLatency {
    fn sample(&mut self, from: NodeId, to: NodeId, rng: &mut SimRng) -> SimDuration {
        simnet_span(|| self.0.sample(from, to, rng))
    }
}

/// A loss model whose every verdict is timed.
pub struct TimedLoss(pub Box<dyn LossModel + Send>);

impl LossModel for TimedLoss {
    fn dropped(&mut self, from: NodeId, to: NodeId, rng: &mut SimRng) -> bool {
        simnet_span(|| self.0.dropped(from, to, rng))
    }
}
