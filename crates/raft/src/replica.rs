//! The replica core shared by classic Raft and Fast Raft, sans-IO.
//!
//! Fast Raft is "a variation on the Raft consensus algorithm" (§IV): it
//! differs only in the fast track and the recovery algorithm. Terms,
//! client sessions, linearizable reads, leases, snapshots and compaction
//! are plain Raft, so both protocols embed one [`ReplicaCore`] that owns
//! that state and the rules over it:
//!
//! - term and vote persistence, proposal-id minting, lease grants and the
//!   RequestVote prologue (non-member, lease hold, live leader lease);
//! - the read path behind each protocol's admission check: lease reads,
//!   ReadIndex rounds, and answers queued behind pipelined apply;
//! - the client surface: answering gateways, exactly-once session apply,
//!   deterministic session expiry, and the gateway sweep after a snapshot;
//! - compaction, the snapshot served to laggards, and the follower-side
//!   snapshot install.
//!
//! Replication, the commit rules, elections and membership stay with each
//! protocol (`RaftNode` here, `FastRaftEngine` in `consensus-core`).
//!
//! The core is generic over the protocol's message type through
//! [`ReplicaMessage`], which names the only two messages it sends itself,
//! and over the protocol's in-flight proposal record `P`.

use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;

use des::SimTime;
use wire::{
    fold_session_digest, session_state_current, Actions, ClientOp, ClientOutcome, Configuration,
    EntryId, LeaseState, LogEntry, LogIndex, LogScope, NodeId, Observation, Payload, PersistCmd,
    ReadIndexQueue, SessionApply, SessionId, SessionTable, Snapshot, SparseLog, Term, VoteHold,
};

use crate::Timing;

/// Proposal-sequence numbers are reserved in stable storage in blocks of
/// this size (one write-ahead command per block, not per proposal). A crash
/// discards at most one partial block of unused ids.
const SEQ_RESERVE_BLOCK: u64 = 64;

/// The role a site currently plays (§III-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Passive replica; votes in elections.
    Follower,
    /// Election in progress, requesting votes.
    Candidate,
    /// The unique coordinator of the current term.
    Leader,
}

/// The two messages a [`ReplicaCore`] sends on its own behalf, built in
/// the embedding protocol's vocabulary.
pub trait ReplicaMessage {
    /// The typed outcome of a client request, addressed to its gateway.
    fn client_reply(session: SessionId, seq: u64, outcome: ClientOutcome) -> Self;

    /// A follower's acknowledgement of a snapshot transfer: it now holds
    /// everything through `last_index` (`ZERO` when the sender's term is
    /// stale).
    fn install_snapshot_reply(term: Term, last_index: LogIndex) -> Self;
}

/// A linearizable read already admitted at a commit floor the state machine
/// has not caught up to yet (pipelined apply only): the floor is safe — it
/// was captured under lease or ReadIndex confirmation — but answering before
/// the apply queue reaches it would let the client observe state older than
/// its admission point.
#[derive(Clone, Debug)]
struct PendingReadAnswer {
    reply_to: NodeId,
    session: SessionId,
    seq: u64,
    floor: LogIndex,
}

/// The replica state and rules classic Raft and Fast Raft share (see the
/// module docs). `M` is the protocol's message type, `P` its record of a
/// proposal issued at this site.
#[derive(Debug)]
pub struct ReplicaCore<M, P> {
    /// This site.
    pub id: NodeId,
    /// The log this replica runs consensus over (classic Raft: `Global`).
    pub scope: LogScope,
    /// Timing and sizing parameters.
    pub timing: Timing,

    // ---- persistent state (mirrored to stable storage via PersistCmd) ----
    /// The current term.
    pub current_term: Term,
    /// The candidate voted for in `current_term`, if any.
    pub voted_for: Option<NodeId>,
    /// The replicated log.
    pub log: SparseLog,
    /// Latest snapshot covering the compacted log prefix, served to sites
    /// whose `nextIndex` fell below `log.first_index()`.
    pub snapshot: Option<Snapshot>,

    // ---- volatile state ----
    /// Highest committed index.
    pub commit_index: LogIndex,
    /// Highest index applied to the state machine. Trails `commit_index`
    /// only under [`Timing::pipelined_apply`], between a commit advancement
    /// and the embedding's drain stage; equal to it at every step boundary
    /// otherwise.
    pub applied_index: LogIndex,
    /// Linearizable reads admitted at a floor above `applied_index`,
    /// answered when the apply queue catches up (pipelined apply only).
    reads_awaiting_apply: Vec<PendingReadAnswer>,
    /// Running digest of the committed sequence (the simulated state
    /// machine); captured into snapshots as the state image.
    pub state_digest: u64,
    /// This site's current role.
    pub role: Role,
    /// The site believed to lead.
    pub leader_hint: Option<NodeId>,
    /// Last configuration *inserted* into the log (§III-A).
    pub config: Configuration,
    /// Index of that configuration entry (ZERO for the bootstrap config).
    pub config_index: LogIndex,

    // ---- applied client state (deterministic across replicas) ----
    /// Per-session exactly-once dedup table; updated while applying
    /// committed session-tagged entries and carried inside snapshots.
    pub sessions: SessionTable,

    // ---- gateway (client-facing) state ----
    /// `(session, seq)` → proposal id for writes in flight at this gateway
    /// (client retry idempotence).
    pub client_writes: HashMap<(SessionId, u64), EntryId>,
    /// Other client requests in flight at this gateway, with their op: every
    /// linearizable read and registration; Fast Raft records its writes here
    /// too. A remote answer completes a request found here or in
    /// `client_writes`.
    pub client_ops: BTreeMap<(SessionId, u64), ClientOp>,
    /// Proposals issued at this site and not yet known committed.
    pub proposals: BTreeMap<EntryId, P>,
    /// Sequence number of the next proposal id this site mints.
    next_seq: u64,
    /// One past the highest sequence number covered by a persisted
    /// [`PersistCmd::ReserveProposalSeqs`]; `next_seq` never reaches it
    /// without first extending the reservation, so recovery restarts the
    /// counter above every id this site may ever have sent.
    reserved_seqs: u64,
    /// Where each known proposal id sits in the log (dedup + notification).
    pub id_index: HashMap<EntryId, LogIndex>,

    // ---- leader read path (ReadIndex; shared machinery in wire::read) ----
    /// Pending ReadIndex rounds and the probe counter heartbeats carry.
    pub reads: ReadIndexQueue,

    // ---- leader lease (quorum-free reads; shared machinery in wire::lease) ----
    /// This site's local clock, stamped by the embedding before each event
    /// (see [`wire::ConsensusProtocol::set_local_clock`]). Stays
    /// [`SimTime::ZERO`] (clockless) in purely event-driven embeddings,
    /// which keeps every lease path inert. At the C-Raft global level the
    /// same machinery yields the recursive lease: the "followers" granting
    /// are the other clusters' leaders.
    pub local_now: SimTime,
    /// Leader-side grant collection (valid ⇒ linearizable reads served
    /// locally with zero messages).
    pub lease: LeaseState,
    /// Follower-side half of the promise: refuse rival candidates while a
    /// grant this site emitted is still live on its own clock.
    pub vote_hold: VoteHold,

    _msg: PhantomData<fn() -> M>,
}

impl<M: ReplicaMessage, P> ReplicaCore<M, P> {
    /// A fresh follower at term zero with an empty log, obeying `config`.
    pub fn new(id: NodeId, scope: LogScope, config: Configuration, timing: Timing) -> Self {
        ReplicaCore {
            id,
            scope,
            timing,
            current_term: Term::ZERO,
            voted_for: None,
            log: SparseLog::new(),
            snapshot: None,
            commit_index: LogIndex::ZERO,
            applied_index: LogIndex::ZERO,
            reads_awaiting_apply: Vec::new(),
            state_digest: 0,
            role: Role::Follower,
            leader_hint: None,
            config,
            config_index: LogIndex::ZERO,
            sessions: SessionTable::new(),
            client_writes: HashMap::new(),
            client_ops: BTreeMap::new(),
            proposals: BTreeMap::new(),
            next_seq: 0,
            reserved_seqs: 0,
            id_index: HashMap::new(),
            reads: ReadIndexQueue::new(),
            local_now: SimTime::ZERO,
            lease: LeaseState::new(),
            vote_hold: VoteHold::new(),
            _msg: PhantomData,
        }
    }

    /// Rebuilds the persisted state after a crash (§II): term and vote,
    /// the snapshot (if any) plus the retained log suffix, and the
    /// proposal-sequence floor. Volatile state — role, leader knowledge —
    /// is relearned from the protocol.
    ///
    /// The commit and apply indices resume at the compaction horizon:
    /// everything the snapshot covers is known committed and already
    /// applied, so no (now unavailable) history is replayed. The
    /// configuration is the log's latest config entry, falling back to the
    /// snapshot's, then the bootstrap one.
    pub fn restore(
        &mut self,
        term: Term,
        voted_for: Option<NodeId>,
        mut log: SparseLog,
        snapshot: Option<Snapshot>,
        proposal_seq_floor: u64,
    ) {
        self.current_term = term;
        self.voted_for = voted_for;
        // Resume the proposal counter above every persisted reservation:
        // re-minting a pre-crash id would hit the peers' id-dedup and
        // silently answer the *old* entry's commit for the new proposal.
        self.next_seq = proposal_seq_floor;
        self.reserved_seqs = proposal_seq_floor;
        if let Some(snap) = &snapshot {
            // Idempotent for a log already compacted to the snapshot; for a
            // log rebuilt some other way (C-Raft's global reconstruction) it
            // establishes the horizon and drops covered entries.
            log.install_snapshot(snap.last_index, snap.last_term);
            self.config = snap.config.clone();
            self.config_index = snap.last_index;
            self.sessions = snap.sessions.clone();
            if let Some(digest) = snap.state_digest() {
                self.state_digest = digest;
            }
        }
        self.log = log;
        self.snapshot = snapshot;
        self.commit_index = self.log.compacted_through();
        self.applied_index = self.commit_index;
        if let Some((idx, cfg)) = self.log.latest_config() {
            self.config = cfg.clone();
            self.config_index = idx;
        }
        for (idx, entry) in self.log.iter() {
            self.id_index.insert(entry.id, idx);
        }
    }

    /// Number of committed-but-unapplied indices queued for pipelined
    /// apply; always zero at step boundaries in inline mode.
    pub fn pending_applies(&self) -> u64 {
        self.commit_index.as_u64() - self.applied_index.as_u64()
    }

    /// Mints a proposal id, extending the persisted sequence reservation
    /// when the current block runs out. The reservation is write-ahead —
    /// durable before any message carrying the id leaves this site — so a
    /// recovered replica never re-mints an id a peer might still hold in
    /// its dedup index.
    pub fn fresh_id(&mut self, out: &mut Actions<M>) -> EntryId {
        if self.next_seq >= self.reserved_seqs {
            self.reserved_seqs = self.next_seq + SEQ_RESERVE_BLOCK;
            out.persist(PersistCmd::ReserveProposalSeqs {
                scope: self.scope,
                through: self.reserved_seqs,
            });
        }
        let id = EntryId::new(self.id, self.next_seq);
        self.next_seq += 1;
        id
    }

    /// One past the highest proposal sequence number persisted as reserved.
    pub fn reserved_seqs(&self) -> u64 {
        self.reserved_seqs
    }

    /// The session a registration opens: the client's own id, or for an
    /// unassigned one a server-assigned id derived from this gateway's id
    /// and proposal counter, so concurrent registrations at different
    /// gateways cannot collide. A *retry* of an unassigned registration may
    /// open a second (unused) session; the TTL reclaims it.
    pub fn registered_session(&self, session: SessionId) -> SessionId {
        if session.is_unassigned() {
            SessionId::assigned(self.id, self.next_seq)
        } else {
            session
        }
    }

    /// Persists the current term and vote.
    pub fn persist_term_vote(&self, out: &mut Actions<M>) {
        out.persist(PersistCmd::SetTermVote {
            scope: self.scope,
            term: self.current_term,
            voted_for: self.voted_for,
        });
    }

    /// `true` while this site holds a classic quorum of live lease grants.
    fn lease_valid(&self) -> bool {
        self.lease.valid_at(
            self.local_now,
            &self.config,
            self.id,
            self.timing.max_clock_skew,
        )
    }

    /// Follower-side lease grant riding an append ack: a promise not to
    /// vote for anyone but `leader` before `now + lease_duration` on this
    /// site's clock, enforced locally via [`VoteHold`]. Returns
    /// [`SimTime::ZERO`] (no grant) when clockless or leases are disabled.
    pub fn emit_lease_grant(&mut self, leader: NodeId) -> SimTime {
        if self.local_now == SimTime::ZERO || self.timing.lease_duration.is_zero() {
            return SimTime::ZERO;
        }
        let until = self.local_now + self.timing.lease_duration;
        self.vote_hold.note_grant(leader, until);
        until
    }

    /// Collects a follower's lease grant from an append ack (success or
    /// not — the promise is about voting, not log state). A rejected grant
    /// means the granter's clock runs ahead beyond the modeled bound: the
    /// lease quietly degrades to the ReadIndex fallback rather than
    /// counting an unsound promise.
    pub fn record_lease_grant(&mut self, from: NodeId, until: SimTime, out: &mut Actions<M>) {
        if !self.lease.record_grant(
            from,
            until,
            self.local_now,
            self.timing.lease_duration,
            self.timing.max_clock_skew,
        ) {
            out.observe(Observation::MessageIgnored {
                reason: "lease grant beyond clock-skew bound",
            });
        }
    }

    /// Arms a new leader's lease behind the new-leader barrier: any lease
    /// the deposed leader could still be serving under expires within
    /// `lease_duration + max_clock_skew` of this instant (its newest grant
    /// predates this election win), so waiting that window out before
    /// serving lease reads makes the handover safe even against grants
    /// this site never saw. Inert while clockless or disabled.
    pub fn arm_lease(&mut self) {
        self.lease.clear();
        if !self.timing.lease_duration.is_zero() {
            self.lease.enable_after(
                self.local_now,
                self.timing.lease_duration + self.timing.max_clock_skew,
            );
        }
    }

    /// The RequestVote prologue: `true` (with the reason observed) when the
    /// request must be dropped *without* adopting the candidate's term.
    ///
    /// - A candidate outside the configuration never gets a vote.
    /// - Lease hold: the ack this site last sent carried a promise not to
    ///   elect anyone but its leader before `until` on this clock. A
    ///   partitioned candidate's term inflation must not depose a leader
    ///   whose lease a quorum still backs. The hold provably expires before
    ///   this site's own election timer can fire (`Timing::validate` pins
    ///   lease + skew ≤ election_min), so a dead leader still gets replaced.
    /// - A leader whose own lease is live refuses too: a quorum is promising
    ///   not to elect anyone else, so the candidate provably cannot win —
    ///   stepping down would only forfeit the lease's availability.
    pub fn refuses_vote_request(&self, candidate: NodeId, out: &mut Actions<M>) -> bool {
        let reason = if !self.config.contains(candidate) {
            "vote request from non-member"
        } else if self.vote_hold.blocks(candidate, self.local_now) {
            "vote request during lease hold"
        } else if self.role == Role::Leader && self.lease_valid() {
            "vote request at leader with live lease"
        } else {
            return false;
        };
        out.observe(Observation::MessageIgnored { reason });
        true
    }

    // ------------------------------------------------------------------
    // Linearizable reads
    // ------------------------------------------------------------------

    /// Leader side of a linearizable read the protocol has admitted (its
    /// own term's entry has committed): capture the commit floor and answer
    /// it under the lease, at once in a single-voter configuration, or
    /// after a ReadIndex round. Returns `true` when the protocol must
    /// dispatch AppendEntries now to confirm leadership (a new round, or a
    /// re-probe for a retry of a pending one).
    pub fn admit_read(
        &mut self,
        session: SessionId,
        seq: u64,
        reply_to: NodeId,
        out: &mut Actions<M>,
    ) -> bool {
        debug_assert_eq!(self.role, Role::Leader);
        let floor = self.commit_index;
        // Lease fast path: a classic quorum of live grants proves no rival
        // can have been elected, so the current commit floor is
        // linearizable to serve locally — zero messages, zero round trips
        // (see `docs/CONSISTENCY.md` for the safety argument).
        if self.lease_valid() {
            out.observe(Observation::LeaseRead {
                session,
                seq,
                floor,
            });
            self.answer_read(reply_to, session, seq, floor, out);
            return false;
        }
        if self.config.classic_quorum() <= 1 {
            // A single-voter configuration confirms itself.
            out.observe(Observation::ReadIndexRead {
                session,
                seq,
                floor,
            });
            self.answer_read(reply_to, session, seq, floor, out);
            return false;
        }
        // Retry idempotence (see `wire::ReadIndexQueue::is_pending`): the
        // pending round answers the retry too; the caller just re-probes in
        // case the original heartbeats were lost.
        if !self.reads.is_pending(session, seq, reply_to) {
            self.reads.register(session, seq, reply_to, floor);
        }
        true
    }

    /// Counts a follower's heartbeat ack toward pending ReadIndex rounds.
    pub fn note_read_ack(&mut self, from: NodeId, probe: u64, out: &mut Actions<M>) {
        for r in self.reads.note_ack(from, probe, &self.config, self.id) {
            out.observe(Observation::ReadIndexRead {
                session: r.session,
                seq: r.seq,
                floor: r.floor,
            });
            self.answer_read(r.reply_to, r.session, r.seq, r.floor, out);
        }
    }

    /// Fails every pending ReadIndex round with `Retry` (leadership lost or
    /// re-confirmed under a different term).
    pub fn fail_pending_reads(&mut self, out: &mut Actions<M>) {
        for r in self.reads.drain() {
            self.respond_client(r.reply_to, r.session, r.seq, ClientOutcome::Retry, out);
        }
    }

    /// Emits a linearizable read's answer — immediately when the applied
    /// state already covers the admission floor (always true inline),
    /// queued behind the apply pipeline otherwise, so the client can never
    /// observe state older than the floor its read was admitted at.
    fn answer_read(
        &mut self,
        reply_to: NodeId,
        session: SessionId,
        seq: u64,
        floor: LogIndex,
        out: &mut Actions<M>,
    ) {
        if floor <= self.applied_index {
            self.respond_client(
                reply_to,
                session,
                seq,
                ClientOutcome::ReadOk {
                    scope: self.scope,
                    commit_floor: floor,
                },
                out,
            );
        } else {
            self.reads_awaiting_apply.push(PendingReadAnswer {
                reply_to,
                session,
                seq,
                floor,
            });
        }
    }

    /// Answers queued linearizable reads whose admission floor the applied
    /// state now covers (pipelined apply only; a no-op inline, where reads
    /// are never queued).
    pub fn release_applied_reads(&mut self, out: &mut Actions<M>) {
        if self.reads_awaiting_apply.is_empty() {
            return;
        }
        let applied = self.applied_index;
        let ready: Vec<PendingReadAnswer> = {
            let (ready, waiting) = std::mem::take(&mut self.reads_awaiting_apply)
                .into_iter()
                .partition(|r| r.floor <= applied);
            self.reads_awaiting_apply = waiting;
            ready
        };
        for r in ready {
            self.answer_read(r.reply_to, r.session, r.seq, r.floor, out);
        }
    }

    // ------------------------------------------------------------------
    // Client answers
    // ------------------------------------------------------------------

    /// Answers a client request: as an observation when the gateway is this
    /// site (which forgets the request), as a client reply otherwise.
    pub fn respond_client(
        &mut self,
        to: NodeId,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<M>,
    ) {
        if to == self.id {
            if let Some(id) = self.client_writes.remove(&(session, seq)) {
                self.proposals.remove(&id);
            }
            self.client_ops.remove(&(session, seq));
            out.observe(Observation::ClientResponse {
                session,
                seq,
                outcome,
            });
        } else {
            out.send(to, M::client_reply(session, seq, outcome));
        }
    }

    /// Tells the gateway `to` that this site cannot serve `(session, seq)`
    /// and whom it believes leads.
    pub fn redirect(&self, to: NodeId, session: SessionId, seq: u64, out: &mut Actions<M>) {
        let outcome = ClientOutcome::Redirect {
            leader_hint: self.leader_hint,
        };
        out.send(to, M::client_reply(session, seq, outcome));
    }

    /// Session dedup at a door: when the applied table already covers
    /// `(session, seq)`, answers `to` with where it first applied —
    /// `Registered` for a registration, `Duplicate` for a write — and
    /// returns `true`. The table is applied state carried in snapshots, so
    /// this check survives compaction and restarts.
    pub fn answer_applied(
        &mut self,
        to: NodeId,
        session: SessionId,
        seq: u64,
        register: bool,
        out: &mut Actions<M>,
    ) -> bool {
        let Some(first_index) = self.sessions.duplicate_of(session, seq) else {
            return false;
        };
        let outcome = if register {
            ClientOutcome::Registered {
                session,
                index: first_index,
            }
        } else {
            ClientOutcome::Duplicate { first_index }
        };
        self.respond_client(to, session, seq, outcome, out);
        true
    }

    /// Gateway door for a write from an expired (evicted) session: refuses
    /// it with `SessionExpired` and returns `true` only where that verdict
    /// is exact — this gateway is the leader with a provably current
    /// applied table (see [`ReplicaCore::applied_session_state_current`]).
    /// Any other gateway's table may simply lag the commit sequence, so it
    /// must not refuse: the write is placed and routed onward, and the
    /// leader's door or the authoritative apply-time check rules, relayed
    /// back as a client reply.
    pub fn refuses_expired_write(
        &mut self,
        session: SessionId,
        seq: u64,
        out: &mut Actions<M>,
    ) -> bool {
        let refuse = self.timing.session_ttl > 0
            && self.sessions.is_expired_retry(session, seq)
            && self.applied_session_state_current();
        if refuse {
            self.respond_client(self.id, session, seq, ClientOutcome::SessionExpired, out);
        }
        refuse
    }

    /// `true` while the request `(session, seq)` is in flight at this
    /// gateway.
    fn awaits_answer(&self, key: &(SessionId, u64)) -> bool {
        self.client_writes.contains_key(key) || self.client_ops.contains_key(key)
    }

    /// Gateway handling of a typed outcome arriving from another site.
    pub fn on_client_reply(
        &mut self,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<M>,
    ) {
        if let ClientOutcome::Redirect { leader_hint } = &outcome {
            if let Some(hint) = leader_hint {
                self.leader_hint = Some(*hint);
            }
            // A redirected *write* stays pending: the proposal-retry timer
            // resubmits it against the updated hint. Re-routing here
            // synchronously would ping-pong at network RTT against a
            // deposed leader that still hints itself (and broadcast-storm
            // while no hint exists). Redirected reads surface so the caller
            // retries against the updated hint.
            if self.client_writes.contains_key(&(session, seq)) {
                return;
            }
        }
        // The wire reply carries no op kind; the gateway knows it locally.
        // A remote door answering a registration's (session, 1) with a
        // commit/duplicate verdict is reporting the registration applied —
        // surface it as `Registered`.
        let outcome = match (&outcome, self.client_ops.get(&(session, seq))) {
            (ClientOutcome::Committed { index }, Some(ClientOp::Register)) => {
                ClientOutcome::Registered {
                    session,
                    index: *index,
                }
            }
            (ClientOutcome::Duplicate { first_index }, Some(ClientOp::Register)) => {
                ClientOutcome::Registered {
                    session,
                    index: *first_index,
                }
            }
            _ => outcome,
        };
        if self.awaits_answer(&(session, seq)) {
            self.respond_client(self.id, session, seq, outcome, out);
        }
    }

    /// `true` when this site's applied session table provably covers every
    /// write the cluster has ever committed: it is the leader and an entry
    /// of its own term has committed (the shared
    /// [`wire::session_state_current`] condition). Only then is a
    /// door-level [`SessionTable::is_expired_retry`] verdict exact;
    /// elsewhere (or at a fresh leader before its first own-term commit)
    /// the table may simply lag and "expired" can be a false positive for a
    /// perfectly live session.
    pub fn applied_session_state_current(&self) -> bool {
        self.role == Role::Leader
            // Pipelined apply: the table only covers the *applied* prefix;
            // while the queue is non-empty the door verdict stays inexact
            // (answers degrade to Retry, never a wrong terminal refusal).
            && self.applied_index == self.commit_index
            && session_state_current(&self.log, self.commit_index, self.current_term)
    }

    /// Answers every write in flight here that the session table now covers
    /// (a snapshot install can jump the commit floor across its
    /// application), in `(session, seq)` order.
    fn sweep_client_pending(&mut self, out: &mut Actions<M>) {
        let mut done: Vec<(SessionId, u64, bool)> = self
            .client_writes
            .keys()
            .filter(|&&(s, q)| self.sessions.duplicate_of(s, q).is_some())
            .map(|&(s, q)| {
                let register = matches!(self.client_ops.get(&(s, q)), Some(ClientOp::Register));
                (s, q, register)
            })
            .collect();
        // `client_writes` iterates in its hasher's per-instance order; the
        // answers must not.
        done.sort_unstable_by_key(|&(s, q, _)| (s, q));
        for (session, seq, register) in done {
            self.answer_applied(self.id, session, seq, register, out);
        }
    }

    // ------------------------------------------------------------------
    // Apply
    // ------------------------------------------------------------------

    /// Exactly-once apply of one `(session, seq)` at `index`: the dedup
    /// table is part of applied state, so every replica — including one
    /// that recovered from a snapshot + suffix — makes the same
    /// first-application decision.
    pub fn apply_session(
        &mut self,
        session: SessionId,
        seq: u64,
        index: LogIndex,
        out: &mut Actions<M>,
    ) -> SessionApply {
        let applied = self.sessions.apply(session, seq, index);
        match applied {
            SessionApply::Applied => {
                self.state_digest = fold_session_digest(self.state_digest, session, seq);
                out.observe(Observation::SessionApplied {
                    scope: self.scope,
                    session,
                    seq,
                    index,
                });
            }
            SessionApply::Duplicate { first_index } => {
                out.observe(Observation::SessionDuplicate {
                    scope: self.scope,
                    session,
                    seq,
                    first_index,
                });
            }
        }
        applied
    }

    /// Applies a committed client write or registration and notifies its
    /// client: the gateway answers from its own apply; the leader tells a
    /// remote proposer ("the leader then notifies the proposer"), which
    /// covers gateways lagging behind the commit (they ignore replies to
    /// requests no longer pending). Returns `false`, doing nothing, for
    /// any other payload.
    pub fn apply_client_write(
        &mut self,
        index: LogIndex,
        entry: &LogEntry,
        out: &mut Actions<M>,
    ) -> bool {
        let Some((session, seq)) = entry.payload.session_key() else {
            return false;
        };
        let is_register = matches!(entry.payload, Payload::Register { .. });
        // Apply-time expiry check — authoritative (the table covers every
        // commit below `index`): a committed duplicate placement that
        // outlived its session's eviction must not re-apply. Identical on
        // every replica, no digest fold; the client is still notified
        // below. A registration is exempt: it carries no value, so
        // re-applying one past an eviction merely re-opens an empty
        // session — exactly the property that lets registered sessions
        // close the seq-1 boundary window.
        let outcome = if !is_register
            && self.timing.session_ttl > 0
            && self.sessions.is_expired_retry(session, seq)
        {
            ClientOutcome::SessionExpired
        } else {
            match self.apply_session(session, seq, index, out) {
                SessionApply::Applied if is_register => {
                    ClientOutcome::Registered { session, index }
                }
                SessionApply::Applied => ClientOutcome::Committed { index },
                SessionApply::Duplicate { first_index } if is_register => {
                    ClientOutcome::Registered {
                        session,
                        index: first_index,
                    }
                }
                SessionApply::Duplicate { first_index } => ClientOutcome::Duplicate { first_index },
            }
        };
        if entry.id.proposer == self.id {
            self.proposals.remove(&entry.id);
        }
        if self.awaits_answer(&(session, seq)) {
            self.respond_client(self.id, session, seq, outcome, out);
        } else if self.role == Role::Leader && entry.id.proposer != self.id {
            out.send(entry.id.proposer, M::client_reply(session, seq, outcome));
        }
        true
    }

    /// Deterministic session expiry: idleness is measured in committed log
    /// distance, and the sweep runs once per committed index — every
    /// replica applies the identical eviction sequence regardless of how
    /// its commits were batched, so the digest fold keeps snapshots
    /// convergent.
    pub fn evict_idle_sessions(&mut self, at: LogIndex, out: &mut Actions<M>) {
        for session in self.sessions.evict_idle(at, self.timing.session_ttl) {
            self.state_digest = wire::fold_session_evicted(self.state_digest, session);
            out.observe(Observation::SessionEvicted {
                scope: self.scope,
                session,
                at,
            });
        }
    }

    // ------------------------------------------------------------------
    // Snapshots + log compaction
    // ------------------------------------------------------------------

    /// Compacts the applied prefix into a snapshot once its retained length
    /// exceeds [`Timing::snapshot_threshold`]. Every role compacts — the
    /// committed prefix is immutable everywhere — so per-site log residency
    /// stays bounded, not just the leader's. Compaction never crosses a
    /// hole (the committed prefix is contiguous by construction, and
    /// [`SparseLog::compact_to`] clamps regardless).
    pub fn maybe_compact(&mut self, out: &mut Actions<M>) {
        let threshold = self.timing.snapshot_threshold;
        if threshold == 0 {
            return;
        }
        let horizon = self.log.compacted_through();
        // Compaction is bounded by the *applied* prefix, not the committed
        // one: the snapshot captures digest + session table, which are
        // apply-time state. Inline, applied == committed here; pipelined,
        // compaction simply runs at the drain stage.
        let retained_decided = self.applied_index.as_u64().saturating_sub(horizon.as_u64());
        if retained_decided <= threshold {
            return;
        }
        let through = self.applied_index;
        let snapshot = Snapshot {
            scope: self.scope,
            last_index: through,
            last_term: self.log.term_at(through),
            config: self.config_for_snapshot(through),
            state: Snapshot::digest_state(self.state_digest),
            sessions: self.sessions.clone(),
        };
        out.persist(PersistCmd::InstallSnapshot {
            snapshot: snapshot.clone(),
        });
        let new_horizon = self.log.compact_to(through);
        debug_assert_eq!(new_horizon, through, "committed prefix must be contiguous");
        self.snapshot = Some(snapshot);
        out.observe(Observation::LogCompacted {
            scope: self.scope,
            through,
            retained: self.log.len(),
        });
    }

    /// The configuration in force at `through`: the current configuration
    /// when its entry sits at or below the cut, otherwise the newest config
    /// entry inside the retained prefix (falling back to the previous
    /// snapshot's, then the current configuration).
    fn config_for_snapshot(&self, through: LogIndex) -> Configuration {
        if self.config_index <= through {
            return self.config.clone();
        }
        let mut cfg = self.snapshot.as_ref().map(|s| s.config.clone());
        for (_, e) in self.log.range(self.log.first_index(), through) {
            if let Some(c) = e.as_config() {
                cfg = Some(c.clone());
            }
        }
        cfg.unwrap_or_else(|| self.config.clone())
    }

    /// The snapshot to serve laggards: the cached one (compaction refreshes
    /// it), synthesized from the log's horizon if a recovery path lost it.
    pub fn current_snapshot(&self) -> Option<Snapshot> {
        let horizon = self.log.compacted_through();
        if horizon.is_zero() {
            return None;
        }
        match &self.snapshot {
            Some(s) if s.last_index == horizon => Some(s.clone()),
            _ => Some(Snapshot {
                scope: self.scope,
                last_index: horizon,
                last_term: self.log.compacted_term(),
                config: self.config_for_snapshot(horizon),
                state: Snapshot::digest_state(self.state_digest),
                sessions: self.sessions.clone(),
            }),
        }
    }

    /// Acknowledges a snapshot transfer from `to` through `last_index`.
    pub fn ack_snapshot(&self, to: NodeId, last_index: LogIndex, out: &mut Actions<M>) {
        out.send(to, M::install_snapshot_reply(self.current_term, last_index));
    }

    /// Follower side of a snapshot transfer from `from`, once the protocol
    /// has checked the sender's term and followed it. A stale transfer —
    /// everything it covers is already committed here — is acked with this
    /// site's actual coverage, so the leader resumes higher, and yields
    /// `None`. Otherwise the compacted prefix is replaced wholesale and the
    /// result says whether the snapshot's configuration now rules; the
    /// protocol adopts it, then calls
    /// [`ReplicaCore::finish_snapshot_install`].
    pub fn begin_snapshot_install(
        &mut self,
        from: NodeId,
        snapshot: &Snapshot,
        out: &mut Actions<M>,
    ) -> Option<bool> {
        let last_index = snapshot.last_index;
        if last_index <= self.commit_index {
            self.ack_snapshot(from, self.commit_index, out);
            return None;
        }
        let old_commit = self.commit_index;
        out.persist(PersistCmd::InstallSnapshot {
            snapshot: snapshot.clone(),
        });
        self.log.install_snapshot(last_index, snapshot.last_term);
        // Drop id mappings for entries the install discarded. Only mappings
        // at or below the *pre-install* commit index are known committed
        // (and may keep answering duplicate proposals as such) — an
        // uncommitted entry below the new horizon (a deposed leader's fork,
        // a self-approved entry that lost its slot) must not be reported
        // committed.
        let log = &self.log;
        self.id_index
            .retain(|_, idx| *idx <= old_commit || log.get(*idx).is_some());
        // The snapshot's configuration rules unless a *surviving* config
        // entry above the horizon supersedes it; a config entry the install
        // discarded (conflicting suffix) must no longer be obeyed.
        Some(self.config_index <= last_index || self.log.get(self.config_index).is_none())
    }

    /// Completes [`ReplicaCore::begin_snapshot_install`]: adopts the
    /// snapshot's applied state and answers what it fast-forwarded past.
    pub fn finish_snapshot_install(&mut self, snapshot: Snapshot, out: &mut Actions<M>) {
        let last_index = snapshot.last_index;
        if let Some(digest) = snapshot.state_digest() {
            self.state_digest = digest;
        }
        // Adopt the applied session state: the snapshot's table covers
        // strictly more commits than ours (last_index > old commit). The
        // apply pipeline fast-forwards with it — the snapshot state already
        // subsumes any queued-but-undrained range, whose entries the
        // install just discarded.
        self.sessions = snapshot.sessions.clone();
        self.commit_index = last_index;
        self.applied_index = last_index;
        self.snapshot = Some(snapshot);
        out.observe(Observation::SnapshotInstalled {
            scope: self.scope,
            last_index,
        });
        // Gateway sweep: writes submitted here whose application the
        // install fast-forwarded past must still be answered.
        self.sweep_client_pending(out);
        self.release_applied_reads(out);
    }
}
