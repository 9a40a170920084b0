//! The Fast Raft engine (§IV), reusable at both C-Raft levels.
//!
//! One engine instance runs one consensus level over one log. Plain Fast
//! Raft wraps a single engine with the trivial [`ProceedGate`]; C-Raft runs
//! a `Local`-scope engine inside each cluster and a `Global`-scope engine
//! among cluster leaders whose inserts are deferred through a
//! [`GateRecorder`] until a *global state entry* commits locally (§V-B).
//!
//! What Fast Raft takes from Raft unchanged — terms, client sessions,
//! linearizable reads, leases, compaction and snapshot install — lives in
//! the [`ReplicaCore`] the engine embeds, shared with classic Raft. This
//! module holds the rest: the fast track, the decision loop, recovery,
//! replication over a sparse log, and self-announced membership.
//!
//! ## Protocol summary
//!
//! - **Fast track** (§IV-B): proposers broadcast `ProposeAt{index, entry}`
//!   to all members; each site inserts the entry *self-approved* (if the
//!   slot is free) and sends its `Vote` (its `log[index]` plus its commit
//!   index) to the leader. The leader's periodic decision loop processes
//!   index `commitIndex+1` once a classic quorum of votes arrived: it
//!   inserts the most-voted entry leader-approved, and commits immediately
//!   when a fast quorum (⌈3M/4⌉) voted for that same entry.
//! - **Classic track**: when the fast quorum is missed, the inserted entry
//!   replicates via `AppendEntries` (heartbeat-gated) and commits by the
//!   usual matchIndex rule — one extra message round.
//! - **Election** (§IV-C): up-to-dateness counts **leader-approved** entries
//!   only; voters attach all their self-approved entries to granted votes,
//!   and the new leader replays them into `possibleEntries` (the recovery
//!   algorithm), guaranteeing any possibly-chosen entry is re-chosen.
//! - **Membership** (§IV-D): sites announce joins/leaves themselves; the
//!   leader serializes changes one at a time, catches joiners up as
//!   non-voting learners, and detects **silent leaves** via a member
//!   timeout of missed AppendEntries responses.
//!
//! ## Liveness guard (hole filling)
//!
//! If the index right above `commitIndex` never gathers a classic quorum of
//! votes (e.g. the proposer vanished after a partial broadcast), the leader
//! re-proposes a no-op **through the normal proposer path** after
//! `hole_fill_ticks` stalled decision ticks. Sites already holding an entry
//! at the index keep it and re-vote for it, so the decision rule still picks
//! any possibly-chosen entry — safety is untouched while the log unblocks.
//! This guard is implied but not spelled out by the paper; see DESIGN.md.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use bytes::Bytes;
use des::{SimRng, SimTime};
use raft::{ReplicaCore, Role, Timing};
use wire::{
    fold_commit_digest, Actions, Approval, ClientOp, ClientOutcome, ClientRequest, Configuration,
    Consistency, EntryId, EntryList, LogEntry, LogIndex, LogScope, NodeId, Observation, Payload,
    PersistCmd, SessionId, SessionTable, Snapshot, Term, TimerKind, MAX_INSERT_WINDOW,
};

use crate::gate::{GatePurpose, GateToken, GateVerdict, InsertGate};
use crate::message::FastRaftMessage;
use crate::possible::PossibleEntries;

/// Which set of timer kinds an engine arms — base names for single-level
/// protocols and C-Raft's local level, `Global*` for C-Raft's global level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerProfile {
    /// Election / Heartbeat / LeaderTick / ProposalRetry / JoinRetry.
    Base,
    /// GlobalElection / GlobalHeartbeat / ... (§V inter-cluster level).
    Global,
}

impl TimerProfile {
    /// Maps a base timer kind to this profile's concrete kind.
    pub fn map(self, base: TimerKind) -> TimerKind {
        match self {
            TimerProfile::Base => base,
            TimerProfile::Global => match base {
                TimerKind::Election => TimerKind::GlobalElection,
                TimerKind::Heartbeat => TimerKind::GlobalHeartbeat,
                TimerKind::LeaderTick => TimerKind::GlobalLeaderTick,
                TimerKind::ProposalRetry => TimerKind::GlobalProposalRetry,
                TimerKind::JoinRetry => TimerKind::GlobalJoinRetry,
                other => other,
            },
        }
    }

    /// Maps a concrete timer kind back to the base kind, if it belongs to
    /// this profile.
    pub fn unmap(self, kind: TimerKind) -> Option<TimerKind> {
        match self {
            TimerProfile::Base => match kind {
                TimerKind::Election
                | TimerKind::Heartbeat
                | TimerKind::LeaderTick
                | TimerKind::ProposalRetry
                | TimerKind::JoinRetry => Some(kind),
                _ => None,
            },
            TimerProfile::Global => match kind {
                TimerKind::GlobalElection => Some(TimerKind::Election),
                TimerKind::GlobalHeartbeat => Some(TimerKind::Heartbeat),
                TimerKind::GlobalLeaderTick => Some(TimerKind::LeaderTick),
                TimerKind::GlobalProposalRetry => Some(TimerKind::ProposalRetry),
                TimerKind::GlobalJoinRetry => Some(TimerKind::JoinRetry),
                _ => None,
            },
        }
    }
}

/// How proposals reach the log (§IV-B vs the contention note in §IV-F).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProposalMode {
    /// The paper's fast track: broadcast to every member, who insert
    /// self-approved and vote. Two message rounds without contention.
    #[default]
    Broadcast,
    /// Forward to the leader, which assigns the next index and replicates
    /// on the classic track. One extra round, but contention-free —
    /// C-Raft's global level uses this so concurrent per-cluster batches
    /// do not collide (see DESIGN.md "Known deviations").
    LeaderForward,
}

/// A queued membership change awaiting its turn (one at a time, §IV-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReconfigOp {
    Add(NodeId),
    Remove(NodeId),
}

/// A proposal issued at this site, tracked until committed.
#[derive(Clone, Debug)]
struct PendingProposal {
    payload: Payload,
    /// The log index last targeted for this proposal.
    index: LogIndex,
}

/// Continuation parked while an insert is gated (C-Raft global level).
#[derive(Clone, Debug)]
enum GateCont {
    /// Finish a proposer-broadcast insert, then vote.
    ProposerVote { index: LogIndex, entry: LogEntry },
    /// Finish a decision-loop insert, then run the fast-quorum check.
    Decision { index: LogIndex, entry: LogEntry },
    /// Finish an AppendEntries insert; ack when the whole batch landed.
    Append {
        index: LogIndex,
        entry: LogEntry,
        ack: u64,
    },
    /// Finish a leader-forwarded append (ProposalMode::LeaderForward).
    LeaderAppend { index: LogIndex, entry: LogEntry },
}

/// Accumulated acknowledgement for one gated AppendEntries message.
#[derive(Clone, Debug)]
struct AckState {
    from: NodeId,
    /// Term the batch was verified under; the ack is dropped if it changed.
    term: Term,
    match_index: LogIndex,
    leader_commit: LogIndex,
    /// ReadIndex probe of the original message, echoed in the eventual ack.
    probe: u64,
    remaining: usize,
}

/// One consensus level of Fast Raft: a sans-IO state machine.
#[derive(Debug)]
pub struct FastRaftEngine {
    /// Terms, log, sessions, reads, leases and snapshots (shared with
    /// classic Raft); the fields below are Fast Raft's own.
    core: ReplicaCore<FastRaftMessage, PendingProposal>,
    timers: TimerProfile,
    rng: SimRng,

    // ---- volatile ----
    election_votes: BTreeSet<NodeId>,
    /// Self-approved entries shipped by granters during the election.
    recovery_votes: Vec<(NodeId, Vec<(LogIndex, LogEntry)>)>,
    /// Highest index verified to match the current leader (follower side).
    verified: LogIndex,

    // ---- leader volatile ----
    possible: PossibleEntries,
    next_index: BTreeMap<NodeId, LogIndex>,
    match_index: BTreeMap<NodeId, LogIndex>,
    fast_match: BTreeMap<NodeId, LogIndex>,
    last_leader_index: LogIndex,
    learners: BTreeSet<NodeId>,
    missed_beats: BTreeMap<NodeId, u32>,
    pending_config: Option<LogIndex>,
    /// The site awaiting a JoinReply once `pending_config` commits.
    pending_join_notify: Option<NodeId>,
    reconfig_queue: VecDeque<ReconfigOp>,
    stalled_ticks: u32,
    /// Highest index already repaired proactively (from an append ack), so
    /// one stall triggers at most one proactive no-op broadcast.
    last_proactive_repair: LogIndex,

    // ---- joiner ----
    /// Contact sites while not yet a configuration member.
    join_contacts: Option<Vec<NodeId>>,
    /// Consecutive elections that drew no response at all — the signature
    /// of having been silently evicted while away (§IV-D: such a site
    /// "will need to send a join request to return to the configuration").
    silent_elections: u32,

    // ---- bookkeeping ----
    proposal_mode: ProposalMode,
    /// Next index handed to a leader-forwarded proposal (grows past
    /// gate-pending assignments).
    assign_cursor: LogIndex,
    pending_gates: HashMap<GateToken, GateCont>,
    /// Indices with an outstanding decision-insert gate.
    gated_decisions: BTreeSet<LogIndex>,
    acks: HashMap<u64, AckState>,
    next_ack_id: u64,
}

impl FastRaftEngine {
    /// Creates a member node with a bootstrap configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bootstrap` is empty or omits `id`, or on invalid timing.
    pub fn new(
        id: NodeId,
        bootstrap: Configuration,
        scope: LogScope,
        timers: TimerProfile,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        timing.validate();
        assert!(!bootstrap.is_empty(), "bootstrap configuration is empty");
        assert!(bootstrap.contains(id), "node {id} not in bootstrap");
        Self::construct(id, bootstrap, None, scope, timers, timing, rng)
    }

    /// Creates a node that is **not yet a member**: it will send join
    /// requests to `contacts` until accepted (§IV-D).
    ///
    /// # Panics
    ///
    /// Panics if `contacts` is empty or on invalid timing.
    pub fn joining(
        id: NodeId,
        contacts: Vec<NodeId>,
        scope: LogScope,
        timers: TimerProfile,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        timing.validate();
        assert!(!contacts.is_empty(), "joining node needs contact sites");
        Self::construct(
            id,
            Configuration::empty(),
            Some(contacts),
            scope,
            timers,
            timing,
            rng,
        )
    }

    fn construct(
        id: NodeId,
        config: Configuration,
        join_contacts: Option<Vec<NodeId>>,
        scope: LogScope,
        timers: TimerProfile,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        FastRaftEngine {
            core: ReplicaCore::new(id, scope, config, timing),
            timers,
            rng,
            election_votes: BTreeSet::new(),
            recovery_votes: Vec::new(),
            verified: LogIndex::ZERO,
            possible: PossibleEntries::new(),
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
            fast_match: BTreeMap::new(),
            last_leader_index: LogIndex::ZERO,
            learners: BTreeSet::new(),
            missed_beats: BTreeMap::new(),
            pending_config: None,
            pending_join_notify: None,
            reconfig_queue: VecDeque::new(),
            stalled_ticks: 0,
            last_proactive_repair: LogIndex::ZERO,
            join_contacts,
            silent_elections: 0,
            proposal_mode: ProposalMode::default(),
            assign_cursor: LogIndex::ZERO,
            pending_gates: HashMap::new(),
            gated_decisions: BTreeSet::new(),
            acks: HashMap::new(),
            next_ack_id: 0,
        }
    }

    /// Rebuilds an engine from persisted state after a crash: snapshot (if
    /// any) + retained log suffix. The commit index resumes at the
    /// compaction horizon — everything the snapshot covers is known
    /// committed and already applied. The configuration is taken from the
    /// log's latest config entry, falling back to the snapshot's, then
    /// `bootstrap`.
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        id: NodeId,
        term: Term,
        voted_for: Option<NodeId>,
        log: wire::SparseLog,
        snapshot: Option<Snapshot>,
        bootstrap: Configuration,
        scope: LogScope,
        timers: TimerProfile,
        timing: Timing,
        rng: SimRng,
        proposal_seq_floor: u64,
    ) -> Self {
        let mut e = Self::construct(id, bootstrap, None, scope, timers, timing, rng);
        e.core
            .restore(term, voted_for, log, snapshot, proposal_seq_floor);
        e.verified = e.core.commit_index;
        e.last_leader_index = e
            .core
            .log
            .last_leader_index()
            .max(e.core.log.compacted_through());
        if !e.core.config.contains(id) && !e.core.config.is_empty() {
            // Removed while down: must rejoin explicitly.
            e.join_contacts = Some(e.core.config.to_vec());
        }
        e
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.core.id
    }

    /// Stamps this engine's view of "now" (an input like any message; see
    /// [`wire::ConsensusProtocol::set_local_clock`]). Never stamping it
    /// leaves the engine clockless and every lease path inert.
    pub fn set_local_clock(&mut self, now: SimTime) {
        self.core.local_now = now;
    }

    /// Current role at this level.
    pub fn role(&self) -> Role {
        self.core.role
    }

    /// `true` while this node leads its configuration.
    pub fn is_leader(&self) -> bool {
        self.core.role == Role::Leader
    }

    /// Current term at this level.
    pub fn current_term(&self) -> Term {
        self.core.current_term
    }

    /// Highest committed index.
    pub fn commit_index(&self) -> LogIndex {
        self.core.commit_index
    }

    /// The highest index applied to the state machine. Equal to
    /// [`FastRaftEngine::commit_index`] except transiently under
    /// [`Timing::pipelined_apply`], between commit and the drain stage.
    pub fn applied_index(&self) -> LogIndex {
        self.core.applied_index
    }

    /// The log at this level.
    pub fn log(&self) -> &wire::SparseLog {
        &self.core.log
    }

    /// The latest snapshot covering the compacted prefix, if any.
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.core.snapshot.as_ref()
    }

    /// Running digest of the committed sequence (the simulated state
    /// machine's state).
    pub fn state_digest(&self) -> u64 {
        self.core.state_digest
    }

    /// The configuration currently obeyed.
    pub fn config(&self) -> &Configuration {
        &self.core.config
    }

    /// The believed leader.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.core.leader_hint
    }

    /// Highest leader-approved index (§IV-A `lastLeaderIndex`).
    pub fn last_leader_index(&self) -> LogIndex {
        self.last_leader_index
    }

    /// Proposals issued here and not yet known committed.
    pub fn pending_proposals(&self) -> usize {
        self.core.proposals.len()
    }

    /// Inserts currently parked behind the [`InsertGate`]: continuations
    /// awaiting a `gate_ready` call. Zero for ungated (plain Fast Raft)
    /// engines. Liveness oracles assert this drains to zero at quiescence.
    pub fn pending_gate_count(&self) -> usize {
        self.pending_gates.len()
    }

    /// Indices holding an outstanding decision-insert reservation. Each
    /// reservation blocks `leader_log_settled()` (and with it reconfig,
    /// term no-ops, read nudges, and forwarded-proposal acceptance) until
    /// its gate resolves — so a reservation that outlives every pending
    /// gate is a permanent liveness wedge, and oracles assert
    /// `gated_decision_count() == 0` whenever `pending_gate_count() == 0`.
    pub fn gated_decision_count(&self) -> usize {
        self.gated_decisions.len()
    }

    /// The per-session exactly-once dedup table (applied state).
    pub fn sessions(&self) -> &SessionTable {
        &self.core.sessions
    }

    /// `true` while this node is still negotiating membership.
    pub fn is_joining(&self) -> bool {
        self.join_contacts.is_some()
    }

    /// The consensus scope this engine operates on.
    pub fn scope(&self) -> LogScope {
        self.core.scope
    }

    /// Selects how proposals reach the log (default:
    /// [`ProposalMode::Broadcast`], the paper's fast track).
    pub fn set_proposal_mode(&mut self, mode: ProposalMode) {
        self.proposal_mode = mode;
    }

    /// The current proposal mode.
    pub fn proposal_mode(&self) -> ProposalMode {
        self.proposal_mode
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Arms initial timers; joiners start their join handshake instead.
    pub fn bootstrap(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.join_contacts.is_some() {
            self.send_join_request(out);
        } else {
            self.reset_election_timer(out);
        }
    }

    /// Announces departure (§IV-D): ask the leader to reconfigure us out.
    pub fn request_leave(&mut self, out: &mut Actions<FastRaftMessage>) {
        let msg = FastRaftMessage::LeaveRequest { node: self.core.id };
        if let Some(leader) = self.core.leader_hint {
            out.send(leader, msg);
        } else {
            let peers: Vec<NodeId> = self.core.config.peers(self.core.id).collect();
            out.send_many(peers, msg);
        }
    }

    fn send_join_request(&mut self, out: &mut Actions<FastRaftMessage>) {
        let Some(contacts) = &self.join_contacts else {
            return;
        };
        let msg = FastRaftMessage::JoinRequest { node: self.core.id };
        // Ask the hinted leader, but keep probing every contact too: the
        // hint may name a crashed leader (exactly the churn that made us
        // rejoin), and a stale hint must not wedge the join forever — a
        // current member redirects us to the live leader.
        let mut targets: Vec<NodeId> = contacts.clone();
        if let Some(leader) = self.core.leader_hint {
            if !targets.contains(&leader) {
                targets.push(leader);
            }
        }
        out.send_many(targets, msg);
        out.set_timer(
            self.timers.map(TimerKind::JoinRetry),
            self.core.timing.join_timeout,
        );
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Handles a timer expressed in **base** kinds (the embedding unmaps
    /// profile-specific kinds first; [`TimerProfile::unmap`]).
    pub fn on_timer(
        &mut self,
        base: TimerKind,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        match base {
            TimerKind::Election
                if self.core.role != Role::Leader && self.join_contacts.is_none() =>
            {
                self.start_election(out);
            }
            TimerKind::Heartbeat if self.core.role == Role::Leader => {
                self.note_missed_beats(out);
                self.dispatch_append_entries(out);
                out.set_timer(
                    self.timers.map(TimerKind::Heartbeat),
                    self.core.timing.heartbeat,
                );
            }
            TimerKind::LeaderTick if self.core.role == Role::Leader => {
                self.run_decision_loop(gate, out);
                self.maybe_fill_hole(out);
                self.start_next_reconfig(out);
                out.set_timer(
                    self.timers.map(TimerKind::LeaderTick),
                    self.core.timing.decision_tick,
                );
            }
            TimerKind::ProposalRetry => self.retry_proposals(out),
            TimerKind::JoinRetry
                if self.join_contacts.is_some() => {
                    self.send_join_request(out);
                }
            _ => {}
        }
    }

    fn reset_election_timer(&mut self, out: &mut Actions<FastRaftMessage>) {
        let timeout = self.core.timing.election_timeout(&mut self.rng);
        out.set_timer(self.timers.map(TimerKind::Election), timeout);
    }

    // ------------------------------------------------------------------
    // Proposing (§IV-B "To propose an entry")
    // ------------------------------------------------------------------

    /// Issues a proposal for `payload` from this site, broadcasting it to
    /// all configuration members. Returns the proposal id.
    pub fn propose_payload(
        &mut self,
        payload: Payload,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) -> EntryId {
        let id = self.core.fresh_id(out);
        match self.proposal_mode {
            ProposalMode::Broadcast => {
                let index = self.pick_proposal_index();
                self.core.proposals.insert(
                    id,
                    PendingProposal {
                        payload: payload.clone(),
                        index,
                    },
                );
                self.broadcast_proposal(id, payload, index, gate, out);
            }
            ProposalMode::LeaderForward => {
                self.core.proposals.insert(
                    id,
                    PendingProposal {
                        payload: payload.clone(),
                        index: LogIndex::ZERO,
                    },
                );
                self.forward_proposal(id, payload, gate, out);
            }
        }
        out.set_timer(
            self.timers.map(TimerKind::ProposalRetry),
            self.core.timing.proposal_timeout,
        );
        id
    }

    /// Sends a leader-forwarded proposal (index ZERO = "leader assigns").
    fn forward_proposal(
        &mut self,
        id: EntryId,
        payload: Payload,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let entry = LogEntry {
            term: self.core.current_term,
            id,
            payload,
            approval: Approval::SelfApproved,
        };
        if self.core.role == Role::Leader {
            self.leader_accept_forwarded(entry, gate, out);
        } else if let Some(leader) = self.core.leader_hint {
            out.send(
                leader,
                FastRaftMessage::ProposeAt {
                    index: LogIndex::ZERO,
                    entry,
                },
            );
        } else {
            let peers: Vec<NodeId> = self.core.config.peers(self.core.id).collect();
            out.send_many(
                peers,
                FastRaftMessage::ProposeAt {
                    index: LogIndex::ZERO,
                    entry,
                },
            );
        }
    }

    /// Leader side of a forwarded proposal: assign the next index and run
    /// the (possibly gated) classic-track insert.
    fn leader_accept_forwarded(
        &mut self,
        entry: LogEntry,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // Session dedup at the door: a `(session, seq)` the applied state
        // already covers must not claim another slot — this is the check
        // that survives compaction and leader restarts (the table rides in
        // the snapshot, unlike the in-log id mappings below).
        if self.reject_session_duplicate(&entry, out) {
            return;
        }
        // Dedup: retries of ids already in the log are ignored (commit
        // notification flows from emit_commit_effects).
        if let Some(&idx) = self.core.id_index.get(&entry.id) {
            if idx <= self.core.commit_index {
                out.send(
                    entry.id.proposer,
                    FastRaftMessage::ProposeReply {
                        id: entry.id,
                        committed: true,
                        leader_hint: Some(self.core.id),
                    },
                );
            }
            return;
        }
        // Expired-session refusal — strictly *after* the in-flight dedup
        // above (a pair already replicating must never be told "placed
        // nowhere"), and only once this leader's applied table provably
        // covers every commit: a fresh leader's table merely lags until an
        // entry of its own term commits, so "expired" can be a false
        // positive for a live session whose writes are committed but not
        // yet applied here. Refusing terminally then would have the client
        // reopen a session and resubmit while the surviving placement
        // applies — a double apply. A not-yet-current leader instead falls
        // through and *places* the op: the placement is itself the
        // own-term entry that makes the leader current (answering Retry
        // here would livelock on a quiescent leader — nothing else ever
        // commits an own-term entry, see `register_read`'s nudge), and the
        // authoritative apply-time check below answers exactly once it
        // commits. Once current, the refusal is exact and terminal (any
        // same-pair placement still in the log under another proposal id
        // is skipped by the same apply-time check).
        if self.core.timing.session_ttl > 0 && self.core.applied_session_state_current() {
            if let Some((session, seq)) = entry.payload.session_key() {
                if self.core.sessions.is_expired_retry(session, seq) {
                    self.core.respond_client(
                        entry.id.proposer,
                        session,
                        seq,
                        ClientOutcome::SessionExpired,
                        out,
                    );
                    return;
                }
            }
        }
        if !self.leader_log_settled() && self.assign_cursor <= self.last_leader_index {
            // A fresh leader with an undecided backlog must not hand out
            // slots yet; the proposer retries after its timeout.
            return;
        }
        self.assign_cursor = self.assign_cursor.max(self.last_leader_index).next();
        let k = self.assign_cursor;
        let chosen = entry
            .with_term(self.core.current_term)
            .with_approval(Approval::LeaderApproved);
        match gate.begin(k, &chosen, GatePurpose::DecisionInsert) {
            GateVerdict::Proceed => {
                self.insert_leader_entry(k, chosen, out);
                self.advance_commit_classic(out);
            }
            GateVerdict::Defer(token) => {
                // Mark the id as assigned so duplicate retries don't claim
                // another slot while the gate replicates, and reserve the
                // slot: without the reservation `leader_log_settled()`
                // stays true while this insert is pending, letting the
                // read nudge or a reconfig claim the same `k` — two
                // same-term entries racing for one index, and whichever
                // releases second silently overwrites the (possibly
                // already replicated) first. The reservation drains in
                // `gate_ready`'s LeaderAppend arm.
                self.core.id_index.insert(chosen.id, k);
                self.gated_decisions.insert(k);
                self.pending_gates
                    .insert(token, GateCont::LeaderAppend { index: k, entry: chosen });
            }
        }
    }

    /// If `entry` carries a session-tagged payload whose `(session, seq)`
    /// this site's applied state already covers, notifies the proposer
    /// appropriately and returns `true` (the entry must not be (re)placed).
    fn reject_session_duplicate(
        &mut self,
        entry: &LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) -> bool {
        let Some((session, seq)) = entry.payload.session_key() else {
            return false;
        };
        if self
            .core
            .answer_applied(entry.id.proposer, session, seq, false, out)
        {
            return true;
        }
        // Deliberately NO expired-session refusal here: this runs on the
        // any-replica broadcast insert path (`on_propose_at`), where one
        // *lagging* replica's table must not veto an op the rest of the
        // quorum is placing. Expiry is enforced where it is exact — the
        // single-door checks (`client_write`, `leader_accept_forwarded`),
        // gated on `applied_session_state_current`, and authoritatively at
        // apply time (`emit_commit_effects`).
        false
    }

    /// Registers an externally recovered proposal for retry tracking
    /// without re-broadcasting it now. Used by C-Raft when a new local
    /// leader inherits batches its predecessor proposed globally but whose
    /// commitment is unknown (§V-B): the proposal-retry timer re-broadcasts
    /// them under the original id, so duplicates are suppressed.
    pub fn track_pending_proposal(
        &mut self,
        id: EntryId,
        payload: Payload,
        index: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        self.core
            .proposals
            .insert(id, PendingProposal { payload, index });
        out.set_timer(
            self.timers.map(TimerKind::ProposalRetry),
            self.core.timing.proposal_timeout,
        );
    }

    /// Convenience wrapper for data payloads.
    pub fn propose_data(
        &mut self,
        data: Bytes,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) -> EntryId {
        self.propose_payload(Payload::Data(data), gate, out)
    }

    // ------------------------------------------------------------------
    // The typed client surface (sessions, exactly-once writes, reads)
    // ------------------------------------------------------------------

    /// Submits a typed client request at this node (the gateway). Writes
    /// ride the normal proposal machinery as `Payload::Write` and are
    /// answered when the gateway applies their commit; reads are answered
    /// from the commit floor (stale) or after a leader ReadIndex round
    /// (linearizable). All answers surface as
    /// [`Observation::ClientResponse`].
    pub fn on_client_request(
        &mut self,
        req: ClientRequest,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let ClientRequest { session, seq, op } = req;
        match op {
            ClientOp::Write(data) => self.client_write(session, seq, data, gate, out),
            ClientOp::Register => self.client_register(session, gate, out),
            ClientOp::Read(consistency) => self.client_read(session, seq, consistency, gate, out),
        }
    }

    /// Explicit session registration: a committed [`Payload::Register`]
    /// consumes seq 1 of the session, so a later eviction can never leave a
    /// re-appliable *data* write at the session's boundary (see
    /// [`ClientOp::Register`]). Unlike classic Raft's leader-only door,
    /// the registration entry travels the normal proposal path
    /// ([`FastRaftMessage::ProposeAt`] forwards whole entries), so any
    /// gateway can register.
    fn client_register(
        &mut self,
        session: SessionId,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let session = self.core.registered_session(session);
        if self
            .core
            .answer_applied(self.core.id, session, 1, true, out)
        {
            return;
        }
        if let Some(id) = self.core.client_writes.get(&(session, 1)) {
            if self.core.proposals.contains_key(id) {
                out.set_timer(
                    self.timers.map(TimerKind::ProposalRetry),
                    self.core.timing.proposal_timeout,
                );
                return;
            }
        }
        // No expired-retry door: re-registering an evicted session is
        // harmless by construction — the registration carries no value, so
        // re-applying it merely re-opens an empty dedup window.
        self.core
            .client_ops
            .insert((session, 1), ClientOp::Register);
        let id = self.propose_payload(Payload::Register { session }, gate, out);
        self.core.client_writes.insert((session, 1), id);
    }

    fn client_write(
        &mut self,
        session: SessionId,
        seq: u64,
        data: Bytes,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // Applied already? Answer without proposing (retry-safe).
        if self
            .core
            .answer_applied(self.core.id, session, seq, false, out)
        {
            return;
        }
        if let Some(id) = self.core.client_writes.get(&(session, seq)) {
            if self.core.proposals.contains_key(id) {
                // Already in flight: the proposal-retry machinery keeps
                // pushing it; just make sure the timer is armed.
                out.set_timer(
                    self.timers.map(TimerKind::ProposalRetry),
                    self.core.timing.proposal_timeout,
                );
                return;
            }
        }
        if self.core.refuses_expired_write(session, seq, out) {
            return;
        }
        self.core
            .client_ops
            .insert((session, seq), ClientOp::Write(data.clone()));
        let id = self.propose_payload(Payload::Write { session, seq, data }, gate, out);
        self.core.client_writes.insert((session, seq), id);
    }

    fn client_read(
        &mut self,
        session: SessionId,
        seq: u64,
        consistency: Consistency,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        match consistency {
            // A single engine has one log: its local floor *is* the global
            // floor at its scope, so both stale consistencies answer from
            // `commit_index` immediately. (The C-Raft layer intercepts
            // StaleGlobal above this point and answers from its
            // global-commit floor instead.)
            Consistency::StaleLocal | Consistency::StaleGlobal => {
                // Served from this site's floor, no coordination.
                out.observe(Observation::ClientResponse {
                    session,
                    seq,
                    outcome: ClientOutcome::ReadOk {
                        scope: self.core.scope,
                        commit_floor: self.core.commit_index,
                    },
                });
            }
            Consistency::Linearizable => {
                if self.core.role == Role::Leader {
                    self.core
                        .client_ops
                        .insert((session, seq), ClientOp::Read(consistency));
                    self.register_read(session, seq, self.core.id, gate, out);
                } else if let Some(leader) = self.core.leader_hint {
                    self.core
                        .client_ops
                        .insert((session, seq), ClientOp::Read(consistency));
                    out.send(leader, FastRaftMessage::ClientRead { session, seq });
                } else {
                    // No leader known (election in progress): retry later.
                    out.observe(Observation::ClientResponse {
                        session,
                        seq,
                        outcome: ClientOutcome::Retry,
                    });
                }
            }
        }
    }

    /// Leader side of a linearizable read: capture the commit floor, then
    /// confirm leadership with a heartbeat round before answering.
    fn register_read(
        &mut self,
        session: SessionId,
        seq: u64,
        reply_to: NodeId,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        debug_assert_eq!(self.core.role, Role::Leader);
        // A fresh leader's commit floor may lag entries committed by its
        // predecessor until an entry of its own term commits (Raft §8):
        // until then the floor must not be served. Exception: a provably
        // empty history serves the trivially correct floor 0 — otherwise an
        // empty system could never answer its first read. "Provably empty"
        // means neither this leader's log nor any granted vote's recovered
        // entries contain anything: a fast quorum that chose an entry
        // intersects every classic quorum in a voter that would have
        // shipped it, so emptiness here implies no write ever completed.
        let provably_empty = self.core.commit_index.is_zero()
            && self.last_leader_index.is_zero()
            && self.core.log.is_empty()
            && self.possible.max_index().is_zero();
        if !provably_empty
            && self.core.log.term_at(self.core.commit_index) != self.core.current_term
        {
            self.core
                .respond_client(reply_to, session, seq, ClientOutcome::Retry, out);
            // Liveness nudge: a *quiescent* new leader — everything
            // inherited already committed — never runs `maybe_term_noop`
            // (that path only fires while commits lag), so without client
            // writes no current-term entry would ever commit and reads
            // would retry forever. Create the no-op on demand, only when a
            // read actually needs it, so write-only runs keep their exact
            // index layout.
            if self.core.commit_index >= self.last_leader_index && self.leader_log_settled() {
                let k = self.last_leader_index.next();
                let noop = LogEntry::noop(self.core.current_term, self.core.fresh_id(out));
                match gate.begin(k, &noop, GatePurpose::DecisionInsert) {
                    GateVerdict::Proceed => {
                        self.insert_leader_entry(k, noop, out);
                        self.advance_commit_classic(out);
                        self.dispatch_append_entries(out);
                    }
                    GateVerdict::Defer(token) => {
                        // Park as a Decision continuation: its gate_ready
                        // arm releases the `gated_decisions` reservation,
                        // so a gated (C-Raft global) nudge cannot wedge
                        // `leader_log_settled()`.
                        self.gated_decisions.insert(k);
                        self.pending_gates
                            .insert(token, GateCont::Decision { index: k, entry: noop });
                    }
                }
            }
            return;
        }
        // Lease read, or a ReadIndex round confirmed now rather than after
        // the heartbeat period. At the C-Raft global level the lease is the
        // recursive one: the granters are the other clusters' leaders.
        if self.core.admit_read(session, seq, reply_to, out) {
            self.dispatch_append_entries(out);
        }
    }

    fn pick_proposal_index(&self) -> LogIndex {
        // Past everything this site has seen proposed or stored.
        self.core
            .log
            .last_index()
            .max(self.core.commit_index)
            .next()
    }

    fn broadcast_proposal(
        &mut self,
        id: EntryId,
        payload: Payload,
        index: LogIndex,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let entry = LogEntry {
            term: self.core.current_term,
            id,
            payload,
            approval: Approval::SelfApproved,
        };
        let peers: Vec<NodeId> = self.core.config.peers(self.core.id).collect();
        out.send_many(
            peers,
            FastRaftMessage::ProposeAt {
                index,
                entry: entry.clone(),
            },
        );
        // The proposer is itself a site: run the follower insert+vote path
        // locally.
        self.on_propose_at(self.core.id, index, entry, gate, out);
    }

    /// Event-driven re-targeting: when the log commits past a pending
    /// proposal's target index with a *different* entry, the proposal lost
    /// that slot — re-broadcast it at a fresh index immediately rather than
    /// waiting for the proposal timeout. Keeps throughput stable under
    /// concurrent proposers (§IV-F's contention scenario).
    fn retarget_lost_proposals(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.core.proposals.is_empty() {
            return;
        }
        let lost: Vec<(EntryId, Payload)> = self
            .core
            .proposals
            .iter()
            .filter(|(id, p)| {
                !p.index.is_zero()
                    && p.index <= self.core.commit_index
                    && self.core.log.get(p.index).is_none_or(|e| e.id != **id)
            })
            .map(|(id, p)| (*id, p.payload.clone()))
            .collect();
        for (id, payload) in lost {
            let index = self.pick_proposal_index();
            if let Some(p) = self.core.proposals.get_mut(&id) {
                p.index = index;
            }
            let entry = LogEntry {
                term: self.core.current_term,
                id,
                payload,
                approval: Approval::SelfApproved,
            };
            let peers: Vec<NodeId> = self.core.config.peers(self.core.id).collect();
            out.send_many(
                peers,
                FastRaftMessage::ProposeAt {
                    index,
                    entry: entry.clone(),
                },
            );
            if self.core.log.get(index).is_none() {
                let mut proceed = crate::gate::ProceedGate;
                self.on_propose_at(self.core.id, index, entry, &mut proceed, out);
            } else {
                self.send_vote_for_slot(index, out);
            }
        }
    }

    fn retry_proposals(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.core.proposals.is_empty() {
            return;
        }
        if self.proposal_mode == ProposalMode::LeaderForward {
            let pendings: Vec<(EntryId, Payload)> = self
                .core
                .proposals
                .iter()
                .map(|(id, p)| (*id, p.payload.clone()))
                .collect();
            for (id, payload) in pendings {
                let mut proceed = crate::gate::ProceedGate;
                self.forward_proposal(id, payload, &mut proceed, out);
            }
            out.set_timer(
                self.timers.map(TimerKind::ProposalRetry),
                self.core.timing.proposal_timeout,
            );
            return;
        }
        let pendings: Vec<(EntryId, Payload, LogIndex)> = self
            .core
            .proposals
            .iter()
            .map(|(id, p)| (*id, p.payload.clone(), p.index))
            .collect();
        for (id, payload, old_index) in pendings {
            // If our entry still occupies its slot, re-gather votes for the
            // same index; if it was overwritten, re-target a fresh index.
            let keep = self.core.log.get(old_index).is_some_and(|e| e.id == id);
            let index = if keep {
                old_index
            } else {
                self.pick_proposal_index()
            };
            if let Some(p) = self.core.proposals.get_mut(&id) {
                p.index = index;
            }
            let entry = LogEntry {
                term: self.core.current_term,
                id,
                payload,
                approval: Approval::SelfApproved,
            };
            let peers: Vec<NodeId> = self.core.config.peers(self.core.id).collect();
            out.send_many(
                peers,
                FastRaftMessage::ProposeAt {
                    index,
                    entry: entry.clone(),
                },
            );
            // Re-vote locally as well (ungated: slot content already gated
            // when first inserted; occupied slots vote without insert).
            if self.core.log.get(index).is_none() {
                // Rare: our slot was truncated. Reinsert through the normal
                // path; a no-op gate race here simply re-runs the gate.
                let mut proceed = crate::gate::ProceedGate;
                self.on_propose_at(self.core.id, index, entry, &mut proceed, out);
            } else {
                self.send_vote_for_slot(index, out);
            }
        }
        out.set_timer(
            self.timers.map(TimerKind::ProposalRetry),
            self.core.timing.proposal_timeout,
        );
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Handles one incoming message.
    pub fn on_message(
        &mut self,
        from: NodeId,
        msg: FastRaftMessage,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // Configuration filter (§III-A): consensus messages from sites
        // outside the configuration are ignored. Exceptions: client-level
        // traffic, and everything while we are not ourselves a member yet
        // (joiners must accept catch-up AppendEntries).
        let exempt = msg.is_client_traffic() || !self.core.config.contains(self.core.id);
        if !exempt && !self.core.config.contains(from) && !self.learners.contains(&from) {
            out.observe(Observation::MessageIgnored {
                reason: "sender not in configuration",
            });
            return;
        }
        // Any message from a live member clears its missed-beat counter.
        self.missed_beats.remove(&from);

        match msg {
            FastRaftMessage::ProposeAt { index, entry } => {
                self.on_propose_at(from, index, entry, gate, out)
            }
            FastRaftMessage::Vote {
                index,
                entry,
                commit_index,
            } => self.on_vote(from, index, entry, commit_index, out),
            FastRaftMessage::ProposeReply {
                id,
                committed,
                leader_hint,
            } => {
                if let Some(hint) = leader_hint {
                    self.core.leader_hint = Some(hint);
                }
                if committed && self.core.proposals.remove(&id).is_some() {
                    out.observe(Observation::ProposalCommitted {
                        id,
                        index: LogIndex::ZERO,
                        scope: self.core.scope,
                    });
                }
            }
            FastRaftMessage::AppendEntries {
                term,
                leader,
                prev_index,
                entries,
                leader_commit,
                global_commit: _,
                probe,
            } => self.on_append_entries(
                from,
                term,
                leader,
                prev_index,
                entries,
                leader_commit,
                probe,
                gate,
                out,
            ),
            FastRaftMessage::AppendEntriesReply {
                term,
                success,
                match_index,
                probe,
                lease_until,
            } => self.on_append_reply(from, term, success, match_index, probe, lease_until, out),
            FastRaftMessage::ClientRead { session, seq } => {
                if self.core.role == Role::Leader {
                    self.register_read(session, seq, from, gate, out);
                } else {
                    self.core.redirect(from, session, seq, out);
                }
            }
            FastRaftMessage::ClientReply {
                session,
                seq,
                outcome,
            } => self.core.on_client_reply(session, seq, outcome, out),
            FastRaftMessage::RequestVote {
                term,
                candidate,
                last_leader_index,
                last_leader_term,
            } => self.on_request_vote(from, term, candidate, last_leader_index, last_leader_term, out),
            FastRaftMessage::RequestVoteReply {
                term,
                granted,
                self_approved,
            } => self.on_vote_reply(from, term, granted, self_approved, gate, out),
            FastRaftMessage::JoinRequest { node } => self.on_join_request(from, node, out),
            FastRaftMessage::JoinReply {
                accepted,
                leader_hint,
            } => {
                if let Some(hint) = leader_hint {
                    self.core.leader_hint = Some(hint);
                }
                if accepted && self.core.config.contains(self.core.id) {
                    self.finish_joining(out);
                } else if !accepted && self.join_contacts.is_some() {
                    // Redirect noted; retry goes to the hinted leader.
                }
            }
            FastRaftMessage::LeaveRequest { node } => self.on_leave_request(node, out),
            FastRaftMessage::InstallSnapshot {
                term,
                leader,
                snapshot,
            } => self.on_install_snapshot(from, term, leader, snapshot, out),
            FastRaftMessage::InstallSnapshotReply { term, last_index } => {
                self.on_install_snapshot_reply(from, term, last_index, out)
            }
        }
    }

    /// Completes a previously deferred insert (C-Raft: the global state
    /// entry committed locally).
    pub fn gate_ready(
        &mut self,
        token: GateToken,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let Some(cont) = self.pending_gates.remove(&token) else {
            return;
        };
        match cont {
            GateCont::ProposerVote { index, entry } => {
                self.finish_proposer_insert(index, entry, out);
            }
            GateCont::Decision { index, entry } => {
                self.gated_decisions.remove(&index);
                let committed = self.finish_decision_insert(index, entry, out);
                if committed {
                    // Commit advanced: the loop may continue.
                    self.run_decision_loop(gate, out);
                }
            }
            GateCont::LeaderAppend { index, entry } => {
                // The reservation drains whether or not the insert applies:
                // leaving it would hold `leader_log_settled()` false forever,
                // wedging reconfig, term no-ops, read nudges and (under
                // LeaderForward) every forwarded proposal. A continuation
                // from a superseded term must not insert — the slot may
                // since hold (even have committed) a newer leader's entry.
                self.gated_decisions.remove(&index);
                if self.core.role == Role::Leader && entry.term == self.core.current_term {
                    self.insert_leader_entry(index, entry, out);
                    self.advance_commit_classic(out);
                }
            }
            GateCont::Append { index, entry, ack } => {
                // A continuation from a superseded term must not apply: the
                // slot may since hold (even have committed) a newer leader's
                // entry. The batch's AckState records the term it was
                // verified under; skip the insert when it is stale and let
                // finish_append_ack drop the ack for the same reason.
                let (stale, done) = {
                    let st = self.acks.get_mut(&ack).expect("ack state");
                    st.remaining -= 1;
                    (st.term != self.core.current_term, st.remaining == 0)
                };
                if !stale {
                    self.apply_append_insert(index, entry, out);
                }
                if done {
                    let st = self.acks.remove(&ack).expect("ack state");
                    self.finish_append_ack(st, out);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fast track: proposer broadcasts and votes
    // ------------------------------------------------------------------

    /// §IV-B "When follower receives a proposed entry e for index i".
    fn on_propose_at(
        &mut self,
        _from: NodeId,
        index: LogIndex,
        entry: LogEntry,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // Index ZERO marks a leader-forwarded proposal: the leader assigns
        // the slot; non-leaders redirect.
        if index.is_zero() {
            if self.core.role == Role::Leader {
                self.leader_accept_forwarded(entry, gate, out);
            } else {
                out.send(
                    entry.id.proposer,
                    FastRaftMessage::ProposeReply {
                        id: entry.id,
                        committed: false,
                        leader_hint: self.core.leader_hint,
                    },
                );
            }
            return;
        }
        // Session dedup: a `(session, seq)` this site already applied is
        // answered instead of re-inserted — unlike the id mapping below,
        // the session table survives compaction and restarts.
        if self.reject_session_duplicate(&entry, out) {
            return;
        }
        // Duplicate already committed? Notify the proposer (§IV-B step 1).
        // A mapping at or below the compaction horizon refers to an entry
        // whose slot was compacted away; it is committed by definition.
        if let Some(&idx) = self.core.id_index.get(&entry.id) {
            let committed = idx <= self.core.log.compacted_through()
                || (idx <= self.core.commit_index
                    && self.core.log.get(idx).is_some_and(|e| e.id == entry.id));
            if committed {
                out.send(
                    entry.id.proposer,
                    FastRaftMessage::ProposeReply {
                        id: entry.id,
                        committed: true,
                        leader_hint: self.core.leader_hint,
                    },
                );
                return;
            }
        }
        if index <= self.core.log.compacted_through() {
            // The slot was decided and compacted away; nothing to insert or
            // vote for. A losing proposal re-targets from its retry path.
            return;
        }
        if index.as_u64()
            > self
                .core
                .log
                .last_index()
                .as_u64()
                .max(self.core.commit_index.as_u64())
                + MAX_INSERT_WINDOW
        {
            out.observe(Observation::MessageIgnored {
                reason: "proposed index beyond the insert window",
            });
            return;
        }
        if self.core.log.get(index).is_none() {
            let e = entry.with_approval(Approval::SelfApproved);
            match gate.begin(index, &e, GatePurpose::ProposerInsert) {
                GateVerdict::Proceed => self.finish_proposer_insert(index, e, out),
                GateVerdict::Defer(token) => {
                    self.pending_gates
                        .insert(token, GateCont::ProposerVote { index, entry: e });
                }
            }
        } else {
            // Slot occupied: do not overwrite (§IV-B step 2); vote for the
            // occupant.
            self.send_vote_for_slot(index, out);
        }
    }

    fn finish_proposer_insert(
        &mut self,
        index: LogIndex,
        entry: LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if index <= self.core.log.compacted_through() {
            // The slot was decided and compacted while the insert was gated.
            return;
        }
        if self.core.log.get(index).is_some() {
            // Raced with an AppendEntries insert while gated; vote for the
            // now-present occupant instead.
            self.send_vote_for_slot(index, out);
            return;
        }
        self.core.id_index.insert(entry.id, index);
        out.persist(PersistCmd::Insert {
            scope: self.core.scope,
            index,
            entry: entry.clone(),
        });
        self.core.log.insert(index, entry);
        self.send_vote_for_slot(index, out);
    }

    /// §IV-B step 4: "Send log\[i\] and commitIndex to leaderId".
    fn send_vote_for_slot(&mut self, index: LogIndex, out: &mut Actions<FastRaftMessage>) {
        let Some(entry) = self.core.log.get(index).cloned() else {
            return;
        };
        if self.core.role == Role::Leader {
            // The leader is treated as a follower here (§IV-B): its own
            // vote goes straight into possibleEntries.
            self.record_vote(self.core.id, index, entry, self.core.commit_index, out);
        } else if let Some(leader) = self.core.leader_hint {
            out.send(
                leader,
                FastRaftMessage::Vote {
                    index,
                    entry,
                    commit_index: self.core.commit_index,
                },
            );
        }
        // No known leader: the vote is re-sent when the proposer retries or
        // when a leader emerges and re-solicits via recovery.
    }

    /// §IV-B "When leader receives an entry e for index k from site i".
    fn on_vote(
        &mut self,
        from: NodeId,
        index: LogIndex,
        entry: LogEntry,
        voter_commit: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if self.core.role != Role::Leader {
            return;
        }
        self.record_vote(from, index, entry, voter_commit, out);
    }

    fn record_vote(
        &mut self,
        from: NodeId,
        index: LogIndex,
        entry: LogEntry,
        voter_commit: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // §IV-B step 2: nextIndex[i] tracks the voter's commit index so the
        // classic track keeps it consistent with the leader.
        if self.core.config.contains(from) || self.learners.contains(&from) {
            self.next_index.insert(from, voter_commit.next());
        }
        if index <= self.core.commit_index {
            // Slot already decided. If this vote names the committed entry,
            // tell its proposer; otherwise the proposal lost this slot and
            // its proposer will retry elsewhere.
            if self.core.log.get(index).is_some_and(|e| e.id == entry.id) {
                out.send(
                    entry.id.proposer,
                    FastRaftMessage::ProposeReply {
                        id: entry.id,
                        committed: true,
                        leader_hint: Some(self.core.id),
                    },
                );
            }
            return;
        }
        // A vote for an entry that is already committed at a *different*
        // index is a null vote (duplicate suppression).
        if let Some(&idx) = self.core.id_index.get(&entry.id) {
            if idx <= self.core.commit_index && idx != index {
                self.possible.record_null_vote(index, from);
                return;
            }
        }
        self.possible.record_vote(index, entry, from);
    }

    // ------------------------------------------------------------------
    // The decision loop (§IV-B "Periodically run by the leader")
    // ------------------------------------------------------------------

    /// `true` when no undecided index sits at or below the leader-approved
    /// top of the log: every recovered vote and broadcast proposal known to
    /// this leader has been decided, and no insert is gate-pending. Only
    /// then may the leader create an entry at `lastLeaderIndex + 1` itself
    /// (configuration changes, term no-ops, forwarded proposals) without
    /// risking stomping a chosen-but-not-yet-re-decided slot (§IV-C).
    fn leader_log_settled(&self) -> bool {
        self.possible.max_index() <= self.last_leader_index
            && self.core.log.last_index() <= self.last_leader_index
            && self.gated_decisions.is_empty()
    }

    /// The smallest index above the commit point not yet decided by a
    /// leader: the position the decision loop works on. Skips inherited
    /// leader-approved entries (fixed decisions the classic track commits).
    fn decision_point(&self) -> LogIndex {
        // One slice pass over the contiguous run above the commit point —
        // the run iterator stops at the first hole by construction, so only
        // the approval needs checking per slot.
        let mut k = self.core.commit_index.next();
        for (i, e) in self.core.log.contiguous_from(k) {
            if e.approval != Approval::LeaderApproved {
                break;
            }
            k = i.next();
        }
        k
    }

    /// The top of the *dense* leader-approved prefix: the highest index K
    /// with every slot in `(commitIndex, K]` holding a leader-approved
    /// entry (the committed prefix counts regardless of local approval
    /// stamps — fast-track copies below the commit point may still carry
    /// their self-approved stamp).
    ///
    /// Election up-to-dateness (§IV-C) compares THIS, not
    /// `lastLeaderIndex`. The two differ when leader-approved inserts
    /// complete out of order — under C-Raft, a global append whose
    /// intra-cluster replication finishes after a later slot's (global
    /// traffic reorders, local leadership churns) leaves a hole *below*
    /// `lastLeaderIndex`. Classic-track commits only ever count acks for a
    /// follower's contiguously-verified prefix, so a committed entry can
    /// sit exactly in such a hole; a vote granted on the inflated
    /// `lastLeaderIndex` would let a candidate missing that entry win and
    /// have its decision loop re-fill the slot — two different entries
    /// committed at one index.
    fn leader_coverage(&self) -> LogIndex {
        let mut k = self.core.commit_index;
        for (i, e) in self.core.log.contiguous_from(k.next()) {
            if e.approval != Approval::LeaderApproved {
                break;
            }
            k = i;
        }
        k
    }

    fn run_decision_loop(&mut self, gate: &mut dyn InsertGate, out: &mut Actions<FastRaftMessage>) {
        if self.core.role != Role::Leader {
            return;
        }
        // Fast-track check at the head of the log: the fast track may only
        // commit commitIndex + 1 (§IV-B), and only for a current-term entry.
        loop {
            let k = self.core.commit_index.next();
            let Some(existing) = self.core.log.get(k).cloned() else {
                break;
            };
            if existing.approval != Approval::LeaderApproved
                || existing.term != self.core.current_term
            {
                break;
            }
            self.update_fast_match(k, existing.id);
            if self.fast_quorum_at(k) {
                self.commit_through(k, true, out);
            } else {
                break;
            }
        }
        // Decide-ahead: choose entries from votes at the first undecided
        // index, keeping the leader-approved prefix contiguous. Inherited
        // old-term entries below are skipped — they commit via the classic
        // track once a current-term entry above them replicates (the same
        // reason classic Raft commits a new-term no-op on election).
        loop {
            let k = self.decision_point();
            if self.gated_decisions.contains(&k) {
                break; // An insert for k is still replicating locally.
            }
            if self.possible.voters_at(k) < self.core.config.classic_quorum() {
                break;
            }
            let chosen = match self.possible.most_voted(k) {
                Some((e, _)) => e.clone(),
                None => {
                    // Every vote was nulled: any entry may be inserted
                    // (§IV-B); use a no-op.
                    LogEntry::noop(self.core.current_term, self.core.fresh_id(out))
                }
            };
            let chosen = chosen
                .with_term(self.core.current_term)
                .with_approval(Approval::LeaderApproved);
            match gate.begin(k, &chosen, GatePurpose::DecisionInsert) {
                GateVerdict::Proceed => {
                    let _ = self.finish_decision_insert(k, chosen, out);
                }
                GateVerdict::Defer(token) => {
                    self.gated_decisions.insert(k);
                    self.pending_gates
                        .insert(token, GateCont::Decision { index: k, entry: chosen });
                    break;
                }
            }
        }
        self.maybe_term_noop(gate, out);
    }

    /// Classic Raft commits a no-op at the start of every term so inherited
    /// entries become committable; Fast Raft needs the same, but the no-op
    /// may only go *above* every index that might hold a chosen entry —
    /// i.e. above every recovered vote and every entry in our log. When the
    /// system is quiet (no votes pending beyond the log), that point is
    /// exactly `lastLeaderIndex + 1`.
    fn maybe_term_noop(&mut self, gate: &mut dyn InsertGate, out: &mut Actions<FastRaftMessage>) {
        if self.core.role != Role::Leader
            || self.core.commit_index >= self.last_leader_index
            || self.core.log.term_at(self.last_leader_index) == self.core.current_term
            || !self.gated_decisions.is_empty()
        {
            return;
        }
        if !self.leader_log_settled() {
            // Undecided proposals beyond the inherited region: the decision
            // loop (plus hole filling) will produce the current-term entry.
            return;
        }
        let k = self.last_leader_index.next();
        let noop = LogEntry::noop(self.core.current_term, self.core.fresh_id(out));
        match gate.begin(k, &noop, GatePurpose::DecisionInsert) {
            GateVerdict::Proceed => {
                self.insert_leader_entry(k, noop, out);
                self.advance_commit_classic(out);
            }
            GateVerdict::Defer(token) => {
                self.gated_decisions.insert(k);
                self.pending_gates
                    .insert(token, GateCont::LeaderAppend { index: k, entry: noop });
            }
        }
    }

    /// Inserts the chosen entry at `k`; returns `true` if it fast-committed.
    fn finish_decision_insert(
        &mut self,
        k: LogIndex,
        chosen: LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) -> bool {
        if k != self.decision_point() || self.core.role != Role::Leader {
            // Stale continuation (the slot was decided another way or
            // leadership was lost while the gate replicated). Drop it; the
            // current machinery re-decides.
            return false;
        }
        self.insert_leader_entry(k, chosen.clone(), out);
        self.possible.null_out_elsewhere(chosen.id, k);
        self.update_fast_match(k, chosen.id);
        // The fast track only ever commits the index right above the commit
        // point (§IV-B "the fast track can only be taken here if the last
        // index was committed").
        if k == self.core.commit_index.next()
            && chosen.term == self.core.current_term
            && self.fast_quorum_at(k)
        {
            self.commit_through(k, true, out);
            return true;
        }
        false
    }

    fn insert_leader_entry(
        &mut self,
        index: LogIndex,
        entry: LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) {
        debug_assert_eq!(entry.approval, Approval::LeaderApproved);
        // A decision overwriting a self-approved occupant must drop the
        // loser's id mapping: once the slot is compacted, the mapping alone
        // would answer the loser's retries as committed.
        if let Some(old) = self.core.log.get(index) {
            if old.id != entry.id {
                self.core.id_index.remove(&old.id);
            }
        }
        self.core.id_index.insert(entry.id, index);
        if let Some(cfg) = entry.as_config() {
            if index >= self.core.config_index {
                self.adopt_config(cfg.clone(), index, out);
            }
        }
        out.persist(PersistCmd::Insert {
            scope: self.core.scope,
            index,
            entry: entry.clone(),
        });
        self.core.log.insert(index, entry);
        if index > self.last_leader_index {
            self.last_leader_index = index;
        }
        self.match_index
            .insert(self.core.id, self.last_leader_index);
    }

    /// Highest proposal-sequence ceiling this engine has persisted; used by
    /// embeddings that cache engine state across deactivation (C-Raft's
    /// global side) to carry the floor forward.
    pub fn reserved_seqs(&self) -> u64 {
        self.core.reserved_seqs()
    }

    fn update_fast_match(&mut self, k: LogIndex, chosen: EntryId) {
        for voter in self.possible.voters_for(k, chosen) {
            let fm = self.fast_match.entry(voter).or_insert(LogIndex::ZERO);
            if k > *fm {
                *fm = k;
            }
        }
        // The leader holds the entry itself.
        let fm = self
            .fast_match
            .entry(self.core.id)
            .or_insert(LogIndex::ZERO);
        if k > *fm {
            *fm = k;
        }
    }

    fn fast_quorum_at(&self, k: LogIndex) -> bool {
        let count = self
            .core
            .config
            .iter()
            .filter(|m| self.fast_match.get(m).copied().unwrap_or(LogIndex::ZERO) >= k)
            .count();
        count >= self.core.config.fast_quorum()
    }

    /// Liveness guard: re-propose a no-op at the blocked index after
    /// `hole_fill_ticks` stalled decision ticks (see module docs).
    fn maybe_fill_hole(&mut self, out: &mut Actions<FastRaftMessage>) {
        let k = self.decision_point();
        let work_above = self.core.log.last_index() >= k || self.possible.max_index() >= k;
        let blocked = work_above
            && self
                .core
                .log
                .get(k)
                .is_none_or(|e| e.approval == Approval::SelfApproved)
            && self.possible.voters_at(k) < self.core.config.classic_quorum()
            && !self.gated_decisions.contains(&k);
        if !blocked {
            self.stalled_ticks = 0;
            return;
        }
        self.stalled_ticks += 1;
        if self.stalled_ticks < self.core.timing.hole_fill_ticks {
            return;
        }
        self.stalled_ticks = 0;
        self.fire_hole_repair(k, out);
    }

    /// Proactive hole repair: a successful append ack whose match stopped
    /// exactly below the blocked decision point, while replicated suffix
    /// exists above it, proves the classic track is stalled on that hole —
    /// repair it immediately instead of waiting out `hole_fill_ticks`.
    /// Fires at most once per index; the tick-based guard remains the
    /// backstop if the repair proposal itself is lost.
    fn maybe_proactive_repair(
        &mut self,
        acked: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let k = self.decision_point();
        if acked.next() != k
            || self.last_leader_index <= k
            || k <= self.last_proactive_repair
            || self.gated_decisions.contains(&k)
            || self
                .core
                .log
                .get(k)
                .is_some_and(|e| e.approval == Approval::LeaderApproved)
            || self.possible.voters_at(k) >= self.core.config.classic_quorum()
        {
            return;
        }
        self.last_proactive_repair = k;
        self.fire_hole_repair(k, out);
    }

    /// Broadcasts a no-op proposal targeted at the blocked index. Sites
    /// holding an entry there keep it and re-vote for it, so any chosen
    /// entry still wins the decision rule — safety is untouched while the
    /// log unblocks.
    fn fire_hole_repair(&mut self, k: LogIndex, out: &mut Actions<FastRaftMessage>) {
        out.observe(Observation::HoleRepairTriggered { index: k });
        let entry = LogEntry {
            term: self.core.current_term,
            id: self.core.fresh_id(out),
            payload: Payload::Noop,
            approval: Approval::SelfApproved,
        };
        let peers: Vec<NodeId> = self.core.config.peers(self.core.id).collect();
        out.send_many(
            peers,
            FastRaftMessage::ProposeAt {
                index: k,
                entry: entry.clone(),
            },
        );
        let mut proceed = crate::gate::ProceedGate;
        self.on_propose_at(self.core.id, k, entry, &mut proceed, out);
    }

    // ------------------------------------------------------------------
    // Classic track: AppendEntries
    // ------------------------------------------------------------------

    fn note_missed_beats(&mut self, out: &mut Actions<FastRaftMessage>) {
        let peers: Vec<NodeId> = self.core.config.peers(self.core.id).collect();
        let mut suspects = Vec::new();
        for peer in peers {
            let missed = self.missed_beats.entry(peer).or_insert(0);
            *missed += 1;
            if *missed >= self.core.timing.member_timeout_beats {
                *missed = 0;
                suspects.push(peer);
            }
        }
        for peer in suspects {
            out.observe(Observation::MemberSuspected { node: peer });
            self.enqueue_reconfig(ReconfigOp::Remove(peer), out);
        }
    }

    fn dispatch_append_entries(&mut self, out: &mut Actions<FastRaftMessage>) {
        let budget = self.core.timing.append_budget();
        // Group followers by nextIndex: one budgeted batch is assembled per
        // distinct resume point, and the Arc-shared EntryList handle is
        // cloned per recipient — the fan-out shares a single allocation.
        let mut groups: BTreeMap<LogIndex, Vec<NodeId>> = BTreeMap::new();
        for peer in self
            .core
            .config
            .peers(self.core.id)
            .chain(self.learners.iter().copied().filter(|l| *l != self.core.id))
        {
            let next = *self
                .next_index
                .get(&peer)
                .unwrap_or(&self.core.commit_index.next());
            groups.entry(next).or_default().push(peer);
        }
        for (next, peers) in groups {
            // A site whose resume point fell below the first retained index
            // cannot be served from the log anymore (it was absent past the
            // compaction horizon, or is a fresh joiner): transfer the
            // compacted prefix as a snapshot; its ack moves nextIndex above
            // the horizon and replication resumes normally.
            if next < self.core.log.first_index() {
                if let Some(snapshot) = self.current_snapshot() {
                    for peer in peers {
                        out.send(
                            peer,
                            FastRaftMessage::InstallSnapshot {
                                term: self.core.current_term,
                                leader: self.core.id,
                                snapshot: snapshot.clone(),
                            },
                        );
                    }
                }
                continue;
            }
            // §IV-B: include entries from nextIndex through lastLeaderIndex.
            let entries = if self.last_leader_index >= next {
                let list =
                    self.core
                        .log
                        .collect_range_budgeted(next, self.last_leader_index, budget);
                debug_assert!(list
                    .iter()
                    .all(|(_, e)| e.approval == Approval::LeaderApproved));
                list
            } else {
                EntryList::empty()
            };
            for peer in peers {
                out.send(
                    peer,
                    FastRaftMessage::AppendEntries {
                        term: self.core.current_term,
                        leader: self.core.id,
                        prev_index: next.prev_saturating(),
                        entries: entries.clone(),
                        leader_commit: self.core.commit_index,
                        global_commit: LogIndex::ZERO,
                        probe: self.core.reads.probe(),
                    },
                );
            }
        }
    }

    /// §IV-B "When a follower receives AppendEntries message".
    #[allow(clippy::too_many_arguments)]
    fn on_append_entries(
        &mut self,
        from: NodeId,
        term: Term,
        leader: NodeId,
        prev_index: LogIndex,
        entries: EntryList,
        leader_commit: LogIndex,
        probe: u64,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if term < self.core.current_term {
            out.send(
                from,
                FastRaftMessage::AppendEntriesReply {
                    term: self.core.current_term,
                    success: false,
                    match_index: LogIndex::ZERO,
                    probe: 0,
                    lease_until: SimTime::ZERO,
                },
            );
            return;
        }
        let leader_changed = self.core.leader_hint != Some(leader) || term > self.core.current_term;
        self.silent_elections = 0;
        if term > self.core.current_term || self.core.role != Role::Follower {
            self.become_follower(term, Some(leader), out);
        } else {
            self.core.leader_hint = Some(leader);
            self.reset_election_timer(out);
        }
        if leader_changed {
            // Entries verified against a previous leader may diverge above
            // the commit point; re-verify against the new leader.
            self.verified = self.core.commit_index;
        }
        // NOTE: prev_index is deliberately NOT trusted to raise `verified`.
        // Mere presence of entries through prev_index proves nothing — a
        // stale self-approved entry below prev could differ from the
        // leader's log (the log-matching induction classic Raft gets from
        // its prev-term check). Instead, a follower that cannot extend its
        // verified prefix acks its true `verified`, and the leader rewinds
        // nextIndex from the ack (see on_append_reply), resending the range
        // and overwriting stale entries.
        let _ = prev_index;

        // Contiguity bookkeeping: entries arrive as an explicit ascending
        // index range, but the range may contain interior holes — the leader
        // collects the *occupied* slots of a sparse log, so a hole in the
        // leader's log shows up as a skipped index here. matchIndex may only
        // advance across indices this site verifies contiguously from its
        // existing verified prefix; anything beyond the first skip is
        // inserted (it is leader-approved data) but not counted as matched,
        // so commits can never cross a hole. The hole itself is repaired by
        // the leader's decision loop / hole filling, after which the resend
        // from the acked matchIndex extends the prefix normally.
        let anchor = self.verified.max(self.core.commit_index);
        let mut new_match = anchor;
        for (idx, _) in entries.iter() {
            if *idx <= new_match {
                continue;
            }
            if *idx == new_match.next() {
                new_match = *idx;
            } else {
                break;
            }
        }

        // Apply inserts (§IV-B steps 4-5: overwrite conflicts, mark
        // leader-approved), possibly gated. The list is Arc-shared with
        // every other recipient of this batch; entries that land are cloned
        // out of it so the per-site approval stamp never touches the shared
        // allocation.
        let insert_bound = self
            .core
            .log
            .last_index()
            .as_u64()
            .max(self.core.commit_index.as_u64())
            + MAX_INSERT_WINDOW;
        let mut to_insert = Vec::new();
        for (idx, entry) in entries.iter() {
            let idx = *idx;
            // Entries at or below the commit index are already decided (and
            // possibly compacted away); writing there is never needed and
            // would violate the compaction horizon.
            if idx <= self.core.commit_index {
                continue;
            }
            // Defensive: an index absurdly far above this log would force
            // the dense layout to materialize the whole span as slots.
            // Beyond the contiguity anchor it cannot advance matchIndex
            // anyway, so dropping it costs nothing.
            if idx.as_u64() > insert_bound {
                continue;
            }
            let needs_write = match self.core.log.get(idx) {
                None => true,
                Some(existing) => {
                    existing.id != entry.id
                        || existing.approval != Approval::LeaderApproved
                        || existing.term != entry.term
                }
            };
            if needs_write {
                to_insert.push((idx, entry.with_approval(Approval::LeaderApproved)));
            }
        }
        if to_insert.is_empty() {
            self.verified = new_match;
            self.complete_append(from, new_match, leader_commit, probe, out);
            return;
        }
        let ack_id = self.next_ack_id;
        self.next_ack_id += 1;
        let mut remaining = 0usize;
        let mut deferred = BTreeSet::new();
        let mut immediate = Vec::new();
        for (idx, entry) in to_insert {
            match gate.begin(idx, &entry, GatePurpose::AppendInsert) {
                GateVerdict::Proceed => immediate.push((idx, entry)),
                GateVerdict::Defer(token) => {
                    remaining += 1;
                    deferred.insert(idx);
                    self.pending_gates.insert(
                        token,
                        GateCont::Append {
                            index: idx,
                            entry,
                            ack: ack_id,
                        },
                    );
                }
            }
        }
        for (idx, entry) in immediate {
            self.apply_append_insert(idx, entry, out);
        }
        // `verified` may only cover entries that actually landed: a deferred
        // insert is not in the log (nor persisted) yet, so it must not be
        // acked — not by this append's (deferred) ack, and not by a later
        // empty heartbeat acking `verified` while the gate is still open.
        // Otherwise the leader could count a non-durable replica toward a
        // classic quorum and a crash of this site could lose a committed
        // entry. The full `new_match` is acked by `finish_append_ack` once
        // the last gate of the batch resolves.
        let mut landed = anchor;
        while landed < new_match && !deferred.contains(&landed.next()) {
            landed = landed.next();
        }
        self.verified = landed;
        if remaining == 0 {
            self.complete_append(from, new_match, leader_commit, probe, out);
        } else {
            self.acks.insert(
                ack_id,
                AckState {
                    from,
                    term: self.core.current_term,
                    match_index: new_match,
                    leader_commit,
                    probe,
                    remaining,
                },
            );
        }
    }

    fn apply_append_insert(
        &mut self,
        index: LogIndex,
        entry: LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if index <= self.core.log.compacted_through() {
            // The slot was committed and compacted (e.g. a snapshot arrived
            // while this insert was gated); the write is obsolete.
            return;
        }
        if let Some(old) = self.core.log.get(index) {
            if old.id != entry.id {
                self.core.id_index.remove(&old.id);
            }
        }
        self.core.id_index.insert(entry.id, index);
        if let Some(cfg) = entry.as_config() {
            if index >= self.core.config_index {
                self.adopt_config(cfg.clone(), index, out);
            }
        }
        out.persist(PersistCmd::Insert {
            scope: self.core.scope,
            index,
            entry: entry.clone(),
        });
        self.core.log.insert(index, entry);
        // These entries are leader-approved: they advance lastLeaderIndex,
        // which drives election up-to-dateness (§IV-C).
        if index > self.last_leader_index {
            self.last_leader_index = index;
        }
    }

    fn complete_append(
        &mut self,
        from: NodeId,
        match_index: LogIndex,
        leader_commit: LogIndex,
        probe: u64,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // §IV-B step 6: commitIndex follows the leader, clamped to what we
        // verified (deviation from the paper's `lastLogIndex` clamp — see
        // module docs; this keeps the committed prefix contiguous and
        // leader-verified).
        if leader_commit > self.core.commit_index {
            let target = leader_commit.min(match_index);
            if target > self.core.commit_index {
                self.commit_through_follower(target, out);
            }
        }
        out.send(
            from,
            FastRaftMessage::AppendEntriesReply {
                term: self.core.current_term,
                success: true,
                match_index,
                probe,
                // Grant stamped at reply time, not receive time: a gated
                // (deferred) ack that resolves later simply carries a
                // fresher promise.
                lease_until: self.core.emit_lease_grant(from),
            },
        );
    }

    fn finish_append_ack(&mut self, st: AckState, out: &mut Actions<FastRaftMessage>) {
        // Every insert of the batch has landed (and persisted write-ahead).
        // If the term changed while the gates were open, the verification is
        // stale — entries at those slots may since belong to a newer leader;
        // drop the ack and let the current leader re-establish the prefix.
        if st.term != self.core.current_term {
            return;
        }
        // The log is insert-only, so the contiguous run this batch verified
        // is still present: `verified` may now cover it.
        if st.match_index > self.verified {
            self.verified = st.match_index;
        }
        self.complete_append(st.from, st.match_index, st.leader_commit, st.probe, out);
    }

    /// Leader handling of AppendEntries acknowledgements.
    #[allow(clippy::too_many_arguments)]
    fn on_append_reply(
        &mut self,
        from: NodeId,
        term: Term,
        success: bool,
        match_index: LogIndex,
        probe: u64,
        lease_until: SimTime,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if term > self.core.current_term {
            self.become_follower(term, None, out);
            return;
        }
        if self.core.role != Role::Leader || term < self.core.current_term {
            return;
        }
        self.core.record_lease_grant(from, lease_until, out);
        if success {
            // match_index is monotone (acked entries are persisted at the
            // follower), but nextIndex follows the ack exactly: a follower
            // that restarted from stable storage reports a low verified
            // match, and the leader must rewind and resend that range.
            let m = self.match_index.entry(from).or_insert(LogIndex::ZERO);
            if match_index > *m {
                *m = match_index;
            }
            self.next_index.insert(from, match_index.next());
            self.maybe_finish_join(from, out);
            self.advance_commit_classic(out);
            self.maybe_proactive_repair(match_index, out);
            // A current-term ack confirms leadership for ReadIndex rounds
            // registered at or before the echoed probe.
            self.core.note_read_ack(from, probe, out);
        } else {
            // Stale-term rejection carries no hint; rewind to the commit
            // point so the next dispatch re-sends the suffix.
            self.next_index.insert(from, self.core.commit_index.next());
        }
    }

    /// Classic-track commit rule: highest `k` with a classic quorum of
    /// matchIndex ≥ k and `log[k].term == currentTerm`.
    fn advance_commit_classic(&mut self, out: &mut Actions<FastRaftMessage>) {
        let quorum = self.core.config.classic_quorum();
        // The committed prefix must stay contiguous and leader-approved, but
        // `lastLeaderIndex` can sit *above* a hole (a non-extending append
        // still inserts its leader-approved entries). Cap the scan at the
        // end of the contiguous leader-approved run above commitIndex; the
        // decision loop / hole filling repairs the hole, after which the run
        // extends and the suffix becomes committable.
        let mut reach = self.core.commit_index;
        for (i, e) in self.core.log.contiguous_from(self.core.commit_index.next()) {
            if i > self.last_leader_index || e.approval != Approval::LeaderApproved {
                break;
            }
            reach = i;
        }
        let mut k = reach;
        while k > self.core.commit_index {
            if self.core.log.term_at(k) == self.core.current_term {
                let acks = self
                    .core
                    .config
                    .iter()
                    .filter(|m| {
                        self.match_index.get(m).copied().unwrap_or(LogIndex::ZERO) >= k
                    })
                    .count();
                if acks >= quorum {
                    break;
                }
            }
            k = k.prev();
        }
        if k > self.core.commit_index {
            self.commit_through(k, false, out);
        }
    }

    // ------------------------------------------------------------------
    // Commit bookkeeping
    // ------------------------------------------------------------------

    /// Leader-side commit: advance through `new_commit`, emitting effects.
    ///
    /// Inline (the default) this applies each index on the spot, exactly as
    /// before; under [`Timing::pipelined_apply`] only the track observations
    /// and the commit-side protocol bookkeeping happen here — apply effects
    /// wait for the embedding's drain stage
    /// ([`FastRaftEngine::drain_applies`]), so the leader keeps assembling
    /// the next AppendEntries while the committed range applies.
    fn commit_through(
        &mut self,
        new_commit: LogIndex,
        fast: bool,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let old = self.core.commit_index;
        if new_commit <= old {
            return;
        }
        self.core.commit_index = new_commit;
        let inline = !self.core.timing.pipelined_apply;
        let mut k = old.next();
        while k <= new_commit {
            if fast {
                out.observe(Observation::FastTrackCommit { index: k });
            } else {
                out.observe(Observation::ClassicTrackCommit { index: k });
            }
            if inline {
                self.emit_commit_effects(k, out);
                self.core.applied_index = k;
            }
            k = k.next();
        }
        self.possible.release_through(new_commit);
        self.retarget_lost_proposals(out);
        if inline {
            self.core.maybe_compact(out);
        }
    }

    /// Follower-side commit: no track observation (the leader decided).
    fn commit_through_follower(
        &mut self,
        new_commit: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let old = self.core.commit_index;
        if new_commit <= old {
            return;
        }
        self.core.commit_index = new_commit;
        let inline = !self.core.timing.pipelined_apply;
        if inline {
            let mut k = old.next();
            while k <= new_commit {
                self.emit_commit_effects(k, out);
                self.core.applied_index = k;
                k = k.next();
            }
        }
        self.possible.release_through(new_commit);
        self.retarget_lost_proposals(out);
        if inline {
            self.core.maybe_compact(out);
        }
    }

    /// Drains the pipelined-apply queue: applies every committed-but-
    /// unapplied index in commit order, with effects identical to the
    /// inline path — digest folds, session-table transitions, proposer and
    /// gateway notifications, commit records, compaction, and the release
    /// of reads whose floor the state machine just reached.
    pub fn drain_applies(&mut self, out: &mut Actions<FastRaftMessage>) {
        while self.core.applied_index < self.core.commit_index {
            let k = self.core.applied_index.next();
            self.emit_commit_effects(k, out);
            self.core.applied_index = k;
        }
        self.core.maybe_compact(out);
        self.core.release_applied_reads(out);
    }

    /// Number of committed-but-unapplied indices queued for pipelined
    /// apply; always zero at step boundaries in inline mode.
    pub fn pending_applies(&self) -> u64 {
        self.core.pending_applies()
    }

    fn emit_commit_effects(&mut self, k: LogIndex, out: &mut Actions<FastRaftMessage>) {
        let Some(entry) = self.core.log.get(k).cloned() else {
            debug_assert!(false, "committing a hole at {k}");
            return;
        };
        self.core.state_digest = fold_commit_digest(self.core.state_digest, k, entry.id);
        match &entry.payload {
            Payload::Config(cfg) => {
                out.observe(Observation::ConfigCommitted {
                    members: cfg.len(),
                });
                if self.pending_config == Some(k) {
                    self.pending_config = None;
                    if let Some(joiner) = self.pending_join_notify.take() {
                        self.learners.remove(&joiner);
                        out.send(
                            joiner,
                            FastRaftMessage::JoinReply {
                                accepted: true,
                                leader_hint: Some(self.core.id),
                            },
                        );
                        out.observe(Observation::JoinAccepted { node: joiner });
                    }
                    self.start_next_reconfig(out);
                }
                // A committed config naming us while we were joining
                // finalizes membership.
                if cfg.contains(self.core.id) && self.join_contacts.is_some() {
                    self.finish_joining(out);
                }
            }
            Payload::Write { .. } | Payload::Register { .. } => {
                self.core.apply_client_write(k, &entry, out);
            }
            Payload::Batch(b) => {
                // Item-wise exactly-once apply: a value whose item landed in
                // two batches (successor re-batching, a batch retry racing
                // compaction + restart) takes effect only once; each item's
                // session rides the table, which travels in snapshots.
                let items: Vec<(SessionId, u64)> =
                    b.items.iter().filter_map(|item| item.key).collect();
                for (session, seq) in items {
                    // Deliberately NO apply-time expiry skip here, unlike
                    // the Write arm: "untracked session at seq > 1" does
                    // not imply "duplicate of an evicted session" for
                    // batch items. They pass no session-vetting door, and
                    // the global commit index aggregates every cluster's
                    // traffic, so a steadily-writing session at one quiet
                    // colo can see more than `session_ttl` of *global* log
                    // distance between its own consecutive items — its
                    // next, genuinely fresh item would be silently dropped
                    // (already acked locally, absent globally). Applying
                    // re-creates the slot instead; the narrow cost is that
                    // a duplicate item placement outliving a global
                    // eviction re-applies, which only loses dedup, never
                    // data.
                    self.core.apply_session(session, seq, k, out);
                }
                self.notify_proposer(k, &entry, out);
            }
            Payload::Data(_) => self.notify_proposer(k, &entry, out),
            Payload::Noop | Payload::GlobalState(_) => {
                // Internal entries; GlobalState commits are consumed by the
                // C-Raft layer through the Actions::commits channel.
                if entry.id.proposer == self.core.id {
                    self.core.proposals.remove(&entry.id);
                }
            }
        }
        self.core.evict_idle_sessions(k, out);
        out.commit(self.core.scope, k, entry);
    }

    /// A committed plain proposal (data or a C-Raft batch): the proposer
    /// retires it, and the leader tells a remote proposer.
    fn notify_proposer(
        &mut self,
        k: LogIndex,
        entry: &LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let proposer = entry.id.proposer;
        if proposer == self.core.id {
            if self.core.proposals.remove(&entry.id).is_some() {
                out.observe(Observation::ProposalCommitted {
                    id: entry.id,
                    index: k,
                    scope: self.core.scope,
                });
            }
        } else if self.core.role == Role::Leader {
            out.send(
                proposer,
                FastRaftMessage::ProposeReply {
                    id: entry.id,
                    committed: true,
                    leader_hint: Some(self.core.id),
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Snapshots + log compaction
    // ------------------------------------------------------------------

    /// The snapshot to serve laggards: the cached one (compaction refreshes
    /// it), synthesized from the log's horizon if a recovery path lost it.
    /// Public so the C-Raft layer can cache the global engine's snapshot
    /// across deactivation.
    pub fn current_snapshot(&self) -> Option<Snapshot> {
        self.core.current_snapshot()
    }

    /// Laggard side of a snapshot transfer (§IV-D catch-up): replace the
    /// compacted prefix wholesale and resume replication above it.
    ///
    /// Snapshot installs are **not** gated at C-Raft's global level: every
    /// entry the snapshot covers is globally committed, so there is nothing
    /// a successor local leader could lose — it re-fetches the prefix from
    /// the global leader instead of from local global-state entries.
    fn on_install_snapshot(
        &mut self,
        from: NodeId,
        term: Term,
        leader: NodeId,
        snapshot: Snapshot,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if term < self.core.current_term {
            self.core.ack_snapshot(from, LogIndex::ZERO, out);
            return;
        }
        self.silent_elections = 0;
        let leader_changed = self.core.leader_hint != Some(leader) || term > self.core.current_term;
        if term > self.core.current_term || self.core.role != Role::Follower {
            self.become_follower(term, Some(leader), out);
        } else {
            self.core.leader_hint = Some(leader);
            self.reset_election_timer(out);
        }
        if leader_changed {
            self.verified = self.core.commit_index;
        }
        let Some(adopt_config) = self.core.begin_snapshot_install(from, &snapshot, out) else {
            return;
        };
        let last_index = snapshot.last_index;
        if adopt_config {
            self.adopt_config(snapshot.config.clone(), last_index, out);
        }
        self.verified = self.verified.max(last_index);
        if last_index > self.last_leader_index {
            self.last_leader_index = last_index;
        }
        self.possible.release_through(last_index);
        self.core.finish_snapshot_install(snapshot, out);
        self.retarget_lost_proposals(out);
        self.core.ack_snapshot(from, last_index, out);
    }

    fn on_install_snapshot_reply(
        &mut self,
        from: NodeId,
        term: Term,
        last_index: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if term > self.core.current_term {
            self.become_follower(term, None, out);
            return;
        }
        if self.core.role != Role::Leader || term < self.core.current_term {
            return;
        }
        let m = self.match_index.entry(from).or_insert(LogIndex::ZERO);
        if last_index > *m {
            *m = last_index;
        }
        self.next_index.insert(from, last_index.next());
        self.maybe_finish_join(from, out);
        self.advance_commit_classic(out);
    }

    // ------------------------------------------------------------------
    // Elections (§IV-C)
    // ------------------------------------------------------------------

    fn become_follower(
        &mut self,
        term: Term,
        leader: Option<NodeId>,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let was_leader = self.core.role == Role::Leader;
        // Leadership (or the term it was confirmed under) is gone: any read
        // still awaiting its ReadIndex confirmation must not be answered,
        // and collected lease grants are void (they backed *this*
        // leadership).
        self.core.fail_pending_reads(out);
        self.core.lease.clear();
        if term > self.core.current_term {
            self.core.current_term = term;
            self.core.voted_for = None;
            self.core.persist_term_vote(out);
            self.verified = self.core.commit_index;
        }
        self.core.role = Role::Follower;
        if leader.is_some() {
            self.core.leader_hint = leader;
        }
        self.election_votes.clear();
        self.recovery_votes.clear();
        if was_leader {
            out.cancel_timer(self.timers.map(TimerKind::Heartbeat));
            out.cancel_timer(self.timers.map(TimerKind::LeaderTick));
        }
        if self.join_contacts.is_none() {
            self.reset_election_timer(out);
        }
        out.observe(Observation::BecameFollower {
            term: self.core.current_term,
        });
    }

    fn start_election(&mut self, out: &mut Actions<FastRaftMessage>) {
        if !self.core.config.contains(self.core.id) {
            out.observe(Observation::MessageIgnored {
                reason: "election by non-member suppressed",
            });
            self.reset_election_timer(out);
            return;
        }
        // Elections without an intervening leader contact suggest we may
        // have been silently evicted (our consensus messages are being
        // ignored); probe with a join request. A leader that still counts
        // us as a member answers `accepted` harmlessly, while one that
        // evicted us starts the §IV-D rejoin flow. The counter resets on
        // any authenticated leader contact.
        self.silent_elections += 1;
        if self.silent_elections >= 3 {
            let peers: Vec<NodeId> = self.core.config.peers(self.core.id).collect();
            out.send_many(peers, FastRaftMessage::JoinRequest { node: self.core.id });
        }
        self.core.role = Role::Candidate;
        self.core.current_term = self.core.current_term.next();
        self.core.voted_for = Some(self.core.id);
        self.core.persist_term_vote(out);
        self.election_votes.clear();
        self.election_votes.insert(self.core.id);
        self.recovery_votes.clear();
        // Our own self-approved entries participate in recovery.
        self.recovery_votes
            .push((self.core.id, self.core.log.self_approved()));
        out.observe(Observation::ElectionStarted {
            term: self.core.current_term,
        });
        // Advertise the dense leader-approved prefix, not `lastLeaderIndex`:
        // coverage is what acked matchIndexes certified, so it is what the
        // up-to-dateness comparison must protect (see `leader_coverage`).
        let coverage = self.leader_coverage();
        let msg = FastRaftMessage::RequestVote {
            term: self.core.current_term,
            candidate: self.core.id,
            last_leader_index: coverage,
            last_leader_term: self.core.log.term_at(coverage),
        };
        let peers: Vec<NodeId> = self.core.config.peers(self.core.id).collect();
        out.send_many(peers, msg);
        self.reset_election_timer(out);
        self.maybe_win(out);
    }

    /// §IV-C "When receiving a RequestVote message from a candidate".
    fn on_request_vote(
        &mut self,
        from: NodeId,
        term: Term,
        candidate: NodeId,
        cand_last_leader_index: LogIndex,
        cand_last_leader_term: Term,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // Non-members, lease holds and leaders with a live lease drop the
        // request without adopting its term.
        if self.core.refuses_vote_request(candidate, out) {
            return;
        }
        if term < self.core.current_term {
            out.send(
                from,
                FastRaftMessage::RequestVoteReply {
                    term: self.core.current_term,
                    granted: false,
                    self_approved: Vec::new(),
                },
            );
            return;
        }
        if term > self.core.current_term {
            self.become_follower(term, None, out);
        }
        // Up-to-dateness over leader-approved entries only (§IV-C), compared
        // on the dense prefix both sides actually hold: `lastLeaderIndex`
        // can sit beyond a still-unfilled hole when inserts complete out of
        // order, and granting on that inflated index would hand leadership
        // to a candidate missing a committed entry (see `leader_coverage`).
        let my_coverage = self.leader_coverage();
        let my_term = self.core.log.term_at(my_coverage);
        let up_to_date = (cand_last_leader_term, cand_last_leader_index) >= (my_term, my_coverage);
        let can_vote = self.core.voted_for.is_none() || self.core.voted_for == Some(candidate);
        let granted = up_to_date && can_vote;
        let self_approved = if granted {
            self.core.voted_for = Some(candidate);
            self.core.persist_term_vote(out);
            self.reset_election_timer(out);
            self.core.log.self_approved()
        } else {
            Vec::new()
        };
        out.send(
            from,
            FastRaftMessage::RequestVoteReply {
                term: self.core.current_term,
                granted,
                self_approved,
            },
        );
    }

    fn on_vote_reply(
        &mut self,
        from: NodeId,
        term: Term,
        granted: bool,
        self_approved: Vec<(LogIndex, LogEntry)>,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if term > self.core.current_term {
            self.become_follower(term, None, out);
            return;
        }
        if self.core.role != Role::Candidate || term < self.core.current_term || !granted {
            return;
        }
        self.election_votes.insert(from);
        self.recovery_votes.push((from, self_approved));
        self.maybe_win(out);
        if self.core.role == Role::Leader {
            // Run recovery + first decision pass immediately.
            self.run_decision_loop(gate, out);
        }
    }

    fn maybe_win(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.core.role != Role::Candidate {
            return;
        }
        let quorum = self.core.config.classic_quorum();
        let valid = self
            .election_votes
            .iter()
            .filter(|v| self.core.config.contains(**v))
            .count();
        if valid >= quorum {
            self.become_leader(out);
        }
    }

    fn become_leader(&mut self, out: &mut Actions<FastRaftMessage>) {
        // Invariant (ROADMAP snapshot item b): a log grown through normal
        // protocol operation is never front-gapped — compaction only ever
        // consumes a contiguous occupied prefix. Only C-Raft's global-view
        // reconstruction (from partially compacted global-state entries)
        // can produce one; a leader election on such a view is legal (the
        // gap region is protected by §IV-B slot voting and commits never
        // cross it) but worth surfacing: the new leader serves the gap via
        // hole repair + quorum re-votes instead of its own entries.
        if let Some((horizon, first_retained)) = self.core.log.front_gap() {
            debug_assert_eq!(
                self.core.scope,
                LogScope::Global,
                "front-gapped log outside the C-Raft global reconstruction path"
            );
            out.observe(Observation::GlobalViewGap {
                horizon,
                first_retained,
            });
        }
        self.core.role = Role::Leader;
        self.silent_elections = 0;
        self.core.leader_hint = Some(self.core.id);
        out.observe(Observation::BecameLeader {
            term: self.core.current_term,
        });
        self.core.arm_lease();
        // §IV-A: nextIndex initialized to last committed entry + 1.
        let start = self.core.commit_index.next();
        self.next_index.clear();
        self.match_index.clear();
        self.fast_match.clear();
        self.missed_beats.clear();
        for peer in self.core.config.iter() {
            self.next_index.insert(peer, start);
            self.match_index.insert(peer, LogIndex::ZERO);
        }
        self.match_index
            .insert(self.core.id, self.last_leader_index);
        self.assign_cursor = self.last_leader_index;
        self.last_proactive_repair = self.core.commit_index;
        // Recovery (§IV-C): replay every voter's self-approved entries into
        // possibleEntries so chosen entries are re-chosen.
        let recovered: usize = self.recovery_votes.iter().map(|(_, v)| v.len()).sum();
        let votes = std::mem::take(&mut self.recovery_votes);
        for (voter, entries) in votes {
            for (idx, entry) in entries {
                if idx > self.core.commit_index {
                    self.possible.record_vote(idx, entry, voter);
                }
            }
        }
        out.observe(Observation::RecoveryCompleted { entries: recovered });
        out.cancel_timer(self.timers.map(TimerKind::Election));
        self.dispatch_append_entries(out);
        out.set_timer(
            self.timers.map(TimerKind::Heartbeat),
            self.core.timing.heartbeat,
        );
        out.set_timer(
            self.timers.map(TimerKind::LeaderTick),
            self.core.timing.decision_tick,
        );
    }

    // ------------------------------------------------------------------
    // Membership (§IV-D)
    // ------------------------------------------------------------------

    fn adopt_config(
        &mut self,
        cfg: Configuration,
        index: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let was_member = self.core.config.contains(self.core.id);
        self.core.config = cfg;
        self.core.config_index = index;
        let is_member = self.core.config.contains(self.core.id);
        if is_member && !was_member && self.join_contacts.is_some() {
            // We are in the configuration now; membership finalizes when the
            // entry commits or a JoinReply arrives, but we can already vote.
            self.finish_joining(out);
        }
        if !is_member && was_member {
            if self.core.role == Role::Leader {
                // A leader that removed itself steps down once the entry is
                // inserted; remaining members elect a successor.
                self.become_follower(self.core.current_term, None, out);
            }
            // Evicted (e.g. suspected of a silent leave while partitioned
            // or crashed): stop campaigning and rejoin explicitly (§IV-D).
            self.core.role = Role::Follower;
            self.join_contacts = Some(self.core.config.to_vec());
            out.cancel_timer(self.timers.map(TimerKind::Election));
            self.send_join_request(out);
        }
    }

    fn finish_joining(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.join_contacts.take().is_some() {
            out.cancel_timer(self.timers.map(TimerKind::JoinRetry));
            self.reset_election_timer(out);
        }
    }

    fn on_join_request(
        &mut self,
        from: NodeId,
        node: NodeId,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let _ = from;
        if self.core.role != Role::Leader {
            // §IV-D: redirect to the leader.
            out.send(
                node,
                FastRaftMessage::JoinReply {
                    accepted: false,
                    leader_hint: self.core.leader_hint,
                },
            );
            return;
        }
        if self.core.config.contains(node) {
            out.send(
                node,
                FastRaftMessage::JoinReply {
                    accepted: true,
                    leader_hint: Some(self.core.id),
                },
            );
            return;
        }
        if self.learners.contains(&node) {
            return; // Duplicate request in progress (§IV-D).
        }
        // Catch the site up as a non-voting member: replicate from the
        // beginning of the log.
        self.learners.insert(node);
        self.next_index.insert(node, LogIndex::FIRST);
        self.match_index.insert(node, LogIndex::ZERO);
    }

    /// Once a learner catches up to the commit point, propose the
    /// configuration including it (one change at a time).
    fn maybe_finish_join(&mut self, node: NodeId, out: &mut Actions<FastRaftMessage>) {
        if !self.learners.contains(&node) {
            return;
        }
        let caught_up = self
            .match_index
            .get(&node)
            .copied()
            .unwrap_or(LogIndex::ZERO)
            >= self.core.commit_index;
        if caught_up {
            self.enqueue_reconfig(ReconfigOp::Add(node), out);
        }
    }

    fn on_leave_request(&mut self, node: NodeId, out: &mut Actions<FastRaftMessage>) {
        if self.core.role != Role::Leader {
            if let Some(leader) = self.core.leader_hint {
                out.send(leader, FastRaftMessage::LeaveRequest { node });
            }
            return;
        }
        if node == self.core.id {
            // Leader leaves: not supported in-place; callers should demote
            // first. Ignored defensively.
            out.observe(Observation::MessageIgnored {
                reason: "leader self-leave ignored",
            });
            return;
        }
        if self.core.config.contains(node) {
            self.enqueue_reconfig(ReconfigOp::Remove(node), out);
        }
    }

    fn enqueue_reconfig(&mut self, op: ReconfigOp, out: &mut Actions<FastRaftMessage>) {
        if !self.reconfig_queue.contains(&op) {
            self.reconfig_queue.push_back(op);
        }
        self.start_next_reconfig(out);
    }

    fn start_next_reconfig(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.pending_config.is_some() || self.core.role != Role::Leader {
            return;
        }
        if !self.leader_log_settled() {
            // A configuration entry goes at lastLeaderIndex + 1; with
            // undecided indices below, that could overwrite a chosen entry.
            // The queue drains from the leader tick once the log settles.
            return;
        }
        while let Some(op) = self.reconfig_queue.pop_front() {
            let (new_config, notify) = match op {
                ReconfigOp::Add(n) => {
                    if self.core.config.contains(n) {
                        continue;
                    }
                    (self.core.config.with_member(n), Some(n))
                }
                ReconfigOp::Remove(n) => {
                    if !self.core.config.contains(n) || n == self.core.id {
                        continue;
                    }
                    (self.core.config.without_member(n), None)
                }
            };
            let k = self.last_leader_index.next();
            let entry =
                LogEntry::config(self.core.current_term, self.core.fresh_id(out), new_config);
            self.insert_leader_entry(k, entry, out);
            self.pending_config = Some(k);
            self.pending_join_notify = notify;
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_profile_roundtrip() {
        for base in [
            TimerKind::Election,
            TimerKind::Heartbeat,
            TimerKind::LeaderTick,
            TimerKind::ProposalRetry,
            TimerKind::JoinRetry,
        ] {
            let g = TimerProfile::Global.map(base);
            assert_ne!(g, base, "global profile must rename {base:?}");
            assert_eq!(TimerProfile::Global.unmap(g), Some(base));
            assert_eq!(TimerProfile::Base.map(base), base);
            assert_eq!(TimerProfile::Base.unmap(base), Some(base));
        }
        assert_eq!(TimerProfile::Base.unmap(TimerKind::GlobalElection), None);
        assert_eq!(TimerProfile::Global.unmap(TimerKind::Election), None);
    }

    #[test]
    fn construction_validations() {
        let cfg: Configuration = (0..3).map(NodeId).collect();
        let e = FastRaftEngine::new(
            NodeId(0),
            cfg,
            LogScope::Global,
            TimerProfile::Base,
            Timing::lan(),
            SimRng::seed_from_u64(1),
        );
        assert_eq!(e.role(), Role::Follower);
        assert!(!e.is_joining());
        assert_eq!(e.commit_index(), LogIndex::ZERO);
    }

    #[test]
    #[should_panic(expected = "not in bootstrap")]
    fn new_requires_membership() {
        let cfg: Configuration = (0..3).map(NodeId).collect();
        FastRaftEngine::new(
            NodeId(9),
            cfg,
            LogScope::Global,
            TimerProfile::Base,
            Timing::lan(),
            SimRng::seed_from_u64(1),
        );
    }

    #[test]
    fn joining_node_has_no_config() {
        let e = FastRaftEngine::joining(
            NodeId(9),
            vec![NodeId(0), NodeId(1)],
            LogScope::Global,
            TimerProfile::Base,
            Timing::lan(),
            SimRng::seed_from_u64(1),
        );
        assert!(e.is_joining());
        assert!(e.config().is_empty());
    }
}
