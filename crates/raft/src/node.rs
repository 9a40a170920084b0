//! The classic Raft node (§III-A), sans-IO.
//!
//! Implements leader election, log replication, commitment, proposer
//! redirection/retry, and administrator-driven membership change — the
//! baseline the paper compares Fast Raft and C-Raft against. Sessions,
//! reads, leases, compaction and snapshot install live in the
//! [`ReplicaCore`] the node embeds, shared with Fast Raft.
//!
//! ## Event timing (matches the paper's evaluation setup)
//!
//! - AppendEntries dispatch is **heartbeat-gated**: the leader sends entries
//!   and heartbeats only on its periodic [`TimerKind::Heartbeat`] tick, as in
//!   the paper's "Periodically run by the leader" pseudocode.
//! - Commit-index advancement is **event-driven** on acknowledgement receipt
//!   ("When the leader receives AppendEntries message response"), and
//!   proposers are notified immediately on commit.
//!
//! With the paper's closed-loop proposers this yields a commit latency of
//! roughly one heartbeat period — the ~100 ms classic-Raft baseline of
//! Fig. 3.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use des::{SimRng, SimTime};
use storage::StableState;
use wire::{
    fold_commit_digest, Actions, ClientOp, ClientOutcome, ClientRequest, Configuration,
    ConsensusProtocol, Consistency, EntryId, EntryList, LogEntry, LogIndex, LogScope, NodeId,
    Observation, PersistCmd, SessionId, SessionTable, Snapshot, SparseLog, Term, TimerKind,
    MAX_INSERT_WINDOW,
};

use crate::replica::{ReplicaCore, Role};
use crate::{RaftMessage, Timing};

/// Error returned by leader-only administrative operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotLeader {
    /// The most recently observed leader, if any.
    pub leader_hint: Option<NodeId>,
}

impl std::fmt::Display for NotLeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "not the leader (hint: {:?})", self.leader_hint)
    }
}

impl std::error::Error for NotLeader {}

/// A session-tagged client write traveling through the gateway's retry
/// machinery until its commit is observed.
#[derive(Clone, Debug)]
struct PendingWrite {
    session: SessionId,
    seq: u64,
    data: Bytes,
    /// `true` for an explicit session registration ([`ClientOp::Register`]):
    /// leader-only (the `Propose` wire message carries no op kind), so a
    /// non-leader routing answers with a redirect instead of forwarding.
    register: bool,
}

/// A classic Raft site.
#[derive(Debug)]
pub struct RaftNode {
    /// Terms, log, sessions, reads, leases and snapshots (shared with Fast
    /// Raft); the fields below are classic Raft's own.
    core: ReplicaCore<RaftMessage, PendingWrite>,
    rng: SimRng,
    /// Votes received while candidate.
    votes: BTreeSet<NodeId>,

    // ---- leader volatile state ----
    next_index: BTreeMap<NodeId, LogIndex>,
    match_index: BTreeMap<NodeId, LogIndex>,
    /// Catch-up (non-voting) members being prepared to join.
    learners: BTreeSet<NodeId>,
}

impl RaftNode {
    /// Creates a fresh node with a bootstrap configuration known to all
    /// initial members.
    ///
    /// # Panics
    ///
    /// Panics if `bootstrap` is empty or does not contain `id`, or if
    /// `timing` is inconsistent (see [`Timing::validate`]).
    pub fn new(id: NodeId, bootstrap: Configuration, timing: Timing, rng: SimRng) -> Self {
        timing.validate();
        assert!(!bootstrap.is_empty(), "bootstrap configuration is empty");
        assert!(
            bootstrap.contains(id),
            "node {id} not in bootstrap configuration"
        );
        RaftNode {
            core: ReplicaCore::new(id, LogScope::Global, bootstrap, timing),
            rng,
            votes: BTreeSet::new(),
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
            learners: BTreeSet::new(),
        }
    }

    /// Rebuilds a node from stable storage after a crash (§II). Volatile
    /// state — commit index, role, leader knowledge — is relearned from the
    /// protocol.
    pub fn recover(
        id: NodeId,
        stable: &StableState,
        bootstrap: Configuration,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        let mut node = RaftNode::new(id, bootstrap, timing, rng);
        let stable = &stable.global;
        node.core.restore(
            stable.current_term,
            stable.voted_for,
            stable.log.clone(),
            stable.snapshot.clone(),
            stable.proposal_seq_floor,
        );
        node
    }

    /// This node's current role.
    pub fn role(&self) -> Role {
        self.core.role
    }

    /// The current term.
    pub fn current_term(&self) -> Term {
        self.core.current_term
    }

    /// The highest committed index.
    pub fn commit_index(&self) -> LogIndex {
        self.core.commit_index
    }

    /// The highest index applied to the state machine. Equal to
    /// [`RaftNode::commit_index`] except transiently under
    /// [`Timing::pipelined_apply`], between commit and the drain stage.
    pub fn applied_index(&self) -> LogIndex {
        self.core.applied_index
    }

    /// The replicated log (read-only).
    pub fn log(&self) -> &SparseLog {
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

    /// The configuration this node currently obeys.
    pub fn config(&self) -> &Configuration {
        &self.core.config
    }

    /// The node this site believes is leader.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.core.leader_hint
    }

    /// Number of proposals issued here and not yet known committed.
    pub fn pending_proposals(&self) -> usize {
        self.core.proposals.len()
    }

    /// The per-session exactly-once dedup table (applied state).
    pub fn sessions(&self) -> &SessionTable {
        &self.core.sessions
    }

    // ------------------------------------------------------------------
    // Administrative API (the paper assumes a system administrator drives
    // classic-Raft membership changes, §III-A).
    // ------------------------------------------------------------------

    /// Registers a catch-up (non-voting) member the leader replicates to.
    ///
    /// # Errors
    ///
    /// Returns [`NotLeader`] when called on a non-leader.
    pub fn admin_add_learner(&mut self, node: NodeId) -> Result<(), NotLeader> {
        if self.core.role != Role::Leader {
            return Err(NotLeader {
                leader_hint: self.core.leader_hint,
            });
        }
        self.learners.insert(node);
        self.next_index.insert(node, self.core.commit_index.next());
        self.match_index.insert(node, LogIndex::ZERO);
        Ok(())
    }

    /// Proposes a new configuration (single-site change enforced), appending
    /// a config entry to the leader's log. The change takes effect at each
    /// site when *inserted* (§III-A) and is safe once committed.
    ///
    /// # Errors
    ///
    /// Returns [`NotLeader`] on a non-leader.
    ///
    /// # Panics
    ///
    /// Panics if `new_config` differs from the current configuration by more
    /// than one site (§IV-D safety precondition).
    pub fn admin_propose_config(
        &mut self,
        new_config: Configuration,
        out: &mut Actions<RaftMessage>,
    ) -> Result<EntryId, NotLeader> {
        if self.core.role != Role::Leader {
            return Err(NotLeader {
                leader_hint: self.core.leader_hint,
            });
        }
        assert!(
            self.core.config.diff_is_single_change(&new_config),
            "configuration change must add or remove at most one site"
        );
        let id = self.core.fresh_id(out);
        let entry = LogEntry::config(self.core.current_term, id, new_config);
        self.leader_append(entry, out);
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn insert_entry(&mut self, index: LogIndex, entry: LogEntry, out: &mut Actions<RaftMessage>) {
        self.core.id_index.insert(entry.id, index);
        if let Some(cfg) = entry.as_config() {
            // "Each site considers the last appended configuration entry to
            // be its current configuration."
            if index >= self.core.config_index {
                self.core.config = cfg.clone();
                self.core.config_index = index;
            }
        }
        out.persist(PersistCmd::Insert {
            scope: LogScope::Global,
            index,
            entry: entry.clone(),
        });
        self.core.log.insert(index, entry);
    }

    fn truncate_from(&mut self, from: LogIndex, out: &mut Actions<RaftMessage>) {
        let removed: Vec<(LogIndex, EntryId)> = self
            .core
            .log
            .range(from, self.core.log.last_index())
            .map(|(i, e)| (i, e.id))
            .collect();
        for (_, id) in &removed {
            self.core.id_index.remove(id);
        }
        self.core.log.truncate_from(from);
        out.persist(PersistCmd::Truncate {
            scope: LogScope::Global,
            from,
        });
        // A truncated config entry reverts the configuration to the latest
        // surviving one.
        if self.core.config_index >= from {
            if let Some((idx, cfg)) = self.core.log.latest_config() {
                self.core.config = cfg.clone();
                self.core.config_index = idx;
            }
        }
    }

    fn leader_append(&mut self, entry: LogEntry, out: &mut Actions<RaftMessage>) -> LogIndex {
        let index = self.core.log.last_index().next();
        self.insert_entry(index, entry, out);
        self.match_index.insert(self.core.id, index);
        // A single-node configuration reaches quorum on its own ack.
        self.advance_commit(out);
        index
    }

    fn become_follower(
        &mut self,
        term: Term,
        leader: Option<NodeId>,
        out: &mut Actions<RaftMessage>,
    ) {
        let was_leader = self.core.role == Role::Leader;
        // Leadership (or the term it was confirmed under) is gone: any read
        // still awaiting its ReadIndex confirmation must not be answered,
        // and collected lease grants are void (they promised a quorum for
        // *this* leadership).
        self.core.fail_pending_reads(out);
        self.core.lease.clear();
        if term > self.core.current_term {
            self.core.current_term = term;
            self.core.voted_for = None;
            self.core.persist_term_vote(out);
        }
        self.core.role = Role::Follower;
        if leader.is_some() {
            self.core.leader_hint = leader;
        }
        self.votes.clear();
        if was_leader {
            out.cancel_timer(TimerKind::Heartbeat);
        }
        self.reset_election_timer(out);
        out.observe(Observation::BecameFollower {
            term: self.core.current_term,
        });
    }

    fn reset_election_timer(&mut self, out: &mut Actions<RaftMessage>) {
        let timeout = self.core.timing.election_timeout(&mut self.rng);
        out.set_timer(TimerKind::Election, timeout);
    }

    fn start_election(&mut self, out: &mut Actions<RaftMessage>) {
        if !self.core.config.contains(self.core.id) {
            // A removed site must not start elections.
            out.observe(Observation::MessageIgnored {
                reason: "election by non-member suppressed",
            });
            self.reset_election_timer(out);
            return;
        }
        self.core.role = Role::Candidate;
        self.core.current_term = self.core.current_term.next();
        self.core.voted_for = Some(self.core.id);
        self.core.persist_term_vote(out);
        self.votes.clear();
        self.votes.insert(self.core.id);
        out.observe(Observation::ElectionStarted {
            term: self.core.current_term,
        });
        let last = self.core.log.last_index();
        let msg = RaftMessage::RequestVote {
            term: self.core.current_term,
            candidate: self.core.id,
            last_log_index: last,
            last_log_term: self.core.log.term_at(last),
        };
        let peers: Vec<NodeId> = self.core.config.peers(self.core.id).collect();
        out.send_many(peers, msg);
        self.reset_election_timer(out);
        self.maybe_win(out);
    }

    fn maybe_win(&mut self, out: &mut Actions<RaftMessage>) {
        if self.core.role != Role::Candidate {
            return;
        }
        let quorum = self.core.config.classic_quorum();
        let valid_votes = self
            .votes
            .iter()
            .filter(|v| self.core.config.contains(**v))
            .count();
        if valid_votes >= quorum {
            self.become_leader(out);
        }
    }

    fn become_leader(&mut self, out: &mut Actions<RaftMessage>) {
        self.core.role = Role::Leader;
        self.core.leader_hint = Some(self.core.id);
        out.observe(Observation::BecameLeader {
            term: self.core.current_term,
        });
        self.core.arm_lease();
        let start = self.core.log.last_index().next();
        self.next_index.clear();
        self.match_index.clear();
        for peer in self.core.config.iter().chain(self.learners.iter().copied()) {
            self.next_index.insert(peer, start);
            self.match_index.insert(peer, LogIndex::ZERO);
        }
        // Standard practice (Raft dissertation §6.4): commit a no-op of the
        // new term so earlier-term entries become committable.
        let id = self.core.fresh_id(out);
        let noop = LogEntry::noop(self.core.current_term, id);
        self.leader_append(noop, out);
        out.cancel_timer(TimerKind::Election);
        // Initial heartbeat immediately; steady-state dispatch stays
        // heartbeat-gated.
        self.dispatch_append_entries(out);
        out.set_timer(TimerKind::Heartbeat, self.core.timing.heartbeat);
    }

    fn dispatch_append_entries(&mut self, out: &mut Actions<RaftMessage>) {
        let last = self.core.log.last_index();
        let budget = self.core.timing.append_budget();
        // Group followers by nextIndex: one budgeted batch is assembled per
        // distinct resume point and the Arc-shared EntryList handle is
        // cloned per recipient, so the fan-out shares a single allocation.
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
            // A follower whose resume point fell below the first retained
            // index cannot be served from the log anymore: transfer the
            // compacted prefix as a snapshot instead (its ack moves
            // nextIndex above the horizon and replication resumes normally).
            if next < self.core.log.first_index() {
                if let Some(snapshot) = self.core.current_snapshot() {
                    for peer in peers {
                        out.send(
                            peer,
                            RaftMessage::InstallSnapshot {
                                term: self.core.current_term,
                                leader: self.core.id,
                                snapshot: snapshot.clone(),
                            },
                        );
                    }
                }
                continue;
            }
            let prev_index = next.prev_saturating();
            let prev_term = self.core.log.term_at(prev_index);
            let entries = if last >= next {
                self.core.log.collect_range_budgeted(next, last, budget)
            } else {
                EntryList::empty()
            };
            for peer in peers {
                out.send(
                    peer,
                    RaftMessage::AppendEntries {
                        term: self.core.current_term,
                        leader: self.core.id,
                        prev_index,
                        prev_term,
                        entries: entries.clone(),
                        leader_commit: self.core.commit_index,
                        probe: self.core.reads.probe(),
                    },
                );
            }
        }
    }

    /// Leader-side commit rule: the highest `k` with a classic quorum of
    /// `matchIndex ≥ k` and `log[k].term == currentTerm` becomes committed.
    fn advance_commit(&mut self, out: &mut Actions<RaftMessage>) {
        if self.core.role != Role::Leader {
            return;
        }
        let quorum = self.core.config.classic_quorum();
        let mut k = self.core.log.last_index();
        while k > self.core.commit_index {
            if self.core.log.term_at(k) == self.core.current_term {
                let acks = self
                    .core
                    .config
                    .iter()
                    .filter(|m| self.match_index.get(m).copied().unwrap_or(LogIndex::ZERO) >= k)
                    .count();
                if acks >= quorum {
                    break;
                }
            }
            k = k.prev();
        }
        if k > self.core.commit_index {
            self.set_commit_index(k, out);
        }
    }

    /// Advances the commit index. Inline mode (the default) applies the
    /// newly committed range on the spot; under [`Timing::pipelined_apply`]
    /// the range is merely queued — `(applied_index, commit_index]` — and
    /// the embedding drains it as a separate stage, so the leader can
    /// assemble the next AppendEntries while this range applies.
    fn set_commit_index(&mut self, new_commit: LogIndex, out: &mut Actions<RaftMessage>) {
        if new_commit <= self.core.commit_index {
            return;
        }
        self.core.commit_index = new_commit;
        if !self.core.timing.pipelined_apply {
            self.apply_to_commit(out);
        }
    }

    /// Applies every committed-but-unapplied entry, in commit order, with
    /// effects identical to the inline path: digest fold, session-table
    /// apply, proposer/gateway notifications, commit records, compaction,
    /// and the release of reads whose floor the state machine just reached.
    fn apply_to_commit(&mut self, out: &mut Actions<RaftMessage>) {
        while self.core.applied_index < self.core.commit_index {
            let k = self.core.applied_index.next();
            if let Some(entry) = self.core.log.get(k).cloned() {
                self.core.state_digest = fold_commit_digest(self.core.state_digest, k, entry.id);
                if entry.payload.is_config() {
                    out.observe(Observation::ConfigCommitted {
                        members: entry.as_config().map(Configuration::len).unwrap_or(0),
                    });
                }
                if !self.core.apply_client_write(k, &entry, out)
                    && entry.id.proposer == self.core.id
                {
                    self.core.proposals.remove(&entry.id);
                }
                self.core.evict_idle_sessions(k, out);
                out.commit(LogScope::Global, k, entry);
            }
            self.core.applied_index = k;
        }
        self.core.maybe_compact(out);
        self.core.release_applied_reads(out);
    }

    fn on_propose(
        &mut self,
        from: NodeId,
        id: EntryId,
        session: SessionId,
        seq: u64,
        data: Bytes,
        out: &mut Actions<RaftMessage>,
    ) {
        if self.core.role != Role::Leader {
            if from != self.core.id {
                self.core.redirect(from, session, seq, out);
            }
            return;
        }
        // Session dedup at the door: a seq the applied state already covers
        // is answered without touching the log — this is what survives
        // compaction and leader restarts (the table rides in the snapshot).
        if self.core.answer_applied(from, session, seq, false, out) {
            return;
        }
        if self.core.id_index.contains_key(&id) {
            // In-flight duplicate (gateway retried): already replicating.
            return;
        }
        // Stale write from an expired (evicted) session. This must run
        // *after* the in-flight dedup above, and the terminal refusal is
        // only trustworthy once this leader's applied table provably
        // covers every commit (`applied_session_state_current`): a fresh
        // leader's table merely *lags* until an entry of its own term
        // commits, so "expired" can be a false positive for a live
        // session whose writes are committed but not yet applied here —
        // terminally refusing then ("placed nowhere") while the placement
        // survives and later applies would have the client reopen a
        // session and resubmit, applying the op twice. Until current, the
        // answer is a plain Retry; once current, refusal is exact and
        // terminal (re-sending the same seq would loop forever), and any
        // same-pair placement still in the log under a different proposal
        // id is skipped by the authoritative apply-time check.
        if self.core.timing.session_ttl > 0 && self.core.sessions.is_expired_retry(session, seq) {
            let outcome = if self.core.applied_session_state_current() {
                ClientOutcome::SessionExpired
            } else {
                ClientOutcome::Retry
            };
            self.core.respond_client(from, session, seq, outcome, out);
            return;
        }
        // In-flight duplicate under a *different* proposal id (the gateway
        // restarted and re-submitted the same session seq): let it through —
        // apply-time dedup keeps the second commit a no-op.
        let entry = LogEntry::write(self.core.current_term, id, session, seq, data);
        self.leader_append(entry, out);
        // Dispatch stays heartbeat-gated; the entry travels on the next tick.
    }

    /// Leader door for an explicit session registration: the committed
    /// [`Payload::Register`] consumes seq 1 of the session, so a later
    /// eviction can never leave a re-appliable *data* write at the
    /// session's boundary (see [`ClientOp::Register`]).
    fn leader_register(&mut self, id: EntryId, session: SessionId, out: &mut Actions<RaftMessage>) {
        debug_assert_eq!(self.core.role, Role::Leader);
        // Idempotent re-register: seq 1 already applied for this session.
        if self
            .core
            .answer_applied(self.core.id, session, 1, true, out)
        {
            return;
        }
        if self.core.id_index.contains_key(&id) {
            // Already replicating (gateway retry).
            return;
        }
        // No expired-retry door: re-registering an evicted session is
        // harmless by construction — the registration carries no value, so
        // re-applying it merely re-opens an empty dedup window.
        let entry = LogEntry::register(self.core.current_term, id, session);
        self.leader_append(entry, out);
    }

    // ------------------------------------------------------------------
    // Linearizable reads (ReadIndex)
    // ------------------------------------------------------------------

    /// Leader side of a linearizable read: once an entry of this term has
    /// committed, the core serves the commit floor under the lease or
    /// confirms leadership with a heartbeat round before answering.
    fn register_read(
        &mut self,
        session: SessionId,
        seq: u64,
        reply_to: NodeId,
        out: &mut Actions<RaftMessage>,
    ) {
        debug_assert_eq!(self.core.role, Role::Leader);
        // A fresh leader's commit floor may lag entries committed by its
        // predecessor until the no-op of its own term commits (Raft §8):
        // until then the floor must not be served.
        if self.core.log.term_at(self.core.commit_index) != self.core.current_term {
            self.core
                .respond_client(reply_to, session, seq, ClientOutcome::Retry, out);
            return;
        }
        // Confirm now rather than waiting out the heartbeat period.
        if self.core.admit_read(session, seq, reply_to, out) {
            self.dispatch_append_entries(out);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append_entries(
        &mut self,
        from: NodeId,
        term: Term,
        leader: NodeId,
        prev_index: LogIndex,
        prev_term: Term,
        entries: EntryList,
        leader_commit: LogIndex,
        probe: u64,
        out: &mut Actions<RaftMessage>,
    ) {
        if term < self.core.current_term {
            out.send(
                from,
                RaftMessage::AppendEntriesReply {
                    term: self.core.current_term,
                    success: false,
                    match_index: LogIndex::ZERO,
                    probe: 0,
                    lease_until: SimTime::ZERO,
                },
            );
            return;
        }
        // Valid leader for this (possibly newer) term.
        if term > self.core.current_term || self.core.role != Role::Follower {
            self.become_follower(term, Some(leader), out);
        } else {
            self.core.leader_hint = Some(leader);
            self.reset_election_timer(out);
        }

        // Log-matching check.
        if !prev_index.is_zero() && self.core.log.term_at(prev_index) != prev_term {
            out.send(
                from,
                RaftMessage::AppendEntriesReply {
                    term: self.core.current_term,
                    success: false,
                    // Safe resume hint: everything committed here matches the
                    // leader (Invariant 1), so the leader can restart there.
                    match_index: self.core.commit_index,
                    probe,
                    // Even a failed append came from the valid leader of this
                    // term (checked above), so the vote-hold grant is sound —
                    // it keeps a briefly log-diverged follower from voiding
                    // its leader's lease mid-repair.
                    lease_until: self.core.emit_lease_grant(leader),
                },
            );
            return;
        }

        // Defensive ceiling (shared with consensus-core via
        // `wire::MAX_INSERT_WINDOW`): the dense log materializes the
        // addressed span as slots, so an absurd index from a corrupt peer
        // must be dropped, not allocated. Classic-Raft entries are
        // contiguous from prev_index, so a jump past the window is
        // malformed — stop processing the batch there.
        let insert_bound = self
            .core
            .log
            .last_index()
            .as_u64()
            .max(self.core.commit_index.as_u64())
            + MAX_INSERT_WINDOW;
        let mut last_new = prev_index;
        for (idx, entry) in entries.iter() {
            if idx.as_u64() > insert_bound {
                break;
            }
            // Entries at or below the commit index are already decided
            // (and possibly compacted away); writing there is never needed
            // and would violate the compaction horizon.
            if *idx > self.core.commit_index && self.core.log.term_at(*idx) != entry.term {
                if self.core.log.get(*idx).is_some() {
                    self.truncate_from(*idx, out);
                }
                self.insert_entry(*idx, entry.clone(), out);
            }
            last_new = *idx;
        }

        if leader_commit > self.core.commit_index {
            let new_commit = leader_commit.min(last_new);
            self.set_commit_index(new_commit, out);
        }

        out.send(
            from,
            RaftMessage::AppendEntriesReply {
                term: self.core.current_term,
                success: true,
                match_index: last_new,
                probe,
                lease_until: self.core.emit_lease_grant(leader),
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append_reply(
        &mut self,
        from: NodeId,
        term: Term,
        success: bool,
        match_index: LogIndex,
        probe: u64,
        lease_until: SimTime,
        out: &mut Actions<RaftMessage>,
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
            let m = self.match_index.entry(from).or_insert(LogIndex::ZERO);
            if match_index > *m {
                *m = match_index;
            }
            self.next_index.insert(from, match_index.next());
            self.advance_commit(out);
            // A current-term ack confirms leadership for ReadIndex rounds
            // registered at or before the echoed probe.
            self.core.note_read_ack(from, probe, out);
        } else {
            // Back off using the follower's hint (its commit index).
            self.next_index.insert(from, match_index.next());
        }
    }

    /// Follower side of a snapshot transfer: replace the compacted prefix
    /// wholesale and resume replication above it.
    fn on_install_snapshot(
        &mut self,
        from: NodeId,
        term: Term,
        leader: NodeId,
        snapshot: Snapshot,
        out: &mut Actions<RaftMessage>,
    ) {
        if term < self.core.current_term {
            self.core.ack_snapshot(from, LogIndex::ZERO, out);
            return;
        }
        if term > self.core.current_term || self.core.role != Role::Follower {
            self.become_follower(term, Some(leader), out);
        } else {
            self.core.leader_hint = Some(leader);
            self.reset_election_timer(out);
        }
        let Some(adopt_config) = self.core.begin_snapshot_install(from, &snapshot, out) else {
            return;
        };
        let last_index = snapshot.last_index;
        if adopt_config {
            self.core.config = snapshot.config.clone();
            self.core.config_index = last_index;
        }
        self.core.finish_snapshot_install(snapshot, out);
        self.core.ack_snapshot(from, last_index, out);
    }

    fn on_install_snapshot_reply(
        &mut self,
        from: NodeId,
        term: Term,
        last_index: LogIndex,
        out: &mut Actions<RaftMessage>,
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
        self.advance_commit(out);
    }

    fn on_request_vote(
        &mut self,
        from: NodeId,
        term: Term,
        candidate: NodeId,
        last_log_index: LogIndex,
        last_log_term: Term,
        out: &mut Actions<RaftMessage>,
    ) {
        // Non-members, lease holds and leaders with a live lease drop the
        // request without adopting its term.
        if self.core.refuses_vote_request(candidate, out) {
            return;
        }
        if term < self.core.current_term {
            out.send(
                from,
                RaftMessage::RequestVoteReply {
                    term: self.core.current_term,
                    granted: false,
                },
            );
            return;
        }
        if term > self.core.current_term {
            self.become_follower(term, None, out);
        }
        let my_last = self.core.log.last_index();
        let my_last_term = self.core.log.term_at(my_last);
        let up_to_date = (last_log_term, last_log_index) >= (my_last_term, my_last);
        let can_vote = self.core.voted_for.is_none() || self.core.voted_for == Some(candidate);
        let granted = up_to_date && can_vote;
        if granted {
            self.core.voted_for = Some(candidate);
            self.core.persist_term_vote(out);
            self.reset_election_timer(out);
        }
        out.send(
            from,
            RaftMessage::RequestVoteReply {
                term: self.core.current_term,
                granted,
            },
        );
    }

    fn on_vote_reply(
        &mut self,
        from: NodeId,
        term: Term,
        granted: bool,
        out: &mut Actions<RaftMessage>,
    ) {
        if term > self.core.current_term {
            self.become_follower(term, None, out);
            return;
        }
        if self.core.role != Role::Candidate || term < self.core.current_term || !granted {
            return;
        }
        self.votes.insert(from);
        self.maybe_win(out);
    }

    fn resend_pending(&mut self, out: &mut Actions<RaftMessage>) {
        if self.core.proposals.is_empty() {
            return;
        }
        let proposals: Vec<(EntryId, PendingWrite)> = self
            .core
            .proposals
            .iter()
            .map(|(id, w)| (*id, w.clone()))
            .collect();
        for (id, w) in proposals {
            self.route_write(id, w, out);
        }
        out.set_timer(TimerKind::ProposalRetry, self.core.timing.proposal_timeout);
    }

    /// Routes an in-flight session write: straight into the log at the
    /// leader, to the hinted leader otherwise, to every peer when no hint
    /// exists (non-leaders answer with a redirect).
    fn route_write(&mut self, id: EntryId, w: PendingWrite, out: &mut Actions<RaftMessage>) {
        if w.register {
            // Registration is leader-only: the Propose message carries no op
            // kind, so a non-leader gateway surfaces a redirect and the
            // client re-targets the hinted leader itself.
            if self.core.role == Role::Leader {
                self.leader_register(id, w.session, out);
            } else {
                self.core.respond_client(
                    self.core.id,
                    w.session,
                    w.seq,
                    ClientOutcome::Redirect {
                        leader_hint: self.core.leader_hint,
                    },
                    out,
                );
            }
            return;
        }
        if self.core.role == Role::Leader {
            self.on_propose(self.core.id, id, w.session, w.seq, w.data, out);
        } else if let Some(leader) = self.core.leader_hint {
            out.send(
                leader,
                RaftMessage::Propose {
                    id,
                    session: w.session,
                    seq: w.seq,
                    data: w.data,
                },
            );
        } else {
            let peers: Vec<NodeId> = self.core.config.peers(self.core.id).collect();
            out.send_many(
                peers,
                RaftMessage::Propose {
                    id,
                    session: w.session,
                    seq: w.seq,
                    data: w.data,
                },
            );
        }
    }
}

impl ConsensusProtocol for RaftNode {
    type Message = RaftMessage;

    fn id(&self) -> NodeId {
        self.core.id
    }

    fn set_local_clock(&mut self, now: SimTime) {
        self.core.local_now = now;
    }

    fn on_message(&mut self, from: NodeId, msg: RaftMessage, out: &mut Actions<RaftMessage>) {
        // Configuration filter: consensus messages from strangers are
        // ignored (§III-A). Client traffic is exempt: gateways need not be
        // voting members.
        match &msg {
            RaftMessage::Propose { .. }
            | RaftMessage::ClientRead { .. }
            | RaftMessage::ClientReply { .. } => {}
            _ => {
                if !self.core.config.contains(from) && !self.learners.contains(&from) {
                    out.observe(Observation::MessageIgnored {
                        reason: "sender not in configuration",
                    });
                    return;
                }
            }
        }
        match msg {
            RaftMessage::Propose {
                id,
                session,
                seq,
                data,
            } => self.on_propose(from, id, session, seq, data, out),
            RaftMessage::ClientRead { session, seq } => {
                if self.core.role == Role::Leader {
                    self.register_read(session, seq, from, out);
                } else {
                    self.core.redirect(from, session, seq, out);
                }
            }
            RaftMessage::ClientReply {
                session,
                seq,
                outcome,
            } => self.core.on_client_reply(session, seq, outcome, out),
            RaftMessage::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                leader_commit,
                probe,
            } => self.on_append_entries(
                from,
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                leader_commit,
                probe,
                out,
            ),
            RaftMessage::AppendEntriesReply {
                term,
                success,
                match_index,
                probe,
                lease_until,
            } => self.on_append_reply(from, term, success, match_index, probe, lease_until, out),
            RaftMessage::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(from, term, candidate, last_log_index, last_log_term, out),
            RaftMessage::RequestVoteReply { term, granted } => {
                self.on_vote_reply(from, term, granted, out)
            }
            RaftMessage::InstallSnapshot {
                term,
                leader,
                snapshot,
            } => self.on_install_snapshot(from, term, leader, snapshot, out),
            RaftMessage::InstallSnapshotReply { term, last_index } => {
                self.on_install_snapshot_reply(from, term, last_index, out)
            }
        }
    }

    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<RaftMessage>) {
        match kind {
            TimerKind::Election if self.core.role != Role::Leader => {
                self.start_election(out);
            }
            TimerKind::Heartbeat if self.core.role == Role::Leader => {
                self.dispatch_append_entries(out);
                out.set_timer(TimerKind::Heartbeat, self.core.timing.heartbeat);
            }
            TimerKind::ProposalRetry => self.resend_pending(out),
            _ => {}
        }
    }

    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<RaftMessage>) {
        let ClientRequest { session, seq, op } = req;
        match op {
            ClientOp::Write(data) => {
                // Applied already? Answer without proposing (retry-safe).
                if self
                    .core
                    .answer_applied(self.core.id, session, seq, false, out)
                {
                    return;
                }
                if self.core.client_writes.contains_key(&(session, seq)) {
                    // Already in flight: the retry timer keeps pushing it.
                    out.set_timer(TimerKind::ProposalRetry, self.core.timing.proposal_timeout);
                    return;
                }
                if self.core.refuses_expired_write(session, seq, out) {
                    return;
                }
                let id = self.core.fresh_id(out);
                let w = PendingWrite {
                    session,
                    seq,
                    data,
                    register: false,
                };
                self.core.proposals.insert(id, w.clone());
                self.core.client_writes.insert((session, seq), id);
                self.route_write(id, w, out);
                out.set_timer(TimerKind::ProposalRetry, self.core.timing.proposal_timeout);
            }
            ClientOp::Register => {
                let session = self.core.registered_session(session);
                if self
                    .core
                    .answer_applied(self.core.id, session, 1, true, out)
                {
                    return;
                }
                if self.core.client_writes.contains_key(&(session, 1)) {
                    out.set_timer(TimerKind::ProposalRetry, self.core.timing.proposal_timeout);
                    return;
                }
                let id = self.core.fresh_id(out);
                let w = PendingWrite {
                    session,
                    seq: 1,
                    data: Bytes::new(),
                    register: true,
                };
                self.core.proposals.insert(id, w.clone());
                self.core.client_writes.insert((session, 1), id);
                self.core
                    .client_ops
                    .insert((session, 1), ClientOp::Register);
                self.route_write(id, w, out);
                out.set_timer(TimerKind::ProposalRetry, self.core.timing.proposal_timeout);
            }
            // A single-level deployment has one log: the local and global
            // commit floors coincide, so both stale consistencies answer
            // from `commit_index` immediately.
            ClientOp::Read(Consistency::StaleLocal)
            | ClientOp::Read(Consistency::StaleGlobal) => {
                out.observe(Observation::ClientResponse {
                    session,
                    seq,
                    outcome: ClientOutcome::ReadOk {
                        scope: LogScope::Global,
                        commit_floor: self.core.commit_index,
                    },
                });
            }
            ClientOp::Read(Consistency::Linearizable) => {
                if self.core.role == Role::Leader {
                    self.core
                        .client_ops
                        .insert((session, seq), ClientOp::Read(Consistency::Linearizable));
                    self.register_read(session, seq, self.core.id, out);
                } else if let Some(leader) = self.core.leader_hint {
                    self.core
                        .client_ops
                        .insert((session, seq), ClientOp::Read(Consistency::Linearizable));
                    out.send(leader, RaftMessage::ClientRead { session, seq });
                } else {
                    // No leader known: tell the caller to retry after a
                    // backoff (an election is likely in progress).
                    out.observe(Observation::ClientResponse {
                        session,
                        seq,
                        outcome: ClientOutcome::Retry,
                    });
                }
            }
        }
    }

    fn bootstrap(&mut self, out: &mut Actions<RaftMessage>) {
        self.reset_election_timer(out);
    }

    fn pending_applies(&self) -> u64 {
        self.core.commit_index.as_u64() - self.core.applied_index.as_u64()
    }

    fn drain_applies(&mut self, out: &mut Actions<RaftMessage>) {
        self.apply_to_commit(out);
    }
}
