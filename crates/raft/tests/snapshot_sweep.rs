//! The gateway sweep after a snapshot install answers its pending writes in
//! `(session, seq)` order, whatever order its in-flight index iterates in.

use bytes::Bytes;
use des::SimRng;
use raft::{RaftMessage, RaftNode, Timing};
use wire::{
    Actions, ClientOutcome, ClientRequest, Configuration, ConsensusProtocol, LogIndex, LogScope,
    NodeId, Observation, SessionId, SessionTable, Snapshot, Term,
};

const SESSIONS: u64 = 40;

#[test]
fn snapshot_install_answers_pending_writes_in_key_order() {
    let cfg: Configuration = (0..3).map(NodeId).collect();
    let mut node = RaftNode::new(
        NodeId(1),
        cfg.clone(),
        Timing::lan(),
        SimRng::seed_from_u64(7),
    );
    let mut out = Actions::new();
    // Submit in a scrambled session order, with varying seqs.
    let mut keys: Vec<(SessionId, u64)> = (0..SESSIONS)
        .map(|i| (SessionId::client((i * 37) % SESSIONS + 1), 1 + i % 3))
        .collect();
    for &(session, seq) in &keys {
        node.on_client_request(
            ClientRequest::write(session, seq, Bytes::from_static(b"v")),
            &mut out,
        );
    }
    assert_eq!(node.pending_proposals(), SESSIONS as usize);

    // A leader's snapshot whose session table covers every pending write.
    let mut sessions = SessionTable::new();
    for (i, &(session, seq)) in keys.iter().enumerate() {
        sessions.apply(session, seq, LogIndex(i as u64 + 1));
    }
    let snapshot = Snapshot {
        scope: LogScope::Global,
        last_index: LogIndex(SESSIONS),
        last_term: Term(1),
        config: cfg,
        state: Snapshot::digest_state(0),
        sessions,
    };
    let mut out = Actions::new();
    node.on_message(
        NodeId(0),
        RaftMessage::InstallSnapshot {
            term: Term(1),
            leader: NodeId(0),
            snapshot,
        },
        &mut out,
    );

    let answered: Vec<(SessionId, u64)> = out
        .observations
        .iter()
        .filter_map(|o| match o {
            Observation::ClientResponse {
                session,
                seq,
                outcome: ClientOutcome::Duplicate { .. },
            } => Some((*session, *seq)),
            _ => None,
        })
        .collect();
    keys.sort();
    assert_eq!(
        answered, keys,
        "sweep answers must come out in (session, seq) order"
    );
    assert_eq!(node.pending_proposals(), 0);
}
