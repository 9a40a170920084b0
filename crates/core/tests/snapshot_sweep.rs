//! The gateway sweep after a snapshot install answers its pending writes
//! and registrations in `(session, seq)` order, whatever order its
//! in-flight index iterates in.

use bytes::Bytes;
use consensus_core::{FastRaftMessage, FastRaftNode};
use des::SimRng;
use raft::Timing;
use wire::{
    Actions, ClientOutcome, ClientRequest, Configuration, ConsensusProtocol, LogIndex, LogScope,
    NodeId, Observation, SessionId, SessionTable, Snapshot, Term,
};

const SESSIONS: u64 = 40;

#[test]
fn snapshot_install_answers_pending_requests_in_key_order() {
    let cfg: Configuration = (0..5).map(NodeId).collect();
    let mut node = FastRaftNode::new(
        NodeId(1),
        cfg.clone(),
        Timing::lan(),
        SimRng::seed_from_u64(7),
    );
    let mut out = Actions::new();
    // Submit in a scrambled session order: every fourth session registers,
    // the rest write at varying seqs.
    let mut keys: Vec<(SessionId, u64, bool)> = (0..SESSIONS)
        .map(|i| {
            let session = SessionId::client((i * 37) % SESSIONS + 1);
            if i % 4 == 0 {
                (session, 1, true)
            } else {
                (session, 1 + i % 3, false)
            }
        })
        .collect();
    for &(session, seq, register) in &keys {
        let req = if register {
            ClientRequest::register(session)
        } else {
            ClientRequest::write(session, seq, Bytes::from_static(b"v"))
        };
        node.on_client_request(req, &mut out);
    }

    // A leader's snapshot whose session table covers every pending request.
    let mut sessions = SessionTable::new();
    for (i, &(session, seq, _)) in keys.iter().enumerate() {
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
        FastRaftMessage::InstallSnapshot {
            term: Term(1),
            leader: NodeId(0),
            snapshot,
        },
        &mut out,
    );

    let answered: Vec<(SessionId, u64, bool)> = out
        .observations
        .iter()
        .filter_map(|o| match o {
            Observation::ClientResponse {
                session,
                seq,
                outcome,
            } => match outcome {
                ClientOutcome::Duplicate { .. } => Some((*session, *seq, false)),
                ClientOutcome::Registered { .. } => Some((*session, *seq, true)),
                _ => None,
            },
            _ => None,
        })
        .collect();
    keys.sort();
    assert_eq!(
        answered, keys,
        "sweep answers must come out in (session, seq) order"
    );
}
