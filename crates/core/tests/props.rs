//! Property-based tests of the HovercRaft components: the in-network
//! aggregator's register semantics and the replier ledger's bounded-queue
//! invariant, under arbitrary event sequences.

use bytes::Bytes;
use hovercraft::{
    Aggregator, Cmd, EntryDesc, OpKind, PolicyKind, ReplierLedger, UnorderedPool, WireMsg,
};
use proptest::prelude::*;
use r2p2::ReqId;
use raft::{Entry, LogIndex, Message, RaftId};

fn ae(term: u64, prev: LogIndex, n: usize) -> WireMsg {
    let entries = (0..n)
        .map(|i| Entry {
            term,
            index: prev + 1 + i as u64,
            cmd: Cmd::meta(EntryDesc::new(
                ReqId::new(1, 1, (prev as u16).wrapping_add(i as u16)),
                0,
                OpKind::ReadWrite,
            )),
        })
        .collect();
    WireMsg::Raft(Message::AppendEntries {
        term,
        leader: 0,
        prev_log_index: prev,
        prev_log_term: term,
        entries,
        leader_commit: 0,
    })
}

fn reply(term: u64, m: LogIndex, from: RaftId) -> WireMsg {
    WireMsg::Raft(Message::AppendEntriesReply {
        term,
        success: true,
        match_index: m,
        conflict_index: 0,
        applied_index: m,
        from,
    })
}

proptest! {
    /// The aggregator's commit register is monotone within a term, never
    /// exceeds the announced horizon, and fan-out never targets the leader.
    #[test]
    fn aggregator_register_invariants(
        events in proptest::collection::vec((0u8..4, 0u64..30, 1u32..5), 1..200),
    ) {
        let mut agg = Aggregator::new(vec![0, 1, 2, 3, 4]);
        let mut horizon = 0u64; // highest index ever announced this term
        let mut last_commit = 0u64;
        let mut term = 1u64;
        for (kind, val, node) in events {
            match kind {
                0 => {
                    // Leader announces entries [horizon+1, horizon+k].
                    let k = (val % 4) as usize;
                    let out = agg.on_packet(0, ae(term, horizon, k));
                    for (dst, _) in &out {
                        prop_assert_ne!(*dst, 0, "fan-out must exclude the leader");
                    }
                    horizon += k as u64;
                }
                1 => {
                    // Follower acks some match index ≤ horizon.
                    let m = val.min(horizon);
                    let _ = agg.on_packet(node, reply(term, m, node));
                }
                2 => {
                    // New term: flush, registers restart.
                    term += 1;
                    let _ = agg.on_packet(0, ae(term, horizon, 0));
                    last_commit = 0;
                }
                _ => {
                    // Stale-term garbage must be inert.
                    let _ = agg.on_packet(node, reply(term.saturating_sub(1), val, node));
                }
            }
            prop_assert!(agg.commit() <= horizon, "commit beyond announcements");
            if kind != 2 {
                prop_assert!(agg.commit() >= last_commit, "commit regressed");
            }
            last_commit = agg.commit();
        }
    }

    /// Ledger depth always equals the exact count of assigned-but-unapplied
    /// entries, and `pick` never selects a node at or over the bound.
    #[test]
    fn ledger_bounded_queue_invariant(
        ops in proptest::collection::vec((0u8..2, 0u32..3, 1u64..200), 1..300),
        b in 1usize..16,
    ) {
        use rand::SeedableRng;
        let mut ledger = ReplierLedger::new();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        // Ground truth: per node, the set of assigned indices > applied.
        let mut assigned: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut applied = [0u64; 3];
        let mut next_idx = 1u64;
        for (kind, node, val) in ops {
            let node = node as usize;
            match kind {
                0 => {
                    // Try to assign the next entry via pick().
                    if let Some(r) =
                        ledger.pick(&[0, 1, 2], b, PolicyKind::Jbsq, &mut rng, 0, u64::MAX)
                    {
                        prop_assert!(
                            ledger.depth(r) < b,
                            "picked node at bound"
                        );
                        ledger.assign(r, next_idx);
                        assigned[r as usize].push(next_idx);
                        next_idx += 1;
                    } else {
                        // No eligible node: every node must be at the bound.
                        for n in 0..3u32 {
                            prop_assert!(ledger.depth(n) >= b);
                        }
                    }
                }
                _ => {
                    // Node reports applied progress.
                    let new_applied = applied[node].max(val.min(next_idx));
                    applied[node] = new_applied;
                    ledger.observe_applied(node as RaftId, new_applied);
                    assigned[node].retain(|&i| i > new_applied);
                }
            }
            for (n, a) in assigned.iter().enumerate() {
                prop_assert_eq!(
                    ledger.depth(n as RaftId),
                    a.len(),
                    "depth mismatch for node {}",
                    n
                );
            }
        }
    }

    /// The unordered pool: archives never lose bodies, GC touches only the
    /// unordered side, and `mark_ordered` is exactly once per id.
    #[test]
    fn pool_lifecycle_invariants(
        ops in proptest::collection::vec((0u8..4, 0u16..64, 0u64..1_000), 1..300),
    ) {
        let mut pool = UnorderedPool::new();
        let mut archived = std::collections::HashSet::new();
        let mut now = 0u64;
        for (kind, rid, t) in ops {
            now += t;
            let id = ReqId::new(5, 5, rid);
            match kind {
                0 => {
                    pool.insert(id, OpKind::ReadWrite, Bytes::from_static(b"x"), now);
                }
                1 => {
                    if pool.mark_ordered(id) {
                        archived.insert(id);
                    }
                }
                2 => {
                    pool.gc(now, 100);
                }
                _ => {
                    pool.insert_recovered(id, OpKind::ReadOnly, Bytes::from_static(b"y"), now);
                    archived.insert(id);
                }
            }
            // Every archived id remains retrievable (recovery serving).
            for a in &archived {
                prop_assert!(pool.get(*a).is_some(), "archived body lost");
                prop_assert!(pool.is_archived(*a));
            }
            prop_assert_eq!(pool.archived_len(), archived.len());
        }
    }
}
