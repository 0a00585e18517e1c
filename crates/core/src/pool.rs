//! The unordered request pool (§3.2, §5).
//!
//! With replication separated from ordering, every node receives client
//! requests directly from the multicast group and parks them here, keyed by
//! the R2P2 3-tuple, until an `append_entries` assigns them a log position.
//! Entries that never get ordered (e.g. the multicast reached this node but
//! the leader dropped the request) are garbage-collected after a timeout;
//! early GC is safe — it merely re-triggers the recovery protocol (§5).
//!
//! Bodies of *ordered* requests move to a retained archive so the node can
//! serve `recovery_request`s from peers that missed the multicast, and so
//! the applier can execute entries in log order.

use fxhash::{FxHashMap, FxHashSet};

use bytes::Bytes;
use r2p2::ReqId;

use crate::cmd::OpKind;

/// A parked client request.
#[derive(Clone, Debug)]
pub struct PooledReq {
    /// Operation kind from the request's POLICY field.
    pub kind: OpKind,
    /// Request payload.
    pub body: Bytes,
    /// Arrival time (ns), for GC.
    pub arrived: u64,
}

/// The unordered set plus the ordered-body archive.
#[derive(Clone, Default)]
pub struct UnorderedPool {
    unordered: FxHashMap<ReqId, PooledReq>,
    archive: FxHashMap<ReqId, PooledReq>,
    /// Dedupe tombstones for bodies dropped by snapshot compaction: id →
    /// compaction time. The archive doubles as the duplicate-suppression
    /// set, so a body cannot simply vanish when its log entry is compacted
    /// — a delayed duplicate or client retry would get re-ordered and
    /// re-executed. Tombstones keep the id (16 bytes, no body) until the
    /// GC timeout expires them, which bounds memory by the request rate
    /// times the timeout instead of the full history.
    compacted: FxHashMap<ReqId, u64>,
    /// Ids bound to a slot of a restored log suffix whose body this
    /// incarnation has not seen yet (see [`UnorderedPool::bind_restored`]).
    /// Ordered like the archive, but bodiless until a copy arrives.
    restored: FxHashSet<ReqId>,
}

impl UnorderedPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks a client request awaiting ordering. Duplicate arrivals (e.g.
    /// client retries) keep the first copy. Returns whether the request
    /// awaits ordering: false if it is already bound to a log slot — a
    /// duplicate of an archived or compacted request is dropped, and the
    /// first copy of a request bound by a restored log suffix goes
    /// straight to the archive.
    pub fn insert(&mut self, id: ReqId, kind: OpKind, body: Bytes, now: u64) -> bool {
        if self.archive.contains_key(&id) || self.compacted.contains_key(&id) {
            return false;
        }
        let req = PooledReq {
            kind,
            body,
            arrived: now,
        };
        if self.restored.remove(&id) {
            self.archive.insert(id, req);
            return false;
        }
        self.unordered.entry(id).or_insert(req);
        true
    }

    /// True if the request is available (unordered or archived).
    pub fn contains(&self, id: ReqId) -> bool {
        self.unordered.contains_key(&id) || self.archive.contains_key(&id)
    }

    /// True if the request has already been bound to a log slot (it sits in
    /// the archive, was compacted out of it by a snapshot, or is bound by
    /// a restored log suffix). Used for duplicate suppression on the
    /// leader.
    pub fn is_archived(&self, id: ReqId) -> bool {
        self.archive.contains_key(&id)
            || self.compacted.contains_key(&id)
            || self.restored.contains(&id)
    }

    /// Looks up a request body wherever it lives.
    pub fn get(&self, id: ReqId) -> Option<&PooledReq> {
        self.unordered.get(&id).or_else(|| self.archive.get(&id))
    }

    /// Marks a request as ordered: moves it from the unordered set to the
    /// archive (it is now referenced by a log entry and must outlive GC so
    /// peers can recover it). Returns false if the body is missing — the
    /// caller should start recovery.
    pub fn mark_ordered(&mut self, id: ReqId) -> bool {
        if self.archive.contains_key(&id) || self.compacted.contains_key(&id) {
            return true;
        }
        match self.unordered.remove(&id) {
            Some(r) => {
                self.archive.insert(id, r);
                true
            }
            None => false,
        }
    }

    /// Inserts a body recovered from a peer directly into the archive.
    pub fn insert_recovered(&mut self, id: ReqId, kind: OpKind, body: Bytes, now: u64) {
        self.unordered.remove(&id);
        self.restored.remove(&id);
        self.archive.entry(id).or_insert(PooledReq {
            kind,
            body,
            arrived: now,
        });
    }

    /// Garbage-collects unordered requests **strictly older** than
    /// `timeout` ns: an entry aged exactly `timeout` survives, one aged
    /// `timeout + 1` is collected (boundary pinned by
    /// `gc_boundary_is_strictly_older_than`).
    /// Returns how many were collected.
    pub fn gc(&mut self, now: u64, timeout: u64) -> usize {
        let before = self.unordered.len();
        self.unordered
            .retain(|_, r| now.saturating_sub(r.arrived) <= timeout);
        // Compaction tombstones expire on the same boundary: by then every
        // client retry and delayed duplicate of the request has died out.
        self.compacted
            .retain(|_, t| now.saturating_sub(*t) <= timeout);
        before - self.unordered.len()
    }

    /// Number of requests awaiting ordering.
    pub fn unordered_len(&self) -> usize {
        self.unordered.len()
    }

    /// Ids of all requests awaiting ordering, sorted (deterministic across
    /// replicas). A new leader proposes these — requests the failed leader
    /// received but never ordered (§5).
    pub fn unordered_ids(&self) -> Vec<ReqId> {
        let mut ids: Vec<ReqId> = self.unordered.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of ordered (archived) request bodies retained.
    pub fn archived_len(&self) -> usize {
        self.archive.len()
    }

    /// Ids of all live (unexpired) compaction tombstones.
    pub fn tombstone_ids(&self) -> Vec<ReqId> {
        self.compacted.keys().copied().collect()
    }

    /// Number of live (unexpired) compaction tombstones.
    pub fn tombstone_len(&self) -> usize {
        self.compacted.len()
    }

    /// Seeds the dedupe tombstones carried inside an installed snapshot:
    /// every id is marked ordered-and-compacted, and any parked unordered
    /// or archived copy this node still holds is dropped. This is what
    /// makes snapshot installation safe for exactly-one-reply: an
    /// installer that never received the log entries below the snapshot
    /// horizon has no way to enumerate their ids from its own log, so
    /// without the carried set a request covered by the snapshot could
    /// linger in its unordered pool — and a later leader election would
    /// re-propose (and re-execute) it via [`UnorderedPool::unordered_ids`].
    /// Returns how many parked bodies were dropped.
    pub fn seed_tombstones(&mut self, ids: &[ReqId], now: u64) -> usize {
        let mut dropped = 0;
        for id in ids {
            self.restored.remove(id);
            if self.unordered.remove(id).is_some() {
                dropped += 1;
            }
            if self.archive.remove(id).is_some() {
                dropped += 1;
            }
            self.compacted.entry(*id).or_insert(now);
        }
        dropped
    }

    /// Marks the ids bound in a log suffix restored by a crash–restart as
    /// ordered. The new incarnation's pool starts empty, so without this a
    /// late copy of such a request (a client retry, a delayed multicast)
    /// would be parked as unordered — and once this node leads, ordered a
    /// second time at a fresh index (§5's "order what the old leader left
    /// unordered" pass, or plain duplicate suppression on arrival). Ids
    /// the pool already tracks keep their state; an unordered copy moves
    /// to the archive.
    pub fn bind_restored(&mut self, ids: impl IntoIterator<Item = ReqId>) {
        for id in ids {
            if !self.mark_ordered(id) {
                self.restored.insert(id);
            }
        }
    }

    /// Feeds the pool's full content into `h` for model-checker state
    /// fingerprints: all three maps as id-sorted vectors, arrival times as
    /// ages relative to `now` (only age drives GC behaviour).
    ///
    /// The restored-id set is left out on purpose. It only changes what a
    /// client `Request` for a restored id does, and the model checker
    /// hands each request to the nodes live at injection, once and never
    /// again, so no incarnation restored after the injection can receive
    /// it. States that differ only in this set therefore have identical
    /// futures. Hash it too if a scope ever gains client retries.
    pub fn hash_state(&self, now: u64, h: &mut dyn std::hash::Hasher) {
        fn side(map: &FxHashMap<ReqId, PooledReq>, now: u64, h: &mut dyn std::hash::Hasher) {
            let mut reqs: Vec<(u64, &PooledReq)> =
                map.iter().map(|(id, r)| (id.as_u64(), r)).collect();
            reqs.sort_unstable_by_key(|&(id, _)| id);
            h.write_usize(reqs.len());
            for (id, r) in reqs {
                h.write_u64(id);
                h.write_u8(r.kind as u8);
                h.write(&r.body);
                h.write_u64(now.saturating_sub(r.arrived));
            }
        }
        side(&self.unordered, now, h);
        side(&self.archive, now, h);
        let mut tombs: Vec<(u64, u64)> = self
            .compacted
            .iter()
            .map(|(id, &t)| (id.as_u64(), now.saturating_sub(t)))
            .collect();
        tombs.sort_unstable();
        h.write_usize(tombs.len());
        for (id, age) in tombs {
            h.write_u64(id);
            h.write_u64(age);
        }
    }

    /// Drops the archived bodies of the given ordered requests, leaving
    /// dedupe tombstones behind (expired by [`UnorderedPool::gc`]). Called
    /// when a snapshot compacts the log entries referencing them: peers
    /// that still need those operations receive the snapshot
    /// (InstallSnapshot) instead of per-request body recovery, so the
    /// bodies can finally leave memory. This is the payload half of the
    /// dual compaction schedule — bodies and ordering metadata compact
    /// independently. Returns how many bodies were dropped.
    pub fn compact_archive(&mut self, ids: &[ReqId], now: u64) -> usize {
        let before = self.archive.len();
        for id in ids {
            if self.archive.remove(id).is_some() || self.restored.remove(id) {
                self.compacted.insert(*id, now);
            }
        }
        before - self.archive.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u16) -> ReqId {
        ReqId::new(1, 1, n)
    }

    fn body() -> Bytes {
        Bytes::from_static(b"req")
    }

    #[test]
    fn insert_then_order() {
        let mut p = UnorderedPool::new();
        p.insert(id(1), OpKind::ReadWrite, body(), 0);
        assert!(p.contains(id(1)));
        assert_eq!(p.unordered_len(), 1);
        assert!(p.mark_ordered(id(1)));
        assert_eq!(p.unordered_len(), 0);
        assert_eq!(p.archived_len(), 1);
        assert!(p.contains(id(1)), "still serveable for recovery");
    }

    #[test]
    fn ordering_a_missing_request_fails() {
        let mut p = UnorderedPool::new();
        assert!(!p.mark_ordered(id(9)));
    }

    #[test]
    fn mark_ordered_is_idempotent() {
        let mut p = UnorderedPool::new();
        p.insert(id(1), OpKind::ReadOnly, body(), 0);
        assert!(p.mark_ordered(id(1)));
        assert!(p.mark_ordered(id(1)));
        assert_eq!(p.archived_len(), 1);
    }

    #[test]
    fn duplicate_insert_keeps_first() {
        let mut p = UnorderedPool::new();
        p.insert(id(1), OpKind::ReadWrite, Bytes::from_static(b"first"), 0);
        p.insert(id(1), OpKind::ReadWrite, Bytes::from_static(b"second"), 5);
        assert_eq!(&p.get(id(1)).unwrap().body[..], b"first");
    }

    #[test]
    fn insert_after_archive_is_ignored() {
        let mut p = UnorderedPool::new();
        p.insert(id(1), OpKind::ReadWrite, body(), 0);
        p.mark_ordered(id(1));
        p.insert(id(1), OpKind::ReadWrite, Bytes::from_static(b"late dup"), 9);
        assert_eq!(p.unordered_len(), 0);
        assert_eq!(&p.get(id(1)).unwrap().body[..], b"req");
    }

    #[test]
    fn gc_only_touches_unordered() {
        let mut p = UnorderedPool::new();
        p.insert(id(1), OpKind::ReadWrite, body(), 0);
        p.insert(id(2), OpKind::ReadWrite, body(), 500);
        p.mark_ordered(id(1));
        let n = p.gc(1200, 600);
        assert_eq!(n, 1, "only the stale unordered one");
        assert!(p.contains(id(1)), "archived survives GC");
        assert!(!p.contains(id(2)));
    }

    #[test]
    fn gc_boundary_is_strictly_older_than() {
        // Pins the documented boundary: "older than timeout" means an entry
        // aged exactly `timeout` is still alive, and is collected one
        // nanosecond later.
        let mut p = UnorderedPool::new();
        p.insert(id(1), OpKind::ReadWrite, body(), 1000);
        assert_eq!(p.gc(1000 + 600, 600), 0, "age == timeout survives");
        assert!(p.contains(id(1)));
        assert_eq!(p.gc(1000 + 601, 600), 1, "age == timeout + 1 collected");
        assert!(!p.contains(id(1)));
    }

    #[test]
    fn archive_compaction_drops_bodies_but_keeps_dedupe() {
        let mut p = UnorderedPool::new();
        for n in 1..=3 {
            p.insert(id(n), OpKind::ReadWrite, body(), 0);
            p.mark_ordered(id(n));
        }
        assert_eq!(p.compact_archive(&[id(1), id(2), id(9)], 100), 2);
        assert!(!p.contains(id(1)), "body is gone");
        assert!(p.contains(id(3)), "uncompacted body survives");
        // The tombstone still suppresses duplicates: a delayed copy or a
        // client retry of a compacted request must not be re-ordered and
        // re-executed (exactly-one-reply).
        assert!(p.is_archived(id(1)));
        p.insert(id(1), OpKind::ReadWrite, Bytes::from_static(b"dup"), 200);
        assert_eq!(p.unordered_len(), 0);
        assert!(p.mark_ordered(id(1)), "treated as already ordered");
        // Tombstones expire on the GC boundary, bounding their memory.
        p.gc(100 + 601, 600);
        assert!(!p.is_archived(id(1)));
    }

    #[test]
    fn seeded_tombstones_purge_parked_copies_and_suppress_duplicates() {
        let mut p = UnorderedPool::new();
        // A copy of a snapshot-covered request is still parked unordered
        // (this node never saw the entry that ordered it).
        p.insert(id(1), OpKind::ReadWrite, body(), 0);
        // Another covered request sits archived locally.
        p.insert(id(2), OpKind::ReadWrite, body(), 0);
        p.mark_ordered(id(2));
        assert_eq!(p.seed_tombstones(&[id(1), id(2), id(7)], 50), 2);
        assert_eq!(p.unordered_len(), 0, "no re-proposal candidate remains");
        assert_eq!(p.archived_len(), 0);
        assert!(p.is_archived(id(1)), "tombstone suppresses late duplicates");
        assert!(p.is_archived(id(7)));
        p.insert(id(1), OpKind::ReadWrite, Bytes::from_static(b"dup"), 60);
        assert_eq!(p.unordered_len(), 0);
        let mut ids = p.tombstone_ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![id(1), id(2), id(7)]);
        // Seeded tombstones expire on the normal GC boundary.
        p.gc(50 + 601, 600);
        assert!(!p.is_archived(id(7)));
    }

    #[test]
    fn restored_ids_are_ordered_and_archive_their_first_copy() {
        let mut p = UnorderedPool::new();
        // A parked copy of a restored id is already in hand: archive it.
        p.insert(id(1), OpKind::ReadWrite, body(), 0);
        p.bind_restored([id(1), id(2), id(3)]);
        assert_eq!(p.unordered_len(), 0);
        assert_eq!(p.archived_len(), 1);
        assert!(p.unordered_ids().is_empty(), "nothing left to re-propose");
        assert!(p.is_archived(id(2)), "bound ids suppress re-ordering");
        // Bodiless until a copy arrives: AppendEntries still recovers it.
        assert!(!p.mark_ordered(id(2)));
        assert!(p.get(id(2)).is_none());
        // A client retry of a bound id is stored, not parked.
        assert!(!p.insert(id(2), OpKind::ReadWrite, body(), 5));
        assert_eq!(p.unordered_len(), 0);
        assert!(p.mark_ordered(id(2)));
        assert_eq!(&p.get(id(2)).unwrap().body[..], b"req");
        // A compacted bound id leaves a tombstone behind.
        p.compact_archive(&[id(3)], 9);
        assert_eq!(p.tombstone_ids(), vec![id(3)]);
        assert!(
            p.insert(id(4), OpKind::ReadWrite, body(), 10),
            "fresh ids park"
        );
    }

    #[test]
    fn recovered_bodies_land_in_archive() {
        let mut p = UnorderedPool::new();
        p.insert_recovered(id(3), OpKind::ReadOnly, body(), 7);
        assert_eq!(p.unordered_len(), 0);
        assert_eq!(p.archived_len(), 1);
        assert!(p.mark_ordered(id(3)));
    }
}
