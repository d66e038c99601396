//! Survivor-local checkpoint mirror: the fast restore lane of single-rank
//! recovery.
//!
//! When a rank dies mid-run, *every* rank rolls back to the last
//! group-committed safe point — the rejoined newcomer restores its shard
//! over the network from the root's durable store, but the survivors
//! already streamed that exact shard generation out of their own memory
//! moments ago. [`MirrorTransport`] is a record-level tee: every full shard
//! record a rank puts is streamed to the network medium and, on the same
//! pass, into one of two local [`MemTransport`] slots (two, because a rank
//! can have saved generation `N+1` while the group commit still points at
//! `N` — the torn-checkpoint case). A survivor's count-pinned restore
//! ([`CkptTransport::read_shard_at`]) is then a local memory read instead
//! of a root round-trip, so recovery traffic scales with the *one* lost
//! shard, not the whole aggregate.
//!
//! The network medium stays the durability authority: its commit result is
//! what the caller sees, and every other record and read goes to it
//! directly; the local tee is opportunistic. A failed or abandoned network
//! put wipes the mirror — after a fault the local generations can no
//! longer be trusted to match what the root will serve, and a stale hit
//! here would restore state diverging from the group. Delta records are
//! not mirrored: a shard delta wipes the mirror (a chain over a mirrored
//! base would make the local generation's merged count drift from its
//! slot key), and restores fall through to the network.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ppar_ckpt::store::Snapshot;
use ppar_ckpt::transport::{Chains, CkptTransport, RawRecordKind, RawRecordSink, RecordVisitor};
use ppar_ckpt::{MemTransport, PutStats, SnapshotIo};
use ppar_core::error::Result;

/// Which local slot holds which shard generation (see module docs).
#[derive(Default)]
struct MirrorState {
    /// Safe-point count held by each slot (`None` = slot empty/stale).
    counts: [Option<u64>; 2],
    /// Slot the next full-shard save overwrites (the older generation).
    next: usize,
}

/// A [`CkptTransport`] that forwards everything to an inner (network)
/// medium while teeing full shard records into two alternating local
/// in-memory generations, serving count-pinned shard restores locally
/// when a generation matches. See the [module docs](self).
pub struct MirrorTransport {
    net: Arc<dyn CkptTransport>,
    slots: [MemTransport; 2],
    state: Mutex<MirrorState>,
    local_hits: AtomicU64,
}

impl MirrorTransport {
    /// Wrap `net`, mirroring full shard saves locally.
    pub fn new(net: Arc<dyn CkptTransport>) -> MirrorTransport {
        MirrorTransport {
            net,
            slots: [MemTransport::new(), MemTransport::new()],
            state: Mutex::new(MirrorState::default()),
            local_hits: AtomicU64::new(0),
        }
    }

    /// Count-pinned restores served from the local mirror so far (the
    /// recovery bench asserts survivor restores stay off the network).
    pub fn local_hits(&self) -> u64 {
        self.local_hits.load(Ordering::Relaxed)
    }

    /// Drop both local generations (a fault boundary: the network medium
    /// is the only trusted source until the next successful save).
    fn wipe(&self) {
        let mut st = self.state.lock();
        st.counts = [None, None];
        st.next = 0;
        for slot in &self.slots {
            slot.clear();
        }
    }
}

/// A full shard put streamed to the network medium and the mirror slot on
/// the same pass.
struct TeeSink<'a> {
    mirror: &'a MirrorTransport,
    slot: usize,
    key: RawRecordKind,
    net: Box<dyn RawRecordSink + 'a>,
    /// `None` once the local copy failed: that only disables the fast lane.
    local: Option<Box<dyn RawRecordSink + 'a>>,
}

impl RawRecordSink for TeeSink<'_> {
    fn write_chunk(&mut self, chunk: &[u8]) -> Result<()> {
        self.net.write_chunk(chunk)?;
        if let Some(local) = &mut self.local {
            if local.write_chunk(chunk).is_err() {
                self.local = None;
            }
        }
        Ok(())
    }

    fn commit(self: Box<Self>) -> Result<u64> {
        let tee = *self;
        let written = tee.net.commit().inspect_err(|_| tee.mirror.wipe())?;
        let slot = &tee.mirror.slots[tee.slot];
        let count = tee
            .local
            .and_then(|local| local.commit().ok())
            .and_then(|_| slot.peek_count(tee.key).ok().flatten());
        let mut st = tee.mirror.state.lock();
        st.counts[tee.slot] = count;
        match count {
            Some(_) => st.next = tee.slot ^ 1,
            None => slot.clear(),
        }
        Ok(written)
    }

    fn abort(self: Box<Self>) {
        let mirror = self.mirror;
        drop(self);
        mirror.wipe();
    }

    fn checksummed(&self) -> bool {
        self.net.checksummed()
    }
}

impl CkptTransport for MirrorTransport {
    fn describe(&self) -> &'static str {
        "mirror"
    }

    fn begin_put<'a>(
        &'a self,
        key: RawRecordKind,
        len_hint: u64,
    ) -> Result<Box<dyn RawRecordSink + 'a>> {
        match key {
            RawRecordKind::Shard(_) => {
                // The slot about to be overwritten holds the older
                // generation; evicting it first lets the put reuse its
                // buffer.
                let slot = {
                    let mut st = self.state.lock();
                    let slot = st.next;
                    st.counts[slot] = None;
                    slot
                };
                self.slots[slot].clear();
                let net = self
                    .net
                    .begin_put(key, len_hint)
                    .inspect_err(|_| self.wipe())?;
                Ok(Box::new(TeeSink {
                    mirror: self,
                    slot,
                    key,
                    net,
                    local: self.slots[slot].begin_put(key, len_hint).ok(),
                }))
            }
            RawRecordKind::ShardDelta { .. } => {
                self.wipe();
                self.net.begin_put(key, len_hint)
            }
            _ => self.net.begin_put(key, len_hint),
        }
    }

    fn read_record(
        &self,
        key: RawRecordKind,
        max: usize,
        visit: &mut RecordVisitor<'_>,
    ) -> Result<bool> {
        self.net.read_record(key, max, visit)
    }

    fn remove_deltas(&self, chains: Chains) -> Result<()> {
        self.net.remove_deltas(chains)
    }

    fn commit_group(&self, count: u64) -> Result<()> {
        self.net.commit_group(count)
    }

    fn committed_count(&self) -> Result<Option<u64>> {
        self.net.committed_count()
    }

    fn read_shard_at(&self, rank: u32, count: u64) -> Result<Option<Snapshot>> {
        let slot = {
            let st = self.state.lock();
            st.counts.iter().position(|c| *c == Some(count))
        };
        if let Some(i) = slot {
            if let Some(snap) = self.slots[i].read_merged_shard(rank)? {
                if snap.count == count {
                    self.local_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(snap));
                }
            }
        }
        self.net.read_shard_at(rank, count)
    }

    fn take_put_stats(&self) -> PutStats {
        self.net.take_put_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_ckpt::delta::DeltaMeta;
    use ppar_ckpt::store::{DeltaSource, FieldSource, SnapshotMeta};
    use ppar_core::error::PparError;

    fn shard_meta(count: u64, rank: u32) -> SnapshotMeta {
        SnapshotMeta {
            mode_tag: "tcp4".into(),
            count,
            rank: Some(rank),
            nranks: 4,
        }
    }

    fn put(t: &MirrorTransport, count: u64, rank: u32, payload: &[u8]) {
        t.put_shard(
            &shard_meta(count, rank),
            &[("G", FieldSource::Bytes(payload))],
            &mut Vec::new(),
        )
        .unwrap();
    }

    #[test]
    fn serves_last_two_generations_locally() {
        let net = Arc::new(MemTransport::new());
        let mirror = MirrorTransport::new(net.clone());
        put(&mirror, 10, 2, &[1u8; 64]);
        put(&mirror, 20, 2, &[2u8; 64]);
        put(&mirror, 30, 2, &[3u8; 64]);

        // The two newest generations hit the mirror...
        assert_eq!(
            mirror.read_shard_at(2, 30).unwrap().unwrap().field("G"),
            Some(&[3u8; 64][..])
        );
        assert_eq!(
            mirror.read_shard_at(2, 20).unwrap().unwrap().field("G"),
            Some(&[2u8; 64][..])
        );
        assert_eq!(mirror.local_hits(), 2);

        // ...the evicted one falls through to the network store, whose
        // chain tip (30) no longer matches — the count pin catches it.
        assert!(mirror.read_shard_at(2, 10).is_err());
        assert_eq!(mirror.local_hits(), 2);
    }

    #[test]
    fn network_put_failure_wipes_the_mirror() {
        struct FailNext {
            inner: MemTransport,
            fail: std::sync::atomic::AtomicBool,
        }
        impl CkptTransport for FailNext {
            fn describe(&self) -> &'static str {
                "failnext"
            }
            fn begin_put<'a>(
                &'a self,
                key: RawRecordKind,
                len_hint: u64,
            ) -> Result<Box<dyn RawRecordSink + 'a>> {
                if self.fail.swap(false, Ordering::SeqCst) {
                    return Err(PparError::Network("peer rank 0 is down".into()));
                }
                self.inner.begin_put(key, len_hint)
            }
            fn read_record(
                &self,
                key: RawRecordKind,
                max: usize,
                visit: &mut RecordVisitor<'_>,
            ) -> Result<bool> {
                self.inner.read_record(key, max, visit)
            }
            fn remove_deltas(&self, chains: Chains) -> Result<()> {
                self.inner.remove_deltas(chains)
            }
        }

        let net = Arc::new(FailNext {
            inner: MemTransport::new(),
            fail: std::sync::atomic::AtomicBool::new(false),
        });
        let mirror = MirrorTransport::new(net.clone());
        put(&mirror, 10, 1, &[7u8; 32]);
        assert_eq!(mirror.read_shard_at(1, 10).unwrap().unwrap().count, 10);
        assert_eq!(mirror.local_hits(), 1);

        net.fail.store(true, Ordering::SeqCst);
        let err = mirror.put_shard(
            &shard_meta(20, 1),
            &[("G", FieldSource::Bytes(&[8u8; 32]))],
            &mut Vec::new(),
        );
        assert!(err.is_err());

        // The mirror is gone; the restore goes to the network store
        // (which still holds generation 10 from the first save).
        assert_eq!(mirror.read_shard_at(1, 10).unwrap().unwrap().count, 10);
        assert_eq!(mirror.local_hits(), 1, "no further local hits");
    }

    #[test]
    fn delta_saves_disable_the_mirror() {
        let net = Arc::new(MemTransport::new());
        let mirror = MirrorTransport::new(net);
        put(&mirror, 10, 3, &[1u8; 16]);
        let dm = DeltaMeta {
            mode_tag: "tcp4".into(),
            count: 20,
            base_count: 10,
            seq: 1,
            rank: Some(3),
            nranks: 4,
        };
        mirror
            .put_shard_delta(
                &dm,
                &[("G", DeltaSource::Full(FieldSource::Bytes(&[2u8; 16])))],
                &mut Vec::new(),
            )
            .unwrap();
        // Count 10 would now under-serve the merged chain: the mirror
        // must not answer.
        assert_eq!(mirror.read_shard_at(3, 20).unwrap().unwrap().count, 20);
        assert_eq!(mirror.local_hits(), 0);
    }
}
