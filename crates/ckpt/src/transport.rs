//! The checkpoint record seam: where encoded records live.
//!
//! A [`CkptTransport`] is a *medium*: it stores opaque, already-encoded
//! records under a [`RawRecordKind`] key and knows nothing of what they
//! mean. Four media ship:
//!
//! * [`crate::store::CheckpointStore`] — a checkpoint directory in the flat
//!   or the content-addressed layout (crash/restart persistence);
//! * [`MemTransport`] — an in-memory object map: the state hand-off behind
//!   **live reshape** (no process exit, no disk round-trip) and disk-free
//!   checkpointing;
//! * `ppar_net::NetTransport` — a client of the root rank's durable medium,
//!   reached over the fabric;
//! * `ppar_net::MirrorTransport` — a record-level tee that keeps a rank's
//!   last two shard generations in memory beside the network medium.
//!
//! Everything that interprets record bytes — the snapshot and delta
//! encoders, delta-chain merging, the restart target, count-pinned reads,
//! merged-record streaming — is written once above this seam, in
//! [`crate::snapshot`]. So a snapshot handed off in memory matches the file
//! a disk save of the same state produces byte for byte, except the CRC
//! trailer: whether a medium stores a real trailer or the in-memory zero
//! trailer is the medium's property ([`RawRecordSink::checksummed`]).
//!
//! The contract every medium keeps:
//!
//! * a put streams into a [`RawRecordSink`]; commit is atomic, and an abort
//!   or a dropped sink keeps the previous record under the key;
//! * a read hands out one record's bytes — borrowed where the medium can
//!   ([`MemTransport`] is zero-copy), bounded to a prefix for header peeks,
//!   or streamed into a writer with a valid trailer
//!   ([`CkptTransport::copy_record`], the checkpoint service's restore
//!   path).

use std::collections::HashMap;
use std::io::Write;

use parking_lot::Mutex;

use ppar_core::error::{PparError, Result};

use crate::cas::{ChunkRef, PutStats};
use crate::crc::Crc32;
use crate::delta::DeltaMeta;
use crate::store::{Snapshot, SnapshotView};

/// The key one record is stored under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RawRecordKind {
    /// The master (mode-independent) full snapshot.
    Master,
    /// One rank's shard full snapshot.
    Shard(u32),
    /// The retained previous generation of one rank's shard (media that
    /// rotate the committed generation aside on a shard save; see
    /// [`CkptTransport::read_shard_at`]).
    PrevShard(u32),
    /// Delta `seq` of the master chain.
    MasterDelta {
        /// 1-based chain position.
        seq: u32,
    },
    /// Delta `seq` of one rank's chain.
    ShardDelta {
        /// Owning rank.
        rank: u32,
        /// 1-based chain position.
        seq: u32,
    },
}

impl RawRecordKind {
    /// The base (full) record of a chain: the master (`None`) or rank `r`'s
    /// shard.
    pub fn base(rank: Option<u32>) -> RawRecordKind {
        match rank {
            None => RawRecordKind::Master,
            Some(r) => RawRecordKind::Shard(r),
        }
    }

    /// Delta `seq` of the chain over [`RawRecordKind::base`]`(rank)`.
    pub fn delta(rank: Option<u32>, seq: u32) -> RawRecordKind {
        match rank {
            None => RawRecordKind::MasterDelta { seq },
            Some(rank) => RawRecordKind::ShardDelta { rank, seq },
        }
    }
}

/// Which delta chains [`CkptTransport::remove_deltas`] deletes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chains {
    /// The chain over one base: the master (`None`) or rank `r`'s shard
    /// (promotion GC, after a new base is persisted).
    Of(Option<u32>),
    /// Every chain (fresh-run hygiene).
    All,
}

impl Chains {
    /// Is `key` a delta of one of these chains?
    pub fn covers(self, key: RawRecordKind) -> bool {
        match (self, key) {
            (Chains::All, RawRecordKind::MasterDelta { .. } | RawRecordKind::ShardDelta { .. }) => {
                true
            }
            (Chains::Of(None), RawRecordKind::MasterDelta { .. }) => true,
            (Chains::Of(Some(r)), RawRecordKind::ShardDelta { rank, .. }) => r == rank,
            _ => false,
        }
    }
}

/// [`CkptTransport::read_record`]'s bound for reading the whole record.
pub const WHOLE_RECORD: usize = usize::MAX;

/// What a medium hands one record's bytes to. The flag is `true` when the
/// bytes are already integrity-checked (in-process memory, or a stream whose
/// CRC was verified on arrival); otherwise the reader verifies the trailing
/// CRC.
pub type RecordVisitor<'v> = dyn FnMut(&[u8], bool) -> Result<()> + 'v;

/// Incremental sink for one record arriving as *already-encoded* bytes.
/// Chunks are the record's encoded bytes in order, trailing CRC included.
/// An aborted or dropped sink must leave the medium's previous record for
/// the same key intact.
pub trait RawRecordSink: Send {
    /// Append the next chunk of encoded record bytes.
    fn write_chunk(&mut self, chunk: &[u8]) -> Result<()>;
    /// Record complete (and, on the service path, integrity-verified):
    /// install it atomically. Returns total record bytes.
    fn commit(self: Box<Self>) -> Result<u64>;
    /// Discard the partial record (encode error, stream error or CRC
    /// mismatch); the previously installed record, if any, stays.
    fn abort(self: Box<Self>);
    /// Does the medium keep the record's real CRC trailer? In-process
    /// memory does not (the trailer is zero and the encoder skips the CRC
    /// pass); every durable or remote medium does.
    fn checksummed(&self) -> bool {
        true
    }
}

/// Chunk-dedup install handshake for one record whose chunk references
/// arrived ahead of its bytes (the dedup-aware wire path — see
/// [`CkptTransport::begin_raw_dedup`]). The sink already holds every chunk
/// *not* listed by [`DedupRecordSink::missing`]; the caller supplies the
/// missing chunks' bytes in listed order, each verified against its
/// announced content digest, then commits. An aborted or dropped sink
/// leaves the previous record for the same key intact.
pub trait DedupRecordSink: Send {
    /// Indexes (into the announced chunk list) whose bytes the caller must
    /// supply, in this order.
    fn missing(&self) -> &[u32];
    /// Supply the bytes of the next missing chunk (digest-verified).
    fn supply_chunk(&mut self, bytes: &[u8]) -> Result<()>;
    /// Every missing chunk supplied: promote the record atomically.
    /// Returns total record bytes.
    fn commit(self: Box<Self>) -> Result<u64>;
    /// Discard the in-flight record; the previously installed record, if
    /// any, stays.
    fn abort(self: Box<Self>);
}

/// A checkpoint medium: opaque records under [`RawRecordKind`] keys. See
/// the [module docs](self) for the contract; [`crate::snapshot::SnapshotIo`]
/// gives every medium its snapshot and delta operations.
pub trait CkptTransport: Send + Sync {
    /// Short human-readable tag for reports (`"file"`, `"memory"`).
    fn describe(&self) -> &'static str;

    /// Begin writing the record under `key`. `len_hint` is the expected
    /// record size (0 when unknown) — a pre-sizing hint only, never trusted
    /// as a bound. Nothing is visible under `key` until the sink commits.
    fn begin_put<'a>(
        &'a self,
        key: RawRecordKind,
        len_hint: u64,
    ) -> Result<Box<dyn RawRecordSink + 'a>>;

    /// Hand the record under `key` — its first `max` bytes, or all of it
    /// with [`WHOLE_RECORD`] — to `visit`. Returns `Ok(false)` when no
    /// record exists. A bounded read is a header peek: it never loads the
    /// payload.
    fn read_record(
        &self,
        key: RawRecordKind,
        max: usize,
        visit: &mut RecordVisitor<'_>,
    ) -> Result<bool>;

    /// Stream the record under `key` into `out` with a valid CRC trailer;
    /// returns the bytes written, `Ok(None)` when absent. The default
    /// copies the whole-record read verbatim — right for media that keep
    /// the real trailer.
    fn copy_record(&self, key: RawRecordKind, out: &mut dyn Write) -> Result<Option<u64>> {
        let mut written = 0;
        let found = self.read_record(key, WHOLE_RECORD, &mut |bytes, _| {
            out.write_all(bytes)?;
            written = bytes.len() as u64;
            Ok(())
        })?;
        Ok(found.then_some(written))
    }

    /// Delete every delta of `chains`.
    fn remove_deltas(&self, chains: Chains) -> Result<()>;

    /// Advance the group-commit point to safe point `count`: every shard of
    /// the group is durable at `count` (the engine's post-save barrier has
    /// completed). The default is a no-op: media that keep no commit point
    /// commit atomically on every put.
    fn commit_group(&self, _count: u64) -> Result<()> {
        Ok(())
    }

    /// The group-commit point, when the medium keeps one (`None` before
    /// the first commit, and always for media that keep none).
    fn committed_count(&self) -> Result<Option<u64>> {
        Ok(None)
    }

    /// Load rank `rank`'s shard *at exactly* safe-point `count`. Restores
    /// pass the replay target here so a torn group checkpoint (one rank
    /// died mid-save, its peers already committed a newer generation) is
    /// detected instead of silently installing inconsistent state. The
    /// default merges the current generation up to `count` and falls back
    /// to the retained previous generation, erroring when neither lands on
    /// `count`; media that can serve it more cheaply (one network round
    /// trip, a local mirror) override it.
    fn read_shard_at(&self, rank: u32, count: u64) -> Result<Option<Snapshot>> {
        crate::snapshot::shard_at(self, rank, count)
    }

    /// Drain the chunk-dedup counters accumulated by this medium's write
    /// paths since the last drain. Zero for media without a
    /// content-addressed store; the checkpoint module folds the result
    /// into [`crate::CkptStats`] after every save.
    fn take_put_stats(&self) -> PutStats {
        PutStats::default()
    }

    /// Begin a chunk-dedup install of one already-encoded record from its
    /// announced chunk references (`chunks`, summing to `total_len` record
    /// bytes). Returns `Ok(None)` when the medium has no content-addressed
    /// store — callers fall back to [`CkptTransport::begin_put`] and ship
    /// the whole record. The returned sink reports which chunks it lacks,
    /// so a wire caller ships only novel bytes.
    fn begin_raw_dedup<'a>(
        &'a self,
        _key: RawRecordKind,
        _chunks: &[ChunkRef],
        _total_len: u64,
    ) -> Result<Option<Box<dyn DedupRecordSink + 'a>>> {
        Ok(None)
    }
}

/// Cap a sender-supplied record-size hint before using it as an
/// allocation size (a hint is advisory; a bogus huge one must not OOM the
/// service).
pub fn clamp_record_hint(len_hint: u64) -> usize {
    len_hint.min(1 << 28) as usize
}

// ---------------------------------------------------------------------------
// in-memory medium
// ---------------------------------------------------------------------------

/// An in-memory checkpoint medium: the record bytes a
/// [`crate::store::CheckpointStore`] would put on disk, held in a process
/// memory object map instead.
///
/// This is the hand-off vehicle for **live reshape**: at a safe-point
/// crossing the engine streams a mode-independent master snapshot into a
/// `MemTransport`, the run retargets (new team shape, new aggregate shape,
/// even a different engine family), and the successor installs the state
/// straight from memory — no process exit, no disk round-trip. It also
/// serves disk-free checkpointing for benches.
///
/// Records are stored unchecksummed (zero CRC trailer — integrity checking
/// guards durable media, not a buffer handed across a reshape within one
/// address space) and read back zero-copy. Puts build the new record in a
/// recycled buffer and swap it in at commit, so a failed save keeps the
/// previous record.
#[derive(Default)]
pub struct MemTransport {
    records: Mutex<HashMap<RawRecordKind, Vec<u8>>>,
    /// Retired record buffers recycled into new puts: repeated saves then
    /// run at warm-page copy speed instead of faulting a fresh multi-MiB
    /// mapping in per checkpoint.
    spare: Mutex<Vec<Vec<u8>>>,
}

/// Buffers kept in the recycle pool (beyond this, retired buffers are
/// simply freed).
const SPARE_POOL_CAP: usize = 8;

/// Total *capacity* the recycle pool may retain. The count cap alone let a
/// large job pin up to eight multi-GiB record buffers for the life of the
/// transport; bounding retained bytes caps that at a fixed footprint while
/// still keeping steady-state checkpointing allocation-free for records up
/// to tens of MiB.
const SPARE_POOL_MAX_BYTES: usize = 256 << 20;

impl MemTransport {
    /// An empty in-memory transport.
    pub fn new() -> MemTransport {
        MemTransport::default()
    }

    /// Raw encoded bytes of the currently held master snapshot, if any
    /// (byte-equality assertions against the file-backed store).
    pub fn master_bytes(&self) -> Option<Vec<u8>> {
        self.record_bytes(RawRecordKind::Master)
    }

    /// Raw encoded bytes of any held record (byte-equality assertions in
    /// tests and benches — e.g. streamed installs against local puts).
    pub fn record_bytes(&self, kind: RawRecordKind) -> Option<Vec<u8>> {
        self.records.lock().get(&kind).cloned()
    }

    /// Drop every held record; their buffers go back to the recycle pool.
    pub fn clear(&self) {
        let old: Vec<Vec<u8>> = self.records.lock().drain().map(|(_, b)| b).collect();
        for buf in old {
            self.recycle(buf);
        }
    }

    /// Return a retired record buffer to the recycle pool. Retention is
    /// bounded in count *and* bytes (see [`SPARE_POOL_MAX_BYTES`]): after
    /// a large job the pool must not pin multi-GiB buffers forever.
    fn recycle(&self, mut buf: Vec<u8>) {
        let mut pool = self.spare.lock();
        let retained: usize = pool.iter().map(Vec::capacity).sum();
        if pool.len() < SPARE_POOL_CAP
            && buf.capacity() > 0
            && retained.saturating_add(buf.capacity()) <= SPARE_POOL_MAX_BYTES
        {
            buf.clear();
            pool.push(buf);
        }
    }
}

/// A put into process memory: chunks append to a recycled buffer; commit
/// zeroes the CRC trailer (the in-memory convention — in-process reads are
/// trusted) and swaps the record in atomically.
struct MemRawSink<'a> {
    mem: &'a MemTransport,
    kind: RawRecordKind,
    buf: Vec<u8>,
}

impl RawRecordSink for MemRawSink<'_> {
    fn write_chunk(&mut self, chunk: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(chunk);
        Ok(())
    }

    fn commit(mut self: Box<Self>) -> Result<u64> {
        let mut buf = std::mem::take(&mut self.buf);
        // Structural sanity before the swap: a wrong-kind record must not
        // displace a good one (the checkpoint service may have routed a
        // CRC-valid record to the wrong key).
        let (rank, seq) = match self.kind {
            RawRecordKind::Master => (None, None),
            RawRecordKind::Shard(r) | RawRecordKind::PrevShard(r) => (Some(r), None),
            RawRecordKind::MasterDelta { seq } => (None, Some(seq)),
            RawRecordKind::ShardDelta { rank, seq } => (Some(rank), Some(seq)),
        };
        let found = match seq {
            None => (SnapshotView::decode_trusted(&buf)?.rank, None),
            Some(_) => {
                let meta = DeltaMeta::decode_head(&buf)?;
                (meta.rank, Some(meta.seq))
            }
        };
        if found != (rank, seq) {
            return Err(PparError::CorruptCheckpoint(format!(
                "install for {:?} received a rank {:?} seq {:?} record",
                self.kind, found.0, found.1
            )));
        }
        let n = buf.len();
        buf[n - 4..].fill(0);
        if let Some(old) = self.mem.records.lock().insert(self.kind, buf) {
            self.mem.recycle(old);
        }
        Ok(n as u64)
    }

    fn abort(self: Box<Self>) {}

    fn checksummed(&self) -> bool {
        false
    }
}

impl Drop for MemRawSink<'_> {
    fn drop(&mut self) {
        // Abort or failed commit: the partial buffer goes back to the pool.
        self.mem.recycle(std::mem::take(&mut self.buf));
    }
}

impl CkptTransport for MemTransport {
    fn describe(&self) -> &'static str {
        "memory"
    }

    fn begin_put<'a>(
        &'a self,
        key: RawRecordKind,
        len_hint: u64,
    ) -> Result<Box<dyn RawRecordSink + 'a>> {
        let mut buf = self.spare.lock().pop().unwrap_or_default();
        buf.reserve(clamp_record_hint(len_hint));
        Ok(Box::new(MemRawSink {
            mem: self,
            kind: key,
            buf,
        }))
    }

    fn read_record(
        &self,
        key: RawRecordKind,
        max: usize,
        visit: &mut RecordVisitor<'_>,
    ) -> Result<bool> {
        let records = self.records.lock();
        let Some(bytes) = records.get(&key) else {
            return Ok(false);
        };
        visit(&bytes[..bytes.len().min(max)], true)?;
        Ok(true)
    }

    /// The stored trailer is zero: the body is copied through in
    /// cache-sized blocks with the CRC folded in on the same pass, and the
    /// real trailer appended.
    fn copy_record(&self, key: RawRecordKind, out: &mut dyn Write) -> Result<Option<u64>> {
        let records = self.records.lock();
        let Some(bytes) = records.get(&key) else {
            return Ok(None);
        };
        let mut crc = Crc32::new();
        for block in bytes[..bytes.len() - 4].chunks(256 << 10) {
            crc.update(block);
            out.write_all(block)?;
        }
        out.write_all(&crc.finish().to_le_bytes())?;
        Ok(Some(bytes.len() as u64))
    }

    fn remove_deltas(&self, chains: Chains) -> Result<()> {
        self.records.lock().retain(|key, _| !chains.covers(*key));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotIo;
    use crate::store::{CheckpointStore, FieldSource, SnapshotMeta};
    use ppar_core::shared::SharedVec;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ppar_transport_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn meta(count: u64, rank: Option<u32>) -> SnapshotMeta {
        SnapshotMeta {
            mode_tag: "smp4".into(),
            count,
            rank,
            nranks: 1,
        }
    }

    /// The transport contract: for identical content, the in-memory record
    /// equals the file the disk store writes byte-for-byte except the
    /// 4-byte CRC trailer (zero in memory — the checksum pass guards the
    /// durable medium only), and both decode to the same snapshot.
    #[test]
    fn mem_bytes_equal_file_bytes_modulo_trailer() {
        let dir = tmpdir("golden");
        let store = CheckpointStore::new(&dir).unwrap();
        let mem = MemTransport::new();
        let v = SharedVec::from_vec((0..512).map(|i| (i as f64).sin()).collect());
        let m = meta(3, None);
        let fields: Vec<(&str, FieldSource<'_>)> = vec![("G", FieldSource::Cell(&v))];
        let on_disk = store.put_master(&m, &fields, &mut Vec::new()).unwrap();
        let in_mem = mem.put_master(&m, &fields, &mut Vec::new()).unwrap();
        assert_eq!(on_disk, in_mem);
        let file = std::fs::read(dir.join("ckpt_master.bin")).unwrap();
        let record = mem.master_bytes().unwrap();
        assert_eq!(record.len(), file.len());
        assert_eq!(record[..record.len() - 4], file[..file.len() - 4]);
        assert_eq!(&record[record.len() - 4..], &[0, 0, 0, 0]);
        assert_eq!(
            mem.read_merged_master().unwrap().unwrap(),
            store.read_merged_master().unwrap().unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sample_snapshot(count: u64, rank: Option<u32>) -> Snapshot {
        Snapshot {
            mode_tag: "smp4".into(),
            count,
            rank,
            nranks: 1,
            fields: vec![
                ("G".into(), (0..9000u32).map(|i| i as u8).collect()),
                ("energy".into(), 42.0f64.to_le_bytes().to_vec()),
            ],
        }
    }

    /// Shard and delta kinds route to the right keys through the raw sink.
    #[test]
    #[allow(clippy::single_range_in_vec_init)] // ranges here are span data
    fn raw_sink_routes_shards_and_deltas() {
        let t = MemTransport::new();
        let shard = sample_snapshot(4, Some(2));
        let wire = shard.encode();
        let mut sink = t.begin_put(RawRecordKind::Shard(2), 0).unwrap();
        sink.write_chunk(&wire).unwrap();
        sink.commit().unwrap();
        assert_eq!(t.read_merged_shard(2).unwrap().unwrap(), shard);

        // Kind/record mismatch is rejected before any swap.
        let mut sink = t.begin_put(RawRecordKind::Shard(9), 0).unwrap();
        sink.write_chunk(&wire).unwrap();
        assert!(sink.commit().is_err());
        assert!(t.read_merged_shard(9).unwrap().is_none());

        // A delta routed to the wrong chain position is rejected too.
        let dm = crate::delta::DeltaMeta {
            mode_tag: "smp4".into(),
            count: 5,
            base_count: 4,
            seq: 1,
            rank: Some(2),
            nranks: 1,
        };
        let patch = [9u8; 8];
        let source = crate::store::DeltaSource::DirtyBytes {
            full_len: 9000,
            ranges: &[16..24],
            payload: &patch,
        };
        let (_, wire) =
            crate::snapshot::encode_delta(Vec::new(), &dm, &[("G", source)], &mut Vec::new(), true)
                .unwrap();
        let mut sink = t
            .begin_put(RawRecordKind::ShardDelta { rank: 2, seq: 3 }, 0)
            .unwrap();
        sink.write_chunk(&wire).unwrap();
        assert!(sink.commit().is_err());
        let mut sink = t
            .begin_put(RawRecordKind::ShardDelta { rank: 2, seq: 1 }, 0)
            .unwrap();
        sink.write_chunk(&wire).unwrap();
        sink.commit().unwrap();
        assert_eq!(t.read_merged_shard(2).unwrap().unwrap().count, 5);
    }

    proptest::proptest! {
        /// The acceptance-criterion property: for random field mixes, the
        /// in-memory transport round-trip is byte-identical to a file-backed
        /// save + load of the same content (shared golden encoder on the
        /// way in, shared reader + chain rules on the way out).
        #[test]
        fn prop_mem_roundtrip_matches_file_roundtrip(
            fields in proptest::collection::vec(
                ("[a-z]{1,8}", proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600)),
                0..6,
            ),
            count in 0u64..1_000_000,
        ) {
            let dir = tmpdir("prop");
            let store = CheckpointStore::new(&dir).unwrap();
            let mem = MemTransport::new();
            let m = SnapshotMeta { mode_tag: "hyb2x4".into(), count, rank: None, nranks: 2 };
            let refs: Vec<(&str, FieldSource<'_>)> = fields
                .iter()
                .map(|(n, b)| (n.as_str(), FieldSource::Bytes(b.as_slice())))
                .collect();
            store.put_master(&m, &refs, &mut Vec::new()).unwrap();
            mem.put_master(&m, &refs, &mut Vec::new()).unwrap();

            // Byte-identical records modulo the CRC trailer (zero in
            // memory; the shared golden encoder produced everything else)...
            let file = std::fs::read(dir.join("ckpt_master.bin")).unwrap();
            let record = mem.master_bytes().unwrap();
            proptest::prop_assert_eq!(record.len(), file.len());
            proptest::prop_assert_eq!(&record[..record.len() - 4], &file[..file.len() - 4]);
            // ...and identical decoded snapshots through each side's reader:
            // the round-trip is byte-identical per field.
            let from_file = store.read_merged_master().unwrap().unwrap();
            let from_mem = mem.read_merged_master().unwrap().unwrap();
            proptest::prop_assert_eq!(from_file, from_mem);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
