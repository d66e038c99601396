//! The snapshot layer: what a checkpoint record *means*, written once above
//! the keyed-record medium seam ([`CkptTransport`]).
//!
//! A medium stores opaque, already-encoded records under a
//! [`RawRecordKind`] key. Everything that interprets those bytes lives here
//! and runs unchanged on every medium:
//!
//! * **puts** — full and delta records stream through one
//!   [`SnapshotWriter`] path straight into the medium's [`RawRecordSink`]
//!   (no record-sized buffer on the way); an encode error aborts the sink,
//!   so the previous record under the key survives;
//! * **merged reads** — a base record with its delta chain folded in, with
//!   a borrowed fast path when no chain is pending (zero-copy on
//!   [`crate::MemTransport`]);
//! * **the restart target** — the group-commit point when the medium keeps
//!   one, else the chain tip over the master (or shard 0) base, walked
//!   through bounded header reads so no payload is loaded;
//! * **count-pinned reads** with the previous-generation fallback (the
//!   default of [`CkptTransport::read_shard_at`]);
//! * **merged-record streaming** for the checkpoint service's restore path;
//! * the `PPARPRG1` **progress read**.
//!
//! The layer is the [`SnapshotIo`] extension trait, implemented for every
//! medium (and every `dyn CkptTransport`), so callers write
//! `transport.put_master(..)` whatever the medium.

use std::io::{self, Write};

use ppar_core::error::{PparError, Result};
use ppar_core::runtime::{RegionCursor, PROGRESS_FIELD};

use crate::delta::{DeltaMeta, DeltaSnapshot};
use crate::store::{
    peek_record_count, DeltaSource, FieldSource, Snapshot, SnapshotMeta, SnapshotView,
    SnapshotWriter,
};
use crate::transport::{CkptTransport, RawRecordKind, RawRecordSink, WHOLE_RECORD};

/// Bytes a header peek reads: magic, mode tag and counts of either record
/// format fit comfortably (mode tags are short strings).
const HEAD_BYTES: usize = 4096;

/// Snapshot and delta records over any [`CkptTransport`] medium. See the
/// [module docs](self).
pub trait SnapshotIo: CkptTransport {
    /// Stream a master (mode-independent) full snapshot; returns bytes
    /// written. `scratch` buffers length-unknown cells and is reused across
    /// calls.
    fn put_master(
        &self,
        meta: &SnapshotMeta,
        fields: &[(&str, FieldSource<'_>)],
        scratch: &mut Vec<u8>,
    ) -> Result<u64> {
        debug_assert!(meta.rank.is_none(), "master snapshot must have rank None");
        put_full(self, RawRecordKind::Master, meta, fields, scratch)
    }

    /// Stream one element's shard full snapshot; returns bytes written.
    fn put_shard(
        &self,
        meta: &SnapshotMeta,
        fields: &[(&str, FieldSource<'_>)],
        scratch: &mut Vec<u8>,
    ) -> Result<u64> {
        let rank = meta
            .rank
            .ok_or_else(|| PparError::InvalidPlan("shard snapshot needs a rank".into()))?;
        put_full(self, RawRecordKind::Shard(rank), meta, fields, scratch)
    }

    /// Stream a master delta record; returns bytes written.
    fn put_master_delta(
        &self,
        meta: &DeltaMeta,
        fields: &[(&str, DeltaSource<'_>)],
        scratch: &mut Vec<u8>,
    ) -> Result<u64> {
        debug_assert!(meta.rank.is_none(), "master delta must have rank None");
        put_delta(self, meta, fields, scratch)
    }

    /// Stream one element's shard delta record; returns bytes written.
    fn put_shard_delta(
        &self,
        meta: &DeltaMeta,
        fields: &[(&str, DeltaSource<'_>)],
        scratch: &mut Vec<u8>,
    ) -> Result<u64> {
        if meta.rank.is_none() {
            return Err(PparError::InvalidPlan("shard delta needs a rank".into()));
        }
        put_delta(self, meta, fields, scratch)
    }

    /// Load the master snapshot with its delta chain folded in (per field
    /// byte-identical to a full snapshot of the same state).
    fn read_merged_master(&self) -> Result<Option<Snapshot>> {
        read_merged(self, None)
    }

    /// Load rank `rank`'s shard with its delta chain folded in.
    fn read_merged_shard(&self, rank: u32) -> Result<Option<Snapshot>> {
        read_merged(self, Some(rank))
    }

    /// Run `install` over the merged master snapshot. With no delta chain
    /// pending the view borrows the record bytes the medium hands out (the
    /// live-reshape resume fast path: one copy, record → cells). Returns
    /// `Ok(false)` when no master snapshot exists.
    fn with_merged_master(
        &self,
        install: &mut dyn FnMut(&SnapshotView<'_>) -> Result<()>,
    ) -> Result<bool> {
        if !has_chain(self, None)? {
            let view = |b: &[u8], v| install(&SnapshotView::decode_record(b, v)?);
            let installed = read_with(self, RawRecordKind::Master, WHOLE_RECORD, view)?;
            return Ok(installed.is_some());
        }
        match self.read_merged_master()? {
            Some(snap) => {
                install(&SnapshotView::of(&snap))?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Load delta `seq` of the master chain (`rank` `None`) or of rank
    /// `rank`'s chain, if present.
    fn read_delta(&self, rank: Option<u32>, seq: u32) -> Result<Option<DeltaSnapshot>> {
        read_with(
            self,
            RawRecordKind::delta(rank, seq),
            WHOLE_RECORD,
            decode_delta,
        )
    }

    /// The safe-point count in the header of the full record under `key`,
    /// read through a bounded header read (no payload is loaded).
    fn peek_count(&self, key: RawRecordKind) -> Result<Option<u64>> {
        read_with(self, key, HEAD_BYTES, |head, _| {
            peek_record_count(head).ok_or_else(|| {
                PparError::CorruptCheckpoint(format!("unreadable header in the {key:?} record"))
            })
        })
    }

    /// The safe-point count a restart/resume should replay to: the
    /// group-commit point when the medium keeps one (individual shard tips
    /// may have outrun it if a save was torn by a rank death), else the tip
    /// of the master chain, falling back to shard 0's (local-snapshot
    /// strategy). `None` when no usable snapshot exists.
    fn restart_count(&self) -> Result<Option<u64>> {
        if let Some(count) = self.committed_count()? {
            return Ok(Some(count));
        }
        for rank in [None, Some(0)] {
            if let Some(count) = self.peek_count(RawRecordKind::base(rank))? {
                return chain_tip(self, count, rank).map(Some);
            }
        }
        Ok(None)
    }

    /// Decode the `PPARPRG1` progress cursor carried by the newest usable
    /// snapshot (the reserved [`PROGRESS_FIELD`] extra field), checking the
    /// master record first and falling back to shard 0 (local-snapshot
    /// groups carry identical cursors on every shard — the safe-point clock
    /// is aggregate-symmetric). Snapshots without the field yield
    /// `Ok(None)`: the consumer replays classically. A cursor that fails to
    /// decode degrades the same way; it must never fail a restore.
    fn read_progress(&self) -> Result<Option<RegionCursor>> {
        let mut bytes: Option<Vec<u8>> = None;
        let found = self.with_merged_master(&mut |snap| {
            bytes = snap.field(PROGRESS_FIELD).map(|b| b.to_vec());
            Ok(())
        })?;
        if !found {
            if let Some(snap) = self.read_merged_shard(0)? {
                bytes = snap.field(PROGRESS_FIELD).map(|b| b.to_vec());
            }
        }
        Ok(bytes.and_then(|b| RegionCursor::decode(&b).ok()))
    }

    /// Stream the merged (base + delta chain) record for `rank` (`None` =
    /// master) into `out` as one *checksummed* full-snapshot encoding — the
    /// restore direction of the checkpoint service. With no chain pending
    /// the base record is copied straight through; otherwise the merge is
    /// materialized and re-encoded. `Ok(None)` when there is no base.
    fn write_merged_record(&self, rank: Option<u32>, out: &mut dyn Write) -> Result<Option<u64>> {
        if !has_chain(self, rank)? {
            return self.copy_record(RawRecordKind::base(rank), out);
        }
        match read_merged(self, rank)? {
            Some(snap) => write_snapshot(&snap, out).map(Some),
            None => Ok(None),
        }
    }

    /// [`SnapshotIo::write_merged_record`] pinned to safe point `count`
    /// (see [`CkptTransport::read_shard_at`]): a retained base generation
    /// sitting exactly at `count` is copied through verbatim; anything
    /// else goes through the count-pinned read and is re-encoded. The
    /// master has no torn-group problem (single atomic writer) and streams
    /// its merged tip.
    fn write_merged_record_at(
        &self,
        rank: Option<u32>,
        count: u64,
        out: &mut dyn Write,
    ) -> Result<Option<u64>> {
        let Some(rank) = rank else {
            return self.write_merged_record(None, out);
        };
        for key in [RawRecordKind::Shard(rank), RawRecordKind::PrevShard(rank)] {
            if matches!(self.peek_count(key), Ok(Some(c)) if c == count) {
                if let Some(written) = self.copy_record(key, out)? {
                    return Ok(Some(written));
                }
            }
        }
        match self.read_shard_at(rank, count)? {
            Some(snap) => write_snapshot(&snap, out).map(Some),
            None => Ok(None),
        }
    }
}

impl<T: CkptTransport + ?Sized> SnapshotIo for T {}

/// Encode one full snapshot into `out`; returns `(bytes written, out)`.
/// `checksum` off writes the zero trailer of in-memory records.
pub fn encode_full<W: Write>(
    out: W,
    meta: &SnapshotMeta,
    fields: &[(&str, FieldSource<'_>)],
    scratch: &mut Vec<u8>,
    checksum: bool,
) -> Result<(u64, W)> {
    let mut w = SnapshotWriter::new(out, meta, fields.len() as u32)?;
    if !checksum {
        w = w.without_checksum();
    }
    for (name, source) in fields {
        w.field(name, source, scratch)?;
    }
    w.finish()
}

/// Encode one delta record into `out`; returns `(bytes written, out)`.
pub fn encode_delta<W: Write>(
    out: W,
    meta: &DeltaMeta,
    fields: &[(&str, DeltaSource<'_>)],
    scratch: &mut Vec<u8>,
    checksum: bool,
) -> Result<(u64, W)> {
    let mut w = SnapshotWriter::new_delta(out, meta, fields.len() as u32)?;
    if !checksum {
        w = w.without_checksum();
    }
    for (name, source) in fields {
        w.delta_field(name, source, scratch)?;
    }
    w.finish()
}

/// Pre-sizing hint for a full record: the fields' known lengths plus
/// framing (growth reallocs on a multi-MiB in-memory record would copy the
/// payload several extra times).
fn full_len_hint(fields: &[(&str, FieldSource<'_>)]) -> u64 {
    let payload: usize = fields
        .iter()
        .map(|(name, source)| name.len() + 16 + source_len(source))
        .sum();
    (payload + 128) as u64
}

/// [`full_len_hint`] for delta records: sparse entries contribute their
/// range map + carried bytes, full entries their whole body.
fn delta_len_hint(fields: &[(&str, DeltaSource<'_>)]) -> u64 {
    let payload: usize = fields
        .iter()
        .map(|(name, source)| {
            let body = match source {
                DeltaSource::Full(source) => source_len(source),
                DeltaSource::DirtyCell { ranges, .. } => {
                    ranges.iter().map(|r| r.len()).sum::<usize>() + ranges.len() * 16
                }
                DeltaSource::DirtyBytes {
                    ranges, payload, ..
                } => payload.len() + ranges.len() * 16,
            };
            name.len() + 32 + body
        })
        .sum();
    (payload + 128) as u64
}

fn source_len(source: &FieldSource<'_>) -> usize {
    match source {
        FieldSource::Bytes(b) => b.len(),
        FieldSource::Cell(cell) => cell.known_byte_len().unwrap_or(0),
    }
}

/// `Write` face of a medium's sink, so the encoder streams straight into it.
struct SinkWriter<'s, 'a>(&'s mut (dyn RawRecordSink + 'a));

impl Write for SinkWriter<'_, '_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write_chunk(buf).map_err(io::Error::other)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Encode one record into `sink` and commit it; an encode error aborts the
/// sink, so the medium keeps its previous record for the key.
fn put_with(
    mut sink: Box<dyn RawRecordSink + '_>,
    encode: impl FnOnce(&mut dyn Write, bool) -> Result<u64>,
) -> Result<u64> {
    let checksum = sink.checksummed();
    let encoded = encode(&mut SinkWriter(&mut *sink), checksum);
    match encoded {
        Ok(_) => sink.commit(),
        Err(e) => {
            sink.abort();
            Err(e)
        }
    }
}

fn put_full<T: CkptTransport + ?Sized>(
    t: &T,
    key: RawRecordKind,
    meta: &SnapshotMeta,
    fields: &[(&str, FieldSource<'_>)],
    scratch: &mut Vec<u8>,
) -> Result<u64> {
    let sink = t.begin_put(key, full_len_hint(fields))?;
    put_with(sink, |w, checksum| {
        encode_full(w, meta, fields, scratch, checksum).map(|(n, _)| n)
    })
}

fn put_delta<T: CkptTransport + ?Sized>(
    t: &T,
    meta: &DeltaMeta,
    fields: &[(&str, DeltaSource<'_>)],
    scratch: &mut Vec<u8>,
) -> Result<u64> {
    let sink = t.begin_put(
        RawRecordKind::delta(meta.rank, meta.seq),
        delta_len_hint(fields),
    )?;
    put_with(sink, |w, checksum| {
        encode_delta(w, meta, fields, scratch, checksum).map(|(n, _)| n)
    })
}

/// Stream one materialized snapshot through the checksummed encoder.
fn write_snapshot(snap: &Snapshot, out: &mut dyn Write) -> Result<u64> {
    encode_full(
        out,
        &snap.meta(),
        &snap.field_sources(),
        &mut Vec::new(),
        true,
    )
    .map(|(n, _)| n)
}

/// Run `f` over the record under `key` (its first `max` bytes); `None`
/// when absent.
fn read_with<T: CkptTransport + ?Sized, R>(
    t: &T,
    key: RawRecordKind,
    max: usize,
    f: impl FnOnce(&[u8], bool) -> Result<R>,
) -> Result<Option<R>> {
    let mut f = Some(f);
    let mut out = None;
    t.read_record(key, max, &mut |bytes, verified| {
        let f = f.take().expect("a medium visits a record once");
        out = Some(f(bytes, verified)?);
        Ok(())
    })?;
    Ok(out)
}

/// Does a delta chain hang off the base of `rank`'s chain?
fn has_chain<T: CkptTransport + ?Sized>(t: &T, rank: Option<u32>) -> Result<bool> {
    t.read_record(RawRecordKind::delta(rank, 1), 0, &mut |_, _| Ok(()))
}

fn read_merged<T: CkptTransport + ?Sized>(t: &T, rank: Option<u32>) -> Result<Option<Snapshot>> {
    match read_with(t, RawRecordKind::base(rank), WHOLE_RECORD, decode_full)? {
        Some(base) => merge_chain(t, base, None).map(Some),
        None => Ok(None),
    }
}

/// Decode a record a medium handed out, checking its trailing CRC unless
/// the medium vouches for the bytes.
fn decode_full(bytes: &[u8], verified: bool) -> Result<Snapshot> {
    if verified {
        Snapshot::decode_trusted(bytes)
    } else {
        Snapshot::decode(bytes)
    }
}

fn decode_delta(bytes: &[u8], verified: bool) -> Result<DeltaSnapshot> {
    if verified {
        DeltaSnapshot::decode_trusted(bytes)
    } else {
        DeltaSnapshot::decode(bytes)
    }
}

/// The single source of truth for delta-chain step validity, shared by the
/// header-only walk ([`chain_tip`]) and the full merge ([`merge_chain`]),
/// so the restart target and the restored state can never disagree on
/// chain rules. Returns `Ok(false)` for a *stale* delta (previous base
/// generation — terminates the walk harmlessly); errors on ordering
/// violations.
fn chain_step_is_live(
    meta: &DeltaMeta,
    base_count: u64,
    expected_seq: u32,
    prev_count: u64,
) -> Result<bool> {
    if meta.base_count != base_count {
        return Ok(false);
    }
    if meta.seq != expected_seq {
        return Err(PparError::CorruptCheckpoint(format!(
            "delta file {expected_seq} carries sequence number {}",
            meta.seq
        )));
    }
    if meta.count <= prev_count {
        return Err(PparError::CorruptCheckpoint(format!(
            "delta {expected_seq} count {} does not advance past {prev_count}",
            meta.count
        )));
    }
    Ok(true)
}

/// Fold the delta chain onto `snap` (the base full snapshot), walking from
/// seq 1 until the first missing record; a stale delta (a crash between
/// base promotion and delta GC left it behind) terminates the walk
/// harmlessly, corrupt or out-of-order deltas are hard errors. With
/// `target`, stop *before* any delta that would advance the merged state
/// past that safe point (the count-pinned restore: a torn chain whose tip
/// outruns the group commit serves the committed prefix instead).
fn merge_chain<T: CkptTransport + ?Sized>(
    t: &T,
    mut snap: Snapshot,
    target: Option<u64>,
) -> Result<Snapshot> {
    let base_count = snap.count;
    let mut seq = 1u32;
    while target.is_none_or(|c| snap.count < c) {
        let Some(delta) = t.read_delta(snap.rank, seq)? else {
            break;
        };
        if !chain_step_is_live(&delta.meta, base_count, seq, snap.count)?
            || target.is_some_and(|c| delta.meta.count > c)
        {
            break;
        }
        delta.apply_to(&mut snap)?;
        seq += 1;
    }
    Ok(snap)
}

/// The safe-point count at the tip of a base's delta chain, walking delta
/// *headers* only (no payload is materialized — the full merge happens
/// once, at load time).
fn chain_tip<T: CkptTransport + ?Sized>(t: &T, base_count: u64, rank: Option<u32>) -> Result<u64> {
    let mut count = base_count;
    let mut seq = 1u32;
    let key = |seq| RawRecordKind::delta(rank, seq);
    while let Some(meta) = read_with(t, key(seq), HEAD_BYTES, |h, _| DeltaMeta::decode_head(h))? {
        if !chain_step_is_live(&meta, base_count, seq, count)? {
            break;
        }
        count = meta.count;
        seq += 1;
    }
    Ok(count)
}

/// The default [`CkptTransport::read_shard_at`]: serve the current shard
/// generation when its count-bounded merge lands exactly on `count`, else
/// fall back to the retained previous generation (media that keep one).
/// This is how a restore survives a torn group save — shards that already
/// advanced past the commit point roll back to their preserved older
/// record; with no generation able to serve `count` the read fails.
pub(crate) fn shard_at<T: CkptTransport + ?Sized>(
    t: &T,
    rank: u32,
    count: u64,
) -> Result<Option<Snapshot>> {
    let mut seen = Vec::new();
    for key in [RawRecordKind::Shard(rank), RawRecordKind::PrevShard(rank)] {
        let Some(base) = read_with(t, key, WHOLE_RECORD, decode_full)? else {
            continue;
        };
        if base.count > count {
            seen.push(base.count);
            continue;
        }
        let merged = merge_chain(t, base, Some(count))?;
        if merged.count == count {
            return Ok(Some(merged));
        }
        seen.push(merged.count);
    }
    if seen.is_empty() {
        Ok(None)
    } else {
        Err(PparError::CorruptCheckpoint(format!(
            "no generation of shard {rank} can serve safe point {count} \
             (available: {seen:?})"
        )))
    }
}
