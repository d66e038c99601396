//! Persistent checkpoint storage: snapshot files and the failure marker.
//!
//! Layout of a checkpoint directory:
//!
//! ```text
//! <dir>/
//!   RUNNING                     # exists while a run is in flight (the pcr
//!                               # module's failure detector: marker +
//!                               # snapshot => replay)
//!   ckpt_master.bin             # master-collected snapshot (restartable in
//!                               # ANY mode); the *base* in incremental mode
//!   ckpt_master_delta_<s>.bin   # delta chain over the base (incremental
//!                               # mode, s = 1, 2, ...; see crate::delta)
//!   ckpt_rank_<r>.bin           # per-element shards (local-snapshot
//!                               # strategy)
//!   ckpt_rank_<r>_delta_<s>.bin # per-element delta chains
//! ```
//!
//! Snapshot files are written atomically (temp file + rename) and carry a
//! trailing CRC-32 over the entire content, so a crash *during* checkpointing
//! can never produce a snapshot that is both present and corrupt: either the
//! old snapshot survives or the new one is complete.
//!
//! File format (all integers little-endian):
//!
//! ```text
//! magic    8B  "PPARCKP1"
//! mode     len-prefixed UTF-8 tag (e.g. "seq", "smp8", "dist32")
//! count    u64   safe points executed when the snapshot was taken
//! rank     u32   owning element, 0xFFFF_FFFF for a master snapshot
//! nranks   u32   aggregate size at snapshot time
//! nfields  u32
//! fields   nfields × { name: len-prefixed UTF-8, payload: len-prefixed bytes }
//! crc      u32   CRC-32 of every preceding byte
//! ```
//!
//! Length prefixes are `u64` for strings and payloads.
//!
//! ## Streaming write path
//!
//! The snapshot layer ([`crate::snapshot`]) encodes every record with
//! [`SnapshotWriter`]: header, fields and trailing CRC stream straight into
//! the medium's put sink — for a checkpoint directory, a
//! [`std::io::BufWriter`] over a temp file — with a running CRC-32
//! ([`crate::crc`]: the `PCLMULQDQ` fold, slice-by-8 where that is
//! unavailable); at no point does a whole-snapshot buffer exist. Field payloads
//! come from a [`FieldSource`]:
//!
//! * [`FieldSource::Cell`] streams a live [`StateCell`] through
//!   [`StateCell::write_state`]; containers with contiguous little-endian
//!   layouts (e.g. `SharedVec<f64>`) hand their backing bytes straight to
//!   the sink without per-element serialization;
//! * [`FieldSource::Bytes`] wraps pre-extracted bytes (partition shards,
//!   gathered aggregates).
//!
//! Cells that cannot report their encoded length up front
//! ([`StateCell::known_byte_len`] `== None`, e.g. serde-backed state) are
//! buffered through a caller-provided scratch `Vec` that is reused across
//! snapshots, keeping steady-state checkpointing allocation-free.
//!
//! The streamed output is byte-identical to the legacy materialized encoder
//! ([`Snapshot::encode`], kept as the golden reference), so snapshots
//! written by either path load through the same reader and old snapshot
//! files stay valid.
//!
//! ## Durability
//!
//! The flat layout never fsyncs (`PPAR_STORE_SYNC` applies to the
//! content-addressed layout only). A *process* crash at any point leaves
//! the old or the new generation under the record's name, because the
//! final name only ever moves by `rename`. Ordering across *power loss*
//! rests on the filesystem's rename-replacement behaviour (ext4's
//! `auto_da_alloc` starts writeback of a file renamed over an existing
//! one), which is why a save always renames a fully written temp file
//! over the previous generation.
//!
//! ## Reclaim
//!
//! Replacing or unlinking a multi-MiB record makes the filesystem free
//! its blocks inside that syscall — on a `discard` mount, more than it
//! costs to write the new record. Every flat-layout operation that drops
//! a superseded record therefore opens it read-only first, renames or
//! unlinks exactly as before, and hands the open handle to one
//! process-wide reclaimer thread, whose only job is to close it. The
//! directory changes atomically at the same syscall; only the block free
//! moves off the caller's path. At most two (`RECLAIM_BOUND`) superseded
//! records wait at once: an operation that finds them all waiting blocks
//! before its rename. A rename or unlink that fails closes its victim in
//! line.
//!
//! Rewriting a recycled inode in place instead was measured and rejected:
//! overwrites are not ordered against the rename, so keeping the power-loss
//! ordering above would need an `fdatasync` per save, which costs more
//! than the free it saves (`fallocate` loses the ordering the same way).

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, OnceLock};

use parking_lot::{Condvar, Mutex};
use ppar_core::error::{PparError, Result};
use ppar_core::state::StateCell;

use crate::cas::PutStats;
use crate::crc::{crc32, Crc32};
use crate::snapshot::SnapshotIo;
use crate::transport::{
    Chains, CkptTransport, DedupRecordSink, RawRecordKind, RawRecordSink, RecordVisitor,
    WHOLE_RECORD,
};

const MAGIC: &[u8; 8] = b"PPARCKP1";
pub(crate) const MASTER_RANK: u32 = 0xFFFF_FFFF;

/// An in-memory snapshot: header plus named field payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Execution-mode tag at snapshot time (`ExecMode::tag()`); informative
    /// only — master snapshots restart in any mode.
    pub mode_tag: String,
    /// Safe points executed when the snapshot was taken.
    pub count: u64,
    /// Owning element for shard snapshots; `None` for master snapshots.
    pub rank: Option<u32>,
    /// Aggregate size at snapshot time (1 for non-distributed runs).
    pub nranks: u32,
    /// Field name → payload bytes, in `SafeData` declaration order.
    pub fields: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// Payload bytes of field `name`.
    pub fn field(&self, name: &str) -> Option<&[u8]> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Total payload size (the paper's "checkpoint data" volume).
    pub fn payload_bytes(&self) -> usize {
        self.fields.iter().map(|(_, b)| b.len()).sum()
    }

    /// Header-only view of this snapshot (for the streaming writer).
    pub fn meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            mode_tag: self.mode_tag.clone(),
            count: self.count,
            rank: self.rank,
            nranks: self.nranks,
        }
    }

    /// The payloads as streaming-writer field sources.
    pub fn field_sources(&self) -> Vec<(&str, FieldSource<'_>)> {
        self.fields
            .iter()
            .map(|(name, bytes)| (name.as_str(), FieldSource::Bytes(bytes)))
            .collect()
    }

    /// The legacy materialized encoder: builds the whole snapshot in one
    /// buffer, then checksums it. Kept as the golden byte-for-byte reference
    /// the streaming [`SnapshotWriter`] is tested against (and as the
    /// baseline for the fig4 save-cost comparison benches); the persistence
    /// paths all stream instead.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.payload_bytes());
        out.extend_from_slice(MAGIC);
        put_str(&mut out, &self.mode_tag);
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.rank.unwrap_or(MASTER_RANK).to_le_bytes());
        out.extend_from_slice(&self.nranks.to_le_bytes());
        out.extend_from_slice(&(self.fields.len() as u32).to_le_bytes());
        for (name, payload) in &self.fields {
            put_str(&mut out, name);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode and integrity-check one full snapshot record (the trailing
    /// CRC-32 is verified). Public because records now also arrive over
    /// the network fabric: the root's checkpoint service and the
    /// rank-side restart path both decode wire records with exactly the
    /// file reader.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot> {
        Snapshot::check_crc(bytes)?;
        Snapshot::decode_body(&bytes[..bytes.len() - 4])
    }

    fn check_crc(bytes: &[u8]) -> Result<()> {
        if bytes.len() < MAGIC.len() + 4 {
            return Err(PparError::CorruptCheckpoint("file too short".into()));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte trailer"));
        if crc32(body) != stored_crc {
            return Err(PparError::CorruptCheckpoint(format!(
                "CRC mismatch: stored {stored_crc:#010x}, computed {:#010x}",
                crc32(body)
            )));
        }
        Ok(())
    }

    /// Decode a record whose integrity has *already* been established:
    /// structural validation only, the trailing CRC is stripped but not
    /// re-verified. Two callers qualify — the in-memory transport (bytes
    /// never left this process; integrity checking guards the durable
    /// medium, not a buffer handed across a reshape within one address
    /// space) and the streaming network restore path, which verifies the
    /// record's running CRC as the chunks arrive and must not pay a
    /// second full pass. Anything read from disk or an unverified source
    /// goes through [`Snapshot::decode`] instead.
    pub fn decode_trusted(bytes: &[u8]) -> Result<Snapshot> {
        if bytes.len() < MAGIC.len() + 4 {
            return Err(PparError::CorruptCheckpoint("record too short".into()));
        }
        Snapshot::decode_body(&bytes[..bytes.len() - 4])
    }

    fn decode_body(body: &[u8]) -> Result<Snapshot> {
        let view = SnapshotView::decode_body(body)?;
        Ok(Snapshot {
            mode_tag: view.mode_tag,
            count: view.count,
            rank: view.rank,
            nranks: view.nranks,
            fields: view
                .fields
                .into_iter()
                .map(|(n, b)| (n, b.to_vec()))
                .collect(),
        })
    }
}

/// Borrowed view of a decoded snapshot record: the zero-copy read side of
/// the in-memory transport. Field payloads reference the record bytes
/// directly, so installing a multi-MiB hand-off costs one copy (record →
/// cell) instead of two (record → materialized snapshot → cell).
pub struct SnapshotView<'a> {
    /// Execution-mode tag at snapshot time.
    pub mode_tag: String,
    /// Safe points executed when the snapshot was taken.
    pub count: u64,
    /// Owning element for shard snapshots; `None` for master snapshots.
    pub rank: Option<u32>,
    /// Aggregate size at snapshot time.
    pub nranks: u32,
    /// Field name → borrowed payload bytes, in declaration order.
    pub fields: Vec<(String, &'a [u8])>,
}

impl<'a> SnapshotView<'a> {
    /// Payload bytes of field `name`.
    pub fn field(&self, name: &str) -> Option<&'a [u8]> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, b)| *b)
    }

    /// Borrowed view over a full snapshot (fields reference the owned
    /// payload buffers).
    pub fn of(snap: &'a Snapshot) -> SnapshotView<'a> {
        SnapshotView {
            mode_tag: snap.mode_tag.clone(),
            count: snap.count,
            rank: snap.rank,
            nranks: snap.nranks,
            fields: snap
                .fields
                .iter()
                .map(|(n, b)| (n.clone(), b.as_slice()))
                .collect(),
        }
    }

    /// Decode one full record a medium handed out, verifying its trailing
    /// CRC unless the medium vouches for the bytes (`verified`).
    pub(crate) fn decode_record(bytes: &'a [u8], verified: bool) -> Result<SnapshotView<'a>> {
        if !verified {
            Snapshot::check_crc(bytes)?;
        }
        SnapshotView::decode_trusted(bytes)
    }

    /// Structural decode of an in-process record (no CRC re-verification;
    /// see [`Snapshot::decode_trusted`]).
    pub(crate) fn decode_trusted(bytes: &'a [u8]) -> Result<SnapshotView<'a>> {
        if bytes.len() < MAGIC.len() + 4 {
            return Err(PparError::CorruptCheckpoint("record too short".into()));
        }
        SnapshotView::decode_body(&bytes[..bytes.len() - 4])
    }

    fn decode_body(body: &'a [u8]) -> Result<SnapshotView<'a>> {
        let mut r = Reader { buf: body, pos: 0 };
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(PparError::FormatMismatch {
                expected: String::from_utf8_lossy(MAGIC).into_owned(),
                found: String::from_utf8_lossy(magic).into_owned(),
            });
        }
        let mode_tag = r.take_str()?;
        let count = r.take_u64()?;
        let rank_raw = r.take_u32()?;
        let nranks = r.take_u32()?;
        let nfields = r.take_u32()?;
        let mut fields = Vec::with_capacity(nfields as usize);
        for _ in 0..nfields {
            let name = r.take_str()?;
            let len = r.take_u64()? as usize;
            fields.push((name, r.take(len)?));
        }
        if r.pos != body.len() {
            return Err(PparError::CorruptCheckpoint(format!(
                "{} unconsumed bytes before CRC",
                body.len() - r.pos
            )));
        }
        Ok(SnapshotView {
            mode_tag,
            count,
            rank: (rank_raw != MASTER_RANK).then_some(rank_raw),
            nranks,
            fields,
        })
    }
}

/// The safe-point count in a full record's header, read from (a prefix of)
/// its bytes; `None` when the header does not parse.
pub(crate) fn peek_record_count(head: &[u8]) -> Option<u64> {
    let mut r = Reader { buf: head, pos: 0 };
    if r.take(8).ok()? != MAGIC {
        return None;
    }
    r.take_str().ok()?;
    r.take_u64().ok()
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// streaming writer
// ---------------------------------------------------------------------------

/// Snapshot header for the streaming write path (everything in
/// [`Snapshot`] except the field payloads).
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMeta {
    /// Execution-mode tag at snapshot time.
    pub mode_tag: String,
    /// Safe points executed when the snapshot was taken.
    pub count: u64,
    /// Owning element for shard snapshots; `None` for master snapshots.
    pub rank: Option<u32>,
    /// Aggregate size at snapshot time.
    pub nranks: u32,
}

/// Where a streamed field's payload bytes come from.
pub enum FieldSource<'a> {
    /// Stream a live cell through [`StateCell::write_state`] (zero-copy for
    /// contiguous little-endian containers).
    Cell(&'a dyn StateCell),
    /// Pre-extracted bytes (partition shards, gathered aggregate data).
    Bytes(&'a [u8]),
}

/// Where one field of a *delta* snapshot comes from.
pub enum DeltaSource<'a> {
    /// The whole field, as in a full snapshot (cells without write
    /// tracking).
    Full(FieldSource<'a>),
    /// Only the cell's dirty byte ranges, streamed straight from the cell
    /// through [`StateCell::write_dirty_state`] (zero-copy for LE
    /// containers). Offsets are relative to the cell's full encoding.
    DirtyCell {
        /// The live cell.
        cell: &'a dyn StateCell,
        /// Sorted, non-overlapping dirty byte ranges of the encoding.
        ranges: &'a [std::ops::Range<usize>],
    },
    /// Pre-extracted dirty bytes (the shard path: offsets are relative to
    /// the extracted owned-block payload, `payload` is the ranges'
    /// concatenated bytes in order).
    DirtyBytes {
        /// Total length of the (merged) field payload.
        full_len: u64,
        /// Sorted, non-overlapping ranges into that payload.
        ranges: &'a [std::ops::Range<usize>],
        /// Concatenation of the ranges' bytes.
        payload: &'a [u8],
    },
}

/// Adapter that forwards writes to the sink while folding every byte into
/// the running CRC (when checksumming is on).
struct CrcTee<'a, W: Write> {
    sink: &'a mut W,
    crc: Option<&'a mut Crc32>,
    written: &'a mut u64,
}

/// Block size for interleaving the CRC pass with the copy on large
/// payloads: each block is checksummed while still cache-hot from the
/// write (or vice versa), saving a second trip to RAM per multi-MiB
/// field.
const CRC_COPY_BLOCK: usize = 256 << 10;

impl<W: Write> Write for CrcTee<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Cap each write at one cache block; callers' `write_all` loops
        // re-enter, giving the interleaved CRC+copy pattern for free.
        let buf = &buf[..buf.len().min(CRC_COPY_BLOCK)];
        let n = self.sink.write(buf)?;
        if let Some(crc) = self.crc.as_deref_mut() {
            crc.update(&buf[..n]);
        }
        *self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.sink.flush()
    }
}

/// Single-pass snapshot encoder: header, fields and the trailing CRC-32 are
/// streamed straight into the sink (typically a [`BufWriter`] over the temp
/// file) while the checksum runs alongside. Produces bytes identical to
/// [`Snapshot::encode`] for the same content.
///
/// Records destined for process memory (the live-reshape hand-off) may be
/// written *unchecksummed* ([`SnapshotWriter::without_checksum`]): the byte
/// layout is identical but the 4-byte
/// trailer is zero, saving a full pass over multi-MiB payloads. The
/// in-memory transport's trusted decode ignores the trailer; writing such a
/// record to a disk file would fail CRC verification on load — by design,
/// loudly.
pub struct SnapshotWriter<W: Write> {
    sink: W,
    crc: Crc32,
    /// Fold bytes into the running CRC (off for in-memory hand-offs).
    checksum: bool,
    written: u64,
    fields_remaining: u32,
}

impl<W: Write> SnapshotWriter<W> {
    /// Start a snapshot: writes the header for `meta` announcing `nfields`
    /// upcoming fields.
    pub fn new(sink: W, meta: &SnapshotMeta, nfields: u32) -> Result<SnapshotWriter<W>> {
        let mut w = SnapshotWriter::over(sink, nfields);
        w.put(MAGIC)?;
        w.put_str(&meta.mode_tag)?;
        w.put(&meta.count.to_le_bytes())?;
        w.put(&meta.rank.unwrap_or(MASTER_RANK).to_le_bytes())?;
        w.put(&meta.nranks.to_le_bytes())?;
        w.put(&nfields.to_le_bytes())?;
        Ok(w)
    }

    fn over(sink: W, nfields: u32) -> SnapshotWriter<W> {
        SnapshotWriter {
            sink,
            crc: Crc32::new(),
            checksum: true,
            written: 0,
            fields_remaining: nfields,
        }
    }

    /// Skip the checksum pass from here on and seal the record with a zero
    /// trailer (in-memory records; see the type docs).
    pub fn without_checksum(mut self) -> SnapshotWriter<W> {
        self.checksum = false;
        self
    }

    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        if self.checksum && bytes.len() > CRC_COPY_BLOCK {
            // Interleave CRC and copy in cache-sized blocks (see
            // [`CRC_COPY_BLOCK`]) instead of two full passes over a
            // multi-MiB payload.
            for block in bytes.chunks(CRC_COPY_BLOCK) {
                self.crc.update(block);
                self.sink.write_all(block)?;
            }
        } else {
            if self.checksum {
                self.crc.update(bytes);
            }
            self.sink.write_all(bytes)?;
        }
        self.written += bytes.len() as u64;
        Ok(())
    }

    fn put_str(&mut self, s: &str) -> Result<()> {
        self.put(&(s.len() as u64).to_le_bytes())?;
        self.put(s.as_bytes())
    }

    fn begin_field(&mut self, name: &str) -> Result<()> {
        if self.fields_remaining == 0 {
            return Err(PparError::InvalidPlan(
                "SnapshotWriter: more fields written than announced".into(),
            ));
        }
        self.fields_remaining -= 1;
        self.put_str(name)
    }

    /// The sink as a writer that folds every byte into the running CRC:
    /// handed to [`StateCell::write_state`] so cell-driven writes stay on
    /// the single-pass path.
    fn tee(&mut self) -> CrcTee<'_, W> {
        CrcTee {
            sink: &mut self.sink,
            crc: self.checksum.then_some(&mut self.crc),
            written: &mut self.written,
        }
    }

    /// Write one field from a [`FieldSource`].
    pub fn field(
        &mut self,
        name: &str,
        source: &FieldSource<'_>,
        scratch: &mut Vec<u8>,
    ) -> Result<()> {
        self.begin_field(name)?;
        self.whole_payload(name, source, scratch)
    }

    /// A whole payload: `u64` length, then the bytes (full-snapshot fields
    /// and whole-field delta entries). Cells that know their encoded length
    /// stream directly (zero-copy for LE containers); others are buffered
    /// once through `scratch`, whose capacity is reused across snapshots.
    fn whole_payload(
        &mut self,
        name: &str,
        source: &FieldSource<'_>,
        scratch: &mut Vec<u8>,
    ) -> Result<()> {
        let bytes = match source {
            FieldSource::Bytes(bytes) => bytes,
            FieldSource::Cell(cell) => match cell.known_byte_len() {
                Some(len) => {
                    self.put(&(len as u64).to_le_bytes())?;
                    let streamed = cell.write_state(&mut self.tee())?;
                    if streamed != len as u64 {
                        return Err(PparError::CorruptCheckpoint(format!(
                            "field {name:?}: cell announced {len} bytes but streamed {streamed}"
                        )));
                    }
                    return Ok(());
                }
                None => {
                    scratch.clear();
                    cell.save_into(scratch);
                    &scratch[..]
                }
            },
        };
        self.put(&(bytes.len() as u64).to_le_bytes())?;
        self.put(bytes)
    }

    // ---- delta records (see crate::delta for the format) ----

    /// Start a delta record: writes the versioned delta header for `meta`
    /// announcing `nfields` upcoming fields. Shares the running-CRC
    /// machinery (and [`SnapshotWriter::finish`]) with full snapshots.
    pub fn new_delta(
        sink: W,
        meta: &crate::delta::DeltaMeta,
        nfields: u32,
    ) -> Result<SnapshotWriter<W>> {
        let mut w = SnapshotWriter::over(sink, nfields);
        w.put(crate::delta::DELTA_MAGIC)?;
        w.put(&crate::delta::DELTA_VERSION.to_le_bytes())?;
        w.put_str(&meta.mode_tag)?;
        w.put(&meta.count.to_le_bytes())?;
        w.put(&meta.base_count.to_le_bytes())?;
        w.put(&meta.seq.to_le_bytes())?;
        w.put(&meta.rank.unwrap_or(MASTER_RANK).to_le_bytes())?;
        w.put(&meta.nranks.to_le_bytes())?;
        w.put(&nfields.to_le_bytes())?;
        Ok(w)
    }

    fn put_sparse_map(&mut self, full_len: u64, ranges: &[std::ops::Range<usize>]) -> Result<u64> {
        self.put(&full_len.to_le_bytes())?;
        self.put(&(ranges.len() as u32).to_le_bytes())?;
        let mut total = 0u64;
        for r in ranges {
            let len = (r.end - r.start) as u64;
            self.put(&(r.start as u64).to_le_bytes())?;
            self.put(&len.to_le_bytes())?;
            total += len;
        }
        Ok(total)
    }

    /// Write one delta field from a [`DeltaSource`]: a whole-field entry
    /// (kind 0), or a sparse entry (kind 1) — the dirty-range map, then
    /// the ranges' bytes, streamed from a cell through
    /// [`StateCell::write_dirty_state`] (zero-copy for LE containers; only
    /// touched chunks leave the cell) or copied from pre-extracted bytes.
    pub fn delta_field(
        &mut self,
        name: &str,
        source: &DeltaSource<'_>,
        scratch: &mut Vec<u8>,
    ) -> Result<()> {
        self.begin_field(name)?;
        match source {
            DeltaSource::Full(source) => {
                self.put(&[0])?;
                self.whole_payload(name, source, scratch)
            }
            DeltaSource::DirtyCell { cell, ranges } => {
                self.put(&[1])?;
                let total = self.put_sparse_map(cell.byte_len() as u64, ranges)?;
                let streamed = cell.write_dirty_state(ranges, &mut self.tee())?;
                if streamed != total {
                    return Err(PparError::CorruptCheckpoint(format!(
                        "field {name:?}: dirty map announced {total} bytes but cell \
                         streamed {streamed}"
                    )));
                }
                Ok(())
            }
            DeltaSource::DirtyBytes {
                full_len,
                ranges,
                payload,
            } => {
                self.put(&[1])?;
                let total = self.put_sparse_map(*full_len, ranges)?;
                if total != payload.len() as u64 {
                    return Err(PparError::CorruptCheckpoint(format!(
                        "field {name:?}: dirty map announces {total} bytes, payload has {}",
                        payload.len()
                    )));
                }
                self.put(payload)
            }
        }
    }

    /// Seal the snapshot: append the running CRC, flush the sink and return
    /// `(total bytes written, sink)`.
    pub fn finish(mut self) -> Result<(u64, W)> {
        if self.fields_remaining != 0 {
            return Err(PparError::InvalidPlan(format!(
                "SnapshotWriter: {} announced fields never written",
                self.fields_remaining
            )));
        }
        let crc = if self.checksum { self.crc.finish() } else { 0 };
        self.sink.write_all(&crc.to_le_bytes())?;
        self.written += 4;
        self.sink.flush()?;
        Ok((self.written, self.sink))
    }
}

/// A checkpoint directory is the durable medium: each key is one record
/// file (flat layout) or one manifest over shared chunk objects
/// (content-addressed layout), written through a temp file or journaled
/// transaction and promoted atomically — a crash mid-save never leaves a
/// partial record under the final name.
impl CkptTransport for CheckpointStore {
    fn describe(&self) -> &'static str {
        "file"
    }

    fn begin_put<'a>(
        &'a self,
        key: RawRecordKind,
        _len_hint: u64,
    ) -> Result<Box<dyn RawRecordSink + 'a>> {
        let dst = self.record_path(key);
        // Shard saves rotate the committed previous generation aside
        // before the new record lands (see `rotate_shard_generation`).
        let rotate = match key {
            RawRecordKind::Shard(rank) => Some(rank),
            _ => None,
        };
        if let Some(cas) = &self.cas {
            return Ok(Box::new(CasRawSink {
                store: self,
                txn: Some(cas.begin()?),
                name: CheckpointStore::rec_name(&dst).to_string(),
                rotate,
            }));
        }
        // Unique temp name per in-flight put: parallel per-rank service
        // lanes may stream into the same directory concurrently.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dst.with_extension(format!("tmp{n}"));
        let file = fs::File::create(&tmp)?;
        Ok(Box::new(FileRawSink {
            tmp,
            dst,
            w: BufWriter::new(file),
            written: 0,
            rotate: rotate.map(|rank| (self, rank)),
            renamed: false,
        }))
    }

    fn read_record(
        &self,
        key: RawRecordKind,
        max: usize,
        visit: &mut RecordVisitor<'_>,
    ) -> Result<bool> {
        let path = self.record_path(key);
        let bytes = if max == WHOLE_RECORD {
            self.record_bytes(&path)?
        } else {
            self.record_head(&path, max)?
        };
        match bytes {
            Some(bytes) => {
                visit(&bytes, false)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn copy_record(&self, key: RawRecordKind, out: &mut dyn Write) -> Result<Option<u64>> {
        let path = self.record_path(key);
        if let Some(cas) = &self.cas {
            if let Some(written) = cas.write_record_to(CheckpointStore::rec_name(&path), out)? {
                return Ok(Some(written));
            }
        }
        let mut file = match fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(std::io::copy(&mut file, out)?))
    }

    /// Sweeps any extension, so an orphaned temp file from a crash
    /// mid-delta-write is collected too.
    fn remove_deltas(&self, chains: Chains) -> Result<()> {
        let prefix = match chains {
            Chains::Of(rank) => Some(CheckpointStore::delta_prefix(rank)),
            Chains::All => None,
        };
        let doomed = |name: &str| match &prefix {
            Some(prefix) => name.starts_with(prefix),
            None => name.starts_with("ckpt_") && name.contains("_delta_"),
        };
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if doomed(&entry.file_name().to_string_lossy()) {
                remove_file(&entry.path())?;
            }
        }
        if let Some(cas) = &self.cas {
            for name in cas.list_manifests()? {
                if doomed(&name) {
                    cas.remove_manifest(&name)?;
                }
            }
        }
        Ok(())
    }

    /// Advance the group-commit point (atomically) to safe point `count`.
    fn commit_group(&self, count: u64) -> Result<()> {
        let tmp = self.commit_path().with_extension("tmp");
        fs::write(&tmp, count.to_le_bytes())?;
        fs::rename(&tmp, self.commit_path())?;
        Ok(())
    }

    /// The group-commit point: the newest safe point at which *every* shard
    /// of the group is durable. `None` before the first commit.
    fn committed_count(&self) -> Result<Option<u64>> {
        match fs::read(self.commit_path()) {
            Ok(bytes) => {
                let arr: [u8; 8] = bytes.as_slice().try_into().map_err(|_| {
                    PparError::CorruptCheckpoint(format!(
                        "group-commit record holds {} bytes, expected 8",
                        bytes.len()
                    ))
                })?;
                Ok(Some(u64::from_le_bytes(arr)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn take_put_stats(&self) -> PutStats {
        match &self.cas {
            Some(cas) => cas.take_put_stats(),
            None => PutStats::default(),
        }
    }

    fn begin_raw_dedup<'a>(
        &'a self,
        key: RawRecordKind,
        chunks: &[crate::cas::ChunkRef],
        total_len: u64,
    ) -> Result<Option<Box<dyn DedupRecordSink + 'a>>> {
        let Some(cas) = &self.cas else {
            return Ok(None);
        };
        let rotate = match key {
            RawRecordKind::Shard(rank) => Some(rank),
            _ => None,
        };
        Ok(Some(Box::new(CasDedupSink {
            store: self,
            txn: Some(cas.begin_dedup(chunks, total_len)?),
            name: CheckpointStore::rec_name(&self.record_path(key)).to_string(),
            rotate,
        })))
    }
}

/// A put into a content-addressed transaction: chunks dedup as they
/// arrive, commit is the same rotate-then-promote sequence as
/// [`FileRawSink`], abort (or drop) rolls the journal back.
struct CasRawSink<'a> {
    store: &'a CheckpointStore,
    txn: Option<crate::cas::CasTxn>,
    name: String,
    rotate: Option<u32>,
}

impl RawRecordSink for CasRawSink<'_> {
    fn write_chunk(&mut self, chunk: &[u8]) -> Result<()> {
        self.txn
            .as_mut()
            .expect("sink used after finish")
            .append(chunk)
    }

    fn commit(mut self: Box<Self>) -> Result<u64> {
        let txn = self.txn.take().expect("sink used after finish");
        // Stage (seal + fsync the journal manifest) *before* rotating the
        // previous generation aside: if staging fails, the directory is
        // untouched.
        let staged = txn.stage(&self.name)?;
        if let Some(rank) = self.rotate {
            self.store.rotate_shard_generation(rank)?;
        }
        let written = staged.promote()?;
        self.store.remove_superseded_flat(&self.name);
        Ok(written)
    }

    fn abort(self: Box<Self>) {
        // Dropping the transaction rolls back its journal.
    }
}

/// Digest-negotiated install: the transport already knows the record's
/// chunk list; only the chunks the store lacks are supplied.
struct CasDedupSink<'a> {
    store: &'a CheckpointStore,
    txn: Option<crate::cas::DedupTxn>,
    name: String,
    rotate: Option<u32>,
}

impl DedupRecordSink for CasDedupSink<'_> {
    fn missing(&self) -> &[u32] {
        self.txn.as_ref().expect("sink used after commit").missing()
    }

    fn supply_chunk(&mut self, bytes: &[u8]) -> Result<()> {
        self.txn
            .as_mut()
            .expect("sink used after commit")
            .supply_chunk(bytes)
    }

    fn commit(mut self: Box<Self>) -> Result<u64> {
        let txn = self.txn.take().expect("sink used after commit");
        if let Some(rank) = self.rotate {
            self.store.rotate_shard_generation(rank)?;
        }
        let written = txn.commit(&self.name)?;
        self.store.remove_superseded_flat(&self.name);
        Ok(written)
    }

    fn abort(self: Box<Self>) {
        // Dropping the transaction rolls back its journal.
    }
}

/// A put streamed through a [`BufWriter`] into a temp file and renamed over
/// the final name at commit: a crash (or an abort) mid-stream never leaves
/// a partial record under the final name. No record-sized buffer exists.
struct FileRawSink<'a> {
    tmp: PathBuf,
    dst: PathBuf,
    w: BufWriter<fs::File>,
    written: u64,
    /// Shard installs rotate the committed previous generation aside
    /// before the rename lands (see
    /// [`CheckpointStore::rotate_shard_generation`]).
    rotate: Option<(&'a CheckpointStore, u32)>,
    renamed: bool,
}

impl RawRecordSink for FileRawSink<'_> {
    fn write_chunk(&mut self, chunk: &[u8]) -> Result<()> {
        self.w.write_all(chunk)?;
        self.written += chunk.len() as u64;
        Ok(())
    }

    fn commit(mut self: Box<Self>) -> Result<u64> {
        self.w.flush()?;
        if let Some((store, rank)) = self.rotate {
            store.rotate_shard_generation(rank)?;
        }
        replace_file(&self.tmp, &self.dst)?;
        self.renamed = true;
        Ok(self.written)
    }

    fn abort(self: Box<Self>) {
        // Drop cleans up the temp file.
    }
}

impl Drop for FileRawSink<'_> {
    fn drop(&mut self) {
        // Abort, a failed commit or a panicked put: discard the partial
        // temp file.
        if !self.renamed {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

// ---------------------------------------------------------------------------
// reclaim: superseded record files are freed off the save path
// ---------------------------------------------------------------------------

/// Most superseded record files that may wait for the reclaimer at once
/// (queued or being closed). An operation that would exceed it waits
/// before it renames or unlinks, so at most this many dropped generations
/// hold disk blocks at any time.
pub(crate) const RECLAIM_BOUND: usize = 2;

/// The process-wide reclaimer: one lazily started thread whose only job is
/// to close the handles it is sent.
struct Reclaimer {
    /// `None` when the thread could not be started: victims then close in
    /// line, as an unlink without a reclaimer would.
    tx: Option<mpsc::SyncSender<Victim>>,
    /// Victims holding a slot (see [`RECLAIM_BOUND`]).
    held: Mutex<usize>,
    freed: Condvar,
}

fn reclaimer() -> &'static Reclaimer {
    static RECLAIMER: OnceLock<Reclaimer> = OnceLock::new();
    RECLAIMER.get_or_init(|| {
        let (tx, rx) = mpsc::sync_channel::<Victim>(RECLAIM_BOUND);
        // Never joined: it serves the whole process, and closing a file
        // cannot panic. Handles still queued at exit are closed by the
        // kernel with the process.
        let spawned = std::thread::Builder::new()
            .name("ppar-reclaim".into())
            .spawn(move || rx.into_iter().for_each(drop));
        Reclaimer {
            tx: spawned.ok().map(|_| tx),
            held: Mutex::new(0),
            freed: Condvar::new(),
        }
    })
}

/// Superseded record files currently holding a reclaim slot.
#[cfg(test)]
pub(crate) fn reclaim_pending() -> usize {
    *reclaimer().held.lock()
}

#[cfg(test)]
thread_local! {
    /// Victims this thread handed to the reclaimer (tests count the sites
    /// routed through it without seeing other tests' traffic).
    static HANDED_OFF: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One of the [`RECLAIM_BOUND`] places; released when dropped.
struct ReclaimSlot;

impl ReclaimSlot {
    fn acquire() -> ReclaimSlot {
        let r = reclaimer();
        let mut held = r.held.lock();
        while *held >= RECLAIM_BOUND {
            r.freed.wait(&mut held);
        }
        *held += 1;
        ReclaimSlot
    }
}

impl Drop for ReclaimSlot {
    fn drop(&mut self) {
        let r = reclaimer();
        *r.held.lock() -= 1;
        r.freed.notify_one();
    }
}

/// A read-only handle on a record file an operation is about to replace
/// or unlink. An unlinked inode lives until its last handle closes, so
/// the rename or unlink only changes the directory; the block free happens
/// wherever the victim is dropped: on the reclaimer after
/// [`Victim::reclaim`], in line otherwise (a failed rename or unlink).
struct Victim {
    // Field order matters: the file closes (freeing its blocks) before
    // the slot is released.
    _file: fs::File,
    _slot: ReclaimSlot,
}

impl Victim {
    /// Hold `path` open ahead of replacing or unlinking it; `None` when
    /// there is nothing to hold (absent or unreadable: the operation then
    /// frees in line).
    fn open(path: &Path) -> Option<Victim> {
        let file = fs::File::open(path).ok()?;
        Some(Victim {
            _file: file,
            _slot: ReclaimSlot::acquire(),
        })
    }

    /// Hand the handle to the reclaimer: only once the directory no longer
    /// names the victim's inode.
    fn reclaim(self) {
        #[cfg(test)]
        HANDED_OFF.with(|n| n.set(n.get() + 1));
        if let Some(tx) = &reclaimer().tx {
            // A failed send hands the victim back, which closes here.
            let _ = tx.send(self);
        }
    }
}

/// Rename `from` over `to`; whatever `to` named is freed by the reclaimer.
fn replace_file(from: &Path, to: &Path) -> Result<()> {
    let victim = Victim::open(to);
    fs::rename(from, to)?;
    if let Some(victim) = victim {
        victim.reclaim();
    }
    Ok(())
}

/// Unlink `path`, freeing it on the reclaimer. Tolerates a concurrent
/// remover (several modules of one group purging at start-up): losing the
/// race to delete is success.
fn remove_file(path: &Path) -> Result<()> {
    let victim = Victim::open(path);
    match fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
        _ => {}
    }
    if let Some(victim) = victim {
        victim.reclaim();
    }
    Ok(())
}

pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(PparError::CorruptCheckpoint(format!(
                "truncated: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn take_str(&mut self) -> Result<String> {
        let len = self.take_u64()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| PparError::CorruptCheckpoint(format!("invalid utf-8: {e}")))
    }
}

/// A checkpoint directory.
///
/// Two persistence layouts share one directory format:
///
/// * **flat** (the default, byte-compatible with every earlier release) —
///   each record is one file, rewritten whole on every save;
/// * **content-addressed** ([`crate::cas`]) — records are manifests over
///   deduplicated chunk objects, so a steady-state snapshot whose pages
///   mostly didn't change costs ~metadata instead of ~data.
///
/// Selection: [`CheckpointStore::new`] opens new directories flat and
/// reopens a directory that already holds a content-addressed store as
/// such; [`CheckpointStore::new_cas`] opts a new directory into the
/// content-addressed layout. Either way the records read back
/// bitwise-identical — both layouts store the same golden record encoding
/// — and a content-addressed store still *reads* legacy flat files, so old
/// run directories restore unchanged.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// `Some` when this directory uses the content-addressed layout.
    cas: Option<crate::cas::CasStore>,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory: the
    /// content-addressed layout when the directory already holds a
    /// content-addressed store, the flat layout otherwise.
    pub fn new(dir: impl AsRef<Path>) -> Result<CheckpointStore> {
        if crate::cas::CasStore::detect(dir.as_ref()) {
            CheckpointStore::new_cas(dir)
        } else {
            CheckpointStore::new_flat(dir)
        }
    }

    /// Open a checkpoint directory in the legacy flat layout.
    pub fn new_flat(dir: impl AsRef<Path>) -> Result<CheckpointStore> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(CheckpointStore {
            dir: dir.as_ref().to_path_buf(),
            cas: None,
        })
    }

    /// Open a checkpoint directory in the content-addressed layout with
    /// configuration from the environment (see [`crate::cas::CasConfig`]).
    pub fn new_cas(dir: impl AsRef<Path>) -> Result<CheckpointStore> {
        CheckpointStore::new_cas_with(dir, crate::cas::CasConfig::from_env())
    }

    /// [`CheckpointStore::new_cas`] with an explicit configuration.
    pub fn new_cas_with(
        dir: impl AsRef<Path>,
        cfg: crate::cas::CasConfig,
    ) -> Result<CheckpointStore> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(CheckpointStore {
            dir: dir.as_ref().to_path_buf(),
            cas: Some(crate::cas::CasStore::open_with(dir.as_ref(), cfg)?),
        })
    }

    /// The content-addressed store backing this directory, when the CAS
    /// layout is active (GC and dedup-stat access for benches and tools).
    pub fn cas(&self) -> Option<&crate::cas::CasStore> {
        self.cas.as_ref()
    }

    /// The directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    // ---- record seam: every read/rename/peek goes record-level so the
    // content-addressed layout (manifest first, flat file fallback for
    // legacy directories) and the flat layout share one code path ----

    fn rec_name(path: &Path) -> &str {
        path.file_name()
            .map(|n| n.to_str().expect("record names are ASCII"))
            .expect("record paths always carry a file name")
    }

    /// The record's full encoded bytes, or `None` when absent under both
    /// layouts.
    fn record_bytes(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        if let Some(cas) = &self.cas {
            if let Some(bytes) = cas.read_record(CheckpointStore::rec_name(path))? {
                return Ok(Some(bytes));
            }
        }
        match fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// The first `max` bytes of the record (header peeks), or `None` when
    /// absent under both layouts.
    fn record_head(&self, path: &Path, max: usize) -> Result<Option<Vec<u8>>> {
        use std::io::Read;
        if let Some(cas) = &self.cas {
            if let Some(head) = cas.read_head(CheckpointStore::rec_name(path), max)? {
                return Ok(Some(head));
            }
        }
        let file = match fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut head = Vec::new();
        file.take(max as u64).read_to_end(&mut head)?;
        Ok(Some(head))
    }

    /// Rename a record (manifest-level in the content-addressed layout;
    /// legacy flat files rename as files).
    fn record_rename(&self, from: &Path, to: &Path) -> Result<()> {
        if let Some(cas) = &self.cas {
            let from_name = CheckpointStore::rec_name(from);
            if cas.manifest_exists(from_name) {
                cas.rename_manifest(from_name, CheckpointStore::rec_name(to))?;
                // Stale flat files under either name are superseded by the
                // manifest that just moved (reads prefer manifests, but the
                // source name no longer has one to shadow its leftover).
                remove_file(to)?;
                remove_file(from)?;
                return Ok(());
            }
        }
        replace_file(from, to)
    }

    /// A freshly committed content-addressed record supersedes any legacy
    /// flat file of the same name left from before the layout switch.
    fn remove_superseded_flat(&self, name: &str) {
        let _ = remove_file(&self.dir.join(name));
    }

    /// Where the record under `key` lives.
    fn record_path(&self, key: RawRecordKind) -> PathBuf {
        match key {
            RawRecordKind::Master => self.master_path(),
            RawRecordKind::Shard(rank) => self.shard_path(rank),
            RawRecordKind::PrevShard(rank) => self.prev_shard_path(rank),
            RawRecordKind::MasterDelta { seq } => self.delta_path(None, seq),
            RawRecordKind::ShardDelta { rank, seq } => self.delta_path(Some(rank), seq),
        }
    }

    fn master_path(&self) -> PathBuf {
        self.dir.join("ckpt_master.bin")
    }

    fn shard_path(&self, rank: u32) -> PathBuf {
        self.dir.join(format!("ckpt_rank_{rank}.bin"))
    }

    /// The retained previous generation of a shard. Shard writes rotate the
    /// committed generation here instead of overwriting it, so a save torn
    /// by a rank death (some shards already advanced, the dying rank's did
    /// not) can still restore the whole group at the last *commit* point.
    fn prev_shard_path(&self, rank: u32) -> PathBuf {
        self.dir.join(format!("ckpt_rank_{rank}_prev.bin"))
    }

    fn commit_path(&self) -> PathBuf {
        self.dir.join("ckpt_commit")
    }

    fn marker_path(&self) -> PathBuf {
        self.dir.join("RUNNING")
    }

    fn delta_path(&self, rank: Option<u32>, seq: u32) -> PathBuf {
        match rank {
            None => self.dir.join(format!("ckpt_master_delta_{seq}.bin")),
            Some(r) => self.dir.join(format!("ckpt_rank_{r}_delta_{seq}.bin")),
        }
    }

    fn delta_prefix(rank: Option<u32>) -> String {
        match rank {
            None => "ckpt_master_delta_".to_string(),
            Some(r) => format!("ckpt_rank_{r}_delta_"),
        }
    }

    /// Preserve the committed generation of shard `rank` before a new base
    /// record replaces it: rotate `dst → prev` unless `dst` has already
    /// diverged from the commit point (then `prev` still holds the committed
    /// generation and must survive — a torn save retried after recovery must
    /// not evict the only restorable record).
    fn rotate_shard_generation(&self, rank: u32) -> Result<()> {
        let dst = self.shard_path(rank);
        let Some(head) = self.record_head(&dst, 4096)? else {
            return Ok(());
        };
        let keep = match self.committed_count()? {
            // A header that does not parse never matches: the full,
            // CRC-checked read path reports it when it matters.
            Some(c) => peek_record_count(&head) == Some(c),
            // No commit point yet: one generation of history is still
            // better than none.
            None => true,
        };
        if keep {
            self.record_rename(&dst, &self.prev_shard_path(rank))?;
        }
        Ok(())
    }

    /// Stream a master snapshot from live field sources; returns bytes
    /// written (the snapshot layer's
    /// [`crate::snapshot::SnapshotIo::put_master`] on this directory).
    pub fn stream_master(
        &self,
        meta: &SnapshotMeta,
        fields: &[(&str, FieldSource<'_>)],
        scratch: &mut Vec<u8>,
    ) -> Result<u64> {
        self.put_master(meta, fields, scratch)
    }

    /// Stream one element's shard from live field sources; returns bytes
    /// written.
    pub fn stream_shard(
        &self,
        meta: &SnapshotMeta,
        fields: &[(&str, FieldSource<'_>)],
        scratch: &mut Vec<u8>,
    ) -> Result<u64> {
        self.put_shard(meta, fields, scratch)
    }

    /// Persist a materialized master snapshot; returns bytes written.
    pub fn write_master(&self, snap: &Snapshot) -> Result<u64> {
        self.put_master(&snap.meta(), &snap.field_sources(), &mut Vec::new())
    }

    /// Load the master base snapshot (no delta chain folded in), if present.
    pub fn read_master(&self) -> Result<Option<Snapshot>> {
        match self.record_bytes(&self.master_path())? {
            Some(bytes) => Snapshot::decode(&bytes).map(Some),
            None => Ok(None),
        }
    }

    /// Delete the temp files of saves that died mid-write (`ckpt_*.tmp*`:
    /// a failed or killed local save, or a service install killed with its
    /// process — neither reaches its cleanup). Committed records are never
    /// touched. Start-up only: a put in flight would lose its temp file.
    pub fn remove_orphaned_temps(&self) -> Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("ckpt_") && name.contains(".tmp") {
                remove_file(&entry.path())?;
            }
        }
        Ok(())
    }

    /// Mark a run as in flight. Idempotent (all aggregate elements call it).
    pub fn set_marker(&self) -> Result<()> {
        fs::write(self.marker_path(), b"running")?;
        Ok(())
    }

    /// Is a run marked as in flight?
    pub fn marker_exists(&self) -> bool {
        self.marker_path().exists()
    }

    /// Clear the in-flight marker (normal completion).
    pub fn clear_marker(&self) -> Result<()> {
        remove_file(&self.marker_path())
    }

    /// Remove all snapshots and the marker (fresh directory for a new
    /// experiment).
    pub fn clear_all(&self) -> Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == "RUNNING" || name.starts_with("ckpt_") {
                remove_file(&entry.path())?;
            }
        }
        if let Some(cas) = &self.cas {
            for name in cas.list_manifests()? {
                if name.starts_with("ckpt_") {
                    cas.remove_manifest(&name)?;
                }
            }
            // Orphaned chunk objects are reclaimed eagerly: a cleared
            // directory should not keep paying for dead generations.
            cas.gc()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ppar_store_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample(rank: Option<u32>) -> Snapshot {
        Snapshot {
            mode_tag: "smp4".to_string(),
            count: 123,
            rank,
            nranks: 8,
            fields: vec![
                ("G".to_string(), vec![1, 2, 3, 4]),
                ("energy".to_string(), 42.0f64.to_le_bytes().to_vec()),
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for rank in [None, Some(0), Some(31)] {
            let s = sample(rank);
            let decoded = Snapshot::decode(&s.encode()).unwrap();
            assert_eq!(decoded, s);
        }
    }

    #[test]
    fn field_lookup_and_payload_size() {
        let s = sample(None);
        assert_eq!(s.field("G"), Some(&[1u8, 2, 3, 4][..]));
        assert!(s.field("missing").is_none());
        assert_eq!(s.payload_bytes(), 12);
    }

    #[test]
    fn corruption_detected() {
        let s = sample(None);
        let mut bytes = s.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        match Snapshot::decode(&bytes) {
            Err(PparError::CorruptCheckpoint(msg)) => assert!(msg.contains("CRC")),
            other => panic!("expected CRC error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let s = sample(None);
        let bytes = s.encode();
        assert!(Snapshot::decode(&bytes[..bytes.len() - 9]).is_err());
        assert!(Snapshot::decode(&bytes[..3]).is_err());
    }

    #[test]
    fn bad_magic_reports_format_mismatch() {
        let s = sample(None);
        let mut bytes = s.encode();
        bytes[0] = b'X';
        // fix up CRC so we reach the magic check
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(PparError::FormatMismatch { .. })
        ));
    }

    #[test]
    fn store_write_read_master_and_shards() {
        let dir = tmpdir("rw");
        let store = CheckpointStore::new(&dir).unwrap();
        assert!(store.read_master().unwrap().is_none());

        let master = sample(None);
        let written = store.write_master(&master).unwrap();
        assert!(written > 0);
        assert_eq!(store.read_master().unwrap().unwrap(), master);

        let shard = sample(Some(3));
        store
            .put_shard(&shard.meta(), &shard.field_sources(), &mut Vec::new())
            .unwrap();
        assert_eq!(store.read_merged_shard(3).unwrap().unwrap(), shard);
        assert!(store.read_merged_shard(4).unwrap().is_none());

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_count_prefers_master() {
        let dir = tmpdir("count");
        let store = CheckpointStore::new(&dir).unwrap();
        assert_eq!(store.restart_count().unwrap(), None);

        let mut shard = sample(Some(0));
        shard.count = 50;
        store
            .put_shard(&shard.meta(), &shard.field_sources(), &mut Vec::new())
            .unwrap();
        assert_eq!(store.restart_count().unwrap(), Some(50));

        let mut master = sample(None);
        master.count = 80;
        store.write_master(&master).unwrap();
        assert_eq!(store.restart_count().unwrap(), Some(80));

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn marker_lifecycle() {
        let dir = tmpdir("marker");
        let store = CheckpointStore::new(&dir).unwrap();
        assert!(!store.marker_exists());
        store.set_marker().unwrap();
        store.set_marker().unwrap(); // idempotent
        assert!(store.marker_exists());
        store.clear_marker().unwrap();
        store.clear_marker().unwrap(); // idempotent
        assert!(!store.marker_exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_all_removes_artifacts() {
        let dir = tmpdir("clear");
        let store = CheckpointStore::new(&dir).unwrap();
        store.set_marker().unwrap();
        store.write_master(&sample(None)).unwrap();
        let shard = sample(Some(1));
        store
            .put_shard(&shard.meta(), &shard.field_sources(), &mut Vec::new())
            .unwrap();
        store.clear_all().unwrap();
        assert!(!store.marker_exists());
        assert!(store.read_master().unwrap().is_none());
        assert!(store.read_merged_shard(1).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    // ---- streaming writer ----

    use ppar_core::shared::SharedVec;
    use ppar_core::state::StateCell;

    fn bytes_fields(snap: &Snapshot) -> Vec<(&str, FieldSource<'_>)> {
        snap.fields
            .iter()
            .map(|(n, b)| (n.as_str(), FieldSource::Bytes(b)))
            .collect()
    }

    /// The golden-bytes guarantee: for identical content, the streaming
    /// writer's file is byte-for-byte the legacy materialized encoding.
    #[test]
    fn golden_bytes_streaming_equals_legacy_encode() {
        let dir = tmpdir("golden");
        let store = CheckpointStore::new(&dir).unwrap();
        let cases = vec![
            sample(None),
            sample(Some(3)),
            // Edge: snapshot with no fields at all.
            Snapshot {
                mode_tag: "seq".into(),
                count: 0,
                rank: None,
                nranks: 1,
                fields: vec![],
            },
            // Edge: empty payload and empty name.
            Snapshot {
                mode_tag: String::new(),
                count: u64::MAX,
                rank: Some(0),
                nranks: 1,
                fields: vec![("empty".into(), vec![]), (String::new(), vec![7])],
            },
        ];
        for snap in cases {
            let golden = snap.encode();
            let written = if snap.rank.is_none() {
                store
                    .stream_master(&snap.meta(), &bytes_fields(&snap), &mut Vec::new())
                    .unwrap()
            } else {
                store
                    .stream_shard(&snap.meta(), &bytes_fields(&snap), &mut Vec::new())
                    .unwrap()
            };
            let path = match snap.rank {
                None => store.master_path(),
                Some(r) => store.shard_path(r),
            };
            let streamed = fs::read(&path).unwrap();
            assert_eq!(streamed, golden, "streamed bytes differ for {snap:?}");
            assert_eq!(written, golden.len() as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `FieldSource::Cell` (the zero-copy path) must produce the same bytes
    /// as materializing the cell through `save_bytes`.
    #[test]
    fn golden_bytes_cell_source_matches_materialized() {
        let dir = tmpdir("golden_cell");
        let store = CheckpointStore::new(&dir).unwrap();
        let grid: Vec<f64> = (0..512).map(|i| i as f64 * 0.5 - 17.0).collect();
        let vec_cell = SharedVec::from_vec(grid);
        let empty_cell = SharedVec::new(0, 0.0f64);

        let materialized = Snapshot {
            mode_tag: "smp4".into(),
            count: 9,
            rank: None,
            nranks: 1,
            fields: vec![
                ("G".into(), vec_cell.save_bytes()),
                ("Z".into(), empty_cell.save_bytes()),
            ],
        };
        let golden = materialized.encode();

        let fields: Vec<(&str, FieldSource<'_>)> = vec![
            ("G", FieldSource::Cell(&vec_cell)),
            ("Z", FieldSource::Cell(&empty_cell)),
        ];
        let mut scratch = Vec::new();
        store
            .stream_master(&materialized.meta(), &fields, &mut scratch)
            .unwrap();
        let streamed = fs::read(store.master_path()).unwrap();
        assert_eq!(streamed, golden);
        assert!(
            scratch.is_empty(),
            "known-length cells must not touch the scratch buffer"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Files written by the legacy encoder load through the reader, and
    /// files written by the streaming writer decode to the same snapshot:
    /// both directions of the format-compatibility acceptance criterion.
    #[test]
    fn legacy_and_streamed_files_are_interchangeable() {
        let dir = tmpdir("interop");
        let store = CheckpointStore::new(&dir).unwrap();
        let snap = sample(None);

        // Legacy writer -> new reader.
        fs::write(store.master_path(), snap.encode()).unwrap();
        assert_eq!(store.read_master().unwrap().unwrap(), snap);

        // Streaming writer -> reader.
        store
            .stream_master(&snap.meta(), &bytes_fields(&snap), &mut Vec::new())
            .unwrap();
        assert_eq!(store.read_master().unwrap().unwrap(), snap);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_file_corruption_and_truncation_detected() {
        let dir = tmpdir("stream_corrupt");
        let store = CheckpointStore::new(&dir).unwrap();
        let snap = sample(None);
        store
            .stream_master(&snap.meta(), &bytes_fields(&snap), &mut Vec::new())
            .unwrap();
        let good = fs::read(store.master_path()).unwrap();

        // Bit flip anywhere must fail the CRC.
        for pos in [0, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x01;
            fs::write(store.master_path(), &bad).unwrap();
            assert!(
                matches!(
                    store.read_master(),
                    Err(PparError::CorruptCheckpoint(_)) | Err(PparError::FormatMismatch { .. })
                ),
                "bit flip at {pos} undetected"
            );
        }

        // Truncation at any boundary must fail.
        for cut in [1, 4, good.len() / 2, good.len() - 1] {
            fs::write(store.master_path(), &good[..cut]).unwrap();
            assert!(
                store.read_master().is_err(),
                "truncation to {cut} undetected"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Full save -> load round trip of a `SharedVec<f64>` through the
    /// `write_state` fast path (no per-element serialization on save).
    #[test]
    fn shared_vec_f64_roundtrips_through_streaming_path() {
        let dir = tmpdir("vec_roundtrip");
        let store = CheckpointStore::new(&dir).unwrap();
        let values: Vec<f64> = (0..1000)
            .map(|i| (i as f64).sin() * 1e9 + f64::EPSILON * i as f64)
            .collect();
        let cell = SharedVec::from_vec(values.clone());
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 42,
            rank: None,
            nranks: 1,
        };
        let fields: Vec<(&str, FieldSource<'_>)> = vec![("G", FieldSource::Cell(&cell))];
        store
            .stream_master(&meta, &fields, &mut Vec::new())
            .unwrap();

        let back = store.read_master().unwrap().unwrap();
        assert_eq!(back.count, 42);
        let restored = SharedVec::new(1000, 0.0f64);
        restored.load_bytes(back.field("G").unwrap()).unwrap();
        assert_eq!(restored.to_vec(), values);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Length-unknown cells (serde-backed) stream through the reusable
    /// scratch buffer and still hit the golden encoding.
    #[test]
    fn unknown_length_cells_buffer_through_scratch() {
        struct OpaqueCell(Vec<u8>);
        impl StateCell for OpaqueCell {
            fn save_bytes(&self) -> Vec<u8> {
                self.0.clone()
            }
            fn load_bytes(&self, _bytes: &[u8]) -> ppar_core::error::Result<()> {
                Ok(())
            }
            fn byte_len(&self) -> usize {
                self.0.len()
            }
            fn known_byte_len(&self) -> Option<usize> {
                None
            }
        }
        let dir = tmpdir("scratch");
        let store = CheckpointStore::new(&dir).unwrap();
        let cell = OpaqueCell(vec![1, 2, 3, 4, 5]);
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 1,
            rank: None,
            nranks: 1,
        };
        let fields: Vec<(&str, FieldSource<'_>)> = vec![("pop", FieldSource::Cell(&cell))];
        let mut scratch = Vec::new();
        store.stream_master(&meta, &fields, &mut scratch).unwrap();
        assert_eq!(scratch, vec![1, 2, 3, 4, 5], "field buffered via scratch");

        let golden = Snapshot {
            mode_tag: "seq".into(),
            count: 1,
            rank: None,
            nranks: 1,
            fields: vec![("pop".into(), vec![1, 2, 3, 4, 5])],
        }
        .encode();
        assert_eq!(fs::read(store.master_path()).unwrap(), golden);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_writer_enforces_announced_field_count() {
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 0,
            rank: None,
            nranks: 1,
        };
        // Fewer fields than announced: finish() must refuse.
        let w = SnapshotWriter::new(Vec::new(), &meta, 2).unwrap();
        assert!(w.finish().is_err());
        // More fields than announced: the extra field must refuse.
        let mut w = SnapshotWriter::new(Vec::new(), &meta, 1).unwrap();
        w.field("a", &FieldSource::Bytes(&[1]), &mut Vec::new())
            .unwrap();
        assert!(w
            .field("b", &FieldSource::Bytes(&[2]), &mut Vec::new())
            .is_err());
        // Exact count round-trips.
        let mut w = SnapshotWriter::new(Vec::new(), &meta, 1).unwrap();
        w.field("a", &FieldSource::Bytes(&[1, 2, 3]), &mut Vec::new())
            .unwrap();
        let (written, bytes) = w.finish().unwrap();
        assert_eq!(written as usize, bytes.len());
        let decoded = Snapshot::decode(&bytes).unwrap();
        assert_eq!(decoded.field("a"), Some(&[1u8, 2, 3][..]));
    }

    // ---- delta records and merge-on-load ----

    use crate::delta::DeltaMeta;

    fn delta_meta(count: u64, base_count: u64, seq: u32, rank: Option<u32>) -> DeltaMeta {
        DeltaMeta {
            mode_tag: "seq".into(),
            count,
            base_count,
            seq,
            rank,
            nranks: 1,
        }
    }

    /// Persist `cell` as the base, then express subsequent writes as a
    /// delta chain and check the merged restore equals a fresh full save.
    #[test]
    fn base_plus_delta_chain_restores_byte_identical() {
        let dir = tmpdir("delta_chain");
        let store = CheckpointStore::new(&dir).unwrap();
        // 40k f64 = 40 dirty chunks, so touching a couple of chunks keeps
        // deltas far below the base size.
        let v = SharedVec::from_vec((0..40_000).map(|i| i as f64).collect());
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 10,
            rank: None,
            nranks: 1,
        };
        store
            .stream_master(&meta, &[("G", FieldSource::Cell(&v))], &mut Vec::new())
            .unwrap();
        v.clear_dirty();

        // Delta 1 touches the front, delta 2 overlaps it (last writer wins).
        v.set(0, -1.0);
        v.set(1100, -2.0);
        let ranges = v.dirty_byte_ranges();
        let dm = delta_meta(20, 10, 1, None);
        store
            .put_master_delta(
                &dm,
                &[(
                    "G",
                    DeltaSource::DirtyCell {
                        cell: &v,
                        ranges: &ranges,
                    },
                )],
                &mut Vec::new(),
            )
            .unwrap();
        v.clear_dirty();

        v.set(0, 99.0); // overlaps delta 1's chunk
        v.set(39_999, 5.5);
        let ranges = v.dirty_byte_ranges();
        let dm = delta_meta(30, 10, 2, None);
        store
            .put_master_delta(
                &dm,
                &[(
                    "G",
                    DeltaSource::DirtyCell {
                        cell: &v,
                        ranges: &ranges,
                    },
                )],
                &mut Vec::new(),
            )
            .unwrap();

        let merged = store.read_merged_master().unwrap().unwrap();
        assert_eq!(merged.count, 30, "restart replays to the last delta");
        assert_eq!(merged.field("G").unwrap(), v.save_bytes().as_slice());
        assert_eq!(store.restart_count().unwrap(), Some(30));

        // Delta files are much smaller than the base (the whole point).
        let base_len = fs::metadata(store.master_path()).unwrap().len();
        let d1_len = fs::metadata(store.delta_path(None, 1)).unwrap().len();
        assert!(
            d1_len * 2 < base_len,
            "delta ({d1_len}B) should be far smaller than base ({base_len}B)"
        );

        // Promotion GC.
        store.remove_deltas(Chains::Of(None)).unwrap();
        assert!(store.read_delta(None, 1).unwrap().is_none());
        assert!(store.read_delta(None, 2).unwrap().is_none());
        assert_eq!(store.read_merged_master().unwrap().unwrap().count, 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_delta_is_a_noop_that_advances_the_count() {
        let dir = tmpdir("delta_empty");
        let store = CheckpointStore::new(&dir).unwrap();
        let v = SharedVec::from_vec(vec![1.0f64; 100]);
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 1,
            rank: None,
            nranks: 1,
        };
        store
            .stream_master(&meta, &[("G", FieldSource::Cell(&v))], &mut Vec::new())
            .unwrap();
        v.clear_dirty();

        let dm = delta_meta(2, 1, 1, None);
        store
            .put_master_delta(
                &dm,
                &[(
                    "G",
                    DeltaSource::DirtyCell {
                        cell: &v,
                        ranges: &[],
                    },
                )],
                &mut Vec::new(),
            )
            .unwrap();
        let merged = store.read_merged_master().unwrap().unwrap();
        assert_eq!(merged.count, 2);
        assert_eq!(merged.field("G").unwrap(), v.save_bytes().as_slice());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_truncated_delta_is_detected() {
        let dir = tmpdir("delta_corrupt");
        let store = CheckpointStore::new(&dir).unwrap();
        let v = SharedVec::from_vec(vec![2.0f64; 1500]);
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 1,
            rank: None,
            nranks: 1,
        };
        store
            .stream_master(&meta, &[("G", FieldSource::Cell(&v))], &mut Vec::new())
            .unwrap();
        v.clear_dirty();
        v.set(7, 3.0);
        let ranges = v.dirty_byte_ranges();
        store
            .put_master_delta(
                &delta_meta(2, 1, 1, None),
                &[(
                    "G",
                    DeltaSource::DirtyCell {
                        cell: &v,
                        ranges: &ranges,
                    },
                )],
                &mut Vec::new(),
            )
            .unwrap();
        let path = store.delta_path(None, 1);
        let good = fs::read(&path).unwrap();

        // Bit flips anywhere fail the CRC (or the magic/version check).
        for pos in [0, 8, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            assert!(
                store.read_merged_master().is_err(),
                "bit flip at {pos} undetected"
            );
        }
        // Truncations fail.
        for cut in [3, 16, good.len() / 2, good.len() - 1] {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(
                store.read_merged_master().is_err(),
                "truncation to {cut} undetected"
            );
        }
        // An unsupported format version is rejected up front.
        let mut v2 = good.clone();
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        let n = v2.len();
        let crc = crc32(&v2[..n - 4]);
        v2[n - 4..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &v2).unwrap();
        match store.read_merged_master() {
            Err(PparError::FormatMismatch { expected, .. }) => {
                assert!(expected.contains("delta format"))
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_chain_from_old_base_is_ignored() {
        let dir = tmpdir("delta_stale");
        let store = CheckpointStore::new(&dir).unwrap();
        let v = SharedVec::from_vec(vec![0.0f64; 64]);
        let snap = |count| SnapshotMeta {
            mode_tag: "seq".into(),
            count,
            rank: None,
            nranks: 1,
        };
        store
            .stream_master(&snap(1), &[("G", FieldSource::Cell(&v))], &mut Vec::new())
            .unwrap();
        v.clear_dirty();
        v.set(0, 1.0);
        let ranges = v.dirty_byte_ranges();
        store
            .put_master_delta(
                &delta_meta(2, 1, 1, None),
                &[(
                    "G",
                    DeltaSource::DirtyCell {
                        cell: &v,
                        ranges: &ranges,
                    },
                )],
                &mut Vec::new(),
            )
            .unwrap();

        // Promote a new base (count 3) but "crash" before delta GC: the
        // leftover delta's base_count (1) no longer matches and must be
        // skipped, not applied and not fatal.
        v.set(0, 42.0);
        store
            .stream_master(&snap(3), &[("G", FieldSource::Cell(&v))], &mut Vec::new())
            .unwrap();
        let merged = store.read_merged_master().unwrap().unwrap();
        assert_eq!(merged.count, 3);
        assert_eq!(merged.field("G").unwrap(), v.save_bytes().as_slice());

        // An in-chain sequence-number mismatch, by contrast, is corruption.
        store
            .put_master_delta(
                &delta_meta(4, 3, 2, None),
                &[("G", DeltaSource::Full(FieldSource::Cell(&v)))],
                &mut Vec::new(),
            )
            .unwrap();
        fs::rename(store.delta_path(None, 2), store.delta_path(None, 1)).unwrap();
        assert!(store.read_merged_master().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // ranges here are span data
    fn shard_delta_chain_merges_relative_to_shard_payload() {
        let dir = tmpdir("delta_shard");
        let store = CheckpointStore::new(&dir).unwrap();
        // Shard payloads are owned-block extractions; offsets in shard
        // deltas are relative to that payload, not the full field.
        let shard_bytes: Vec<u8> = (0..64u8).collect();
        let meta = SnapshotMeta {
            mode_tag: "dist4".into(),
            count: 5,
            rank: Some(2),
            nranks: 4,
        };
        store
            .stream_shard(
                &meta,
                &[("G", FieldSource::Bytes(&shard_bytes))],
                &mut Vec::new(),
            )
            .unwrap();

        let patch = [9u8; 8];
        let mut dm = delta_meta(6, 5, 1, Some(2));
        dm.nranks = 4;
        store
            .put_shard_delta(
                &dm,
                &[(
                    "G",
                    DeltaSource::DirtyBytes {
                        full_len: 64,
                        ranges: &[16..24],
                        payload: &patch,
                    },
                )],
                &mut Vec::new(),
            )
            .unwrap();
        let merged = store.read_merged_shard(2).unwrap().unwrap();
        assert_eq!(merged.count, 6);
        let mut expect = shard_bytes.clone();
        expect[16..24].copy_from_slice(&patch);
        assert_eq!(merged.field("G").unwrap(), expect.as_slice());
        // Master chain is untouched by shard deltas.
        assert!(store.read_merged_master().unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_roundtrips_through_decode() {
        let dir = tmpdir("delta_decode");
        let store = CheckpointStore::new(&dir).unwrap();
        let v = SharedVec::from_vec((0..2000).map(|i| (i as f64).sqrt()).collect());
        v.clear_dirty();
        v.set(1500, -8.0);
        let ranges = v.dirty_byte_ranges();
        let opaque = vec![1u8, 2, 3];
        store
            .put_master_delta(
                &delta_meta(7, 3, 2, None),
                &[
                    (
                        "G",
                        DeltaSource::DirtyCell {
                            cell: &v,
                            ranges: &ranges,
                        },
                    ),
                    ("pop", DeltaSource::Full(FieldSource::Bytes(&opaque))),
                ],
                &mut Vec::new(),
            )
            .unwrap();
        let d = store.read_delta(None, 2).unwrap().unwrap();
        assert_eq!(d.meta, delta_meta(7, 3, 2, None));
        assert_eq!(d.fields.len(), 2);
        match &d.fields[0].1 {
            crate::delta::DeltaPayload::Sparse {
                full_len,
                ranges: rs,
            } => {
                assert_eq!(*full_len, 2000 * 8);
                assert_eq!(rs.len(), 1);
                assert_eq!(rs[0].0 as usize, ranges[0].start);
                assert_eq!(rs[0].1.len(), ranges[0].len());
            }
            other => panic!("expected sparse payload, got {other:?}"),
        }
        assert_eq!(d.fields[1].1, crate::delta::DeltaPayload::Full(opaque));
        fs::remove_dir_all(&dir).unwrap();
    }

    proptest::proptest! {
        /// The acceptance-criterion property: for arbitrary write sequences,
        /// restoring base + delta chain is byte-identical to a full snapshot
        /// of the same final state.
        #[test]
        fn prop_base_plus_deltas_equals_full_snapshot(
            w1 in proptest::collection::vec((0usize..3000, proptest::prelude::any::<f64>()), 0..40),
            w2 in proptest::collection::vec((0usize..3000, proptest::prelude::any::<f64>()), 0..40)
        ) {
            let dir = tmpdir("prop_delta");
            let store = CheckpointStore::new(&dir).unwrap();
            let v = SharedVec::from_vec((0..3000).map(|i| i as f64 * 0.25).collect());
            let meta = SnapshotMeta {
                mode_tag: "seq".into(),
                count: 1,
                rank: None,
                nranks: 1,
            };
            store
                .stream_master(&meta, &[("G", FieldSource::Cell(&v))], &mut Vec::new())
                .unwrap();
            v.clear_dirty();

            for (seq, writes) in [(1u32, &w1), (2u32, &w2)] {
                for &(i, val) in writes {
                    v.set(i, val);
                }
                let ranges = v.dirty_byte_ranges();
                store
                    .put_master_delta(
                        &delta_meta(1 + seq as u64, 1, seq, None),
                        &[("G", DeltaSource::DirtyCell { cell: &v, ranges: &ranges })],
                        &mut Vec::new(),
                    )
                    .unwrap();
                v.clear_dirty();
            }

            let merged = store.read_merged_master().unwrap().unwrap();
            proptest::prop_assert_eq!(merged.field("G").unwrap(), v.save_bytes().as_slice());
            proptest::prop_assert_eq!(merged.count, 3);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    // ---- reclaim ----

    use std::collections::BTreeMap;

    /// Name and size of every entry in `dir`.
    fn listing(dir: &Path) -> BTreeMap<String, u64> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, e.metadata().unwrap().len())
            })
            .collect()
    }

    fn handed_off() -> usize {
        HANDED_OFF.with(|n| n.get())
    }

    /// A record whose size differs per generation, so a directory listing
    /// tells generations apart.
    fn generation(count: u64, rank: Option<u32>) -> Snapshot {
        let len = (16 << 10) + count as usize * 512;
        Snapshot {
            mode_tag: "smp2".into(),
            count,
            rank,
            nranks: 1,
            fields: vec![(
                "G".into(),
                (0..len).map(|i| (i as u64 ^ count) as u8).collect(),
            )],
        }
    }

    /// Master replacement, shard rotation and delta-chain GC leave exactly
    /// the names and sizes an in-line unlink would, restores stay
    /// byte-identical, every dropped record reaches the reclaimer, and the
    /// reclaim queue never holds more than its bound.
    #[test]
    fn reclaimed_generations_leave_the_directory_unchanged() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let dir = tmpdir("reclaim");
        let store = CheckpointStore::new(&dir).unwrap();
        let done = AtomicBool::new(false);
        /// Stops the sampler on the way out, also when an assertion fails
        /// (the scope would otherwise wait for it forever).
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let max_pending = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut max = 0;
                while !done.load(Ordering::SeqCst) {
                    max = max.max(reclaim_pending());
                    std::thread::yield_now();
                }
                max
            });
            let stop = Stop(&done);
            let mut expect = BTreeMap::new();
            let check = |expect: &BTreeMap<String, u64>, handed: usize, want: usize| {
                assert_eq!(&listing(&dir), expect);
                assert_eq!(handed_off() - handed, want, "victims handed off");
                assert!(reclaim_pending() <= RECLAIM_BOUND);
            };
            let mut prev_shard: Option<(Snapshot, u64)> = None;
            for round in 1..=20u64 {
                let handed = handed_off();
                let master = generation(round, None);
                let written = store.write_master(&master).unwrap();
                expect.insert("ckpt_master.bin".to_string(), written);
                check(&expect, handed, usize::from(round > 1));
                assert_eq!(store.read_master().unwrap().unwrap(), master);

                // No commit point: every shard put rotates the current
                // generation to `_prev`, dropping the one before it.
                let handed = handed_off();
                let shard = generation(round, Some(0));
                let written = store
                    .put_shard(&shard.meta(), &shard.field_sources(), &mut Vec::new())
                    .unwrap();
                expect.insert("ckpt_rank_0.bin".to_string(), written);
                if let Some((_, len)) = &prev_shard {
                    expect.insert("ckpt_rank_0_prev.bin".to_string(), *len);
                }
                check(&expect, handed, usize::from(round > 2));
                assert_eq!(store.read_merged_shard(0).unwrap().unwrap(), shard);
                if let Some((prev, _)) = &prev_shard {
                    assert_eq!(
                        store.read_shard_at(0, round - 1).unwrap().as_ref(),
                        Some(prev)
                    );
                }
                prev_shard = Some((shard, written));

                let handed = handed_off();
                let mut tip = master.clone();
                for seq in 1..=2u32 {
                    tip.count = round * 100 + u64::from(seq);
                    tip.fields[0]
                        .1
                        .iter_mut()
                        .for_each(|b| *b = b.wrapping_add(1));
                    let written = store
                        .put_master_delta(
                            &delta_meta(tip.count, round, seq, None),
                            &[("G", DeltaSource::Full(FieldSource::Bytes(&tip.fields[0].1)))],
                            &mut Vec::new(),
                        )
                        .unwrap();
                    expect.insert(format!("ckpt_master_delta_{seq}.bin"), written);
                }
                check(&expect, handed, 0);
                let merged = store.read_merged_master().unwrap().unwrap();
                assert_eq!((merged.count, &merged.fields), (tip.count, &tip.fields));

                let handed = handed_off();
                store.remove_deltas(Chains::Of(None)).unwrap();
                expect.retain(|name, _| !name.contains("_delta_"));
                check(&expect, handed, 2);
                assert_eq!(store.read_merged_master().unwrap().unwrap(), master);
            }
            drop(stop);
            sampler.join().unwrap()
        });
        assert!(
            max_pending <= RECLAIM_BOUND,
            "pending peaked at {max_pending}"
        );

        let handed = handed_off();
        store.clear_all().unwrap();
        assert!(listing(&dir).is_empty());
        assert_eq!(handed_off() - handed, 3, "master, shard and prev shard");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A rename that fails (here: the record it would replace is a
    /// non-empty directory) closes its victim in line, never on the
    /// reclaimer, and the previous record stays readable.
    #[test]
    fn failed_rename_keeps_the_previous_record_and_reclaims_nothing() {
        let dir = tmpdir("reclaim_fail");
        let store = CheckpointStore::new(&dir).unwrap();
        let gen1 = generation(1, Some(0));
        store
            .put_shard(&gen1.meta(), &gen1.field_sources(), &mut Vec::new())
            .unwrap();
        // Shard rotation renames the current generation onto `_prev`;
        // master saves rename the temp file onto the master record.
        for blocked in [store.prev_shard_path(0), store.master_path()] {
            fs::create_dir(&blocked).unwrap();
            fs::write(blocked.join("x"), b"x").unwrap();
        }
        let before = listing(&dir);
        let handed = handed_off();

        let gen2 = generation(2, Some(0));
        assert!(store
            .put_shard(&gen2.meta(), &gen2.field_sources(), &mut Vec::new())
            .is_err());
        assert!(store.write_master(&generation(2, None)).is_err());

        assert_eq!(handed_off(), handed, "a failed rename hands nothing off");
        assert_eq!(listing(&dir), before, "no temp file, nothing moved");
        assert_eq!(store.read_merged_shard(0).unwrap().unwrap(), gen1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overwrite_is_atomic_replacement() {
        let dir = tmpdir("atomic");
        let store = CheckpointStore::new(&dir).unwrap();
        let mut s = sample(None);
        store.write_master(&s).unwrap();
        s.count = 999;
        s.fields[0].1 = vec![9; 1000];
        store.write_master(&s).unwrap();
        let back = store.read_master().unwrap().unwrap();
        assert_eq!(back.count, 999);
        assert_eq!(back.fields[0].1.len(), 1000);
        fs::remove_dir_all(&dir).unwrap();
    }
}
