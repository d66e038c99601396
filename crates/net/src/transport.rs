//! `NetTransport`: streaming checkpoint records over the fabric.
//!
//! In a real multi-process job the ranks no longer share an address space
//! — and often no disk. This module extends the checkpoint layer's
//! keyed-record medium seam ([`CkptTransport`]) across that boundary, and
//! it does so **streaming end-to-end**: no hop on the rank → root path (and
//! none on the root → rank restore path) ever buffers a whole record.
//!
//! * every **non-root** rank persists through a [`NetTransport`] *client*:
//!   the snapshot layer's shared golden encoder streams straight into the
//!   client's put sink, which cuts the encoded bytes into ~4 MiB chunk
//!   frames as they are produced — a gigabyte-scale record costs the
//!   client one chunk buffer, not a record-sized staging `Vec`;
//! * the **root** runs a [`CkptService`]: a dispatcher thread that routes
//!   each rank's requests to a dedicated per-rank *lane* thread, so four
//!   ranks checkpointing concurrently stream through four independent
//!   pipelines. A lane feeds arriving chunks straight into the durable
//!   medium's [`RawRecordSink`] (`CkptTransport::begin_put`) while one
//!   running [`TrailingCrc`] pass verifies the record's own CRC — the
//!   same bytes, one verification, no decode → re-encode round trip;
//! * reads stream records back root → rank through the same chunk
//!   protocol (`CkptTransport::copy_record`); the count-pinned shard read
//!   of a restore is one round trip that streams the root's merged record
//!   at the requested safe point.
//!
//! The service moves records, not snapshots: delta-chain merging and the
//! restart target run in the snapshot layer above whichever medium a rank
//! holds. Because the record bytes are produced by the same encoder on
//! every rank, a shard streamed over TCP is byte-identical to the file a
//! local save of the same state would have produced — state migrates
//! between processes without any re-serialisation layer.
//!
//! ## Stream protocol
//!
//! Every request starts `[op][stream id u32][key][arg u64]`, the key being
//! `[kind][rank u32][seq u32]`. A put (`OP_PUT`, arg = length hint) is
//! followed by chunk frames on the stream's own data tag. Every chunk
//! frame carries a one-byte marker prefix: `CH_DATA` bytes, `CH_END`
//! record complete, `CH_ABORT` sender failed mid-record (message follows).
//! The receiver grants flow-control *credits* — the cumulative count of
//! chunks it has consumed — on the stream's credit tag, one per
//! `CREDIT_BATCH` chunks plus a final credit at stream end; the sender
//! keeps at most `STREAM_WINDOW` chunks in flight, so per-stream buffering
//! is bounded on both sides regardless of record size. The service answers
//! a put with a fixed nine-byte `[status][bytes written]` response once the
//! record is committed (or discarded). A get (`OP_GET`, arg = byte bound,
//! `u64::MAX` for the whole record; `OP_GET_AT`, arg = safe point) streams
//! the same chunk protocol in the other direction, with `CH_ABSENT`
//! standing in for "no record". `OP_COMMITTED` and `OP_CLEAR` are plain
//! request/response control operations.
//!
//! Data chunks ride on raw-payload frames ([`TAG_RAW_PAYLOAD_BIT`]): the
//! frame-level CRC covers the tag and the marker byte only, because the
//! record bytes are already protected end-to-end by the record's own
//! trailing CRC — one checksum pass per byte on each side, not two.
//!
//! ## Failure containment
//!
//! A lane in trouble must never wedge its peer: if the durable sink fails
//! mid-stream, the lane keeps receiving and crediting (discarding the
//! bytes) until the stream ends, then reports the failure in the
//! response. A CRC mismatch or a client abort discards the partial
//! record through [`RawRecordSink::abort`] — the previously installed
//! record for that key is untouched. A client that dies mid-stream
//! takes only its own lane down; the other ranks' pipelines keep
//! flowing.
//!
//! ## Tag space
//!
//! Checkpoint frames run under [`CKPT_TAG_BIT`] (bit 62). User messages
//! carry bit 63 and collective tags stay far below bit 62, so checkpoint
//! traffic can never cross-match either. Stream frames additionally
//! carry a per-stream 32-bit id (drawn from a process-wide counter) in
//! the tag's low bits, so a stale frame from an aborted stream can never
//! be mistaken for part of a later one.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use ppar_ckpt::store::Snapshot;
use ppar_ckpt::transport::{
    Chains, CkptTransport, RawRecordKind, RawRecordSink, RecordVisitor, WHOLE_RECORD,
};
use ppar_ckpt::{ChunkDigest, ChunkRef, PutStats, SnapshotIo, TrailingCrc};
use ppar_core::error::{PparError, Result};
use ppar_core::shared::DIRTY_CHUNK_BYTES;

use crate::fabric::{Fabric, Payload};
use crate::frame::{max_frame_payload, TAG_RAW_PAYLOAD_BIT};

/// Tag-space bit reserved for checkpoint service frames.
pub const CKPT_TAG_BIT: u64 = 1 << 62;
/// Requests rank → root.
const REQ_TAG: u64 = CKPT_TAG_BIT | 0x10;
/// Responses root → rank.
const RSP_TAG: u64 = CKPT_TAG_BIT | 0x11;

/// Wire sentinel for "master chain" where a rank number is expected.
const MASTER_SENTINEL: u32 = 0xFFFF_FFFF;

// Request opcodes.
/// Streamed put of one record.
const OP_PUT: u8 = 1;
/// Streamed get of one record (or of its first `arg` bytes).
const OP_GET: u8 = 2;
/// Count-pinned shard read (the recovery path): the reply holds the shard
/// exactly at the requested safe point, or fails — never a newer (torn) or
/// older generation.
const OP_GET_AT: u8 = 3;
/// The root medium's group-commit point.
const OP_COMMITTED: u8 = 4;
/// Delta-chain removal.
const OP_CLEAR: u8 = 5;
const OP_STOP: u8 = 6;
/// Digest-negotiated put: the client announces the record's chunk digests
/// first; the service answers with the indices its store lacks, and only
/// those chunks ride the wire. Answered with [`ST_NODEDUP`] when the root's
/// durable medium has no content-addressed store behind it.
const OP_PUT_DEDUP: u8 = 7;

/// Bytes of the fixed request head: op, stream id, key, arg.
const REQ_HEAD: usize = 1 + 4 + KEY_BYTES + 8;
/// Bytes of a record key on the wire: `[kind][rank u32][seq u32]`.
const KEY_BYTES: usize = 9;

// Response status bytes.
const ST_OK: u8 = 0;
const ST_ERR: u8 = 1;
/// Answer to [`OP_PUT_DEDUP`] when the root's durable medium cannot
/// install by digest (flat store): the client re-sends as a plain put and
/// caches the answer so later snapshots skip the probe.
const ST_NODEDUP: u8 = 2;

/// Bytes per dedup-negotiated chunk. Matches the store's default chunk
/// size ([`DIRTY_CHUNK_BYTES`]) so wire-installed records share chunk
/// identities with locally written ones — dedup works across ranks *and*
/// across media.
const DEDUP_CHUNK: usize = DIRTY_CHUNK_BYTES;
/// Bytes of one dedup digest-table entry on the wire (digest + length).
const DEDUP_ENTRY: usize = 20;

// Stream-frame kinds, encoded at bits 40..48 of the tag (alongside the
// stream id in bits 0..32). Data kinds ride raw-payload frames.
const KIND_DATA: u64 = 1;
const KIND_CREDIT: u64 = 2;
const KIND_RDATA: u64 = 3;
const KIND_RCREDIT: u64 = 4;

// Chunk-frame marker prefixes (first payload byte of every stream frame).
const CH_DATA: u8 = 0;
const CH_END: u8 = 1;
const CH_ABORT: u8 = 2;
const CH_ABSENT: u8 = 3;

/// Record bytes per chunk frame (capped below the configured frame bound).
/// 4 MiB quarters the per-chunk fixed costs (frame headers, mailbox
/// handoffs, thread wakeups) relative to 1 MiB; with the 8-chunk window
/// that bounds per-stream buffering at 32 MiB a side.
const STREAM_CHUNK: usize = 4 << 20;
/// Chunks in flight before the sender blocks on credits: bounds each
/// stream's buffering to `STREAM_WINDOW × STREAM_CHUNK` on either side.
const STREAM_WINDOW: u64 = 8;
/// Receivers acknowledge every `CREDIT_BATCH`th chunk (plus a final credit
/// at stream end) instead of every chunk, quartering credit-frame traffic.
/// Must stay below [`STREAM_WINDOW`] or the sender's window would wedge.
const CREDIT_BATCH: u64 = 4;
/// Receive-side CRC+copy interleave block: each chunk is fed to the
/// checksum and the sink in cache-resident blocks so the copy re-reads
/// what the CRC just pulled into L2 instead of sweeping DRAM twice.
const CRC_SINK_BLOCK: usize = 256 << 10;

/// One request's fixed head (see the module docs' stream protocol).
fn request(op: u8, id: u32, key: RawRecordKind, arg: u64) -> Vec<u8> {
    let (kind, rank, seq) = match key {
        RawRecordKind::Master => (0u8, MASTER_SENTINEL, 0),
        RawRecordKind::Shard(r) => (1, r, 0),
        RawRecordKind::PrevShard(r) => (2, r, 0),
        RawRecordKind::MasterDelta { seq } => (3, MASTER_SENTINEL, seq),
        RawRecordKind::ShardDelta { rank, seq } => (4, rank, seq),
    };
    let mut req = Vec::with_capacity(REQ_HEAD);
    req.push(op);
    req.extend_from_slice(&id.to_le_bytes());
    req.push(kind);
    req.extend_from_slice(&rank.to_le_bytes());
    req.extend_from_slice(&seq.to_le_bytes());
    req.extend_from_slice(&arg.to_le_bytes());
    req
}

/// A parsed request head (the opcode already stripped).
struct Request<'a> {
    id: u32,
    key: RawRecordKind,
    arg: u64,
    /// Bytes after the head (the dedup digest table).
    rest: &'a [u8],
}

fn parse_request(body: &[u8]) -> Result<Request<'_>> {
    let field = |at: usize| body.get(at..).unwrap_or(&[]);
    let (rank, seq) = (read_u32(field(5))?, read_u32(field(9))?);
    let key = match body.get(4) {
        Some(0) => RawRecordKind::Master,
        Some(1) => RawRecordKind::Shard(rank),
        Some(2) => RawRecordKind::PrevShard(rank),
        Some(3) => RawRecordKind::MasterDelta { seq },
        Some(4) => RawRecordKind::ShardDelta { rank, seq },
        _ => {
            return Err(PparError::Network(
                "malformed record key in checkpoint request".into(),
            ))
        }
    };
    Ok(Request {
        id: read_u32(body)?,
        key,
        arg: read_u64(field(13))?,
        rest: field(REQ_HEAD - 1),
    })
}

/// Process-wide stream-id source; ids are unique per process far beyond
/// any plausible overlap window.
static NEXT_STREAM_ID: AtomicU64 = AtomicU64::new(1);

fn next_stream_id() -> u32 {
    NEXT_STREAM_ID.fetch_add(1, Ordering::Relaxed) as u32
}

/// The tag of one stream-frame kind for stream `id`. Data kinds set
/// [`TAG_RAW_PAYLOAD_BIT`] — their bulk bytes are covered by the record's
/// own trailing CRC, so the frame layer checks only tag + marker byte.
fn stream_tag(kind: u64, id: u32) -> u64 {
    let raw = if kind == KIND_DATA || kind == KIND_RDATA {
        TAG_RAW_PAYLOAD_BIT
    } else {
        0
    };
    CKPT_TAG_BIT | raw | (kind << 40) | id as u64
}

/// Record bytes carried per chunk: the 4 MiB default, shrunk when
/// `PPAR_NET_MAX_FRAME` configures a smaller frame bound (the marker byte
/// must still fit).
fn chunk_capacity() -> usize {
    STREAM_CHUNK.min(max_frame_payload().saturating_sub(1))
}

// ---------------------------------------------------------------------------
// chunked stream sender (both directions)
// ---------------------------------------------------------------------------

/// The sending half of one chunk stream: an [`io::Write`] sink that cuts
/// whatever is written into marker-prefixed chunk frames, blocking on the
/// receiver's credits once [`STREAM_WINDOW`] chunks are unacknowledged.
/// The client drives [`SnapshotWriter`] into one of these; the service's
/// get path drives `CkptTransport::copy_record` into one.
struct StreamTx<'a> {
    fabric: &'a dyn Fabric,
    me: usize,
    peer: usize,
    data_tag: u64,
    credit_tag: u64,
    /// Pending chunk; always starts with a [`CH_DATA`] marker byte.
    buf: Vec<u8>,
    cap: usize,
    sent: u64,
    acked: u64,
}

impl<'a> StreamTx<'a> {
    fn new(fabric: &'a dyn Fabric, me: usize, peer: usize, id: u32, kind: u64) -> StreamTx<'a> {
        let credit_kind = if kind == KIND_DATA {
            KIND_CREDIT
        } else {
            KIND_RCREDIT
        };
        let cap = 1 + chunk_capacity();
        let mut buf = Vec::with_capacity(cap);
        buf.push(CH_DATA);
        StreamTx {
            fabric,
            me,
            peer,
            data_tag: stream_tag(kind, id),
            credit_tag: stream_tag(credit_kind, id),
            buf,
            cap,
            sent: 0,
            acked: 0,
        }
    }

    /// Absorb one cumulative-consumed-count credit from the receiver.
    fn recv_credit(&mut self) -> Result<()> {
        let p = self.fabric.recv(self.me, self.peer, self.credit_tag)?;
        let acked = p
            .get(0..8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte credit")))
            .ok_or_else(|| PparError::Network("malformed checkpoint stream credit".into()))?;
        self.acked = self.acked.max(acked);
        Ok(())
    }

    /// Ship the pending chunk (no-op when empty), waiting for window
    /// room first.
    fn flush_chunk(&mut self) -> Result<()> {
        if self.buf.len() <= 1 {
            return Ok(());
        }
        // Chaos site: a rank dying between checkpoint chunks is the
        // hardest torn-write case the recovery ladder must survive.
        crate::chaos::kill_point("ckpt-stream");
        while self.sent - self.acked >= STREAM_WINDOW {
            self.recv_credit()?;
        }
        let chunk = std::mem::replace(&mut self.buf, {
            let mut next = Vec::with_capacity(self.cap);
            next.push(CH_DATA);
            next
        });
        self.fabric
            .send(self.me, self.peer, self.data_tag, Arc::new(chunk));
        self.sent += 1;
        Ok(())
    }

    fn send_marker(&self, marker: u8, msg: &[u8]) {
        let mut p = Vec::with_capacity(1 + msg.len());
        p.push(marker);
        p.extend_from_slice(msg);
        self.fabric
            .send(self.me, self.peer, self.data_tag, Arc::new(p));
    }

    /// Flush the tail and mark the record complete.
    fn finish(&mut self) -> Result<()> {
        self.flush_chunk()?;
        self.send_marker(CH_END, &[]);
        Ok(())
    }

    /// Tell the receiver to discard the partial record.
    fn abort(&mut self, msg: &str) {
        self.send_marker(CH_ABORT, msg.as_bytes());
    }

    /// Block until the receiver has credited every sent chunk, so no
    /// credit frame of this (finished) stream is left behind in the
    /// mailbox. Terminates because the receiver counts every chunk —
    /// even ones it is discarding after a failure — and flushes a final
    /// credit at every stream end.
    fn wait_drained(&mut self) -> Result<()> {
        while self.acked < self.sent {
            self.recv_credit()?;
        }
        Ok(())
    }
}

impl Write for StreamTx<'_> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if bytes.is_empty() {
            return Ok(0);
        }
        let room = self.cap - self.buf.len();
        let take = bytes.len().min(room);
        self.buf.extend_from_slice(&bytes[..take]);
        if self.buf.len() == self.cap {
            self.flush_chunk().map_err(io::Error::other)?;
        }
        Ok(take)
    }

    /// Chunk boundaries are this sink's own business — the encoder's
    /// flushes must not force short frames.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The receiving half of one chunk stream, shared by the service's put
/// lanes and the client's get path: receives chunk frames, feeds each
/// chunk to `on_chunk`, credits it, and returns how the stream ended.
/// `on_chunk` must stay infallible-at-this-layer: a consumer that can no
/// longer use the bytes keeps accepting (and the caller keeps crediting)
/// so the sender's window never wedges.
enum StreamEnd {
    /// [`CH_END`]: record complete (verify the CRC next).
    Complete,
    /// [`CH_ABSENT`]: the service has no record for the request.
    Absent,
    /// [`CH_ABORT`]: the sender gave up; its message.
    Aborted(String),
}

fn recv_stream(
    fabric: &dyn Fabric,
    me: usize,
    peer: usize,
    id: u32,
    kind: u64,
    mut on_chunk: impl FnMut(&[u8]),
) -> Result<StreamEnd> {
    let credit_kind = if kind == KIND_DATA {
        KIND_CREDIT
    } else {
        KIND_RCREDIT
    };
    let data_tag = stream_tag(kind, id);
    let credit_tag = stream_tag(credit_kind, id);
    let mut consumed: u64 = 0;
    let mut credited: u64 = 0;
    let send_credit = |consumed: u64| {
        fabric.send(
            me,
            peer,
            credit_tag,
            Arc::new(consumed.to_le_bytes().to_vec()),
        );
    };
    // Every terminal marker flushes a final credit so the sender's
    // `wait_drained` (acked == sent) always terminates.
    loop {
        let payload = fabric.recv(me, peer, data_tag)?;
        let end = match payload.first() {
            Some(&CH_DATA) => {
                on_chunk(&payload[1..]);
                consumed += 1;
                if consumed - credited >= CREDIT_BATCH {
                    credited = consumed;
                    send_credit(consumed);
                }
                continue;
            }
            Some(&CH_END) => StreamEnd::Complete,
            Some(&CH_ABSENT) => StreamEnd::Absent,
            Some(&CH_ABORT) => {
                StreamEnd::Aborted(String::from_utf8_lossy(&payload[1..]).into_owned())
            }
            _ => {
                return Err(PparError::Network(
                    "malformed checkpoint stream frame".into(),
                ))
            }
        };
        if consumed > credited {
            send_credit(consumed);
        }
        return Ok(end);
    }
}

// ---------------------------------------------------------------------------
// client
// ---------------------------------------------------------------------------

/// Client half: a [`CkptTransport`] whose durable medium lives on the root
/// rank, reached over the fabric. One per non-root rank process. The root
/// owns the group-commit point (it commits its own medium after the
/// group's post-save barrier), so a client's `commit_group` is a no-op.
pub struct NetTransport {
    fabric: Arc<dyn Fabric>,
    rank: usize,
    root: usize,
    /// Whether the root's durable medium accepted the last dedup
    /// negotiation; flipped off on [`ST_NODEDUP`] so a flat-store root
    /// costs one probe per job, not one per snapshot.
    dedup_supported: AtomicBool,
    /// Client-side wire-dedup counters, drained by
    /// [`CkptTransport::take_put_stats`].
    stats: Mutex<PutStats>,
}

impl NetTransport {
    /// A client for `rank`, persisting through the service on rank 0.
    pub fn client(fabric: Arc<dyn Fabric>, rank: usize) -> NetTransport {
        assert!(rank < fabric.nranks(), "rank out of range");
        NetTransport {
            fabric,
            rank,
            root: 0,
            dedup_supported: AtomicBool::new(true),
            stats: Mutex::new(PutStats::default()),
        }
    }

    fn send(&self, req: Vec<u8>) {
        self.fabric
            .send(self.rank, self.root, REQ_TAG, Arc::new(req));
    }

    /// Receive and status-check one service response.
    fn recv_response(&self) -> Result<Payload> {
        let rsp = self.fabric.recv(self.rank, self.root, RSP_TAG)?;
        match rsp.first() {
            Some(&ST_OK) => Ok(rsp),
            Some(&ST_ERR) => Err(self.service_error(&rsp[1..])),
            _ => Err(PparError::Network("empty checkpoint response".into())),
        }
    }

    fn service_error(&self, msg: &[u8]) -> PparError {
        PparError::Network(format!(
            "checkpoint service on rank {}: {}",
            self.root,
            String::from_utf8_lossy(msg)
        ))
    }

    /// One request/response round trip (control operations). Checkpoint
    /// operations are issued serially per rank (they run at quiesced safe
    /// points), so the single response tag cannot interleave.
    fn rpc(&self, req: Vec<u8>) -> Result<Payload> {
        self.send(req);
        self.recv_response()
    }

    /// Negotiate a full-snapshot put by chunk digest: send the record's
    /// digest table, receive the indices the root's store is missing, and
    /// stream only those chunks. `Ok(None)` means the negotiation is
    /// unavailable (root on a flat store, or the digest table itself
    /// would not fit a frame) — the caller falls back to the plain
    /// streamed put.
    fn put_dedup(&self, key: RawRecordKind, record: &[u8]) -> Result<Option<u64>> {
        let n = record.len().div_ceil(DEDUP_CHUNK);
        let id = next_stream_id();
        let req_len = REQ_HEAD + 4 + n * DEDUP_ENTRY;
        if req_len > chunk_capacity() {
            // Digest table larger than a frame: a record this large gains
            // little from saving one round's chunks anyway.
            return Ok(None);
        }
        let mut req = request(OP_PUT_DEDUP, id, key, record.len() as u64);
        req.reserve(req_len - REQ_HEAD);
        req.extend_from_slice(&(n as u32).to_le_bytes());
        for chunk in record.chunks(DEDUP_CHUNK) {
            req.extend_from_slice(&ChunkDigest::of(chunk).0);
            req.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        }
        self.send(req);
        let rsp = self.fabric.recv(self.rank, self.root, RSP_TAG)?;
        let missing: Vec<u32> = match rsp.first() {
            Some(&ST_NODEDUP) => {
                self.dedup_supported.store(false, Ordering::Relaxed);
                return Ok(None);
            }
            Some(&ST_ERR) => return Err(self.service_error(&rsp[1..])),
            Some(&ST_OK) => {
                let count = rsp
                    .get(1..5)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte count")) as usize)
                    .ok_or_else(|| PparError::Network("malformed dedup response".into()))?;
                let idx = rsp
                    .get(5..5 + 4 * count)
                    .ok_or_else(|| PparError::Network("malformed dedup response".into()))?;
                idx.chunks_exact(4)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte index")))
                    .collect()
            }
            _ => return Err(PparError::Network("empty checkpoint response".into())),
        };
        // Stream the missing chunks (possibly none) back to back; the
        // service re-slices by the lengths it already holds.
        let mut put = Box::new(StreamPut::on(self, id));
        for &mi in &missing {
            let start = mi as usize * DEDUP_CHUNK;
            let chunk = record
                .get(start..record.len().min(start + DEDUP_CHUNK))
                .ok_or_else(|| PparError::Network("dedup index out of range".into()))?;
            put.write_chunk(chunk)?;
        }
        put.commit()?;
        self.stats.lock().expect("stats lock").wire_chunks_skipped += (n - missing.len()) as u64;
        Ok(Some(record.len() as u64))
    }

    /// Request a record (`op` [`OP_GET`] or [`OP_GET_AT`]) and receive it as
    /// a chunk stream. A whole record's trailing CRC is verified on the
    /// same pass that accumulates it; a bounded read is a header peek with
    /// no trailer to check.
    fn get(&self, op: u8, key: RawRecordKind, arg: u64) -> Result<Option<Vec<u8>>> {
        let id = next_stream_id();
        self.send(request(op, id, key, arg));
        let mut buf = Vec::new();
        let mut crc = TrailingCrc::new();
        let end = recv_stream(
            self.fabric.as_ref(),
            self.rank,
            self.root,
            id,
            KIND_RDATA,
            |chunk| {
                for block in chunk.chunks(CRC_SINK_BLOCK) {
                    crc.update(block);
                    buf.extend_from_slice(block);
                }
            },
        )?;
        match end {
            StreamEnd::Complete if op == OP_GET && arg != u64::MAX => Ok(Some(buf)),
            StreamEnd::Complete => match crc.finish() {
                Some((_, stored, computed)) if stored == computed => Ok(Some(buf)),
                _ => Err(PparError::CorruptCheckpoint(
                    "streamed restore record failed CRC verification".into(),
                )),
            },
            StreamEnd::Absent => Ok(None),
            StreamEnd::Aborted(msg) => Err(self.service_error(msg.as_bytes())),
        }
    }
}

/// A put streaming into chunk frames as the encoder produces bytes. The
/// begin request goes out first; a sink dropped or aborted before commit
/// tells the service to discard the partial record and consumes its
/// (error) response, keeping the response channel aligned for the next
/// operation.
struct StreamPut<'a> {
    net: &'a NetTransport,
    tx: StreamTx<'a>,
    written: u64,
    open: bool,
}

impl<'a> StreamPut<'a> {
    fn begin(net: &'a NetTransport, key: RawRecordKind, len_hint: u64) -> StreamPut<'a> {
        let id = next_stream_id();
        net.send(request(OP_PUT, id, key, len_hint));
        StreamPut::on(net, id)
    }

    /// The chunk stream of a put whose request is already sent.
    fn on(net: &'a NetTransport, id: u32) -> StreamPut<'a> {
        StreamPut {
            net,
            tx: StreamTx::new(net.fabric.as_ref(), net.rank, net.root, id, KIND_DATA),
            written: 0,
            open: true,
        }
    }
}

impl RawRecordSink for StreamPut<'_> {
    fn write_chunk(&mut self, chunk: &[u8]) -> Result<()> {
        self.tx.write_all(chunk)?;
        self.written += chunk.len() as u64;
        Ok(())
    }

    fn commit(mut self: Box<Self>) -> Result<u64> {
        self.tx.finish()?;
        self.open = false;
        // The response follows the service's last credit on the same
        // ordered channel, so draining after it never blocks for long.
        let rsp = self.net.recv_response();
        self.tx.wait_drained()?;
        rsp?;
        Ok(self.written)
    }

    fn abort(self: Box<Self>) {}
}

impl Drop for StreamPut<'_> {
    fn drop(&mut self) {
        if self.open {
            self.tx.abort("record abandoned by the client");
            let _ = self.net.recv_response();
            let _ = self.tx.wait_drained();
        }
    }
}

/// A full-record put offered for digest negotiation, which needs the
/// digest table up front: the record is staged in a buffer — the one path
/// that trades a record-sized staging `Vec` for shipping only the chunks
/// the root doesn't already hold.
struct DedupPut<'a> {
    net: &'a NetTransport,
    key: RawRecordKind,
    buf: Vec<u8>,
}

impl RawRecordSink for DedupPut<'_> {
    fn write_chunk(&mut self, chunk: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(chunk);
        Ok(())
    }

    fn commit(self: Box<Self>) -> Result<u64> {
        if let Some(total) = self.net.put_dedup(self.key, &self.buf)? {
            return Ok(total);
        }
        // Root can't dedup: the record is already encoded, stream it
        // through the plain put path verbatim.
        let mut put = Box::new(StreamPut::begin(self.net, self.key, self.buf.len() as u64));
        put.write_chunk(&self.buf)?;
        put.commit()
    }

    fn abort(self: Box<Self>) {}
}

impl CkptTransport for NetTransport {
    fn describe(&self) -> &'static str {
        "net"
    }

    fn begin_put<'a>(
        &'a self,
        key: RawRecordKind,
        len_hint: u64,
    ) -> Result<Box<dyn RawRecordSink + 'a>> {
        let full = matches!(key, RawRecordKind::Master | RawRecordKind::Shard(_));
        if full && self.dedup_supported.load(Ordering::Relaxed) {
            return Ok(Box::new(DedupPut {
                net: self,
                key,
                buf: Vec::with_capacity(ppar_ckpt::transport::clamp_record_hint(len_hint)),
            }));
        }
        Ok(Box::new(StreamPut::begin(self, key, len_hint)))
    }

    fn read_record(
        &self,
        key: RawRecordKind,
        max: usize,
        visit: &mut RecordVisitor<'_>,
    ) -> Result<bool> {
        let bound = if max == WHOLE_RECORD {
            u64::MAX
        } else {
            max as u64
        };
        match self.get(OP_GET, key, bound)? {
            Some(bytes) => {
                visit(&bytes, true)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn remove_deltas(&self, chains: Chains) -> Result<()> {
        let arg = match chains {
            Chains::All => u64::MAX,
            Chains::Of(rank) => rank.unwrap_or(MASTER_SENTINEL) as u64,
        };
        let mut req = vec![OP_CLEAR];
        req.extend_from_slice(&arg.to_le_bytes());
        self.rpc(req).map(|_| ())
    }

    fn committed_count(&self) -> Result<Option<u64>> {
        let rsp = self.rpc(vec![OP_COMMITTED])?;
        match rsp.get(1) {
            Some(1) => read_u64(&rsp[2..]).map(Some),
            Some(0) => Ok(None),
            _ => Err(PparError::Network(
                "malformed commit-point response from checkpoint service".into(),
            )),
        }
    }

    /// One round trip: the service streams its merged record at `count`.
    fn read_shard_at(&self, rank: u32, count: u64) -> Result<Option<Snapshot>> {
        let Some(bytes) = self.get(OP_GET_AT, RawRecordKind::Shard(rank), count)? else {
            return Ok(None);
        };
        // The wire pass just verified integrity; no second checksum sweep.
        let snap = Snapshot::decode_trusted(&bytes)?;
        if snap.count != count {
            return Err(PparError::CorruptCheckpoint(format!(
                "service returned shard at safe point {} but the restore targets {count}",
                snap.count
            )));
        }
        Ok(Some(snap))
    }

    fn take_put_stats(&self) -> PutStats {
        std::mem::take(&mut *self.stats.lock().expect("stats lock"))
    }
}

// ---------------------------------------------------------------------------
// service
// ---------------------------------------------------------------------------

/// Server half: the root's checkpoint service (a dispatcher thread plus
/// one lane thread per active client rank). Stop it with
/// [`CkptService::stop`] once the job completes (also attempted on drop).
pub struct CkptService {
    fabric: Arc<dyn Fabric>,
    rank: usize,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl NetTransport {
    /// Start the root-side service on `fabric` as `rank` (the root),
    /// forwarding every received record into `inner` — the job's actual
    /// durable transport.
    pub fn serve(
        fabric: Arc<dyn Fabric>,
        rank: usize,
        inner: Arc<dyn CkptTransport>,
    ) -> CkptService {
        let loop_fabric = fabric.clone();
        let handle = std::thread::Builder::new()
            .name(format!("ppar-ckpt-service-{rank}"))
            .spawn(move || service_loop(loop_fabric, rank, inner))
            .expect("spawn checkpoint service thread");
        CkptService {
            fabric,
            rank,
            handle: Some(handle),
        }
    }
}

impl CkptService {
    /// Ask the service loop to exit and join it.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.fabric
                .send(self.rank, self.rank, REQ_TAG, Arc::new(vec![OP_STOP]));
            let _ = handle.join();
        }
    }
}

impl Drop for CkptService {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// The dispatcher: routes each rank's requests to that rank's lane
/// thread, spawning lanes on first contact. Checkpoint operations are
/// serial *within* a rank but independent *across* ranks, so N ranks
/// saving concurrently stream through N parallel install pipelines.
fn service_loop(fabric: Arc<dyn Fabric>, rank: usize, inner: Arc<dyn CkptTransport>) {
    let mut lanes: HashMap<usize, mpsc::Sender<Payload>> = HashMap::new();
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    // recv_any fails only when every peer is down — at which point the
    // job is lost anyway and the root's own collectives will fail too.
    while let Ok((src, req)) = fabric.recv_any(rank, REQ_TAG) {
        // Shutdown is only ever self-addressed (from `CkptService::stop`);
        // a remote OP_STOP is answered as an unknown opcode by the lane.
        if src == rank && req.first() == Some(&OP_STOP) {
            break;
        }
        let lane = lanes.entry(src).or_insert_with(|| {
            let (tx, rx) = mpsc::channel();
            let lane_fabric = fabric.clone();
            let lane_inner = inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("ppar-ckpt-lane-{rank}-{src}"))
                .spawn(move || lane_loop(lane_fabric, rank, src, lane_inner, rx))
                .expect("spawn checkpoint lane thread");
            workers.push(handle);
            tx
        });
        // Fails only if the lane thread is gone (its peer died); the
        // request is from that same dead peer, so dropping it is safe.
        let _ = lane.send(req);
    }
    drop(lanes);
    for handle in workers {
        let _ = handle.join();
    }
}

/// One rank's install pipeline: requests arrive in order from the
/// dispatcher; puts and gets run their chunk streams directly against
/// the fabric (the dispatcher never blocks on a stream).
fn lane_loop(
    fabric: Arc<dyn Fabric>,
    root: usize,
    src: usize,
    inner: Arc<dyn CkptTransport>,
    rx: mpsc::Receiver<Payload>,
) {
    // A put whose peer died mid-stream sends no reply; nothing further
    // from that peer can arrive, so the lane just parks on `rx` until
    // shutdown closes the channel.
    while let Ok(req) = rx.recv() {
        let op = req.first().copied().unwrap_or(0);
        let body = req.get(1..).unwrap_or(&[]);
        match op {
            OP_PUT => lane_put(&fabric, root, src, &inner, body),
            OP_PUT_DEDUP => lane_put_dedup(&fabric, root, src, &inner, body),
            OP_GET | OP_GET_AT => lane_get(&fabric, root, src, &inner, op, body),
            _ => {
                let rsp = match control_request(&inner, op, body) {
                    Ok(rsp) => rsp,
                    Err(e) => error_reply(&e),
                };
                fabric.send(root, src, RSP_TAG, Arc::new(rsp));
            }
        }
    }
}

/// Receive one record stream into the durable medium's put sink,
/// verifying the record's trailing CRC on the same pass that installs it,
/// then answer with the fixed nine-byte `[status][written]` reply (none
/// when the peer died mid-stream).
fn lane_put(
    fabric: &Arc<dyn Fabric>,
    root: usize,
    src: usize,
    inner: &Arc<dyn CkptTransport>,
    body: &[u8],
) {
    let req = match parse_request(body) {
        Ok(req) => req,
        Err(e) => {
            fabric.send(root, src, RSP_TAG, Arc::new(error_reply(&e)));
            return;
        }
    };
    // A sink failure must not wedge the sender's credit window: on error
    // the lane flips to discard mode — it keeps receiving and crediting
    // chunks, and reports the saved failure once the stream ends.
    let mut sink: Option<Box<dyn RawRecordSink + '_>> = None;
    let mut failure: Option<PparError> = None;
    match inner.begin_put(req.key, req.arg) {
        Ok(s) => sink = Some(s),
        Err(e) => failure = Some(e),
    }
    let mut crc = TrailingCrc::new();
    let end = recv_stream(fabric.as_ref(), root, src, req.id, KIND_DATA, |chunk| {
        for block in chunk.chunks(CRC_SINK_BLOCK) {
            crc.update(block);
            if failure.is_none() {
                if let Err(e) = sink.as_mut().expect("live sink").write_chunk(block) {
                    sink.take().expect("live sink").abort();
                    failure = Some(e);
                }
            }
        }
    });
    let result: Result<u64> = match (end, failure) {
        (Err(_), _) => {
            // Peer down mid-stream: discard — there is nobody left to
            // answer, and a partial record must never install.
            if let Some(s) = sink.take() {
                s.abort();
            }
            return;
        }
        (Ok(StreamEnd::Complete), None) => match crc.finish() {
            Some((_, stored, computed)) if stored == computed => {
                sink.take().expect("live sink").commit()
            }
            _ => {
                sink.take().expect("live sink").abort();
                Err(PparError::CorruptCheckpoint(
                    "streamed record failed CRC verification".into(),
                ))
            }
        },
        (Ok(StreamEnd::Complete), Some(e)) => Err(e),
        (Ok(end), _) => {
            if let Some(s) = sink.take() {
                s.abort();
            }
            Err(stream_failure(end))
        }
    };
    fabric.send(root, src, RSP_TAG, Arc::new(put_reply(result)));
}

/// The error a put stream that did not complete reports.
fn stream_failure(end: StreamEnd) -> PparError {
    match end {
        StreamEnd::Aborted(msg) => PparError::Network(format!("client aborted record: {msg}")),
        _ => PparError::Network("malformed checkpoint stream frame".into()),
    }
}

/// The fixed-size `[status][bytes written]` put reply (or an error reply).
fn put_reply(result: Result<u64>) -> Vec<u8> {
    match result {
        Ok(written) => {
            let mut out = Vec::with_capacity(9);
            out.push(ST_OK);
            out.extend_from_slice(&written.to_le_bytes());
            out
        }
        Err(e) => error_reply(&e),
    }
}

/// Serve one digest-negotiated put: answer the client's digest table with
/// the indices the durable store is missing, re-slice the arriving chunk
/// stream by the announced lengths, and install through
/// [`CkptTransport::begin_raw_dedup`]. Integrity on this path rides the
/// per-chunk digests (verified by the store at supply time) instead of
/// the record's trailing CRC — the record CRC is still verified whenever
/// the record is read back.
fn lane_put_dedup(
    fabric: &Arc<dyn Fabric>,
    root: usize,
    src: usize,
    inner: &Arc<dyn CkptTransport>,
    body: &[u8],
) {
    let reply = |rsp: Vec<u8>| fabric.send(root, src, RSP_TAG, Arc::new(rsp));
    let parsed = parse_request(body).and_then(|req| {
        let n = read_u32(req.rest)? as usize;
        let table = req
            .rest
            .get(4..4 + n * DEDUP_ENTRY)
            .ok_or_else(|| PparError::Network("truncated dedup digest table".into()))?;
        let refs: Vec<ChunkRef> = table
            .chunks_exact(DEDUP_ENTRY)
            .map(|e| ChunkRef {
                digest: ChunkDigest(e[..16].try_into().expect("16-byte digest")),
                len: u32::from_le_bytes(e[16..].try_into().expect("4-byte len")),
            })
            .collect();
        Ok((req.id, req.key, req.arg, refs))
    });
    let (id, key, total, refs) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            reply(error_reply(&e));
            return;
        }
    };
    let mut sink = match inner.begin_raw_dedup(key, &refs, total) {
        Ok(Some(sink)) => sink,
        Ok(None) => {
            reply(vec![ST_NODEDUP]);
            return;
        }
        Err(e) => {
            reply(error_reply(&e));
            return;
        }
    };
    let missing: Vec<u32> = sink.missing().to_vec();
    let mut rsp = Vec::with_capacity(5 + 4 * missing.len());
    rsp.push(ST_OK);
    rsp.extend_from_slice(&(missing.len() as u32).to_le_bytes());
    for &mi in &missing {
        rsp.extend_from_slice(&mi.to_le_bytes());
    }
    reply(rsp);

    // Re-slice the concatenated missing chunks out of the (much larger)
    // stream frames. A supply failure flips to discard mode — keep
    // crediting so the sender's window never wedges, report at the end.
    let mut failure: Option<PparError> = None;
    let mut pending: Vec<u8> = Vec::new();
    let mut next = 0usize;
    let end = recv_stream(fabric.as_ref(), root, src, id, KIND_DATA, |mut data| {
        while !data.is_empty() && failure.is_none() {
            let Some(&mi) = missing.get(next) else {
                failure = Some(PparError::Network(
                    "dedup stream carries more bytes than the missing set".into(),
                ));
                return;
            };
            let want = refs[mi as usize].len as usize;
            if pending.is_empty() && data.len() >= want {
                // Whole chunk in this frame: supply without a copy.
                if let Err(e) = sink.supply_chunk(&data[..want]) {
                    failure = Some(e);
                    return;
                }
                data = &data[want..];
                next += 1;
            } else {
                let take = (want - pending.len()).min(data.len());
                pending.extend_from_slice(&data[..take]);
                data = &data[take..];
                if pending.len() == want {
                    if let Err(e) = sink.supply_chunk(&pending) {
                        failure = Some(e);
                        return;
                    }
                    pending.clear();
                    next += 1;
                }
            }
        }
    });
    let result: Result<u64> = match (end, failure) {
        (Err(_), _) => {
            sink.abort();
            return;
        }
        (Ok(StreamEnd::Complete), None) if next == missing.len() && pending.is_empty() => {
            sink.commit()
        }
        (Ok(StreamEnd::Complete), None) => {
            sink.abort();
            Err(PparError::Network(
                "dedup stream ended short of the missing set".into(),
            ))
        }
        (Ok(StreamEnd::Complete), Some(e)) => {
            sink.abort();
            Err(e)
        }
        (Ok(end), _) => {
            sink.abort();
            Err(stream_failure(end))
        }
    };
    reply(put_reply(result));
}

/// Stream the requested record back to the client straight from the
/// durable medium: a whole record through `copy_record` (the in-memory
/// and file media copy through without re-encoding), a bounded read as
/// its header bytes, a count-pinned read as the merged record at that
/// safe point.
fn lane_get(
    fabric: &Arc<dyn Fabric>,
    root: usize,
    src: usize,
    inner: &Arc<dyn CkptTransport>,
    op: u8,
    body: &[u8],
) {
    let Ok(id) = read_u32(body) else {
        // Without a stream id there is no channel to answer on; only a
        // foreign client could send this, and its receive will time out.
        return;
    };
    let mut tx = StreamTx::new(fabric.as_ref(), root, src, id, KIND_RDATA);
    let outcome =
        parse_request(body).and_then(|req| match (op, req.key) {
            (OP_GET_AT, RawRecordKind::Shard(rank)) => {
                inner.write_merged_record_at(Some(rank), req.arg, &mut tx)
            }
            (OP_GET_AT, key) => Err(PparError::Network(format!(
                "count-pinned read of non-shard record {key:?}"
            ))),
            (_, key) if req.arg == u64::MAX => inner.copy_record(key, &mut tx),
            (_, key) => {
                let found = inner.read_record(key, req.arg as usize, &mut |head, _| {
                    Ok(tx.write_all(head)?)
                })?;
                Ok(found.then_some(0))
            }
        });
    let finished = match outcome {
        Ok(Some(_)) => tx.finish().is_ok(),
        Ok(None) => {
            tx.send_marker(CH_ABSENT, &[]);
            true
        }
        Err(e) => {
            tx.abort(&e.to_string());
            true
        }
    };
    if finished {
        let _ = tx.wait_drained();
    }
}

/// Control-plane requests (no stream): the reply already carries its
/// status byte.
fn control_request(inner: &Arc<dyn CkptTransport>, op: u8, body: &[u8]) -> Result<Vec<u8>> {
    match op {
        OP_COMMITTED => match inner.committed_count()? {
            Some(count) => {
                let mut out = Vec::with_capacity(10);
                out.push(ST_OK);
                out.push(1u8);
                out.extend_from_slice(&count.to_le_bytes());
                Ok(out)
            }
            None => Ok(vec![ST_OK, 0u8]),
        },
        OP_CLEAR => {
            let chains = match read_u64(body)? {
                u64::MAX => Chains::All,
                raw => {
                    let raw = u32::try_from(raw)
                        .map_err(|_| PparError::Network("malformed delta-chain selector".into()))?;
                    Chains::Of((raw != MASTER_SENTINEL).then_some(raw))
                }
            };
            inner.remove_deltas(chains)?;
            Ok(vec![ST_OK])
        }
        other => Err(PparError::Network(format!(
            "unknown checkpoint service opcode {other}"
        ))),
    }
}

fn error_reply(e: &PparError) -> Vec<u8> {
    let msg = e.to_string();
    let mut out = Vec::with_capacity(1 + msg.len());
    out.push(ST_ERR);
    out.extend_from_slice(msg.as_bytes());
    out
}

fn read_u32(body: &[u8]) -> Result<u32> {
    match body.get(0..4).and_then(|b| b.try_into().ok()) {
        Some(b) => Ok(u32::from_le_bytes(b)),
        None => Err(PparError::Network("truncated checkpoint request".into())),
    }
}

fn read_u64(body: &[u8]) -> Result<u64> {
    match body.get(0..8).and_then(|b| b.try_into().ok()) {
        Some(b) => Ok(u64::from_le_bytes(b)),
        None => Err(PparError::Network("truncated checkpoint request".into())),
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // delta dirty ranges are span data
mod tests {
    use super::*;
    use crate::cluster::free_loopback_addr;
    use crate::tcp::{NetConfig, TcpFabric};
    use ppar_ckpt::delta::DeltaMeta;
    use ppar_ckpt::store::{DeltaSource, FieldSource, SnapshotMeta, SnapshotWriter};
    use ppar_ckpt::MemTransport;
    use std::time::Duration;

    const DONE_TAG: u64 = (1 << 63) | 77;

    fn meta(count: u64, rank: Option<u32>, nranks: u32) -> SnapshotMeta {
        SnapshotMeta {
            mode_tag: "tcp2".into(),
            count,
            rank,
            nranks,
        }
    }

    /// Root runs the service + `root_check` after the client finishes;
    /// rank 1 runs `client_ops`. Returns what `root_check` produced.
    fn two_rank<R: Send>(
        client_ops: impl Fn(&NetTransport) + Sync,
        root_check: impl Fn(&MemTransport) -> R + Sync,
    ) -> R {
        let root = free_loopback_addr().unwrap();
        let mut out = None;
        std::thread::scope(|scope| {
            let root2 = root.clone();
            let out_ref = &mut out;
            let root_check = &root_check;
            scope.spawn(move || {
                let mut cfg = NetConfig::new(0, 2, root2);
                cfg.recv_timeout = Duration::from_secs(20);
                let fabric = TcpFabric::connect(&cfg).unwrap();
                let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
                let inner = Arc::new(MemTransport::new());
                let service = NetTransport::serve(dyn_fabric.clone(), 0, inner.clone());
                // Wait for the client to finish, then stop the service.
                dyn_fabric.recv(0, 1, DONE_TAG).unwrap();
                service.stop();
                *out_ref = Some(root_check(&inner));
            });
            let client_ops = &client_ops;
            scope.spawn(move || {
                let mut cfg = NetConfig::new(1, 2, root);
                cfg.recv_timeout = Duration::from_secs(20);
                let fabric = TcpFabric::connect(&cfg).unwrap();
                let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
                let transport = NetTransport::client(dyn_fabric.clone(), 1);
                client_ops(&transport);
                dyn_fabric.send(1, 0, DONE_TAG, Arc::new(Vec::new()));
            });
        });
        out.unwrap()
    }

    #[test]
    fn master_record_streams_to_root_and_back() {
        let payload: Vec<u8> = (0..2000u32).map(|i| (i * 13) as u8).collect();
        let p2 = payload.clone();
        two_rank(
            move |t| {
                assert_eq!(t.describe(), "net");
                assert_eq!(t.read_merged_master().unwrap(), None);
                assert_eq!(t.restart_count().unwrap(), None);
                t.put_master(
                    &meta(4, None, 2),
                    &[("G", FieldSource::Bytes(&p2))],
                    &mut Vec::new(),
                )
                .unwrap();
                // Root → rank streaming (the restart path).
                let snap = t.read_merged_master().unwrap().unwrap();
                assert_eq!(snap.count, 4);
                assert_eq!(snap.field("G").unwrap(), p2.as_slice());
                assert_eq!(t.restart_count().unwrap(), Some(4));
            },
            move |inner| {
                let snap = inner.read_merged_master().unwrap().unwrap();
                assert_eq!(snap.field("G").unwrap(), payload.as_slice());
            },
        );
    }

    #[test]
    fn shard_chain_with_deltas_merges_at_root() {
        two_rank(
            |t| {
                let base = vec![0u8; 64];
                t.put_shard(
                    &meta(10, Some(1), 2),
                    &[("G", FieldSource::Bytes(&base))],
                    &mut Vec::new(),
                )
                .unwrap();
                let dm = DeltaMeta {
                    mode_tag: "tcp2".into(),
                    count: 12,
                    base_count: 10,
                    seq: 1,
                    rank: Some(1),
                    nranks: 2,
                };
                let patch = vec![9u8; 8];
                let ranges: Vec<std::ops::Range<usize>> = std::iter::once(16..24).collect();
                t.put_shard_delta(
                    &dm,
                    &[(
                        "G",
                        DeltaSource::DirtyBytes {
                            full_len: 64,
                            ranges: &ranges,
                            payload: &patch,
                        },
                    )],
                    &mut Vec::new(),
                )
                .unwrap();
                let merged = t.read_merged_shard(1).unwrap().unwrap();
                assert_eq!(merged.count, 12);
                assert_eq!(&merged.field("G").unwrap()[16..24], &[9u8; 8]);
                assert_eq!(&merged.field("G").unwrap()[0..16], &[0u8; 16]);
                // GC round trip.
                t.remove_deltas(Chains::Of(Some(1))).unwrap();
                assert_eq!(t.read_merged_shard(1).unwrap().unwrap().count, 10);
                t.remove_deltas(Chains::All).unwrap();
            },
            |inner| {
                assert_eq!(inner.read_merged_shard(1).unwrap().unwrap().count, 10);
            },
        );
    }

    #[test]
    fn service_reports_errors_without_dying() {
        two_rank(
            |t| {
                // A bogus opcode must come back as an error, and the
                // service must keep answering afterwards.
                let err = t.rpc(vec![0xEE]).unwrap_err();
                assert!(err.to_string().contains("opcode"), "{err}");
                assert_eq!(t.restart_count().unwrap(), None);
            },
            |_| (),
        );
    }

    /// A record larger than several chunk frames streams through intact
    /// and round-trips back (multi-chunk path in both directions).
    #[test]
    fn multi_chunk_record_roundtrips() {
        let len = 3 * STREAM_CHUNK + 4567;
        let payload: Vec<u8> = (0..len)
            .map(|i| (i as u32).wrapping_mul(2654435761) as u8)
            .collect();
        let p2 = payload.clone();
        two_rank(
            move |t| {
                t.put_master(
                    &meta(7, None, 2),
                    &[("big", FieldSource::Bytes(&p2))],
                    &mut Vec::new(),
                )
                .unwrap();
                let snap = t.read_merged_master().unwrap().unwrap();
                assert_eq!(snap.field("big").unwrap(), p2.as_slice());
            },
            move |inner| {
                assert_eq!(
                    inner
                        .read_merged_master()
                        .unwrap()
                        .unwrap()
                        .field("big")
                        .unwrap(),
                    payload.as_slice()
                );
            },
        );
    }

    /// A dedup-negotiated put against a content-addressed root ships only
    /// the chunks the root's store is missing: the second snapshot of a
    /// mostly unchanged state skips nearly every chunk on the wire, and
    /// the restore comes back byte-identical.
    #[test]
    fn dedup_put_ships_only_novel_chunks() {
        use ppar_ckpt::{CasConfig, CheckpointStore};
        let dir = std::env::temp_dir().join(format!("ppar_net_dedup_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let root_addr = free_loopback_addr().unwrap();
        std::thread::scope(|scope| {
            let addr = &root_addr;
            let dir2 = dir.clone();
            scope.spawn(move || {
                let mut cfg = NetConfig::new(0, 2, addr.clone());
                cfg.recv_timeout = Duration::from_secs(20);
                let fabric = TcpFabric::connect(&cfg).unwrap();
                let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
                let store = CheckpointStore::new_cas_with(&dir2, CasConfig::default()).unwrap();
                let inner: Arc<dyn CkptTransport> = Arc::new(store);
                let service = NetTransport::serve(dyn_fabric.clone(), 0, inner);
                dyn_fabric.recv(0, 1, DONE_TAG).unwrap();
                service.stop();
            });
            scope.spawn(move || {
                let mut cfg = NetConfig::new(1, 2, addr.clone());
                cfg.recv_timeout = Duration::from_secs(20);
                let fabric = TcpFabric::connect(&cfg).unwrap();
                let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
                let t = NetTransport::client(dyn_fabric.clone(), 1);

                // 32 store chunks of aperiodic payload.
                let mut payload: Vec<u8> = (0..32 * DEDUP_CHUNK)
                    .map(|i| (i ^ (i >> 8) ^ (i >> 16)) as u8)
                    .collect();
                t.put_master(
                    &meta(4, None, 2),
                    &[("G", FieldSource::Bytes(&payload))],
                    &mut Vec::new(),
                )
                .unwrap();
                // Empty store: nothing to skip.
                assert_eq!(t.take_put_stats().wire_chunks_skipped, 0);

                // Dirty one chunk, advance the safe point, save again:
                // only the header chunk, the dirtied chunk (straddling at
                // most two store chunks) and the CRC tail are novel.
                for b in &mut payload[5 * DEDUP_CHUNK..6 * DEDUP_CHUNK] {
                    *b ^= 0xFF;
                }
                let written = t
                    .put_master(
                        &meta(8, None, 2),
                        &[("G", FieldSource::Bytes(&payload))],
                        &mut Vec::new(),
                    )
                    .unwrap();
                let n_chunks = written.div_ceil(DEDUP_CHUNK as u64);
                let skipped = t.take_put_stats().wire_chunks_skipped;
                assert!(
                    skipped >= n_chunks - 5,
                    "expected ≥{} wire chunks skipped, got {skipped}",
                    n_chunks - 5
                );

                // Restore is byte-identical state.
                let snap = t.read_merged_master().unwrap().unwrap();
                assert_eq!(snap.count, 8);
                assert_eq!(snap.field("G").unwrap(), payload.as_slice());

                dyn_fabric.send(1, 0, DONE_TAG, Arc::new(Vec::new()));
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: a chunk corrupted in flight (after the frame layer —
    /// simulated by corrupting before sending, since raw frames leave
    /// bulk bytes to the record CRC) must be rejected by the service's
    /// streaming CRC check, install nothing, and leave the service
    /// serving.
    #[test]
    fn mid_stream_corruption_is_rejected_without_partial_install() {
        two_rank(
            |t| {
                // Encode a checksummed record with the golden writer, then
                // flip one byte in the middle.
                let payload = vec![0xA5u8; 40_000];
                let mut w = SnapshotWriter::new(Vec::new(), &meta(3, None, 2), 1).unwrap();
                w.field("G", &FieldSource::Bytes(&payload), &mut Vec::new())
                    .unwrap();
                let (_, mut record) = w.finish().unwrap();
                let mid = record.len() / 2;
                record[mid] ^= 0x40;

                // Hand-drive the stream protocol at the frame level.
                let id = next_stream_id();
                let req = request(OP_PUT, id, RawRecordKind::Master, record.len() as u64);
                t.send(req);
                let data_tag = stream_tag(KIND_DATA, id);
                for chunk in record.chunks(16_000) {
                    let mut p = Vec::with_capacity(1 + chunk.len());
                    p.push(CH_DATA);
                    p.extend_from_slice(chunk);
                    t.fabric.send(t.rank, t.root, data_tag, Arc::new(p));
                }
                t.fabric
                    .send(t.rank, t.root, data_tag, Arc::new(vec![CH_END]));
                let err = t.recv_response().unwrap_err();
                assert!(err.to_string().contains("CRC"), "{err}");
                // Drain this stream's credits so nothing lingers.
                let credit_tag = stream_tag(KIND_CREDIT, id);
                while t.fabric.probe(t.rank, t.root, credit_tag) {
                    t.fabric.recv(t.rank, t.root, credit_tag).unwrap();
                }

                // No partial install, and the service still works.
                assert_eq!(t.read_merged_master().unwrap(), None);
                t.put_master(
                    &meta(5, None, 2),
                    &[("G", FieldSource::Bytes(&payload))],
                    &mut Vec::new(),
                )
                .unwrap();
                assert_eq!(t.restart_count().unwrap(), Some(5));
            },
            |inner| {
                assert_eq!(inner.read_merged_master().unwrap().unwrap().count, 5);
            },
        );
    }

    proptest::proptest! {
        /// Satellite: a record streamed through the service installs
        /// byte-identically to the buffered local path (same golden
        /// encoder at both ends) — full snapshots and sparse deltas.
        #[test]
        fn prop_streamed_install_is_byte_identical_to_buffered(
            seed in proptest::prelude::any::<u64>(),
            nfields in 1usize..4,
            len in 1usize..2500,
            patch_at in 0usize..64,
        ) {
            // Deterministic field payloads from the seed.
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let payloads: Vec<Vec<u8>> = (0..nfields)
                .map(|_| (0..len).map(|_| next() as u8).collect())
                .collect();
            let names: Vec<String> = (0..nfields).map(|i| format!("f{i}")).collect();
            let patch_at = patch_at.min(len.saturating_sub(8));
            let patch = vec![0xEEu8; 8.min(len - patch_at)];

            let (streamed_shard, streamed_delta) = two_rank(
                |t| {
                    let fields: Vec<(&str, FieldSource<'_>)> = names
                        .iter()
                        .zip(&payloads)
                        .map(|(n, p)| (n.as_str(), FieldSource::Bytes(p.as_slice())))
                        .collect();
                    t.put_shard(&meta(20, Some(1), 2), &fields, &mut Vec::new())
                        .unwrap();
                    if !patch.is_empty() {
                        let dm = DeltaMeta {
                            mode_tag: "tcp2".into(),
                            count: 21,
                            base_count: 20,
                            seq: 1,
                            rank: Some(1),
                            nranks: 2,
                        };
                        let ranges = [patch_at..patch_at + patch.len()];
                        t.put_shard_delta(
                            &dm,
                            &[(
                                names[0].as_str(),
                                DeltaSource::DirtyBytes {
                                    full_len: len as u64,
                                    ranges: &ranges,
                                    payload: &patch,
                                },
                            )],
                            &mut Vec::new(),
                        )
                        .unwrap();
                    }
                },
                |mem| {
                    (
                        mem.record_bytes(RawRecordKind::Shard(1)),
                        mem.record_bytes(RawRecordKind::ShardDelta { rank: 1, seq: 1 }),
                    )
                },
            );

            // The buffered local path: same puts against a local
            // MemTransport (the PR 5 service semantics).
            let local = MemTransport::new();
            let fields: Vec<(&str, FieldSource<'_>)> = names
                .iter()
                .zip(&payloads)
                .map(|(n, p)| (n.as_str(), FieldSource::Bytes(p.as_slice())))
                .collect();
            local
                .put_shard(&meta(20, Some(1), 2), &fields, &mut Vec::new())
                .unwrap();
            proptest::prop_assert_eq!(
                streamed_shard,
                local.record_bytes(RawRecordKind::Shard(1))
            );
            if !patch.is_empty() {
                let dm = DeltaMeta {
                    mode_tag: "tcp2".into(),
                    count: 21,
                    base_count: 20,
                    seq: 1,
                    rank: Some(1),
                    nranks: 2,
                };
                let ranges = [patch_at..patch_at + patch.len()];
                local
                    .put_shard_delta(
                        &dm,
                        &[(
                            names[0].as_str(),
                            DeltaSource::DirtyBytes {
                                full_len: len as u64,
                                ranges: &ranges,
                                payload: &patch,
                            },
                        )],
                        &mut Vec::new(),
                    )
                    .unwrap();
                proptest::prop_assert_eq!(
                    streamed_delta,
                    local.record_bytes(RawRecordKind::ShardDelta { rank: 1, seq: 1 })
                );
            }
        }
    }

    /// Satellite: four ranks checkpoint concurrently through independent
    /// lanes — interleaved bases and deltas — while a fifth dies
    /// mid-stream. Survivors' chains land intact; the dead rank installs
    /// nothing.
    #[test]
    fn concurrent_rank_pipelines_survive_mid_stream_peer_death() {
        const N: usize = 6; // root + 4 savers + 1 casualty
        let root_addr = free_loopback_addr().unwrap();
        std::thread::scope(|scope| {
            let addr = &root_addr;
            scope.spawn(move || {
                let mut cfg = NetConfig::new(0, N, addr.clone());
                cfg.recv_timeout = Duration::from_secs(20);
                let fabric = TcpFabric::connect(&cfg).unwrap();
                let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
                let inner: Arc<dyn CkptTransport> = Arc::new(MemTransport::new());
                let service = NetTransport::serve(dyn_fabric.clone(), 0, inner.clone());
                for src in 1..N - 1 {
                    dyn_fabric.recv(0, src, DONE_TAG).unwrap();
                }
                service.stop();
                for r in 1..(N - 1) as u32 {
                    let snap = inner.read_merged_shard(r).unwrap().unwrap();
                    assert_eq!(snap.count, 100 + r as u64);
                    let g = snap.field("G").unwrap();
                    assert_eq!(g.len(), 200_000);
                    assert!(g[..8].iter().all(|&b| b == 0xC0 + r as u8));
                    assert!(g[8..16].iter().all(|&b| b == r as u8));
                }
                // The casualty never completed its stream: no partial
                // record may exist.
                assert!(inner.read_merged_shard((N - 1) as u32).unwrap().is_none());
            });
            for rank in 1..N - 1 {
                scope.spawn(move || {
                    let mut cfg = NetConfig::new(rank, N, addr.clone());
                    cfg.recv_timeout = Duration::from_secs(20);
                    let fabric = TcpFabric::connect(&cfg).unwrap();
                    let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
                    let t = NetTransport::client(dyn_fabric.clone(), rank);
                    let r = rank as u32;
                    let base = vec![r as u8; 200_000];
                    t.put_shard(
                        &meta(99, Some(r), N as u32),
                        &[("G", FieldSource::Bytes(&base))],
                        &mut Vec::new(),
                    )
                    .unwrap();
                    let dm = DeltaMeta {
                        mode_tag: "tcp2".into(),
                        count: 100 + r as u64,
                        base_count: 99,
                        seq: 1,
                        rank: Some(r),
                        nranks: N as u32,
                    };
                    let patch = vec![0xC0 + r as u8; 8];
                    let ranges = [0usize..8];
                    t.put_shard_delta(
                        &dm,
                        &[(
                            "G",
                            DeltaSource::DirtyBytes {
                                full_len: base.len() as u64,
                                ranges: &ranges,
                                payload: &patch,
                            },
                        )],
                        &mut Vec::new(),
                    )
                    .unwrap();
                    // Concurrent restore while other lanes still stream.
                    let merged = t.read_merged_shard(r).unwrap().unwrap();
                    assert_eq!(merged.count, 100 + r as u64);
                    dyn_fabric.send(rank, 0, DONE_TAG, Arc::new(Vec::new()));
                });
            }
            scope.spawn(move || {
                // The casualty: begins a shard stream, ships one chunk,
                // and dies without an end marker.
                let rank = N - 1;
                let mut cfg = NetConfig::new(rank, N, addr.clone());
                cfg.recv_timeout = Duration::from_secs(20);
                let fabric = TcpFabric::connect(&cfg).unwrap();
                let id = next_stream_id();
                let req = request(OP_PUT, id, RawRecordKind::Shard(rank as u32), 1_000_000);
                fabric.send(rank, 0, REQ_TAG, Arc::new(req));
                let mut chunk = vec![CH_DATA];
                chunk.extend_from_slice(&[0x77u8; 50_000]);
                fabric.send(rank, 0, stream_tag(KIND_DATA, id), Arc::new(chunk));
                // Dropping the fabric closes the connections: death.
            });
        });
    }
}
