//! Medium conformance: every checkpoint medium keeps the same record
//! contract under the one snapshot layer. Each case runs against the flat
//! store, the content-addressed store, the in-memory object map, the
//! network client (service on a flat store, over a loopback two-rank
//! fabric) and the mirror tee over that client.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ppar_ckpt::delta::DeltaMeta;
use ppar_ckpt::store::{DeltaSource, FieldSource, Snapshot, SnapshotMeta};
use ppar_ckpt::transport::WHOLE_RECORD;
use ppar_ckpt::{
    CasConfig, Chains, CheckpointStore, CkptTransport, MemTransport, RawRecordKind, SnapshotIo,
};
use ppar_core::error::Result;
use ppar_core::shared::SharedVec;
use ppar_core::state::StateCell;
use ppar_net::{free_loopback_addr, Fabric, MirrorTransport, NetConfig, NetTransport, TcpFabric};

#[derive(Clone, Copy, Debug)]
enum Medium {
    Flat,
    Cas,
    Mem,
    Net,
    Mirror,
}

const MEDIA: [Medium; 5] = [
    Medium::Flat,
    Medium::Cas,
    Medium::Mem,
    Medium::Net,
    Medium::Mirror,
];

impl Medium {
    fn tag(self) -> &'static str {
        match self {
            Medium::Flat | Medium::Cas => "file",
            Medium::Mem => "memory",
            Medium::Net => "net",
            Medium::Mirror => "mirror",
        }
    }

    /// Records are stored with the in-memory zero CRC trailer.
    fn zero_trailer(self) -> bool {
        matches!(self, Medium::Mem)
    }

    /// `commit_group` through this medium sets the point the restart
    /// target honours (a network client leaves committing to the root).
    fn keeps_commit(self) -> bool {
        matches!(self, Medium::Flat | Medium::Cas)
    }

    /// The previous shard generation is retained for count-pinned reads.
    fn keeps_prev(self) -> bool {
        !matches!(self, Medium::Mem)
    }
}

const DONE_TAG: u64 = (1 << 63) | 91;

fn tmpdir(tag: &str, medium: Medium) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "ppar_conformance_{tag}_{medium:?}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Run `case` on a fresh instance of every medium.
fn each_medium(tag: &str, case: impl Fn(Medium, &dyn CkptTransport) + Sync) {
    for medium in MEDIA {
        let dir = tmpdir(tag, medium);
        match medium {
            Medium::Flat => case(medium, &CheckpointStore::new_flat(&dir).unwrap()),
            Medium::Cas => case(
                medium,
                &CheckpointStore::new_cas_with(&dir, CasConfig::default()).unwrap(),
            ),
            Medium::Mem => case(medium, &MemTransport::new()),
            Medium::Net => over_service(&dir, |net| case(medium, &*net)),
            Medium::Mirror => over_service(&dir, |net| case(medium, &MirrorTransport::new(net))),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Rank 0 serves a flat store in `dir`; rank 1 runs `client` on its
/// network client.
fn over_service(dir: &Path, client: impl FnOnce(Arc<dyn CkptTransport>) + Send) {
    let root = free_loopback_addr().unwrap();
    std::thread::scope(|scope| {
        let root2 = root.clone();
        scope.spawn(move || {
            let mut cfg = NetConfig::new(0, 2, root2);
            cfg.recv_timeout = Duration::from_secs(20);
            let fabric: Arc<dyn Fabric> = TcpFabric::connect(&cfg).unwrap();
            let store = Arc::new(CheckpointStore::new_flat(dir).unwrap());
            let service = NetTransport::serve(fabric.clone(), 0, store);
            fabric.recv(0, 1, DONE_TAG).unwrap();
            service.stop();
        });
        scope.spawn(move || {
            let mut cfg = NetConfig::new(1, 2, root);
            cfg.recv_timeout = Duration::from_secs(20);
            let fabric: Arc<dyn Fabric> = TcpFabric::connect(&cfg).unwrap();
            client(Arc::new(NetTransport::client(fabric.clone(), 1)));
            fabric.send(1, 0, DONE_TAG, Arc::new(Vec::new()));
        });
    });
}

fn snapshot(count: u64, rank: Option<u32>, fill: u8) -> Snapshot {
    Snapshot {
        mode_tag: "smp4".into(),
        count,
        rank,
        nranks: 4,
        fields: vec![
            ("G".into(), (0..9000u32).map(|i| (i as u8) ^ fill).collect()),
            ("energy".into(), 42.0f64.to_le_bytes().to_vec()),
        ],
    }
}

fn put(t: &dyn CkptTransport, snap: &Snapshot) -> u64 {
    match snap.rank {
        None => t.put_master(&snap.meta(), &snap.field_sources(), &mut Vec::new()),
        Some(_) => t.put_shard(&snap.meta(), &snap.field_sources(), &mut Vec::new()),
    }
    .unwrap()
}

fn whole_record(t: &dyn CkptTransport, key: RawRecordKind) -> Option<Vec<u8>> {
    let mut out = None;
    t.read_record(key, WHOLE_RECORD, &mut |bytes, _| {
        out = Some(bytes.to_vec());
        Ok(())
    })
    .unwrap();
    out
}

fn delta_meta(count: u64, base_count: u64, rank: Option<u32>) -> DeltaMeta {
    DeltaMeta {
        mode_tag: "smp4".into(),
        count,
        base_count,
        seq: 1,
        rank,
        nranks: 4,
    }
}

#[test]
fn full_put_reads_back_the_golden_encoding() {
    each_medium("golden", |medium, t| {
        assert_eq!(t.describe(), medium.tag());
        assert!(t.read_merged_master().unwrap().is_none(), "{medium:?}");
        assert!(t
            .write_merged_record(None, &mut Vec::new())
            .unwrap()
            .is_none());

        let snap = snapshot(7, None, 0);
        let golden = snap.encode();
        assert_eq!(put(t, &snap), golden.len() as u64, "{medium:?}");
        let stored = whole_record(t, RawRecordKind::Master).unwrap();
        let n = golden.len();
        assert_eq!(stored[..n - 4], golden[..n - 4], "{medium:?}");
        let trailer: &[u8] = if medium.zero_trailer() {
            &[0; 4]
        } else {
            &golden[n - 4..]
        };
        assert_eq!(&stored[n - 4..], trailer, "{medium:?}");
        assert_eq!(t.read_merged_master().unwrap().unwrap(), snap, "{medium:?}");

        // The service-side copy always carries a real trailer, and the
        // no-chain merged stream is that record verbatim.
        let mut copied = Vec::new();
        t.copy_record(RawRecordKind::Master, &mut copied).unwrap();
        assert_eq!(copied, golden, "{medium:?}");
        let mut merged = Vec::new();
        let written = t.write_merged_record(None, &mut merged).unwrap().unwrap();
        assert_eq!(written as usize, merged.len());
        assert_eq!(merged, golden, "{medium:?}");

        // A raw put of the encoded bytes in small chunks lands exactly
        // where the encoder's put did.
        let shard = snapshot(3, Some(2), 0x5A);
        let mut sink = t.begin_put(RawRecordKind::Shard(2), 0).unwrap();
        for chunk in shard.encode().chunks(7) {
            sink.write_chunk(chunk).unwrap();
        }
        sink.commit().unwrap();
        assert_eq!(
            t.read_merged_shard(2).unwrap().unwrap(),
            shard,
            "{medium:?}"
        );
        assert!(t.read_merged_shard(1).unwrap().is_none(), "{medium:?}");
    });
}

#[test]
fn delta_chains_merge_and_gc_clears_them() {
    each_medium("chain", |medium, t| {
        let v = SharedVec::from_vec((0..4000).map(|i| i as f64).collect());
        let meta = SnapshotMeta {
            mode_tag: "smp4".into(),
            count: 10,
            rank: None,
            nranks: 4,
        };
        t.put_master(&meta, &[("G", FieldSource::Cell(&v))], &mut Vec::new())
            .unwrap();
        v.clear_dirty();
        v.set(3, -1.0);
        let ranges = v.dirty_byte_ranges();
        let dirty = [(
            "G",
            DeltaSource::DirtyCell {
                cell: &v,
                ranges: &ranges,
            },
        )];
        t.put_master_delta(&delta_meta(20, 10, None), &dirty, &mut Vec::new())
            .unwrap();

        let merged = t.read_merged_master().unwrap().unwrap();
        assert_eq!(merged.count, 20, "{medium:?}: restart replays to the delta");
        assert_eq!(merged.field("G").unwrap(), v.save_bytes().as_slice());
        assert_eq!(t.restart_count().unwrap(), Some(20), "{medium:?}");
        let mut seen = 0;
        assert!(t
            .with_merged_master(&mut |view| {
                seen = view.count;
                Ok(())
            })
            .unwrap());
        assert_eq!(seen, 20, "{medium:?}");
        // With a chain pending the merged stream is re-encoded, checksummed.
        let mut out = Vec::new();
        t.write_merged_record(None, &mut out).unwrap().unwrap();
        assert_eq!(Snapshot::decode(&out).unwrap(), merged, "{medium:?}");

        // A shard chain beside it, relative to the shard payload.
        let base = vec![0u8; 64];
        let shard_meta = SnapshotMeta {
            mode_tag: "smp4".into(),
            count: 10,
            rank: Some(1),
            nranks: 4,
        };
        t.put_shard(
            &shard_meta,
            &[("G", FieldSource::Bytes(&base))],
            &mut Vec::new(),
        )
        .unwrap();
        let ranges: Vec<std::ops::Range<usize>> = std::iter::once(16..24).collect();
        let patch = [9u8; 8];
        let sparse = [(
            "G",
            DeltaSource::DirtyBytes {
                full_len: 64,
                ranges: &ranges,
                payload: &patch,
            },
        )];
        t.put_shard_delta(&delta_meta(12, 10, Some(1)), &sparse, &mut Vec::new())
            .unwrap();
        let merged = t.read_merged_shard(1).unwrap().unwrap();
        assert_eq!(merged.count, 12, "{medium:?}");
        assert_eq!(&merged.field("G").unwrap()[16..24], &patch);
        assert_eq!(&merged.field("G").unwrap()[..16], &[0u8; 16]);

        // Promotion GC of one chain leaves the other; clearing all chains
        // leaves only the bases.
        t.remove_deltas(Chains::Of(None)).unwrap();
        assert!(t.read_delta(None, 1).unwrap().is_none(), "{medium:?}");
        assert_eq!(t.read_merged_master().unwrap().unwrap().count, 10);
        assert!(t.read_delta(Some(1), 1).unwrap().is_some(), "{medium:?}");
        t.remove_deltas(Chains::All).unwrap();
        assert_eq!(t.read_merged_shard(1).unwrap().unwrap().count, 10);
    });
}

#[test]
fn restart_target_prefers_commit_point_then_master_then_shard_zero() {
    each_medium("target", |medium, t| {
        assert_eq!(t.restart_count().unwrap(), None, "{medium:?}");
        // A shard other than 0 never sets the target.
        put(t, &snapshot(5, Some(2), 1));
        assert_eq!(t.read_merged_shard(2).unwrap().unwrap().count, 5);
        assert_eq!(t.restart_count().unwrap(), None, "{medium:?}");
        put(t, &snapshot(9, Some(0), 1));
        assert_eq!(t.restart_count().unwrap(), Some(9), "{medium:?}");
        put(t, &snapshot(12, None, 1));
        assert_eq!(t.restart_count().unwrap(), Some(12), "{medium:?}");
        // The group-commit point wins over any tip, where the medium keeps
        // one.
        t.commit_group(7).unwrap();
        let expect = if medium.keeps_commit() { 7 } else { 12 };
        assert_eq!(t.restart_count().unwrap(), Some(expect), "{medium:?}");
    });
}

#[test]
fn count_pinned_read_falls_back_to_the_previous_generation() {
    each_medium("pinned", |medium, t| {
        let old = snapshot(10, Some(1), 1);
        let new = snapshot(20, Some(1), 2);
        put(t, &old);
        t.commit_group(10).unwrap();
        // A torn save: this shard advanced, the group commit did not.
        put(t, &new);
        assert_eq!(t.read_shard_at(1, 20).unwrap().unwrap(), new, "{medium:?}");
        let at_commit = t.read_shard_at(1, 10);
        if medium.keeps_prev() {
            assert_eq!(at_commit.unwrap().unwrap(), old, "{medium:?}");
        } else {
            let err = at_commit.unwrap_err().to_string();
            assert!(err.contains("safe point 10"), "{medium:?}: {err}");
        }
        // No generation sits at 15: the torn save is an error, not a
        // silently inconsistent restore.
        assert!(t.read_shard_at(1, 15).is_err(), "{medium:?}");
        assert!(t.read_shard_at(3, 10).unwrap().is_none(), "{medium:?}");
    });
}

#[test]
fn aborted_or_dropped_put_keeps_the_previous_record() {
    each_medium("abort", |medium, t| {
        let master = snapshot(5, None, 3);
        let shard = snapshot(4, Some(2), 4);
        put(t, &master);
        put(t, &shard);
        for key in [RawRecordKind::Master, RawRecordKind::Shard(2)] {
            let mut sink = t.begin_put(key, 0).unwrap();
            sink.write_chunk(b"partial garbage").unwrap();
            sink.abort();
            let mut sink = t.begin_put(key, 0).unwrap();
            sink.write_chunk(b"partial garbage").unwrap();
            drop(sink);
        }
        assert_eq!(
            t.read_merged_master().unwrap().unwrap(),
            master,
            "{medium:?}"
        );
        assert_eq!(
            t.read_merged_shard(2).unwrap().unwrap(),
            shard,
            "{medium:?}"
        );
        assert_eq!(t.read_shard_at(2, 4).unwrap().unwrap(), shard, "{medium:?}");
    });
}

/// A cell that announces 8 bytes and streams 4: the encoder fails the save
/// part-way through the record.
struct ShortCell;

impl StateCell for ShortCell {
    fn save_bytes(&self) -> Vec<u8> {
        vec![0; 8]
    }
    fn load_bytes(&self, _bytes: &[u8]) -> Result<()> {
        Ok(())
    }
    fn byte_len(&self) -> usize {
        8
    }
    fn known_byte_len(&self) -> Option<usize> {
        Some(8)
    }
    fn write_state(&self, w: &mut dyn std::io::Write) -> Result<u64> {
        w.write_all(&[1, 2, 3, 4])?;
        Ok(4)
    }
}

#[test]
fn failed_save_keeps_the_previous_generation() {
    each_medium("failed", |medium, t| {
        let master = snapshot(1, None, 5);
        let shard = snapshot(1, Some(0), 6);
        put(t, &master);
        put(t, &shard);
        for rank in [None, Some(0)] {
            let meta = SnapshotMeta {
                mode_tag: "smp4".into(),
                count: 2,
                rank,
                nranks: 4,
            };
            let fields = [("G", FieldSource::Cell(&ShortCell))];
            let saved = match rank {
                None => t.put_master(&meta, &fields, &mut Vec::new()),
                Some(_) => t.put_shard(&meta, &fields, &mut Vec::new()),
            };
            let err = saved.unwrap_err().to_string();
            assert!(err.contains("announced 8 bytes"), "{medium:?}: {err}");
        }
        assert_eq!(
            t.read_merged_master().unwrap().unwrap(),
            master,
            "{medium:?}"
        );
        assert_eq!(
            t.read_merged_shard(0).unwrap().unwrap(),
            shard,
            "{medium:?}"
        );
        assert_eq!(t.restart_count().unwrap(), Some(1), "{medium:?}");
    });
}
