//! A process that dies while superseded generations still wait for the
//! store's reclaimer loses nothing: the directory already names exactly
//! the new generation, and the kernel frees the unlinked one's blocks
//! when the process's handles close.
//!
//! The test relaunches its own binary as the child (the self-spawn
//! pattern of the adapt crate's mid-loop resume tests): the child saves
//! two master generations through the store API and aborts the moment
//! the second save returns, with the first generation's handle most
//! likely still queued on the reclaimer.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use ppar_ckpt::{CheckpointStore, Snapshot};

const CHILD_DIR_ENV: &str = "PPAR_TEST_RECLAIM_CRASH_DIR";

/// A multi-MiB master record, distinct per generation.
fn generation(count: u64) -> Snapshot {
    Snapshot {
        mode_tag: "seq".into(),
        count,
        rank: None,
        nranks: 1,
        fields: vec![(
            "G".into(),
            (0..8usize << 20)
                .map(|i| (i as u64 * 7 + count) as u8)
                .collect(),
        )],
    }
}

fn names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The child role. A no-op under a normal `cargo test` run.
#[test]
fn reclaim_crash_child_entry() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else {
        return;
    };
    let store = CheckpointStore::new(dir).unwrap();
    store.write_master(&generation(1)).unwrap();
    store.write_master(&generation(2)).unwrap();
    std::process::abort();
}

#[test]
fn crash_with_reclaims_queued_restores_the_new_generation() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ppar_reclaim_crash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let status = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "reclaim_crash_child_entry",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_DIR_ENV, &dir)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(!status.success(), "the child must die by abort");

    let store = CheckpointStore::new(&dir).unwrap();
    let expect = generation(2);
    assert_eq!(store.read_master().unwrap().unwrap(), expect);
    assert_eq!(
        std::fs::read(dir.join("ckpt_master.bin")).unwrap(),
        expect.encode(),
        "bitwise the second generation"
    );
    assert_eq!(names(&dir), ["ckpt_master.bin"], "no stray file");
    std::fs::remove_dir_all(&dir).unwrap();
}
