//! Tracing must not change the program: for every workload kind whose
//! traced run wraps the engine and the checkpoint module in timing
//! decorators, one job and one crash + relaunch run traced and untraced
//! must give bitwise-equal results and identical checkpoint counters.
//!
//! `sor-tcp` is absent on purpose: its traced run adds no decorators (the
//! rank processes report only public outcome types).

use std::path::PathBuf;

use perfbench::trace::Tracer;
use perfbench::workload::{JobRun, Kernel, Sizes, Workload};
use ppar_ckpt::CkptStats;

fn scratch(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()))
}

/// The counters a decorator could disturb; timings are excluded.
fn counters(s: &CkptStats) -> [u64; 8] {
    [
        s.snapshots_taken,
        s.full_snapshots,
        s.delta_snapshots,
        s.bytes_written,
        s.chunks_written,
        s.chunks_deduped,
        s.replayed_points,
        s.handoff_snapshots,
    ]
}

fn assert_same(what: &str, plain: &JobRun, traced: &JobRun) {
    assert!(plain.completed && traced.completed, "{what}: both complete");
    assert_eq!(plain.answer, traced.answer, "{what}: results differ");
    assert_eq!(plain.replayed, traced.replayed, "{what}: replay differs");
    assert_eq!(
        counters(plain.stats.as_ref().expect("plain stats")),
        counters(traced.stats.as_ref().expect("traced stats")),
        "{what}: checkpoint counters differ"
    );
}

fn identity(workload: Workload) {
    let kernel = Kernel::new(workload, Sizes::small(), 42);
    let reference = kernel.reference();
    let every = kernel.every();
    let root = scratch(workload.name());
    let (plain_dir, traced_dir) = (root.join("plain"), root.join("traced"));
    let tracer = Tracer::new();

    // Fault-free job.
    kernel.fresh_dir(&plain_dir, false).unwrap();
    kernel.fresh_dir(&traced_dir, false).unwrap();
    let plain = kernel.launch_job(&plain_dir, None, every).unwrap();
    tracer.set_job(1);
    let traced = kernel.traced_job(&traced_dir, None, &tracer).unwrap();
    assert_eq!(
        plain.answer, reference,
        "untraced job matches the reference"
    );
    assert_same("job", &plain, &traced);
    let saves = tracer
        .job_spans(1)
        .iter()
        .filter(|s| s.name == "take_snapshot")
        .count() as u64;
    assert!(saves > 0, "the traced job recorded its saves");
    assert_eq!(saves, traced.stats.as_ref().unwrap().snapshots_taken);

    // Crash at 3/4, then the relaunch that resumes it.
    let crash = Some(kernel.crash_at());
    kernel.fresh_dir(&plain_dir, false).unwrap();
    kernel.fresh_dir(&traced_dir, false).unwrap();
    assert!(
        !kernel
            .launch_job(&plain_dir, crash, every)
            .unwrap()
            .completed
    );
    assert!(
        !kernel
            .launch_job(&traced_dir, crash, every)
            .unwrap()
            .completed
    );
    let plain = kernel.launch_job(&plain_dir, None, every).unwrap();
    tracer.set_job(2);
    let traced = kernel.traced_job(&traced_dir, None, &tracer).unwrap();
    assert!(plain.replayed, "the relaunch resumed from a checkpoint");
    assert_eq!(
        plain.answer, reference,
        "untraced relaunch matches the reference"
    );
    assert_same("relaunch", &plain, &traced);
    assert!(
        tracer
            .job_spans(2)
            .iter()
            .any(|s| s.name == "load_snapshot"),
        "the traced relaunch recorded its load"
    );

    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn sor_dense_traced_equals_untraced() {
    identity(Workload::SorDense);
}

#[test]
fn ckpt_sparse_traced_equals_untraced() {
    identity(Workload::CkptSparse);
}

#[test]
fn smc_task_traced_equals_untraced() {
    identity(Workload::SmcTask);
}

#[test]
fn live_sessions_follow_their_scripts() {
    for workload in [
        Workload::SorDense,
        Workload::CkptSparse,
        Workload::SmcTask,
        Workload::SorTcp,
    ] {
        let kernel = Kernel::new(workload, Sizes::small(), 7);
        let dir = scratch(&format!("live-{}", workload.name()));
        kernel.fresh_dir(&dir, false).unwrap();
        let run = kernel.live_session(&dir).unwrap();
        assert!(run.completed, "{}: session completes", workload.name());
        assert_eq!(run.answer, kernel.reference(), "{}", workload.name());
        assert!(
            kernel.live_followed_script(&run),
            "{}: scripted reshapes applied: {:?}",
            workload.name(),
            run.applied
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
