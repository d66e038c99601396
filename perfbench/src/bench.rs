//! One benchmark run: set-up, then closed-loop job cycles (one client,
//! jobs back to back) for the requested seconds, then the metrics.
//!
//! A cycle is a fault-free job, a crash at 3/4 plus the relaunch that
//! resumes it, and one live-reshape session. The traced run adds, per
//! cycle, a traced job, a traced relaunch and the workload's one-off
//! comparison variant next to the untraced job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppar_ckpt::CkptStats;
use ppar_core::error::Result;

use crate::report::{
    cpu_jiffies, median, percentile, percentile_ok, steal_share, Environment, Metric,
};
use crate::trace::{self_times, uncovered_ns, Span, Tracer};
use crate::workload::{vm_hwm_kib, Answer, JobRun, Kernel, LiveRun, Sizes, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// An operation slower than this counts as failed (timed out).
const OP_LIMIT: Duration = Duration::from_secs(60);

const MIB: f64 = (1u64 << 20) as f64;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Attempted and failed operations, with the reason for each failure.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations that produced no timing (errors, panics): they
    /// are missing from the medians and counted here.
    pub untimed: u64,
}

impl Ledger {
    /// Run one operation. Errors and panics count as failed and yield
    /// `None`; a result that `ok` rejects, or that took longer than
    /// [`OP_LIMIT`], counts as failed but is returned so its timing still
    /// enters the medians.
    pub fn op<T>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<T>,
        ok: impl FnOnce(&T) -> bool,
        wall: impl FnOnce(&T) -> Duration,
    ) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(t)) => {
                let good = ok(&t);
                let slow = wall(&t) > OP_LIMIT;
                if !good || slow {
                    self.failed += 1;
                    eprintln!(
                        "perfbench: {what} failed ({})",
                        if good { "timed out" } else { "wrong result" }
                    );
                }
                Some(t)
            }
            Ok(Err(e)) => {
                self.failed += 1;
                self.untimed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
            Err(_) => {
                self.failed += 1;
                self.untimed += 1;
                eprintln!("perfbench: {what} panicked");
                None
            }
        }
    }
}

/// Everything one run collected.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    seq_s: Vec<f64>,
    job_s: Vec<f64>,
    restart_s: Vec<f64>,
    live_s: Vec<f64>,
    disk_mb: Vec<f64>,
    rank_hwm_kib: u64,
    // traced run
    traced_jobs: Vec<(u64, JobRun)>,
    traced_restarts: Vec<(u64, JobRun)>,
    lives: Vec<LiveRun>,
    variants: Vec<JobRun>,
    tcp_jobs: Vec<JobRun>,
    tcp_restarts: Vec<JobRun>,
}

/// The metrics of one run.
pub struct Report {
    /// Metrics printed on the result line.
    pub metrics: Vec<Metric>,
    /// Extra rows for the result file and the human-readable report.
    pub extra: Vec<Metric>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

/// The run's verdict and metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
    /// The run's spans (empty unless traced).
    pub tracer: Arc<Tracer>,
}

/// Options of one run.
pub struct RunSpec {
    pub workload: Workload,
    pub sizes: Sizes,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this run's checkpoint directories.
    pub work: PathBuf,
}

struct Runner<'a> {
    spec: &'a RunSpec,
    kernel: Kernel,
    reference: Answer,
    ledger: Ledger,
    s: Samples,
    tracer: Arc<Tracer>,
    next_job: u64,
}

impl<'a> Runner<'a> {
    fn dir(&self, tag: &str) -> PathBuf {
        self.spec.work.join(tag)
    }

    fn is_tcp(&self) -> bool {
        self.spec.workload == Workload::SorTcp
    }

    /// A fault-free job through the public driver.
    fn job(&mut self, what: &str, every: usize, flat: bool) -> Option<JobRun> {
        let (reference, kernel, tcp) = (self.reference, self.kernel.clone(), self.is_tcp());
        let dir = self.dir("job");
        let run = self.ledger.op(
            what,
            || {
                kernel.fresh_dir(&dir, flat)?;
                if tcp {
                    kernel.tcp_job(&dir, None, every)
                } else {
                    kernel.launch_job(&dir, None, every)
                }
            },
            |r| r.completed && r.answer == reference,
            |r| r.wall,
        )?;
        self.note_ranks(&run);
        Some(run)
    }

    fn note_ranks(&mut self, run: &JobRun) {
        for r in &run.ranks {
            self.s.rank_hwm_kib = self.s.rank_hwm_kib.max(r.vm_hwm_kib);
        }
    }

    /// Crash at 3/4, then time the relaunch that resumes and completes.
    fn restart(&mut self, traced: bool) -> Option<JobRun> {
        let (reference, kernel, crash) =
            (self.reference, self.kernel.clone(), self.kernel.crash_at());
        let every = kernel.every();
        let dir = self.dir("restart");
        let job = self.next_job;
        let tracer = self.tracer.clone();
        if self.is_tcp() {
            let run = self.ledger.op(
                "restart",
                || {
                    kernel.fresh_dir(&dir, false)?;
                    let crashed = kernel.tcp_job(&dir, Some(crash), every)?;
                    assert!(!crashed.completed, "the crash run must not complete");
                    kernel.tcp_job(&dir, None, every)
                },
                |r| r.completed && r.replayed && r.answer == reference,
                |r| r.wall,
            )?;
            self.note_ranks(&run);
            self.s.tcp_restarts.push(run.clone());
            return Some(run);
        }
        let run = self.ledger.op(
            "restart",
            || {
                kernel.fresh_dir(&dir, false)?;
                let crashed = kernel.launch_job(&dir, Some(crash), every)?;
                assert!(!crashed.completed, "the crash run must not complete");
                if traced {
                    tracer.set_job(job);
                    kernel.traced_job(&dir, None, &tracer)
                } else {
                    kernel.launch_job(&dir, None, every)
                }
            },
            |r| r.completed && r.replayed && r.answer == reference,
            |r| r.wall,
        )?;
        if traced {
            self.next_job += 1;
            self.s.traced_restarts.push((job, run.clone()));
        }
        Some(run)
    }

    fn traced_job(&mut self) {
        let (reference, kernel, tracer) =
            (self.reference, self.kernel.clone(), self.tracer.clone());
        let dir = self.dir("job");
        let job = self.next_job;
        let run = self.ledger.op(
            "traced job",
            || {
                kernel.fresh_dir(&dir, false)?;
                tracer.set_job(job);
                kernel.traced_job(&dir, None, &tracer)
            },
            |r| r.completed && r.answer == reference,
            |r| r.wall,
        );
        if let Some(run) = run {
            self.next_job += 1;
            self.s.traced_jobs.push((job, run));
        }
    }

    fn live(&mut self) -> Option<LiveRun> {
        let (reference, kernel) = (self.reference, self.kernel.clone());
        let dir = self.dir("live");
        self.ledger.op(
            "live session",
            || {
                kernel.fresh_dir(&dir, false)?;
                kernel.live_session(&dir)
            },
            |r| r.completed && r.answer == reference && kernel.live_followed_script(r),
            |r| r.wall,
        )
    }

    /// Set-up: make the inputs, compute the reference, run one warm-up
    /// job. Repeated; every repetition must reproduce the reference.
    fn setup(spec: &'a RunSpec) -> Runner<'a> {
        let mut runner: Option<Runner<'a>> = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let kernel = Kernel::new(spec.workload, spec.sizes, spec.seed);
            let reference = kernel.reference();
            let seq_s = t0.elapsed().as_secs_f64();
            let r = runner.get_or_insert_with(|| Runner {
                spec,
                kernel: kernel.clone(),
                reference,
                ledger: Ledger::default(),
                s: Samples::default(),
                tracer: Tracer::new(),
                next_job: 1,
            });
            if reference != r.reference {
                r.ledger.attempted += 1;
                r.ledger.failed += 1;
                eprintln!("perfbench: sequential reference is not reproducible");
            }
            r.s.seq_s.push(seq_s);
            let every = r.kernel.every();
            r.job("warm-up job", every, false);
            r.s.setup_s.push(t0.elapsed().as_secs_f64());
        }
        runner.expect("at least one set-up repetition")
    }

    fn cycle(&mut self) {
        let every = self.kernel.every();
        if self.spec.trace {
            if let Some(r) = self.job("job", every, false) {
                self.s.job_s.push(r.wall.as_secs_f64());
                if self.is_tcp() {
                    self.s.tcp_jobs.push(r);
                }
            }
            if !self.is_tcp() {
                self.traced_job();
            }
            self.restart(!self.is_tcp());
            if let Some(l) = self.live() {
                self.s.lives.push(l);
            }
            // The one-off comparison: checkpoints off (SOR, SMC), or the
            // same incremental checkpoints on the flat layout (sparse).
            let (every, flat) = match self.spec.workload {
                Workload::CkptSparse => (every, true),
                _ => (0, false),
            };
            if let Some(v) = self.job("comparison job", every, flat) {
                self.s.variants.push(v);
            }
        } else {
            if let Some(r) = self.job("job", every, false) {
                self.s.job_s.push(r.wall.as_secs_f64());
                self.s.disk_mb.push(r.disk_bytes as f64 / MIB);
            }
            if let Some(r) = self.restart(false) {
                self.s.restart_s.push(r.wall.as_secs_f64());
            }
            if let Some(l) = self.live() {
                self.s.live_s.push(l.wall.as_secs_f64());
            }
        }
    }
}

/// Run the benchmark described by `spec`.
pub fn run(spec: &RunSpec) -> Outcome {
    std::fs::create_dir_all(&spec.work).expect("create the checkpoint work directory");
    let cpu_before = cpu_jiffies();
    let mut r = Runner::setup(spec);
    let t0 = Instant::now();
    loop {
        r.cycle();
        if t0.elapsed().as_secs_f64() >= spec.seconds {
            break;
        }
    }
    // Peak resident memory: the benchmark process, or for `sor-tcp` the
    // largest rank process.
    let hwm_kib = if r.is_tcp() {
        r.s.rank_hwm_kib
    } else {
        vm_hwm_kib()
    };
    let rss_mb = hwm_kib as f64 / 1024.0;
    let mut report = if spec.trace {
        per_layer(&r)
    } else {
        end_to_end(&r, rss_mb)
    };
    report.extra.push(Metric::new(
        "cpu_steal_share",
        "ratio",
        steal_share(cpu_before, cpu_jiffies()),
        1,
    ));
    Outcome {
        attempted: r.ledger.attempted,
        failed: r.ledger.failed,
        report,
        tracer: r.tracer,
    }
}

fn end_to_end(r: &Runner<'_>, rss_mb: f64) -> Report {
    let s = &r.s;
    let timed = |name, xs: &Vec<f64>| Metric::new(name, "s", median(xs), xs.len());
    let metrics = vec![
        timed("setup_s", &s.setup_s),
        timed("job_s", &s.job_s),
        timed("restart_s", &s.restart_s),
        timed("live_job_s", &s.live_s),
        Metric::new("disk_mb", "MiB", median(&s.disk_mb), s.disk_mb.len()),
        Metric::new("rss_mb", "MiB", rss_mb, 1),
    ];
    let attempted = r.ledger.attempted.max(1);
    let extra = vec![
        Metric::new(
            "error_rate",
            "ratio",
            r.ledger.failed as f64 / attempted as f64,
            attempted as usize,
        ),
        Metric::new("untimed_failures", "count", r.ledger.untimed as f64, 1),
    ];
    let list = |name: &str, xs: &[f64]| {
        let v: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
        format!("{name} samples: [{}]", v.join(", "))
    };
    Report {
        metrics,
        extra,
        notes: vec![
            list("setup_s", &s.setup_s),
            list("job_s", &s.job_s),
            list("restart_s", &s.restart_s),
            list("live_job_s", &s.live_s),
        ],
    }
}

/// Median of `f` over `items`.
fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn stats_of(run: &JobRun) -> CkptStats {
    run.stats.clone().unwrap_or_default()
}

fn sum_ms<'s>(spans: impl Iterator<Item = &'s Span>) -> f64 {
    spans.map(|s| s.dur_ns() as f64 / 1e6).sum::<f64>() + 0.0
}

fn per_layer(r: &Runner<'_>) -> Report {
    let s = &r.s;
    let tr = &r.tracer;
    let job_spans: Vec<(u64, Vec<Span>)> = s
        .traced_jobs
        .iter()
        .map(|(id, _)| (*id, tr.job_spans(*id)))
        .collect();
    let spans_of = |id: u64| -> &Vec<Span> {
        &job_spans
            .iter()
            .find(|(j, _)| *j == id)
            .expect("spans of every traced job")
            .1
    };
    let all: Vec<&Span> = job_spans.iter().flat_map(|(_, v)| v.iter()).collect();
    let named = |name: &'static str| all.iter().filter(move |s| s.name == name);

    // Self time of every span, by job.
    let self_by_layer = |id: u64, layer: &str| -> f64 {
        let spans = spans_of(id);
        self_times(spans)
            .into_iter()
            .filter(|(i, _)| spans[*i].layer == layer)
            .map(|(_, ns)| ns as f64 / 1e6)
            .sum::<f64>()
            + 0.0
    };
    let point_self_us: Vec<f64> = job_spans
        .iter()
        .flat_map(|(_, spans)| {
            self_times(spans)
                .into_iter()
                .filter(|(i, _)| spans[*i].name == "point")
                .map(|(_, ns)| ns as f64 / 1e3)
                .collect::<Vec<_>>()
        })
        .collect();
    let barrier_us: Vec<f64> = named("barrier").map(|s| s.dur_ns() as f64 / 1e3).collect();
    let save_ms: Vec<f64> = if r.is_tcp() {
        s.tcp_jobs
            .iter()
            .map(|j| &j.ranks[0])
            .map(|r| ms(r.save_time) / r.snapshots as f64)
            .collect()
    } else {
        named("take_snapshot")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    };
    let master = |id: u64, name: &str| -> Vec<&Span> {
        spans_of(id)
            .iter()
            .filter(|s| s.worker == 0 && s.name == name)
            .collect()
    };
    let jobs = &s.traced_jobs;
    let n_jobs = jobs.len();
    let loop_ms = median_by(jobs, |(id, _)| sum_ms(master(*id, "for_each").into_iter()));
    let crossings = median_by(jobs, |(id, _)| master(*id, "point").len() as f64);
    let regions = median_by(jobs, |(id, _)| master(*id, "region").len() as f64);
    let core_self = median_by(jobs, |(id, _)| self_by_layer(*id, "core"));
    let ckpt_self = median_by(jobs, |(id, _)| self_by_layer(*id, "ckpt"));
    let task_self = median_by(jobs, |(id, _)| self_by_layer(*id, "task"));
    let task_region = median_by(jobs, |(id, _)| {
        sum_ms(
            spans_of(*id)
                .iter()
                .filter(|s| s.layer == "task" && s.name == "region"),
        )
    });
    let commit_ms = median_by(jobs, |(id, _)| {
        sum_ms(spans_of(*id).iter().filter(|s| s.name == "group_commit"))
    });
    let uncovered = median_by(jobs, |(id, _)| {
        let spans = spans_of(*id);
        let Some(job) = spans.iter().find(|s| s.layer == "bench") else {
            return 1.0;
        };
        let inner: Vec<Span> = spans
            .iter()
            .filter(|s| s.layer != "bench")
            .cloned()
            .collect();
        uncovered_ns(&inner, job.start..job.end) as f64 / job.dur_ns().max(1) as f64
    });

    // Checkpoint counters: traced jobs, or rank 0 of the TCP jobs.
    let counters: Vec<CkptStats> = if r.is_tcp() {
        s.tcp_jobs
            .iter()
            .map(|j| {
                let r0 = &j.ranks[0];
                CkptStats {
                    snapshots_taken: r0.snapshots,
                    bytes_written: r0.ckpt_bytes,
                    save_time: r0.save_time,
                    ..CkptStats::default()
                }
            })
            .collect()
    } else {
        jobs.iter().map(|(_, j)| stats_of(j)).collect()
    };
    let saves = median_by(&counters, |c| c.snapshots_taken as f64);
    let save_mb = median_by(&counters, |c| {
        c.bytes_written as f64 / MIB / c.snapshots_taken.max(1) as f64
    });
    let written = median_by(&counters, |c| c.chunks_written as f64);
    let deduped = median_by(&counters, |c| c.chunks_deduped as f64);
    let dedup_ratio = median_by(&counters, |c| {
        let total = c.chunks_written + c.chunks_deduped;
        if total == 0 {
            0.0
        } else {
            c.chunks_deduped as f64 / total as f64
        }
    });
    let walls: Vec<f64> = if r.is_tcp() {
        s.tcp_jobs.iter().map(|j| j.wall.as_secs_f64()).collect()
    } else {
        jobs.iter().map(|(_, j)| j.wall.as_secs_f64()).collect()
    };
    let ckpt_share = median(
        &counters
            .iter()
            .zip(&walls)
            .map(|(c, w)| c.save_time.as_secs_f64() / w)
            .collect::<Vec<_>>(),
    );

    // Read path: the relaunches.
    let (load_ms, replay_ms, replayed_points, n_restarts) = if r.is_tcp() {
        let rs = &s.tcp_restarts;
        (
            median_by(rs, |t| ms(t.ranks[0].load_time)),
            median_by(rs, |t| ms(t.ranks[0].replay_time)),
            median_by(rs, |t| t.ranks[0].replayed_points as f64),
            rs.len(),
        )
    } else {
        let rs = &s.traced_restarts;
        (
            median_by(rs, |(id, _)| {
                sum_ms(
                    tr.job_spans(*id)
                        .iter()
                        .filter(|s| s.name == "load_snapshot"),
                )
            }),
            median_by(rs, |(_, j)| ms(stats_of(j).replay_time)),
            median_by(rs, |(_, j)| stats_of(j).replayed_points as f64),
            rs.len(),
        )
    };
    let resume_ms = median_by(&s.lives, |l| {
        ms(l.stats.as_ref().map_or(Duration::ZERO, |c| c.load_time))
    });
    let launches = median_by(&s.lives, |l| l.launches as f64);
    let reshapes = median_by(&s.lives, |l| l.applied.len() as f64);

    // Network: per TCP job, summed over ranks.
    let tcp = &s.tcp_jobs;
    let wire_mb = median_by(tcp, |t| {
        t.ranks.iter().map(|r| r.wire_bytes).sum::<u64>() as f64 / MIB
    });
    let msgs = median_by(tcp, |t| t.ranks.iter().map(|r| r.msgs).sum::<u64>() as f64);
    let stream_mb = median_by(tcp, |t| {
        t.ranks.iter().skip(1).map(|r| r.ckpt_bytes).sum::<u64>() as f64 / MIB
    });
    let skipped = median_by(tcp, |t| {
        t.ranks.iter().map(|r| r.wire_chunks_skipped).sum::<u64>() as f64
    });
    let rank_save_ms = median_by(tcp, |t| {
        let r1 = &t.ranks[1];
        ms(r1.save_time) / r1.snapshots.max(1) as f64
    });
    let launch_overhead_ms = median_by(tcp, |t| {
        let slowest = t.ranks.iter().map(|r| r.elapsed).max().unwrap_or_default();
        ms(t.wall.saturating_sub(slowest))
    });

    // Kernel floors and the comparison.
    let seq_s = median(&s.seq_s);
    let (jgf_seq, smc_seq, sparse_seq) = match r.spec.workload {
        Workload::SorDense | Workload::SorTcp => (seq_s, 0.0, 0.0),
        Workload::SmcTask => (0.0, seq_s, 0.0),
        Workload::CkptSparse => (0.0, 0.0, seq_s),
    };
    let traced_job_s = median(&walls);
    let untraced_job_s = median(&s.job_s);
    let overhead = if r.is_tcp() {
        0.0
    } else {
        traced_job_s - untraced_job_s
    };
    let variant_job_s = median_by(&s.variants, |v| v.wall.as_secs_f64());
    let variant_save_ms = median_by(&s.variants, |v| {
        let c = stats_of(v);
        ms(c.save_time) / c.snapshots_taken.max(1) as f64
    });
    let variant_written = median_by(&s.variants, |v| stats_of(v).chunks_written as f64);

    let n_tcp = tcp.len();
    let n_live = s.lives.len();
    let n_var = s.variants.len();
    let (p50, p90) = (0.5, 0.9);
    let pct = |xs: &[f64], q: f64| percentile(xs, q);
    let spans_note =
        "no spans: the TCP job runs in rank processes, which report only public outcome types";
    let tcp_only = "no network on this workload";
    let mut metrics = vec![
        Metric::new("core.loop_ms", "ms", loop_ms, n_jobs),
        Metric::new(
            "core.point_us.p50",
            "us",
            pct(&point_self_us, p50),
            point_self_us.len(),
        ),
        Metric::new(
            "core.point_us.p90",
            "us",
            pct(&point_self_us, p90),
            point_self_us.len(),
        ),
        Metric::new(
            "core.barrier_us.p50",
            "us",
            pct(&barrier_us, p50),
            barrier_us.len(),
        ),
        Metric::new("core.crossings", "count", crossings, n_jobs),
        Metric::new("core.regions", "count", regions, n_jobs),
        Metric::new("core.self_ms", "ms", core_self, n_jobs),
        Metric::new("ckpt.save_ms.p50", "ms", pct(&save_ms, p50), save_ms.len()),
        Metric::new("ckpt.save_ms.p90", "ms", pct(&save_ms, p90), save_ms.len()),
        Metric::new("ckpt.saves", "count", saves, counters.len()),
        Metric::new("ckpt.save_mb", "MiB", save_mb, counters.len()),
        Metric::new("ckpt.commit_ms", "ms", commit_ms, n_jobs),
        Metric::new("ckpt.chunks_written", "count", written, counters.len()),
        Metric::new("ckpt.chunks_deduped", "count", deduped, counters.len()),
        Metric::new("ckpt.dedup_ratio", "ratio", dedup_ratio, counters.len()),
        Metric::new("ckpt.load_ms", "ms", load_ms, n_restarts),
        Metric::new("ckpt.replay_ms", "ms", replay_ms, n_restarts),
        Metric::new("ckpt.replayed_points", "count", replayed_points, n_restarts),
        Metric::new("ckpt.resume_ms", "ms", resume_ms, n_live),
        Metric::new("ckpt.self_ms", "ms", ckpt_self, n_jobs),
        Metric::new("task.region_ms", "ms", task_region, n_jobs),
        Metric::new("task.ckpt_share", "ratio", ckpt_share, counters.len()),
        Metric::new("task.self_ms", "ms", task_self, n_jobs),
        Metric::new("net.wire_mb", "MiB", wire_mb, n_tcp),
        Metric::new("net.msgs", "count", msgs, n_tcp),
        Metric::new("net.ckpt_stream_mb", "MiB", stream_mb, n_tcp),
        Metric::new("net.wire_chunks_skipped", "count", skipped, n_tcp),
        Metric::new("net.rank_save_ms", "ms", rank_save_ms, n_tcp),
        Metric::new("net.launch_overhead_ms", "ms", launch_overhead_ms, n_tcp),
        Metric::new("adapt.launches", "count", launches, n_live),
        Metric::new("adapt.reshapes", "count", reshapes, n_live),
        Metric::new("jgf.seq_s", "s", jgf_seq, s.seq_s.len()),
        Metric::new("smc.seq_s", "s", smc_seq, s.seq_s.len()),
        Metric::new("sparse.seq_s", "s", sparse_seq, s.seq_s.len()),
        Metric::new("trace.uncovered_share", "ratio", uncovered, n_jobs),
        Metric::new("trace.overhead_s", "s", overhead, n_jobs),
        Metric::new("cmp.variant_job_s", "s", variant_job_s, n_var),
        Metric::new("cmp.variant_save_ms", "ms", variant_save_ms, n_var),
        Metric::new(
            "cmp.variant_chunks_written",
            "count",
            variant_written,
            n_var,
        ),
    ];
    for m in &mut metrics {
        let q = if m.name.ends_with(".p90") {
            Some(0.9)
        } else {
            None
        };
        if let Some(q) = q {
            if !percentile_ok(m.samples, q) {
                m.note = Some("fewer than ten samples beyond p90: indicative only");
            }
        }
        let from_spans = m.name.starts_with("core.")
            || m.name.starts_with("trace.")
            || m.name.starts_with("task.") && m.name != "task.ckpt_share";
        if r.is_tcp() && from_spans {
            m.note = Some(spans_note);
        }
        if !r.is_tcp() && m.name.starts_with("net.") {
            m.note = Some(tcp_only);
        }
    }

    let untraced = Metric::new("untraced_job_s", "s", untraced_job_s, s.job_s.len());
    let traced = Metric::new("traced_job_s", "s", traced_job_s, walls.len());
    let reshapes_seen = s.lives.first().map_or("none".into(), |l| {
        l.applied
            .iter()
            .map(|(crossing, mode, kind)| {
                format!("{} at crossing {crossing} ({kind:?})", mode.tag())
            })
            .collect::<Vec<_>>()
            .join(", ")
    });
    let notes = vec![
        format!("live session reshapes: {reshapes_seen}"),
        format!("core self  {core_self:>10.2} ms/job"),
        format!("ckpt self  {ckpt_self:>10.2} ms/job"),
        format!("task self  {task_self:>10.2} ms/job"),
        format!(
            "uncovered  {:>10.2} ms/job ({:.1}% of traced job_s)",
            uncovered * traced_job_s * 1e3,
            uncovered * 100.0
        ),
        format!("tracing overhead {overhead:+.4} s (traced {traced_job_s:.4} s - untraced {untraced_job_s:.4} s)"),
    ];
    Report {
        metrics,
        extra: vec![untraced, traced],
        notes,
    }
}

/// The directory under which a run keeps its checkpoint directories.
pub fn work_dir(out: &Path, workload: Workload, seed: u64) -> PathBuf {
    out.join(format!(
        "work-{}-{seed}-{}",
        workload.name(),
        std::process::id()
    ))
}

/// Environment of the run, recorded with every result.
pub fn environment(out: &Path, sizes: &Sizes) -> Environment {
    Environment::capture(out, sizes.sor_n * sizes.sor_n * 8)
}
