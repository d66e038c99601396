//! The four workloads and the jobs they run through the public drivers.
//!
//! Every job starts from a fresh checkpoint directory, runs to a result,
//! and is compared bitwise with the sequential reference computed in
//! set-up. A job may be untraced (the public driver call itself) or
//! traced (the same session assembled from the same public pieces, with
//! the engine and the checkpoint module wrapped in timing decorators).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppar_adapt::netrun::{spawn_local_cluster, ClusterSpec, NetConfig};
use ppar_adapt::{
    launch, launch_live, run_net_rank, AdaptationController, AppStatus, Deploy, ReshapeKind,
    ResourceTimeline,
};
use ppar_ckpt::{CheckpointModule, CheckpointStore, CkptStats};
use ppar_core::ctx::{CkptHook, Ctx, Engine, RunShared};
use ppar_core::error::{PparError, Result};
use ppar_core::mode::ExecMode;
use ppar_core::plan::{DistCkptStrategy, Plan};
use ppar_core::state::Registry;
use ppar_dsm::SpmdConfig;
use ppar_jgf::sor::{pluggable as sor, sor_seq, SorParams};
use ppar_smc::{smc_pluggable, SmcConfig};
use ppar_smp::TeamEngine;
use ppar_task::TaskEngine;

use crate::sparse::{self, SparseParams};
use crate::trace::{TracedEngine, TracedHook, Tracer};

/// SOR checkpoints every this many iterations.
const SOR_EVERY: usize = 4;
/// `ckpt-sparse` promotes a full base after this many deltas.
const SPARSE_FULL_EVERY: usize = 8;
/// Team size of every job: no job uses more threads than the reference
/// box has cores.
const TEAM: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SorDense,
    CkptSparse,
    SmcTask,
    SorTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SorDense,
        Workload::CkptSparse,
        Workload::SmcTask,
        Workload::SorTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SorDense => "sor-dense",
            Workload::CkptSparse => "ckpt-sparse",
            Workload::SmcTask => "smc-task",
            Workload::SorTcp => "sor-tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes. The benchmark runs [`Sizes::bench`]; the tracing
/// identity test runs the same code paths on [`Sizes::small`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub sor_n: usize,
    pub sor_iters: usize,
    pub sparse_len: usize,
    pub sparse_steps: usize,
    pub smc_particles: usize,
    pub smc_steps: usize,
    pub smc_work: usize,
}

impl Sizes {
    /// 2048² SOR grid and a 2²² × f64 sparse vector: 32 MiB of state each.
    pub fn bench() -> Sizes {
        Sizes {
            sor_n: 2048,
            sor_iters: 20,
            sparse_len: 1 << 22,
            sparse_steps: 20,
            smc_particles: 8192,
            smc_steps: 24,
            smc_work: 400,
        }
    }

    pub fn small() -> Sizes {
        Sizes {
            sor_n: 96,
            sor_iters: 12,
            sparse_len: 40_000,
            sparse_steps: 12,
            smc_particles: 512,
            smc_steps: 8,
            smc_work: 4,
        }
    }
}

/// A job's result, reduced to the bits compared with the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// SOR checksum bits.
    Sor(u64),
    /// Digest of the sparse kernel's final vector.
    Sparse(u64),
    /// `SmcResult` fields: log-likelihood bits, steps, mean bits, checksum.
    Smc([u64; 4]),
}

/// What one job produced.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// Wall-clock from the driver call to the verified result.
    pub wall: Duration,
    pub answer: Answer,
    pub completed: bool,
    /// Did the launch replay a previous failure?
    pub replayed: bool,
    /// Rank-0 (or session) checkpoint statistics.
    pub stats: Option<CkptStats>,
    /// Bytes the checkpoint directory held when the job ended.
    pub disk_bytes: u64,
    /// Per-rank reports of a TCP job (empty for in-process jobs).
    pub ranks: Vec<RankReport>,
}

/// What one `launch_live` session produced.
#[derive(Debug, Clone)]
pub struct LiveRun {
    pub wall: Duration,
    pub answer: Answer,
    pub completed: bool,
    pub launches: usize,
    pub escalated: Vec<ExecMode>,
    pub applied: Vec<(u64, ExecMode, ReshapeKind)>,
    /// Final round's checkpoint statistics.
    pub stats: Option<CkptStats>,
}

/// One rank process's report of a TCP job.
#[derive(Debug, Clone, Default)]
pub struct RankReport {
    pub completed: bool,
    pub checksum_bits: u64,
    pub elapsed: Duration,
    pub msgs: u64,
    pub wire_bytes: u64,
    pub snapshots: u64,
    pub ckpt_bytes: u64,
    pub save_time: Duration,
    pub wire_chunks_skipped: u64,
    pub replayed: bool,
    pub replayed_points: u64,
    pub load_time: Duration,
    pub replay_time: Duration,
    pub vm_hwm_kib: u64,
}

/// The scripted reshapes of a live session.
pub struct LiveScript {
    pub initial: Deploy,
    pub plan: Plan,
    pub timeline: ResourceTimeline,
    /// Modes the session must reach by in-memory hand-off, in order.
    pub escalations: Vec<ExecMode>,
    /// Every reshape the controller must apply, in order.
    pub applied: Vec<(ExecMode, ReshapeKind)>,
}

/// A workload's problem, made from the seed.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub workload: Workload,
    pub sizes: Sizes,
    pub seed: u64,
}

fn sor_params(sizes: &Sizes, seed: u64, fail: Option<usize>) -> SorParams {
    let mut p = SorParams::new(sizes.sor_n, sizes.sor_iters);
    p.seed = seed;
    p.fail_after = fail;
    p
}

fn smc_config(sizes: &Sizes, seed: u64, fail: Option<usize>) -> SmcConfig {
    let mut c = SmcConfig::new(sizes.smc_particles, sizes.smc_steps);
    c.chunk = 32;
    c.work = sizes.smc_work;
    c.seed = seed;
    c.fail_after = fail;
    c
}

fn sparse_params(sizes: &Sizes, seed: u64, fail: Option<usize>) -> SparseParams {
    SparseParams {
        len: sizes.sparse_len,
        steps: sizes.sparse_steps,
        seed,
        fail_in_step: fail,
    }
}

fn smc_answer(r: &ppar_smc::SmcResult) -> Answer {
    Answer::Smc([
        r.loglik.to_bits(),
        r.steps_done as u64,
        r.mean.to_bits(),
        r.checksum,
    ])
}

fn status(fail: Option<usize>) -> AppStatus {
    if fail.is_some() {
        AppStatus::Crashed
    } else {
        AppStatus::Completed
    }
}

/// Bytes held by the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

impl Kernel {
    pub fn new(workload: Workload, sizes: Sizes, seed: u64) -> Kernel {
        Kernel {
            workload,
            sizes,
            seed,
        }
    }

    /// Iterations (SOR), steps (sparse, SMC) of one job.
    pub fn length(&self) -> usize {
        match self.workload {
            Workload::SorDense | Workload::SorTcp => self.sizes.sor_iters,
            Workload::CkptSparse => self.sizes.sparse_steps,
            Workload::SmcTask => self.sizes.smc_steps,
        }
    }

    /// The crash point of a restart cycle: 3/4 of the job. For SOR it
    /// falls between two checkpoints; the sparse kernel crashes inside
    /// the step after its last checkpoint; SMC dies right after the
    /// resampling checkpoint.
    pub fn crash_at(&self) -> usize {
        let at = self.length() * 3 / 4;
        match self.workload {
            Workload::SorDense | Workload::SorTcp if at.is_multiple_of(SOR_EVERY) => at - 1,
            _ => at,
        }
    }

    /// Plain sequential reference result.
    pub fn reference(&self) -> Answer {
        match self.workload {
            Workload::SorDense | Workload::SorTcp => Answer::Sor(
                sor_seq(&sor_params(&self.sizes, self.seed, None))
                    .checksum
                    .to_bits(),
            ),
            Workload::CkptSparse => Answer::Sparse(sparse::sparse_seq(&sparse_params(
                &self.sizes,
                self.seed,
                None,
            ))),
            Workload::SmcTask => {
                let c = smc_config(&self.sizes, self.seed, None);
                let r = ppar_core::ctx::run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
                    smc_pluggable(ctx, &c)
                });
                smc_answer(&r)
            }
        }
    }

    /// The job's deployment plan; `every` is the checkpoint period in safe
    /// points (0 counts safe points without saving).
    pub fn plan(&self, every: usize) -> Plan {
        match self.workload {
            Workload::SorDense => sor::plan_smp().merge(sor::plan_ckpt(every)),
            Workload::SorTcp => sor::plan_dist().merge(sor::plan_ckpt_with_strategy(
                every,
                DistCkptStrategy::LocalSnapshot,
            )),
            Workload::CkptSparse => {
                sparse::plan_smp().merge(sparse::plan_ckpt(every, SPARSE_FULL_EVERY))
            }
            Workload::SmcTask => ppar_smc::plan_task().merge(ppar_smc::plan_ckpt(every)),
        }
    }

    /// Checkpoint period of a checkpointed job.
    pub fn every(&self) -> usize {
        match self.workload {
            Workload::SorDense | Workload::SorTcp => SOR_EVERY,
            Workload::CkptSparse | Workload::SmcTask => 1,
        }
    }

    fn deploy(&self) -> Deploy {
        match self.workload {
            Workload::SmcTask => Deploy::Task {
                workers: TEAM,
                max_workers: TEAM,
            },
            _ => Deploy::Smp {
                threads: TEAM,
                max_threads: TEAM,
            },
        }
    }

    /// The base program, crashing at `fail` when set.
    pub fn app(&self, fail: Option<usize>) -> impl Fn(&Ctx) -> (AppStatus, Answer) + Sync {
        let (workload, sizes, seed) = (self.workload, self.sizes, self.seed);
        move |ctx: &Ctx| {
            let answer = match workload {
                Workload::SorDense | Workload::SorTcp => Answer::Sor(
                    sor::sor_pluggable(ctx, &sor_params(&sizes, seed, fail))
                        .checksum
                        .to_bits(),
                ),
                Workload::CkptSparse => Answer::Sparse(sparse::sparse_pluggable(
                    ctx,
                    &sparse_params(&sizes, seed, fail),
                )),
                Workload::SmcTask => {
                    smc_answer(&smc_pluggable(ctx, &smc_config(&sizes, seed, fail)))
                }
            };
            (status(fail), answer)
        }
    }

    /// Empty `dir` and open it in the workload's store layout:
    /// `ckpt-sparse` persists through the content-addressed layout (the
    /// checkpoint module detects it when it reopens the directory), every
    /// other workload through the default flat layout. `flat` forces the
    /// flat layout (the traced run's one-off comparison).
    pub fn fresh_dir(&self, dir: &Path, flat: bool) -> Result<()> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        if self.workload == Workload::CkptSparse && !flat {
            CheckpointStore::new_cas(dir)?;
        } else {
            std::fs::create_dir_all(dir)?;
        }
        Ok(())
    }

    /// One job through [`launch`]. `fail` crashes it; `every` overrides
    /// the checkpoint period.
    pub fn launch_job(&self, dir: &Path, fail: Option<usize>, every: usize) -> Result<JobRun> {
        let t0 = Instant::now();
        let out = launch(
            &self.deploy(),
            self.plan(every),
            Some(dir),
            None,
            self.app(fail),
        )?;
        let (completed, answer) = (out.completed(), out.results[0].1);
        let wall = t0.elapsed();
        Ok(JobRun {
            wall,
            answer,
            completed,
            replayed: out.replayed,
            stats: out.stats,
            disk_bytes: dir_bytes(dir),
            ranks: Vec::new(),
        })
    }

    /// The same session [`launch`] builds for a Seq/Smp/Task deployment,
    /// assembled here so the engine and the checkpoint module can be
    /// wrapped in timing decorators.
    pub fn traced_job(
        &self,
        dir: &Path,
        fail: Option<usize>,
        tracer: &Arc<Tracer>,
    ) -> Result<JobRun> {
        let app = self.app(fail);
        let t0 = Instant::now();
        let plan = Arc::new(self.plan(self.every()));
        let module = CheckpointModule::create(dir, &plan)?;
        let replayed = module.will_replay();
        let (engine, layer): (Arc<dyn Engine>, &'static str) = match self.deploy() {
            Deploy::Task {
                workers,
                max_workers,
            } => (TaskEngine::new(workers, max_workers), "task"),
            Deploy::Smp {
                threads,
                max_threads,
            } => (TeamEngine::new(threads, max_threads), "core"),
            other => {
                return Err(PparError::InvalidAdaptation(format!(
                    "traced jobs run on Smp or Task deployments, not {}",
                    other.tag()
                )))
            }
        };
        let shared = RunShared::new(
            plan,
            Arc::new(Registry::new()),
            TracedEngine::new(engine, tracer.clone(), layer),
            Some(TracedHook::new(
                module.clone() as Arc<dyn CkptHook>,
                tracer.clone(),
            )),
            None,
        );
        let ctx = Ctx::new_root(shared);
        let (status, answer) = tracer.span("job", "bench", 0, || app(&ctx));
        if status == AppStatus::Completed {
            ctx.finish();
        }
        let wall = t0.elapsed();
        Ok(JobRun {
            wall,
            answer,
            completed: status == AppStatus::Completed,
            replayed,
            stats: Some(module.stats()),
            disk_bytes: dir_bytes(dir),
            ranks: Vec::new(),
        })
    }

    /// The scripted reshapes of this workload's live session.
    pub fn live_script(&self) -> LiveScript {
        let n = self.length() as u64;
        let (first, second) = (n / 4, n / 2);
        match self.workload {
            // Grow in place, then move to a distributed aggregate by
            // in-memory hand-off.
            Workload::SorDense | Workload::CkptSparse => {
                let plan = match self.workload {
                    Workload::SorDense => sor::plan_hybrid().merge(sor::plan_ckpt(SOR_EVERY)),
                    _ => sparse::plan_dist()
                        .merge(sparse::plan_smp())
                        .merge(sparse::plan_ckpt(1, SPARSE_FULL_EVERY)),
                };
                LiveScript {
                    initial: Deploy::Smp {
                        threads: 1,
                        max_threads: TEAM,
                    },
                    plan,
                    timeline: ResourceTimeline::new()
                        .at(first, ExecMode::smp(TEAM))
                        .at(second, ExecMode::dist(TEAM)),
                    escalations: vec![ExecMode::dist(TEAM)],
                    applied: vec![
                        (ExecMode::smp(TEAM), ReshapeKind::InPlace),
                        (ExecMode::dist(TEAM), ReshapeKind::InPlace),
                    ],
                }
            }
            // A one-worker task team with no headroom grows by hand-off to
            // a fresh two-worker task team.
            Workload::SmcTask => LiveScript {
                initial: Deploy::Task {
                    workers: 1,
                    max_workers: 1,
                },
                plan: self.plan(1),
                timeline: ResourceTimeline::new().at(first, ExecMode::smp(TEAM)),
                escalations: vec![ExecMode::smp(TEAM)],
                applied: vec![(ExecMode::smp(TEAM), ReshapeKind::InPlace)],
            },
            // The TCP job's in-process twin: a simulated two-element
            // aggregate hands its state off to a thread team.
            Workload::SorTcp => LiveScript {
                initial: Deploy::Dist(SpmdConfig::instant(TEAM)),
                plan: sor::plan_hybrid().merge(sor::plan_ckpt(SOR_EVERY)),
                timeline: ResourceTimeline::new().at(second, ExecMode::smp(TEAM)),
                escalations: vec![ExecMode::smp(TEAM)],
                applied: vec![(ExecMode::smp(TEAM), ReshapeKind::InPlace)],
            },
        }
    }

    /// One [`launch_live`] session with the scripted reshapes.
    pub fn live_session(&self, dir: &Path) -> Result<LiveRun> {
        let script = self.live_script();
        let controller = AdaptationController::with_timeline(script.timeline);
        let t0 = Instant::now();
        let out = launch_live(
            &script.initial,
            script.plan,
            Some(dir),
            controller.clone(),
            self.app(None),
        )?;
        let (completed, answer) = (out.completed(), out.results[0].1);
        let wall = t0.elapsed();
        Ok(LiveRun {
            wall,
            answer,
            completed,
            launches: out.launches,
            escalated: out.reshapes.iter().map(|(m, _)| *m).collect(),
            applied: controller
                .applied()
                .iter()
                .map(|a| (a.crossing, a.mode, a.kind))
                .collect(),
            stats: out.stats,
        })
    }

    /// Did `run` follow `script` exactly?
    pub fn live_followed_script(&self, run: &LiveRun) -> bool {
        let script = self.live_script();
        let applied: Vec<(ExecMode, ReshapeKind)> =
            run.applied.iter().map(|(_, m, k)| (*m, *k)).collect();
        run.escalated == script.escalations
            && run.launches == script.escalations.len() + 1
            && applied == script.applied
    }
}

// ---------------------------------------------------------------------------
// sor-tcp: real rank processes over loopback
// ---------------------------------------------------------------------------

const ENV_JOB: &str = "PERFBENCH_TCP_JOB";
const ENV_CKPT: &str = "PERFBENCH_TCP_CKPT";
const ENV_OUT: &str = "PERFBENCH_TCP_OUT";
/// A TCP job that has not finished after this long counts as failed.
const TCP_DEADLINE: Duration = Duration::from_secs(60);

fn rank_file(out: &Path, rank: usize) -> PathBuf {
    out.with_extension(format!("rank{rank}"))
}

/// Peak resident set of this process (`VmHWM`), in KiB.
pub fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Entry point of a rank process (the benchmark binary relaunched by
/// [`spawn_local_cluster`]). Runs SOR on the TCP fabric and writes a
/// report for the parent.
pub fn rank_main(cfg: NetConfig) -> Result<()> {
    let var = |k: &str| {
        std::env::var(k).map_err(|_| PparError::Network(format!("rank process without {k}")))
    };
    let job: Vec<u64> = var(ENV_JOB)?
        .split(',')
        .map(|v| v.parse::<u64>())
        .collect::<std::result::Result<_, _>>()
        .map_err(|e| PparError::Network(format!("malformed {ENV_JOB}: {e}")))?;
    let [n, iters, seed, fail, every] = job[..] else {
        return Err(PparError::Network(format!("{ENV_JOB} needs 5 fields")));
    };
    let sizes = Sizes {
        sor_n: n as usize,
        sor_iters: iters as usize,
        ..Sizes::small()
    };
    let fail = (fail > 0).then_some(fail as usize);
    let kernel = Kernel::new(Workload::SorTcp, sizes, seed);
    let ckpt = PathBuf::from(var(ENV_CKPT)?);
    let out = PathBuf::from(var(ENV_OUT)?);
    let o = run_net_rank(
        &cfg,
        kernel.plan(every as usize),
        Some(&ckpt),
        kernel.app(fail),
    )?;
    let Answer::Sor(bits) = o.result else {
        unreachable!("sor-tcp runs SOR")
    };
    let s = o.stats.unwrap_or_default();
    let report = [
        ("completed", (o.status == AppStatus::Completed) as u64),
        ("checksum_bits", bits),
        ("elapsed_ns", o.elapsed.as_nanos() as u64),
        ("msgs", o.traffic.msgs()),
        ("wire_bytes", o.traffic.bytes()),
        ("snapshots", s.snapshots_taken),
        ("ckpt_bytes", s.bytes_written),
        ("save_ns", s.save_time.as_nanos() as u64),
        ("wire_chunks_skipped", s.wire_chunks_skipped),
        ("replayed", o.replayed as u64),
        ("replayed_points", s.replayed_points),
        ("load_ns", s.load_time.as_nanos() as u64),
        ("replay_ns", s.replay_time.as_nanos() as u64),
        ("vm_hwm_kib", vm_hwm_kib()),
    ]
    .iter()
    .map(|(k, v)| format!("{k}={v}\n"))
    .collect::<String>();
    std::fs::write(rank_file(&out, cfg.rank), report)?;
    Ok(())
}

fn read_rank_report(path: &Path, rank: usize) -> Result<RankReport> {
    let text = std::fs::read_to_string(path)?;
    let get = |key: &str| -> Result<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| PparError::Network(format!("rank {rank} report lacks {key}")))
    };
    let ns = |key: &str| get(key).map(Duration::from_nanos);
    Ok(RankReport {
        completed: get("completed")? == 1,
        checksum_bits: get("checksum_bits")?,
        elapsed: ns("elapsed_ns")?,
        msgs: get("msgs")?,
        wire_bytes: get("wire_bytes")?,
        snapshots: get("snapshots")?,
        ckpt_bytes: get("ckpt_bytes")?,
        save_time: ns("save_ns")?,
        wire_chunks_skipped: get("wire_chunks_skipped")?,
        replayed: get("replayed")? == 1,
        replayed_points: get("replayed_points")?,
        load_time: ns("load_ns")?,
        replay_time: ns("replay_ns")?,
        vm_hwm_kib: get("vm_hwm_kib")?,
    })
}

impl Kernel {
    /// One SOR job on `TEAM` real rank processes over loopback TCP, timed
    /// from the spawn to the parent's verified read of rank 0's result.
    pub fn tcp_job(&self, dir: &Path, fail: Option<usize>, every: usize) -> Result<JobRun> {
        let out = dir.with_extension("out");
        for rank in 0..TEAM {
            let _ = std::fs::remove_file(rank_file(&out, rank));
        }
        let job = [
            self.sizes.sor_n as u64,
            self.sizes.sor_iters as u64,
            self.seed,
            fail.unwrap_or(0) as u64,
            every as u64,
        ]
        .map(|v| v.to_string())
        .join(",");
        let spec = ClusterSpec::current_exe(TEAM, Vec::new())?
            .env(ENV_JOB, job)
            .env(ENV_CKPT, dir.to_string_lossy().to_string())
            .env(ENV_OUT, out.to_string_lossy().to_string());
        let t0 = Instant::now();
        let mut cluster = spawn_local_cluster(&spec)?;
        let statuses = cluster.wait_all(TCP_DEADLINE)?;
        if !statuses.iter().all(|s| s.is_some_and(|s| s.success())) {
            return Err(PparError::Network(format!(
                "rank processes failed: {statuses:?}"
            )));
        }
        let ranks = (0..TEAM)
            .map(|r| read_rank_report(&rank_file(&out, r), r))
            .collect::<Result<Vec<_>>>()?;
        let answer = Answer::Sor(ranks[0].checksum_bits);
        let wall = t0.elapsed();
        Ok(JobRun {
            wall,
            answer,
            completed: ranks.iter().all(|r| r.completed),
            replayed: ranks[0].replayed,
            stats: None,
            disk_bytes: dir_bytes(dir),
            ranks,
        })
    }
}
