//! The synthetic sparse-update kernel of the `ckpt-sparse` workload,
//! written once against the public `Ctx` API like any base program.
//!
//! It allocates one large `SharedVec<f64>` and, per step, rewrites one
//! contiguous window of a tenth of it in a work-shared loop, then crosses
//! a safe point. Compute is negligible, so a checkpointed run spends its
//! time in dirty-chunk tracking, chunk digests, object writes and
//! manifests. Each update reads the old value, so a restore that lost or
//! replayed a step changes the final digest.

use ppar_core::ctx::Ctx;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{DistCkptStrategy, Plan, Plug, PointSet, UpdateAction};
use ppar_core::schedule::Schedule;

/// Windows per pass over the vector: each step rewrites 1/10 of it.
const WINDOWS: usize = 10;

/// Parameters of one run of the kernel.
#[derive(Debug, Clone)]
pub struct SparseParams {
    /// Vector length in `f64` elements.
    pub len: usize,
    /// Steps (one window rewrite and one safe point each).
    pub steps: usize,
    /// Seed of the initial values and of every update.
    pub seed: u64,
    /// Crash during this step (1-based): its window is rewritten but its
    /// safe point is never reached, so the last checkpoint is one step
    /// behind the lost work.
    pub fail_in_step: Option<usize>,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit(x: u64) -> f64 {
    (mix(x) >> 11) as f64 / (1u64 << 53) as f64
}

fn init_value(seed: u64, i: usize) -> f64 {
    unit(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

fn update(old: f64, seed: u64, step: usize, i: usize) -> f64 {
    0.75 * old + unit(seed ^ ((step as u64) << 40) ^ i as u64)
}

/// The index range rewritten at `step`.
pub fn window(len: usize, step: usize) -> std::ops::Range<usize> {
    let w = step % WINDOWS;
    w * len / WINDOWS..(w + 1) * len / WINDOWS
}

/// Order-sensitive digest of the final values.
pub fn digest(values: impl Iterator<Item = f64>) -> u64 {
    values.fold(0xCBF2_9CE4_8422_2325u64, |acc, x| {
        (acc.rotate_left(5) ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Plain sequential reference on an owned vector.
pub fn sparse_seq(p: &SparseParams) -> u64 {
    let mut v: Vec<f64> = (0..p.len).map(|i| init_value(p.seed, i)).collect();
    for step in 0..p.steps {
        for i in window(p.len, step) {
            v[i] = update(v[i], p.seed, step, i);
        }
    }
    digest(v.into_iter())
}

/// The base program. Returns the digest of the final vector (meaningful
/// only on a completed run).
pub fn sparse_pluggable(ctx: &Ctx, p: &SparseParams) -> u64 {
    let v = ctx.alloc_vec("data", p.len, 0.0f64);
    {
        let (v, seed) = (v.clone(), p.seed);
        ctx.call("init_data", move |_| {
            v.copy_in_from_fn(|i| init_value(seed, i));
        });
    }
    {
        let (v, p) = (v.clone(), p.clone());
        ctx.region("sparse_run", move |ctx| {
            ctx.iter_loop("steps", 0..p.steps, |ctx, step| {
                let (v, seed, range) = (v.clone(), p.seed, window(p.len, step));
                ctx.call("rewrite", move |ctx| {
                    ctx.each("window", range.clone(), |_, i| {
                        v.set(i, update(v.get(i), seed, step, i));
                    });
                });
                if Some(step + 1) == p.fail_in_step {
                    return false;
                }
                ctx.point("step_end");
                true
            });
        });
    }
    if p.fail_in_step.is_none() {
        // Data-update point: the distributed plan gathers `data` here.
        ctx.point("collect");
    }
    digest((0..v.len()).map(|i| v.get(i)))
}

/// Shared-memory deployment: the step loop is a parallel method and each
/// window is work-shared block-wise.
pub fn plan_smp() -> Plan {
    Plan::new()
        .plug(Plug::ParallelMethod {
            method: "sparse_run".into(),
        })
        .plug(Plug::For {
            loop_name: "window".into(),
            schedule: Schedule::Block,
        })
}

/// Distributed deployment: `data` is block-partitioned, each element
/// rewrites the owned part of the window, the root collects at the end.
pub fn plan_dist() -> Plan {
    Plan::new()
        .plug(Plug::Field {
            field: "data".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::DistFor {
            loop_name: "window".into(),
            field: "data".into(),
        })
        .plug(Plug::UpdateAt {
            point: "collect".into(),
            field: "data".into(),
            action: UpdateAction::Gather,
        })
        .plug(Plug::DistCkpt {
            strategy: DistCkptStrategy::MasterCollect,
        })
}

/// Incremental checkpointing at every step, a full base every
/// `full_every` deltas.
pub fn plan_ckpt(every: usize, full_every: usize) -> Plan {
    Plan::new()
        .plug(Plug::SafeData {
            field: "data".into(),
        })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["step_end".into()]),
            every,
        })
        .plug(Plug::Ignorable {
            method: "rewrite".into(),
        })
        .plug(Plug::Ignorable {
            method: "init_data".into(),
        })
        .plug(Plug::IncrementalCkpt { full_every })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_core::ctx::run_sequential;
    use std::sync::Arc;

    #[test]
    fn windows_tile_the_vector() {
        let len = 1003;
        let total: usize = (0..WINDOWS).map(|s| window(len, s).len()).sum();
        assert_eq!(total, len);
        assert_eq!(window(len, 0).start, 0);
        assert_eq!(window(len, WINDOWS - 1).end, len);
    }

    #[test]
    fn unplugged_base_code_matches_reference() {
        let p = SparseParams {
            len: 5000,
            steps: 13,
            seed: 7,
            fail_in_step: None,
        };
        let q = p.clone();
        let got = run_sequential(Arc::new(Plan::new()), None, None, move |ctx| {
            sparse_pluggable(ctx, &q)
        });
        assert_eq!(got, sparse_seq(&p));
    }
}
