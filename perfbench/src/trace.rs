//! In-memory spans around the calls into each layer, recorded from the
//! benchmark's own files: timing decorators of the public
//! [`Engine`] and [`CkptHook`] traits.
//!
//! A span is `(id, parent, job, name, layer, worker, start, end)`. The
//! parent is the innermost open span on the same thread, so a span's
//! children never overlap and its self time is its duration minus theirs.
//! Spans stay in memory until the run ends ([`Tracer::write_jsonl`]).

use std::cell::RefCell;
use std::io::Write as _;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ppar_core::ctx::{CkptHook, Ctx, Engine, PointDirective};
use ppar_core::error::Result;
use ppar_core::mode::ExecMode;
use ppar_core::plan::ReduceOp;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread (0 = none).
    pub parent: u64,
    pub job: u64,
    pub name: &'static str,
    /// `core`, `task`, `ckpt` or `bench`.
    pub layer: &'static str,
    /// Team worker of the calling line of execution.
    pub worker: usize,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end - self.start
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The span store of one benchmark run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    job: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Pops the thread's open-span stack even when the traced call unwinds.
struct OpenGuard;

impl Drop for OpenGuard {
    fn drop(&mut self) {
        OPEN.with(|s| s.borrow_mut().pop());
    }
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            job: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Tag the spans recorded from now on with `job`.
    pub fn set_job(&self, job: u64) {
        self.job.store(job, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        worker: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let guard = OpenGuard;
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        drop(guard);
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                job: self.job.load(Ordering::Relaxed),
                name,
                layer,
                worker,
                start,
                end,
            });
        out
    }

    /// The spans of `job`.
    pub fn job_spans(&self, job: u64) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .iter()
            .filter(|s| s.job == job)
            .cloned()
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking recorder");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"layer\":\"{}\",\"worker\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.job, s.name, s.layer, s.worker, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span in `spans`: duration minus its direct children.
pub fn self_times(spans: &[Span]) -> Vec<(usize, u64)> {
    let mut child_ns = std::collections::HashMap::<u64, u64>::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let nested = child_ns.get(&s.id).copied().unwrap_or(0);
            (i, s.dur_ns().saturating_sub(nested))
        })
        .collect()
}

/// Nanoseconds of `window` that no span in `spans` covers.
pub fn uncovered_ns(spans: &[Span], window: Range<u64>) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start.max(window.start), s.end.min(window.end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (window.end - window.start).saturating_sub(covered)
}

/// Timing decorator of an [`Engine`]. Every trait method is forwarded,
/// including the defaulted ones, so the wrapped engine behaves exactly as
/// it would undecorated.
pub struct TracedEngine {
    inner: Arc<dyn Engine>,
    tracer: Arc<Tracer>,
    /// Layer the engine's spans count towards: `task` for the task engine,
    /// `core` otherwise.
    layer: &'static str,
}

impl TracedEngine {
    pub fn new(
        inner: Arc<dyn Engine>,
        tracer: Arc<Tracer>,
        layer: &'static str,
    ) -> Arc<TracedEngine> {
        Arc::new(TracedEngine {
            inner,
            tracer,
            layer,
        })
    }
}

impl Engine for TracedEngine {
    fn mode(&self) -> ExecMode {
        self.inner.mode()
    }

    fn team_size(&self) -> usize {
        self.inner.team_size()
    }

    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nranks(&self) -> usize {
        self.inner.nranks()
    }

    fn call(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut(&Ctx)) {
        self.tracer.span("call", self.layer, ctx.worker(), || {
            self.inner.call(ctx, name, body)
        })
    }

    fn region(&self, ctx: &Ctx, name: &str, body: &(dyn Fn(&Ctx) + Sync)) {
        self.tracer.span("region", self.layer, ctx.worker(), || {
            self.inner.region(ctx, name, body)
        })
    }

    fn for_each(
        &self,
        ctx: &Ctx,
        name: &str,
        range: Range<usize>,
        body: &(dyn Fn(&Ctx, usize) + Sync),
    ) {
        self.tracer.span("for_each", self.layer, ctx.worker(), || {
            self.inner.for_each(ctx, name, range, body)
        })
    }

    fn point(&self, ctx: &Ctx, name: &str) {
        self.tracer.span("point", self.layer, ctx.worker(), || {
            self.inner.point(ctx, name)
        })
    }

    fn barrier(&self, ctx: &Ctx) {
        self.tracer.span("barrier", self.layer, ctx.worker(), || {
            self.inner.barrier(ctx)
        })
    }

    fn critical(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut()) {
        self.tracer.span("critical", self.layer, ctx.worker(), || {
            self.inner.critical(ctx, name, body)
        })
    }

    fn single(&self, ctx: &Ctx, name: &str, body: &mut dyn FnMut()) {
        self.tracer.span("single", self.layer, ctx.worker(), || {
            self.inner.single(ctx, name, body)
        })
    }

    fn master(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        self.tracer.span("master", self.layer, ctx.worker(), || {
            self.inner.master(ctx, body)
        })
    }

    fn reduce_f64(&self, ctx: &Ctx, name: &str, op: ReduceOp, value: f64) -> f64 {
        self.tracer.span("reduce", self.layer, ctx.worker(), || {
            self.inner.reduce_f64(ctx, name, op, value)
        })
    }

    fn finish(&self, ctx: &Ctx) {
        self.tracer.span("finish", self.layer, ctx.worker(), || {
            self.inner.finish(ctx)
        })
    }
}

/// Timing decorator of a [`CkptHook`]. Every trait method is forwarded,
/// including the defaulted ones: a default left in place would silently
/// replace the module's own behaviour. Only the calls that move state
/// (snapshot, load, hand-off, commit, finish) open spans; the per-point
/// bookkeeping calls are forwarded untimed.
pub struct TracedHook {
    inner: Arc<dyn CkptHook>,
    tracer: Arc<Tracer>,
}

impl TracedHook {
    pub fn new(inner: Arc<dyn CkptHook>, tracer: Arc<Tracer>) -> Arc<TracedHook> {
        Arc::new(TracedHook { inner, tracer })
    }
}

impl CkptHook for TracedHook {
    fn at_point(&self, ctx: &Ctx, name: &str) -> PointDirective {
        self.inner.at_point(ctx, name)
    }

    fn skip_method(&self, ctx: &Ctx, name: &str) -> bool {
        self.inner.skip_method(ctx, name)
    }

    fn replaying(&self) -> bool {
        self.inner.replaying()
    }

    fn take_snapshot(&self, ctx: &Ctx) -> Result<()> {
        self.tracer.span("take_snapshot", "ckpt", ctx.worker(), || {
            self.inner.take_snapshot(ctx)
        })
    }

    fn load_snapshot(&self, ctx: &Ctx) -> Result<()> {
        self.tracer.span("load_snapshot", "ckpt", ctx.worker(), || {
            self.inner.load_snapshot(ctx)
        })
    }

    fn sync_thread_clock(&self, count: u64) {
        self.inner.sync_thread_clock(count)
    }

    fn count(&self) -> u64 {
        self.inner.count()
    }

    fn note_load_extra(&self, extra: std::time::Duration) {
        self.inner.note_load_extra(extra)
    }

    fn note_loop_iter(&self, depth: usize, name: &str, start: u64, end: u64, index: u64) {
        self.inner.note_loop_iter(depth, name, start, end, index)
    }

    fn note_loop_exit(&self, depth: usize) {
        self.inner.note_loop_exit(depth)
    }

    fn loop_resume(&self, depth: usize, name: &str, start: u64, end: u64) -> Option<u64> {
        self.inner.loop_resume(depth, name, start, end)
    }

    fn live_loop_frame(&self, depth: usize, name: &str) -> Option<(u64, u64)> {
        self.inner.live_loop_frame(depth, name)
    }

    fn can_handoff(&self) -> bool {
        self.inner.can_handoff()
    }

    fn handoff_snapshot(&self, ctx: &Ctx) -> Result<()> {
        self.tracer
            .span("handoff_snapshot", "ckpt", ctx.worker(), || {
                self.inner.handoff_snapshot(ctx)
            })
    }

    fn tracks_dirty(&self) -> bool {
        self.inner.tracks_dirty()
    }

    fn next_snapshot_is_delta(&self) -> bool {
        self.inner.next_snapshot_is_delta()
    }

    fn note_peer_snapshot(&self, ctx: &Ctx) -> Result<()> {
        self.inner.note_peer_snapshot(ctx)
    }

    fn group_commit(&self, ctx: &Ctx) -> Result<()> {
        self.tracer.span("group_commit", "ckpt", ctx.worker(), || {
            self.inner.group_commit(ctx)
        })
    }

    fn finish(&self, ctx: &Ctx) -> Result<()> {
        self.tracer.span("ckpt_finish", "ckpt", ctx.worker(), || {
            self.inner.finish(ctx)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            job: 1,
            name: "s",
            layer: "core",
            worker: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 2, 20, 30)];
        let st: Vec<u64> = self_times(&spans).into_iter().map(|(_, t)| t).collect();
        assert_eq!(st, vec![70, 20, 10]);
    }

    #[test]
    fn uncovered_merges_overlapping_spans() {
        let spans = vec![span(1, 0, 10, 30), span(2, 0, 20, 50), span(3, 0, 70, 80)];
        assert_eq!(uncovered_ns(&spans, 0..100), 10 + 20 + 20);
    }
}
