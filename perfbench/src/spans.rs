//! In-memory span recorder for the traced run.
//!
//! One recorder per thread (a `thread_local!`), so the decorators in
//! [`crate::traced`] record without locks and nested calls on one
//! thread — engine call → policy callback, engine call → sink write —
//! form a parent/child stack on their own. Closing a span adds its
//! duration to its parent's child time, which yields self time (span
//! minus the part its children cover) without a second pass.
//!
//! Aggregates (count, total, self time per kind) are unbounded and
//! exact; raw spans are kept up to [`RAW_CAP`] so memory stays flat on
//! long runs, and are written out as CSV at the end of the run.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Raw spans kept per thread; later spans still feed the aggregates.
pub const RAW_CAP: usize = 1 << 18;

const NO_PARENT: u32 = u32::MAX;

/// What a span covers. Engine kinds are calls across the serve → lss
/// boundary (or the benchmark's own call into `Lss::apply_ops`); core
/// kinds wrap `PlacementPolicy` callbacks; array kinds wrap `ArraySink`
/// calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Start-up calibration span with an empty body.
    Empty,
    EngineApply,
    EngineSync,
    EngineGcStep,
    EngineFlushAll,
    PlaceUser,
    PlaceGc,
    SlaExpire,
    OnMigrated,
    OnSealed,
    OnReclaimed,
    WriteChunk,
    ReadChunk,
    ArraySync,
    ArrayScrub,
    ArrayReconcile,
}

impl Kind {
    const ALL: [Kind; 16] = [
        Kind::Empty,
        Kind::EngineApply,
        Kind::EngineSync,
        Kind::EngineGcStep,
        Kind::EngineFlushAll,
        Kind::PlaceUser,
        Kind::PlaceGc,
        Kind::SlaExpire,
        Kind::OnMigrated,
        Kind::OnSealed,
        Kind::OnReclaimed,
        Kind::WriteChunk,
        Kind::ReadChunk,
        Kind::ArraySync,
        Kind::ArrayScrub,
        Kind::ArrayReconcile,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::Empty => "empty",
            Kind::EngineApply => "lss.apply_ops",
            Kind::EngineSync => "lss.sync",
            Kind::EngineGcStep => "lss.gc_step",
            Kind::EngineFlushAll => "lss.flush_all",
            Kind::PlaceUser => "core.place_user",
            Kind::PlaceGc => "core.place_gc",
            Kind::SlaExpire => "core.on_sla_expire",
            Kind::OnMigrated => "core.on_gc_block_migrated",
            Kind::OnSealed => "core.on_segment_sealed",
            Kind::OnReclaimed => "core.on_segment_reclaimed",
            Kind::WriteChunk => "array.write_chunk",
            Kind::ReadChunk => "array.read_chunk_at",
            Kind::ArraySync => "array.sync_for_checkpoint",
            Kind::ArrayScrub => "array.scrub_step",
            Kind::ArrayReconcile => "array.recover_reconcile",
        }
    }

    /// Whether the span is a `PlacementPolicy` callback.
    pub fn is_core(self) -> bool {
        matches!(
            self,
            Kind::PlaceUser
                | Kind::PlaceGc
                | Kind::SlaExpire
                | Kind::OnMigrated
                | Kind::OnSealed
                | Kind::OnReclaimed
        )
    }
}

const KINDS: usize = Kind::ALL.len();

/// Per-kind totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean span duration in ns (0 when no span was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    kind: Kind,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    op_lo: u64,
    op_hi: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    raw: u32,
}

/// One thread's spans.
#[derive(Debug, Default)]
pub struct Recorder {
    stack: Vec<Open>,
    agg: [Agg; KINDS],
    raw: Vec<RawSpan>,
}

impl Recorder {
    /// Totals for `kind`.
    pub fn agg(&self, kind: Kind) -> Agg {
        self.agg[kind as usize]
    }

    /// Sum of the totals of every kind `pick` selects.
    pub fn sum(&self, pick: impl Fn(Kind) -> bool) -> Agg {
        Kind::ALL.iter().filter(|k| pick(**k)).fold(Agg::default(), |acc, k| {
            let a = self.agg(*k);
            Agg {
                count: acc.count + a.count,
                total_ns: acc.total_ns + a.total_ns,
                self_ns: acc.self_ns + a.self_ns,
            }
        })
    }

    /// Fold another thread's spans into this one (aggregates add, raw
    /// spans append up to the cap with parents re-based).
    pub fn absorb(&mut self, other: Recorder) {
        for (a, b) in self.agg.iter_mut().zip(other.agg) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
        let base = self.raw.len() as u32;
        let room = RAW_CAP.saturating_sub(self.raw.len());
        self.raw.extend(other.raw.into_iter().take(room).map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Write the raw spans as CSV: `id,kind,parent,start_ns,end_ns,op_lo,op_hi`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,kind,parent,start_ns,end_ns,op_lo,op_hi")?;
        for (i, s) in self.raw.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            writeln!(
                w,
                "{i},{},{parent},{},{},{},{}",
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                s.op_lo,
                s.op_hi
            )?;
        }
        w.flush()
    }

    fn enter(&mut self, kind: Kind, ops: (u64, u64)) {
        let start_ns = now_ns();
        let raw = if self.raw.len() < RAW_CAP {
            let parent = self.stack.last().map_or(NO_PARENT, |o| o.raw);
            self.raw.push(RawSpan {
                kind,
                parent,
                start_ns,
                end_ns: start_ns,
                op_lo: ops.0,
                op_hi: ops.1,
            });
            (self.raw.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open { kind, start_ns, child_ns: 0, raw });
    }

    fn exit(&mut self) -> u64 {
        let end_ns = now_ns();
        let open = self.stack.pop().expect("span exit without enter");
        let dur = end_ns - open.start_ns;
        let a = &mut self.agg[open.kind as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(s) = self.raw.get_mut(open.raw as usize) {
            s.end_ns = end_ns;
        }
        dur
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Nanoseconds since the process-wide epoch; comparable across threads.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` inside a span of `kind` on this thread's recorder.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    span_ops(kind, (0, 0), f).0
}

/// [`span`] for a call that covers the op range `ops`; also returns the
/// span's duration in ns.
#[inline]
pub fn span_ops<R>(kind: Kind, ops: (u64, u64), f: impl FnOnce() -> R) -> (R, u64) {
    REC.with(|r| r.borrow_mut().enter(kind, ops));
    let out = f();
    let dur = REC.with(|r| r.borrow_mut().exit());
    (out, dur)
}

/// Take this thread's recorder, leaving an empty one.
pub fn take() -> Recorder {
    REC.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// Cost of one empty span through the recorder, in ns: the median of
/// seven batches, each the mean over 20 000 spans. Leaves the thread's
/// recorder empty.
pub fn measure_floor_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let mut per_span: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                span(Kind::Empty, || std::hint::black_box(()));
            }
            let ns = t0.elapsed().as_nanos() as f64 / BATCH as f64;
            take();
            ns
        })
        .collect();
    crate::stats::median(&mut per_span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        take();
        span(Kind::EngineApply, || {
            span(Kind::PlaceUser, || std::thread::sleep(std::time::Duration::from_millis(2)));
            span(Kind::WriteChunk, || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let r = take();
        let apply = r.agg(Kind::EngineApply);
        let children = r.agg(Kind::PlaceUser).total_ns + r.agg(Kind::WriteChunk).total_ns;
        assert_eq!(apply.count, 1);
        assert_eq!(apply.self_ns, apply.total_ns - children);
        assert_eq!(r.raw[1].parent, 0);
        assert_eq!(r.raw[2].parent, 0);
        assert_eq!(r.raw[0].parent, NO_PARENT);
    }
}
