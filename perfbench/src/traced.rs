//! Delegating decorators that time calls into each measured layer from
//! outside: `core` (a [`PlacementPolicy`] wrapper), `array` (an
//! [`ArraySink`] wrapper) and the serve → `lss` boundary (a
//! [`ShardEngine`] wrapper over the concrete engine).
//!
//! Every trait method is forwarded, defaulted ones included: a wrapper
//! that fell back to a trait default (`on_sla_expire` → pad,
//! `read_chunk_at` → always succeed, `memory_bytes` → 0, ...) would
//! silently change the engine's behaviour or its reports. The test in
//! `main.rs` pins traced and untraced runs to identical metrics.

use crate::spans::{now_ns, span, span_ops, take, Kind, Recorder};
use adapt_array::{
    ArrayConfig, ArrayError, ArrayHealth, ArraySink, ArrayStats, ChunkFlush, ChunkLocation,
    ReadOutcome, RecoveredFlush, ScrubStep, SinkReconcile,
};
use adapt_lss::{
    EngineError, GroupId, GroupKind, HostOp, HostOpKind, Lba, Lss, PlacementPolicy, PolicyCtx,
    PolicyEvent, ReclaimInfo, SegmentMeta, SlaAction, TelemetrySnapshot, VictimMeta, WalStats,
};
use adapt_serve::shard::Probe;
use adapt_serve::ShardEngine;
use std::sync::{Arc, Mutex};

/// `core` decorator: spans every placement callback.
pub struct TracedPolicy<P>(pub P);

impl<P: PlacementPolicy> PlacementPolicy for TracedPolicy<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn groups(&self) -> &[GroupKind] {
        self.0.groups()
    }

    fn place_user(&mut self, ctx: &PolicyCtx, lba: Lba) -> GroupId {
        span(Kind::PlaceUser, || self.0.place_user(ctx, lba))
    }

    fn place_gc(&mut self, ctx: &PolicyCtx, lba: Lba, victim: &VictimMeta) -> GroupId {
        span(Kind::PlaceGc, || self.0.place_gc(ctx, lba, victim))
    }

    fn on_sla_expire(&mut self, ctx: &PolicyCtx, group: GroupId) -> SlaAction {
        span(Kind::SlaExpire, || self.0.on_sla_expire(ctx, group))
    }

    fn on_gc_block_migrated(&mut self, lba: Lba, from: GroupId, to: GroupId) {
        span(Kind::OnMigrated, || self.0.on_gc_block_migrated(lba, from, to))
    }

    fn on_segment_sealed(&mut self, ctx: &PolicyCtx, meta: &SegmentMeta) {
        span(Kind::OnSealed, || self.0.on_segment_sealed(ctx, meta))
    }

    fn on_segment_reclaimed(&mut self, ctx: &PolicyCtx, info: &ReclaimInfo) {
        span(Kind::OnReclaimed, || self.0.on_segment_reclaimed(ctx, info))
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }

    fn drain_events(&mut self, out: &mut Vec<PolicyEvent>) {
        self.0.drain_events(out)
    }
}

/// `array` decorator: spans chunk writes, reads, checkpoint syncs,
/// scrub steps and recovery reconciliation.
pub struct TracedSink<S>(pub S);

impl<S: ArraySink> ArraySink for TracedSink<S> {
    fn write_chunk(&mut self, flush: ChunkFlush) -> ChunkLocation {
        span(Kind::WriteChunk, || self.0.write_chunk(flush))
    }

    fn write_chunk_payload(&mut self, flush: ChunkFlush, payload: &[u8]) -> ChunkLocation {
        span(Kind::WriteChunk, || self.0.write_chunk_payload(flush, payload))
    }

    fn config(&self) -> &ArrayConfig {
        self.0.config()
    }

    fn stats(&self) -> &ArrayStats {
        self.0.stats()
    }

    fn health(&self) -> ArrayHealth {
        self.0.health()
    }

    fn read_chunk_at(&mut self, loc: ChunkLocation) -> Result<ReadOutcome, ArrayError> {
        span(Kind::ReadChunk, || self.0.read_chunk_at(loc))
    }

    fn scrub_step(&mut self, max_stripes: usize) -> Option<ScrubStep> {
        span(Kind::ArrayScrub, || self.0.scrub_step(max_stripes))
    }

    fn sync_for_checkpoint(&mut self) -> Result<(), ArrayError> {
        span(Kind::ArraySync, || self.0.sync_for_checkpoint())
    }

    fn recover_reconcile(
        &mut self,
        next_chunk_seq: u64,
        tail: &[RecoveredFlush],
    ) -> Result<SinkReconcile, ArrayError> {
        span(Kind::ArrayReconcile, || self.0.recover_reconcile(next_chunk_seq, tail))
    }
}

/// One engine `apply_ops` call as the shard issued it.
#[derive(Debug, Clone, Copy)]
pub struct ApplyRun {
    /// Span start, ns since the process epoch.
    pub start_ns: u64,
    /// Index (in applied order) of the run's first op.
    pub op_lo: u64,
    /// Ops the call applied.
    pub ops: u32,
}

/// What the shard-side decorator saw over the timed phase, handed back
/// when the shard thread drops its engine.
#[derive(Debug, Default)]
pub struct EngineTrace {
    /// The shard thread's spans (engine, core and array kinds).
    pub rec: Recorder,
    /// Every timed-phase `apply_ops` call, in order.
    pub runs: Vec<ApplyRun>,
    /// Per write: end of its apply call → end of the covering `sync`, ns.
    pub barrier_wait_ns: Vec<u64>,
    /// Engine calls during which the WAL completed a checkpoint, ns.
    pub checkpoint_stall_ns: Vec<u64>,
    /// WAL counters at the start and end of the timed phase.
    pub wal_start: WalStats,
    pub wal_end: WalStats,
    /// `Lss::gc_select_nanos()` at the end.
    pub gc_select_ns: u64,
    /// `Lss::memory_bytes()` at the end.
    pub memory_bytes: u64,
    /// Placement-policy resident bytes at the end.
    pub policy_bytes: u64,
}

/// Where a [`TracedEngine`] leaves its [`EngineTrace`] on drop.
pub type TraceSlot = Arc<Mutex<Option<EngineTrace>>>;

/// serve → `lss` decorator: a [`ShardEngine`] over the concrete engine
/// that spans every call the shard makes and derives queue, barrier and
/// checkpoint-stall timings from them.
pub struct TracedEngine<P: PlacementPolicy, S: ArraySink> {
    inner: Lss<P, S>,
    /// Ops applied so far (the shard's applied-op order).
    applied: u64,
    /// First op of the timed phase; everything before it is set-up.
    timed_from_op: u64,
    timed: bool,
    /// Apply-end times and write counts awaiting the next barrier.
    unsynced: Vec<(u64, u32)>,
    trace: EngineTrace,
    slot: TraceSlot,
}

impl<P: PlacementPolicy, S: ArraySink> TracedEngine<P, S> {
    /// Wrap `inner`; the trace restarts when op `timed_from_op` arrives
    /// and lands in `slot` when the engine is dropped.
    pub fn new(inner: Lss<P, S>, timed_from_op: u64, slot: TraceSlot) -> Self {
        Self {
            inner,
            applied: 0,
            timed_from_op,
            timed: false,
            unsynced: Vec::new(),
            trace: EngineTrace::default(),
            slot,
        }
    }

    fn checkpoints(&self) -> u64 {
        self.inner.wal_stats().map_or(0, |s| s.checkpoints)
    }

    /// Run one engine call inside a span, noting a checkpoint stall when
    /// the WAL's checkpoint count advanced across it.
    fn call<R>(&mut self, kind: Kind, ops: (u64, u64), f: impl FnOnce(&mut Lss<P, S>) -> R) -> R {
        let before = self.checkpoints();
        let inner = &mut self.inner;
        let (out, dur) = span_ops(kind, ops, || f(inner));
        if self.checkpoints() != before {
            self.trace.checkpoint_stall_ns.push(dur);
        }
        out
    }

    fn start_timed_phase(&mut self) {
        self.timed = true;
        take();
        self.trace = EngineTrace {
            wal_start: self.inner.wal_stats().unwrap_or_default(),
            ..EngineTrace::default()
        };
        self.unsynced.clear();
    }
}

impl<P, S> ShardEngine for TracedEngine<P, S>
where
    P: PlacementPolicy + Send,
    S: ArraySink + Send,
{
    fn apply_write(&mut self, ts_us: u64, lba: Lba, blocks: u32) -> Result<(), EngineError> {
        self.apply_ops(&[HostOp::write(ts_us, lba, blocks)]).map_err(|(_, e)| e)
    }

    fn apply_read(&mut self, ts_us: u64, lba: Lba, blocks: u32) -> Result<(), EngineError> {
        self.apply_ops(&[HostOp::read(ts_us, lba, blocks)]).map_err(|(_, e)| e)
    }

    fn apply_trim(&mut self, ts_us: u64, lba: Lba, blocks: u32) -> Result<(), EngineError> {
        self.apply_ops(&[HostOp::trim(ts_us, lba, blocks)]).map_err(|(_, e)| e)
    }

    fn apply_ops(&mut self, ops: &[HostOp]) -> Result<(), (usize, EngineError)> {
        if !self.timed && self.applied >= self.timed_from_op {
            self.start_timed_phase();
        }
        let lo = self.applied;
        let start_ns = now_ns();
        let r = self.call(Kind::EngineApply, (lo, lo + ops.len() as u64), |e| {
            ShardEngine::apply_ops(e, ops)
        });
        let end_ns = now_ns();
        // An op that failed still ticked the shard's op clock.
        let done = match &r {
            Ok(()) => ops.len(),
            Err((i, _)) => i + 1,
        };
        self.applied += done as u64;
        if self.timed {
            self.trace.runs.push(ApplyRun { start_ns, op_lo: lo, ops: done as u32 });
            let writes = ops[..done].iter().filter(|op| op.kind != HostOpKind::Read).count() as u32;
            if writes > 0 {
                self.unsynced.push((end_ns, writes));
            }
        }
        r
    }

    fn sync(&mut self) -> Result<(), EngineError> {
        let r = self.call(Kind::EngineSync, (self.applied, self.applied), ShardEngine::sync);
        let end_ns = now_ns();
        if r.is_ok() {
            for (applied_ns, writes) in self.unsynced.drain(..) {
                let wait = end_ns - applied_ns;
                self.trace.barrier_wait_ns.extend(std::iter::repeat_n(wait, writes as usize));
            }
        }
        r
    }

    fn flush_all(&mut self) -> Result<(), EngineError> {
        self.call(Kind::EngineFlushAll, (self.applied, self.applied), ShardEngine::flush_all)
    }

    fn gc_needed(&self) -> bool {
        ShardEngine::gc_needed(&self.inner)
    }

    fn gc_step(&mut self) -> Result<bool, EngineError> {
        self.call(Kind::EngineGcStep, (self.applied, self.applied), ShardEngine::gc_step)
    }

    fn probe(&self) -> Probe {
        ShardEngine::probe(&self.inner)
    }

    fn telemetry(&mut self) -> TelemetrySnapshot {
        ShardEngine::telemetry(&mut self.inner)
    }

    fn policy_memory_bytes(&self) -> u64 {
        ShardEngine::policy_memory_bytes(&self.inner)
    }

    fn engine_memory_bytes(&self) -> u64 {
        ShardEngine::engine_memory_bytes(&self.inner)
    }
}

impl<P: PlacementPolicy, S: ArraySink> Drop for TracedEngine<P, S> {
    /// Runs on the shard thread, so the thread-local spans are the
    /// engine's own.
    fn drop(&mut self) {
        let mut trace = std::mem::take(&mut self.trace);
        trace.rec = take();
        trace.wal_end = self.inner.wal_stats().unwrap_or_default();
        trace.gc_select_ns = self.inner.gc_select_nanos();
        trace.memory_bytes = self.inner.memory_bytes() as u64;
        trace.policy_bytes = self.inner.policy().memory_bytes() as u64;
        if let Ok(mut slot) = self.slot.lock() {
            *slot = Some(trace);
        }
    }
}
