//! The log-structured engine: write path, chunk coalescing with SLA
//! padding, shadow/lazy append mechanics, and the GC driver.
//!
//! # Write path
//!
//! Each host block write (1) retires the block's previous version —
//! decrementing a segment's valid count, or dropping a still-buffered
//! pending copy — then (2) asks the placement policy for a destination
//! group and (3) appends the block to that group's open-chunk buffer. A
//! buffer flushes to the array when it reaches chunk size, or when its SLA
//! deadline passes, in which case the policy chooses between zero padding
//! (baselines) and cross-group shadow append (ADAPT §3.3).
//!
//! # Shadow / lazy append
//!
//! `ShadowAppend { target }` persists the home group's still-unpersisted
//! pending blocks as *substitute* slots inside the target group's next
//! chunk, flushing that chunk immediately (padded only if the combination
//! still falls short). The home blocks stay buffered — their index entries
//! point at the shadow slots for durability — and when the home chunk
//! finally fills, the normal flush *(lazy append)* supersedes the shadows,
//! which become garbage in the target's segment.
//!
//! # GC
//!
//! When the free-segment pool drops to the low watermark, the engine
//! repeatedly selects a sealed victim ([`GcSelection`]), migrates its live
//! blocks through `PlacementPolicy::place_gc` (these appends carry no SLA
//! timer — bulk traffic, per the paper's Observation 2), reclaims the
//! victim, and stops at the high watermark. Victim reclaim is atomic in
//! simulated time.

use crate::config::LssConfig;
use crate::error::EngineError;
use crate::events::{EventKind, EventRecorder, GaugeSample, PolicyEvent};
use crate::gc_buckets::SegmentBuckets;
use crate::gc_variants::VictimPolicy;
use crate::group::{Group, PendingBlock};
use crate::index::{BlockEntry, BlockIndex};
use crate::metrics::{GroupTraffic, LssMetrics};
use crate::placement::{
    PlacementPolicy, PolicyCtx, ReclaimInfo, SegmentMeta, SlaAction, VictimMeta,
};
use crate::recovery::{
    self, DurableState, EntrySnap, GeometrySnap, GroupSnap, PendingSnap, RecoveryError,
    RecoveryReport, SegmentSnap,
};
use crate::segment::{Segment, SegmentState};
use crate::telemetry::TelemetrySnapshot;
use crate::types::{GroupId, HostOp, HostOpKind, Lba, SegmentId, Slot};
use crate::wal::{
    self, DurabilityConfig, Wal, WalError, WalRecord, WalSlot, WalSlotKind, WalStats,
};
use adapt_array::{
    ArrayHealth, ArraySink, ChunkFlush, Raid5Layout, ReadMode, RecoveredFlush, ScrubStep, Traffic,
};
use std::path::{Path, PathBuf};

/// Durability machinery attached to an engine: the WAL, the checkpoint
/// directory, and the per-LBA durable-version map the power-loss sweep
/// verifies against. Boxed behind an `Option` so engines without a
/// durable backend pay one pointer of state and one branch per hook.
pub(crate) struct Durability {
    wal: Wal,
    dir: PathBuf,
    /// Chunk flushes since the last checkpoint (drives the cadence).
    flushes_since_checkpoint: u64,
    /// Version (arrival µs) of the newest WAL-appended user write per
    /// LBA. Snapshot-serialized and replay-rebuilt, so after recovery it
    /// reflects exactly the durable prefix.
    versions: crate::index::VersionIndex,
    /// Scratch for per-flush WAL slot lists.
    wal_slot_buf: Vec<WalSlot>,
}

/// An overlapped-GC victim mid-collection: detached from the bucket
/// index and its owner's sealed list (`GcBegin` already logged), with
/// its written slots snapshotted. Liveness is re-checked against the
/// block index at migration time, so foreground overwrites that land
/// between pump slices simply shrink the remaining work.
struct StagedGc {
    /// Victim identity, frozen at stage time (what the policy's
    /// `place_gc` sees for every block of this victim).
    vm: VictimMeta,
    /// Snapshot of the victim's written slots (owns the engine's GC
    /// scratch buffer while staged).
    slots: Vec<(u32, Slot)>,
    /// Next slot to examine.
    cursor: usize,
    /// Blocks migrated so far.
    migrated: u32,
}

/// Blocks migrated per host write while a victim is staged. A slice is
/// deliberately a fraction of a chunk: the point of overlapping is to
/// spread a collection's latency over many foreground ops instead of
/// concentrating a whole segment's migration on one.
const GC_PUMP_BLOCKS: u32 = 8;

/// Whether `ADAPT_GC_SYNC` forces the synchronous (legacy, bit-exact)
/// GC path regardless of [`LssConfig::gc_overlap`]. Read once; set it
/// before the first engine op. `0` and the empty string mean "not
/// forced".
fn gc_sync_forced() -> bool {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("ADAPT_GC_SYNC").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

/// Map a sink fault hit during checkpointing onto the WAL error space
/// (a checkpoint is a durability operation; its callers think in
/// [`WalError`] terms).
fn array_to_wal(e: adapt_array::ArrayError) -> WalError {
    match e {
        adapt_array::ArrayError::Storage { failure: adapt_array::StorageFailure::PowerLoss } => {
            WalError::PowerLoss
        }
        other => WalError::Io(other.to_string()),
    }
}

/// The log-structured storage engine. Generic over the placement policy
/// (static dispatch: the policy decision sits on the per-block hot path)
/// and the array sink beneath it.
pub struct Lss<P: PlacementPolicy, S: ArraySink> {
    cfg: LssConfig,
    gc_select: VictimPolicy,
    policy: P,
    sink: S,
    segments: Vec<Segment>,
    free: Vec<SegmentId>,
    groups: Vec<Group>,
    index: BlockIndex,
    metrics: LssMetrics,
    /// Simulated wall clock (µs).
    now_us: u64,
    /// Monotonic byte clock: total host bytes ever written (never reset).
    user_bytes_clock: u64,
    /// Scratch context handed to policy callbacks.
    ctx: PolicyCtx,
    /// Re-entrancy guard: segment allocation during GC must not start a
    /// nested GC pass.
    in_gc: bool,
    /// Monotonic counter stamped onto segments at open time (recovery
    /// ordering).
    next_open_seq: u64,
    /// Monotonic counter stamped onto every flushed chunk (the recovery
    /// journal's ordering key).
    next_flush_seq: u64,
    /// Scratch for victim slot scans (avoids per-pass allocation).
    gc_scratch: Vec<(u32, Slot)>,
    /// Pool of drained pending-block buffers for [`Lss::flush_chunk`]. A
    /// stack, not a single slot: flushes recurse (alloc → GC → append →
    /// flush), so an inner flush must be able to grab its own buffer while
    /// the outer one is still live.
    pending_pool: Vec<Vec<PendingBlock>>,
    /// Scratch for shadow-append LBA lists (avoids per-expiry allocation).
    shadow_scratch: Vec<Lba>,
    /// Scratch for per-read chunk gathering (avoids per-read allocation).
    read_scratch: Vec<(SegmentId, u32)>,
    /// In-flight overlapped-GC victim, if any (see
    /// [`LssConfig::gc_overlap`]). At most one victim is staged at a
    /// time; its live blocks drain in bounded slices piggybacked on host
    /// writes, with forced full drains before checkpoints, emergency GC,
    /// and `gc_step`.
    staged_gc: Option<StagedGc>,
    /// Scratch for a flush's deferred index remaps. The whole chunk's
    /// `(lba → location)` updates are collected here and applied in one
    /// [`BlockIndex::apply_batch`] call, pairing with the single WAL
    /// `Flush` record that covers the batch. Safe to defer because the
    /// drained LBAs are distinct and the shadow LBAs live in a different
    /// group, so no in-flush `index.get` can observe a deferred write.
    remap_scratch: Vec<(Lba, BlockEntry)>,
    /// Host block operations processed (writes, reads, trims) — the op
    /// clock that time-to-rebuild is measured on.
    ops_seen: u64,
    /// Sink health observed at the previous host op (transition detector
    /// for rebuild metrics).
    last_health: ArrayHealth,
    /// Op-clock value when the current rebuild was first observed.
    rebuild_start_op: Option<u64>,
    /// Real (host) nanoseconds spent inside GC victim selection — the
    /// perf harness's "selection time share" probe. Not part of
    /// [`LssMetrics`]: wall-clock is non-deterministic and metrics are
    /// compared bit-for-bit across runs.
    gc_select_ns: u64,
    /// Utilization-bucketed index over sealed segments, maintained
    /// incrementally on every invalidate/seal/reclaim. Serves Greedy and
    /// Cost-Benefit victim selection (and the utilization statistics)
    /// without scanning the segment table.
    buckets: SegmentBuckets,
    /// Structured event stream. Disabled by default; every
    /// instrumentation site is behind one branch on
    /// [`EventRecorder::enabled`], so the disabled hot path is unchanged.
    events: EventRecorder,
    /// Scratch for draining policy-side events (avoids per-op allocation).
    policy_event_buf: Vec<PolicyEvent>,
    /// Durable backend (WAL + checkpoints); `None` for in-memory engines.
    dur: Option<Box<Durability>>,
    /// Cached earliest SLA deadline across all groups, `(deadline, gid)`
    /// with the same lexicographic tie-break as a full scan. Valid only
    /// when `sla_dirty` is false; every mutation of any group's
    /// `pending_since_us` marks it dirty, so [`Lss::try_advance_time`] —
    /// which runs on *every* host op — rescans the groups only after a
    /// deadline actually moved instead of once per op.
    sla_next: Option<(u64, GroupId)>,
    /// Whether `sla_next` must be recomputed before use.
    sla_dirty: bool,
    /// Per-group staleness flags for the `ctx.groups` snapshots.
    /// [`Lss::refresh_ctx`] runs before every policy callback — including
    /// once per host write — but typically only one or two groups mutated
    /// since the previous refresh, so rebuilding every snapshot is wasted
    /// work. Every group mutation that a [`GroupSnapshot`] field derives
    /// from marks its flag; refresh re-snapshots only flagged groups.
    /// Debug builds re-derive every snapshot on each refresh and assert
    /// equality, so a missed mark fails loudly across the test suite.
    ctx_dirty: Vec<bool>,
    /// Coarse override: re-snapshot every group on the next refresh
    /// (wholesale rebuilds during recovery/replay).
    ctx_dirty_all: bool,
    /// Per-stage cost attribution, allocated when
    /// [`LssConfig::stage_costs`] is set. `None` keeps the hot path on the
    /// unprofiled branch (one `is_some` test per write).
    stage: Option<Box<crate::metrics::StageCosts>>,
}

impl<P: PlacementPolicy, S: ArraySink> Lss<P, S> {
    /// Start a fluent [`EngineBuilder`](crate::EngineBuilder) from the two
    /// required parts: the placement policy and the array sink. Everything
    /// else (config, GC selection, event capture) has named setters with
    /// sensible defaults.
    pub fn builder(policy: P, sink: S) -> crate::EngineBuilder<P, S> {
        crate::EngineBuilder::new(policy, sink)
    }

    /// Build an engine with any [`VictimPolicy`] and events disabled.
    /// Prefer [`Lss::builder`] with
    /// [`victim_policy`](crate::EngineBuilder::victim_policy).
    pub fn with_victim_policy(cfg: LssConfig, gc_select: VictimPolicy, policy: P, sink: S) -> Self {
        Self::with_recorder(cfg, gc_select, policy, sink, EventRecorder::disabled())
    }

    /// Build an engine around a pre-configured event recorder (the
    /// builder's terminal step).
    pub(crate) fn with_recorder(
        cfg: LssConfig,
        gc_select: VictimPolicy,
        policy: P,
        sink: S,
        events: EventRecorder,
    ) -> Self {
        let num_groups = policy.groups().len();
        cfg.validate(num_groups);
        assert!(num_groups > 0 && num_groups <= u8::MAX as usize);
        assert_eq!(
            sink.config().chunk_bytes,
            cfg.chunk_bytes(),
            "array chunk size must match engine chunk size"
        );
        let total = cfg.total_segments();
        let segments: Vec<Segment> =
            (0..total).map(|id| Segment::new(id, cfg.segment_blocks())).collect();
        // Pop order: highest id first; ids are arbitrary.
        let free: Vec<SegmentId> = (0..total).rev().collect();
        let groups: Vec<Group> = policy
            .groups()
            .iter()
            .enumerate()
            .map(|(i, &kind)| Group::new(i as GroupId, kind))
            .collect();
        let index = BlockIndex::with_capacity(cfg.user_blocks);
        let ctx = PolicyCtx {
            segment_blocks: cfg.segment_blocks(),
            block_bytes: cfg.block_bytes,
            groups: vec![Default::default(); num_groups],
            events_enabled: events.enabled(),
            ..Default::default()
        };
        // Open segments are allocated lazily at each group's first flush:
        // idle groups (e.g. GC classes a workload never populates) must not
        // pin capacity.
        Self {
            cfg,
            gc_select,
            policy,
            sink,
            segments,
            free,
            groups,
            index,
            metrics: LssMetrics::default(),
            now_us: 0,
            user_bytes_clock: 0,
            ctx,
            in_gc: false,
            next_open_seq: 0,
            next_flush_seq: 0,
            gc_scratch: Vec::new(),
            pending_pool: Vec::new(),
            shadow_scratch: Vec::new(),
            read_scratch: Vec::new(),
            staged_gc: None,
            remap_scratch: Vec::new(),
            ops_seen: 0,
            last_health: ArrayHealth::Healthy,
            rebuild_start_op: None,
            gc_select_ns: 0,
            buckets: SegmentBuckets::new(cfg.segment_blocks(), total as usize),
            events,
            policy_event_buf: Vec::new(),
            dur: None,
            sla_next: None,
            sla_dirty: true,
            ctx_dirty: vec![true; num_groups],
            ctx_dirty_all: true,
            stage: cfg.stage_costs.then(Box::default),
        }
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Process one host block write at time `ts_us`.
    ///
    /// # Panics
    ///
    /// On any [`EngineError`]; use [`Lss::try_write`] to handle faults.
    pub fn write(&mut self, ts_us: u64, lba: Lba) {
        self.try_write(ts_us, lba).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible variant of [`Lss::write`]: reports index corruption and
    /// free-pool exhaustion as typed errors instead of panicking.
    pub fn try_write(&mut self, ts_us: u64, lba: Lba) -> Result<(), EngineError> {
        if self.stage.is_some() {
            return self.try_write_profiled(ts_us, lba);
        }
        self.try_advance_time(ts_us)?;
        self.note_host_op();
        // Overlapped GC: migrate a bounded slice of the staged victim
        // before the write proceeds, so collection interleaves with the
        // foreground stream instead of stalling one op for a whole
        // segment.
        self.gc_overlap_tick()?;
        self.metrics.host_write_bytes += self.cfg.block_bytes;
        self.user_bytes_clock += self.cfg.block_bytes;

        // Skip the transient `Absent` store: `append_pending` below
        // unconditionally overwrites the entry, and nothing reads the
        // index in between (`place_user` sees only the context snapshot).
        self.retire_entry(lba, false)?;

        self.refresh_ctx();
        let g = self.policy.place_user(&self.ctx, lba);
        debug_assert!((g as usize) < self.groups.len(), "policy returned bad group");
        self.ctx_dirty[g as usize] = true;
        self.groups[g as usize].note_arrival(self.now_us);
        self.append_pending(
            g,
            PendingBlock { lba, traffic: Traffic::User, arrival_us: self.now_us, needs_sla: true },
        )?;
        self.wal_commit()
    }

    /// [`Lss::try_write`] with per-stage wall-clock attribution: the same
    /// calls in the same order (engine state evolves bit-identically —
    /// timing is write-only, it never feeds a decision), with an
    /// `Instant` read between stages. Out of line so the unprofiled hot
    /// path pays only the `stage.is_some()` branch. An error mid-write
    /// abandons that op's attribution — acceptable for a profiler, and
    /// the deterministic error behavior is untouched.
    #[cold]
    fn try_write_profiled(&mut self, ts_us: u64, lba: Lba) -> Result<(), EngineError> {
        use std::time::Instant;
        let t0 = Instant::now();
        self.try_advance_time(ts_us)?;
        let t1 = Instant::now();
        self.note_host_op();
        let t2 = Instant::now();
        self.gc_overlap_tick()?;
        let t3 = Instant::now();
        self.metrics.host_write_bytes += self.cfg.block_bytes;
        self.user_bytes_clock += self.cfg.block_bytes;
        self.retire_entry(lba, false)?;
        let t4 = Instant::now();
        self.refresh_ctx();
        let t5 = Instant::now();
        let g = self.policy.place_user(&self.ctx, lba);
        let t6 = Instant::now();
        debug_assert!((g as usize) < self.groups.len(), "policy returned bad group");
        self.ctx_dirty[g as usize] = true;
        self.groups[g as usize].note_arrival(self.now_us);
        self.append_pending(
            g,
            PendingBlock { lba, traffic: Traffic::User, arrival_us: self.now_us, needs_sla: true },
        )?;
        let t7 = Instant::now();
        let result = self.wal_commit();
        let t8 = Instant::now();
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        let st = self.stage.as_mut().expect("profiled path requires stage accumulator");
        st.ops += 1;
        st.clock_ns += ns(t0, t1);
        st.telemetry_ns += ns(t1, t2);
        st.gc_ns += ns(t2, t3);
        st.index_ns += ns(t3, t4);
        st.placement_ns += ns(t4, t5);
        st.policy_ns += ns(t5, t6);
        st.parity_ns += ns(t6, t7);
        st.wal_ns += ns(t7, t8);
        result
    }

    /// Per-stage cost attribution accumulated so far, when
    /// [`LssConfig::stage_costs`] is on. `None` when attribution is
    /// disabled.
    pub fn stage_costs(&self) -> Option<&crate::metrics::StageCosts> {
        self.stage.as_deref()
    }

    /// Zero the stage-cost accumulator (start of a measurement window),
    /// mirroring [`Lss::reset_metrics`]. No-op when attribution is off.
    pub fn reset_stage_costs(&mut self) {
        if let Some(st) = self.stage.as_deref_mut() {
            *st = Default::default();
        }
    }

    /// Process a multi-block host write request.
    ///
    /// # Panics
    ///
    /// On any [`EngineError`]; use [`Lss::try_write_request`].
    pub fn write_request(&mut self, ts_us: u64, lba: Lba, num_blocks: u32) {
        self.try_write_request(ts_us, lba, num_blocks).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible variant of [`Lss::write_request`].
    pub fn try_write_request(
        &mut self,
        ts_us: u64,
        lba: Lba,
        num_blocks: u32,
    ) -> Result<(), EngineError> {
        for i in 0..num_blocks as u64 {
            self.try_write(ts_us, lba + i)?;
        }
        Ok(())
    }

    /// Apply a batch of host operations in order.
    ///
    /// # Panics
    ///
    /// On any [`EngineError`]; use [`Lss::try_apply_ops`].
    pub fn apply_ops(&mut self, ops: &[HostOp]) {
        self.try_apply_ops(ops).unwrap_or_else(|(i, e)| panic!("op {i}: {e}"));
    }

    /// Fallible batched entry point: apply `ops` in order, stopping at the
    /// first failure, which is reported with the index of the op that hit
    /// it so the embedder can complete that op's ticket and resume the
    /// remainder with a fresh call.
    ///
    /// # Determinism contract
    ///
    /// The batch is *defined* as the op-at-a-time loop: every op runs the
    /// identical per-op sequence — including its own WAL group commit, so
    /// acknowledgement and checkpoint cadence cannot shift with batch
    /// size — and engine state, metrics, and the durable log are
    /// bit-identical at every batch boundary for **any** partitioning of
    /// the same op stream (proptest-pinned). What batching buys is
    /// everything *around* the engine: the serve drain loop amortizes its
    /// per-op telemetry probes, ticket completion, and queue round-trips
    /// over the whole slice, and callers hand the engine one contiguous
    /// run instead of `n` virtual-call round-trips.
    pub fn try_apply_ops(&mut self, ops: &[HostOp]) -> Result<(), (usize, EngineError)> {
        for (i, op) in ops.iter().enumerate() {
            let r = match op.kind {
                HostOpKind::Write => {
                    if op.blocks == 1 {
                        self.try_write(op.ts_us, op.lba)
                    } else {
                        self.try_write_request(op.ts_us, op.lba, op.blocks)
                    }
                }
                HostOpKind::Read => self.try_read_request(op.ts_us, op.lba, op.blocks),
                HostOpKind::Trim => self.try_trim(op.ts_us, op.lba, op.blocks),
            };
            r.map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// Process a host read. The array serves whole chunks (§2.2), so the
    /// fetch cost is the number of *distinct chunks* the live copies span;
    /// blocks still pending in an open-chunk buffer are served from RAM.
    /// Unwritten blocks read as zeroes (no array traffic).
    ///
    /// # Panics
    ///
    /// On any [`EngineError`] — e.g. an unreconstructable chunk on a
    /// faulted array; use [`Lss::try_read_request`] to handle faults.
    pub fn read_request(&mut self, ts_us: u64, lba: Lba, num_blocks: u32) {
        self.try_read_request(ts_us, lba, num_blocks).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible variant of [`Lss::read_request`]. Each chunk fetch is
    /// routed through the sink's fault model: reads of chunks on a failed
    /// device are served via parity reconstruction (accounted in
    /// [`LssMetrics::degraded_reads`]), transient errors are retried up to
    /// [`LssConfig::read_retry_limit`] times with exponential backoff, and
    /// persistent faults (double fault, unreconstructable stripe) surface
    /// as [`EngineError::Array`].
    pub fn try_read_request(
        &mut self,
        ts_us: u64,
        lba: Lba,
        num_blocks: u32,
    ) -> Result<(), EngineError> {
        self.try_advance_time(ts_us)?;
        self.note_host_op();
        self.metrics.host_read_bytes += num_blocks as u64 * self.cfg.block_bytes;
        // Distinct (segment, chunk-index) pairs touched by this request.
        let mut chunks = std::mem::take(&mut self.read_scratch);
        chunks.clear();
        for i in 0..num_blocks as u64 {
            match self.index.get(lba + i) {
                BlockEntry::Durable { seg, off } => {
                    chunks.push((seg, off / self.cfg.chunk_blocks));
                }
                BlockEntry::Pending { shadow: Some((seg, off)), .. } => {
                    // Durable copy is the shadow; reading hits its chunk.
                    chunks.push((seg, off / self.cfg.chunk_blocks));
                }
                BlockEntry::Pending { shadow: None, .. } => {
                    self.metrics.buffer_read_blocks += 1;
                }
                BlockEntry::Absent => {}
            }
        }
        chunks.sort_unstable();
        chunks.dedup();
        for i in 0..chunks.len() {
            let (seg, ci) = chunks[i];
            if let Err(e) = self.fetch_chunk(seg, ci) {
                self.read_scratch = chunks;
                return Err(e);
            }
        }
        self.metrics.array_read_bytes += chunks.len() as u64 * self.cfg.chunk_bytes();
        self.read_scratch = chunks;
        self.wal_commit()
    }

    /// Fetch one chunk through the sink's fault model, retrying transient
    /// errors with exponential backoff (simulated — accounted in metrics,
    /// not the engine clock, so SLA deadlines are unperturbed).
    fn fetch_chunk(&mut self, seg: SegmentId, chunk_idx: u32) -> Result<(), EngineError> {
        // Chunks flushed before location tracking (or by exotic sinks) have
        // no recorded location; they are accounted without a fault check.
        let Some(&loc) = self.segments[seg as usize].chunk_locs.get(chunk_idx as usize) else {
            return Ok(());
        };
        let mut attempt = 0u32;
        loop {
            match self.sink.read_chunk_at(loc) {
                Ok(outcome) => {
                    match outcome.mode {
                        ReadMode::Normal => {}
                        ReadMode::Reconstructed => {
                            self.metrics.degraded_reads += 1;
                            self.metrics.reconstructed_bytes += outcome.device_bytes_read;
                        }
                        ReadMode::Healed => {
                            // The array caught a checksum mismatch on this
                            // chunk and repaired it in place before
                            // returning — the data served is verified.
                            self.metrics.healed_reads += 1;
                            if self.events.enabled() {
                                self.events.record(
                                    self.now_us,
                                    self.ops_seen,
                                    EventKind::ChecksumHeal { seg, chunk_in_seg: chunk_idx },
                                );
                            }
                        }
                    }
                    return Ok(());
                }
                Err(e) if e.is_transient() && attempt < self.cfg.read_retry_limit => {
                    self.metrics.retried_reads += 1;
                    self.metrics.retry_backoff_us += self.cfg.retry_backoff_us << attempt.min(16);
                    attempt += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// TRIM/discard: invalidate `num_blocks` starting at `lba`. The freed
    /// slots become garbage immediately, cheapening future GC.
    ///
    /// # Panics
    ///
    /// On any [`EngineError`]; use [`Lss::try_trim`].
    pub fn trim(&mut self, ts_us: u64, lba: Lba, num_blocks: u32) {
        self.try_trim(ts_us, lba, num_blocks).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible variant of [`Lss::trim`].
    pub fn try_trim(&mut self, ts_us: u64, lba: Lba, num_blocks: u32) -> Result<(), EngineError> {
        self.try_advance_time(ts_us)?;
        self.note_host_op();
        for i in 0..num_blocks as u64 {
            if !matches!(self.index.get(lba + i), BlockEntry::Absent) {
                self.retire_previous_version(lba + i)?;
                self.metrics.trimmed_blocks += 1;
            }
        }
        if self.dur.is_some() && num_blocks > 0 {
            self.wal_append(WalRecord::Trim { lba, blocks: num_blocks });
        }
        self.wal_commit()
    }

    /// Advance simulated time, handling any SLA expiries strictly before
    /// `ts_us`. Reads (which bypass the write path) should call this so
    /// that coalescing deadlines fire at faithful instants.
    ///
    /// # Panics
    ///
    /// On any [`EngineError`]; use [`Lss::try_advance_time`].
    pub fn advance_time(&mut self, ts_us: u64) {
        self.try_advance_time(ts_us).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible variant of [`Lss::advance_time`].
    pub fn try_advance_time(&mut self, ts_us: u64) -> Result<(), EngineError> {
        loop {
            if self.sla_dirty {
                self.sla_next = self
                    .groups
                    .iter()
                    .filter_map(|g| g.sla_deadline(self.cfg.sla_us).map(|d| (d, g.id)))
                    .min();
                self.sla_dirty = false;
            }
            // Debug builds re-derive the minimum on every use: a mutation
            // site missing its `sla_dirty` mark trips this across the
            // whole test suite instead of silently shifting a deadline.
            debug_assert_eq!(
                self.sla_next,
                self.groups
                    .iter()
                    .filter_map(|g| g.sla_deadline(self.cfg.sla_us).map(|d| (d, g.id)))
                    .min(),
                "stale SLA-deadline cache"
            );
            match self.sla_next {
                Some((deadline, gid)) if deadline <= ts_us => {
                    self.now_us = self.now_us.max(deadline);
                    // Expiry handling flushes or shadow-appends, which
                    // moves `pending_since_us` and re-marks the cache.
                    self.handle_sla_expiry(gid)?;
                }
                _ => break,
            }
        }
        self.now_us = self.now_us.max(ts_us);
        self.wal_commit()
    }

    /// Flush every group's partial chunk (padding as needed). Call at the
    /// end of a trace so all buffered blocks reach the array.
    ///
    /// # Panics
    ///
    /// On any [`EngineError`]; use [`Lss::try_flush_all`].
    pub fn flush_all(&mut self) {
        self.try_flush_all().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible variant of [`Lss::flush_all`].
    pub fn try_flush_all(&mut self) -> Result<(), EngineError> {
        for gid in 0..self.groups.len() as GroupId {
            if !self.groups[gid as usize].pending.is_empty() {
                self.flush_chunk(gid, &[], GroupId::MAX)?;
            }
        }
        self.wal_commit()
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> &LssMetrics {
        &self.metrics
    }

    /// Reset metrics (start of a measurement window). Engine state —
    /// segments, index, policy — is untouched.
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Per-group traffic snapshot (Fig. 3 data).
    pub fn group_traffic(&self) -> Vec<GroupTraffic> {
        self.groups
            .iter()
            .map(|g| GroupTraffic {
                user_blocks: g.user_blocks,
                gc_blocks: g.gc_blocks,
                shadow_blocks: g.shadow_blocks,
                pad_blocks: g.pad_blocks,
                segments: g.segment_count(),
            })
            .collect()
    }

    /// The placement policy (for inspection).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the placement policy.
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// The array sink beneath the engine.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the array sink — the fault-scenario driver uses
    /// this to fail devices and to pump rebuild steps.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Host block operations processed so far (the op clock).
    pub fn host_ops(&self) -> u64 {
        self.ops_seen
    }

    /// Current simulated time (µs).
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Monotonic host-byte clock.
    pub fn user_bytes_clock(&self) -> u64 {
        self.user_bytes_clock
    }

    /// The structured event stream (ring contents, gauge series, totals).
    pub fn events(&self) -> &EventRecorder {
        &self.events
    }

    /// Mutable access to the event recorder (attach a JSONL sink, flush).
    pub fn events_mut(&mut self) -> &mut EventRecorder {
        &mut self.events
    }

    /// One unified, serializable snapshot of everything the stack
    /// measures: engine metrics and derived rates, per-group traffic,
    /// array counters and health, utilization statistics, latency
    /// percentiles, and — when events are enabled — event totals and the
    /// gauge time series. Takes `&mut self` so buffered policy events and
    /// the JSONL sink are drained first.
    pub fn telemetry(&mut self) -> TelemetrySnapshot {
        if self.events.enabled() {
            self.drain_policy_events();
            let _ = self.events.flush();
        }
        TelemetrySnapshot {
            host_ops: self.ops_seen,
            now_us: self.now_us,
            user_bytes_clock: self.user_bytes_clock,
            wa: self.metrics.wa(),
            wa_gc_only: self.metrics.wa_gc_only(),
            padding_ratio: self.metrics.padding_ratio(),
            read_amplification: self.metrics.read_amplification(),
            groups: self.group_traffic(),
            array: self.sink.stats().clone(),
            health: self.sink.health(),
            free_segments: self.free.len() as u32,
            total_segments: self.segments.len() as u32,
            utilization_histogram: self.buckets.histogram10(),
            mean_sealed_utilization: self.buckets.mean_utilization(),
            memory_bytes: self.memory_bytes() as u64,
            durability_latency: self.metrics.durability_latency.summary(),
            events: self.events.stats(),
            gauges: self.events.gauges().to_vec(),
            lss: self.metrics.clone(),
        }
    }

    /// Free segments currently available.
    pub fn free_segments(&self) -> usize {
        self.free.len()
    }

    /// Whether the free pool is at or below the GC trigger watermark.
    pub fn needs_gc(&self) -> bool {
        self.free.len() <= self.cfg.gc_low_water as usize
    }

    /// Collect at most one victim segment (background-GC driver API).
    /// Returns `true` if a segment was reclaimed. No-op when nothing is
    /// reclaimable, or when GC is paused because the array is rebuilding
    /// (rebuild I/O has priority; GC still runs if the pool is nearly dry).
    ///
    /// # Panics
    ///
    /// On any [`EngineError`]; use [`Lss::try_gc_step`].
    pub fn gc_step(&mut self) -> bool {
        self.try_gc_step().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Lss::gc_step`].
    pub fn try_gc_step(&mut self) -> Result<bool, EngineError> {
        if self.in_gc {
            return Ok(false);
        }
        if self.gc_paused_for_rebuild() {
            self.metrics.gc_throttled += 1;
            return Ok(false);
        }
        // Finish any staged overlapped-GC victim before selecting a new
        // one — one victim in flight at a time.
        if self.staged_gc.is_some() {
            self.in_gc = true;
            let result = self.pump_staged(u32::MAX);
            self.in_gc = false;
            result?;
            self.wal_commit()?;
            return Ok(true);
        }
        let Some(victim) = self.select_victim() else {
            return Ok(false);
        };
        self.in_gc = true;
        self.metrics.gc_passes += 1;
        let result = self.collect_segment(victim);
        self.in_gc = false;
        result?;
        self.wal_commit()?;
        Ok(true)
    }

    /// Timed GC victim selection (the per-pass hot spot the perf harness
    /// attributes separately). The paper's two policies are served from
    /// the incremental bucket index in O(buckets); the literature variants
    /// (d-choices, windowed greedy, random) keep their legacy scan — they
    /// are ablation-only and sample rather than rank.
    fn select_victim(&mut self) -> Option<SegmentId> {
        let start = std::time::Instant::now();
        let victim = match &mut self.gc_select {
            VictimPolicy::Base(sel) => self.buckets.select(*sel, self.user_bytes_clock),
            other => other.select(&self.segments, self.user_bytes_clock),
        };
        self.gc_select_ns += start.elapsed().as_nanos() as u64;
        victim
    }

    /// Real nanoseconds spent in GC victim selection so far (perf probe;
    /// independent of the deterministic [`LssMetrics`]).
    pub fn gc_select_nanos(&self) -> u64 {
        self.gc_select_ns
    }

    /// Graceful-degradation policy: while the array rebuilds a failed
    /// device onto a spare, non-emergency GC yields the bandwidth. GC
    /// resumes unconditionally when the free pool nears exhaustion (an
    /// engine stall would be worse than a slower rebuild).
    fn gc_paused_for_rebuild(&self) -> bool {
        matches!(self.sink.health(), ArrayHealth::Rebuilding { .. })
            && self.free.len() > self.emergency_free_level()
    }

    /// Free-pool level below which GC must run no matter what.
    fn emergency_free_level(&self) -> usize {
        (self.groups.len() + 1).max(3)
    }

    /// Approximate resident memory: block index plus policy state
    /// (Fig. 12b).
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.policy.memory_bytes()
    }

    /// Histogram of sealed-segment utilization (valid fraction), in ten
    /// 10%-wide buckets. The shape of this histogram is what GC victim
    /// selection feeds on: bimodal (hot segments near 0, cold near 1)
    /// means separation is working; a hump in the middle means mixed
    /// segments and expensive collections ahead.
    pub fn utilization_histogram(&self) -> [u64; 10] {
        self.buckets.histogram10()
    }

    /// Mean valid fraction across sealed segments (1.0 when none sealed).
    pub fn mean_sealed_utilization(&self) -> f64 {
        self.buckets.mean_utilization()
    }

    /// Validate internal invariants (test/debug aid): per-segment valid
    /// counts match the index, pending buffers are within chunk size, and
    /// segment ownership is consistent. Panics on violation.
    pub fn check_invariants(&self) {
        let mut valid_per_seg = vec![0u32; self.segments.len()];
        for lba in 0..self.index.len() as Lba {
            match self.index.get(lba) {
                BlockEntry::Durable { seg, off } => {
                    let s = &self.segments[seg as usize];
                    assert!(off < s.filled, "durable entry beyond filled region");
                    assert_eq!(s.slot(off), Slot::Block(lba), "index/slot mismatch for {lba}");
                    valid_per_seg[seg as usize] += 1;
                }
                BlockEntry::Pending { group, shadow } => {
                    let g = &self.groups[group as usize];
                    assert!(g.find_pending(lba).is_some(), "pending entry missing in buffer");
                    if let Some((seg, off)) = shadow {
                        let s = &self.segments[seg as usize];
                        assert_eq!(s.slot(off), Slot::Shadow(lba), "shadow slot mismatch");
                        valid_per_seg[seg as usize] += 1;
                    }
                }
                BlockEntry::Absent => {}
            }
        }
        for s in &self.segments {
            assert_eq!(
                s.valid_blocks, valid_per_seg[s.id as usize],
                "segment {} valid count drift",
                s.id
            );
        }
        for g in &self.groups {
            assert!(g.pending.len() < self.cfg.chunk_blocks as usize + 1);
        }
        // The bucket index must mirror the sealed set exactly (modulo a
        // staged overlapped-GC victim, which is sealed but detached).
        self.buckets
            .check_against_detached(&self.segments, self.staged_gc.as_ref().map(|s| s.vm.seg));
        // A staged victim's owner must not list it as sealed anymore.
        if let Some(st) = &self.staged_gc {
            assert!(
                !self.groups[st.vm.group as usize].sealed.contains(&st.vm.seg),
                "staged victim still in owner's sealed list"
            );
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Count one host op and watch for sink health transitions: the op
    /// clock bounds time-to-rebuild, and a Rebuilding→Healthy edge
    /// snapshots the rebuild traffic the array reported. When scrubbing
    /// is enabled, each host op also pumps one paced scrub step — the
    /// same piggyback pattern the rebuild driver uses, so background
    /// verification scales with foreground traffic.
    fn note_host_op(&mut self) {
        self.ops_seen += 1;
        if self.cfg.scrub_stripes_per_op > 0 {
            if let Some(step) = self.sink.scrub_step(self.cfg.scrub_stripes_per_op as usize) {
                self.fold_scrub_step(&step);
            }
        }
        if self.events.enabled() {
            self.pump_events();
        }
        let health = self.sink.health();
        if health == self.last_health {
            return;
        }
        match health {
            ArrayHealth::Rebuilding { device } => {
                if self.rebuild_start_op.is_none() {
                    self.rebuild_start_op = Some(self.ops_seen);
                    if self.events.enabled() {
                        self.events.record(
                            self.now_us,
                            self.ops_seen,
                            EventKind::RebuildStart { device: device as u32 },
                        );
                    }
                }
            }
            ArrayHealth::Healthy => {
                if let Some(start) = self.rebuild_start_op.take() {
                    let ops = self.ops_seen.saturating_sub(start);
                    self.metrics.rebuild_ops += ops;
                    self.metrics.rebuild_bytes = self.sink.stats().rebuild_bytes();
                    if self.events.enabled() {
                        self.events.record(
                            self.now_us,
                            self.ops_seen,
                            EventKind::RebuildComplete { ops, bytes: self.metrics.rebuild_bytes },
                        );
                    }
                }
            }
            ArrayHealth::Degraded { .. } => {}
        }
        self.last_health = health;
    }

    /// Events-on bookkeeping for one host op: drain policy-side events and
    /// sample the gauge time series on its op cadence. Out of line so the
    /// events-off hot path pays only the guard branch.
    #[cold]
    fn pump_events(&mut self) {
        self.drain_policy_events();
        let interval = self.events.config().gauge_interval_ops;
        if interval > 0 && self.ops_seen.is_multiple_of(interval) {
            let sample = self.gauge_sample();
            self.events.record_gauge(sample);
        }
    }

    /// Move events the policy buffered during its callbacks into the
    /// engine's recorder, stamped with the current clocks.
    fn drain_policy_events(&mut self) {
        let mut buf = std::mem::take(&mut self.policy_event_buf);
        buf.clear();
        self.policy.drain_events(&mut buf);
        for &ev in &buf {
            self.events.record(self.now_us, self.ops_seen, EventKind::Policy(ev));
        }
        self.policy_event_buf = buf;
    }

    /// One gauge sample of the engine's key load indicators.
    fn gauge_sample(&self) -> GaugeSample {
        GaugeSample {
            op: self.ops_seen,
            now_us: self.now_us,
            wa_so_far: self.metrics.wa(),
            free_segments: self.free.len() as u32,
            gc_backlog_segments: (self.cfg.gc_high_water as usize).saturating_sub(self.free.len())
                as u32,
            mean_utilization: self.buckets.mean_utilization(),
            group_pending_blocks: self.groups.iter().map(|g| g.pending.len() as u32).collect(),
            group_segments: self.groups.iter().map(|g| g.segment_count()).collect(),
        }
    }

    /// Fold one scrub step's deltas into the engine metrics.
    fn fold_scrub_step(&mut self, step: &ScrubStep) {
        let m = &mut self.metrics;
        m.chunks_scrubbed += step.chunks_scrubbed;
        m.scrub_read_bytes += step.read_bytes;
        m.corruptions_detected += step.detected;
        m.corruptions_healed += step.healed;
        m.corruptions_unrecoverable += step.unrecoverable;
        m.heal_write_bytes += step.heal_write_bytes;
        m.detection_latency_ops += step.detection_latency_ops;
        m.scrub_latent_repaired += step.latent_repaired;
        if step.paused_for_rebuild {
            m.scrub_paused += 1;
        }
        if step.pass_complete {
            m.scrub_passes += 1;
        }
        if self.events.enabled() {
            if step.healed > 0 || step.latent_repaired > 0 {
                self.events.record(
                    self.now_us,
                    self.ops_seen,
                    EventKind::ScrubHeal {
                        healed: step.healed,
                        latent_repaired: step.latent_repaired,
                    },
                );
            }
            if step.pass_complete {
                self.events.record(
                    self.now_us,
                    self.ops_seen,
                    EventKind::ScrubPass { chunks_scrubbed: self.metrics.chunks_scrubbed },
                );
            }
        }
    }

    /// Decrement a segment's valid count, keeping the bucket index in
    /// lockstep when the segment is sealed. (The segment being collected
    /// is detached from the index first; `note_invalidate` ignores it.)
    fn invalidate_block(&mut self, seg_id: SegmentId) {
        let s = &mut self.segments[seg_id as usize];
        s.valid_blocks -= 1;
        if s.state == SegmentState::Sealed {
            self.buckets.note_invalidate(seg_id);
        }
    }

    /// Invalidate whatever copy of `lba` currently exists.
    fn retire_previous_version(&mut self, lba: Lba) -> Result<(), EngineError> {
        self.retire_entry(lba, true)
    }

    /// [`Lss::retire_previous_version`] with the final index store made
    /// optional: the write hot path passes `clear_index = false` because
    /// `append_pending` immediately overwrites the entry anyway (and
    /// nothing can fail or read the index before that store lands), which
    /// saves one packed-word write per host block.
    fn retire_entry(&mut self, lba: Lba, clear_index: bool) -> Result<(), EngineError> {
        match self.index.get(lba) {
            BlockEntry::Absent => {}
            BlockEntry::Durable { seg, off } => {
                debug_assert_eq!(self.segments[seg as usize].slot(off), Slot::Block(lba));
                self.invalidate_block(seg);
            }
            BlockEntry::Pending { group, shadow } => {
                self.ctx_dirty[group as usize] = true;
                let g = &mut self.groups[group as usize];
                let pos = g.find_pending(lba).ok_or_else(|| EngineError::IndexCorruption {
                    lba,
                    detail: "index says pending but buffer lacks the block".into(),
                })?;
                g.pending.swap_remove(pos);
                g.recompute_pending_since();
                self.sla_dirty = true;
                self.metrics.buffer_absorbed_blocks += 1;
                if let Some((seg, off)) = shadow {
                    debug_assert_eq!(self.segments[seg as usize].slot(off), Slot::Shadow(lba));
                    self.segments[seg as usize].clear_slot(off);
                    self.invalidate_block(seg);
                }
            }
        }
        if clear_index {
            self.index.set(lba, BlockEntry::Absent);
        }
        Ok(())
    }

    /// Append a block to a group's buffer; flush when the chunk fills.
    fn append_pending(&mut self, gid: GroupId, block: PendingBlock) -> Result<(), EngineError> {
        if self.dur.is_some() {
            // Logged for every append — host writes AND GC migrations. The
            // sync covering a host write's record is its acknowledgement,
            // and migration records preceding a victim's `Reclaim` in log
            // order are what make replaying a reclaim safe.
            self.wal_append(WalRecord::BufferAppend {
                lba: block.lba,
                version: block.arrival_us,
                group: gid,
                gc: block.traffic == Traffic::Gc,
                needs_sla: block.needs_sla,
            });
        }
        let lba = block.lba;
        let needs_sla = block.needs_sla;
        let arrival = block.arrival_us;
        self.ctx_dirty[gid as usize] = true;
        {
            let g = &mut self.groups[gid as usize];
            g.pending.push(block);
            if needs_sla && g.pending_since_us.is_none() {
                g.pending_since_us = Some(arrival);
                self.sla_dirty = true;
            }
        }
        self.index.set(lba, BlockEntry::Pending { group: gid, shadow: None });
        if self.groups[gid as usize].pending.len() >= self.cfg.chunk_blocks as usize {
            self.flush_chunk(gid, &[], GroupId::MAX)?;
        }
        Ok(())
    }

    /// SLA deadline fired for `gid`: ask the policy, then pad or
    /// shadow-append.
    fn handle_sla_expiry(&mut self, gid: GroupId) -> Result<(), EngineError> {
        debug_assert!(self.groups[gid as usize].pending_since_us.is_some());
        self.refresh_ctx();
        match self.policy.on_sla_expire(&self.ctx, gid) {
            SlaAction::Pad => self.flush_chunk(gid, &[], GroupId::MAX),
            SlaAction::ShadowAppend { target } => self.shadow_append(gid, target),
        }
    }

    /// Persist `home`'s unpersisted pending blocks as shadow slots inside
    /// `target`'s next chunk, flushing it immediately. Falls back to
    /// padding the home chunk when the move is impossible.
    fn shadow_append(&mut self, home: GroupId, target: GroupId) -> Result<(), EngineError> {
        if home == target || target as usize >= self.groups.len() {
            return self.flush_chunk(home, &[], GroupId::MAX);
        }
        let mut shadows = std::mem::take(&mut self.shadow_scratch);
        shadows.clear();
        shadows.extend(
            self.groups[home as usize].pending.iter().filter(|p| p.needs_sla).map(|p| p.lba),
        );
        let space = (self.cfg.chunk_blocks as usize)
            .saturating_sub(self.groups[target as usize].pending.len());
        if shadows.is_empty() || shadows.len() > space {
            // Target cannot absorb every unpersisted block; SLA forces the
            // home chunk out with padding instead.
            self.shadow_scratch = shadows;
            return self.flush_chunk(home, &[], GroupId::MAX);
        }
        if self.groups[target as usize].open_segment == SegmentId::MAX {
            // Open the target's segment before building the chunk, exactly
            // where `flush_chunk` would: the allocation can run GC, whose
            // migrations into `home` may flush some of the blocks listed
            // above. Those are durable now and must not be shadowed.
            if let Err(e) = self.alloc_open_segment(target) {
                self.shadow_scratch = shadows;
                return Err(e);
            }
            shadows.retain(|&lba| {
                matches!(self.index.get(lba),
                    BlockEntry::Pending { group, shadow: None } if group == home)
            });
            if shadows.is_empty() {
                self.shadow_scratch = shadows;
                return Ok(());
            }
        }
        self.metrics.shadow_append_events += 1;
        if self.events.enabled() {
            self.events.record(
                self.now_us,
                self.ops_seen,
                EventKind::ShadowAppend { home, target, blocks: shadows.len() as u32 },
            );
        }
        let flushed = self.flush_chunk(target, &shadows, home);
        self.shadow_scratch = shadows;
        flushed?;
        // Home blocks are now persistent via their shadows: stop the timer.
        self.ctx_dirty[home as usize] = true;
        let g = &mut self.groups[home as usize];
        for p in &mut g.pending {
            p.needs_sla = false;
        }
        g.pending_since_us = None;
        self.sla_dirty = true;
        Ok(())
    }

    /// Flush `gid`'s pending buffer as one chunk, appending `shadows`
    /// (substitute copies of blocks still pending in `shadow_home`) and
    /// zero padding to reach chunk alignment.
    fn flush_chunk(
        &mut self,
        gid: GroupId,
        shadows: &[Lba],
        shadow_home: GroupId,
    ) -> Result<(), EngineError> {
        let chunk_blocks = self.cfg.chunk_blocks;
        let block_bytes = self.cfg.block_bytes;
        let lazy_before = self.metrics.lazy_appends;
        // The open segment is allocated lazily: sealing happens eagerly but
        // replacement waits until the group actually needs space again (so
        // GC triggered by a seal can route blocks into this group safely).
        if self.groups[gid as usize].open_segment == SegmentId::MAX {
            // May run GC, which can append *more* blocks into this very
            // group's buffer — hence the bounded drain below rather than a
            // wholesale take. An out-of-space failure here leaves the
            // pending blocks buffered and the engine consistent.
            self.alloc_open_segment(gid)?;
        }
        let seg_id = self.groups[gid as usize].open_segment;

        // Drain at most one chunk's worth of pending blocks (oldest first).
        self.ctx_dirty[gid as usize] = true;
        let max_payload = (chunk_blocks as usize).saturating_sub(shadows.len());
        let take_n = self.groups[gid as usize].pending.len().min(max_payload);
        let mut pending = self.pending_pool.pop().unwrap_or_default();
        pending.clear();
        pending.extend(self.groups[gid as usize].pending.drain(..take_n));

        // Index remaps for the whole chunk are batched and applied once
        // below (one growth check instead of one per block). Taken out of
        // `self` so a nested flush (seal → GC → append → flush) can never
        // observe a half-built batch.
        let mut remaps = std::mem::take(&mut self.remap_scratch);
        remaps.clear();

        // With a durable backend, collect this chunk's slots for the WAL
        // Flush record (blocks first, then shadows — the slot-offset order
        // replay must reproduce).
        let mut wal_slots = match self.dur.as_mut() {
            Some(d) => {
                let mut buf = std::mem::take(&mut d.wal_slot_buf);
                buf.clear();
                Some(buf)
            }
            None => None,
        };

        let mut user = 0u64;
        let mut gc = 0u64;
        for p in &pending {
            if let Some(ws) = wal_slots.as_mut() {
                let kind = match p.traffic {
                    Traffic::Gc => WalSlotKind::Gc,
                    _ => WalSlotKind::User,
                };
                ws.push(WalSlot { kind, lba: p.lba, version: p.arrival_us });
            }
            let seg = &mut self.segments[seg_id as usize];
            let off = seg.append_slot(Slot::Block(p.lba));
            seg.valid_blocks += 1;
            // Lazy-append completion: a durable shadow elsewhere dies now.
            if let BlockEntry::Pending { group, shadow } = self.index.get(p.lba) {
                debug_assert_eq!(group, gid);
                if let Some((sseg, soff)) = shadow {
                    debug_assert_eq!(self.segments[sseg as usize].slot(soff), Slot::Shadow(p.lba));
                    self.segments[sseg as usize].clear_slot(soff);
                    self.invalidate_block(sseg);
                    self.metrics.lazy_appends += 1;
                }
            } else {
                return Err(EngineError::IndexCorruption {
                    lba: p.lba,
                    detail: "pending block lost its index entry during flush".into(),
                });
            }
            remaps.push((p.lba, BlockEntry::Durable { seg: seg_id, off }));
            match p.traffic {
                Traffic::Gc => gc += 1,
                _ => {
                    user += 1;
                    // Durability latency: only blocks not already persisted
                    // via a shadow copy reach durability at this flush.
                    if p.needs_sla {
                        self.metrics
                            .durability_latency
                            .record(self.now_us.saturating_sub(p.arrival_us));
                    }
                }
            }
        }
        // Shadow substitutes for another group's pending blocks — this is
        // the moment those blocks become durable.
        for &lba in shadows {
            let seg = &mut self.segments[seg_id as usize];
            let off = seg.append_slot(Slot::Shadow(lba));
            seg.valid_blocks += 1;
            match self.index.get(lba) {
                BlockEntry::Pending { group, shadow: None } => {
                    debug_assert_eq!(group, shadow_home);
                    remaps.push((lba, BlockEntry::Pending { group, shadow: Some((seg_id, off)) }));
                    let arrival = self.groups[shadow_home as usize]
                        .find_pending(lba)
                        .map(|pos| self.groups[shadow_home as usize].pending[pos].arrival_us);
                    if let Some(arrival) = arrival {
                        self.metrics.durability_latency.record(self.now_us.saturating_sub(arrival));
                    }
                    if let Some(ws) = wal_slots.as_mut() {
                        ws.push(WalSlot {
                            kind: WalSlotKind::Shadow,
                            lba,
                            version: arrival.unwrap_or(self.now_us),
                        });
                    }
                }
                other => {
                    return Err(EngineError::IndexCorruption {
                        lba,
                        detail: format!("shadow source in unexpected state {other:?}"),
                    });
                }
            }
        }
        // One batched index update for the whole chunk. Must land before
        // the seal below: a seal can trigger nested GC, which walks the
        // index to decide block liveness.
        self.index.apply_batch(&remaps);
        remaps.clear();
        self.remap_scratch = remaps;

        let payload = pending.len() + shadows.len();
        self.pending_pool.push(pending);
        let pad = chunk_blocks as usize - payload;
        for _ in 0..pad {
            self.segments[seg_id as usize].append_slot(Slot::Pad);
        }

        // Account and hand the chunk to the array.
        let shadow_cnt = shadows.len() as u64;
        let pad_cnt = pad as u64;
        self.groups[gid as usize].account_chunk(user, gc, shadow_cnt, pad_cnt);
        self.groups[gid as usize].recompute_pending_since();
        self.sla_dirty = true;
        self.ctx_dirty[gid as usize] = true;
        self.metrics.user_bytes += user * block_bytes;
        self.metrics.gc_bytes += gc * block_bytes;
        self.metrics.shadow_bytes += shadow_cnt * block_bytes;
        self.metrics.pad_bytes += pad_cnt * block_bytes;
        self.metrics.chunks_flushed += 1;
        if pad > 0 {
            self.metrics.padded_chunks += 1;
        }
        if self.events.enabled() {
            let lazy = (self.metrics.lazy_appends - lazy_before) as u32;
            if lazy > 0 {
                self.events.record(
                    self.now_us,
                    self.ops_seen,
                    EventKind::LazyAppend { group: gid, blocks: lazy },
                );
            }
            if pad > 0 {
                self.events.record(
                    self.now_us,
                    self.ops_seen,
                    EventKind::PaddedFlush {
                        group: gid,
                        payload_blocks: payload as u32,
                        pad_blocks: pad as u32,
                    },
                );
            }
        }
        // The chunk just written starts at slot `filled - chunk_blocks`.
        let chunk_in_seg = (self.segments[seg_id as usize].filled - chunk_blocks) / chunk_blocks;
        debug_assert_eq!(self.segments[seg_id as usize].chunk_seqs.len() as u32, chunk_in_seg);
        let flush_seq = self.next_flush_seq;
        self.segments[seg_id as usize].chunk_seqs.push(flush_seq);
        self.next_flush_seq += 1;
        let loc = self.sink.write_chunk(ChunkFlush {
            user_bytes: user * block_bytes,
            gc_bytes: gc * block_bytes,
            shadow_bytes: shadow_cnt * block_bytes,
            pad_bytes: pad_cnt * block_bytes,
            group: gid,
            seg: seg_id,
            chunk_in_seg,
        });
        self.segments[seg_id as usize].chunk_locs.push(loc);
        if let Some(slots) = wal_slots.take() {
            let rec = WalRecord::Flush {
                flush_seq,
                seg: seg_id,
                chunk_in_seg,
                group: gid,
                now_us: self.now_us,
                user_bytes_clock: self.user_bytes_clock,
                pad_blocks: pad as u32,
                slots,
            };
            self.wal_append(rec);
            if let Some(d) = self.dur.as_mut() {
                d.flushes_since_checkpoint += 1;
            }
        }

        // Seal and replace the open segment if it just filled.
        if self.segments[seg_id as usize].is_full() {
            self.seal_segment(gid, seg_id)?;
        }

        // GC during the allocation above may have left more than a full
        // chunk of pending blocks behind; flush the surplus too.
        if self.groups[gid as usize].pending.len() >= chunk_blocks as usize {
            self.flush_chunk(gid, &[], GroupId::MAX)?;
        }
        Ok(())
    }

    /// Seal `seg_id`, notify the policy, and kick GC if the pool is low.
    /// The replacement open segment is allocated lazily at the next flush,
    /// so GC migrations triggered here can still route into this group.
    fn seal_segment(&mut self, gid: GroupId, seg_id: SegmentId) -> Result<(), EngineError> {
        let seg = &mut self.segments[seg_id as usize];
        seg.seal();
        let valid = seg.valid_blocks;
        let meta = SegmentMeta {
            seg: seg_id,
            group: gid,
            created_user_bytes: seg.created_user_bytes,
            created_ts_us: seg.created_ts_us,
        };
        self.buckets.insert(seg_id, valid, meta.created_user_bytes);
        self.segments[seg_id as usize].group_pos = self.groups[gid as usize].sealed.len() as u32;
        self.groups[gid as usize].sealed.push(seg_id);
        self.groups[gid as usize].roll_window();
        self.groups[gid as usize].open_segment = SegmentId::MAX;
        self.ctx_dirty[gid as usize] = true;
        self.refresh_ctx();
        self.policy.on_segment_sealed(&self.ctx, &meta);
        if !self.in_gc && self.should_inline_gc() {
            if self.gc_overlap_active() {
                self.gc_overlap_begin()?;
            } else {
                self.run_gc()?;
            }
        }
        Ok(())
    }

    /// Inline GC policy: always when foreground GC is configured; under
    /// background GC only as an emergency (the pool is nearly dry because
    /// the GC threads fell behind). While the array rebuilds, only
    /// emergency GC runs — the throttle that keeps GC traffic from
    /// competing with reconstruction I/O.
    fn should_inline_gc(&mut self) -> bool {
        let emergency = self.free.len() <= self.emergency_free_level();
        if !emergency && matches!(self.sink.health(), ArrayHealth::Rebuilding { .. }) {
            if self.free.len() <= self.cfg.gc_low_water as usize {
                self.metrics.gc_throttled += 1;
            }
            return false;
        }
        if self.cfg.background_gc {
            emergency
        } else {
            self.free.len() <= self.cfg.gc_low_water as usize
        }
    }

    /// Take a segment from the free pool for `gid`, running GC first when
    /// the pool is low.
    fn alloc_open_segment(&mut self, gid: GroupId) -> Result<(), EngineError> {
        if !self.in_gc && self.should_inline_gc() {
            if self.gc_overlap_active() && !self.free.is_empty() {
                // Pool low but not dry: stage/pump a slice and let the
                // allocation below proceed from the remaining pool.
                self.gc_overlap_begin()?;
            } else {
                self.run_gc()?;
            }
            // GC migrations flush through this very group; a nested flush
            // may already have allocated its open segment. Allocating again
            // would orphan that segment (open forever, invisible to GC).
            if self.groups[gid as usize].open_segment != SegmentId::MAX {
                return Ok(());
            }
        }
        let seg_id = match self.free.pop() {
            Some(id) => id,
            None => {
                let sealed =
                    self.segments.iter().filter(|s| s.state == SegmentState::Sealed).count();
                let sealed_garbage = self
                    .segments
                    .iter()
                    .filter(|s| s.state == SegmentState::Sealed && s.garbage_blocks() > 0)
                    .count();
                let open = self.segments.iter().filter(|s| s.state == SegmentState::Open).count();
                let valid: u64 = self.segments.iter().map(|s| s.valid_blocks as u64).sum();
                return Err(EngineError::OutOfSpace {
                    total_segments: self.segments.len(),
                    sealed,
                    sealed_with_garbage: sealed_garbage,
                    open,
                    valid_blocks: valid,
                    in_gc: self.in_gc,
                });
            }
        };
        self.segments[seg_id as usize].open(gid, self.user_bytes_clock, self.now_us);
        self.segments[seg_id as usize].open_seq = self.next_open_seq;
        self.next_open_seq += 1;
        self.groups[gid as usize].open_segment = seg_id;
        self.ctx_dirty[gid as usize] = true;
        if self.dur.is_some() {
            let s = &self.segments[seg_id as usize];
            self.wal_append(WalRecord::Open {
                seg: seg_id,
                group: gid,
                open_seq: s.open_seq,
                created_user_bytes: s.created_user_bytes,
                created_ts_us: s.created_ts_us,
            });
        }
        Ok(())
    }

    /// One GC pass: reclaim victims until the free pool recovers.
    fn run_gc(&mut self) -> Result<(), EngineError> {
        self.in_gc = true;
        self.metrics.gc_passes += 1;
        let result = self.run_gc_inner();
        self.in_gc = false;
        result
    }

    fn run_gc_inner(&mut self) -> Result<(), EngineError> {
        // A synchronous pass (emergency, or overlap disabled) first
        // finishes any victim the overlapped path left staged.
        self.pump_staged(u32::MAX)?;
        while self.free.len() < self.cfg.gc_high_water as usize {
            let Some(victim_id) = self.select_victim() else {
                break; // nothing reclaimable
            };
            self.collect_segment(victim_id)?;
        }
        Ok(())
    }

    /// Whether GC should run in overlapped (staged) mode right now:
    /// configured on, not forced synchronous by `ADAPT_GC_SYNC`, more
    /// than one worker configured (a `jobs=1` run is the determinism
    /// baseline and must take the exact legacy path), and not in an
    /// emergency (a nearly-dry pool needs segments *now*).
    fn gc_overlap_active(&self) -> bool {
        self.cfg.gc_overlap
            && !gc_sync_forced()
            && rayon::current_num_threads() > 1
            && self.free.len() > self.emergency_free_level()
    }

    /// Overlapped-GC trigger: stage a victim if none is in flight, then
    /// migrate one slice. Mirrors [`Lss::run_gc`]'s `in_gc` guard.
    fn gc_overlap_begin(&mut self) -> Result<(), EngineError> {
        self.in_gc = true;
        let result = (|| {
            if self.staged_gc.is_none() {
                let Some(victim_id) = self.select_victim() else {
                    return Ok(());
                };
                self.metrics.gc_passes += 1;
                self.stage_victim(victim_id);
            }
            self.pump_staged(GC_PUMP_BLOCKS)
        })();
        self.in_gc = false;
        result
    }

    /// Per-host-write pump: migrate a bounded slice of the staged victim,
    /// if any. Runs even when overlap has since been disabled (a staged
    /// victim must always drain), but yields to rebuild I/O exactly like
    /// inline GC does.
    ///
    /// While overlap is active and the free pool sits below the
    /// high-water mark, a drained victim is immediately chained into the
    /// next one: reclaim then progresses continuously across host writes
    /// instead of waiting for the next seal, which would let the pool
    /// fall behind and force a synchronous catch-up storm (the whole
    /// multi-segment deficit collected inside one host op).
    #[inline]
    fn gc_overlap_tick(&mut self) -> Result<(), EngineError> {
        if self.in_gc {
            return Ok(());
        }
        if self.staged_gc.is_none()
            && !(self.cfg.gc_overlap
                && self.free.len() < self.cfg.gc_high_water as usize
                && self.gc_overlap_active())
        {
            return Ok(());
        }
        if self.gc_paused_for_rebuild() {
            self.metrics.gc_throttled += 1;
            return Ok(());
        }
        self.in_gc = true;
        let result = (|| {
            if self.staged_gc.is_none() {
                let Some(victim_id) = self.select_victim() else {
                    return Ok(());
                };
                self.metrics.gc_passes += 1;
                self.stage_victim(victim_id);
            }
            self.pump_staged(GC_PUMP_BLOCKS)
        })();
        self.in_gc = false;
        result
    }

    /// Migrate a victim's live blocks and reclaim it, synchronously: the
    /// stage/pump machinery with an unbounded slice.
    fn collect_segment(&mut self, victim_id: SegmentId) -> Result<(), EngineError> {
        debug_assert!(self.staged_gc.is_none());
        self.stage_victim(victim_id);
        self.pump_staged(u32::MAX)
    }

    /// Detach `victim_id` for collection and snapshot its written slots.
    /// The victim's remaining valid blocks drain outside the bucket index
    /// via [`Lss::pump_staged`].
    fn stage_victim(&mut self, victim_id: SegmentId) {
        let (victim_group, created_user_bytes, valid_at_start) = {
            let v = &self.segments[victim_id as usize];
            debug_assert_eq!(v.state, SegmentState::Sealed);
            (v.group, v.created_user_bytes, v.valid_blocks)
        };
        let vm = VictimMeta {
            seg: victim_id,
            group: victim_group,
            created_user_bytes,
            valid_blocks: valid_at_start,
            segment_blocks: self.cfg.segment_blocks(),
        };

        // Detach from the bucket index and the owner group's sealed list.
        // A crash while staged is already covered by recovery: a `GcBegin`
        // without a matching `Reclaim` re-attaches the victim as an
        // ordinary sealed segment.
        if self.dur.is_some() {
            self.wal_append(WalRecord::GcBegin { seg: victim_id });
        }
        self.buckets.remove(victim_id);
        let pos = self.segments[victim_id as usize].group_pos as usize;
        self.ctx_dirty[victim_group as usize] = true;
        let g = &mut self.groups[victim_group as usize];
        debug_assert_eq!(g.sealed.get(pos), Some(&victim_id));
        g.sealed.swap_remove(pos);
        if let Some(&moved) = g.sealed.get(pos) {
            self.segments[moved as usize].group_pos = pos as u32;
        }

        // Snapshot the slots (migration mutates other segments; foreground
        // writes between pump slices may invalidate entries, which the
        // per-slot liveness re-check below absorbs).
        let mut slots = std::mem::take(&mut self.gc_scratch);
        slots.clear();
        slots.extend(self.segments[victim_id as usize].written_slots());
        self.staged_gc = Some(StagedGc { vm, slots, cursor: 0, migrated: 0 });
    }

    /// Migrate up to `budget` live blocks of the staged victim; reclaim it
    /// once the slot scan completes. No-op when nothing is staged.
    fn pump_staged(&mut self, budget: u32) -> Result<(), EngineError> {
        let Some(mut st) = self.staged_gc.take() else {
            return Ok(());
        };
        let victim_id = st.vm.seg;
        let victim_group = st.vm.group;
        // One context snapshot per pump slice. Bit-identical to refreshing
        // per block on the synchronous path: the byte clock and `now_us`
        // cannot advance during migration (GC traffic doesn't tick them),
        // and no shipped policy reads the per-group snapshot from
        // `place_gc`.
        self.refresh_ctx();
        let mut done = 0u32;
        let mut migration_result = Ok(());
        while st.cursor < st.slots.len() && done < budget {
            let (off, slot) = st.slots[st.cursor];
            st.cursor += 1;
            let append = match slot {
                Slot::Block(lba) if self.index.is_live(lba, victim_id, off) => {
                    let dest = self.policy.place_gc(&self.ctx, lba, &st.vm);
                    debug_assert!((dest as usize) < self.groups.len());
                    self.policy.on_gc_block_migrated(lba, victim_group, dest);
                    self.segments[victim_id as usize].valid_blocks -= 1;
                    Some((dest, lba))
                }
                Slot::Shadow(lba) if self.index.is_live(lba, victim_id, off) => {
                    // A live substitute: its home copy is still buffered.
                    // Migrate the durable copy like a normal valid block and
                    // drop the home pending entry — the block's data already
                    // moved, rewriting it later would only add traffic.
                    if let BlockEntry::Pending { group: home, .. } = self.index.get(lba) {
                        self.ctx_dirty[home as usize] = true;
                        let hg = &mut self.groups[home as usize];
                        if let Some(pos) = hg.find_pending(lba) {
                            hg.pending.swap_remove(pos);
                            hg.recompute_pending_since();
                            self.sla_dirty = true;
                        }
                    }
                    let dest = self.policy.place_gc(&self.ctx, lba, &st.vm);
                    self.policy.on_gc_block_migrated(lba, victim_group, dest);
                    self.segments[victim_id as usize].valid_blocks -= 1;
                    Some((dest, lba))
                }
                _ => None,
            };
            if let Some((dest, lba)) = append {
                let r = self.append_pending(
                    dest,
                    PendingBlock {
                        lba,
                        traffic: Traffic::Gc,
                        arrival_us: self.now_us,
                        needs_sla: false,
                    },
                );
                if let Err(e) = r {
                    migration_result = Err(e);
                    break;
                }
                done += 1;
            }
        }
        st.migrated += done;
        self.metrics.blocks_migrated += done as u64;
        if migration_result.is_err() {
            // Terminal (out of space / WAL fault): surrender the scratch
            // and leave the victim detached, as the synchronous path did.
            st.slots.clear();
            self.gc_scratch = st.slots;
            return migration_result;
        }
        if st.cursor < st.slots.len() {
            // Budget exhausted; the rest drains on later pumps.
            self.staged_gc = Some(st);
            return Ok(());
        }

        // Scan complete — reclaim.
        let migrated = st.migrated;
        let valid_at_start = st.vm.valid_blocks;
        let created_user_bytes = st.vm.created_user_bytes;
        st.slots.clear();
        self.gc_scratch = st.slots;
        let seg = &mut self.segments[victim_id as usize];
        debug_assert_eq!(seg.valid_blocks, 0, "live blocks left behind in victim");
        seg.reset();
        self.free.push(victim_id);
        self.metrics.segments_reclaimed += 1;
        if self.dur.is_some() {
            // Every live block was re-logged as a `BufferAppend` above, so
            // any WAL prefix containing this record also contains them.
            self.wal_append(WalRecord::Reclaim { seg: victim_id });
        }
        if self.events.enabled() {
            self.events.record(
                self.now_us,
                self.ops_seen,
                EventKind::GcCollect {
                    victim: victim_id,
                    group: victim_group,
                    valid_blocks: valid_at_start,
                    segment_blocks: self.cfg.segment_blocks(),
                    migrated,
                },
            );
        }
        let info = ReclaimInfo {
            seg: victim_id,
            group: victim_group,
            created_user_bytes,
            reclaimed_user_bytes: self.user_bytes_clock,
            migrated_blocks: migrated,
        };
        self.refresh_ctx();
        self.policy.on_segment_reclaimed(&self.ctx, &info);
        Ok(())
    }

    /// Rebuild the durable part of the block index by scanning segment
    /// contents, exactly as crash recovery would: every written slot is
    /// visited, and for each LBA the copy in the most recently opened
    /// segment (highest open-sequence, then highest offset) wins. Returns
    /// the recovered index. Copies are ordered by (chunk flush sequence,
    /// slot offset) — the flush sequence is globally monotone and a block's
    /// durable copies are always flushed in version order, so the maximum
    /// identifies the newest version even across concurrently open
    /// segments.
    ///
    /// Blocks that only exist in open-chunk buffers (pending, no shadow)
    /// are *lost* by a crash and absent from the recovered index — the
    /// SLA exists precisely to bound that window.
    pub fn recover_index(&self) -> BlockIndex {
        let chunk_blocks = self.cfg.chunk_blocks;
        // LBAs are dense, so the best-copy scan keeps one slot per block
        // instead of hashing every written slot; flush sequences never
        // reach u64::MAX, so that triple is a safe vacancy sentinel.
        const EMPTY: (u64, u32, SegmentId) = (u64::MAX, u32::MAX, SegmentId::MAX);
        let mut best: crate::index::DenseMap<(u64, u32, SegmentId)> =
            crate::index::DenseMap::with_capacity(EMPTY, self.index.len());
        for seg in &self.segments {
            if seg.state == SegmentState::Free {
                continue;
            }
            for (off, slot) in seg.written_slots() {
                let lba = match slot {
                    Slot::Block(l) | Slot::Shadow(l) => l,
                    _ => continue,
                };
                let flush_seq = seg.chunk_seqs[(off / chunk_blocks) as usize];
                match best.get(lba) {
                    Some((s, o, _)) if (s, o) >= (flush_seq, off) => {}
                    _ => {
                        best.insert(lba, (flush_seq, off, seg.id));
                    }
                }
            }
        }
        let mut index = BlockIndex::with_capacity(best.len() as u64);
        for (lba, (_, off, seg)) in best.iter() {
            index.set(lba, BlockEntry::Durable { seg, off });
        }
        index
    }

    /// Verify that crash recovery reproduces the live index's durable
    /// view: every `Durable` entry and every pending block's shadow copy
    /// must be found by the scan at the same location. Panics on drift;
    /// use [`Lss::try_check_recovery`] to report drift instead.
    pub fn check_recovery(&self) {
        self.try_check_recovery().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible variant of [`Lss::check_recovery`]: returns
    /// [`EngineError::IndexCorruption`] describing the first drifting LBA
    /// instead of aborting, so scenario runners can report recovery drift
    /// as a failure mode rather than crash mid-replay.
    pub fn try_check_recovery(&self) -> Result<(), EngineError> {
        let recovered = self.recover_index();
        for lba in 0..self.index.len() as Lba {
            let expect = match self.index.get(lba) {
                BlockEntry::Durable { seg, off } => Some((seg, off)),
                BlockEntry::Pending { shadow: Some((seg, off)), .. } => Some((seg, off)),
                _ => None,
            };
            if let Some((seg, off)) = expect {
                let got = recovered.get(lba);
                if got != (BlockEntry::Durable { seg, off }) {
                    return Err(EngineError::IndexCorruption {
                        lba,
                        detail: format!(
                            "recovery drift: live index has (seg {seg}, off {off}), scan found {got:?}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Durability: WAL hooks, checkpoints, recovery
    // ------------------------------------------------------------------

    /// Append one WAL record, maintaining the durable-version map. No-op
    /// without a durable backend.
    fn wal_append(&mut self, rec: WalRecord) {
        let Some(d) = self.dur.as_mut() else { return };
        match &rec {
            WalRecord::BufferAppend { lba, version, gc: false, .. } => {
                d.versions.insert(*lba, *version);
            }
            WalRecord::Trim { lba, blocks } => {
                for i in 0..*blocks as u64 {
                    d.versions.remove(lba + i);
                }
            }
            _ => {}
        }
        d.wal.append(&rec);
        if let WalRecord::Flush { slots, .. } = rec {
            // Reclaim the slot scratch for the next flush.
            d.wal_slot_buf = slots;
        }
    }

    /// One WAL commit point (end of a host-level operation); runs the
    /// checkpoint cadence. No-op without a durable backend.
    fn wal_commit(&mut self) -> Result<(), EngineError> {
        let Some(d) = self.dur.as_mut() else { return Ok(()) };
        d.wal.commit().map_err(EngineError::Wal)?;
        let cadence = d.wal.config().checkpoint_every_flushes;
        if cadence > 0 && d.flushes_since_checkpoint >= cadence && !self.in_gc {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Write a checkpoint: sync the WAL and the sink, rotate the log,
    /// atomically persist the state snapshot, and prune covered WAL
    /// files. Crash-safe at every step — a crash between rotation and the
    /// snapshot write leaves the old checkpoint plus the old WAL files,
    /// both intact. No-op without a durable backend.
    pub fn checkpoint(&mut self) -> Result<(), EngineError> {
        if self.dur.is_none() {
            return Ok(());
        }
        // A staged victim is mid-collection state the snapshot cannot
        // represent (its `GcBegin` is logged but its `Reclaim` is not,
        // and the checkpoint prunes both) — finish it first.
        if self.staged_gc.is_some() {
            self.in_gc = true;
            let drained = self.pump_staged(u32::MAX);
            self.in_gc = false;
            drained?;
        }
        self.dur.as_mut().unwrap().wal.sync().map_err(EngineError::Wal)?;
        self.sink.sync_for_checkpoint().map_err(|e| EngineError::Wal(array_to_wal(e)))?;
        let d = self.dur.as_mut().unwrap();
        let start_idx = d.wal.rotate_for_checkpoint().map_err(EngineError::Wal)?;
        let state = self.capture_durable_state(start_idx);
        let d = self.dur.as_mut().unwrap();
        state
            .store(&d.dir, d.wal.config().budget.as_ref(), d.wal.config().fsync_data)
            .map_err(EngineError::Wal)?;
        d.wal.prune_below(start_idx).map_err(EngineError::Wal)?;
        d.flushes_since_checkpoint = 0;
        Ok(())
    }

    /// Attach a fresh durable backend in `dir` (wiping any WAL files and
    /// checkpoint a previous incarnation left there — this is a new
    /// engine, not a recovery).
    pub(crate) fn enable_durability(
        &mut self,
        dir: &Path,
        cfg: DurabilityConfig,
    ) -> Result<(), WalError> {
        let wal = Wal::create(dir, cfg)?;
        match std::fs::remove_file(dir.join(recovery::CHECKPOINT_FILE)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        self.dur = Some(Box::new(Durability {
            wal,
            dir: dir.to_path_buf(),
            flushes_since_checkpoint: 0,
            versions: crate::index::VersionIndex::new(),
            wal_slot_buf: Vec::new(),
        }));
        Ok(())
    }

    /// Move host writes acknowledged by completed WAL syncs into `out` as
    /// `(lba, version)` pairs. A write is acknowledged exactly when the
    /// sync covering its `BufferAppend` record completes.
    pub fn drain_durable_acks(&mut self, out: &mut Vec<(Lba, u64)>) {
        if let Some(d) = self.dur.as_mut() {
            d.wal.drain_ready_acks(out);
        }
    }

    /// Drop the `(lba, version)` pairs [`Lss::drain_durable_acks`] would
    /// return. A caller that acknowledges writes through its own barrier
    /// calls this after each one, or the list grows by one pair per
    /// acknowledged write for the life of the engine.
    pub fn discard_durable_acks(&mut self) {
        if let Some(d) = self.dur.as_mut() {
            d.wal.discard_ready_acks();
        }
    }

    /// WAL activity counters, if a durable backend is attached.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.dur.as_ref().map(|d| *d.wal.stats())
    }

    /// Force a WAL sync (acknowledging everything appended so far).
    pub fn sync_wal(&mut self) -> Result<(), EngineError> {
        match self.dur.as_mut() {
            Some(d) => d.wal.sync().map_err(EngineError::Wal),
            None => Ok(()),
        }
    }

    /// Version (arrival µs) of the newest WAL-logged write of `lba`, per
    /// the durable backend. On a freshly recovered engine this reflects
    /// exactly the durable prefix — the crash sweep's ground truth.
    pub fn durable_version(&self, lba: Lba) -> Option<u64> {
        self.dur.as_ref().and_then(|d| d.versions.get(lba))
    }

    /// Snapshot the complete logical engine state for a checkpoint.
    fn capture_durable_state(&self, wal_start_idx: u64) -> DurableState {
        let d = self.dur.as_ref().expect("checkpoint without durability");
        let segments = self
            .segments
            .iter()
            .filter(|s| s.state != SegmentState::Free)
            .map(|s| SegmentSnap {
                id: s.id,
                group: s.group,
                state: match s.state {
                    SegmentState::Open => 1,
                    SegmentState::Sealed => 2,
                    SegmentState::Free => unreachable!(),
                },
                filled: s.filled,
                valid_blocks: s.valid_blocks,
                open_seq: s.open_seq,
                created_user_bytes: s.created_user_bytes,
                created_ts_us: s.created_ts_us,
                chunk_seqs: s.chunk_seqs.clone(),
                slots: s.raw_slots().to_vec(),
            })
            .collect();
        let groups = self
            .groups
            .iter()
            .map(|g| GroupSnap {
                open_segment: (g.open_segment != SegmentId::MAX).then_some(g.open_segment),
                sealed: g.sealed.clone(),
                pending: g
                    .pending
                    .iter()
                    .map(|p| PendingSnap {
                        lba: p.lba,
                        traffic: u8::from(p.traffic == Traffic::Gc),
                        arrival_us: p.arrival_us,
                        needs_sla: p.needs_sla,
                    })
                    .collect(),
                user_blocks: g.user_blocks,
                gc_blocks: g.gc_blocks,
                shadow_blocks: g.shadow_blocks,
                pad_blocks: g.pad_blocks,
                chunks: g.chunks,
                pad_chunks: g.pad_chunks,
            })
            .collect();
        let mut index = Vec::new();
        for lba in 0..self.index.len() as Lba {
            match self.index.get(lba) {
                BlockEntry::Absent => {}
                BlockEntry::Durable { seg, off } => {
                    index.push((lba, EntrySnap::Durable { seg, off }));
                }
                BlockEntry::Pending { group, shadow } => {
                    index.push((lba, EntrySnap::Pending { group, shadow }));
                }
            }
        }
        // `VersionIndex::iter` walks LBA order, so the snapshot comes out
        // sorted without an explicit pass.
        let versions: Vec<(u64, u64)> = d.versions.iter().collect();
        DurableState {
            geometry: GeometrySnap {
                block_bytes: self.cfg.block_bytes,
                chunk_blocks: self.cfg.chunk_blocks,
                segment_chunks: self.cfg.segment_chunks,
                user_blocks: self.cfg.user_blocks,
                num_groups: self.groups.len() as u32,
                total_segments: self.segments.len() as u32,
            },
            wal_start_idx,
            now_us: self.now_us,
            user_bytes_clock: self.user_bytes_clock,
            ops_seen: self.ops_seen,
            next_open_seq: self.next_open_seq,
            next_flush_seq: self.next_flush_seq,
            segments,
            groups,
            index,
            versions,
        }
    }

    /// Restore a checkpoint snapshot into a freshly built engine. Every
    /// structural claim the snapshot makes is validated — a corrupt (but
    /// CRC-valid, hence deliberately damaged) snapshot yields
    /// [`RecoveryError::BadCheckpoint`], never a panic.
    fn apply_durable_state(
        &mut self,
        state: &DurableState,
        versions: &mut crate::index::VersionIndex,
    ) -> Result<(), RecoveryError> {
        // Groups are rebuilt wholesale below; every context snapshot is
        // stale afterwards.
        self.ctx_dirty_all = true;
        let bad = |detail: String| RecoveryError::BadCheckpoint { detail };
        let g = &state.geometry;
        let want = GeometrySnap {
            block_bytes: self.cfg.block_bytes,
            chunk_blocks: self.cfg.chunk_blocks,
            segment_chunks: self.cfg.segment_chunks,
            user_blocks: self.cfg.user_blocks,
            num_groups: self.groups.len() as u32,
            total_segments: self.segments.len() as u32,
        };
        if *g != want {
            return Err(RecoveryError::GeometryMismatch {
                detail: format!("checkpoint {g:?} vs engine {want:?}"),
            });
        }
        if state.groups.len() != self.groups.len() {
            return Err(bad(format!(
                "{} group snapshots for {} groups",
                state.groups.len(),
                self.groups.len()
            )));
        }
        let chunk_blocks = self.cfg.chunk_blocks;
        let mut present = vec![false; self.segments.len()];
        for snap in &state.segments {
            let Some(seg) = self.segments.get_mut(snap.id as usize) else {
                return Err(bad(format!("segment id {} out of range", snap.id)));
            };
            if present[snap.id as usize] {
                return Err(bad(format!("segment {} appears twice", snap.id)));
            }
            present[snap.id as usize] = true;
            let cap = seg.capacity();
            if snap.slots.len() != cap as usize
                || snap.filled > cap
                || !snap.filled.is_multiple_of(chunk_blocks)
                || snap.chunk_seqs.len() != (snap.filled / chunk_blocks) as usize
                || snap.valid_blocks > snap.filled
                || snap.group as usize >= state.groups.len()
            {
                return Err(bad(format!("segment {} snapshot inconsistent", snap.id)));
            }
            seg.state = match snap.state {
                1 => SegmentState::Open,
                2 if snap.filled == cap => SegmentState::Sealed,
                _ => return Err(bad(format!("segment {} bad state {}", snap.id, snap.state))),
            };
            seg.group = snap.group;
            seg.filled = snap.filled;
            seg.valid_blocks = snap.valid_blocks;
            seg.open_seq = snap.open_seq;
            seg.created_user_bytes = snap.created_user_bytes;
            seg.created_ts_us = snap.created_ts_us;
            seg.chunk_seqs = snap.chunk_seqs.clone();
            seg.restore_raw_slots(&snap.slots);
        }
        self.free = (0..self.segments.len() as SegmentId)
            .rev()
            .filter(|&id| !present[id as usize])
            .collect();
        self.buckets = SegmentBuckets::new(self.cfg.segment_blocks(), self.segments.len());
        for (gid, snap) in state.groups.iter().enumerate() {
            if let Some(open) = snap.open_segment {
                let ok = self
                    .segments
                    .get(open as usize)
                    .is_some_and(|s| s.state == SegmentState::Open && s.group as usize == gid);
                if !ok {
                    return Err(bad(format!("group {gid}: bad open segment {open}")));
                }
            }
            for (pos, &sid) in snap.sealed.iter().enumerate() {
                let Some(s) = self.segments.get_mut(sid as usize) else {
                    return Err(bad(format!("group {gid}: sealed id {sid} out of range")));
                };
                if s.state != SegmentState::Sealed || s.group as usize != gid {
                    return Err(bad(format!("group {gid}: segment {sid} not its sealed")));
                }
                s.group_pos = pos as u32;
                let (valid, created) = (s.valid_blocks, s.created_user_bytes);
                self.buckets.insert(sid, valid, created);
            }
            let grp = &mut self.groups[gid];
            grp.open_segment = snap.open_segment.unwrap_or(SegmentId::MAX);
            grp.sealed = snap.sealed.clone();
            grp.pending.clear();
            for p in &snap.pending {
                if grp.pending.len() >= chunk_blocks as usize {
                    return Err(bad(format!("group {gid}: pending buffer over chunk size")));
                }
                grp.pending.push(PendingBlock {
                    lba: p.lba,
                    traffic: match p.traffic {
                        0 => Traffic::User,
                        1 => Traffic::Gc,
                        t => return Err(bad(format!("group {gid}: bad traffic tag {t}"))),
                    },
                    arrival_us: p.arrival_us,
                    needs_sla: p.needs_sla,
                });
            }
            grp.user_blocks = snap.user_blocks;
            grp.gc_blocks = snap.gc_blocks;
            grp.shadow_blocks = snap.shadow_blocks;
            grp.pad_blocks = snap.pad_blocks;
            grp.chunks = snap.chunks;
            grp.pad_chunks = snap.pad_chunks;
        }
        self.index = BlockIndex::with_capacity(self.cfg.user_blocks);
        for &(lba, entry) in &state.index {
            let ok = match entry {
                EntrySnap::Durable { seg, off } => self
                    .segments
                    .get(seg as usize)
                    .is_some_and(|s| s.state != SegmentState::Free && off < s.filled),
                EntrySnap::Pending { group, shadow } => {
                    (group as usize) < self.groups.len()
                        && shadow.is_none_or(|(seg, off)| {
                            self.segments.get(seg as usize).is_some_and(|s| off < s.filled)
                        })
                }
            };
            if !ok {
                return Err(bad(format!("index entry for lba {lba} out of range")));
            }
            let e = match entry {
                EntrySnap::Durable { seg, off } => BlockEntry::Durable { seg, off },
                EntrySnap::Pending { group, shadow } => BlockEntry::Pending { group, shadow },
            };
            self.index.set(lba, e);
        }
        self.now_us = state.now_us;
        self.user_bytes_clock = state.user_bytes_clock;
        self.ops_seen = state.ops_seen;
        self.next_open_seq = state.next_open_seq;
        self.next_flush_seq = state.next_flush_seq;
        // Group pending buffers were rebuilt wholesale; any cached SLA
        // deadline is stale (`recover_in_place` recomputes per group).
        self.sla_dirty = true;
        versions.clear();
        for &(lba, version) in &state.versions {
            versions.insert(lba, version);
        }
        Ok(())
    }

    /// Re-apply one replayed WAL record, mirroring exactly the engine
    /// mutation that produced it. Every id is bounds-checked and every
    /// structural premise validated: a log inconsistent with the
    /// reconstructed state yields [`RecoveryError::Replay`], never a
    /// panic.
    fn replay_record(
        &mut self,
        rec: &WalRecord,
        versions: &mut crate::index::VersionIndex,
        detached: &mut Vec<SegmentId>,
        report: &mut RecoveryReport,
    ) -> Result<(), RecoveryError> {
        // Replay mutates groups along many arms; this is a cold path, so
        // one wholesale mark per record beats per-arm bookkeeping.
        self.ctx_dirty_all = true;
        let bad = |detail: String| RecoveryError::Replay { detail };
        match rec {
            WalRecord::Open { seg, group, open_seq, created_user_bytes, created_ts_us } => {
                let gid = *group as usize;
                if gid >= self.groups.len() || *seg as usize >= self.segments.len() {
                    return Err(bad(format!("open: bad ids (seg {seg}, group {group})")));
                }
                if self.groups[gid].open_segment != SegmentId::MAX {
                    return Err(bad(format!("open: group {group} already has an open segment")));
                }
                let Some(pos) = self.free.iter().position(|&f| f == *seg) else {
                    return Err(bad(format!("open: segment {seg} is not free")));
                };
                self.free.swap_remove(pos);
                let s = &mut self.segments[*seg as usize];
                s.open(*group, *created_user_bytes, *created_ts_us);
                s.open_seq = *open_seq;
                self.groups[gid].open_segment = *seg;
                self.next_open_seq = self.next_open_seq.max(open_seq + 1);
            }
            WalRecord::BufferAppend { lba, version, group, gc, needs_sla } => {
                let gid = *group as usize;
                if gid >= self.groups.len() {
                    return Err(bad(format!("append: bad group {group}")));
                }
                self.retire_previous_version(*lba)
                    .map_err(|e| bad(format!("append lba {lba}: {e}")))?;
                if self.groups[gid].pending.len() >= self.cfg.chunk_blocks as usize {
                    return Err(bad(format!("append: group {group} buffer over chunk size")));
                }
                self.groups[gid].pending.push(PendingBlock {
                    lba: *lba,
                    traffic: if *gc { Traffic::Gc } else { Traffic::User },
                    arrival_us: *version,
                    needs_sla: *needs_sla,
                });
                self.index.set(*lba, BlockEntry::Pending { group: *group, shadow: None });
                if !*gc {
                    versions.insert(*lba, *version);
                }
                self.now_us = self.now_us.max(*version);
                report.buffered_blocks_redone += 1;
            }
            WalRecord::Flush {
                flush_seq,
                seg,
                chunk_in_seg,
                group,
                now_us,
                user_bytes_clock,
                pad_blocks,
                slots,
            } => {
                let gid = *group as usize;
                let chunk_blocks = self.cfg.chunk_blocks;
                if gid >= self.groups.len() || *seg as usize >= self.segments.len() {
                    return Err(bad(format!("flush: bad ids (seg {seg}, group {group})")));
                }
                if self.groups[gid].open_segment != *seg {
                    return Err(bad(format!("flush: segment {seg} not open for group {group}")));
                }
                if *flush_seq != self.next_flush_seq {
                    return Err(bad(format!(
                        "flush: sequence {flush_seq} but engine expects {}",
                        self.next_flush_seq
                    )));
                }
                {
                    let s = &self.segments[*seg as usize];
                    if s.filled / chunk_blocks != *chunk_in_seg
                        || s.filled + chunk_blocks > s.capacity()
                        || slots.len() as u32 + pad_blocks != chunk_blocks
                    {
                        return Err(bad(format!("flush: shape mismatch on segment {seg}")));
                    }
                }
                let mut user = 0u64;
                let mut gc = 0u64;
                let mut shadow_cnt = 0u64;
                for slot in slots {
                    match slot.kind {
                        WalSlotKind::User | WalSlotKind::Gc => {
                            let Some(pos) = self.groups[gid].find_pending(slot.lba) else {
                                return Err(bad(format!(
                                    "flush: block {} not in group {group}'s buffer",
                                    slot.lba
                                )));
                            };
                            // `remove`, not `swap_remove`: keep the engine's
                            // oldest-first residue order.
                            self.groups[gid].pending.remove(pos);
                            match self.index.get(slot.lba) {
                                BlockEntry::Pending { group: home, shadow } if home == *group => {
                                    // Lazy-append completion: the durable
                                    // shadow elsewhere dies now.
                                    if let Some((sseg, soff)) = shadow {
                                        let ok =
                                            self.segments.get(sseg as usize).is_some_and(|s| {
                                                s.slot(soff) == Slot::Shadow(slot.lba)
                                            });
                                        if !ok {
                                            return Err(bad(format!(
                                                "flush: stale shadow for lba {}",
                                                slot.lba
                                            )));
                                        }
                                        self.segments[sseg as usize].clear_slot(soff);
                                        self.invalidate_block(sseg);
                                    }
                                }
                                other => {
                                    return Err(bad(format!(
                                        "flush: lba {} in state {other:?}",
                                        slot.lba
                                    )));
                                }
                            }
                            let off =
                                self.segments[*seg as usize].append_slot(Slot::Block(slot.lba));
                            self.segments[*seg as usize].valid_blocks += 1;
                            self.index.set(slot.lba, BlockEntry::Durable { seg: *seg, off });
                            if slot.kind == WalSlotKind::Gc {
                                gc += 1;
                            } else {
                                user += 1;
                            }
                        }
                        WalSlotKind::Shadow => match self.index.get(slot.lba) {
                            BlockEntry::Pending { group: home, shadow: None } => {
                                let off = self.segments[*seg as usize]
                                    .append_slot(Slot::Shadow(slot.lba));
                                self.segments[*seg as usize].valid_blocks += 1;
                                self.index.set(
                                    slot.lba,
                                    BlockEntry::Pending { group: home, shadow: Some((*seg, off)) },
                                );
                                // The engine stops the home blocks' SLA
                                // timers once their shadows are durable;
                                // shadows cover exactly that set, so replay
                                // clears per shadowed block.
                                if let Some(pos) = self.groups[home as usize].find_pending(slot.lba)
                                {
                                    self.groups[home as usize].pending[pos].needs_sla = false;
                                }
                                shadow_cnt += 1;
                            }
                            other => {
                                return Err(bad(format!(
                                    "flush: shadow source lba {} in state {other:?}",
                                    slot.lba
                                )));
                            }
                        },
                    }
                }
                for _ in 0..*pad_blocks {
                    self.segments[*seg as usize].append_slot(Slot::Pad);
                }
                self.segments[*seg as usize].chunk_seqs.push(*flush_seq);
                self.next_flush_seq += 1;
                self.groups[gid].account_chunk(user, gc, shadow_cnt, *pad_blocks as u64);
                self.groups[gid].recompute_pending_since();
                self.sla_dirty = true;
                self.now_us = self.now_us.max(*now_us);
                self.user_bytes_clock = self.user_bytes_clock.max(*user_bytes_clock);
                if self.segments[*seg as usize].is_full() {
                    let (valid, created) = {
                        let s = &mut self.segments[*seg as usize];
                        s.seal();
                        (s.valid_blocks, s.created_user_bytes)
                    };
                    self.buckets.insert(*seg, valid, created);
                    self.segments[*seg as usize].group_pos = self.groups[gid].sealed.len() as u32;
                    self.groups[gid].sealed.push(*seg);
                    self.groups[gid].roll_window();
                    self.groups[gid].open_segment = SegmentId::MAX;
                    // No policy callback and no GC here: policy state is
                    // soft (reset by recovery), and any GC the live engine
                    // ran is in the log as its own records.
                }
                report.flushes_replayed += 1;
            }
            WalRecord::GcBegin { seg } => {
                if *seg as usize >= self.segments.len() {
                    return Err(bad(format!("gc begin: bad segment {seg}")));
                }
                let (state_now, owner, pos) = {
                    let s = &self.segments[*seg as usize];
                    (s.state, s.group as usize, s.group_pos as usize)
                };
                if state_now != SegmentState::Sealed || detached.contains(seg) {
                    return Err(bad(format!("gc begin: segment {seg} not a sealed candidate")));
                }
                self.buckets.remove(*seg);
                let grp = &mut self.groups[owner];
                if grp.sealed.get(pos) != Some(seg) {
                    return Err(bad(format!("gc begin: segment {seg} not in owner's sealed list")));
                }
                grp.sealed.swap_remove(pos);
                if let Some(&moved) = grp.sealed.get(pos) {
                    self.segments[moved as usize].group_pos = pos as u32;
                }
                detached.push(*seg);
            }
            WalRecord::Reclaim { seg } => {
                let Some(dpos) = detached.iter().position(|d| d == seg) else {
                    return Err(bad(format!("reclaim: segment {seg} without a gc begin")));
                };
                let valid = self.segments[*seg as usize].valid_blocks;
                if valid != 0 {
                    // The migrations that drained it precede this record in
                    // log order, so a prefix can never reclaim live data.
                    return Err(bad(format!("reclaim: segment {seg} still has {valid} live")));
                }
                detached.swap_remove(dpos);
                self.segments[*seg as usize].reset();
                self.free.push(*seg);
            }
            WalRecord::Trim { lba, blocks } => {
                for i in 0..*blocks as u64 {
                    if !matches!(self.index.get(lba + i), BlockEntry::Absent) {
                        self.retire_previous_version(lba + i)
                            .map_err(|e| bad(format!("trim lba {}: {e}", lba + i)))?;
                    }
                    versions.remove(lba + i);
                }
            }
        }
        Ok(())
    }

    /// Recover this freshly built engine from the durable state in `dir`:
    /// load the checkpoint (if any), replay the WAL's durable prefix,
    /// repair its torn tail, reconcile the sink, and resume logging.
    pub(crate) fn recover_in_place(
        &mut self,
        dir: &Path,
        cfg: DurabilityConfig,
    ) -> Result<RecoveryReport, RecoveryError> {
        let mut report = RecoveryReport::default();
        let mut versions = crate::index::VersionIndex::new();
        self.ctx_dirty_all = true;
        let checkpoint = recovery::load_checkpoint(dir)?;
        let start_idx = match &checkpoint {
            Some(state) => {
                self.apply_durable_state(state, &mut versions)?;
                report.checkpoint_loaded = true;
                state.wal_start_idx
            }
            None => 0,
        };
        let replay = wal::replay_dir(dir, start_idx)?;
        report.wal_files_scanned = replay.files_scanned;
        let mut detached = Vec::new();
        for rec in &replay.records {
            self.replay_record(rec, &mut versions, &mut detached, &mut report)?;
            report.records_applied += 1;
        }
        // A prefix cut between a victim's `GcBegin` and its `Reclaim`
        // leaves it detached mid-collection. Re-attach it as an ordinary
        // sealed segment: its migrated blocks already retired their old
        // copies, so what remains is simply a sealed segment with some
        // garbage — a future GC pass will pick it up again.
        for seg in detached {
            let (owner, valid, created) = {
                let s = &self.segments[seg as usize];
                (s.group as usize, s.valid_blocks, s.created_user_bytes)
            };
            self.segments[seg as usize].group_pos = self.groups[owner].sealed.len() as u32;
            self.groups[owner].sealed.push(seg);
            self.buckets.insert(seg, valid, created);
        }
        if let Some(torn) = replay.torn {
            report.torn_tail = Some((torn.file_idx, torn.offset));
        }
        wal::repair_tail(dir, &replay)?;
        // Recompute array locations from flush sequences — the engine and
        // the sink advance in lockstep, so chunk N of the log is chunk N
        // of the array, always.
        let layout = Raid5Layout::new(*self.sink.config());
        for seg in &mut self.segments {
            if seg.state == SegmentState::Free {
                continue;
            }
            seg.chunk_locs = seg.chunk_seqs.iter().map(|&q| layout.locate(q)).collect();
        }
        for grp in &mut self.groups {
            grp.recompute_pending_since();
        }
        self.sla_dirty = true;
        // Hand the sink the replayed tail (the flushes a checkpoint-time
        // sink sync does not already cover) so it can verify, restore, or
        // truncate its own records.
        let block_bytes = self.cfg.block_bytes;
        let tail: Vec<RecoveredFlush> = replay
            .records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Flush {
                    flush_seq, seg, chunk_in_seg, group, pad_blocks, slots, ..
                } => {
                    let mut user = 0u64;
                    let mut gc = 0u64;
                    let mut shadow = 0u64;
                    for s in slots {
                        match s.kind {
                            WalSlotKind::User => user += 1,
                            WalSlotKind::Gc => gc += 1,
                            WalSlotKind::Shadow => shadow += 1,
                        }
                    }
                    Some(RecoveredFlush {
                        chunk_seq: *flush_seq,
                        flush: ChunkFlush {
                            user_bytes: user * block_bytes,
                            gc_bytes: gc * block_bytes,
                            shadow_bytes: shadow * block_bytes,
                            pad_bytes: *pad_blocks as u64 * block_bytes,
                            group: *group,
                            seg: *seg,
                            chunk_in_seg: *chunk_in_seg,
                        },
                    })
                }
                _ => None,
            })
            .collect();
        report.sink = self.sink.recover_reconcile(self.next_flush_seq, &tail)?;
        let wal = Wal::resume(dir, cfg, replay.next_idx)?;
        self.dur = Some(Box::new(Durability {
            wal,
            dir: dir.to_path_buf(),
            flushes_since_checkpoint: 0,
            versions,
            wal_slot_buf: Vec::new(),
        }));
        Ok(report)
    }

    /// Rebuild one group's snapshot from its current state.
    fn snap_group(snap: &mut crate::placement::GroupSnapshot, g: &Group, chunk_blocks: u32) {
        let (wb, wpc, wpb) = g.window_totals();
        snap.pending_blocks = g.pending.len() as u32;
        snap.chunk_blocks = chunk_blocks;
        snap.segments = g.segment_count();
        snap.user_blocks = g.user_blocks;
        snap.gc_blocks = g.gc_blocks;
        snap.window_blocks = wb;
        snap.window_pad_chunks = wpc;
        snap.window_pad_blocks = wpb;
        snap.ewma_gap_us = g.ewma_gap_us();
    }

    /// Refresh the scratch policy context from engine state. Incremental:
    /// only groups whose `ctx_dirty` flag is set since the previous
    /// refresh are re-snapshotted (see the field docs for the contract).
    fn refresh_ctx(&mut self) {
        self.ctx.now_us = self.now_us;
        self.ctx.user_bytes = self.user_bytes_clock;
        let chunk_blocks = self.cfg.chunk_blocks;
        if self.ctx_dirty_all {
            self.ctx_dirty_all = false;
            self.ctx_dirty.fill(false);
            for (snap, g) in self.ctx.groups.iter_mut().zip(&self.groups) {
                Self::snap_group(snap, g, chunk_blocks);
            }
        } else {
            for (i, dirty) in self.ctx_dirty.iter_mut().enumerate() {
                if *dirty {
                    *dirty = false;
                    Self::snap_group(&mut self.ctx.groups[i], &self.groups[i], chunk_blocks);
                }
            }
        }
        // Debug builds re-derive every snapshot on every refresh: a group
        // mutation site missing its `ctx_dirty` mark trips this across the
        // whole test suite instead of silently handing policies stale state.
        #[cfg(debug_assertions)]
        for (snap, g) in self.ctx.groups.iter().zip(&self.groups) {
            let mut fresh = crate::placement::GroupSnapshot::default();
            Self::snap_group(&mut fresh, g, chunk_blocks);
            debug_assert_eq!(*snap, fresh, "stale policy-context cache for group {}", g.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::GroupKind;
    use adapt_array::CountingArray;

    /// Two-group test policy: user writes to group 0, GC rewrites to
    /// group 1 (SepGC-shaped), with a switch to exercise shadow append.
    struct TestPolicy {
        groups: Vec<GroupKind>,
        shadow_to: Option<GroupId>,
        reclaims: u32,
        seals: u32,
    }

    impl TestPolicy {
        fn sepgc() -> Self {
            Self {
                groups: vec![GroupKind::User, GroupKind::Gc],
                shadow_to: None,
                reclaims: 0,
                seals: 0,
            }
        }

        fn with_shadow() -> Self {
            Self {
                groups: vec![GroupKind::User, GroupKind::User, GroupKind::Gc],
                shadow_to: Some(1),
                reclaims: 0,
                seals: 0,
            }
        }
    }

    impl PlacementPolicy for TestPolicy {
        fn name(&self) -> &'static str {
            "test"
        }
        fn groups(&self) -> &[GroupKind] {
            &self.groups
        }
        fn place_user(&mut self, _ctx: &PolicyCtx, _lba: Lba) -> GroupId {
            0
        }
        fn place_gc(&mut self, _ctx: &PolicyCtx, _lba: Lba, _v: &VictimMeta) -> GroupId {
            self.groups.len() as GroupId - 1
        }
        fn on_sla_expire(&mut self, _ctx: &PolicyCtx, group: GroupId) -> SlaAction {
            match self.shadow_to {
                Some(t) if group == 0 => SlaAction::ShadowAppend { target: t },
                _ => SlaAction::Pad,
            }
        }
        fn on_segment_sealed(&mut self, _ctx: &PolicyCtx, _m: &SegmentMeta) {
            self.seals += 1;
        }
        fn on_segment_reclaimed(&mut self, _ctx: &PolicyCtx, _i: &ReclaimInfo) {
            self.reclaims += 1;
        }
    }

    fn small_cfg() -> LssConfig {
        LssConfig {
            user_blocks: 4096, // 32 segments of 128 blocks
            op_ratio: 0.5,     // 16 spare segments (watermarks hold ~7 back)
            gc_low_water: 5,
            gc_high_water: 7,
            ..Default::default()
        }
    }

    fn engine(policy: TestPolicy) -> Lss<TestPolicy, CountingArray> {
        let cfg = small_cfg();
        Lss::builder(policy, CountingArray::new(cfg.array_config())).config(cfg).build()
    }

    #[test]
    fn dense_writes_fill_chunks_without_padding() {
        let mut e = engine(TestPolicy::sepgc());
        // 64 blocks back-to-back (1 µs apart, well under the SLA in sum
        // because each chunk of 16 fills within 16 µs).
        for i in 0..64u64 {
            e.write(i, i);
        }
        assert_eq!(e.metrics().chunks_flushed, 4);
        assert_eq!(e.metrics().pad_bytes, 0);
        assert_eq!(e.metrics().user_bytes, 64 * 4096);
        e.check_invariants();
    }

    #[test]
    fn sparse_writes_trigger_sla_padding() {
        let mut e = engine(TestPolicy::sepgc());
        // 4 writes spaced 1 ms apart: each times out alone in its chunk.
        for i in 0..4u64 {
            e.write(i * 1000, i);
        }
        e.advance_time(10_000);
        assert_eq!(e.metrics().chunks_flushed, 4);
        assert_eq!(e.metrics().padded_chunks, 4);
        // Each chunk: 1 block payload + 15 pad.
        assert_eq!(e.metrics().pad_bytes, 4 * 15 * 4096);
        e.check_invariants();
    }

    #[test]
    fn sla_fires_exactly_at_window_edge() {
        let mut e = engine(TestPolicy::sepgc());
        e.write(0, 1);
        // Just before the deadline: nothing flushed.
        e.advance_time(99);
        assert_eq!(e.metrics().chunks_flushed, 0);
        // At the deadline: padded flush.
        e.advance_time(100);
        assert_eq!(e.metrics().chunks_flushed, 1);
        assert_eq!(e.metrics().padded_chunks, 1);
    }

    #[test]
    fn overwrite_in_buffer_is_absorbed() {
        let mut e = engine(TestPolicy::sepgc());
        e.write(0, 7);
        e.write(1, 7); // overwrites the still-buffered copy
        e.advance_time(1_000);
        assert_eq!(e.metrics().buffer_absorbed_blocks, 1);
        // Only one copy ever flushed.
        assert_eq!(e.metrics().user_bytes, 4096);
        e.check_invariants();
    }

    /// Deterministic scattered LBA sequence (sequential overwrites would
    /// invalidate whole segments at once and give GC nothing to migrate).
    fn scattered_lba(i: u64, space: u64) -> u64 {
        adapt_trace::rng::mix64(i) % space
    }

    #[test]
    fn overwrites_eventually_trigger_gc() {
        let mut e = engine(TestPolicy::sepgc());
        let mut ts = 0u64;
        // Fill the volume, then overwrite randomly, densely.
        for lba in 0..4096u64 {
            e.write(ts, lba);
            ts += 1;
        }
        for i in 0..5 * 4096u64 {
            e.write(ts, scattered_lba(i, 4096));
            ts += 1;
        }
        assert!(e.metrics().gc_passes > 0, "GC never ran");
        assert!(e.metrics().segments_reclaimed > 0);
        assert!(e.metrics().gc_bytes > 0, "GC migrated nothing");
        assert!(e.free_segments() > 0);
        e.check_invariants();
        // WA must be sane for uniform-random overwrites at ~80% effective
        // utilization: above 1 (migration happened), below pathological.
        let wa = e.metrics().wa();
        assert!(wa > 1.1 && wa < 4.5, "wa {wa}");
    }

    #[test]
    fn gc_writes_do_not_start_sla_timers() {
        let mut e = engine(TestPolicy::sepgc());
        let mut ts = 0u64;
        for lba in 0..4096u64 {
            e.write(ts, lba);
            ts += 1;
        }
        for i in 0..5 * 4096u64 {
            e.write(ts, scattered_lba(i, 4096));
            ts += 1;
        }
        // Let the final user blocks' own SLA window resolve first...
        e.advance_time(ts + 200);
        let padded_before = e.metrics().padded_chunks;
        // ...then jump far ahead: pending GC blocks must NOT pad out.
        e.advance_time(ts + 1_000_000);
        assert_eq!(e.metrics().padded_chunks, padded_before);
    }

    #[test]
    fn shadow_append_persists_without_padding_home_group() {
        let mut e = engine(TestPolicy::with_shadow());
        // One sparse block: SLA expiry → shadow append into group 1.
        e.write(0, 42);
        e.advance_time(1_000);
        assert_eq!(e.metrics().shadow_append_events, 1);
        assert_eq!(e.metrics().shadow_bytes, 4096);
        // The donated chunk was padded (nothing else pending in group 1).
        assert_eq!(e.metrics().padded_chunks, 1);
        e.check_invariants();
        // The block is durable (via shadow) yet still pending in group 0.
        // Now fill group 0's chunk: lazy append completes, shadow dies.
        for i in 0..16u64 {
            e.write(2_000 + i, 100 + i);
        }
        assert!(e.metrics().lazy_appends >= 1);
        e.check_invariants();
    }

    #[test]
    fn shadow_then_overwrite_kills_shadow_copy() {
        let mut e = engine(TestPolicy::with_shadow());
        e.write(0, 42);
        e.advance_time(1_000); // shadow append happened
        e.write(2_000, 42); // overwrite: pending + shadow both die
                            // The rewritten block is sparse again, so it gets shadow-appended a
                            // second time at its own SLA deadline.
        e.advance_time(100_000);
        e.flush_all();
        e.check_invariants();
        let m = e.metrics();
        assert_eq!(m.shadow_append_events, 2);
        assert_eq!(m.shadow_bytes, 2 * 4096);
        // Exactly one copy of lba 42 was ever host-written twice.
        assert_eq!(m.host_write_bytes, 2 * 4096);
    }

    #[test]
    fn flush_all_drains_every_buffer() {
        let mut e = engine(TestPolicy::sepgc());
        e.write(0, 1);
        e.write(0, 2);
        e.flush_all();
        assert_eq!(e.metrics().chunks_flushed, 1);
        assert_eq!(e.metrics().user_bytes, 2 * 4096);
        e.check_invariants();
    }

    #[test]
    fn policy_lifecycle_callbacks_fire() {
        let mut e = engine(TestPolicy::sepgc());
        for i in 0..5 * 4096u64 {
            e.write(i, scattered_lba(i, 4096));
        }
        assert!(e.policy().seals > 0);
        assert!(e.policy().reclaims > 0);
    }

    #[test]
    fn metrics_reset_starts_clean_window() {
        let mut e = engine(TestPolicy::sepgc());
        for i in 0..4096u64 {
            e.write(i, i);
        }
        e.reset_metrics();
        assert_eq!(e.metrics().host_write_bytes, 0);
        for i in 0..16u64 {
            e.write(100_000 + i, i);
        }
        assert_eq!(e.metrics().host_write_bytes, 16 * 4096);
        e.check_invariants();
    }

    #[test]
    fn group_traffic_accounts_all_flushed_blocks() {
        let mut e = engine(TestPolicy::sepgc());
        let mut ts = 0;
        for lba in 0..4096u64 {
            e.write(ts, lba);
            ts += 1;
        }
        for i in 0..5 * 4096u64 {
            e.write(ts, scattered_lba(i, 4096));
            ts += 1;
        }
        e.flush_all();
        let gt = e.group_traffic();
        // Group 0 got user traffic; group 1 only GC traffic.
        assert!(gt[0].user_blocks > 0);
        assert_eq!(gt[0].gc_blocks, 0);
        assert_eq!(gt[1].user_blocks, 0);
        assert!(gt[1].gc_blocks > 0);
        let m = e.metrics();
        let total_blocks: u64 = gt.iter().map(|g| g.total_blocks()).sum();
        assert_eq!(total_blocks * 4096, m.physical_bytes());
    }

    #[test]
    fn bytes_clock_monotonic_and_counts_hosts_writes() {
        let mut e = engine(TestPolicy::sepgc());
        e.write_request(0, 0, 4);
        assert_eq!(e.user_bytes_clock(), 4 * 4096);
        assert_eq!(e.metrics().host_write_bytes, 4 * 4096);
    }

    #[test]
    fn reads_fetch_whole_chunks() {
        let mut e = engine(TestPolicy::sepgc());
        // 32 dense writes: two full chunks flushed.
        for i in 0..32u64 {
            e.write(i, i);
        }
        // Read 4 blocks that live in the same chunk: one chunk fetched.
        e.read_request(100, 0, 4);
        assert_eq!(e.metrics().host_read_bytes, 4 * 4096);
        assert_eq!(e.metrics().array_read_bytes, 64 * 1024);
        // A read spanning both chunks fetches two.
        e.read_request(101, 12, 8);
        assert_eq!(e.metrics().array_read_bytes, 3 * 64 * 1024);
        assert!(e.metrics().read_amplification() > 1.0);
    }

    #[test]
    fn buffered_blocks_read_from_ram() {
        let mut e = engine(TestPolicy::sepgc());
        e.write(0, 7); // still pending
        e.read_request(1, 7, 1);
        assert_eq!(e.metrics().buffer_read_blocks, 1);
        assert_eq!(e.metrics().array_read_bytes, 0);
    }

    #[test]
    fn unwritten_blocks_read_as_zeroes() {
        let mut e = engine(TestPolicy::sepgc());
        e.read_request(0, 100, 4);
        assert_eq!(e.metrics().array_read_bytes, 0);
        assert_eq!(e.metrics().host_read_bytes, 4 * 4096);
    }

    #[test]
    fn trim_invalidates_blocks() {
        let mut e = engine(TestPolicy::sepgc());
        for i in 0..16u64 {
            e.write(i, i); // one full chunk, durable
        }
        e.trim(100, 0, 8);
        assert_eq!(e.metrics().trimmed_blocks, 8);
        e.check_invariants();
        // Trimming unwritten space is a no-op.
        e.trim(101, 1000, 4);
        assert_eq!(e.metrics().trimmed_blocks, 8);
        // Trimmed blocks no longer cost GC migration: reading them back is
        // zero-fill (no array bytes).
        let before = e.metrics().array_read_bytes;
        e.read_request(102, 0, 8);
        assert_eq!(e.metrics().array_read_bytes, before);
    }

    #[test]
    fn background_gc_steps_keep_pool_healthy() {
        let mut cfg = small_cfg();
        cfg.background_gc = true;
        let mut e = Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .build();
        let mut steps = 0u64;
        for i in 0..6 * 4096u64 {
            e.write(i, scattered_lba(i, 4096));
            // A cooperating "GC thread": step whenever the pool runs low.
            while e.needs_gc() && e.gc_step() {
                steps += 1;
            }
        }
        assert!(steps > 0, "background steps never ran");
        assert!(e.free_segments() > 0);
        e.check_invariants();
        e.check_recovery();
    }

    /// ADAPT_GC_SYNC aside, overlap collapses to the exact legacy path at
    /// `jobs = 1`: every metric — WA, reclaim counts, latency histograms —
    /// must be bit-identical to a run with the knob off. This is the
    /// determinism contract the sweep gates rely on.
    #[test]
    fn overlap_at_jobs_1_is_bit_identical_to_sync_gc() {
        rayon::with_jobs(1, || {
            let sync_cfg = small_cfg();
            let ov_cfg = LssConfig { gc_overlap: true, ..small_cfg() };
            let mut a =
                Lss::builder(TestPolicy::sepgc(), CountingArray::new(sync_cfg.array_config()))
                    .config(sync_cfg)
                    .build();
            let mut b =
                Lss::builder(TestPolicy::sepgc(), CountingArray::new(ov_cfg.array_config()))
                    .config(ov_cfg)
                    .build();
            for i in 0..6 * 4096u64 {
                a.write(i, scattered_lba(i, 4096));
                b.write(i, scattered_lba(i, 4096));
            }
            assert!(a.metrics().segments_reclaimed > 0, "workload must exercise GC");
            assert_eq!(a.metrics(), b.metrics(), "jobs=1 overlap drifted from sync GC");
            assert_eq!(a.free_segments(), b.free_segments());
            assert_eq!(a.utilization_histogram(), b.utilization_histogram());
            for lba in 0..4096u64 {
                assert_eq!(a.index.get(lba), b.index.get(lba), "index drift at lba {lba}");
            }
        });
    }

    /// With multiple workers configured, overlap mode stages victims and
    /// drains them across foreground writes instead of inside one op —
    /// while keeping every engine invariant intact mid-collection.
    #[test]
    fn overlap_staged_gc_drains_across_foreground_writes() {
        rayon::with_jobs(4, || {
            let cfg = LssConfig { gc_overlap: true, ..small_cfg() };
            let mut e = Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
                .config(cfg)
                .build();
            let mut ops_while_staged = 0u64;
            for i in 0..6 * 4096u64 {
                e.write(i, scattered_lba(i, 4096));
                if e.staged_gc.is_some() {
                    ops_while_staged += 1;
                }
                if i % 4096 == 0 {
                    e.check_invariants(); // must hold mid-collection too
                }
            }
            assert!(ops_while_staged > 0, "overlap mode never overlapped a collection");
            assert!(e.metrics().segments_reclaimed > 0);
            assert!(e.free_segments() > 0);
            // Finish in-flight work; the full recovery contract must hold.
            while e.staged_gc.is_some() {
                assert!(e.gc_step(), "gc_step must drain the staged victim");
            }
            e.check_invariants();
            e.check_recovery();
        });
    }

    /// A checkpoint taken while a victim is staged must finish the
    /// collection first (its `GcBegin` would otherwise be pruned while
    /// its `Reclaim` is still pending), and recovery from the resulting
    /// log must reproduce the live engine exactly.
    #[test]
    fn overlap_durable_checkpoint_and_recovery() {
        rayon::with_jobs(4, || {
            let dir = dur_dir("overlap_ckpt");
            let dcfg = DurabilityConfig { checkpoint_every_flushes: 8, ..Default::default() };
            let cfg = LssConfig { gc_overlap: true, ..small_cfg() };
            let mut e = Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
                .config(cfg)
                .durability(&dir, dcfg.clone())
                .build();
            let mut ts = 0u64;
            for i in 0..6 * 4096u64 {
                e.write(ts, scattered_lba(i, 4096));
                ts += 1;
            }
            assert!(e.metrics().segments_reclaimed > 0, "workload must exercise GC");
            // Explicit checkpoint mid-stream: drains any staged victim.
            e.checkpoint().unwrap();
            assert!(e.staged_gc.is_none(), "checkpoint left a victim staged");
            for i in 0..2048u64 {
                e.write(ts, scattered_lba(i * 7 + 3, 4096));
                ts += 1;
            }
            // Drain so live and recovered states are comparable (recovery
            // re-attaches a mid-collection victim; the live engine holds
            // it detached).
            while e.staged_gc.is_some() {
                assert!(e.gc_step());
            }
            e.sync_wal().unwrap();

            let cfg = LssConfig { gc_overlap: true, ..small_cfg() };
            let (r, _report) =
                Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
                    .config(cfg)
                    .durability(&dir, dcfg)
                    .recover()
                    .unwrap();
            r.check_invariants();
            r.try_check_recovery().unwrap();
            assert_states_match(&e, &r);
        });
    }

    #[test]
    fn emergency_inline_gc_saves_a_lagging_background_collector() {
        let mut cfg = small_cfg();
        cfg.background_gc = true;
        let mut e = Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .build();
        // Never call gc_step: the emergency inline path must keep the
        // engine alive anyway.
        for i in 0..6 * 4096u64 {
            e.write(i, scattered_lba(i, 4096));
        }
        assert!(e.metrics().segments_reclaimed > 0);
        e.check_invariants();
    }

    #[test]
    fn recovery_rebuilds_durable_index_after_churn() {
        let mut e = engine(TestPolicy::sepgc());
        let mut ts = 0u64;
        for lba in 0..4096u64 {
            e.write(ts, lba);
            ts += 1;
        }
        for i in 0..5 * 4096u64 {
            e.write(ts, scattered_lba(i, 4096));
            ts += 1;
        }
        e.check_recovery();
        e.flush_all();
        e.check_recovery();
    }

    #[test]
    fn recovery_handles_shadow_and_lazy_append() {
        let mut e = engine(TestPolicy::with_shadow());
        e.write(0, 42);
        e.advance_time(1_000); // shadow append: durable copy is the shadow
        e.check_recovery();
        for i in 0..16u64 {
            e.write(2_000 + i, 100 + i); // lazy append supersedes the shadow
        }
        e.check_recovery();
        e.write(50_000, 42); // overwrite again
        e.advance_time(200_000);
        e.flush_all();
        e.check_recovery();
    }

    #[test]
    fn utilization_histogram_reflects_separation() {
        let mut e = engine(TestPolicy::sepgc());
        let mut ts = 0u64;
        for lba in 0..4096u64 {
            e.write(ts, lba);
            ts += 1;
        }
        for i in 0..5 * 4096u64 {
            e.write(ts, scattered_lba(i, 4096));
            ts += 1;
        }
        let h = e.utilization_histogram();
        assert!(h.iter().sum::<u64>() > 0, "no sealed segments");
        let mean = e.mean_sealed_utilization();
        assert!(mean > 0.0 && mean <= 1.0, "mean {mean}");
    }

    #[test]
    fn empty_engine_utilization_is_trivial() {
        let e = engine(TestPolicy::sepgc());
        assert_eq!(e.utilization_histogram(), [0u64; 10]);
        assert_eq!(e.mean_sealed_utilization(), 1.0);
    }

    #[test]
    fn durability_latency_tracks_sla_and_fills() {
        let mut e = engine(TestPolicy::sepgc());
        // A lone sparse block becomes durable at the SLA deadline.
        e.write(0, 1);
        e.advance_time(10_000);
        let h = &e.metrics().durability_latency;
        assert_eq!(h.count(), 1);
        assert!(h.max_us() >= 100, "latency {}", h.max_us());
        // Dense writes fill the chunk quickly: low latencies.
        let mut e = engine(TestPolicy::sepgc());
        for i in 0..16u64 {
            e.write(i, i);
        }
        let h = &e.metrics().durability_latency;
        assert_eq!(h.count(), 16);
        assert!(h.max_us() <= 16);
        assert!(h.fraction_within(64) > 0.99);
    }

    #[test]
    fn shadow_append_grants_durability_at_expiry() {
        let mut e = engine(TestPolicy::with_shadow());
        e.write(0, 42);
        e.advance_time(1_000); // shadow append at t=100
        let h = &e.metrics().durability_latency;
        assert_eq!(h.count(), 1, "shadowed block counted once");
        // Completing the home chunk later must NOT double-count it: the
        // chunk flushes with the shadowed block (skipped) + 15 new blocks
        // (recorded); the 16th new block stays pending.
        for i in 0..16u64 {
            e.write(2_000 + i, 100 + i);
        }
        assert!(e.metrics().lazy_appends >= 1);
        assert_eq!(e.metrics().durability_latency.count(), 16);
    }

    #[test]
    fn degraded_reads_served_via_reconstruction() {
        use adapt_array::{FaultPlan, FaultyArray};
        let cfg = small_cfg();
        let mut e = Lss::builder(
            TestPolicy::sepgc(),
            FaultyArray::new(cfg.array_config(), FaultPlan::new(7)),
        )
        .config(cfg)
        .build();
        // Three dense chunks complete RAID-5 stripe 0 (3 data columns).
        for i in 0..48u64 {
            e.write(i, i);
        }
        // Chunk 0 (stripe 0, column 0) sits on device 0 under the
        // left-symmetric layout. Fail it; reads must reconstruct.
        e.sink_mut().fail_device(0);
        e.try_read_request(100, 0, 16).expect("degraded read must succeed");
        let m = e.metrics();
        assert_eq!(m.degraded_reads, 1);
        // Reconstruction fetched the 3 surviving chunks of the stripe.
        assert_eq!(m.reconstructed_bytes, 3 * 64 * 1024);
        assert_eq!(m.array_read_bytes, 64 * 1024);
        // A chunk on a healthy device still reads directly.
        e.try_read_request(101, 16, 16).expect("healthy read");
        assert_eq!(e.metrics().degraded_reads, 1);
    }

    #[test]
    fn transient_read_errors_retry_then_surface() {
        use adapt_array::{ArrayError, FaultPlan, FaultyArray};
        let cfg = small_cfg();
        let plan = FaultPlan::new(3).with_transient_read_prob(1.0);
        let mut e = Lss::builder(TestPolicy::sepgc(), FaultyArray::new(cfg.array_config(), plan))
            .config(cfg)
            .build();
        for i in 0..16u64 {
            e.write(i, i);
        }
        // Every attempt draws a transient error: the engine retries
        // read_retry_limit times, then surfaces the fault.
        let err = e.try_read_request(100, 0, 4).unwrap_err();
        assert!(matches!(err, EngineError::Array(ArrayError::TransientRead { .. })));
        assert!(err.is_transient());
        let m = e.metrics();
        assert_eq!(m.retried_reads, cfg.read_retry_limit as u64);
        // Exponential backoff: 50 + 100 + 200 simulated µs.
        assert_eq!(m.retry_backoff_us, 50 + 100 + 200);
        // The failed fetch was not charged as array traffic served.
        assert_eq!(m.degraded_reads, 0);
    }

    #[test]
    fn gc_pauses_during_rebuild_and_resumes_after() {
        use adapt_array::{ArrayHealth, FaultPlan, FaultyArray};
        let mut cfg = small_cfg();
        cfg.background_gc = true;
        let mut e = Lss::builder(
            TestPolicy::sepgc(),
            FaultyArray::new(cfg.array_config(), FaultPlan::new(1)),
        )
        .config(cfg)
        .build();
        // Churn: plenty of sealed segments with garbage for GC to eat.
        let mut ts = 0u64;
        for lba in 0..4096u64 {
            e.write(ts, lba);
            ts += 1;
        }
        for i in 0..2 * 4096u64 {
            e.write(ts, scattered_lba(i, 4096));
            ts += 1;
        }
        // Enter rebuild: background GC steps must decline.
        e.sink_mut().fail_device(1);
        e.sink_mut().start_rebuild().unwrap();
        assert!(matches!(e.sink().health(), ArrayHealth::Rebuilding { .. }));
        assert!(!e.gc_step(), "GC must pause while rebuilding");
        assert!(e.metrics().gc_throttled > 0);
        let reclaimed_during = e.metrics().segments_reclaimed;
        // Finish the rebuild; GC resumes.
        e.sink_mut().rebuild_step(u64::MAX).unwrap();
        assert_eq!(e.sink().health(), ArrayHealth::Healthy);
        assert!(e.gc_step(), "GC must resume once healthy");
        assert!(e.metrics().segments_reclaimed > reclaimed_during);
        e.check_invariants();
    }

    #[test]
    fn rebuild_metrics_capture_ops_and_bytes() {
        use adapt_array::{FaultPlan, FaultyArray};
        let cfg = small_cfg();
        let mut e = Lss::builder(
            TestPolicy::sepgc(),
            FaultyArray::new(cfg.array_config(), FaultPlan::new(2)),
        )
        .config(cfg)
        .build();
        let mut ts = 0u64;
        for lba in 0..1024u64 {
            e.write(ts, lba);
            ts += 1;
        }
        e.sink_mut().fail_device(0);
        e.sink_mut().start_rebuild().unwrap();
        // Ops observed while rebuilding count toward time-to-rebuild.
        for lba in 0..64u64 {
            e.write(ts, lba);
            ts += 1;
        }
        e.sink_mut().rebuild_step(u64::MAX).unwrap();
        // The healthy transition is noticed at the next host op.
        e.write(ts, 0);
        let m = e.metrics();
        assert!(m.rebuild_ops >= 64, "rebuild_ops {}", m.rebuild_ops);
        assert!(m.rebuild_bytes > 0);
        assert_eq!(m.rebuild_bytes, e.sink().stats().rebuild_bytes());
    }

    #[test]
    fn out_of_space_surfaces_as_typed_error() {
        // An op_ratio large enough to pass validation but a workload the
        // watermarks cannot sustain is hard to build without bypassing
        // validate(); instead check the error formats correctly.
        let e = EngineError::OutOfSpace {
            total_segments: 40,
            sealed: 39,
            sealed_with_garbage: 0,
            open: 1,
            valid_blocks: 4992,
            in_gc: true,
        };
        assert!(e.to_string().contains("raise op_ratio"));
    }

    #[test]
    fn event_stream_reconciles_and_keeps_metrics_bit_identical() {
        use crate::events::EventConfig;
        let run = |on: bool| {
            let cfg = small_cfg();
            let mut e =
                Lss::builder(TestPolicy::with_shadow(), CountingArray::new(cfg.array_config()))
                    .config(cfg)
                    .events(EventConfig {
                        enabled: on,
                        ring_capacity: 128,
                        gauge_interval_ops: 1000,
                    })
                    .build();
            let mut ts = 0u64;
            for lba in 0..4096u64 {
                e.write(ts, lba);
                ts += 1;
            }
            for i in 0..4 * 4096u64 {
                e.write(ts, scattered_lba(i, 4096));
                ts += 1;
            }
            // A lone straggler exercises the shadow-append path.
            e.write(ts + 10_000, 4095);
            e.advance_time(ts + 200_000);
            e.flush_all();
            e
        };
        let mut off = run(false);
        let mut on = run(true);
        assert_eq!(off.metrics(), on.metrics(), "events must not perturb the replay");
        assert_eq!(off.telemetry().events.emitted, 0);
        let snap = on.telemetry();
        let m = &snap.lss;
        // Event totals survive ring wraparound, so they reconcile exactly
        // with the engine's own counters.
        assert_eq!(snap.events.kind_total("gc_collect"), m.segments_reclaimed);
        assert_eq!(snap.events.kind_total("padded_flush"), m.padded_chunks);
        assert_eq!(snap.events.kind_total("shadow_append"), m.shadow_append_events);
        assert!(snap.events.distinct_kinds() >= 3, "{:?}", snap.events.kinds);
        assert!(!snap.gauges.is_empty(), "gauge series sampled");
    }

    #[test]
    fn trim_of_pending_block_drops_buffer_entry() {
        let mut e = engine(TestPolicy::sepgc());
        e.write(0, 5);
        e.trim(1, 5, 1);
        assert_eq!(e.metrics().trimmed_blocks, 1);
        e.advance_time(10_000);
        // Nothing left to pad out: buffer was emptied by the trim.
        assert_eq!(e.metrics().chunks_flushed, 0);
        e.check_invariants();
    }

    // ------------------------------------------------------------------
    // Durability & recovery
    // ------------------------------------------------------------------

    use crate::wal::FsyncPolicy;

    fn dur_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("adapt_eng_dur_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn durable_engine(
        policy: TestPolicy,
        dir: &Path,
        dcfg: DurabilityConfig,
    ) -> Lss<TestPolicy, CountingArray> {
        let cfg = small_cfg();
        Lss::builder(policy, CountingArray::new(cfg.array_config()))
            .config(cfg)
            .durability(dir, dcfg)
            .build()
    }

    /// Hot-loop workload: fills the log far enough to run GC, trims a
    /// range, and leaves some blocks buffered.
    fn durable_workload(e: &mut Lss<TestPolicy, CountingArray>) {
        let mut ts = 0u64;
        for i in 0..6 * 4096u64 {
            e.write(ts, scattered_lba(i, 4096));
            ts += 1;
        }
        e.trim(ts, 100, 50);
        for i in 0..512u64 {
            e.write(ts + i, scattered_lba(i * 7 + 3, 4096));
        }
        assert!(e.metrics().segments_reclaimed > 0, "workload must exercise GC");
    }

    /// Compare full logical snapshots, ignoring the clock scalars that the
    /// WAL only carries at flush granularity (`ops_seen` is checkpoint-only;
    /// `now_us`/`user_bytes_clock` can lag by the buffered tail — the caller
    /// re-drives them with its next timestamped request anyway).
    fn assert_states_match(a: &Lss<TestPolicy, CountingArray>, b: &Lss<TestPolicy, CountingArray>) {
        let mut sa = a.capture_durable_state(0);
        let mut sb = b.capture_durable_state(0);
        for s in [&mut sa, &mut sb] {
            s.ops_seen = 0;
            s.now_us = 0;
            s.user_bytes_clock = 0;
        }
        assert_eq!(sa.geometry, sb.geometry);
        assert_eq!(sa.next_open_seq, sb.next_open_seq, "next_open_seq");
        assert_eq!(sa.next_flush_seq, sb.next_flush_seq, "next_flush_seq");
        assert_eq!(sa.segments.len(), sb.segments.len(), "segment count");
        for (x, y) in sa.segments.iter().zip(&sb.segments) {
            assert_eq!(x.id, y.id, "segment id order");
            assert_eq!(
                (
                    x.group,
                    x.state,
                    x.filled,
                    x.valid_blocks,
                    x.open_seq,
                    x.created_user_bytes,
                    x.created_ts_us
                ),
                (
                    y.group,
                    y.state,
                    y.filled,
                    y.valid_blocks,
                    y.open_seq,
                    y.created_user_bytes,
                    y.created_ts_us
                ),
                "segment {} header",
                x.id
            );
            assert_eq!(x.chunk_seqs, y.chunk_seqs, "segment {} chunk seqs", x.id);
            assert_eq!(x.slots, y.slots, "segment {} slots", x.id);
        }
        for (gid, (x, y)) in sa.groups.iter().zip(&sb.groups).enumerate() {
            assert_eq!(x.open_segment, y.open_segment, "group {gid} open segment");
            assert_eq!(x.sealed, y.sealed, "group {gid} sealed list");
            assert_eq!(x.pending, y.pending, "group {gid} pending buffer");
            assert_eq!(
                (x.user_blocks, x.gc_blocks, x.shadow_blocks, x.pad_blocks, x.chunks, x.pad_chunks),
                (y.user_blocks, y.gc_blocks, y.shadow_blocks, y.pad_blocks, y.chunks, y.pad_chunks),
                "group {gid} lifetime counters"
            );
        }
        assert_eq!(sa.index, sb.index, "block index");
        assert_eq!(sa.versions, sb.versions, "durable versions");
    }

    #[test]
    fn recovery_replays_wal_to_identical_state() {
        let dir = dur_dir("replay");
        // Cadence 0: no checkpoints — recovery is pure WAL replay.
        let dcfg = DurabilityConfig { checkpoint_every_flushes: 0, ..Default::default() };
        let mut e = durable_engine(TestPolicy::sepgc(), &dir, dcfg.clone());
        durable_workload(&mut e);
        e.sync_wal().unwrap();

        let cfg = small_cfg();
        let (r, report) = Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .durability(&dir, dcfg)
            .recover()
            .unwrap();
        assert!(!report.checkpoint_loaded);
        assert!(report.records_applied > 0);
        assert!(report.flushes_replayed > 0);
        r.check_invariants();
        r.try_check_recovery().unwrap();
        assert_states_match(&e, &r);
        assert_eq!(r.sink().chunks_written(), e.sink().chunks_written());
    }

    #[test]
    fn recovery_from_checkpoint_plus_wal_tail() {
        let dir = dur_dir("ckpt");
        // Aggressive cadence and tiny files: many checkpoints, rotations,
        // and prunes during the run.
        let dcfg = DurabilityConfig {
            checkpoint_every_flushes: 8,
            rotate_bytes: 16 * 1024,
            ..Default::default()
        };
        let mut e = durable_engine(TestPolicy::sepgc(), &dir, dcfg.clone());
        durable_workload(&mut e);
        e.sync_wal().unwrap();
        assert!(e.wal_stats().unwrap().checkpoints > 0, "cadence must have fired");

        let cfg = small_cfg();
        let (r, report) = Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .durability(&dir, dcfg)
            .recover()
            .unwrap();
        assert!(report.checkpoint_loaded);
        r.check_invariants();
        r.try_check_recovery().unwrap();
        assert_states_match(&e, &r);
    }

    #[test]
    fn recovery_with_shadow_appends() {
        let dir = dur_dir("shadow");
        let dcfg = DurabilityConfig { checkpoint_every_flushes: 0, ..Default::default() };
        let mut e = durable_engine(TestPolicy::with_shadow(), &dir, dcfg.clone());
        let mut ts = 0u64;
        for i in 0..2 * 4096u64 {
            e.write(ts, scattered_lba(i, 4096));
            ts += 1;
        }
        // Stragglers time out and shadow-append into group 1.
        e.write(ts + 10_000, 4095);
        e.advance_time(ts + 300_000);
        assert!(e.metrics().shadow_append_events > 0, "must exercise shadow append");
        e.sync_wal().unwrap();

        let cfg = small_cfg();
        let (r, _) =
            Lss::builder(TestPolicy::with_shadow(), CountingArray::new(cfg.array_config()))
                .config(cfg)
                .durability(&dir, dcfg)
                .recover()
                .unwrap();
        r.check_invariants();
        r.try_check_recovery().unwrap();
        assert_states_match(&e, &r);
    }

    #[test]
    fn torn_tail_loses_nothing_acknowledged() {
        let dir = dur_dir("torn");
        let dcfg = DurabilityConfig {
            fsync: FsyncPolicy::GroupCommit(4),
            checkpoint_every_flushes: 0,
            ..Default::default()
        };
        let mut e = durable_engine(TestPolicy::sepgc(), &dir, dcfg.clone());
        let mut acked = Vec::new();
        for i in 0..2048u64 {
            e.write(i, scattered_lba(i, 4096));
            e.drain_durable_acks(&mut acked);
        }
        assert!(!acked.is_empty());
        drop(e);
        // Scribble garbage over the live WAL file's tail, like a write the
        // power cut mid-stream.
        let last = wal::list_wal_indices(&dir).unwrap().pop().unwrap();
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(wal::wal_file_name(last)))
            .unwrap();
        f.write_all(&[0xA5; 37]).unwrap();
        drop(f);

        let cfg = small_cfg();
        let (r, report) = Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .durability(&dir, dcfg)
            .recover()
            .unwrap();
        assert!(report.torn_tail.is_some(), "garbage tail must be detected");
        r.check_invariants();
        for &(lba, version) in &acked {
            let got = r.durable_version(lba);
            assert!(
                got.is_some_and(|v| v >= version),
                "acked write lost: lba {lba} v{version} recovered {got:?}"
            );
        }
    }

    #[test]
    fn recovery_handles_arbitrary_garbage_without_panicking() {
        // Garbage checkpoint: typed error, no panic.
        let dir = dur_dir("garbage_ckpt");
        std::fs::write(dir.join(recovery::CHECKPOINT_FILE), b"not a checkpoint at all").unwrap();
        std::fs::write(dir.join(wal::wal_file_name(0)), [0u8; 64]).unwrap();
        let cfg = small_cfg();
        let res = Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .durability(&dir, DurabilityConfig::default())
            .recover();
        match res {
            Err(RecoveryError::BadCheckpoint { .. }) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("garbage checkpoint accepted"),
        }

        // Garbage WAL with no checkpoint: torn at offset zero, clean cold
        // start.
        let dir2 = dur_dir("garbage_wal");
        std::fs::write(dir2.join(wal::wal_file_name(0)), [0xFFu8; 256]).unwrap();
        let (r, report) = Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .durability(&dir2, DurabilityConfig::default())
            .recover()
            .unwrap();
        assert_eq!(report.records_applied, 0);
        assert_eq!(report.torn_tail, Some((0, 0)));
        r.check_invariants();
    }

    #[test]
    fn recover_without_durability_dir_is_typed() {
        let cfg = small_cfg();
        let res = Lss::builder(TestPolicy::sepgc(), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .recover();
        match res {
            Err(RecoveryError::NotConfigured) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("recover without a durability dir must fail"),
        }
    }
}
