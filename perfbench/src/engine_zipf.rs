//! `engine-zipf`: the direct engine over the accounting-only
//! `CountingArray`, driven write-only through `Lss::apply_ops` in a
//! closed loop on one thread.
//!
//! One repetition builds a fresh engine, prefills the volume (set-up),
//! then replays the same seeded trace (timed). Repetitions run until the
//! time budget is spent; throughput and set-up time are their medians.
//! The engine's counts depend only on the trace, so every repetition
//! must reproduce them bit for bit — a check the run enforces.

use crate::layers::{boundary_metrics, lss_core_metrics, write_spans};
use crate::report::Report;
use crate::spans::{self, span_ops, Kind, Recorder};
use crate::stats::{median, peak_rss_mib};
use crate::traced::{TracedPolicy, TracedSink};
use crate::window::{ratio, Window};
use adapt_array::{ArraySink, ArrayStats, CountingArray};
use adapt_core::Adapt;
use adapt_lss::{HostOp, Lss, LssConfig, LssMetrics, PlacementPolicy, WalStats};
use adapt_trace::rng::Xoshiro256StarStar;
use adapt_trace::ZipfGenerator;
use std::time::{Duration, Instant};

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Logical volume size in 4 KiB blocks.
    pub volume_blocks: u64,
    /// Zipf writes after the prefill that bring the policy to its steady
    /// state; part of set-up, not measured.
    pub warmup_ops: usize,
    /// Single-block writes replayed per repetition.
    pub timed_ops: usize,
    /// Engine-clock gap between arrivals, µs.
    pub gap_us: u64,
    /// YCSB Zipf skew.
    pub zipf_alpha: f64,
    /// Ops per `apply_ops` call.
    pub batch: usize,
}

/// The benchmark's sizes.
pub const SPEC: Spec = Spec {
    volume_blocks: 16 * 1024,
    warmup_ops: 1 << 18,
    timed_ops: 1 << 20,
    gap_us: 2,
    zipf_alpha: 0.9,
    batch: 1024,
};

/// Blocks per prefill write (one 64 KiB chunk).
const PREFILL_BLOCKS: u32 = 16;

impl Spec {
    pub fn config(&self) -> LssConfig {
        LssConfig::default().with_user_blocks(self.volume_blocks)
    }

    /// The set-up stream (sequential 64 KiB writes over the whole volume,
    /// then the warm-up) and the timed Zipf write stream, on one dense
    /// arrival clock.
    pub fn trace(&self, seed: u64) -> (Vec<HostOp>, Vec<HostOp>) {
        let mut ts = 0u64;
        let mut tick = || {
            ts += self.gap_us;
            ts
        };
        let mut setup: Vec<HostOp> = (0..self.volume_blocks)
            .step_by(PREFILL_BLOCKS as usize)
            .map(|lba| HostOp::write(tick(), lba, PREFILL_BLOCKS))
            .collect();
        let zipf = ZipfGenerator::new(self.volume_blocks, self.zipf_alpha);
        let mut rng = Xoshiro256StarStar::new(seed);
        // Scatter ranks so the hot set is not one dense prefix.
        let scatter = self.volume_blocks / 2 + 1;
        let mut zipf_write = || {
            let lba = (zipf.sample(&mut rng) * scatter) % self.volume_blocks;
            HostOp::write(tick(), lba, 1)
        };
        setup.extend((0..self.warmup_ops).map(|_| zipf_write()));
        let timed = (0..self.timed_ops).map(|_| zipf_write()).collect();
        (setup, timed)
    }
}

/// What one repetition produced.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup_s: f64,
    pub replay_s: f64,
    pub metrics: LssMetrics,
    pub array: ArrayStats,
    pub memory_bytes: usize,
    pub policy_bytes: usize,
    pub gc_select_ns: u64,
    /// The engine runs without a WAL, so these stay zero.
    pub wal: WalStats,
    pub failed_ops: u64,
    pub invariants_ok: bool,
}

impl Rep {
    fn window(&self) -> Window {
        Window::of(&self.metrics)
    }
}

/// Build, set up and replay once. With `traced`, each `apply_ops`
/// call is a span, and the timed phase's spans (engine, core, array)
/// are returned; set-up spans are discarded.
pub fn rep<P: PlacementPolicy, S: ArraySink>(
    spec: &Spec,
    build: impl FnOnce(LssConfig) -> Lss<P, S>,
    setup_ops: &[HostOp],
    timed: &[HostOp],
    traced: bool,
) -> (Rep, Recorder) {
    let mut failed_ops = 0u64;
    let mut apply = |lss: &mut Lss<P, S>, ops: &[HostOp], lo: u64| {
        for (i, chunk) in ops.chunks(spec.batch).enumerate() {
            let lo = lo + (i * spec.batch) as u64;
            let mut rest = chunk;
            while !rest.is_empty() {
                let r = if traced {
                    span_ops(Kind::EngineApply, (lo, lo + rest.len() as u64), || {
                        lss.try_apply_ops(rest)
                    })
                    .0
                } else {
                    lss.try_apply_ops(rest)
                };
                match r {
                    Ok(()) => break,
                    Err((at, _)) => {
                        failed_ops += 1;
                        rest = &rest[at + 1..];
                    }
                }
            }
        }
    };

    let t0 = Instant::now();
    let mut lss = build(spec.config());
    apply(&mut lss, setup_ops, 0);
    let setup_s = t0.elapsed().as_secs_f64();
    lss.reset_metrics();
    spans::take();

    let t1 = Instant::now();
    apply(&mut lss, timed, setup_ops.len() as u64);
    let replay_s = t1.elapsed().as_secs_f64();
    let rec = spans::take();

    let invariants_ok =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lss.check_invariants())).is_ok();
    let rep = Rep {
        setup_s,
        replay_s,
        metrics: lss.metrics().clone(),
        array: lss.sink().stats().clone(),
        memory_bytes: lss.memory_bytes(),
        policy_bytes: lss.policy().memory_bytes(),
        gc_select_ns: lss.gc_select_nanos(),
        wal: lss.wal_stats().unwrap_or_default(),
        failed_ops,
        invariants_ok,
    };
    (rep, rec)
}

fn plain(cfg: LssConfig) -> Lss<Adapt, CountingArray> {
    Lss::builder(Adapt::new(&cfg), CountingArray::new(cfg.array_config())).config(cfg).build()
}

fn traced(cfg: LssConfig) -> Lss<TracedPolicy<Adapt>, TracedSink<CountingArray>> {
    Lss::builder(TracedPolicy(Adapt::new(&cfg)), TracedSink(CountingArray::new(cfg.array_config())))
        .config(cfg)
        .build()
}

/// Repeat until `budget` is spent (at least `min_reps` times). An
/// engine panic ends the run with its message: the trace is the same
/// every repetition, so the next one would panic too.
fn reps_for(
    budget: Duration,
    min_reps: usize,
    mut one: impl FnMut() -> (Rep, Recorder),
) -> Result<(Vec<Rep>, Recorder), String> {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut rec = Recorder::default();
    while reps.len() < min_reps || t0.elapsed() < budget {
        let (r, spans) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut one)).map_err(
            |payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                format!("the engine panicked in repetition {}: {msg}", reps.len())
            },
        )?;
        rec.absorb(spans);
        reps.push(r);
    }
    Ok((reps, rec))
}

/// A run that cannot report: the engine panicked.
fn panicked(mut report: Report, msg: String) -> Report {
    report.failed += 1;
    report.check(false, format!("engine-zipf: {msg}"));
    report
}

/// Check that every repetition reproduced the first one's counts
/// exactly, and that the engine's invariants held after each.
fn check_reps(report: &mut Report, reps: &[Rep], what: &str) {
    let first = &reps[0];
    let same = reps.iter().all(|r| {
        r.metrics == first.metrics && r.array == first.array && r.memory_bytes == first.memory_bytes
    });
    report.check(same, format!("{what}: {} repetitions give bit-identical counts", reps.len()));
    report.check(
        reps.iter().all(|r| r.invariants_ok),
        format!("{what}: Lss::check_invariants after every repetition"),
    );
    let failed: u64 = reps.iter().map(|r| r.failed_ops).sum();
    report.failed += failed;
    report.check(failed == 0, format!("{what}: {failed} failed engine ops"));
}

fn kops(spec: &Spec, reps: &[Rep]) -> f64 {
    let mut v: Vec<f64> = reps.iter().map(|r| spec.timed_ops as f64 / r.replay_s / 1e3).collect();
    median(&mut v)
}

/// The end-to-end run (tracing off).
pub fn run(seed: u64, seconds: u64) -> Report {
    let spec = SPEC;
    let mut report = Report::new();
    let (setup_ops, timed) = spec.trace(seed);
    let reps =
        reps_for(Duration::from_secs(seconds), 3, || rep(&spec, plain, &setup_ops, &timed, false));
    let (reps, _) = match reps {
        Ok(r) => r,
        Err(msg) => return panicked(report, msg),
    };
    report.attempted = (reps.len() * (setup_ops.len() + timed.len())) as u64;
    check_reps(&mut report, &reps, "engine-zipf");

    let w = reps[0].window();
    let mut setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    report.note(format!(
        "engine-zipf: {} repetitions of {} writes over {} blocks; {} GC passes, {} shadow appends",
        reps.len(),
        spec.timed_ops,
        spec.volume_blocks,
        w.gc_passes,
        w.shadow_append_events
    ));
    report.metric("setup_s", median(&mut setup), "s");
    report.metric("replay_kops", kops(&spec, &reps), "kops/s");
    report.metric("wa", w.wa(), "ratio");
    report.metric("pad_ratio", w.pad_ratio(), "ratio");
    report.metric("durability_mean_us", w.durability_mean_us(), "us");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report
}

/// The traced run: untraced repetitions for half the budget, traced
/// ones for the other half; per-layer metrics come from the traced
/// repetitions' spans.
pub fn run_traced(seed: u64, seconds: u64, floor_ns: f64) -> Report {
    let spec = SPEC;
    let mut report = Report::new();
    let (setup_ops, timed) = spec.trace(seed);
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    let both = reps_for(half, 2, || rep(&spec, plain, &setup_ops, &timed, false)).and_then(|p| {
        reps_for(half, 2, || rep(&spec, traced, &setup_ops, &timed, true)).map(|t| (p.0, t))
    });
    let (plain_reps, (traced_reps, rec)) = match both {
        Ok(r) => r,
        Err(msg) => return panicked(report, msg),
    };
    report.attempted =
        ((plain_reps.len() + traced_reps.len()) * (setup_ops.len() + timed.len())) as u64;
    check_reps(&mut report, &plain_reps, "engine-zipf untraced");
    check_reps(&mut report, &traced_reps, "engine-zipf traced");
    let (a, b) = (&plain_reps[0], &traced_reps[0]);
    report.check(
        a.metrics == b.metrics && a.array == b.array && a.memory_bytes == b.memory_bytes,
        "traced and untraced runs give identical LssMetrics, ArrayStats and memory_bytes",
    );

    let ops = (traced_reps.len() * spec.timed_ops) as u64;
    let w = b.window();
    let overhead = kops(&spec, &traced_reps) / kops(&spec, &plain_reps);
    let mut select: Vec<f64> = traced_reps.iter().map(|r| r.gc_select_ns as f64 / 1e6).collect();
    let wall_ns: f64 = traced_reps.iter().map(|r| r.replay_s * 1e9).sum();
    boundary_metrics(&mut report, &rec, ops, wall_ns as u64);
    // The engine is called directly: no shard runs idle GC.
    report.metric("serve.idle_gc_steps", 0.0, "count");
    lss_core_metrics(
        &mut report,
        &rec,
        ops,
        &w,
        b.memory_bytes as u64,
        b.policy_bytes as u64,
        median(&mut select),
    );
    report.metric("wal.bytes_per_op", ratio(b.wal.bytes_appended, ops), "bytes");
    report.metric("wal.checkpoints", b.wal.checkpoints as f64, "count");
    // Nothing is reopened: the engine lives in memory only.
    report.metric("recovery.records_applied", 0.0, "count");
    report.metric("recovery.sink_records_scanned", 0.0, "count");
    let write = rec.agg(Kind::WriteChunk);
    report.metric("array.write_chunk_us", write.mean_ns() / 1e3, "us");
    report.metric("array.chunks_per_op", ratio(write.count, ops), "count");
    report.metric("trace.floor_ns", floor_ns, "ns");
    report.metric("trace.overhead", overhead, "ratio");
    write_spans(&mut report, &rec, "engine-zipf", seed);
    report
}
