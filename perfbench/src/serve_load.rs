//! `serve-durable` and `serve-sync`: one FIFO `serve` shard over a
//! durable engine (`FileArraySink` plus a WAL), driven by one client
//! thread in a closed loop through `Client::submit` / `wait`.
//!
//! The two workloads share server, engine and trace and differ only in
//! requests in flight: 32 (a block host at iodepth 32, batching group
//! commits) or 1 (every request pays the client → shard handoff and its
//! own WAL barrier). `serve-durable` runs but is not listed in
//! `BENCHMARK.json`: on a shared host its timings spread across runs by
//! more than the largest regression bound allows. Latencies, `read_amp`
//! and `recovery_s` (and the serve-only per-layer timings) are printed
//! in the table: the result line holds only the metrics engine-zipf has
//! too.

use crate::layers::{boundary_metrics, lss_core_metrics, write_spans};
use crate::report::Report;
use crate::spans::{now_ns, Kind, Recorder};
use crate::stats::{beyond, median, peak_rss_mib, quantile_sorted};
use crate::traced::{EngineTrace, TraceSlot, TracedEngine, TracedPolicy, TracedSink};
use crate::window::{ratio, Window};
use adapt_array::{FileArraySink, FileSinkOptions};
use adapt_core::Adapt;
use adapt_lss::{DurabilityConfig, Lss, LssConfig, PlacementPolicy, RecoveryReport};
use adapt_serve::{
    Client, Completion, Request, Server, ServerBuilder, ShardEngine, ShardPlan, ShardRouter,
    Ticket, VolumeSpec,
};
use adapt_sim::serve::{start_server_with, ShardEngineBuilder};
use adapt_sim::Scheme;
use adapt_trace::rng::Xoshiro256StarStar;
use adapt_trace::ZipfGenerator;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sizes and shape of a serve workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Volume size in 4 KiB blocks.
    pub volume_blocks: u64,
    /// Requests in flight from the one client thread.
    pub depth: usize,
    /// Share of requests that are single-block reads.
    pub read_share: f64,
    /// Engine µs per applied op (the shard's synthesized clock).
    pub clock_step_us: u64,
    /// Group-commit window of the shard.
    pub window: u32,
    /// YCSB Zipf skew.
    pub zipf_alpha: f64,
    /// Timed requests per second of `--seconds`. The timed phase is a
    /// fixed count of requests, so the state it leaves — and with it
    /// `recovery_s`, which grows with the chunks the sink ever logged —
    /// does not depend on how fast the run went.
    pub kops_per_second: u64,
}

pub const DURABLE: Spec = Spec {
    name: "serve-durable",
    volume_blocks: 16 * 1024,
    depth: 32,
    read_share: 0.3,
    clock_step_us: 16,
    window: 32,
    zipf_alpha: 0.9,
    kops_per_second: 250,
};

pub const SYNC: Spec = Spec { name: "serve-sync", depth: 1, kops_per_second: 50, ..DURABLE };

/// Blocks per prefill write (one 64 KiB chunk).
const PREFILL_BLOCKS: u32 = 16;
/// Set-up → timed phase → recovery cycles per end-to-end run.
const CYCLES: usize = 5;
/// Set-ups per cycle on top of the cycle's own, timed for `setup_s` only.
const EXTRA_SETUPS: usize = 3;
/// Routing-range size (the serve default).
const RANGE_BLOCKS: u64 = 4096;
/// Bit marking a read in the compact trace.
const READ_BIT: u32 = 1 << 31;

impl Spec {
    fn server_builder(&self) -> ServerBuilder {
        ServerBuilder::new()
            .shards(1)
            .group_commit_window(self.window)
            .clock_step_us(self.clock_step_us)
            .durable(true)
            .range_blocks(RANGE_BLOCKS)
            .volume(0, self.volume_blocks)
    }

    fn prefill_requests(&self) -> u64 {
        self.volume_blocks.div_ceil(PREFILL_BLOCKS as u64)
    }

    /// Timed requests for a run of `seconds`.
    fn requests(&self, seconds: f64) -> usize {
        (seconds * self.kops_per_second as f64 * 1e3) as usize
    }

    /// The seeded request stream: a block address per entry, top bit set
    /// for reads.
    fn trace(&self, seed: u64, len: usize) -> Vec<u32> {
        assert!(self.volume_blocks < READ_BIT as u64, "addresses must leave the read bit free");
        let zipf = ZipfGenerator::new(self.volume_blocks, self.zipf_alpha);
        let mut rng = Xoshiro256StarStar::new(seed);
        let scatter = self.volume_blocks / 2 + 1;
        (0..len)
            .map(|_| {
                let lba = ((zipf.sample(&mut rng) * scatter) % self.volume_blocks) as u32;
                if rng.next_f64() < self.read_share {
                    lba | READ_BIT
                } else {
                    lba
                }
            })
            .collect()
    }
}

/// Builds each shard's durable engine, optionally wrapped in the
/// decorators.
struct DurableEngines {
    dir: PathBuf,
    /// `(first timed op, where the trace lands)` for the traced run.
    trace: Option<(u64, TraceSlot)>,
}

impl ShardEngineBuilder for DurableEngines {
    fn build<P: PlacementPolicy + Send + 'static>(
        &mut self,
        plan: &ShardPlan,
        policy: P,
    ) -> Box<dyn ShardEngine> {
        let d = shard_dir(&self.dir, plan.shard);
        let sink = FileArraySink::create(
            plan.lss.array_config(),
            d.join("array"),
            FileSinkOptions::default(),
        )
        .unwrap_or_else(|e| panic!("creating the array files in {}: {e}", d.display()));
        match &self.trace {
            None => Box::new(
                Lss::builder(policy, sink)
                    .config(plan.lss)
                    .durability(d.join("wal"), DurabilityConfig::default())
                    .build(),
            ),
            Some((timed_from_op, slot)) => Box::new(TracedEngine::new(
                Lss::builder(TracedPolicy(policy), TracedSink(sink))
                    .config(plan.lss)
                    .durability(d.join("wal"), DurabilityConfig::default())
                    .build(),
                *timed_from_op,
                Arc::clone(slot),
            )),
        }
    }
}

fn shard_dir(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard{shard}"))
}

/// A started, prefilled server.
struct Setup {
    server: Server,
    client: Client,
    started: Instant,
    setup_s: f64,
    prefill_failed: u64,
}

fn setup(spec: &Spec, dir: &Path, trace: Option<(u64, TraceSlot)>) -> Setup {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let engines = DurableEngines { dir: dir.to_path_buf(), trace };
    let server = start_server_with(Scheme::Adapt, spec.server_builder(), engines);
    let client = server.client();
    let mut window: VecDeque<Ticket> = VecDeque::with_capacity(spec.depth.max(32));
    let mut prefill_failed = 0;
    for lba in (0..spec.volume_blocks).step_by(PREFILL_BLOCKS as usize) {
        let blocks = PREFILL_BLOCKS.min((spec.volume_blocks - lba) as u32);
        match client.submit_backoff(Request::write(0, 0, lba, blocks)) {
            Ok(t) => window.push_back(t),
            Err(_) => prefill_failed += 1,
        }
        if window.len() >= 32 {
            let t = window.pop_front().expect("window is full");
            prefill_failed += u64::from(client.wait(t).result.is_err());
        }
    }
    for t in window {
        prefill_failed += u64::from(client.wait(t).result.is_err());
    }
    let setup_s = started.elapsed().as_secs_f64();
    Setup { server, client, started, setup_s, prefill_failed }
}

/// What the client saw over the timed phase.
#[derive(Debug, Default)]
struct ClientSide {
    ops: u64,
    failed: u64,
    busy_retries: u64,
    elapsed_s: f64,
    /// Every successful completion, in the order the client saw them.
    samples: Vec<Sample>,
    /// Newest acknowledged version per block.
    acked: Vec<u64>,
    /// Traced run only: submit time of every timed request, in order.
    submit_ns: Vec<u64>,
    submit_cost_ns: u64,
}

/// One completion: when the client saw it and how long it took.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Completion time, µs after the timed phase started.
    at_us: u32,
    /// Submit → completion in ns, with [`WRITE_BIT`] set for writes.
    lat: u32,
}

const WRITE_BIT: u32 = 1 << 31;

impl Sample {
    fn is_write(self) -> bool {
        self.lat & WRITE_BIT != 0
    }

    fn lat_ns(self) -> u32 {
        self.lat & !WRITE_BIT
    }
}

/// A timed phase cut into [`WINDOWS`] runs of equally many
/// completions; each metric is the median over the windows of every
/// cycle, so a transient stall on the shared host moves one window, not
/// the result.
struct Win {
    kops: f64,
    /// Sorted write and read latencies, ns.
    writes: Vec<u32>,
    reads: Vec<u32>,
}

const WINDOWS: usize = 4;

fn windows(samples: &[Sample]) -> Vec<Win> {
    let per = samples.len().div_ceil(WINDOWS).max(1);
    let mut start_us = 0u32;
    samples
        .chunks(per)
        .map(|chunk| {
            let end_us = chunk.last().expect("chunks are non-empty").at_us;
            let span_s = (end_us.saturating_sub(start_us)).max(1) as f64 / 1e6;
            start_us = end_us;
            let mut writes: Vec<u32> =
                chunk.iter().filter(|s| s.is_write()).map(|s| s.lat_ns()).collect();
            let mut reads: Vec<u32> =
                chunk.iter().filter(|s| !s.is_write()).map(|s| s.lat_ns()).collect();
            writes.sort_unstable();
            reads.sort_unstable();
            Win { kops: chunk.len() as f64 / span_s / 1e3, writes, reads }
        })
        .collect()
}

/// Median over the windows of `f`.
fn across(wins: &[Win], f: impl Fn(&Win) -> f64) -> f64 {
    median(&mut wins.iter().map(f).collect::<Vec<_>>())
}

struct InFlight {
    ticket: Ticket,
    submit_ns: u64,
    entry: u32,
}

/// The closed loop: submit every request of `ops`, keeping `spec.depth`
/// in flight.
fn closed_loop(spec: &Spec, client: &Client, ops: &[u32], traced: bool) -> ClientSide {
    // Sized up front: growing by doubling would copy, and the copies
    // would show in peak RSS as noise.
    let cap = ops.len();
    let mut out = ClientSide {
        samples: Vec::with_capacity(cap),
        acked: vec![0; spec.volume_blocks as usize],
        submit_ns: Vec::with_capacity(if traced { cap } else { 0 }),
        ..ClientSide::default()
    };
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(spec.depth);
    let t0_ns = now_ns();
    let record = |out: &mut ClientSide, submit_ns: u64, entry: u32, c: Completion, at_ns: u64| {
        let lat = u32::try_from(at_ns - submit_ns).unwrap_or(u32::MAX).min(!WRITE_BIT);
        let at_us = u32::try_from((at_ns - t0_ns) / 1000).unwrap_or(u32::MAX);
        let lba = (entry & !READ_BIT) as usize;
        match c.result {
            Err(_) => out.failed += 1,
            Ok(()) if entry & READ_BIT != 0 => out.samples.push(Sample { at_us, lat }),
            Ok(()) => {
                out.samples.push(Sample { at_us, lat: lat | WRITE_BIT });
                if c.durable {
                    out.acked[lba] = out.acked[lba].max(c.version);
                }
            }
        }
    };
    let t0 = Instant::now();
    let mut next = 0usize;
    let mut open = true;
    loop {
        while open && inflight.len() < spec.depth {
            let Some(&entry) = ops.get(next) else {
                open = false;
                break;
            };
            let lba = (entry & !READ_BIT) as u64;
            let req = if entry & READ_BIT != 0 {
                Request::read(0, 0, lba, 1)
            } else {
                Request::write(0, 0, lba, 1)
            };
            let submit_ns = now_ns();
            let r = client.submit(req);
            if traced {
                out.submit_cost_ns += now_ns() - submit_ns;
            }
            match r {
                Ok(ticket) => {
                    next += 1;
                    out.ops += 1;
                    if traced {
                        out.submit_ns.push(submit_ns);
                    }
                    inflight.push_back(InFlight { ticket, submit_ns, entry });
                }
                Err(e) if adapt_lss::Retryable::is_retryable(&e) => {
                    out.busy_retries += 1;
                    std::thread::yield_now();
                }
                Err(_) => {
                    next += 1;
                    out.ops += 1;
                    out.failed += 1;
                }
            }
        }
        let Some(InFlight { ticket, submit_ns, entry }) = inflight.pop_front() else { break };
        let c = client.wait(ticket);
        let at = now_ns();
        record(&mut out, submit_ns, entry, c, at);
        // Reads complete at apply, writes at their barrier: harvest
        // whatever else finished meanwhile.
        inflight.retain(|f| match f.ticket.poll() {
            Some(c) => {
                record(&mut out, f.submit_ns, f.entry, c, at);
                false
            }
            None => true,
        });
    }
    out.elapsed_s = t0.elapsed().as_secs_f64();
    out
}

/// One timed phase on a freshly set-up server, through shutdown.
struct Phase {
    setup: f64,
    client: ClientSide,
    /// Engine counters over the timed phase.
    window: Window,
    /// Idle GC increments and `Busy` rejections over the timed phase.
    idle_gc_steps: u64,
    rejected_busy: u64,
    busy_share: f64,
    balanced: bool,
    any_failed: bool,
    prefill_failed: u64,
    plan: ShardPlan,
}

fn phase(spec: &Spec, dir: &Path, ops: &[u32], trace: Option<TraceSlot>) -> Phase {
    let traced = trace.is_some();
    let s = setup(spec, dir, trace.map(|slot| (spec.prefill_requests(), slot)));
    let before = s.client.telemetry(0).expect("shard is running");
    let stats_before = s.client.stats()[0];
    let client = closed_loop(spec, &s.client, ops, traced);
    let after = s.client.telemetry(0).expect("shard is running");
    let stats_after = s.client.stats()[0];
    let plan = s.server.plans()[0].clone();
    let report = s.server.shutdown();
    let lifetime_s = s.started.elapsed().as_secs_f64();
    let busy_ns: u64 = report.shards.iter().map(|r| r.busy_ns).sum();
    Phase {
        setup: s.setup_s,
        client,
        window: Window::of(&after.lss).since(&Window::of(&before.lss)),
        idle_gc_steps: stats_after.gc_steps - stats_before.gc_steps,
        rejected_busy: stats_after.rejected_busy - stats_before.rejected_busy,
        busy_share: busy_ns as f64 / 1e9 / lifetime_s,
        balanced: report.balanced(),
        any_failed: report.any_failed(),
        prefill_failed: s.prefill_failed,
        plan,
    }
}

/// Write back every file under `dir` (untimed), so a timed recovery does
/// not compete with the kernel flushing what the timed phase wrote.
fn settle(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            settle(&path);
        } else if let Ok(f) = std::fs::File::open(&path) {
            let _ = f.sync_all();
        }
    }
}

/// Reopen the shard's files and `recover()`; verify every acknowledged
/// write survived. Returns the wall time, the report and the count of
/// acknowledged writes whose durable version is older than the ack.
fn recover_once(
    spec: &Spec,
    dir: &Path,
    plan: &ShardPlan,
    acked: &[u64],
) -> Result<(f64, RecoveryReport, u64, bool), String> {
    let d = shard_dir(dir, plan.shard);
    settle(&d);
    let t0 = Instant::now();
    let sink = FileArraySink::open_recovery(
        plan.lss.array_config(),
        d.join("array"),
        FileSinkOptions::default(),
    )
    .map_err(|e| format!("reopening the array files: {e}"))?;
    let (engine, report) = Lss::builder(Adapt::new(&plan.lss), sink)
        .config(plan.lss)
        .durability(d.join("wal"), DurabilityConfig::default())
        .recover()
        .map_err(|e| format!("recover(): {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let router =
        ShardRouter::new(1, RANGE_BLOCKS, &[VolumeSpec { id: 0, blocks: spec.volume_blocks }]);
    let mut lost = 0u64;
    for (lba, &version) in acked.iter().enumerate() {
        if version == 0 {
            continue;
        }
        let local = router.locate(0, lba as u64, 1).map_err(|e| e.to_string())?.local_lba;
        if engine.durable_version(local).is_none_or(|v| v < version) {
            lost += 1;
        }
    }
    let invariants_ok =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.check_invariants()))
            .is_ok();
    Ok((secs, report, lost, invariants_ok))
}

fn check_phase(report: &mut Report, spec: &Spec, p: &Phase, what: &str) {
    let c = &p.client;
    report.attempted += c.ops + spec.prefill_requests();
    report.failed += c.failed + p.prefill_failed;
    report.check(p.balanced, format!("{what}: ServeReport::balanced()"));
    report.check(!p.any_failed, format!("{what}: no shard failed"));
    report.check(
        c.failed == 0 && p.prefill_failed == 0,
        format!(
            "{what}: every completion Ok ({} timed + {} prefill requests, {} failed, {} Busy retries)",
            c.ops,
            spec.prefill_requests(),
            c.failed + p.prefill_failed,
            c.busy_retries
        ),
    );
}

/// Latency percentile `q` in µs (median over the windows), with a note
/// of the samples behind it in the smallest window.
fn pct_us(report: &mut Report, name: &'static str, wins: &[Win], writes: bool, q: f64) {
    fn pick(w: &Win, writes: bool) -> &[u32] {
        if writes {
            &w.writes
        } else {
            &w.reads
        }
    }
    let least = wins.iter().map(|w| pick(w, writes).len()).min().unwrap_or(0);
    report.note(format!(
        "{name}: {} windows, each at least {least} samples, {} beyond p{}",
        wins.len(),
        beyond(least, q),
        q * 100.0
    ));
    report.metric(name, across(wins, |w| quantile_sorted(pick(w, writes), q) as f64 / 1e3), "us");
}

/// The end-to-end run (tracing off): [`CYCLES`] cycles of set-up, a
/// timed phase over the next slice of the trace and (serve-durable) a
/// timed reopen + `recover()`. Spreading every metric's samples over the
/// whole run keeps one slow stretch of the shared host from deciding
/// any of them.
pub fn run(spec: &Spec, seed: u64, seconds: u64) -> Report {
    let mut report = Report::new();
    let dir = crate::run_dir().join(format!("data-{}-{}", spec.name, std::process::id()));
    let per_cycle = spec.requests(seconds as f64) / CYCLES;
    let ops = spec.trace(seed, per_cycle * CYCLES);

    let mut setups = Vec::with_capacity(CYCLES * (EXTRA_SETUPS + 1));
    let mut recoveries = Vec::with_capacity(CYCLES);
    let mut wins = Vec::with_capacity(CYCLES * WINDOWS);
    let mut total = Window::default();
    let mut elapsed_s = 0.0;
    for (cycle, slice) in ops.chunks(per_cycle).enumerate() {
        // Extra set-ups: file creation makes one set-up jitter far more
        // than the timed phase does, so `setup_s` needs more samples.
        for _ in 0..EXTRA_SETUPS {
            let s = setup(spec, &dir, None);
            setups.push(s.setup_s);
            report.attempted += spec.prefill_requests();
            report.failed += s.prefill_failed;
            let r = s.server.shutdown();
            report.check(r.balanced() && !r.any_failed(), "extra set-up shut down cleanly");
        }
        let p = phase(spec, &dir, slice, None);
        let what = format!("{} cycle {cycle}", spec.name);
        check_phase(&mut report, spec, &p, &what);
        setups.push(p.setup);
        wins.extend(windows(&p.client.samples));
        total = total.plus(&p.window);
        elapsed_s += p.client.elapsed_s;
        match recover_once(spec, &dir, &p.plan, &p.client.acked) {
            Ok((secs, _, lost, invariants_ok)) => {
                recoveries.push(secs);
                let acked = p.client.acked.iter().filter(|v| **v > 0).count();
                report.failed += lost;
                report.check(
                    lost == 0 && invariants_ok,
                    format!(
                        "{what}: recovery lost {lost} of {acked} acknowledged blocks; \
                         invariants {}",
                        if invariants_ok { "hold" } else { "BROKEN" }
                    ),
                );
            }
            Err(e) => report.check(false, format!("{what}: recovery: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    report.note(format!(
        "{}: depth {}, {CYCLES} cycles of {per_cycle} requests in {elapsed_s:.3} s, \
         volume {} blocks, clock step {} us",
        spec.name, spec.depth, spec.volume_blocks, spec.clock_step_us
    ));
    report.metric("setup_s", median(&mut setups), "s");
    report.metric("replay_kops", across(&wins, |w| w.kops), "kops/s");
    report.metric("wa", total.wa(), "ratio");
    report.metric("pad_ratio", total.pad_ratio(), "ratio");
    report.metric("durability_mean_us", total.durability_mean_us(), "us");
    pct_us(&mut report, "write_p50_us", &wins, true, 0.5);
    if spec.depth == 1 {
        pct_us(&mut report, "write_p99_us", &wins, true, 0.99);
    } else {
        pct_us(&mut report, "write_p999_us", &wins, true, 0.999);
    }
    pct_us(&mut report, "read_p50_us", &wins, false, 0.5);
    if spec.depth == 1 {
        pct_us(&mut report, "read_p99_us", &wins, false, 0.99);
    }
    report.metric("read_amp", total.read_amp(), "ratio");
    // Table only: reconcile rewrites every sink record through per-file
    // atomic replaces, so on a disk filesystem it spreads far wider
    // across runs than any bound allows.
    report.metric("recovery_s", median(&mut recoveries), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report
}

/// The traced run: an untraced phase of half the requests, then a
/// traced one; per-layer metrics come from the traced phase.
pub fn run_traced(spec: &Spec, seed: u64, seconds: u64, floor_ns: f64) -> Report {
    let mut report = Report::new();
    let dir = crate::run_dir().join(format!("data-{}-{}", spec.name, std::process::id()));
    let ops = spec.trace(seed, spec.requests(seconds as f64 / 2.0));

    let plain = phase(spec, &dir, &ops, None);
    check_phase(&mut report, spec, &plain, "untraced");
    let slot: TraceSlot = Arc::new(Mutex::new(None));
    let p = phase(spec, &dir, &ops, Some(Arc::clone(&slot)));
    check_phase(&mut report, spec, &p, "traced");
    let trace: EngineTrace = slot
        .lock()
        .expect("the shard thread has exited")
        .take()
        .expect("the traced engine left its trace on drop");

    let c = &p.client;
    let ops_done = c.ops;
    let rec: &Recorder = &trace.rec;
    let writes = c.samples.iter().filter(|s| s.is_write()).count() as u64;

    // serve
    report.metric("serve.submit_ns", ratio(c.submit_cost_ns, ops_done), "ns");
    let mut queue_wait: Vec<u64> = Vec::with_capacity(c.submit_ns.len());
    let first = spec.prefill_requests();
    for run in &trace.runs {
        for k in run.op_lo..run.op_lo + run.ops as u64 {
            if let Some(&submitted) = c.submit_ns.get((k - first) as usize) {
                queue_wait.push(run.start_ns.saturating_sub(submitted));
            }
        }
    }
    queue_wait.sort_unstable();
    report.check(
        queue_wait.len() as u64 == ops_done,
        format!(
            "every timed request matched to its engine call ({} of {ops_done})",
            queue_wait.len()
        ),
    );
    report.metric("serve.queue_wait_us", quantile_sorted(&queue_wait, 0.5) as f64 / 1e3, "us");
    let mut barrier = trace.barrier_wait_ns.clone();
    barrier.sort_unstable();
    report.metric("serve.barrier_wait_us", quantile_sorted(&barrier, 0.5) as f64 / 1e3, "us");
    boundary_metrics(&mut report, rec, ops_done, (c.elapsed_s * 1e9) as u64);
    report.metric("serve.writes_per_sync", ratio(writes, rec.agg(Kind::EngineSync).count), "count");
    report.metric("serve.busy_share", p.busy_share, "ratio");
    report.metric("serve.idle_gc_steps", p.idle_gc_steps as f64, "count");
    report.metric("serve.rejected_busy", p.rejected_busy as f64, "count");

    // lss + core
    let w = &p.window;
    lss_core_metrics(
        &mut report,
        rec,
        ops_done,
        w,
        trace.memory_bytes,
        trace.policy_bytes,
        trace.gc_select_ns as f64 / 1e6,
    );
    report.metric("lss.gc.step_us", rec.agg(Kind::EngineGcStep).mean_ns() / 1e3, "us");
    let block_bytes = LssConfig::default().block_bytes;
    report.metric(
        "lss.read.buffer_hit_share",
        ratio(w.buffer_read_blocks, w.host_read_bytes / block_bytes),
        "ratio",
    );

    // lss::wal
    let (ws, we) = (trace.wal_start, trace.wal_end);
    report.metric(
        "wal.bytes_per_op",
        ratio(we.bytes_appended - ws.bytes_appended, ops_done),
        "bytes",
    );
    report.metric("wal.sync_us", rec.agg(Kind::EngineSync).mean_ns() / 1e3, "us");
    report.metric("wal.checkpoints", (we.checkpoints - ws.checkpoints) as f64, "count");
    let mut stalls: Vec<f64> =
        trace.checkpoint_stall_ns.iter().map(|ns| *ns as f64 / 1e6).collect();
    report.metric("wal.checkpoint_stall_ms", median(&mut stalls), "ms");
    report.metric("wal.rotations", (we.rotations - ws.rotations) as f64, "count");
    report.metric("wal.files_pruned", (we.files_pruned - ws.files_pruned) as f64, "count");

    // lss::recovery
    match recover_once(spec, &dir, &p.plan, &c.acked) {
        Ok((_, r, lost, inv)) => {
            report.check(lost == 0 && inv, format!("recovery: {lost} acknowledged blocks lost"));
            report.metric("recovery.records_applied", r.records_applied as f64, "count");
            report.metric("recovery.flushes_replayed", r.flushes_replayed as f64, "count");
            report.metric("recovery.sink_records_scanned", r.sink.records_scanned as f64, "count");
        }
        Err(e) => report.check(false, format!("recovery: {e}")),
    }

    // array
    let write = rec.agg(Kind::WriteChunk);
    report.metric("array.write_chunk_us", write.mean_ns() / 1e3, "us");
    report.metric("array.chunks_per_op", ratio(write.count, ops_done), "count");
    report.metric("array.read_chunk_us", rec.agg(Kind::ReadChunk).mean_ns() / 1e3, "us");
    report.metric("array.sync_us", rec.agg(Kind::ArraySync).mean_ns() / 1e3, "us");

    // tracing itself
    let plain_kops = across(&windows(&plain.client.samples), |w| w.kops);
    let traced_kops = across(&windows(&c.samples), |w| w.kops);
    report.metric("trace.floor_ns", floor_ns, "ns");
    report.metric("trace.overhead", traced_kops / plain_kops, "ratio");
    write_spans(&mut report, rec, spec.name, seed);
    let _ = std::fs::remove_dir_all(&dir);
    report
}
