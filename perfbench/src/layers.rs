//! Per-layer metrics shared by the traced runs of every workload.

use crate::report::Report;
use crate::spans::{Kind, Recorder};
use crate::window::{ratio, Window};
use adapt_lss::LssConfig;

/// The `lss` and `core` per-layer metrics common to every workload.
/// `rec` holds the timed phase's spans over `ops` host ops.
pub fn lss_core_metrics(
    report: &mut Report,
    rec: &Recorder,
    ops: u64,
    w: &Window,
    memory_bytes: u64,
    policy_bytes: u64,
    gc_select_ms: f64,
) {
    let apply = rec.agg(Kind::EngineApply);
    let block_bytes = LssConfig::default().block_bytes;
    report.metric("lss.apply_ns_per_op", ratio(apply.self_ns, ops), "ns");
    report.metric("lss.gc.passes", w.gc_passes as f64, "count");
    report.metric("lss.gc.migrated_per_pass", ratio(w.blocks_migrated, w.gc_passes), "blocks");
    report.metric("lss.gc.select_ms", gc_select_ms, "ms");
    report.metric("lss.memory_bytes", memory_bytes as f64, "bytes");
    report.metric("lss.flush.padded_share", ratio(w.padded_chunks, w.chunks_flushed), "ratio");
    report.metric(
        "lss.buffer_absorbed_share",
        ratio(w.buffer_absorbed_blocks, w.host_write_bytes / block_bytes),
        "ratio",
    );
    for (name, kind) in [
        ("core.place_user_ns", Kind::PlaceUser),
        ("core.place_gc_ns", Kind::PlaceGc),
        ("core.on_migrated_ns", Kind::OnMigrated),
        ("core.on_sealed_ns", Kind::OnSealed),
        ("core.on_reclaimed_ns", Kind::OnReclaimed),
        ("core.sla_expire_ns", Kind::SlaExpire),
    ] {
        report.metric(name, rec.agg(kind).mean_ns(), "ns");
    }
    report.metric("core.calls_per_op", ratio(rec.sum(Kind::is_core).count, ops), "count");
    report.metric("core.policy_bytes", policy_bytes as f64, "bytes");
    report.metric("core.shadow_appends", w.shadow_append_events as f64, "count");
    report.metric("core.lazy_appends", w.lazy_appends as f64, "count");
}

/// The serve → `lss` boundary metrics every workload has: host wall
/// time per op spent outside the engine's `apply_ops` calls (the
/// client → shard handoff, queueing and barriers on serve-*, the bare
/// calling loop on engine-zipf) and ops per `apply_ops` call. `rec`
/// holds the spans of a timed phase of `ops` host ops lasting `wall_ns`.
pub fn boundary_metrics(report: &mut Report, rec: &Recorder, ops: u64, wall_ns: u64) {
    let apply = rec.agg(Kind::EngineApply);
    report.metric("serve.gap_ns_per_op", ratio(wall_ns.saturating_sub(apply.total_ns), ops), "ns");
    report.metric("serve.ops_per_apply", ratio(ops, apply.count), "count");
}

/// Write the raw spans next to the run's other outputs.
pub fn write_spans(report: &mut Report, rec: &Recorder, workload: &str, seed: u64) {
    let dir = crate::run_dir();
    let path = dir.join(format!("spans-{workload}-{seed}.csv"));
    match std::fs::create_dir_all(&dir).and_then(|_| rec.write_csv(&path)) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
}
