//! Regression: a shadow append whose target group has no open segment
//! opens one first, and that allocation can run GC. GC migrations that
//! land in the *home* group can flush the very pending blocks the shadow
//! append was about to substitute, so the shadow list must be rebuilt
//! after the allocation. Before the fix the stale list made the flush
//! fail half-way through a chunk (`IndexCorruption`), leaving the open
//! segment misaligned, and the next flush panicked with "append into a
//! full segment".
//!
//! The trace has the shape of the `engine-zipf` benchmark workload that
//! first hit it: a sequential 64 KiB prefill of the whole volume, then
//! single-block YCSB Zipf 0.9 writes with scattered ranks on a dense
//! 2 µs arrival clock.

use adapt_array::CountingArray;
use adapt_lss::{
    GcSelection, GroupId, GroupKind, HostOp, Lba, Lss, LssConfig, PlacementPolicy, PolicyCtx,
    SlaAction, VictimMeta,
};
use adapt_trace::rng::Xoshiro256StarStar;
use adapt_trace::ZipfGenerator;

/// Six user groups striped by LBA. Group 0 shadow-appends its SLA
/// stragglers into group 1 and also receives every GC migration, so GC
/// run by the allocation for group 1 can flush group 0's buffer in the
/// middle of a shadow append. Six groups make that interleaving (group 1
/// sealed, another group's allocation draining the free pool to its low
/// watermark, then the shadow append) common.
struct ColdHome;

impl PlacementPolicy for ColdHome {
    fn name(&self) -> &'static str {
        "cold-home"
    }
    fn groups(&self) -> &[GroupKind] {
        &[GroupKind::User; 6]
    }
    fn place_user(&mut self, _c: &PolicyCtx, lba: Lba) -> GroupId {
        (lba % 6) as GroupId
    }
    fn place_gc(&mut self, _c: &PolicyCtx, _l: Lba, _v: &VictimMeta) -> GroupId {
        0
    }
    fn on_sla_expire(&mut self, _c: &PolicyCtx, gid: GroupId) -> SlaAction {
        if gid == 0 {
            SlaAction::ShadowAppend { target: 1 }
        } else {
            SlaAction::Pad
        }
    }
}

const VOLUME_BLOCKS: u64 = 16 * 1024;

fn trace(seed: u64, zipf_ops: usize) -> Vec<HostOp> {
    let mut ts = 0u64;
    let mut tick = || {
        ts += 2;
        ts
    };
    let mut ops: Vec<HostOp> =
        (0..VOLUME_BLOCKS).step_by(16).map(|lba| HostOp::write(tick(), lba, 16)).collect();
    let zipf = ZipfGenerator::new(VOLUME_BLOCKS, 0.9);
    let mut rng = Xoshiro256StarStar::new(seed);
    let scatter = VOLUME_BLOCKS / 2 + 1;
    ops.extend((0..zipf_ops).map(|_| {
        let lba = (zipf.sample(&mut rng) * scatter) % VOLUME_BLOCKS;
        HostOp::write(tick(), lba, 1)
    }));
    ops
}

#[test]
fn gc_inside_a_shadow_append_never_shadows_a_flushed_block() {
    let cfg = LssConfig::default().with_user_blocks(VOLUME_BLOCKS);
    for seed in 1..=4 {
        let mut lss = Lss::builder(ColdHome, CountingArray::new(cfg.array_config()))
            .config(cfg)
            .gc_select(GcSelection::Greedy)
            .build();
        for (i, op) in trace(seed, 60_000).iter().enumerate() {
            if let Err(e) = lss.try_apply_ops(std::slice::from_ref(op)) {
                panic!("seed {seed}: op {i} failed: {e:?}");
            }
        }
        assert!(lss.metrics().shadow_append_events > 0, "seed {seed}: no shadow appends ran");
        assert!(lss.metrics().gc_passes > 0, "seed {seed}: GC never ran");
        lss.check_invariants();
    }
}
