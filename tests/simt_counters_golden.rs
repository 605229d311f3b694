//! Golden digest of every simulated statistic the device records.
//!
//! The constants below were captured on the commit *before* the simt
//! transaction counting was rewritten as a streaming pass and the radix-sort
//! and scan tiles lost their per-tile allocations. Both changes are host-only:
//! they may make the simulator faster, they may not move a single counter or
//! modeled second. The digest covers every `LaunchRecord` of the trace — name,
//! all `KernelStats` fields, `seconds.to_bits()` — so it is wider than the
//! benchmark's `modeled_us_per_op`, and it must not depend on the opt level
//! (CI runs it in debug and `--release`).
//!
//! Every scene is pinned to `AssemblyReuse::Recompute`: the constants digest
//! the paper's Fig 4 assembly stream, whatever path the default takes.

use dda_repro::core::contact::BroadPhaseMode;
use dda_repro::core::pipeline::{system_fingerprint, GpuPipeline, PrecondKind, SceneBatch};
use dda_repro::core::{AssemblyReuse, BlockSystem, DdaParams};
use dda_repro::simt::{Device, DeviceProfile, DeviceTrace};
use dda_repro::solver::SolverPrecision;
use dda_repro::workloads::{
    rockfall_case, scatter_case, slope_case, RockfallConfig, ScatterConfig, SlopeConfig,
};

const STEPS: usize = 8;

/// `(records, digest)` of the solo slope, rockfall and scatter traces.
const GOLDEN_SOLO: [(usize, u64); 3] = [
    (16253, 0x23de4acd162408ce),
    (1293, 0xa03f535f65a9ccc5),
    (1179, 0x5c397a2d2770eb13),
];

/// `(records, digest)` of the shared device after the 8-scene batch.
const GOLDEN_BATCH: (usize, u64) = (13048, 0x83160b2130561f78);

/// `(records, digest)` under `SolverPrecision::Mixed`, with the final block
/// state and `x_prev` folded in: rockfall and slope on Block-Jacobi (the
/// five-launch fp32 fast path), rockfall on SSOR-AI (the promote → apply →
/// demote bridge). Captured on the commit before the fp64/fp32 solver twins
/// were merged into one generic core.
const GOLDEN_MIXED_SOLO: [(usize, u64); 3] = [
    (1676, 0x952c30ab48e75be3),
    (16942, 0x3e98a036abe25a7f),
    (2008, 0x4fe374429fde3e68),
];

/// The 8-scene batch of [`GOLDEN_BATCH`] with every scene on `Mixed`.
const GOLDEN_MIXED_BATCH: (usize, u64) = (15645, 0xb9c1bec822816189);

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(trace: &DeviceTrace) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in &trace.records {
        fnv1a(&mut h, r.name.as_bytes());
        let s = &r.stats;
        for v in [
            s.launches,
            s.threads,
            s.warps,
            s.flops,
            s.warp_flops,
            s.gmem_transactions,
            s.gmem_bytes,
            s.tex_transactions,
            s.smem_accesses,
            s.smem_replays,
            s.branch_groups,
            s.divergent_branch_groups,
            s.shuffles,
            s.syncs,
            r.seconds.to_bits(),
        ] {
            fnv1a(&mut h, &v.to_le_bytes());
        }
    }
    (trace.len(), h)
}

/// [`digest`] continued over a scene's final state: the fp32 kernels leave
/// the counters alone when they round differently, the solution bits do not.
fn digest_with_state(trace: &DeviceTrace, scenes: &[(&BlockSystem, Vec<f64>)]) -> (usize, u64) {
    let (len, mut h) = digest(trace);
    for (sys, x_prev) in scenes {
        fnv1a(&mut h, &system_fingerprint(sys).to_le_bytes());
        for x in x_prev {
            fnv1a(&mut h, &x.to_bits().to_le_bytes());
        }
    }
    (len, h)
}

/// Pins a scene to the Fig 4 oracle the constants were captured on.
fn fig4((sys, params): (BlockSystem, DdaParams)) -> (BlockSystem, DdaParams) {
    (sys, params.with_assembly_reuse(AssemblyReuse::Recompute))
}

fn solo_scenes() -> Vec<(BlockSystem, DdaParams)> {
    let (sys, params) = scatter_case(&ScatterConfig::default().with_rocks(420));
    assert_eq!(params.broad_phase, BroadPhaseMode::GridCached);
    vec![
        slope_case(&SlopeConfig::default().with_target_blocks(60)),
        rockfall_case(&RockfallConfig::default().with_rocks(40)),
        (sys, params),
    ]
    .into_iter()
    .map(fig4)
    .collect()
}

#[test]
fn solo_traces_match_the_parent_commit() {
    let mut widest = 0;
    let got: Vec<(usize, u64)> = solo_scenes()
        .into_iter()
        .map(|(sys, params)| {
            let mut pipe = GpuPipeline::new(sys, params, k40());
            pipe.run(STEPS);
            let trace = pipe.device().trace();
            widest = widest.max(trace.records.iter().map(|r| r.stats.warps).max().unwrap());
            digest(&trace)
        })
        .collect();
    // More than 64 warps in one launch is past both dispatch cut-offs, so
    // the per-thread partial counters and their merge are under the digest.
    assert!(widest > 64, "no launch took the pool path ({widest} warps)");
    assert_eq!(got, GOLDEN_SOLO, "got {got:#018x?}");
}

fn batch_scenes() -> Vec<(BlockSystem, DdaParams)> {
    (0..8)
        .map(|k| match k % 3 {
            0 => rockfall_case(&RockfallConfig::default().with_rocks(6 + k)),
            1 => scatter_case(&ScatterConfig::default().with_rocks(20 + 4 * k)),
            _ => slope_case(&SlopeConfig::default().with_target_blocks(12 + k)),
        })
        .map(fig4)
        .collect()
}

#[test]
fn batch_trace_matches_the_parent_commit() {
    let mut batch = SceneBatch::new(k40(), batch_scenes());
    batch.run(STEPS);
    let got = digest(&batch.device().trace());
    assert_eq!(got, GOLDEN_BATCH, "got {got:#018x?}");
}

#[test]
fn mixed_solo_traces_match_the_parent_commit() {
    let rockfall = || fig4(rockfall_case(&RockfallConfig::default().with_rocks(40)));
    let slope = fig4(slope_case(&SlopeConfig::default().with_target_blocks(60)));
    let got: Vec<(usize, u64)> = [
        (rockfall(), PrecondKind::BlockJacobi),
        (slope, PrecondKind::BlockJacobi),
        (rockfall(), PrecondKind::SsorAi),
    ]
    .into_iter()
    .map(|((sys, params), precond)| {
        let params = params
            .with_precision(SolverPrecision::Mixed)
            .with_precond(precond);
        let mut pipe = GpuPipeline::new(sys, params, k40());
        pipe.run(STEPS);
        let trace = pipe.device().trace();
        // The fp32 inner loop ran, and on SSOR-AI through the fp64 bridge.
        let by = trace.by_kernel();
        assert!(by.contains_key("pcg.fused.axpy2norm.f32"));
        assert_eq!(
            by.contains_key("vec.promote"),
            precond == PrecondKind::SsorAi
        );
        digest_with_state(&trace, &[(&pipe.sys, pipe.scene_state().x_prev)])
    })
    .collect();
    assert_eq!(got, GOLDEN_MIXED_SOLO, "got {got:#018x?}");
}

#[test]
fn mixed_batch_trace_matches_the_parent_commit() {
    let scenes: Vec<_> = batch_scenes()
        .into_iter()
        .map(|(sys, params)| (sys, params.with_precision(SolverPrecision::Mixed)))
        .collect();
    let n = scenes.len();
    let mut batch = SceneBatch::new(k40(), scenes);
    batch.run(STEPS);
    let trace = batch.device().trace();
    assert!(trace.by_kernel().contains_key("pcg.fused.axpy2norm.f32"));
    let states: Vec<_> = (0..n)
        .map(|k| {
            let x_prev = batch.scene_state(k).expect("live scene").x_prev;
            (batch.sys(k).expect("live scene"), x_prev)
        })
        .collect();
    let got = digest_with_state(&trace, &states);
    assert_eq!(got, GOLDEN_MIXED_BATCH, "got {got:#018x?}");
}
