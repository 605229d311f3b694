//! Golden pin for the GPU step engine.
//!
//! The values below were captured on the commit *before* `GpuPipeline` and
//! `SceneBatch` were moved onto one step loop, where the two were separate
//! implementations held together by bitwise parity tests. What those two
//! agreed on — each scene's state fingerprint after 12 steps, solo and as
//! slot *k* of a five-scene batch — is the oracle now that only one loop is
//! left; the modeled device seconds of both shapes are pinned to the bit
//! beside it, so a refactor cannot silently move launches either. The
//! scenes are pinned to `AssemblyReuse::Recompute`, the Fig 4 assembly the
//! seconds were captured on, and to `SolverWarmStart::PrevStep`, the bitwise
//! warm-start oracle the fingerprints were captured on. That second pin was
//! added before `PrevIterate` became the default, and nothing was
//! re-captured for it.
//!
//! The fingerprints have never been re-captured. The six modeled-second bit
//! patterns were, three times: on the commit that made the per-solve set-up
//! run at memory speed (coalesced Block-Jacobi construction, four-launch PCG
//! prologue), on the commit that cut the Block-Jacobi PCG iteration from
//! five launches to three (the update merged with the preconditioner
//! apply, the direction update folded into the next SpMV), and on the
//! commit that made `openclose.update` return its own change count (the
//! scan over its flags is gone). All three changes remove launches and
//! transactions by design and leave every fingerprint where it was. They
//! are equal in debug and release.

use dda_repro::core::pipeline::{system_fingerprint, GpuPipeline, SceneBatch};
use dda_repro::core::{
    AssemblyReuse, Block, BlockMaterial, BlockSystem, DdaParams, JointMaterial, SolverWarmStart,
};
use dda_repro::geom::Polygon;
use dda_repro::simt::{Device, DeviceProfile};
use dda_repro::workloads::{rockfall_case, scatter_case, RockfallConfig, ScatterConfig};

const STEPS: usize = 12;

/// `(fingerprint, solo modeled_seconds bits)` per scene, in `scenes()` order.
const GOLDEN: [(u64, u64); 5] = [
    (0x6ccfb76de07ea35a, 0x3f6d0ca919178525),
    (0xed262c73ad1cde44, 0x3f73606ef1357436),
    (0x7fefc3184db920f7, 0x3f6d6e83672ac32e),
    (0x3dff7b8053f9040e, 0x3f874f2aee032b76),
    (0xc5476e9c6eda9566, 0x3f84ef6ba714ea37),
];

/// Modeled seconds (bits) of the shared device after the five scenes ran
/// 12 steps as one batch.
const GOLDEN_BATCH_SECONDS: u64 = 0x3f93b0daa9c143e7;

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

/// A block on a fixed floor: resting, dropped from 5 mm, and resting
/// off-centre (the three scenes of `SceneBatch`'s unit tests).
fn stack(kind: usize) -> (BlockSystem, DdaParams) {
    let (top, params) = match kind {
        0 => (
            Polygon::rect(-0.5, 0.0, 0.5, 1.0),
            DdaParams::for_model(1.0, 5e9).static_analysis(),
        ),
        1 => {
            let mut p = DdaParams::for_model(1.0, 5e9);
            p.dt = 0.002;
            p.dt_max = 0.002;
            (Polygon::rect(-0.5, 0.005, 0.5, 1.005), p)
        }
        _ => (
            Polygon::rect(0.3, 0.0, 1.3, 1.0),
            DdaParams::for_model(1.0, 5e9).static_analysis(),
        ),
    };
    let sys = BlockSystem::new(
        vec![
            Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed(),
            Block::new(top, 0),
        ],
        BlockMaterial::rock(),
        JointMaterial::frictional(35.0),
    );
    (sys, params)
}

fn scenes() -> Vec<(BlockSystem, DdaParams)> {
    vec![
        stack(0),
        stack(1),
        stack(2),
        rockfall_case(&RockfallConfig::default().with_rocks(24)),
        scatter_case(&ScatterConfig::default().with_rocks(48)),
    ]
    .into_iter()
    .map(|(sys, params)| {
        let params = params
            .with_assembly_reuse(AssemblyReuse::Recompute)
            .with_warm_start(SolverWarmStart::PrevStep);
        (sys, params)
    })
    .collect()
}

#[test]
fn solo_pipeline_reproduces_the_pinned_trajectories() {
    let got: Vec<(u64, u64)> = scenes()
        .into_iter()
        .map(|(sys, params)| {
            let mut pipe = GpuPipeline::new(sys, params, k40());
            pipe.run(STEPS);
            (
                system_fingerprint(&pipe.sys),
                pipe.device().modeled_seconds().to_bits(),
            )
        })
        .collect();
    assert_eq!(got, GOLDEN, "got {got:#018x?}");
}

#[test]
fn batch_slots_reproduce_the_pinned_trajectories() {
    let mut batch = SceneBatch::new(k40(), scenes());
    batch.run(STEPS);
    let got: Vec<u64> = (0..GOLDEN.len())
        .map(|k| system_fingerprint(batch.sys(k).expect("live scene")))
        .collect();
    assert_eq!(got, GOLDEN.map(|g| g.0), "got {got:#018x?}");
    let secs = batch.device().modeled_seconds().to_bits();
    assert_eq!(secs, GOLDEN_BATCH_SECONDS, "got {secs:#018x}");
}
