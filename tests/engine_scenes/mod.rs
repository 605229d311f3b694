//! The five scenes the step engine is pinned on: `tests/step_engine.rs`
//! holds their fingerprints, `tests/simt_counters_golden.rs` their
//! `engine/*` ledger rows.

use dda_repro::core::{
    AssemblyReuse, Block, BlockMaterial, BlockSystem, DdaParams, JointMaterial, SolverWarmStart,
};
use dda_repro::geom::Polygon;
use dda_repro::workloads::{rockfall_case, scatter_case, RockfallConfig, ScatterConfig};

/// Steps each scene runs, solo and as a slot of the five-scene batch.
pub const STEPS: usize = 12;

/// Block `top` on a fixed floor.
fn stack(top: Polygon, params: DdaParams) -> (BlockSystem, DdaParams) {
    let floor = Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed();
    let blocks = vec![floor, Block::new(top, 0)];
    let sys = BlockSystem::new(
        blocks,
        BlockMaterial::rock(),
        JointMaterial::frictional(35.0),
    );
    (sys, params)
}

/// A block on a fixed floor — resting, dropped from 5 mm, and resting
/// off-centre (the three scenes of `SceneBatch`'s unit tests) — then a
/// 24-rock rockfall and a 48-rock scatter, pinned to the Fig 4 assembly and
/// the bitwise warm-start oracle they were captured on.
pub fn scenes() -> Vec<(BlockSystem, DdaParams)> {
    let statics = DdaParams::for_model(1.0, 5e9).static_analysis();
    let mut dynamic = DdaParams::for_model(1.0, 5e9);
    (dynamic.dt, dynamic.dt_max) = (0.002, 0.002);
    vec![
        stack(Polygon::rect(-0.5, 0.0, 0.5, 1.0), statics.clone()),
        stack(Polygon::rect(-0.5, 0.005, 0.5, 1.005), dynamic),
        stack(Polygon::rect(0.3, 0.0, 1.3, 1.0), statics),
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
