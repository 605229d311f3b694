//! Scattered sparse rock field — the broad-phase stress workload.
//!
//! Rocks are strewn across a wide domain at a low areal fill, so each
//! block has O(1) spatial neighbours while the all-pairs candidate set
//! grows as n². This is exactly the regime where the cell-binned broad
//! phase (`dda_core::contact::grid`) wins: real contact work stays
//! linear in n while the quadratic candidate sweep becomes the dominant
//! cost of every step. The benchmark's `scatter_sparse` workload and the
//! broad-phase claim in `tests/beyond_paper_claims.rs` run on this field,
//! and the ingestion soak mixes it into its traffic so the grid + cache
//! paths run under scheduler churn.
//!
//! The generator is seeded and fully deterministic: the same
//! [`ScatterConfig`] yields a bitwise-identical [`BlockSystem`].

use dda_core::contact::BroadPhaseMode;
use dda_core::{Block, BlockMaterial, BlockSystem, DdaParams, JointMaterial};
use dda_geom::{Polygon, Vec2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the scattered rock field.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScatterConfig {
    /// Number of free rock blocks.
    pub n_rocks: usize,
    /// Nominal rock edge length (m); actual rocks vary ±20%.
    pub rock_size: f64,
    /// Grid cells per rock: `sparsity` = 3 leaves two of every three
    /// candidate sites empty, so occupied sites scatter instead of
    /// tiling. Must be ≥ 1.
    pub sparsity: usize,
    /// Centre-to-centre pitch of candidate sites, as a multiple of
    /// `rock_size`. Must be > 1.3 so jittered rocks can never start
    /// interpenetrating.
    pub pitch_factor: f64,
    /// Initial downward drop speed (m/s); each rock also gets a ±20%
    /// lateral jitter so trajectories diverge.
    pub drop_speed: f64,
    /// Per-mille of occupied sites holding a two-rock stack (two
    /// half-size rocks separated by a sub-contact-range gap) instead of
    /// one rock. Stacks guarantee O(n) narrow-phase contacts from step 0
    /// while the field stays spatially sparse; the halves get independent
    /// velocity draws so stacked pairs close, open and slide instead of
    /// falling in formation.
    pub stack_permille: usize,
    /// Stream seed: same seed, same field, bit for bit.
    pub seed: u64,
}

impl Default for ScatterConfig {
    fn default() -> Self {
        ScatterConfig {
            n_rocks: 200,
            rock_size: 2.0,
            sparsity: 3,
            pitch_factor: 2.2,
            drop_speed: 1.5,
            stack_permille: 400,
            seed: 0x5CA7,
        }
    }
}

impl ScatterConfig {
    /// Adjusts the rock count, keeping the fill fraction constant (the
    /// domain grows with √n in both directions).
    pub fn with_rocks(mut self, n: usize) -> ScatterConfig {
        self.n_rocks = n;
        self
    }
}

/// Builds the scattered field: one fixed floor plus `n_rocks` jittered
/// squares dropped onto it. Contact density per block is O(1) by
/// construction, so the pair list the broad phase must find stays
/// linear in n while the all-pairs candidate sweep is quadratic.
///
/// The returned params select [`BroadPhaseMode::GridCached`] — this
/// workload exists to exercise the grid + cache path; callers comparing
/// modes override `params.broad_phase` per run.
pub fn scatter_case(cfg: &ScatterConfig) -> (BlockSystem, DdaParams) {
    assert!(cfg.sparsity >= 1, "sparsity must be >= 1");
    assert!(
        cfg.pitch_factor > 1.3,
        "pitch_factor must exceed 1.3 so jittered rocks cannot overlap"
    );
    let n = cfg.n_rocks;
    let s = cfg.rock_size;
    let pitch = cfg.pitch_factor * s;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Candidate sites form a cols × rows lattice with `sparsity` sites
    // per rock; a partial Fisher–Yates draw picks which n are occupied,
    // so occupancy scatters instead of tiling row-major.
    let sites = (n.max(1)) * cfg.sparsity;
    let cols = (sites as f64).sqrt().ceil() as usize;
    let rows = sites.div_ceil(cols.max(1));
    let mut order: Vec<usize> = (0..cols * rows).collect();
    for k in 0..n.min(order.len()) {
        let j = k + rng.gen_range(0..order.len() - k);
        order.swap(k, j);
    }

    let width = cols as f64 * pitch;
    let mut blocks = Vec::with_capacity(n + 1);
    // Fixed floor under the whole field.
    blocks.push(Block::new(Polygon::rect(-s, -s, width + s, 0.0), 0).fixed());

    // Jitter amplitude: with half-size ≤ 0.6 s and pitch > 1.3 s, rocks
    // jittered by up to (pitch − 1.2 s)/2 per axis can never touch a
    // neighbouring site's rock, so the field starts interpenetration-free.
    // (A stacked site's two half-size rocks plus gap span no more than a
    // full-size rock, so the same bound covers them.)
    let jitter = 0.5 * (pitch - 1.2 * s) * 0.95;
    // Strictly inside the narrow-phase range d0 = contact_range
    // (= 0.025 s), not merely inside the broad phase's 2 × contact_range
    // box inflation: a stacked pair is a *contact* from step 0, not just a
    // candidate. (The gap used to be 0.03 s — a broad-phase pair whose
    // halves, falling in formation, never actually came into range.)
    let gap = 0.015 * s;
    let mk_rock = |cx: f64, cy: f64, half: f64, vx: f64, vy: f64| {
        let mut rock = Block::new(
            Polygon::new(vec![
                Vec2::new(cx - half, cy - half),
                Vec2::new(cx + half, cy - half),
                Vec2::new(cx + half, cy + half),
                Vec2::new(cx - half, cy + half),
            ]),
            0,
        );
        rock.velocity[0] = vx;
        rock.velocity[1] = vy;
        rock
    };
    for &site in order.iter().take(n) {
        if blocks.len() > n {
            break;
        }
        let (col, row) = (site % cols, site / cols);
        let size = s * (0.8 + 0.4 * rng.gen::<f64>());
        let cx = (col as f64 + 0.5) * pitch + jitter * (2.0 * rng.gen::<f64>() - 1.0);
        let cy = s + (row as f64 + 0.5) * pitch + jitter * (2.0 * rng.gen::<f64>() - 1.0);
        let vx = cfg.drop_speed * 0.2 * (2.0 * rng.gen::<f64>() - 1.0);
        let vy = -cfg.drop_speed;
        let stacked = rng.gen_range(0..1000) < cfg.stack_permille;
        if stacked && blocks.len() + 1 < n + 1 {
            // Two half-size rocks sharing the site, the gap between them
            // inside narrow range: one guaranteed contact. The upper half
            // gets its own velocity draw so the pair has relative motion —
            // some stacks close and load, some separate, some shear.
            let h = 0.25 * size;
            let vx2 = cfg.drop_speed * 0.2 * (2.0 * rng.gen::<f64>() - 1.0);
            let vy2 = -cfg.drop_speed * (0.6 + 0.8 * rng.gen::<f64>());
            blocks.push(mk_rock(cx, cy - h - 0.5 * gap, h, vx, vy));
            blocks.push(mk_rock(cx, cy + h + 0.5 * gap, h, vx2, vy2));
        } else {
            blocks.push(mk_rock(cx, cy, 0.5 * size, vx, vy));
        }
    }
    blocks.truncate(n + 1);

    let sys = BlockSystem {
        blocks,
        block_materials: vec![BlockMaterial::rock().with_young(4e9).with_density(2500.0)],
        joint_materials: vec![JointMaterial::frictional(30.0)],
        point_loads: Vec::new(),
    };
    let mut params = DdaParams::for_model(s, 4e9);
    params.dt = 0.01;
    params.dt_max = 0.01;
    params.dynamics = 0.95;
    params.broad_phase = BroadPhaseMode::GridCached;
    (sys, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_defaults() {
        let (sys, params) = scatter_case(&ScatterConfig::default());
        assert_eq!(sys.len(), 1 + 200);
        assert_eq!(sys.blocks.iter().filter(|b| b.fixed).count(), 1);
        assert_eq!(params.broad_phase, BroadPhaseMode::GridCached);
        for b in &sys.blocks {
            assert!(b.poly.is_convex());
        }
    }

    #[test]
    fn same_seed_is_bitwise_identical() {
        let cfg = ScatterConfig::default().with_rocks(64);
        let (a, _) = scatter_case(&cfg);
        let (b, _) = scatter_case(&cfg);
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            for (vx, vy) in x.poly.vertices().iter().zip(y.poly.vertices()) {
                assert_eq!(vx.x.to_bits(), vy.x.to_bits());
                assert_eq!(vx.y.to_bits(), vy.y.to_bits());
            }
            for dof in 0..6 {
                assert_eq!(x.velocity[dof].to_bits(), y.velocity[dof].to_bits());
            }
        }
    }

    #[test]
    fn different_seed_moves_rocks() {
        let (a, _) = scatter_case(&ScatterConfig {
            seed: 1,
            ..ScatterConfig::default()
        });
        let (b, _) = scatter_case(&ScatterConfig {
            seed: 2,
            ..ScatterConfig::default()
        });
        let moved = a
            .blocks
            .iter()
            .zip(&b.blocks)
            .skip(1)
            .filter(|(x, y)| (x.centroid() - y.centroid()).norm() > 1e-9)
            .count();
        assert!(moved > 100, "seeds must scatter differently ({moved})");
    }

    #[test]
    fn starts_interpenetration_free() {
        let (sys, _) = scatter_case(&ScatterConfig::default().with_rocks(150));
        assert!(sys.total_interpenetration() < 1e-9);
    }

    #[test]
    fn field_is_sparse() {
        // The pair list a broad phase must produce is tiny relative to
        // n(n−1)/2 — the property that makes this the grid stressor.
        let (sys, params) = scatter_case(&ScatterConfig::default());
        let boxes: Vec<_> = sys
            .blocks
            .iter()
            .map(|b| b.aabb().inflate(params.contact_range))
            .collect();
        let n = sys.len();
        let mut pairs = 0usize;
        for i in 0..n {
            for j in i + 1..n {
                if boxes[i].overlaps(&boxes[j]) {
                    pairs += 1;
                }
            }
        }
        assert!(
            pairs > n / 10,
            "stacked sites must seed in-range pairs: {pairs} for {n} blocks"
        );
        assert!(
            pairs < n * 4,
            "scatter field must be sparse: {pairs} pairs for {n} blocks"
        );
    }
}
