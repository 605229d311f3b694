//! Property-style parity tests for the device's cell-binned broad phase.
//!
//! The uniform grid is an *indexing* change, not a semantics change: for
//! any block soup the device's cached grid must report exactly the pairs
//! the serial all-pairs sweep (the oracle) reports — same set, same
//! canonical (i < j, lexicographic) order — on the call that bins and on
//! the call served from the cache. The soups here are chosen to stress
//! the grid's corner cases: uniform scatter, dense clusters, a giant
//! block spanning many cells over random debris, everything crammed into
//! one cell, the empty system, and a single block.
//!
//! A second battery drives a soup block-by-block until the cache's slack
//! budget is consumed, checking after every motion step that the cached
//! candidate filter never misses a pair the oracle finds, and that the
//! rebuild counter fires only when the slack is actually spent.

use dda_repro::core::contact::{
    broad_phase_serial_ws, detect_broad_gpu, BroadPhaseMode, ContactWorkspace, GeomSoa,
};
use dda_repro::core::{Block, BlockMaterial, BlockSystem, JointMaterial};
use dda_repro::geom::{Polygon, Vec2};
use dda_repro::simt::serial::CpuCounter;
use dda_repro::simt::{Device, DeviceProfile};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

/// Hand-rolled LCG so the soups are reproducible without pulling a rand
/// dependency into the umbrella tests.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }
}

fn soup(blocks: Vec<Block>) -> BlockSystem {
    BlockSystem::new(
        blocks,
        BlockMaterial::rock(),
        JointMaterial::frictional(30.0),
    )
}

fn rect_at(rng: &mut Lcg, cx: f64, cy: f64, smin: f64, smax: f64) -> Block {
    let (w, h) = (rng.range(smin, smax), rng.range(smin, smax));
    Block::new(
        Polygon::rect(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0),
        0,
    )
}

fn uniform_soup(rng: &mut Lcg, n: usize, side: f64) -> BlockSystem {
    soup(
        (0..n)
            .map(|_| {
                let (cx, cy) = (rng.range(0.0, side), rng.range(0.0, side));
                rect_at(rng, cx, cy, 0.4, 1.6)
            })
            .collect(),
    )
}

fn clustered_soup(rng: &mut Lcg, clusters: usize, per: usize, side: f64) -> BlockSystem {
    let mut blocks = Vec::new();
    for _ in 0..clusters {
        let (cx, cy) = (rng.range(0.0, side), rng.range(0.0, side));
        for _ in 0..per {
            let (dx, dy) = (rng.range(-1.5, 1.5), rng.range(-1.5, 1.5));
            blocks.push(rect_at(rng, cx + dx, cy + dy, 0.3, 1.0));
        }
    }
    soup(blocks)
}

fn giant_soup(rng: &mut Lcg, n: usize, side: f64) -> BlockSystem {
    let mut blocks = vec![Block::new(Polygon::rect(-1.0, -1.0, side + 1.0, 0.0), 0)];
    for _ in 0..n {
        let (cx, cy) = (rng.range(0.0, side), rng.range(0.05, side / 3.0));
        blocks.push(rect_at(rng, cx, cy, 0.3, 1.2));
    }
    soup(blocks)
}

fn one_cell_soup(rng: &mut Lcg, n: usize) -> BlockSystem {
    // Everything inside a patch smaller than one block extent: the grid
    // degenerates to (nearly) a single occupied cell.
    soup(
        (0..n)
            .map(|_| {
                let (cx, cy) = (rng.range(0.0, 0.5), rng.range(0.0, 0.5));
                rect_at(rng, cx, cy, 0.8, 1.4)
            })
            .collect(),
    )
}

/// Every device path — all-pairs, and the cached grid on its building call
/// and on its hit — must produce the serial all-pairs oracle's canonical
/// pair list.
fn assert_parity(sys: &BlockSystem, range: f64) {
    let mut counter = CpuCounter::default();
    let mut oracle = ContactWorkspace::new();
    broad_phase_serial_ws(sys, range, &mut counter, &mut oracle);

    let dev = k40();
    let soa = GeomSoa::build(sys);
    let mut all_gpu = ContactWorkspace::new();
    detect_broad_gpu(
        &dev,
        &soa,
        BroadPhaseMode::AllPairs,
        range,
        0.0,
        &mut all_gpu,
    );
    assert_eq!(all_gpu.pairs, oracle.pairs, "device all-pairs vs serial");

    // The cached device path, on the call that builds the candidate set
    // and on the next one, which is served from it.
    let mut cached_gpu = ContactWorkspace::new();
    for call in ["build", "hit"] {
        let mode = BroadPhaseMode::GridCached;
        detect_broad_gpu(&dev, &soa, mode, range, 0.1, &mut cached_gpu);
        assert_eq!(
            cached_gpu.pairs, oracle.pairs,
            "device cached grid ({call}) vs all-pairs"
        );
    }
    assert_eq!((cached_gpu.cache.rebuilds, cached_gpu.cache.hits), (1, 1));
}

#[test]
fn uniform_soups_match_all_pairs() {
    for seed in 1..=5u64 {
        let mut rng = Lcg(seed);
        let sys = uniform_soup(&mut rng, 120, 28.0);
        for range in [0.0, 0.05, 0.5] {
            assert_parity(&sys, range);
        }
    }
}

#[test]
fn clustered_soups_match_all_pairs() {
    for seed in 10..=14u64 {
        let mut rng = Lcg(seed);
        let sys = clustered_soup(&mut rng, 6, 20, 40.0);
        assert_parity(&sys, 0.05);
        assert_parity(&sys, 0.3);
    }
}

#[test]
fn giant_block_soups_match_all_pairs() {
    for seed in 20..=23u64 {
        let mut rng = Lcg(seed);
        let sys = giant_soup(&mut rng, 80, 50.0);
        assert_parity(&sys, 0.05);
    }
}

#[test]
fn one_cell_soups_match_all_pairs() {
    for seed in 30..=33u64 {
        let mut rng = Lcg(seed);
        let sys = one_cell_soup(&mut rng, 40);
        assert_parity(&sys, 0.05);
    }
}

#[test]
fn empty_and_single_soups_match_all_pairs() {
    let mut rng = Lcg(99);
    assert_parity(&soup(Vec::new()), 0.05);
    let one = soup(vec![rect_at(&mut rng, 3.0, 3.0, 0.5, 1.5)]);
    assert_parity(&one, 0.05);
}

/// Drives blocks step by step until the slack budget is consumed: the
/// device's cached filter must agree with the serial all-pairs oracle
/// after *every* step, the steps inside the budget must be served from the
/// cache, and the rebuild counter must fire once the accumulated motion
/// spends the slack.
#[test]
fn cache_revalidation_never_misses_a_pair() {
    let (range, slack) = (0.05, 0.35);
    let step_d = 0.06; // per-step max displacement: ~6 steps per budget
    let dev = k40();
    let cached_detect = |sys: &BlockSystem, ws: &mut ContactWorkspace| {
        let soa = GeomSoa::build(sys);
        detect_broad_gpu(&dev, &soa, BroadPhaseMode::GridCached, range, slack, ws);
    };
    for seed in 40..=42u64 {
        let mut rng = Lcg(seed);
        let mut sys = uniform_soup(&mut rng, 90, 22.0);
        // Per-block drift directions, fixed for the whole run.
        let dirs: Vec<Vec2> = (0..sys.len())
            .map(|_| {
                let a = rng.range(0.0, std::f64::consts::TAU);
                Vec2::new(a.cos(), a.sin())
            })
            .collect();

        let mut counter = CpuCounter::default();
        let mut cached = ContactWorkspace::new();
        let mut oracle = ContactWorkspace::new();
        cached_detect(&sys, &mut cached);
        assert_eq!(cached.cache.rebuilds, 1, "first call builds");

        for step in 0..16 {
            // Each block moves by at most step_d (scaled per block so the
            // motions differ); the driver reports the max to the cache,
            // exactly as the pipelines report StepReport::max_displacement.
            let mut maxd = 0.0f64;
            for (b, dir) in sys.blocks.iter_mut().zip(&dirs) {
                let d = step_d * (0.5 + 0.5 * ((step + 1) as f64 % 2.0));
                b.poly = b.poly.translated(Vec2::new(dir.x * d, dir.y * d));
                maxd = maxd.max(d);
            }
            cached.cache.note_motion(maxd);

            cached_detect(&sys, &mut cached);
            broad_phase_serial_ws(&sys, range, &mut counter, &mut oracle);
            assert_eq!(
                cached.pairs, oracle.pairs,
                "seed {seed} step {step}: cached filter diverged from the all-pairs oracle"
            );
        }
        assert!(
            cached.cache.rebuilds >= 2,
            "seed {seed}: 16 steps × {step_d} must exceed slack {slack} and force a rebuild \
             (saw {} rebuilds)",
            cached.cache.rebuilds
        );
        assert!(
            cached.cache.hits >= 4,
            "seed {seed}: most steps must be served from the cache (saw {} hits)",
            cached.cache.hits
        );
    }
}
