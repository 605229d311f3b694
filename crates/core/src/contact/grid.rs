//! Cell-binned broad phase with displacement-bounded pair caching.
//!
//! The paper's broad phase is the all-pairs sweep of [`super::broad`] —
//! O(n²) in tests and memory, which EXPERIMENTS.md already flags as the
//! term that distorts pipeline speedups past a few hundred blocks.
//! Production GPU DEM codes replace it with a uniform-grid neighbor
//! search built from sort/scan/segment primitives; this module does the
//! same with exactly the primitives `dda_simt::primitives` ships:
//!
//! 1. every block's inflated AABB is binned into the grid cells it
//!    covers (a block spanning many cells emits one `(cell, block)`
//!    entry per cell, so giant blocks are handled exactly);
//! 2. the entries are radix-sorted by cell key ([`sort_pairs_u64`]);
//! 3. cell runs are found with [`segment_starts`];
//! 4. candidate pairs are counted and emitted per entry by a forward
//!    scan of the entry's run, compacted by an exclusive scan, and
//!    radix-sorted into the canonical `(i, j)` lexicographic order the
//!    narrow phase consumes.
//!
//! A pair whose boxes overlap is emitted **exactly once**, in its *owner
//! cell*: the cell `(max(cx₀ᵢ, cx₀ⱼ), max(cy₀ᵢ, cy₀ⱼ))` of the two
//! blocks' minimum covered cells. Overlapping boxes both cover that cell
//! (coverage ranges intersect exactly when the boxes overlap, because
//! `cell_x`/`cell_y` are monotone), and no other shared cell passes the
//! max/max test — so the grid's pair set equals the all-pairs sweep's,
//! element for element. Total modeled work is O(n + E + k·r̄) where E is
//! the entry count (≈ n for median-sized cells) and r̄ the mean run
//! occupancy — O(n + k) instead of the O(n²) flag matrix.
//!
//! # Displacement-bounded caching
//!
//! DDA's loop 2 bounds every accepted step's largest vertex displacement
//! (`StepReport::max_displacement`), so between steps the geometry moves
//! a *known* bounded amount. [`BroadPhaseCache`] exploits that: the grid
//! pass is run with the boxes inflated by `range + slack`, producing a
//! candidate superset; each following step only re-filters the cached
//! candidates by the exact at-`range` overlap test — O(C) with no
//! binning, no sort — while the accumulated per-block motion stays
//! within `slack`. A pair absent from the candidates had a box gap
//! greater than `2·(range + slack)`; after each block has moved at most
//! `M = Σ max_displacementₛ`, its gap is still greater than
//! `2·(range + slack) − 2M ≥ 2·range` while `M ≤ slack` — so the filter
//! over the superset yields *exactly* the all-pairs-at-`range` set and
//! trajectories stay bitwise identical. Once motion may have consumed
//! the slack, the grid pass re-bins and the accumulator resets.
//!
//! Only the device pipelines bin; the serial one is the oracle and always
//! runs the all-pairs sweep of [`super::broad`]. All scratch lives in a
//! [`ContactWorkspace`] (one per pipeline/scene), so the device paths
//! reuse every host-side buffer the kernels bind.

use super::soa::GeomSoa;
use dda_simt::primitives::{compact_indices, scan_exclusive_u32, segment_starts, sort_pairs_u64};
use dda_simt::Device;
use serde::{Deserialize, Serialize};

/// Broad-phase algorithm selection for the device pipelines (a
/// [`crate::params::DdaParams`] control; the serial pipeline always
/// sweeps all pairs). Both modes produce the identical candidate pair set —
/// they differ only in modeled/wall cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BroadPhaseMode {
    /// The paper's O(n²) all-pairs sweep (GPU tiled reshape).
    #[default]
    AllPairs,
    /// Uniform-grid binning plus the displacement-bounded pair cache:
    /// steps inside the slack budget skip binning entirely.
    GridCached,
}

/// Uniform grid layout: origin, square cell edge, and cell counts. Built
/// per binning pass from the inflated boxes' extents; the cell edge is
/// the **median** inflated box extent (max of width/height), so a
/// median-sized block covers a handful of cells regardless of outliers
/// in either direction.
#[derive(Debug, Clone, Copy)]
struct GridSpec {
    /// Grid origin (minimum inflated corner).
    ox: f64,
    /// Grid origin y.
    oy: f64,
    /// Square cell edge length.
    cell: f64,
    /// Cells along x.
    nx: usize,
    /// Cells along y.
    ny: usize,
}

impl GridSpec {
    /// Builds the grid for `n` raw boxes (flattened `(min_x, min_y,
    /// max_x, max_y)` quadruples) inflated by `inflate` on every side.
    /// `extents` is caller-owned scratch (reused across steps). Returns
    /// `None` for `n == 0`.
    fn from_boxes(
        boxes: &[f64],
        n: usize,
        inflate: f64,
        extents: &mut Vec<f64>,
    ) -> Option<GridSpec> {
        if n == 0 {
            return None;
        }
        let mut ox = f64::INFINITY;
        let mut oy = f64::INFINITY;
        let mut mx = f64::NEG_INFINITY;
        let mut my = f64::NEG_INFINITY;
        extents.clear();
        for b in 0..n {
            let x0 = boxes[4 * b] - inflate;
            let y0 = boxes[4 * b + 1] - inflate;
            let x1 = boxes[4 * b + 2] + inflate;
            let y1 = boxes[4 * b + 3] + inflate;
            // f64::min/max skip NaN operands, so a contaminated block
            // cannot poison the grid frame (it bins to cell 0 and its
            // overlap tests are all false, matching the all-pairs sweep).
            ox = ox.min(x0);
            oy = oy.min(y0);
            mx = mx.max(x1);
            my = my.max(y1);
            extents.push((x1 - x0).max(y1 - y0));
        }
        extents.sort_unstable_by(f64::total_cmp);
        let median = extents[n / 2];
        if !(ox.is_finite() && oy.is_finite() && mx.is_finite() && my.is_finite()) {
            // Every box is non-finite: degenerate single-cell grid; the
            // overlap predicate rejects everything, as all-pairs does.
            return Some(GridSpec {
                ox: 0.0,
                oy: 0.0,
                cell: 1.0,
                nx: 1,
                ny: 1,
            });
        }
        let cell = if median.is_finite() && median > 0.0 {
            median
        } else {
            // Degenerate (point blocks): any positive edge works.
            ((mx - ox).max(my - oy) / (n as f64).sqrt()).max(1.0)
        };
        let nx = (((mx - ox) / cell).ceil() as usize).max(1);
        let ny = (((my - oy) / cell).ceil() as usize).max(1);
        Some(GridSpec {
            ox,
            oy,
            cell,
            nx,
            ny,
        })
    }

    /// Cell column of coordinate `x` (clamped into the grid; NaN → 0 via
    /// the saturating float→int cast).
    #[inline]
    fn cell_x(&self, x: f64) -> usize {
        (((x - self.ox) / self.cell).floor() as i64).clamp(0, self.nx as i64 - 1) as usize
    }

    /// Cell row of coordinate `y`.
    #[inline]
    fn cell_y(&self, y: f64) -> usize {
        (((y - self.oy) / self.cell).floor() as i64).clamp(0, self.ny as i64 - 1) as usize
    }
}

/// Persistent candidate-pair cache keyed on accumulated block motion.
/// See the module docs for the validity argument.
///
/// # Precision invariant
///
/// The validity argument above is a *geometric* one over fp64 AABBs and
/// fp64 accumulated motion. Were the slack accounting ever run in fp32, a
/// rounded-down motion sum could keep the cache "valid" after the true
/// motion consumed the slack, silently dropping contact candidates.
#[derive(Debug, Default)]
pub struct BroadPhaseCache {
    /// Cached candidate pairs (overlapping at `range + slack`), sorted.
    candidates: Vec<(u32, u32)>,
    /// Packed `(i << 32) | j` mirror of `candidates` for device filters.
    cand_keys: Vec<u64>,
    /// Inflation the candidates were built at minus the slack.
    range: f64,
    /// Per-block slack margin the candidates were built with.
    slack: f64,
    /// Accumulated worst-case per-block motion since the last build.
    motion: f64,
    /// Number of blocks at build time (geometry-shape guard).
    n_blocks: usize,
    built: bool,
    /// Steps served from the cache without re-binning.
    pub hits: u64,
    /// Grid builds (first build included).
    pub rebuilds: u64,
}

impl BroadPhaseCache {
    /// True when the cached candidates still bound the at-`range` pair
    /// set for `n` blocks.
    pub fn valid(&self, range: f64, slack: f64, n: usize) -> bool {
        self.built
            && self.n_blocks == n
            && self.range == range
            && self.slack == slack
            && self.motion <= self.slack
    }

    /// Records an accepted step's maximum vertex displacement. Every
    /// AABB coordinate moved by at most `maxd`, so the candidate set
    /// stays a superset of the at-`range` pairs while `Σ maxd ≤ slack`.
    pub fn note_motion(&mut self, maxd: f64) {
        if maxd.is_finite() {
            self.motion += maxd;
        } else {
            // Unbounded motion: force a rebuild.
            self.motion = f64::INFINITY;
        }
    }

    /// Drops the cached candidates (external geometry change — restore,
    /// slot reuse, block insertion).
    pub fn invalidate(&mut self) {
        self.built = false;
    }
}

/// Reusable broad-phase scratch: one per pipeline (or per batch scene).
/// Hoists every per-step allocation of the broad-phase paths — the box
/// mirror, the grid key/value/count buffers, the flag buffer, and the
/// pair list — so the serial all-pairs sweep allocates nothing at steady
/// state and the device paths reuse all host-side kernel buffers.
#[derive(Debug, Default)]
pub struct ContactWorkspace {
    /// Inflated AABB quadruples `(min_x, min_y, max_x, max_y)` per block
    /// (the all-pairs sweeps' box mirror).
    pub boxes: Vec<f64>,
    /// Broad-phase output: candidate pairs `(i, j)`, `i < j`, sorted.
    pub pairs: Vec<(u32, u32)>,
    /// The displacement-bounded candidate cache.
    pub cache: BroadPhaseCache,
    // Grid scratch.
    extents: Vec<f64>,
    counts: Vec<u32>,
    cell_keys: Vec<u64>,
    cell_vals: Vec<u32>,
    // All-pairs GPU scratch (triangular flag matrix).
    pub(crate) flags: Vec<u32>,
}

impl ContactWorkspace {
    /// Fresh workspace (all buffers empty; they grow to steady-state
    /// capacity on the first step and are reused afterwards).
    pub fn new() -> ContactWorkspace {
        ContactWorkspace::default()
    }
}

// ---------------------------------------------------------------------------
// Device grid broad phase
// ---------------------------------------------------------------------------

/// Device grid pass core: bins, sorts, and emits into `out` (sorted pair
/// list identical to the all-pairs sweep at `inflate`). The workspace
/// buffers are reused across steps; the primitive calls (radix sort,
/// scans, segment detection) model their own launches.
#[allow(clippy::too_many_arguments)]
fn grid_pairs_gpu_core(
    dev: &Device,
    boxes: &[f64],
    n: usize,
    inflate: f64,
    extents: &mut Vec<f64>,
    counts: &mut Vec<u32>,
    cell_keys: &mut Vec<u64>,
    cell_vals: &mut Vec<u32>,
    out: &mut Vec<(u32, u32)>,
) {
    out.clear();
    if n < 2 {
        return;
    }

    // Grid frame: modeled as a small reduction kernel over the boxes (on
    // hardware: min/max reduce + sampled median); the host computes the
    // spec the kernels below bin against.
    {
        let b_in = dev.bind_ro(boxes);
        dev.launch("grid.spec", n, |lane| {
            let b = lane.gid;
            let _x0 = lane.ld(&b_in, 4 * b);
            let _y0 = lane.ld(&b_in, 4 * b + 1);
            let _x1 = lane.ld(&b_in, 4 * b + 2);
            let _y1 = lane.ld(&b_in, 4 * b + 3);
            lane.flop(8);
        });
    }
    let spec = GridSpec::from_boxes(boxes, n, inflate, extents).expect("n >= 2");

    // Kernel: covered-cell count per block.
    counts.clear();
    counts.resize(n, 0);
    {
        let b_in = dev.bind_ro(boxes);
        let b_counts = dev.bind(&mut counts[..]);
        dev.launch("grid.count_cells", n, |lane| {
            let b = lane.gid;
            let x0 = lane.ld(&b_in, 4 * b);
            let y0 = lane.ld(&b_in, 4 * b + 1);
            let x1 = lane.ld(&b_in, 4 * b + 2);
            let y1 = lane.ld(&b_in, 4 * b + 3);
            let cx0 = spec.cell_x(x0 - inflate);
            let cx1 = spec.cell_x(x1 + inflate);
            let cy0 = spec.cell_y(y0 - inflate);
            let cy1 = spec.cell_y(y1 + inflate);
            lane.flop(8);
            lane.st(&b_counts, b, ((cx1 - cx0 + 1) * (cy1 - cy0 + 1)) as u32);
        });
    }

    // Scan → per-block entry offsets, total entry count.
    let (offsets, total) = scan_exclusive_u32(dev, counts);
    let e_count = total as usize;
    cell_keys.clear();
    cell_keys.resize(e_count, 0);
    cell_vals.clear();
    cell_vals.resize(e_count, 0);

    // Kernel: emit (cell key, block) entries.
    {
        let b_in = dev.bind_ro(boxes);
        let b_off = dev.bind_ro(&offsets);
        let b_keys = dev.bind(&mut cell_keys[..]);
        let b_vals = dev.bind(&mut cell_vals[..]);
        dev.launch("grid.emit_keys", n, |lane| {
            let b = lane.gid;
            let x0 = lane.ld(&b_in, 4 * b);
            let y0 = lane.ld(&b_in, 4 * b + 1);
            let x1 = lane.ld(&b_in, 4 * b + 2);
            let y1 = lane.ld(&b_in, 4 * b + 3);
            let cx0 = spec.cell_x(x0 - inflate);
            let cx1 = spec.cell_x(x1 + inflate);
            let cy0 = spec.cell_y(y0 - inflate);
            let cy1 = spec.cell_y(y1 + inflate);
            lane.flop(8);
            let mut o = lane.ld(&b_off, b) as usize;
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    lane.flop(2);
                    lane.st(&b_keys, o, (cy * spec.nx + cx) as u64);
                    lane.st(&b_vals, o, b as u32);
                    o += 1;
                }
            }
        });
    }

    // Radix-sort entries by cell key; find the cell runs.
    let (skeys, svals) = sort_pairs_u64(dev, cell_keys, cell_vals);
    let (seg_of, starts) = segment_starts(dev, &skeys);

    // Kernel: per-entry candidate count (forward scan of the entry's
    // run, owner-cell + overlap tests).
    counts.clear();
    counts.resize(e_count, 0);
    {
        let b_boxes = dev.bind_ro(boxes);
        let b_seg = dev.bind_ro(&seg_of);
        let b_starts = dev.bind_ro(&starts);
        let b_vals = dev.bind_ro(&svals);
        let b_keys = dev.bind_ro(&skeys);
        let b_counts = dev.bind(&mut counts[..]);
        dev.launch("grid.count_pairs", e_count, |lane| {
            let e = lane.gid;
            let seg = lane.ld(&b_seg, e) as usize;
            let end = lane.ld(&b_starts, seg + 1) as usize;
            let key = lane.ld(&b_keys, e);
            let i = lane.ld(&b_vals, e) as usize;
            let ix0 = lane.ld(&b_boxes, 4 * i);
            let iy0 = lane.ld(&b_boxes, 4 * i + 1);
            let ix1 = lane.ld(&b_boxes, 4 * i + 2);
            let iy1 = lane.ld(&b_boxes, 4 * i + 3);
            let icx0 = spec.cell_x(ix0 - inflate);
            let icy0 = spec.cell_y(iy0 - inflate);
            lane.flop(6);
            let mut count = 0u32;
            for f in (e + 1)..end {
                let j = lane.ld(&b_vals, f) as usize;
                let jx0 = lane.ld(&b_boxes, 4 * j);
                let jy0 = lane.ld(&b_boxes, 4 * j + 1);
                let jx1 = lane.ld(&b_boxes, 4 * j + 2);
                let jy1 = lane.ld(&b_boxes, 4 * j + 3);
                lane.flop(12);
                let overlap = ix0 - inflate <= jx1 + inflate
                    && jx0 - inflate <= ix1 + inflate
                    && iy0 - inflate <= jy1 + inflate
                    && jy0 - inflate <= iy1 + inflate;
                let mut accept = false;
                if lane.branch(0, overlap) {
                    let jcx0 = spec.cell_x(jx0 - inflate);
                    let jcy0 = spec.cell_y(jy0 - inflate);
                    let owner = (icy0.max(jcy0) * spec.nx + icx0.max(jcx0)) as u64;
                    accept = owner == key;
                }
                if lane.branch(1, accept) {
                    count += 1;
                }
            }
            lane.st(&b_counts, e, count);
        });
    }

    // Scan → pair offsets; emit packed (i << 32 | j) pair keys.
    let (poff, k_total) = scan_exclusive_u32(dev, counts);
    let k = k_total as usize;
    let mut pair_keys = vec![0u64; k];
    if k > 0 {
        let b_boxes = dev.bind_ro(boxes);
        let b_seg = dev.bind_ro(&seg_of);
        let b_starts = dev.bind_ro(&starts);
        let b_vals = dev.bind_ro(&svals);
        let b_keys = dev.bind_ro(&skeys);
        let b_poff = dev.bind_ro(&poff);
        let b_pairs = dev.bind(&mut pair_keys);
        dev.launch("grid.emit_pairs", e_count, |lane| {
            let e = lane.gid;
            let seg = lane.ld(&b_seg, e) as usize;
            let end = lane.ld(&b_starts, seg + 1) as usize;
            let key = lane.ld(&b_keys, e);
            let i = lane.ld(&b_vals, e) as usize;
            let ix0 = lane.ld(&b_boxes, 4 * i);
            let iy0 = lane.ld(&b_boxes, 4 * i + 1);
            let ix1 = lane.ld(&b_boxes, 4 * i + 2);
            let iy1 = lane.ld(&b_boxes, 4 * i + 3);
            let icx0 = spec.cell_x(ix0 - inflate);
            let icy0 = spec.cell_y(iy0 - inflate);
            lane.flop(6);
            let mut o = lane.ld(&b_poff, e) as usize;
            for f in (e + 1)..end {
                let j = lane.ld(&b_vals, f) as usize;
                let jx0 = lane.ld(&b_boxes, 4 * j);
                let jy0 = lane.ld(&b_boxes, 4 * j + 1);
                let jx1 = lane.ld(&b_boxes, 4 * j + 2);
                let jy1 = lane.ld(&b_boxes, 4 * j + 3);
                lane.flop(12);
                let overlap = ix0 - inflate <= jx1 + inflate
                    && jx0 - inflate <= ix1 + inflate
                    && iy0 - inflate <= jy1 + inflate
                    && jy0 - inflate <= iy1 + inflate;
                let mut accept = false;
                if lane.branch(0, overlap) {
                    let jcx0 = spec.cell_x(jx0 - inflate);
                    let jcy0 = spec.cell_y(jy0 - inflate);
                    let owner = (icy0.max(jcy0) * spec.nx + icx0.max(jcx0)) as u64;
                    accept = owner == key;
                }
                if lane.branch(1, accept) {
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    lane.st(&b_pairs, o, ((lo as u64) << 32) | hi as u64);
                    o += 1;
                }
            }
        });
    }

    // Canonical (i, j) order straight from the device: radix-sort the
    // packed keys (the narrow phase and the all-pairs oracle both use
    // lexicographic order).
    let idx: Vec<u32> = vec![0; k];
    let (sorted_pairs, _) = sort_pairs_u64(dev, &pair_keys, &idx);
    out.reserve(k);
    for key in sorted_pairs {
        out.push(((key >> 32) as u32, key as u32));
    }
}

/// Device grid broad phase through the displacement-bounded cache: steps
/// inside the slack budget run only the O(C) candidate re-filter kernel
/// plus a compaction — no binning, no sort. Fills `ws.pairs`.
pub fn cached_broad_phase_gpu(
    dev: &Device,
    soa: &GeomSoa,
    range: f64,
    slack: f64,
    ws: &mut ContactWorkspace,
) {
    let n = soa.n_blocks();
    if !ws.cache.valid(range, slack, n) {
        {
            let ContactWorkspace {
                cache,
                extents,
                counts,
                cell_keys,
                cell_vals,
                ..
            } = ws;
            grid_pairs_gpu_core(
                dev,
                &soa.aabb,
                n,
                range + slack,
                extents,
                counts,
                cell_keys,
                cell_vals,
                &mut cache.candidates,
            );
        }
        let cache = &mut ws.cache;
        cache.cand_keys.clear();
        cache.cand_keys.reserve(cache.candidates.len());
        for &(i, j) in &cache.candidates {
            cache.cand_keys.push(((i as u64) << 32) | j as u64);
        }
        cache.range = range;
        cache.slack = slack;
        cache.motion = 0.0;
        cache.n_blocks = n;
        cache.built = true;
        cache.rebuilds += 1;
    } else {
        ws.cache.hits += 1;
    }

    // Kernel: exact at-`range` filter over the cached candidates.
    let c = ws.cache.candidates.len();
    ws.pairs.clear();
    if c == 0 {
        return;
    }
    ws.flags.clear();
    ws.flags.resize(c, 0);
    {
        let b_boxes = dev.bind_ro(&soa.aabb);
        let b_keys = dev.bind_ro(&ws.cache.cand_keys);
        let b_flags = dev.bind(&mut ws.flags[..]);
        dev.launch("grid.cache_filter", c, |lane| {
            let e = lane.gid;
            let key = lane.ld(&b_keys, e);
            let i = (key >> 32) as usize;
            let j = (key & 0xffff_ffff) as usize;
            let ix0 = lane.ld(&b_boxes, 4 * i);
            let iy0 = lane.ld(&b_boxes, 4 * i + 1);
            let ix1 = lane.ld(&b_boxes, 4 * i + 2);
            let iy1 = lane.ld(&b_boxes, 4 * i + 3);
            let jx0 = lane.ld(&b_boxes, 4 * j);
            let jy0 = lane.ld(&b_boxes, 4 * j + 1);
            let jx1 = lane.ld(&b_boxes, 4 * j + 2);
            let jy1 = lane.ld(&b_boxes, 4 * j + 3);
            lane.flop(12);
            let overlap = ix0 - range <= jx1 + range
                && jx0 - range <= ix1 + range
                && iy0 - range <= jy1 + range
                && jy0 - range <= iy1 + range;
            let keep = lane.branch(0, overlap);
            lane.st(&b_flags, e, u32::from(keep));
        });
    }
    // Compaction preserves the candidates' sorted order.
    let kept = compact_indices(dev, &ws.flags);
    ws.pairs.reserve(kept.len());
    for e in kept {
        ws.pairs.push(ws.cache.candidates[e as usize]);
    }
}

// ---------------------------------------------------------------------------
// Mode dispatch (the device pipelines' single entry point)
// ---------------------------------------------------------------------------

/// Device broad phase under the selected [`BroadPhaseMode`]; fills
/// `ws.pairs` with the identical pair set in every mode.
pub fn detect_broad_gpu(
    dev: &Device,
    soa: &GeomSoa,
    mode: BroadPhaseMode,
    range: f64,
    slack: f64,
    ws: &mut ContactWorkspace,
) {
    match mode {
        BroadPhaseMode::AllPairs => super::broad::broad_phase_gpu_ws(dev, soa, range, ws),
        BroadPhaseMode::GridCached => cached_broad_phase_gpu(dev, soa, range, slack, ws),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::contact::broad::broad_phase_serial;
    use crate::material::{BlockMaterial, JointMaterial};
    use crate::system::BlockSystem;
    use dda_geom::Polygon;
    use dda_simt::serial::CpuCounter;
    use dda_simt::DeviceProfile;

    fn dev() -> Device {
        Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
    }

    fn grid_system(nx: usize, ny: usize, gap: f64) -> BlockSystem {
        let mut blocks = Vec::new();
        for iy in 0..ny {
            for ix in 0..nx {
                let x0 = ix as f64 * (1.0 + gap);
                let y0 = iy as f64 * (1.0 + gap);
                blocks.push(Block::new(Polygon::rect(x0, y0, x0 + 1.0, y0 + 1.0), 0));
            }
        }
        BlockSystem::new(
            blocks,
            BlockMaterial::rock(),
            JointMaterial::frictional(30.0),
        )
    }

    /// The serial all-pairs sweep: the pair set every grid call must equal.
    fn oracle(sys: &BlockSystem, range: f64) -> Vec<(u32, u32)> {
        broad_phase_serial(sys, range, &mut CpuCounter::new())
    }

    #[test]
    fn grid_gpu_matches_all_pairs() {
        for (nx, ny, gap, range) in [
            (3usize, 3usize, 0.5f64, 0.3f64),
            (4, 4, 0.5, 0.3),
            (5, 3, 0.1, 0.6),
            (7, 1, 0.2, 0.15),
            (1, 1, 0.0, 1.0),
        ] {
            let sys = grid_system(nx, ny, gap);
            let d = dev();
            let soa = GeomSoa::build(&sys);
            let mut ws = ContactWorkspace::new();
            // Zero slack: the building call bins at exactly `range`.
            cached_broad_phase_gpu(&d, &soa, range, 0.0, &mut ws);
            assert_eq!(ws.cache.rebuilds, 1);
            assert_eq!(
                oracle(&sys, range),
                ws.pairs,
                "{nx}x{ny} gap {gap} range {range}"
            );
            if !ws.pairs.is_empty() {
                let by = d.trace().by_kernel();
                assert!(by.contains_key("grid.count_cells"));
                assert!(by.contains_key("grid.emit_pairs"));
                assert!(by.contains_key("radix.scatter"), "grid must radix-sort");
            }
        }
    }

    #[test]
    fn cache_serves_hits_until_slack_consumed() {
        let sys = grid_system(4, 4, 0.5);
        let (range, slack) = (0.3, 0.1);
        let expected = oracle(&sys, range);
        let d = dev();
        let soa = GeomSoa::build(&sys);
        let mut ws = ContactWorkspace::new();
        cached_broad_phase_gpu(&d, &soa, range, slack, &mut ws);
        assert_eq!(ws.cache.rebuilds, 1);
        assert_eq!(ws.pairs, expected);
        // Motion inside the budget: every following call is a hit with
        // the same pairs.
        for _ in 0..3 {
            ws.cache.note_motion(0.01);
            cached_broad_phase_gpu(&d, &soa, range, slack, &mut ws);
            assert_eq!(ws.pairs, expected);
        }
        assert_eq!((ws.cache.rebuilds, ws.cache.hits), (1, 3));
        // Blow the slack budget: the next call must re-bin.
        ws.cache.note_motion(0.2);
        cached_broad_phase_gpu(&d, &soa, range, slack, &mut ws);
        assert_eq!(ws.cache.rebuilds, 2);
        assert_eq!(ws.pairs, expected);
    }

    #[test]
    fn giant_block_spanning_many_cells_pairs_once() {
        // One floor slab under a row of small blocks: the slab covers
        // every cell, each small block must pair with it exactly once.
        let mut blocks = vec![Block::new(Polygon::rect(0.0, -1.0, 32.0, 0.0), 0)];
        for i in 0..8 {
            let x0 = 4.0 * i as f64 + 1.0;
            blocks.push(Block::new(Polygon::rect(x0, 0.05, x0 + 1.0, 1.05), 0));
        }
        let sys = BlockSystem::new(
            blocks,
            BlockMaterial::rock(),
            JointMaterial::frictional(30.0),
        );
        let d = dev();
        let soa = GeomSoa::build(&sys);
        let mut ws = ContactWorkspace::new();
        cached_broad_phase_gpu(&d, &soa, 0.1, 0.0, &mut ws);
        assert_eq!(oracle(&sys, 0.1), ws.pairs);
        assert_eq!(ws.pairs.len(), 8, "slab pairs once with each block");
    }

    #[test]
    fn workspace_buffers_reach_steady_state() {
        let sys = grid_system(5, 5, 0.3);
        let d = dev();
        let soa = GeomSoa::build(&sys);
        let mut ws = ContactWorkspace::new();
        let caps = |ws: &ContactWorkspace| {
            [
                ws.pairs.capacity(),
                ws.flags.capacity(),
                ws.extents.capacity(),
                ws.counts.capacity(),
                ws.cell_keys.capacity(),
                ws.cell_vals.capacity(),
                ws.cache.candidates.capacity(),
                ws.cache.cand_keys.capacity(),
            ]
        };
        cached_broad_phase_gpu(&d, &soa, 0.2, 0.1, &mut ws);
        let warm = caps(&ws);
        for _ in 0..4 {
            ws.cache.invalidate(); // every call re-bins
            cached_broad_phase_gpu(&d, &soa, 0.2, 0.1, &mut ws);
        }
        assert_eq!(ws.cache.rebuilds, 5);
        assert_eq!(
            warm,
            caps(&ws),
            "steady-state detection must reuse, not regrow"
        );
    }
}
