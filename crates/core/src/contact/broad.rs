//! Broad-phase contact detection (the paper's all-pairs sweep).
//!
//! Serial version: the classical `O(n²/2)` upper-triangular loop over
//! bounding boxes. GPU version (§III-B): "the workflow is modeled as a
//! matrix that operates on a vector… the n×n upper triangular matrix is
//! reshaped as an n×(n/2) full matrix to ensure load balance", tiled into
//! m×m sub-matrices, one per thread block, where "only 2m−1 entries are
//! different in each m×m sub-matrix — they are stored in shared memory for
//! multiple access".
//!
//! The reshape used is the round-robin pairing `j = (r + c + 1) mod n`:
//! every unordered pair appears exactly once (for even `n`, the last
//! column's second half is skipped), and within a 16×16 tile the 31
//! distinct column boxes are the paper's `2m − 1` shared entries.
//!
//! Hit flags are written at the pair's *triangular index*
//! `i·n − i(i+1)/2 + (j − i − 1)` rather than the reshaped `(r, c)`
//! position, so the device compaction emits pairs already in the
//! canonical `(i, j)` lexicographic order — no host-side sort fixup.
//!
//! The serial sweep is the reference oracle and the serial pipeline's
//! only broad phase; the device's O(n + k) cached grid lives in
//! [`super::grid`].

use super::grid::ContactWorkspace;
use super::soa::GeomSoa;
use crate::system::BlockSystem;
use dda_simt::primitives::compact_indices;
use dda_simt::serial::CpuCounter;
use dda_simt::Device;

/// Tile edge (m): a 256-thread block covers one 16×16 tile.
const TILE: usize = 16;

/// Serial reference: upper-triangular AABB sweep into the workspace's
/// pair buffer (allocation-free at steady state). Pairs `(i, j)` with
/// `i < j`, sorted.
pub fn broad_phase_serial_ws(
    sys: &BlockSystem,
    range: f64,
    counter: &mut CpuCounter,
    ws: &mut ContactWorkspace,
) {
    let n = sys.len();
    ws.boxes.clear();
    ws.boxes.reserve(4 * n);
    for b in &sys.blocks {
        let bb = b.aabb().inflate(range);
        ws.boxes
            .extend_from_slice(&[bb.min.x, bb.min.y, bb.max.x, bb.max.y]);
    }
    ws.pairs.clear();
    let boxes = &ws.boxes;
    for i in 0..n {
        for j in (i + 1)..n {
            let overlap = boxes[4 * i] <= boxes[4 * j + 2]
                && boxes[4 * j] <= boxes[4 * i + 2]
                && boxes[4 * i + 1] <= boxes[4 * j + 3]
                && boxes[4 * j + 1] <= boxes[4 * i + 3];
            if overlap {
                ws.pairs.push((i as u32, j as u32));
            }
        }
    }
    // Work model: box inflation is charged even below the pair threshold
    // (n < 2 used to charge nothing at all), then 4 flops and 8
    // coordinate reads per pair test.
    let pairs = (n * n.saturating_sub(1) / 2) as u64;
    counter.flop(4 * n as u64 + 4 * pairs);
    counter.bytes(8 * 8 * n as u64 + 8 * 8 * pairs);
}

/// Serial reference: upper-triangular AABB sweep. Returns candidate pairs
/// `(i, j)` with `i < j`, sorted. (Compatibility wrapper over
/// [`broad_phase_serial_ws`]; hot paths hold a [`ContactWorkspace`] and
/// call the workspace form directly.)
pub fn broad_phase_serial(
    sys: &BlockSystem,
    range: f64,
    counter: &mut CpuCounter,
) -> Vec<(u32, u32)> {
    let mut ws = ContactWorkspace::new();
    broad_phase_serial_ws(sys, range, counter, &mut ws);
    std::mem::take(&mut ws.pairs)
}

/// GPU broad phase over the flattened geometry, reusing the workspace's
/// box/flag/pair buffers. Pairs `(i, j)` with `i < j`, in lexicographic
/// order straight from the device compaction.
pub fn broad_phase_gpu_ws(dev: &Device, soa: &GeomSoa, range: f64, ws: &mut ContactWorkspace) {
    let n = soa.n_blocks();
    ws.pairs.clear();
    if n < 2 {
        return;
    }
    let cols = n / 2;
    let even = n.is_multiple_of(2);

    // Inflated boxes (a small device kernel, as the real pipeline keeps the
    // boxes on the device).
    ws.boxes.clear();
    ws.boxes.resize(4 * n, 0.0);
    {
        let b_in = dev.bind_ro(&soa.aabb);
        let b_out = dev.bind(&mut ws.boxes[..]);
        dev.launch("broad.inflate", n, |lane| {
            let b = lane.gid;
            let minx = lane.ld(&b_in, 4 * b);
            let miny = lane.ld(&b_in, 4 * b + 1);
            let maxx = lane.ld(&b_in, 4 * b + 2);
            let maxy = lane.ld(&b_in, 4 * b + 3);
            lane.flop(4);
            lane.st(&b_out, 4 * b, minx - range);
            lane.st(&b_out, 4 * b + 1, miny - range);
            lane.st(&b_out, 4 * b + 2, maxx + range);
            lane.st(&b_out, 4 * b + 3, maxy + range);
        });
    }

    // Tiled pair test over the reshaped n×(n/2) matrix. Hits land at the
    // pair's triangular index, so compaction order *is* pair order.
    let tri = n * (n - 1) / 2;
    ws.flags.clear();
    ws.flags.resize(tri, 0);
    if cols > 0 {
        let tiles_r = n.div_ceil(TILE);
        let tiles_c = cols.div_ceil(TILE);
        let b_boxes = dev.bind_ro(&ws.boxes);
        let b_flags = dev.bind(&mut ws.flags[..]);
        dev.launch_blocks("broad.pair_tiles", tiles_r * tiles_c, 256, |blk| {
            let tr = blk.block_id / tiles_c;
            let tc = blk.block_id % tiles_c;
            let r0 = tr * TILE;
            let c0 = tc * TILE;
            let rows = TILE.min(n - r0);
            let ccount = TILE.min(cols - c0);

            // Row boxes: m coalesced quadruples.
            let row_boxes = blk.gld_range(&b_boxes, 4 * r0, 4 * rows);
            // Column boxes: the 2m−1 distinct j values of this tile, loaded
            // once and shared (paper's shared-memory optimisation). For
            // tiny n the cache may contain repeated blocks (j wraps mod n);
            // that only costs a few duplicate loads.
            let distinct = rows + ccount - 1;
            let col_js: Vec<usize> = (0..distinct).map(|d| (r0 + c0 + 1 + d) % n).collect();
            let col_idx: Vec<usize> = col_js
                .iter()
                .flat_map(|&j| (0..4).map(move |k| 4 * j + k))
                .collect();
            let col_boxes = blk.gld_gather(&b_boxes, &col_idx);
            let words: Vec<u32> = (0..(4 * distinct) as u32).collect();
            blk.smem_access(&words);
            blk.sync();

            blk.flop_all(8);
            let mut stores: Vec<(usize, u32)> = Vec::new();
            let mut mask: Vec<bool> = Vec::with_capacity(rows * ccount);
            for r in 0..rows {
                for c in 0..ccount {
                    let gr = r0 + r;
                    let gc = c0 + c;
                    // Skip the double-counted half-column for even n.
                    if even && gc == cols - 1 && gr >= n / 2 {
                        mask.push(false);
                        continue;
                    }
                    let d = r + c; // index into the distinct-j cache
                    let rb = &row_boxes[4 * r..4 * r + 4];
                    let cb = &col_boxes[4 * d..4 * d + 4];
                    let overlap =
                        rb[0] <= cb[2] && cb[0] <= rb[2] && rb[1] <= cb[3] && cb[1] <= rb[3];
                    mask.push(overlap);
                    if overlap {
                        let gj = (gr + gc + 1) % n;
                        let (i, j) = (gr.min(gj), gr.max(gj));
                        stores.push((i * n - i * (i + 1) / 2 + (j - i - 1), 1u32));
                    }
                }
            }
            blk.branch_mask(0, &mask);
            blk.gst_scatter(&b_flags, &stores);
        });
    }

    // Compact the hit flags into a dense pair list (device scan + scatter).
    // Triangular indices ascend exactly in (i, j) lexicographic order, so
    // the O(n + k) row walk below decodes them without any sorting.
    let hits = compact_indices(dev, &ws.flags);
    ws.pairs.reserve(hits.len());
    let mut row = 0usize;
    let mut row_end = n - 1; // exclusive end of row 0's index range
    let mut row_start = 0usize;
    for h in hits {
        let h = h as usize;
        while h >= row_end {
            row += 1;
            row_start = row_end;
            row_end += n - 1 - row;
        }
        ws.pairs
            .push((row as u32, (row + 1 + h - row_start) as u32));
    }
}

/// GPU broad phase over the flattened geometry. Returns candidate pairs
/// `(i, j)` with `i < j`, sorted. (Compatibility wrapper over
/// [`broad_phase_gpu_ws`].)
pub fn broad_phase_gpu(dev: &Device, soa: &GeomSoa, range: f64) -> Vec<(u32, u32)> {
    let mut ws = ContactWorkspace::new();
    broad_phase_gpu_ws(dev, soa, range, &mut ws);
    std::mem::take(&mut ws.pairs)
}

/// All-pairs coverage check of the reshape mapping (exposed for tests and
/// the bench harness).
pub fn reshape_covers_all_pairs(n: usize) -> bool {
    let cols = n / 2;
    let even = n.is_multiple_of(2);
    let mut seen = std::collections::HashSet::new();
    for r in 0..n {
        for c in 0..cols {
            if even && c == cols - 1 && r >= n / 2 {
                continue;
            }
            let j = (r + c + 1) % n;
            let key = (r.min(j), r.max(j));
            if !seen.insert(key) {
                return false; // duplicate
            }
        }
    }
    seen.len() == n * (n - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::material::{BlockMaterial, JointMaterial};
    use dda_geom::Polygon;
    use dda_simt::DeviceProfile;

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

    fn dev() -> Device {
        Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
    }

    #[test]
    fn reshape_mapping_exact_for_odd_and_even() {
        for n in [2usize, 3, 4, 5, 8, 9, 16, 17, 33] {
            assert!(reshape_covers_all_pairs(n), "n = {n}");
        }
    }

    #[test]
    fn serial_finds_neighbours_only() {
        let sys = grid_system(3, 3, 0.5);
        let mut c = CpuCounter::new();
        // Inflation below the gap: only touching pairs... gap=0.5, inflate
        // 0.1 → no pairs overlap (0.2 < 0.5).
        let pairs = broad_phase_serial(&sys, 0.1, &mut c);
        assert!(pairs.is_empty());
        // Inflate beyond half the gap: 4-neighbour (and diagonal) pairs.
        let pairs = broad_phase_serial(&sys, 0.3, &mut c);
        assert!(!pairs.is_empty());
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(0, 3)));
        assert!(c.flops > 0);
    }

    #[test]
    fn tiny_systems_still_charge_box_work() {
        // Regression: n < 2 used to charge zero flops/bytes despite
        // inflating the boxes.
        for n in [0usize, 1] {
            let sys = grid_system(n.max(1), 1, 0.0);
            let mut c = CpuCounter::new();
            let _ = broad_phase_serial(&sys, 0.1, &mut c);
            assert!(c.flops > 0, "n={n} must charge inflation flops");
            assert!(c.bytes > 0, "n={n} must charge box traffic");
        }
    }

    #[test]
    fn gpu_matches_serial() {
        for (nx, ny, range) in [
            (3usize, 3usize, 0.3f64),
            (4, 4, 0.3),
            (5, 3, 0.6),
            (2, 1, 0.3),
        ] {
            let sys = grid_system(nx, ny, 0.5);
            let mut c = CpuCounter::new();
            let serial = broad_phase_serial(&sys, range, &mut c);
            let d = dev();
            let soa = GeomSoa::build(&sys);
            let gpu = broad_phase_gpu(&d, &soa, range);
            assert_eq!(serial, gpu, "{nx}x{ny} range {range}");
        }
    }

    #[test]
    fn device_compaction_order_is_already_sorted() {
        // The triangular flag layout must hand back lexicographically
        // ordered pairs with no host-side sort.
        let sys = grid_system(6, 5, 0.1);
        let d = dev();
        let soa = GeomSoa::build(&sys);
        let pairs = broad_phase_gpu(&d, &soa, 0.3);
        assert!(!pairs.is_empty());
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(pairs, sorted, "compaction order must be pair order");
    }

    #[test]
    fn touching_blocks_detected() {
        let sys = grid_system(2, 1, 0.0); // exactly touching
        let d = dev();
        let soa = GeomSoa::build(&sys);
        let pairs = broad_phase_gpu(&d, &soa, 0.01);
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn single_block_no_pairs() {
        let sys = grid_system(1, 1, 0.0);
        let d = dev();
        let soa = GeomSoa::build(&sys);
        assert!(broad_phase_gpu(&d, &soa, 1.0).is_empty());
    }

    #[test]
    fn kernels_recorded() {
        let sys = grid_system(4, 4, 0.1);
        let d = dev();
        let soa = GeomSoa::build(&sys);
        let _ = broad_phase_gpu(&d, &soa, 0.2);
        let by = d.trace().by_kernel();
        assert!(by.contains_key("broad.inflate"));
        assert!(by.contains_key("broad.pair_tiles"));
        assert!(by["broad.pair_tiles"].0.smem_accesses > 0);
    }
}
