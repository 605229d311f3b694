//! Device-wide exclusive prefix sum (Merrill-style blocked scan).
//!
//! Three-kernel structure per level: (1) each block scans its tile and
//! emits a tile total; (2) tile totals are scanned (recursively for large
//! inputs); (3) scanned totals are added back as tile offsets. Warp-level
//! portions use shuffle reductions, which the paper adopts from "Faster
//! Parallel Reductions on Kepler" in place of shared-memory trees.

use super::BLOCK;
use crate::device::Device;
use std::cell::RefCell;

thread_local! {
    /// Host-side staging of one tile — `(loaded, warp-total words, result)`
    /// — reused by every tile a thread runs so the kernels never allocate.
    static TILE: RefCell<(Vec<u32>, Vec<u32>, Vec<u32>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Exclusive prefix sum of `input`; returns the scanned vector and the
/// total sum.
///
/// `scan[i] = input[0] + … + input[i-1]`, `scan[0] = 0`.
pub fn scan_exclusive_u32(dev: &Device, input: &[u32]) -> (Vec<u32>, u32) {
    let mut out = Vec::new();
    let total = scan_exclusive_u32_into(dev, input, &mut out);
    (out, total)
}

/// [`scan_exclusive_u32`] into a caller-owned vector, for callers that scan
/// in a loop (the radix sort, once per digit pass).
pub(crate) fn scan_exclusive_u32_into(dev: &Device, input: &[u32], out: &mut Vec<u32>) -> u32 {
    let n = input.len();
    out.clear();
    if n == 0 {
        return 0;
    }
    out.resize(n, 0);
    let n_blocks = n.div_ceil(BLOCK);
    let mut sums = vec![0u32; n_blocks];

    // Kernel 1: per-tile exclusive scan + tile total.
    {
        let b_in = dev.bind_ro(input);
        let b_out = dev.bind(out.as_mut_slice());
        let b_sums = dev.bind(&mut sums);
        dev.launch_blocks("scan.tile", n_blocks, BLOCK, |blk| {
            TILE.with(|cell| {
                let (vals, warp_words, scanned) = &mut *cell.borrow_mut();
                let start = blk.block_id * BLOCK;
                let count = BLOCK.min(n - start);
                blk.gld_range_into(&b_in, start, count, vals);
                // Warp shuffle scans + one shared-memory pass for warp totals.
                blk.shfl_reduce_cost(count, 32);
                warp_words.clear();
                warp_words.extend(0..count.div_ceil(32) as u32);
                blk.smem_access(warp_words);
                blk.sync();
                blk.flop_masked(count, 1);

                let mut acc = 0u32;
                scanned.clear();
                for &v in vals.iter() {
                    scanned.push(acc);
                    acc = acc.wrapping_add(v);
                }
                blk.gst_range(&b_out, start, scanned);
                blk.gst_one(&b_sums, blk.block_id, acc);
            });
        });
    }

    if n_blocks == 1 {
        return sums[0];
    }

    // Scan the tile totals (recursive for very large inputs).
    let (sums_scanned, total) = scan_exclusive_u32(dev, &sums);

    // Kernel 3: add tile offsets.
    {
        let b_out = dev.bind(out.as_mut_slice());
        let b_off = dev.bind_ro(&sums_scanned);
        dev.launch_blocks("scan.add_offsets", n_blocks, BLOCK, |blk| {
            let start = blk.block_id * BLOCK;
            let count = BLOCK.min(n - start);
            let offset = blk.gld_one(&b_off, blk.block_id);
            if offset == 0 {
                return; // first tile needs no update; still a real launch
            }
            TILE.with(|cell| {
                let (vals, _, shifted) = &mut *cell.borrow_mut();
                blk.gld_range_into(&b_out, start, count, vals);
                blk.flop_masked(count, 1);
                shifted.clear();
                shifted.extend(vals.iter().map(|v| v.wrapping_add(offset)));
                blk.gst_range(&b_out, start, shifted);
            });
        });
    }

    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;

    fn dev() -> Device {
        Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
    }

    fn reference(input: &[u32]) -> (Vec<u32>, u32) {
        let mut out = Vec::with_capacity(input.len());
        let mut acc = 0u32;
        for &v in input {
            out.push(acc);
            acc = acc.wrapping_add(v);
        }
        (out, acc)
    }

    #[test]
    fn empty_input() {
        let d = dev();
        let (s, t) = scan_exclusive_u32(&d, &[]);
        assert!(s.is_empty());
        assert_eq!(t, 0);
    }

    #[test]
    fn single_tile() {
        let d = dev();
        let input: Vec<u32> = (0..100).map(|i| i % 7).collect();
        let (s, t) = scan_exclusive_u32(&d, &input);
        let (rs, rt) = reference(&input);
        assert_eq!(s, rs);
        assert_eq!(t, rt);
    }

    #[test]
    fn multi_tile() {
        let d = dev();
        let input: Vec<u32> = (0..10_000).map(|i| (i * 37 + 11) % 13).collect();
        let (s, t) = scan_exclusive_u32(&d, &input);
        let (rs, rt) = reference(&input);
        assert_eq!(s, rs);
        assert_eq!(t, rt);
    }

    #[test]
    fn recursion_level_needed() {
        // > BLOCK² elements forces a recursive tile-total scan.
        let d = dev();
        let n = BLOCK * BLOCK + 123;
        let input: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let (s, t) = scan_exclusive_u32(&d, &input);
        let (rs, rt) = reference(&input);
        assert_eq!(s, rs);
        assert_eq!(t, rt);
    }

    #[test]
    fn all_zeros_and_all_ones() {
        let d = dev();
        let zeros = vec![0u32; 1000];
        let (s, t) = scan_exclusive_u32(&d, &zeros);
        assert!(s.iter().all(|&v| v == 0));
        assert_eq!(t, 0);

        let ones = vec![1u32; 1000];
        let (s, t) = scan_exclusive_u32(&d, &ones);
        assert_eq!(s[999], 999);
        assert_eq!(t, 1000);
    }

    #[test]
    fn trace_contains_expected_kernels() {
        let d = dev();
        let input = vec![1u32; BLOCK * 4];
        let _ = scan_exclusive_u32(&d, &input);
        let by = d.trace().by_kernel();
        assert!(by.contains_key("scan.tile"));
        assert!(by.contains_key("scan.add_offsets"));
        // Shuffles were modeled.
        assert!(by["scan.tile"].0.shuffles > 0);
    }
}
