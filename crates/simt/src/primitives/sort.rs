//! LSD radix sort of `(u64 key, u32 payload)` pairs.
//!
//! Merrill & Grimshaw's structure: for each 8-bit digit pass, (1) a
//! per-tile histogram kernel writes digit counts in digit-major layout,
//! (2) a device-wide exclusive scan of the counts yields stable global
//! offsets, (3) a scatter kernel places each element at
//! `offset[digit][tile] + local_rank`. Only digits up to the maximum key's
//! width are processed, as real implementations do.
//!
//! The scatter's store pattern is measured from the *actual* output
//! positions, so nearly-sorted inputs (the common case across DDA time
//! steps — the contact set changes slowly) coalesce better than random
//! ones, exactly as on hardware.

use super::scan::scan_exclusive_u32_into;
use super::BLOCK;
use crate::device::Device;
use std::cell::RefCell;

const RADIX_BITS: u32 = 8;
const RADIX: usize = 1 << RADIX_BITS;

/// Host-side staging of one 256-key tile, reused by every tile a thread
/// runs so the kernels below never allocate.
#[derive(Default)]
struct TileScratch {
    keys: Vec<u64>,
    vals: Vec<u32>,
    words: Vec<u32>,
    counts: Vec<(usize, u32)>,
    off_idx: Vec<usize>,
    offs: Vec<u32>,
    key_pairs: Vec<(usize, u64)>,
    val_pairs: Vec<(usize, u32)>,
}

thread_local! {
    static TILE: RefCell<TileScratch> = RefCell::new(TileScratch::default());
}

/// Sorts `keys` ascending, carrying `payload` along. Stable.
///
/// # Panics
/// Panics when `keys` and `payload` lengths differ.
pub fn sort_pairs_u64(dev: &Device, keys: &[u64], payload: &[u32]) -> (Vec<u64>, Vec<u32>) {
    assert_eq!(keys.len(), payload.len(), "keys/payload length mismatch");
    let n = keys.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }

    let max_key = keys.iter().copied().max().unwrap_or(0);
    let significant_bits = 64 - max_key.leading_zeros();
    let passes = significant_bits.div_ceil(RADIX_BITS).max(1);

    let n_blocks = n.div_ceil(BLOCK);
    // Ping-pong key/payload buffers, and the histogram and its scan, live
    // across passes: every pass overwrites all of each.
    let mut cur_keys = keys.to_vec();
    let mut cur_vals = payload.to_vec();
    let mut next_keys = vec![0u64; n];
    let mut next_vals = vec![0u32; n];
    let mut counts = vec![0u32; RADIX * n_blocks];
    let mut offsets = Vec::new();

    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        let digit_of = |k: u64| ((k >> shift) as usize) & (RADIX - 1);

        // Kernel 1: per-tile digit histogram, digit-major layout
        // counts[d * n_blocks + b].
        {
            let b_keys = dev.bind_ro(&cur_keys);
            let b_counts = dev.bind(&mut counts);
            dev.launch_blocks("radix.histogram", n_blocks, BLOCK, |blk| {
                TILE.with(|cell| {
                    let tile = &mut *cell.borrow_mut();
                    let start = blk.block_id * BLOCK;
                    let count = BLOCK.min(n - start);
                    blk.gld_range_into(&b_keys, start, count, &mut tile.keys);
                    // Shared-memory digit counters: the bank pattern of the
                    // actual digits is measured (conflict replays are real).
                    tile.words.clear();
                    tile.words
                        .extend(tile.keys.iter().map(|&k| digit_of(k) as u32));
                    blk.smem_access(&tile.words);
                    blk.flop_masked(count, 2);
                    blk.sync();

                    let mut local = [0u32; RADIX];
                    for &k in &tile.keys {
                        local[digit_of(k)] += 1;
                    }
                    // 256 counters written by 256 threads, coalesced but
                    // strided across the digit-major array.
                    tile.counts.clear();
                    tile.counts
                        .extend((0..RADIX).map(|d| (d * n_blocks + blk.block_id, local[d])));
                    blk.gst_scatter(&b_counts, &tile.counts);
                });
            });
        }

        // Kernel 2 (sequence): scan the digit-major counts.
        scan_exclusive_u32_into(dev, &counts, &mut offsets);

        // Kernel 3: stable scatter.
        {
            let b_keys = dev.bind_ro(&cur_keys);
            let b_vals = dev.bind_ro(&cur_vals);
            let b_off = dev.bind_ro(&offsets);
            let b_nk = dev.bind(&mut next_keys);
            let b_nv = dev.bind(&mut next_vals);
            dev.launch_blocks("radix.scatter", n_blocks, BLOCK, |blk| {
                TILE.with(|cell| {
                    let tile = &mut *cell.borrow_mut();
                    let start = blk.block_id * BLOCK;
                    let count = BLOCK.min(n - start);
                    blk.gld_range_into(&b_keys, start, count, &mut tile.keys);
                    blk.gld_range_into(&b_vals, start, count, &mut tile.vals);
                    // Per-digit tile offsets, fetched for the digits the
                    // tile holds, in ascending digit order.
                    let mut held = [false; RADIX];
                    for &k in &tile.keys {
                        held[digit_of(k)] = true;
                    }
                    tile.off_idx.clear();
                    tile.off_idx.extend(
                        (0..RADIX)
                            .filter(|&d| held[d])
                            .map(|d| d * n_blocks + blk.block_id),
                    );
                    blk.gld_gather_into(&b_off, &tile.off_idx, &mut tile.offs);
                    // next[d]: where the tile's next key of digit d goes.
                    let mut next = [0usize; RADIX];
                    for (d, &off) in (0..RADIX).filter(|&d| held[d]).zip(&tile.offs) {
                        next[d] = off as usize;
                    }
                    tile.key_pairs.clear();
                    tile.val_pairs.clear();
                    for (&k, &v) in tile.keys.iter().zip(&tile.vals) {
                        let pos = &mut next[digit_of(k)];
                        tile.key_pairs.push((*pos, k));
                        tile.val_pairs.push((*pos, v));
                        *pos += 1;
                    }
                    blk.flop_masked(count, 4);
                    blk.block_scan_cost(count);
                    blk.gst_scatter(&b_nk, &tile.key_pairs);
                    blk.gst_scatter(&b_nv, &tile.val_pairs);
                });
            });
        }

        std::mem::swap(&mut cur_keys, &mut next_keys);
        std::mem::swap(&mut cur_vals, &mut next_vals);
    }

    (cur_keys, cur_vals)
}

/// Convenience: sorts `keys` and returns the permutation that sorts them
/// (payload = original indices).
pub fn argsort_u64(dev: &Device, keys: &[u64]) -> (Vec<u64>, Vec<u32>) {
    let idx: Vec<u32> = (0..keys.len() as u32).collect();
    sort_pairs_u64(dev, keys, &idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;

    fn dev() -> Device {
        Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
    }

    #[test]
    fn empty() {
        let d = dev();
        let (k, v) = sort_pairs_u64(&d, &[], &[]);
        assert!(k.is_empty() && v.is_empty());
    }

    #[test]
    fn small_known_case() {
        let d = dev();
        let keys = vec![5u64, 1, 4, 1, 3];
        let vals = vec![0u32, 1, 2, 3, 4];
        let (k, v) = sort_pairs_u64(&d, &keys, &vals);
        assert_eq!(k, vec![1, 1, 3, 4, 5]);
        // Stability: the two 1-keys keep original order (payloads 1 then 3).
        assert_eq!(v, vec![1, 3, 4, 2, 0]);
    }

    #[test]
    fn large_random_matches_std_sort() {
        let d = dev();
        let n = 20_000;
        // Deterministic pseudo-random keys spanning multiple digit passes.
        let keys: Vec<u64> = (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                x >> 24 // ~40 significant bits → 5 passes
            })
            .collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        let (k, v) = sort_pairs_u64(&d, &keys, &vals);

        let mut expected: Vec<(u64, u32)> =
            keys.iter().copied().zip(vals.iter().copied()).collect();
        expected.sort_by_key(|&(k, _)| k);
        let (ek, ev): (Vec<u64>, Vec<u32>) = expected.into_iter().unzip();
        assert_eq!(k, ek);
        assert_eq!(v, ev);
    }

    #[test]
    fn already_sorted_and_reversed() {
        let d = dev();
        let sorted: Vec<u64> = (0..5000).collect();
        let idx: Vec<u32> = (0..5000).collect();
        let (k, v) = sort_pairs_u64(&d, &sorted, &idx);
        assert_eq!(k, sorted);
        assert_eq!(v, idx);

        let reversed: Vec<u64> = (0..5000).rev().collect();
        let (k, v) = sort_pairs_u64(&d, &reversed, &idx);
        assert_eq!(k, sorted);
        assert_eq!(v[0], 4999);
    }

    #[test]
    fn all_equal_keys_is_stable_identity() {
        let d = dev();
        let keys = vec![42u64; 1000];
        let idx: Vec<u32> = (0..1000).collect();
        let (k, v) = sort_pairs_u64(&d, &keys, &idx);
        assert_eq!(k, keys);
        assert_eq!(v, idx);
    }

    #[test]
    fn skips_passes_for_small_keys() {
        let d = dev();
        let keys: Vec<u64> = (0..1000).map(|i| (i * 7) % 256).collect(); // 8-bit keys
        let idx: Vec<u32> = (0..1000).collect();
        let _ = sort_pairs_u64(&d, &keys, &idx);
        let by = d.trace().by_kernel();
        // One pass → exactly one histogram launch.
        assert_eq!(by["radix.histogram"].0.launches, 1);
    }

    #[test]
    fn argsort_permutation() {
        let d = dev();
        let keys = vec![30u64, 10, 20];
        let (k, perm) = argsort_u64(&d, &keys);
        assert_eq!(k, vec![10, 20, 30]);
        assert_eq!(perm, vec![1, 2, 0]);
    }
}
