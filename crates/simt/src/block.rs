//! Thread-block-granular kernel context for cooperative kernels.
//!
//! Scan, radix sort and the SpMV reductions are *cooperative*: threads of a
//! block exchange data through shared memory across barriers. Simulating
//! that lane-by-lane would require re-entrant closures; instead, a
//! block-granular kernel receives a [`Block`] that executes whole-block
//! operations ("every thread t loads `base + t`", "the block scans its
//! shared array") — computing real results while instrumenting the canonical
//! access pattern of each operation.
//!
//! The accounting rules are identical to the lane-level collector: 128-byte
//! coalescing over each warp's 32 addresses, 32-bank conflict replays,
//! per-warp divergence groups for masked execution.

use crate::buffer::GBuf;
use crate::coalesce::{range_transactions, SegSet, SEG_SHIFT, TEX_SEG_SHIFT};
use crate::stats::KernelStats;
use crate::WARP_SIZE;

thread_local! {
    /// Reused per-warp segment set for gather / scatter accounting.
    static SEG_SCRATCH: std::cell::RefCell<SegSet> =
        const { std::cell::RefCell::new(SegSet::new()) };
}

/// Execution context handed to a per-block kernel closure.
pub struct Block {
    /// Block index within the launch.
    pub block_id: usize,
    /// Threads per block.
    pub block_size: usize,
    pub(crate) epoch: u32,
    pub(crate) stats: KernelStats,
}

impl Block {
    pub(crate) fn new(block_id: usize, block_size: usize, epoch: u32) -> Self {
        Block {
            block_id,
            block_size,
            epoch,
            stats: KernelStats::default(),
        }
    }

    /// Chunks the per-thread addresses into warps and counts the distinct
    /// transaction segments of each.
    fn account_addresses<I: Iterator<Item = u64>>(&mut self, addrs: I, elem_bytes: u64, tex: bool) {
        let shift = if tex { TEX_SEG_SHIFT } else { SEG_SHIFT };
        let transactions = SEG_SCRATCH.with(|cell| {
            let mut set = cell.borrow_mut();
            set.clear();
            let mut transactions = 0;
            let mut in_warp = 0usize;
            for addr in addrs {
                set.touch(addr, elem_bytes, shift);
                in_warp += 1;
                if in_warp == WARP_SIZE {
                    transactions += set.count();
                    set.clear();
                    in_warp = 0;
                }
            }
            transactions + set.count()
        });
        if tex {
            self.stats.tex_transactions += transactions;
        } else {
            self.stats.gmem_transactions += transactions;
        }
    }

    /// Accounts thread `t < count` touching `buf[start + t]`.
    fn account_range<T: Copy + Send>(&mut self, buf: &GBuf<T>, start: usize, count: usize) {
        let elem_bytes = u64::from(buf.elem_bytes());
        self.stats.gmem_bytes += count as u64 * elem_bytes;
        self.stats.gmem_transactions +=
            range_transactions(buf.addr(start), count, elem_bytes, SEG_SHIFT);
    }

    /// Every thread `t < count` loads `buf[start + t]`; returns the values.
    pub fn gld_range<T: Copy + Send>(
        &mut self,
        buf: &GBuf<T>,
        start: usize,
        count: usize,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(count);
        self.gld_range_into(buf, start, count, &mut out);
        out
    }

    /// Allocation-free [`Block::gld_range`]: clears `out` and fills it with
    /// the loaded values, reusing its capacity.
    pub fn gld_range_into<T: Copy + Send>(
        &mut self,
        buf: &GBuf<T>,
        start: usize,
        count: usize,
        out: &mut Vec<T>,
    ) {
        self.account_range(buf, start, count);
        out.clear();
        out.extend((0..count).map(|t| buf.get(start + t)));
    }

    /// Cost of [`Block::gld_range`] without the values: for a range other
    /// blocks of the *same* launch store (the last block of a
    /// `__threadfence` reduction re-reading every block's partial), which the
    /// host may only read once the launch is over.
    pub fn gld_range_cost<T: Copy + Send>(&mut self, buf: &GBuf<T>, start: usize, count: usize) {
        self.account_range(buf, start, count);
    }

    /// Thread `t` loads `buf[idxs[t]]` (arbitrary gather); returns values.
    pub fn gld_gather<T: Copy + Send>(&mut self, buf: &GBuf<T>, idxs: &[usize]) -> Vec<T> {
        let mut out = Vec::with_capacity(idxs.len());
        self.gld_gather_into(buf, idxs, &mut out);
        out
    }

    /// Allocation-free [`Block::gld_gather`] reusing `out`'s capacity.
    pub fn gld_gather_into<T: Copy + Send>(
        &mut self,
        buf: &GBuf<T>,
        idxs: &[usize],
        out: &mut Vec<T>,
    ) {
        self.stats.gmem_bytes += (idxs.len() * buf.elem_bytes() as usize) as u64;
        self.account_addresses(
            idxs.iter().map(|&i| buf.addr(i)),
            u64::from(buf.elem_bytes()),
            false,
        );
        out.clear();
        out.extend(idxs.iter().map(|&i| buf.get(i)));
    }

    /// Gather through the texture path (32-byte transactions).
    pub fn gld_gather_tex<T: Copy + Send>(&mut self, buf: &GBuf<T>, idxs: &[usize]) -> Vec<T> {
        let mut out = Vec::with_capacity(idxs.len());
        self.gld_gather_tex_into(buf, idxs, &mut out);
        out
    }

    /// Allocation-free [`Block::gld_gather_tex`] reusing `out`'s capacity.
    pub fn gld_gather_tex_into<T: Copy + Send>(
        &mut self,
        buf: &GBuf<T>,
        idxs: &[usize],
        out: &mut Vec<T>,
    ) {
        self.stats.gmem_bytes += (idxs.len() * buf.elem_bytes() as usize) as u64;
        self.account_addresses(
            idxs.iter().map(|&i| buf.addr(i)),
            u64::from(buf.elem_bytes()),
            true,
        );
        out.clear();
        out.extend(idxs.iter().map(|&i| buf.get(i)));
    }

    /// Single-thread load of one element.
    pub fn gld_one<T: Copy + Send>(&mut self, buf: &GBuf<T>, i: usize) -> T {
        self.stats.gmem_bytes += u64::from(buf.elem_bytes());
        self.stats.gmem_transactions += 1;
        buf.get(i)
    }

    /// Every thread `t < vals.len()` stores `vals[t]` to `buf[start + t]`.
    pub fn gst_range<T: Copy + Send>(&mut self, buf: &GBuf<T>, start: usize, vals: &[T]) {
        self.account_range(buf, start, vals.len());
        for (t, &v) in vals.iter().enumerate() {
            buf.set(start + t, v, self.epoch);
        }
    }

    /// Thread `t` stores `pairs[t].1` to `buf[pairs[t].0]` (scatter).
    pub fn gst_scatter<T: Copy + Send>(&mut self, buf: &GBuf<T>, pairs: &[(usize, T)]) {
        self.stats.gmem_bytes += (pairs.len() * buf.elem_bytes() as usize) as u64;
        self.account_addresses(
            pairs.iter().map(|&(i, _)| buf.addr(i)),
            u64::from(buf.elem_bytes()),
            false,
        );
        for &(i, v) in pairs {
            buf.set(i, v, self.epoch);
        }
    }

    /// Cost of [`Block::gst_range`] without the values: for the scalars
    /// the last block of a `__threadfence` reduction stores, which the host
    /// computes from the partials once the launch is over (see
    /// [`Block::gld_range_cost`]) and writes in that block's place.
    pub fn gst_range_cost<T: Copy + Send>(&mut self, buf: &GBuf<T>, start: usize, count: usize) {
        self.account_range(buf, start, count);
    }

    /// Single-thread store of one element.
    pub fn gst_one<T: Copy + Send>(&mut self, buf: &GBuf<T>, i: usize, v: T) {
        self.stats.gmem_bytes += u64::from(buf.elem_bytes());
        self.stats.gmem_transactions += 1;
        buf.set(i, v, self.epoch);
    }

    /// Every thread performs `n` flops.
    pub fn flop_all(&mut self, n: u64) {
        self.stats.flops += n * self.block_size as u64;
        self.stats.warp_flops += n * (self.warps() * WARP_SIZE) as u64;
    }

    /// The first `active` threads (contiguous mask) perform `n` flops each;
    /// the rest idle — lockstep work still covers their warps.
    ///
    /// # Contiguity contract
    ///
    /// `active` is a *front length* — threads `0..active` work, threads
    /// `active..block_size` idle — not a popcount of a scattered mask. The
    /// lockstep charge assumes the idle threads occupy only the trailing
    /// warps; a scattered mask spread over every warp keeps *all* warps
    /// busy and would be under-charged here. Callers holding a per-thread
    /// mask must account it warp-exactly instead (see
    /// [`Block::branch_mask`] for the branch analogue). Audit note: every
    /// in-tree caller (solver vecops, SpMV stages, scan and radix-sort
    /// tiles) passes a `min(tile, n - start)`-style tail count — a true
    /// front.
    pub fn flop_masked(&mut self, active: usize, n: u64) {
        let active = active.min(self.block_size);
        self.stats.flops += n * active as u64;
        let busy_warps = active.div_ceil(WARP_SIZE);
        self.stats.warp_flops += n * (busy_warps * WARP_SIZE) as u64;
    }

    /// One designated thread performs `n` flops.
    pub fn flop_one(&mut self, n: u64) {
        self.stats.flops += n;
        self.stats.warp_flops += n * WARP_SIZE as u64;
    }

    /// Records a branch at `site` taken by the first `active` threads of a
    /// contiguous mask: every fully-agreeing warp is a uniform group, the
    /// boundary warp (if mixed) diverges.
    ///
    /// # Contiguity contract
    ///
    /// `active` is a *front length*, exactly as for [`Block::flop_masked`]:
    /// threads `0..active` take the branch, the rest fall through. Under
    /// that shape at most one warp — the boundary warp — can be mixed,
    /// which is all this method ever charges. Feeding it the popcount of a
    /// scattered mask silently under-counts divergence no matter how
    /// fragmented the mask is; callers holding a mask must use
    /// [`Block::branch_mask`] (exact per-warp accounting) or
    /// [`Block::branch_front_of`], which checks the shape per call.
    pub fn branch_front(&mut self, _site: u32, active: usize) {
        let active = active.min(self.block_size);
        let warps = self.warps();
        self.stats.branch_groups += warps as u64;
        if !active.is_multiple_of(WARP_SIZE) && active < self.block_size {
            self.stats.divergent_branch_groups += 1;
        }
    }

    /// Records a branch at `site` from an explicit mask the caller expects
    /// to be a contiguous front (lanes sorted by the branch outcome).
    /// The shape is checked per call: a true front takes the cheap
    /// [`Block::branch_front`] accounting, a scattered mask is routed to
    /// the exact [`Block::branch_mask`] path instead of being silently
    /// under-counted — and trips a debug assertion, because a scattered
    /// mask here means the caller's sorting invariant is broken.
    pub fn branch_front_of(&mut self, site: u32, mask: &[bool]) {
        if let Some(len) = front_len(mask) {
            self.branch_front(site, len);
        } else {
            if cfg!(debug_assertions) && !cfg!(test) {
                panic!(
                    "branch_front_of: scattered mask violates the contiguity contract; \
                     use branch_mask at this call site"
                );
            }
            self.branch_mask(site, mask);
        }
    }

    /// Records a branch at `site` with an explicit per-thread mask.
    /// Warp-exact: any warp seeing both outcomes is charged divergent,
    /// however the mask is shaped. This is the correct entry point for
    /// scattered masks (see the contiguity contract on
    /// [`Block::branch_front`]).
    pub fn branch_mask(&mut self, _site: u32, mask: &[bool]) {
        for chunk in mask.chunks(WARP_SIZE) {
            self.stats.branch_groups += 1;
            let taken = chunk.iter().filter(|&&b| b).count();
            if taken != 0 && taken != chunk.len() {
                self.stats.divergent_branch_groups += 1;
            }
        }
    }

    /// Records one lockstep shared-memory access per thread, `words[t]`
    /// being thread `t`'s word index. Counts bank-conflict replays per warp.
    pub fn smem_access(&mut self, words: &[u32]) {
        for chunk in words.chunks(WARP_SIZE) {
            self.stats.smem_warp(chunk.iter().map(|&w| w as usize));
        }
    }

    /// [`Block::smem_access`] for a read in which lanes may share a word:
    /// the hardware broadcasts a word to every lane of a warp that reads
    /// it, so only distinct words of one bank replay.
    pub fn smem_broadcast(&mut self, words: &[u32]) {
        for chunk in words.chunks(WARP_SIZE) {
            let mut distinct = [0u32; WARP_SIZE];
            let distinct = &mut distinct[..chunk.len()];
            distinct.copy_from_slice(chunk);
            distinct.sort_unstable();
            let mut n = 0;
            for k in 0..distinct.len() {
                if k == 0 || distinct[k] != distinct[n - 1] {
                    distinct[n] = distinct[k];
                    n += 1;
                }
            }
            self.stats
                .smem_warp(distinct[..n].iter().map(|&w| w as usize));
            self.stats.smem_accesses += (chunk.len() - n) as u64;
        }
    }

    /// Cost of a work-efficient (Blelloch) block scan over `n` shared-memory
    /// elements: `2(n-1)` adds, `~4n` conflict-free shared accesses,
    /// `2·log2(n)` barriers.
    pub fn block_scan_cost(&mut self, n: usize) {
        if n <= 1 {
            return;
        }
        let adds = 2 * (n as u64 - 1);
        self.stats.flops += adds;
        self.stats.warp_flops += adds; // spread over the block's lanes
        self.stats.smem_accesses += 4 * n as u64;
        self.stats.syncs += 2 * (usize::BITS - (n - 1).leading_zeros()) as u64;
    }

    /// Cost of a warp shuffle reduction/scan over `width` lanes
    /// (`log2(width)` shuffle steps per warp) for the first `active`
    /// threads. The paper replaces shared-memory reductions with shuffles in
    /// its scan and radix sort ("Faster Parallel Reductions on Kepler").
    pub fn shfl_reduce_cost(&mut self, active: usize, width: usize) {
        let warps = active.div_ceil(WARP_SIZE) as u64;
        let steps = usize::BITS as u64 - (width.max(2) - 1).leading_zeros() as u64;
        self.stats.shuffles += warps * steps;
        let adds = steps * active as u64;
        self.stats.flops += adds;
        self.stats.warp_flops += steps * (warps * WARP_SIZE as u64);
    }

    /// Adds work counters priced ahead of the launch: the cost of a
    /// data-independent access pattern computed once, in closed form or
    /// from the pattern, the way [`Block::block_scan_cost`] prices a scan.
    /// The launch counters (`launches`, `threads`, `warps`) belong to the
    /// launch and must be zero.
    pub fn charge(&mut self, priced: &KernelStats) {
        debug_assert_eq!(
            (priced.launches, priced.threads, priced.warps),
            (0, 0, 0),
            "a priced charge carries work counters only"
        );
        self.stats.merge(priced);
    }

    /// Records a block-wide barrier.
    pub fn sync(&mut self) {
        self.stats.syncs += 1;
    }

    /// Number of warps in this block.
    fn warps(&self) -> usize {
        self.block_size.div_ceil(WARP_SIZE)
    }
}

/// Front-shape check: `Some(len)` when `mask` is `len` trues followed only
/// by falses (a contiguous front), `None` for any scattered mask.
fn front_len(mask: &[bool]) -> Option<usize> {
    let len = mask.iter().position(|&b| !b).unwrap_or(mask.len());
    mask[len..].iter().all(|&b| !b).then_some(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Block {
        Block::new(0, 256, 1)
    }

    #[test]
    fn range_load_is_coalesced() {
        let data = vec![1.0f64; 1024];
        let buf = GBuf::new_ro(&data, 0);
        let mut b = block();
        let vals = b.gld_range(&buf, 0, 256);
        assert_eq!(vals.len(), 256);
        // 256 f64 = 2048 bytes = 16 transactions of 128 B.
        assert_eq!(b.stats.gmem_transactions, 16);
        assert!((b.stats.overfetch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gather_load_counts_scattered_segments() {
        let data = vec![1.0f64; 4096];
        let buf = GBuf::new_ro(&data, 0);
        let mut b = block();
        let idxs: Vec<usize> = (0..256).map(|t| t * 16).collect(); // stride 16 f64
        let _ = b.gld_gather(&buf, &idxs);
        // Every access in its own 128-byte segment.
        assert_eq!(b.stats.gmem_transactions, 256);
    }

    /// The block-path rule as it was first written: chunk the per-thread
    /// addresses into warps, sort + dedup each chunk's segments.
    fn reference_transactions(addrs: &[u64], elem_bytes: u64, tex: bool) -> u64 {
        let granularity = if tex {
            crate::TEX_TRANSACTION_BYTES
        } else {
            crate::TRANSACTION_BYTES
        };
        addrs
            .chunks(WARP_SIZE)
            .map(|warp| {
                crate::coalesce::reference_count(warp.iter().map(|&a| (a, elem_bytes)), granularity)
            })
            .sum()
    }

    /// Runs every instrumented memory operation of [`Block`] over `idxs`
    /// (and the two range operations over `idxs.len()` elements from about
    /// `idxs[0]`) on `buf`, against the oracle.
    fn check_block_ops<T: Copy + Send>(buf: &GBuf<T>, idxs: &[usize], what: &str) {
        let elem_bytes = u64::from(buf.elem_bytes());
        let bytes = idxs.len() as u64 * elem_bytes;
        let addrs: Vec<u64> = idxs.iter().map(|&i| buf.addr(i)).collect();
        let expect = |b: &Block, gmem: u64, tex: u64, op: &str| {
            let want = KernelStats {
                gmem_bytes: bytes,
                gmem_transactions: gmem,
                tex_transactions: tex,
                ..KernelStats::default()
            };
            assert_eq!(b.stats, want, "{op}, {what}");
        };
        let scattered = reference_transactions(&addrs, elem_bytes, false);

        let mut b = block();
        b.gld_gather(buf, idxs);
        expect(&b, scattered, 0, "gld_gather");

        let mut b = block();
        b.gld_gather_tex(buf, idxs);
        let tex = reference_transactions(&addrs, elem_bytes, true);
        expect(&b, 0, tex, "gld_gather_tex");

        let mut b = block();
        let pairs: Vec<(usize, T)> = idxs.iter().map(|&i| (i, buf.get(i))).collect();
        b.gst_scatter(buf, &pairs);
        expect(&b, scattered, 0, "gst_scatter");

        let start = idxs[0].min(buf.len() - idxs.len());
        let range: Vec<u64> = (0..idxs.len()).map(|t| buf.addr(start + t)).collect();
        let ranged = reference_transactions(&range, elem_bytes, false);

        let mut b = block();
        let vals = b.gld_range(buf, start, idxs.len());
        expect(&b, ranged, 0, "gld_range");

        let mut b = block();
        b.gst_range(buf, start, &vals);
        expect(&b, ranged, 0, "gst_range");
    }

    #[test]
    fn streaming_count_matches_the_sort_dedup_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const LEN: usize = 4096;
        let mut words = vec![0u32; LEN];
        let mut reals = vec![0.0f64; LEN];
        let mut skewed = vec![0.0f64; LEN];
        let mut rows = vec![[0.0f64; 6]; LEN];
        let mut mats = vec![[0.0f64; 36]; LEN];
        // No conflict checking: the generator repeats store targets.
        let words = GBuf::new_rw(&mut words, 4096, false);
        let reals = GBuf::new_rw(&mut reals, 1 << 20, false);
        let skewed = GBuf::new_rw(&mut skewed, (1 << 21) + 100, false);
        let rows = GBuf::new_rw(&mut rows, 1 << 22, false);
        let mats = GBuf::new_rw(&mut mats, (1 << 23) + 8, false);

        let mut rng = StdRng::seed_from_u64(0xB10C_5E75);
        for case in 0..2_500 {
            // Up to a full block of threads, tail warps included.
            let count = [256, 256, 32, rng.gen_range(1..257)][rng.gen_range(0..4)];
            let base = rng.gen_range(0..LEN - 256 * 8);
            let stride = [1, 2, 5, 8][rng.gen_range(0..4)];
            let shape = rng.gen_range(0..6);
            let idxs: Vec<usize> = (0..count)
                .map(|t| match shape {
                    0 => base + t * stride,
                    1 => base + (count - 1 - t) * stride,
                    // Six threads per row of six: the `0..5 ×6` gather.
                    2 => base + (t / 36) * 6 + t % 6,
                    3 => base,
                    4 => rng.gen_range(0..LEN - 256),
                    _ => base + (t % 2) * 900 + t / 2,
                })
                .collect();
            let what = format!("case {case}: shape {shape}, {count} threads");
            match rng.gen_range(0..5) {
                0 => check_block_ops(&words, &idxs, &what),
                1 => check_block_ops(&reals, &idxs, &what),
                2 => check_block_ops(&skewed, &idxs, &what),
                3 => check_block_ops(&rows, &idxs, &what),
                _ => check_block_ops(&mats, &idxs, &what),
            }
        }
    }

    #[test]
    fn scatter_store_roundtrip() {
        let mut data = vec![0u32; 64];
        let buf = GBuf::new_rw(&mut data, 0, true);
        let mut b = block();
        let pairs: Vec<(usize, u32)> = (0..64).map(|i| (63 - i, i as u32)).collect();
        b.gst_scatter(&buf, &pairs);
        drop(buf);
        assert_eq!(data[63], 0);
        assert_eq!(data[0], 63);
    }

    #[test]
    fn masked_flops_work() {
        let mut b = block();
        b.flop_masked(40, 10);
        assert_eq!(b.stats.flops, 400);
        // 40 active threads span 2 warps → 2 × 32 lockstep lanes.
        assert_eq!(b.stats.warp_flops, 640);
    }

    #[test]
    fn branch_front_divergence_only_at_boundary() {
        let mut b = block();
        b.branch_front(0, 64); // warp-aligned: no divergence
        assert_eq!(b.stats.divergent_branch_groups, 0);
        b.branch_front(0, 40); // boundary warp mixed
        assert_eq!(b.stats.divergent_branch_groups, 1);
        b.branch_front(0, 256); // everyone takes it: uniform
        assert_eq!(b.stats.divergent_branch_groups, 1);
    }

    #[test]
    fn front_len_detects_shape() {
        assert_eq!(front_len(&[true, true, false, false]), Some(2));
        assert_eq!(front_len(&[false, false]), Some(0));
        assert_eq!(front_len(&[true, true]), Some(2));
        assert_eq!(front_len(&[]), Some(0));
        assert_eq!(front_len(&[true, false, true]), None, "scattered");
    }

    #[test]
    fn branch_front_of_honors_shape() {
        // A true front takes the boundary-warp shortcut.
        let mut b = block();
        let mut mask = vec![false; 256];
        for m in mask.iter_mut().take(40) {
            *m = true;
        }
        b.branch_front_of(0, &mask);
        assert_eq!(b.stats.branch_groups, 8);
        assert_eq!(b.stats.divergent_branch_groups, 1);
        // A scattered mask must NOT be under-counted: it falls through to
        // the exact per-warp accounting (both warps of the pattern mixed).
        let mut b2 = block();
        let scattered: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        b2.branch_front_of(0, &scattered);
        assert_eq!(b2.stats.branch_groups, 2);
        assert_eq!(
            b2.stats.divergent_branch_groups, 2,
            "scattered mask through the front API must charge every mixed warp"
        );
    }

    #[test]
    fn branch_mask_counts_mixed_warps() {
        let mut b = block();
        let mut mask = vec![false; 64];
        for (i, m) in mask.iter_mut().enumerate() {
            *m = i % 2 == 0; // alternating: both warps diverge
        }
        b.branch_mask(1, &mask);
        assert_eq!(b.stats.branch_groups, 2);
        assert_eq!(b.stats.divergent_branch_groups, 2);
    }

    #[test]
    fn smem_conflicts() {
        let mut b = block();
        // 32 threads all in bank 5.
        let words: Vec<u32> = (0..32).map(|t| 5 + 32 * t).collect();
        b.smem_access(&words);
        assert_eq!(b.stats.smem_replays, 31);
        // Identity mapping: conflict-free.
        let mut b2 = block();
        let words2: Vec<u32> = (0..32).collect();
        b2.smem_access(&words2);
        assert_eq!(b2.stats.smem_replays, 0);
    }

    #[test]
    fn smem_broadcast_replays_distinct_words_only() {
        // Every lane of two warps reads one word: 64 accesses, no replay;
        // smem_access would count 31 replays per warp.
        let mut b = block();
        b.smem_broadcast(&[7; 64]);
        assert_eq!((b.stats.smem_accesses, b.stats.smem_replays), (64, 0));
        // Lanes 0..16 read word 3 and lanes 16..32 words 35 and 67 in turn:
        // bank 3 serves three distinct words.
        let words: Vec<u32> = (0..32)
            .map(|t| if t < 16 { 3 } else { 35 + 32 * (t % 2) })
            .collect();
        let mut b = block();
        b.smem_broadcast(&words);
        assert_eq!((b.stats.smem_accesses, b.stats.smem_replays), (32, 2));
        // Distinct words: the same count as smem_access.
        let words: Vec<u32> = (0..40).map(|t| 5 * t).collect();
        let (mut b, mut c) = (block(), block());
        b.smem_broadcast(&words);
        c.smem_access(&words);
        assert_eq!(b.stats, c.stats);
    }

    #[test]
    fn priced_charge_adds_work_counters() {
        let mut b = block();
        b.sync();
        let priced = KernelStats {
            flops: 10,
            warp_flops: 32,
            smem_accesses: 7,
            smem_replays: 1,
            syncs: 2,
            ..KernelStats::default()
        };
        b.charge(&priced);
        b.charge(&priced);
        assert_eq!(
            (b.stats.flops, b.stats.warp_flops, b.stats.smem_accesses),
            (20, 64, 14)
        );
        assert_eq!((b.stats.smem_replays, b.stats.syncs), (2, 5));
        assert_eq!(b.stats.launches, 0);
    }

    #[test]
    fn scan_cost_scaling() {
        let mut b = block();
        b.block_scan_cost(256);
        assert_eq!(b.stats.flops, 510);
        assert_eq!(b.stats.smem_accesses, 1024);
        assert_eq!(b.stats.syncs, 16); // 2 * log2(256)
    }

    #[test]
    fn shfl_cost_scaling() {
        let mut b = block();
        b.shfl_reduce_cost(256, 32);
        // 8 warps × 5 shuffle steps.
        assert_eq!(b.stats.shuffles, 40);
    }
}
