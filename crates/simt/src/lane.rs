//! Per-thread kernel context and warp-level aggregation.
//!
//! A [`Lane`] is the view one simulated CUDA thread has of the machine. The
//! executor runs the 32 lanes of a warp one after another. The hardware runs
//! them in lockstep, so the k-th access of every lane is one warp access:
//! each lane counts its own accesses and folds its k-th one straight into
//! the warp's k-th *slot* as it runs — coalesced transaction counts,
//! shared-memory bank conflicts and branch-divergence groups come out
//! exactly as the hardware would observe them, without keeping a per-lane
//! trace to replay afterwards.

use crate::buffer::GBuf;
use crate::coalesce::{SegSet, SEG_SHIFT, TEX_SEG_SHIFT};
use crate::stats::KernelStats;
use crate::{SMEM_BANKS, WARP_SIZE};

/// Kind of a global-memory access. Within one slot each kind coalesces on
/// its own, so a slot holds up to one segment set per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemKind {
    /// Load through L1/L2 (128-byte transactions).
    Load = 0,
    /// Store through L1/L2 (128-byte transactions).
    Store = 1,
    /// Load through the texture path (32-byte transactions) — what the
    /// paper uses for the irregular vector reads in SpMV.
    Tex = 2,
}

/// Marks a kind no lane has used yet in a memory slot.
const NO_SET: u32 = u32::MAX;

/// One lockstep shared-memory access: lanes per bank, and lanes in all.
#[derive(Clone, Copy)]
struct SmemSlot {
    banks: [u8; SMEM_BANKS],
    lanes: u32,
}

/// Slot accumulators of the warp in flight, one per host thread. Every
/// vector keeps its capacity across warps and launches, so the steady-state
/// hot loop never touches the heap.
pub(crate) struct WarpAcc {
    /// Per memory slot, the index into `sets` of each kind's segment set.
    mem: Vec<[u32; 3]>,
    mem_slots: usize,
    /// Segment sets, handed out in order of first use within the warp.
    sets: Vec<SegSet>,
    sets_used: usize,
    smem: Vec<SmemSlot>,
    smem_slots: usize,
    /// Per branch slot, `(site, saw_taken, saw_not_taken)` of every site
    /// some lane decided there.
    branches: Vec<Vec<(u32, bool, bool)>>,
    branch_slots: usize,
}

/// What a warp's lanes add up to without any slot: plain sums and maxima,
/// kept apart from [`WarpAcc`] so the launch loop can hold them in
/// registers across kernel calls.
#[derive(Default)]
pub(crate) struct WarpTotals {
    flops: u64,
    max_flops: u64,
    gmem_bytes: u64,
    max_shuffles: u64,
    max_syncs: u64,
}

impl WarpAcc {
    pub(crate) const fn new() -> WarpAcc {
        WarpAcc {
            mem: Vec::new(),
            mem_slots: 0,
            sets: Vec::new(),
            sets_used: 0,
            smem: Vec::new(),
            smem_slots: 0,
            branches: Vec::new(),
            branch_slots: 0,
        }
    }

    /// Starts a new warp. Also what makes a warp abandoned by a panicking
    /// kernel harmless to the next launch on this thread.
    pub(crate) fn begin(&mut self) {
        self.mem_slots = 0;
        self.sets_used = 0;
        self.smem_slots = 0;
        self.branch_slots = 0;
    }

    /// The segment set of `kind` in memory slot `k`, opening either on
    /// first use. Lanes count their accesses from 0, so `k` is at most one
    /// past the slots opened so far.
    #[inline]
    fn mem_set(&mut self, k: usize, kind: MemKind) -> &mut SegSet {
        if k == self.mem_slots {
            if k == self.mem.len() {
                self.mem.push([NO_SET; 3]);
            } else {
                self.mem[k] = [NO_SET; 3];
            }
            self.mem_slots += 1;
        }
        let mut at = self.mem[k][kind as usize];
        if at == NO_SET {
            at = self.sets_used as u32;
            if self.sets_used == self.sets.len() {
                self.sets.push(SegSet::new());
            }
            self.sets[self.sets_used].clear();
            self.sets_used += 1;
            self.mem[k][kind as usize] = at;
        }
        &mut self.sets[at as usize]
    }

    #[inline]
    fn smem_slot(&mut self, k: usize) -> &mut SmemSlot {
        const EMPTY: SmemSlot = SmemSlot {
            banks: [0; SMEM_BANKS],
            lanes: 0,
        };
        if k == self.smem_slots {
            if k == self.smem.len() {
                self.smem.push(EMPTY);
            } else {
                self.smem[k] = EMPTY;
            }
            self.smem_slots += 1;
        }
        &mut self.smem[k]
    }

    #[inline]
    fn branch_slot(&mut self, k: usize) -> &mut Vec<(u32, bool, bool)> {
        if k == self.branch_slots {
            if k == self.branches.len() {
                self.branches.push(Vec::new());
            } else {
                self.branches[k].clear();
            }
            self.branch_slots += 1;
        }
        &mut self.branches[k]
    }

    /// Folds the finished warp into `stats`.
    pub(crate) fn finish(&mut self, totals: WarpTotals, stats: &mut KernelStats) {
        // --- SIMT compute work and warp-uniform ops -----------------------
        stats.flops += totals.flops;
        stats.warp_flops += totals.max_flops * WARP_SIZE as u64;
        stats.gmem_bytes += totals.gmem_bytes;
        stats.shuffles += totals.max_shuffles;
        stats.syncs += totals.max_syncs;

        // --- Global memory: distinct segments per slot and kind ------------
        for slot in &self.mem[..self.mem_slots] {
            for kind in [MemKind::Load, MemKind::Store, MemKind::Tex] {
                let at = slot[kind as usize];
                if at == NO_SET {
                    continue;
                }
                let transactions = self.sets[at as usize].count();
                if kind == MemKind::Tex {
                    stats.tex_transactions += transactions;
                } else {
                    stats.gmem_transactions += transactions;
                }
            }
        }

        // --- Shared memory: the fullest bank replays ------------------------
        for slot in &self.smem[..self.smem_slots] {
            stats.smem_accesses += u64::from(slot.lanes);
            let max_mult = slot.banks.iter().copied().max().unwrap_or(0);
            stats.smem_replays += u64::from(max_mult.saturating_sub(1));
        }

        // --- Branch divergence: within a slot, one group per site ----------
        for groups in &self.branches[..self.branch_slots] {
            for &(_, saw_taken, saw_not) in groups {
                stats.branch_groups += 1;
                if saw_taken && saw_not {
                    stats.divergent_branch_groups += 1;
                }
            }
        }
    }
}

/// Execution context handed to a per-thread kernel closure.
///
/// All instrumented operations are *also* the real operation: [`Lane::ld`]
/// returns the element, [`Lane::st`] writes it. Pure arithmetic is the
/// kernel's own Rust code, accounted via [`Lane::flop`].
pub struct Lane<'w> {
    /// Global thread index (`blockIdx * blockDim + threadIdx` equivalent).
    pub gid: usize,
    /// Lane index within the warp, `0..32`.
    pub lane_id: u32,
    /// Warp index within the launch.
    pub warp_id: usize,
    epoch: u32,
    warp: &'w mut WarpAcc,
    /// Next memory / shared-memory / branch slot of this lane.
    mem_k: usize,
    smem_k: usize,
    branch_k: usize,
    flops: u64,
    gmem_bytes: u64,
    shuffles: u64,
    syncs: u64,
}

impl<'w> Lane<'w> {
    #[inline]
    pub(crate) fn new(gid: usize, epoch: u32, warp: &'w mut WarpAcc) -> Lane<'w> {
        Lane {
            gid,
            lane_id: (gid % WARP_SIZE) as u32,
            warp_id: gid / WARP_SIZE,
            epoch,
            warp,
            mem_k: 0,
            smem_k: 0,
            branch_k: 0,
            flops: 0,
            gmem_bytes: 0,
            shuffles: 0,
            syncs: 0,
        }
    }

    /// Folds the lane's own totals into its warp's once the kernel returned.
    #[inline]
    pub(crate) fn retire(self, totals: &mut WarpTotals) {
        totals.flops += self.flops;
        totals.max_flops = totals.max_flops.max(self.flops);
        totals.gmem_bytes += self.gmem_bytes;
        totals.max_shuffles = totals.max_shuffles.max(self.shuffles);
        totals.max_syncs = totals.max_syncs.max(self.syncs);
    }

    #[inline]
    fn access(&mut self, kind: MemKind, addr: u64, bytes: u32) {
        let shift = if kind == MemKind::Tex {
            TEX_SEG_SHIFT
        } else {
            SEG_SHIFT
        };
        self.gmem_bytes += u64::from(bytes);
        self.warp
            .mem_set(self.mem_k, kind)
            .touch(addr, u64::from(bytes), shift);
        self.mem_k += 1;
    }

    /// Loads element `i` of `buf` through the L1/L2 path.
    #[inline]
    pub fn ld<T: Copy + Send>(&mut self, buf: &GBuf<T>, i: usize) -> T {
        self.access(MemKind::Load, buf.addr(i), buf.elem_bytes());
        buf.get(i)
    }

    /// Loads element `i` of `buf` through the texture path (32-byte
    /// transactions; cheaper for irregular gathers).
    #[inline]
    pub fn ld_tex<T: Copy + Send>(&mut self, buf: &GBuf<T>, i: usize) -> T {
        self.access(MemKind::Tex, buf.addr(i), buf.elem_bytes());
        buf.get(i)
    }

    /// Stores `v` into element `i` of `buf`.
    ///
    /// Within one launch no other lane may store to the same element
    /// (CUDA's data-race rule); the device's conflict checker enforces this
    /// when armed.
    #[inline]
    pub fn st<T: Copy + Send>(&mut self, buf: &GBuf<T>, i: usize, v: T) {
        self.access(MemKind::Store, buf.addr(i), buf.elem_bytes());
        buf.set(i, v, self.epoch);
    }

    /// Records `n` floating-point operations of lane work.
    #[inline]
    pub fn flop(&mut self, n: u32) {
        self.flops += u64::from(n);
    }

    /// Records a special-function operation (`tan`, `sqrt`, `atan2`, …),
    /// costed as 8 flops — the SFU throughput ratio on Kepler.
    #[inline]
    pub fn special(&mut self, n: u32) {
        self.flops += 8 * u64::from(n);
    }

    /// Records a branch decision at static `site` and returns `taken`, so
    /// kernels write `if lane.branch(SITE_X, cond) { … }`. Lanes of one warp
    /// disagreeing at the same site and occurrence form a divergence group.
    #[inline]
    pub fn branch(&mut self, site: u32, taken: bool) -> bool {
        let groups = self.warp.branch_slot(self.branch_k);
        self.branch_k += 1;
        match groups.iter_mut().find(|g| g.0 == site) {
            Some(g) => {
                g.1 |= taken;
                g.2 |= !taken;
            }
            None => groups.push((site, taken, !taken)),
        }
        taken
    }

    #[inline]
    fn smem(&mut self, word: u32) {
        let slot = self.warp.smem_slot(self.smem_k);
        self.smem_k += 1;
        slot.banks[(word as usize) % SMEM_BANKS] += 1;
        slot.lanes += 1;
    }

    /// Records a shared-memory read of word index `word` (bank = `word % 32`).
    #[inline]
    pub fn smem_ld(&mut self, word: u32) {
        self.smem(word);
    }

    /// Records a shared-memory write of word index `word`.
    #[inline]
    pub fn smem_st(&mut self, word: u32) {
        self.smem(word);
    }

    /// Records a warp shuffle operation.
    #[inline]
    pub fn shfl(&mut self, n: u32) {
        self.shuffles += u64::from(n);
    }

    /// Records a block-wide barrier.
    #[inline]
    pub fn sync(&mut self) {
        self.syncs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::reference_count;
    use crate::{TEX_TRANSACTION_BYTES, TRANSACTION_BYTES};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Runs `f` as lanes `0..active` of warp 0 and returns the warp's
    /// counters.
    fn run_warp(active: usize, f: impl Fn(&mut Lane)) -> KernelStats {
        let mut acc = WarpAcc::new();
        let mut totals = WarpTotals::default();
        acc.begin();
        for gid in 0..active {
            let mut lane = Lane::new(gid, 1, &mut acc);
            f(&mut lane);
            lane.retire(&mut totals);
        }
        let mut stats = KernelStats::default();
        acc.finish(totals, &mut stats);
        stats
    }

    #[test]
    fn coalesced_load_is_two_transactions_for_f64() {
        // 32 lanes loading consecutive f64 = 256 bytes = 2 × 128-byte
        // transactions.
        let data = vec![1.0f64; 64];
        let buf = GBuf::new_ro(&data, 0);
        let stats = run_warp(WARP_SIZE, |lane| {
            let _ = lane.ld(&buf, lane.gid);
        });
        assert_eq!(stats.gmem_transactions, 2);
        assert_eq!(stats.gmem_bytes, 256);
        assert!((stats.overfetch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coalesced_f32_load_charges_half_the_bytes_of_f64() {
        // The mixed-precision matrix streams rely on the byte accounting
        // following `size_of::<T>()`: 32 lanes loading consecutive f32 =
        // 128 bytes = 1 transaction, exactly half the f64 case above.
        let data = vec![1.0f32; 64];
        let buf = GBuf::new_ro(&data, 0);
        let stats = run_warp(WARP_SIZE, |lane| {
            let _ = lane.ld(&buf, lane.gid);
        });
        assert_eq!(stats.gmem_bytes, 128, "f32 must charge 4 bytes per lane");
        assert_eq!(stats.gmem_transactions, 1);
    }

    #[test]
    fn strided_load_is_fully_uncoalesced() {
        // Stride-16 f64 access: every lane touches its own 128-byte segment.
        let data = vec![0.0f64; 16 * 32];
        let buf = GBuf::new_ro(&data, 0);
        let stats = run_warp(WARP_SIZE, |lane| {
            let _ = lane.ld(&buf, lane.gid * 16);
        });
        assert_eq!(stats.gmem_transactions, 32);
        assert!(stats.overfetch() > 15.0);
    }

    #[test]
    fn broadcast_load_is_one_transaction() {
        let data = vec![0.0f64; 4];
        let buf = GBuf::new_ro(&data, 0);
        let stats = run_warp(WARP_SIZE, |lane| {
            let _ = lane.ld(&buf, 0);
        });
        assert_eq!(stats.gmem_transactions, 1);
    }

    #[test]
    fn texture_path_uses_32_byte_transactions() {
        let data = vec![0.0f64; 512];
        let buf = GBuf::new_ro(&data, 0);
        let stats = run_warp(WARP_SIZE, |lane| {
            // Scattered gather, 64 elements apart.
            let _ = lane.ld_tex(&buf, (lane.gid * 64) % 512);
        });
        assert_eq!(stats.gmem_transactions, 0);
        // 8 distinct addresses (gid*64 mod 512 cycles through 8 values),
        // each its own 32-byte segment.
        assert_eq!(stats.tex_transactions, 8);
    }

    #[test]
    fn divergence_detected_on_mixed_outcomes() {
        let stats = run_warp(WARP_SIZE, |lane| {
            let c = lane.branch(0, lane.gid % 2 == 0);
            if c {
                lane.flop(4);
            }
            lane.branch(1, true); // uniform branch
        });
        assert_eq!(stats.branch_groups, 2);
        assert_eq!(stats.divergent_branch_groups, 1);
        assert!((stats.divergence_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn simt_work_counts_idle_lanes() {
        let stats = run_warp(WARP_SIZE, |lane| {
            if lane.gid == 0 {
                lane.flop(100); // one busy lane
            }
        });
        assert_eq!(stats.flops, 100);
        assert_eq!(stats.warp_flops, 100 * 32);
        assert!((stats.simt_efficiency() - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn bank_conflicts_counted() {
        // All 32 lanes hit bank 0 (words 0, 32, 64, …): 31 replays.
        let stats = run_warp(WARP_SIZE, |lane| {
            lane.smem_ld((lane.gid as u32) * 32);
        });
        assert_eq!(stats.smem_accesses, 32);
        assert_eq!(stats.smem_replays, 31);

        // Conflict-free: each lane its own bank.
        let stats2 = run_warp(WARP_SIZE, |lane| {
            lane.smem_ld(lane.gid as u32);
        });
        assert_eq!(stats2.smem_replays, 0);
    }

    #[test]
    fn partial_warp_aggregates_only_active_lanes() {
        // Only 5 active lanes.
        let stats = run_warp(5, |lane| {
            lane.flop(10);
        });
        assert_eq!(stats.flops, 50);
        assert_eq!(stats.warp_flops, 320); // still a full warp of lockstep work
    }

    #[test]
    fn stores_and_loads_group_separately() {
        let mut a = vec![0.0f64; 32];
        let b = vec![1.0f64; 32];
        let ba = GBuf::new_rw(&mut a, 0, false);
        let bb = GBuf::new_ro(&b, 1 << 20);
        let stats = run_warp(WARP_SIZE, |lane| {
            let v = lane.ld(&bb, lane.gid);
            lane.st(&ba, lane.gid, v * 2.0);
        });
        // 2 coalesced transactions for the load + 2 for the store.
        assert_eq!(stats.gmem_transactions, 4);
        drop(ba);
        assert_eq!(a[7], 2.0);
    }

    #[test]
    fn a_warp_abandoned_by_a_panic_leaves_nothing_behind() {
        let data = vec![0.0f64; 64];
        let buf = GBuf::new_ro(&data, 0);
        let mut acc = WarpAcc::new();
        acc.begin();
        let mut lane = Lane::new(0, 1, &mut acc);
        let _ = lane.ld(&buf, 40);
        lane.smem_ld(3);
        lane.branch(9, true);
        lane.flop(7);
        lane.retire(&mut WarpTotals::default());
        // No finish(): the kernel "panicked". The next warp starts clean.
        acc.begin();
        let mut totals = WarpTotals::default();
        let mut lane = Lane::new(0, 2, &mut acc);
        let _ = lane.ld(&buf, 0);
        lane.retire(&mut totals);
        let mut stats = KernelStats::default();
        acc.finish(totals, &mut stats);
        let want = KernelStats {
            gmem_transactions: 1,
            gmem_bytes: 8,
            ..KernelStats::default()
        };
        assert_eq!(stats, want);
    }

    // --- Oracle: the trace-and-replay collector this module started as ----

    #[derive(Clone, Copy)]
    enum Op {
        /// `(kind, buffer, element)`; see [`Bufs`].
        Mem(MemKind, usize, usize),
        Smem(u32),
        Branch(u32, bool),
        Flop(u32),
        Special(u32),
        Shfl(u32),
        Sync,
    }

    /// Ordered trace of one lane, as the old collector recorded it.
    #[derive(Default)]
    struct LaneTrace {
        flops: u64,
        mem: Vec<(MemKind, u64, u64)>,
        smem: Vec<u32>,
        branches: Vec<(u32, bool)>,
        shuffles: u64,
        syncs: u64,
    }

    /// Zips the k-th access of every lane and counts each zip with
    /// sort + dedup ([`reference_count`]). Also returns the most segments
    /// any one zip touched.
    fn reference_aggregate_warp(lanes: &[LaneTrace]) -> (KernelStats, u64) {
        let mut stats = KernelStats::default();
        let mut widest = 0;
        let mut max_flops = 0u64;
        for l in lanes {
            stats.flops += l.flops;
            max_flops = max_flops.max(l.flops);
            stats.gmem_bytes += l.mem.iter().map(|m| m.2).sum::<u64>();
        }
        stats.warp_flops += max_flops * WARP_SIZE as u64;

        let max_mem = lanes.iter().map(|l| l.mem.len()).max().unwrap_or(0);
        for k in 0..max_mem {
            for kind in [MemKind::Load, MemKind::Store, MemKind::Tex] {
                let zip = lanes
                    .iter()
                    .filter_map(|l| l.mem.get(k))
                    .filter(|m| m.0 == kind)
                    .map(|m| (m.1, m.2));
                let transactions = if kind == MemKind::Tex {
                    reference_count(zip, TEX_TRANSACTION_BYTES)
                } else {
                    reference_count(zip, TRANSACTION_BYTES)
                };
                widest = widest.max(transactions);
                if kind == MemKind::Tex {
                    stats.tex_transactions += transactions;
                } else {
                    stats.gmem_transactions += transactions;
                }
            }
        }

        let max_smem = lanes.iter().map(|l| l.smem.len()).max().unwrap_or(0);
        for k in 0..max_smem {
            let mut bank_count = [0u32; SMEM_BANKS];
            let mut n = 0u64;
            for l in lanes {
                if let Some(&w) = l.smem.get(k) {
                    bank_count[(w as usize) % SMEM_BANKS] += 1;
                    n += 1;
                }
            }
            stats.smem_accesses += n;
            let max_mult = *bank_count.iter().max().unwrap();
            stats.smem_replays += u64::from(max_mult.saturating_sub(1));
        }

        let max_br = lanes.iter().map(|l| l.branches.len()).max().unwrap_or(0);
        for k in 0..max_br {
            let mut groups: Vec<(u32, bool, bool)> = Vec::new();
            for l in lanes {
                if let Some(&(site, taken)) = l.branches.get(k) {
                    match groups.iter_mut().find(|g| g.0 == site) {
                        Some(g) => {
                            g.1 |= taken;
                            g.2 |= !taken;
                        }
                        None => groups.push((site, taken, !taken)),
                    }
                }
            }
            for &(_, saw_taken, saw_not) in &groups {
                stats.branch_groups += 1;
                if saw_taken && saw_not {
                    stats.divergent_branch_groups += 1;
                }
            }
        }

        stats.shuffles += lanes.iter().map(|l| l.shuffles).max().unwrap_or(0);
        stats.syncs += lanes.iter().map(|l| l.syncs).max().unwrap_or(0);
        (stats, widest)
    }

    /// Element sizes and alignments the generator draws from: scalars, a
    /// scalar buffer off the 128 B grid (every 16th element straddles), a
    /// 48 B element (straddles 32 B and 128 B boundaries) and a 288 B one
    /// (3–4 segments each, so a warp holds > 64 keys and spills).
    struct Bufs<'a> {
        words: GBuf<'a, u32>,
        reals: GBuf<'a, f64>,
        skewed: GBuf<'a, f64>,
        rows: GBuf<'a, [f64; 6]>,
        mats: GBuf<'a, [f64; 36]>,
    }

    const BUF_LEN: usize = 2048;

    impl Bufs<'_> {
        fn run(&self, lane: &mut Lane, trace: &mut LaneTrace, kind: MemKind, buf: usize, i: usize) {
            fn go<T: Copy + Send>(
                lane: &mut Lane,
                trace: &mut LaneTrace,
                kind: MemKind,
                buf: &GBuf<T>,
                i: usize,
            ) {
                trace
                    .mem
                    .push((kind, buf.addr(i), u64::from(buf.elem_bytes())));
                match kind {
                    MemKind::Load => {
                        lane.ld(buf, i);
                    }
                    MemKind::Tex => {
                        lane.ld_tex(buf, i);
                    }
                    MemKind::Store => {
                        let v = buf.get(i);
                        lane.st(buf, i, v);
                    }
                }
            }
            match buf {
                0 => go(lane, trace, kind, &self.words, i),
                1 => go(lane, trace, kind, &self.reals, i),
                2 => go(lane, trace, kind, &self.skewed, i),
                3 => go(lane, trace, kind, &self.rows, i),
                _ => go(lane, trace, kind, &self.mats, i),
            }
        }
    }

    /// One step of a random warp program: the op of every lane that takes
    /// part in it (`None` = the lane skips the step, which shifts all its
    /// later slots against its neighbours').
    fn random_step(rng: &mut StdRng, active: usize) -> Vec<Option<Op>> {
        let kinds = [MemKind::Load, MemKind::Store, MemKind::Tex];
        let skip = [0, 0, 0, 10, 40][rng.gen_range(0..5)];
        let shape = rng.gen_range(0..12);
        let buf = rng.gen_range(0..5);
        let kind = kinds[rng.gen_range(0..3)];
        let mixed_kinds = rng.gen_range(0..4) == 0;
        let base = rng.gen_range(0..BUF_LEN - 32 * 40);
        let stride = [1, 2, 3, 16, 33][rng.gen_range(0..5)];
        let mut perm: Vec<usize> = (0..WARP_SIZE).collect();
        for k in (1..WARP_SIZE).rev() {
            perm.swap(k, rng.gen_range(0..k + 1));
        }
        let site = rng.gen_range(0..3) as u32;
        let cut = rng.gen_range(0..WARP_SIZE + 1);
        (0..active)
            .map(|l| {
                if rng.gen_range(0..100) < skip {
                    return None;
                }
                let kind = if mixed_kinds {
                    kinds[rng.gen_range(0..3)]
                } else {
                    kind
                };
                Some(match shape {
                    0 => Op::Mem(kind, buf, base + l * stride),
                    1 => Op::Mem(kind, buf, base + (WARP_SIZE - 1 - l) * stride),
                    // The `0..5 ×6` gather of the block-diagonal apply.
                    2 => Op::Mem(kind, buf, base + l % 6),
                    3 => Op::Mem(kind, buf, base),
                    4 => Op::Mem(kind, buf, base + perm[l] * stride),
                    5 => Op::Mem(kind, buf, rng.gen_range(0..BUF_LEN)),
                    // Two interleaved ascending runs.
                    6 => Op::Mem(kind, buf, base + (l % 2) * 640 + l / 2),
                    7 => Op::Smem([l, 32 * l, rng.gen_range(0..4096)][l % 3] as u32),
                    8 => Op::Branch(site, l < cut),
                    9 => Op::Branch(rng.gen_range(0..3) as u32, rng.gen_range(0..2) == 0),
                    10 => Op::Flop(rng.gen_range(0..50) as u32),
                    _ => [
                        Op::Special(rng.gen_range(0..4) as u32),
                        Op::Shfl(rng.gen_range(0..6) as u32),
                        Op::Sync,
                    ][rng.gen_range(0..3)],
                })
            })
            .collect()
    }

    #[test]
    fn online_slots_match_the_trace_and_replay_oracle() {
        let mut words = vec![0u32; BUF_LEN];
        let mut reals = vec![0.0f64; BUF_LEN];
        let mut skewed = vec![0.0f64; BUF_LEN];
        let mut rows = vec![[0.0f64; 6]; BUF_LEN];
        let mut mats = vec![[0.0f64; 36]; BUF_LEN];
        let bufs = Bufs {
            words: GBuf::new_rw(&mut words, 4096, false),
            reals: GBuf::new_rw(&mut reals, 1 << 20, false),
            skewed: GBuf::new_rw(&mut skewed, (1 << 21) + 100, false),
            rows: GBuf::new_rw(&mut rows, 1 << 22, false),
            mats: GBuf::new_rw(&mut mats, (1 << 23) + 8, false),
        };
        let mut rng = StdRng::seed_from_u64(0x51D7_C0A1);
        // One accumulator for all warps, as on a host thread.
        let mut acc = WarpAcc::new();
        let mut spilled = 0;
        for warp in 0..12_000 {
            let active = if rng.gen_range(0..4) == 0 {
                rng.gen_range(1..WARP_SIZE)
            } else {
                WARP_SIZE
            };
            let steps: Vec<Vec<Option<Op>>> = (0..rng.gen_range(1..10))
                .map(|_| random_step(&mut rng, active))
                .collect();

            let mut traces: Vec<LaneTrace> = Vec::new();
            let mut totals = WarpTotals::default();
            acc.begin();
            for l in 0..active {
                let mut trace = LaneTrace::default();
                let mut lane = Lane::new(l, 1, &mut acc);
                for op in steps.iter().filter_map(|step| step[l]) {
                    match op {
                        Op::Mem(kind, buf, i) => bufs.run(&mut lane, &mut trace, kind, buf, i),
                        Op::Smem(w) => {
                            trace.smem.push(w);
                            lane.smem_ld(w);
                        }
                        Op::Branch(site, taken) => {
                            trace.branches.push((site, taken));
                            lane.branch(site, taken);
                        }
                        Op::Flop(n) => {
                            trace.flops += u64::from(n);
                            lane.flop(n);
                        }
                        Op::Special(n) => {
                            trace.flops += 8 * u64::from(n);
                            lane.special(n);
                        }
                        Op::Shfl(n) => {
                            trace.shuffles += u64::from(n);
                            lane.shfl(n);
                        }
                        Op::Sync => {
                            trace.syncs += 1;
                            lane.sync();
                        }
                    }
                }
                lane.retire(&mut totals);
                traces.push(trace);
            }
            let mut got = KernelStats::default();
            acc.finish(totals, &mut got);
            let (want, widest) = reference_aggregate_warp(&traces);
            assert_eq!(got, want, "warp {warp} ({active} lanes)");
            spilled += usize::from(widest > 64);
        }
        assert!(spilled > 100, "only {spilled} warps spilled a segment set");
    }
}
