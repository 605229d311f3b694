//! The transaction-counting rule, stated once.
//!
//! One warp access — the k-th global-memory access of every lane of a warp
//! ([`crate::Lane`]), or 32 consecutive per-thread addresses of a block
//! operation ([`crate::Block`]) — costs one transaction per *distinct*
//! segment its bytes touch: 128-byte segments on the L1/L2 path, 32-byte
//! segments on the texture path. An element straddling a boundary touches
//! every segment it covers.
//!
//! [`SegSet`] counts the distinct segments of one such access as its lanes
//! stream by, in whatever order they arrive. A segment above everything seen
//! so far is new and one equal to the running maximum is a repeat, so a
//! stream that never steps backwards (coalesced, strided, broadcast) costs
//! one compare per lane. Only a backward step looks the segment up among the
//! keys kept so far. The count is that of a set, so it does not depend on
//! lane order — which is also why warps run on pool threads give the same
//! totals as warps run in sequence.

use crate::{TEX_TRANSACTION_BYTES, TRANSACTION_BYTES};

const _: () =
    assert!(TRANSACTION_BYTES.is_power_of_two() && TEX_TRANSACTION_BYTES.is_power_of_two());

/// `addr >> SEG_SHIFT` is the 128-byte segment of an L1/L2 access.
pub(crate) const SEG_SHIFT: u32 = TRANSACTION_BYTES.trailing_zeros();

/// `addr >> TEX_SEG_SHIFT` is the 32-byte segment of a texture access.
pub(crate) const TEX_SEG_SHIFT: u32 = TEX_TRANSACTION_BYTES.trailing_zeros();

/// Keys a set holds in place. A coalesced warp access touches 1–8 segments,
/// so the common case never leaves the struct (128 bytes with 11 keys); the
/// lane path keeps one set per access slot and kind, and a kernel looping
/// over thousands of accesses per lane opens thousands of them.
const INLINE_KEYS: usize = 11;

/// Keys a backward step is looked up among. A warp of scalar accesses
/// touches at most 32 segments (64 when every element straddles a
/// boundary); only multi-segment elements go past it, and those are sorted
/// out once per access instead.
const LOOKUP_KEYS: usize = 64;

/// How many of the looked-up keys live in `more`.
const LOOKUP_MORE: usize = LOOKUP_KEYS - INLINE_KEYS;

/// Distinct-segment counter for one warp access.
pub(crate) struct SegSet {
    /// Largest segment seen; meaningful once `n_inline > 0`.
    hi: u64,
    n_inline: u32,
    /// The first distinct segments, in arrival order.
    inline: [u64; INLINE_KEYS],
    /// The distinct segments after those, up to `LOOKUP_KEYS` in all; then
    /// the spill: segments not among the looked-up keys, which may repeat
    /// one another until [`SegSet::count`] sorts them out. Keeps its
    /// capacity across clears.
    more: Vec<u64>,
}

const _: () = assert!(std::mem::size_of::<SegSet>() == 128);

impl SegSet {
    pub(crate) const fn new() -> SegSet {
        SegSet {
            hi: 0,
            n_inline: 0,
            inline: [0; INLINE_KEYS],
            more: Vec::new(),
        }
    }

    pub(crate) fn clear(&mut self) {
        self.n_inline = 0;
        self.more.clear();
    }

    /// Adds the segments of a `bytes`-long element at `addr`.
    #[inline]
    pub(crate) fn touch(&mut self, addr: u64, bytes: u64, shift: u32) {
        let first = addr >> shift;
        let last = (addr + bytes - 1) >> shift;
        self.insert(first);
        for seg in first + 1..=last {
            self.insert(seg);
        }
    }

    #[inline]
    fn insert(&mut self, seg: u64) {
        if self.n_inline == 0 || seg > self.hi {
            self.hi = seg;
            self.push(seg);
        } else if seg != self.hi && !self.holds(seg) {
            self.push(seg);
        }
    }

    #[inline]
    fn holds(&self, seg: u64) -> bool {
        self.inline[..self.n_inline as usize].contains(&seg)
            || self.more[..self.more.len().min(LOOKUP_MORE)].contains(&seg)
    }

    #[inline]
    fn push(&mut self, seg: u64) {
        if (self.n_inline as usize) < INLINE_KEYS {
            self.inline[self.n_inline as usize] = seg;
            self.n_inline += 1;
        } else {
            self.more.push(seg);
        }
    }

    /// Distinct segments seen since the last clear.
    pub(crate) fn count(&mut self) -> u64 {
        let mut count = self.n_inline as usize + self.more.len().min(LOOKUP_MORE);
        if let Some(spill) = self.more.get_mut(LOOKUP_MORE..) {
            spill.sort_unstable();
            count += spill.chunk_by(|a, b| a == b).count();
        }
        count as u64
    }
}

/// Transactions of `count` consecutive `elem_bytes`-long elements starting
/// at `addr`, thread `t` touching element `t`: each warp's 32 elements are
/// one contiguous byte range, which covers every segment between its first
/// and its last byte.
pub(crate) fn range_transactions(addr: u64, count: usize, elem_bytes: u64, shift: u32) -> u64 {
    let warp_bytes = crate::WARP_SIZE as u64 * elem_bytes;
    let end = addr + count as u64 * elem_bytes;
    let mut tx = 0;
    let mut lo = addr;
    while lo < end {
        let hi = end.min(lo + warp_bytes);
        tx += ((hi - 1) >> shift) - (lo >> shift) + 1;
        lo = hi;
    }
    tx
}

/// The rule as it was first written — collect every touched segment of one
/// warp access, sort, dedup, count — kept as the oracle the streaming count
/// is tested against.
#[cfg(test)]
pub(crate) fn reference_count(accesses: impl Iterator<Item = (u64, u64)>, granularity: u64) -> u64 {
    let mut segs = Vec::new();
    for (addr, bytes) in accesses {
        let first = addr / granularity;
        let last = (addr + bytes - 1) / granularity;
        for s in first..=last {
            segs.push(s);
        }
    }
    segs.sort_unstable();
    segs.dedup();
    segs.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(accesses: &[(u64, u64)], shift: u32) -> u64 {
        let mut set = SegSet::new();
        for &(addr, bytes) in accesses {
            set.touch(addr, bytes, shift);
        }
        set.count()
    }

    #[test]
    fn shifts_match_the_transaction_sizes() {
        assert_eq!(1u64 << SEG_SHIFT, TRANSACTION_BYTES);
        assert_eq!(1u64 << TEX_SEG_SHIFT, TEX_TRANSACTION_BYTES);
    }

    #[test]
    fn repeats_of_the_running_maximum_are_not_recounted() {
        // Segment 3 three times, then 4, then 4 again.
        let acc = [(384, 8), (392, 8), (400, 8), (512, 8), (520, 8)];
        assert_eq!(count(&acc, SEG_SHIFT), 2);
    }

    #[test]
    fn backward_steps_are_looked_up() {
        // 5, 9, 5, 7, 9, 7: three distinct.
        let acc = [5u64, 9, 5, 7, 9, 7].map(|s| (s * 128, 4));
        assert_eq!(count(&acc, SEG_SHIFT), 3);
    }

    #[test]
    fn segment_zero_is_counted() {
        assert_eq!(count(&[(0, 8), (8, 8)], SEG_SHIFT), 1);
    }

    #[test]
    fn spill_path_stays_exact() {
        // 32 elements of 288 B from an unaligned base, visited backwards
        // and then once more forwards: > 64 keys with repeats in the spill.
        let elems: Vec<(u64, u64)> = (0..32u64).map(|t| (100 + t * 288, 288)).collect();
        let mut acc: Vec<(u64, u64)> = elems.iter().rev().copied().collect();
        acc.extend(elems.iter().copied());
        let want = reference_count(acc.iter().copied(), TRANSACTION_BYTES);
        assert!(want > LOOKUP_KEYS as u64);
        assert_eq!(count(&acc, SEG_SHIFT), want);
    }

    #[test]
    fn clear_forgets_the_running_maximum() {
        let mut set = SegSet::new();
        set.touch(1 << 20, 8, SEG_SHIFT);
        assert_eq!(set.count(), 1);
        set.clear();
        assert_eq!(set.count(), 0);
        // A smaller segment than the previous maximum is new again.
        set.touch(128, 8, SEG_SHIFT);
        assert_eq!(set.count(), 1);
    }

    #[test]
    fn contiguous_ranges_are_closed_form() {
        for elem_bytes in [1u64, 4, 8, 48, 288] {
            for addr in [0u64, 4096, 4096 + 24, 100] {
                for count in [0usize, 1, 5, 31, 32, 33, 100, 256] {
                    let want: u64 = (0..count)
                        .step_by(crate::WARP_SIZE)
                        .map(|t0| {
                            let m = crate::WARP_SIZE.min(count - t0);
                            reference_count(
                                (t0..t0 + m).map(|t| (addr + t as u64 * elem_bytes, elem_bytes)),
                                TRANSACTION_BYTES,
                            )
                        })
                        .sum();
                    assert_eq!(
                        range_transactions(addr, count, elem_bytes, SEG_SHIFT),
                        want,
                        "{elem_bytes} B x {count} at {addr}"
                    );
                }
            }
        }
    }
}
