//! HSBCSR — *half slice block compressed sparse row* format (§IV-B).
//!
//! The paper's storage format for the half-stored symmetric block matrix:
//!
//! * Sub-matrix data live in two arrays, `d-data` (diagonal sub-matrices)
//!   and `nd-data-up` (strict upper triangle), with identical layout
//!   (Fig 6): the 6×6 sub-matrices are **sliced by local row**; slice `r`
//!   holds row `r` of every sub-matrix. The sort priority is slice number,
//!   then global row, then global column. Each slice is padded to a
//!   multiple of 32 sub-matrices so that 32 consecutive threads reading the
//!   same `(slice, local column)` hit consecutive, 128-byte-aligned
//!   addresses — perfectly coalesced.
//! * Four index arrays describe the non-diagonal structure (Fig 7):
//!   `rc` packs each upper sub-matrix's `(row, col)`; `row-up-i[i]` is the
//!   end position of row `i` in the upper listing; `row-low-i[i]` is the
//!   end position of row `i` in the (virtual, transposed) lower listing;
//!   and `row-low-p[k] = j` maps the `k`-th lower entry to its transposed
//!   source at position `j` in `nd-data-up`.
//!
//! The matrix is never recovered to full storage: the two-stage SpMV in
//! [`crate::spmv::hsbcsr`] multiplies each stored sub-matrix by both the
//! upper and the lower vector chunk and reduces per row.

use crate::block6::Block6;
use crate::scalar::Scalar;
use crate::sym::SymBlockMatrix;
use serde::{Deserialize, Serialize};

/// Slice padding granularity: "the length of one slice is a multiple of 32
/// to satisfy the alignment condition of the GPU's global memory access."
pub const SLICE_ALIGN: usize = 32;

/// The HSBCSR matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hsbcsr {
    /// Number of block rows.
    pub n: usize,
    /// Number of stored (upper) non-diagonal sub-matrices.
    pub n_nd: usize,
    /// Diagonal sub-matrix count padded to [`SLICE_ALIGN`].
    pub pad_d: usize,
    /// Non-diagonal sub-matrix count padded to [`SLICE_ALIGN`].
    pub pad_nd: usize,
    /// Diagonal data, sliced layout, length `36 * pad_d`.
    pub d_data: Vec<f64>,
    /// Upper-triangle data, sliced layout, length `36 * pad_nd`.
    pub nd_data_up: Vec<f64>,
    /// Packed `(row << 32) | col` per upper sub-matrix, in storage order.
    pub rc: Vec<u64>,
    /// End position (exclusive) of each block row in the upper listing.
    pub row_up_i: Vec<u32>,
    /// End position (exclusive) of each block row in the lower listing.
    pub row_low_i: Vec<u32>,
    /// For the `k`-th lower entry, the position of its transposed source in
    /// the upper listing.
    pub row_low_p: Vec<u32>,
}

/// Single-precision shadow of an [`Hsbcsr`]'s value arrays.
///
/// The mixed-precision solver streams matrix values as fp32 (half the
/// bytes of the dominant SpMV traffic) while every accumulation stays
/// fp64. Only the two value arrays are shadowed — the symbolic structure
/// (`rc`, `row-up-i`, `row-low-i`, `row-low-p`, padding) is shared with
/// the parent format, so the shadow costs no extra index storage and is
/// refilled in the *same sweep* as the fp64 values
/// ([`Hsbcsr::refill_values_with_shadow`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Hsbcsr32 {
    /// Diagonal data, sliced layout, length `36 * pad_d`.
    pub d_data: Vec<f32>,
    /// Upper-triangle data, sliced layout, length `36 * pad_nd`.
    pub nd_data_up: Vec<f32>,
}

impl Hsbcsr32 {
    /// An empty shadow; arrays grow on first refill and are reused after.
    pub fn new() -> Hsbcsr32 {
        Hsbcsr32::default()
    }

    /// Rebuilds the shadow by demoting `h`'s value arrays (used after a
    /// full symbolic rebuild; the steady-state path is the fused sweep in
    /// [`Hsbcsr::refill_values_with_shadow`]). Reuses capacity once warm.
    pub fn refill_from(&mut self, h: &Hsbcsr) {
        self.d_data.clear();
        self.d_data.extend(h.d_data.iter().map(|&v| v as f32));
        self.nd_data_up.clear();
        self.nd_data_up
            .extend(h.nd_data_up.iter().map(|&v| v as f32));
    }

    /// True when the shadow's array lengths match `h`'s layout.
    pub fn matches(&self, h: &Hsbcsr) -> bool {
        self.d_data.len() == h.d_data.len() && self.nd_data_up.len() == h.nd_data_up.len()
    }

    /// Bytes of shadowed sub-matrix data (half of [`Hsbcsr::data_bytes`]).
    pub fn data_bytes(&self) -> usize {
        (self.d_data.len() + self.nd_data_up.len()) * 4
    }
}

impl Hsbcsr {
    /// Builds the format from the canonical half-stored symmetric matrix.
    ///
    /// ```
    /// use dda_sparse::{Hsbcsr, SymBlockMatrix};
    ///
    /// let m = SymBlockMatrix::random_spd(40, 3.0, 7);
    /// let h = Hsbcsr::from_sym(&m);
    /// assert_eq!(h.n_nd, m.n_upper());
    /// assert_eq!(h.pad_d % 32, 0); // slices padded for coalescing
    /// // The format multiplies without recovering the full matrix:
    /// let x = vec![1.0; m.dim()];
    /// let y = h.mul_vec_serial(&x);
    /// let y_ref = m.mul_vec(&x);
    /// assert!((y[0] - y_ref[0]).abs() < 1e-9);
    /// ```
    pub fn from_sym(m: &SymBlockMatrix) -> Hsbcsr {
        let n = m.n_blocks();
        let n_nd = m.n_upper();
        let pad_d = pad(n.max(1));
        let pad_nd = pad(n_nd.max(1));

        // Diagonal data: sub-matrix i at slot i, sliced by local row.
        let mut d_data = vec![0.0f64; 36 * pad_d];
        for (i, b) in m.diag.iter().enumerate() {
            write_sliced(&mut d_data, pad_d, i, b);
        }

        // Upper data: m.upper is already sorted by (row, col) — the format's
        // required order.
        let mut nd_data_up = vec![0.0f64; 36 * pad_nd];
        let mut rc = Vec::with_capacity(n_nd);
        for (k, &(r, c, ref b)) in m.upper.iter().enumerate() {
            write_sliced(&mut nd_data_up, pad_nd, k, b);
            rc.push(((r as u64) << 32) | c as u64);
        }

        // row-up-i: end of each row's run in the (row, col)-sorted listing.
        let mut row_up_i = vec![0u32; n];
        {
            let mut counts = vec![0u32; n];
            for &(r, _, _) in &m.upper {
                counts[r as usize] += 1;
            }
            let mut acc = 0u32;
            for i in 0..n {
                acc += counts[i];
                row_up_i[i] = acc;
            }
        }

        // Lower listing: entries (c, r) for each upper (r, c), sorted by
        // (c, r). Because the upper listing is sorted by (r, c), sorting the
        // same entries by (c, r) gives the lower traversal order; row-low-p
        // maps back to the source position.
        let mut low: Vec<(u32, u32, u32)> = m
            .upper
            .iter()
            .enumerate()
            .map(|(k, &(r, c, _))| (c, r, k as u32))
            .collect();
        low.sort_by_key(|&(lr, lc, _)| (lr, lc));
        let row_low_p: Vec<u32> = low.iter().map(|&(_, _, k)| k).collect();
        let mut row_low_i = vec![0u32; n];
        {
            let mut counts = vec![0u32; n];
            for &(lr, _, _) in &low {
                counts[lr as usize] += 1;
            }
            let mut acc = 0u32;
            for i in 0..n {
                acc += counts[i];
                row_low_i[i] = acc;
            }
        }

        Hsbcsr {
            n,
            n_nd,
            pad_d,
            pad_nd,
            d_data,
            nd_data_up,
            rc,
            row_up_i,
            row_low_i,
            row_low_p,
        }
    }

    /// Flat index of `(local row r, local col c)` of sub-matrix `slot` in a
    /// sliced array padded to `pad` sub-matrices.
    #[inline]
    pub fn sliced_index(pad: usize, slot: usize, r: usize, c: usize) -> usize {
        r * 6 * pad + c * pad + slot
    }

    /// Entry `(r, c)` of the `k`-th upper sub-matrix.
    #[inline]
    pub fn nd_entry(&self, k: usize, r: usize, c: usize) -> f64 {
        self.nd_data_up[Self::sliced_index(self.pad_nd, k, r, c)]
    }

    /// Entry `(r, c)` of the `i`-th diagonal sub-matrix.
    #[inline]
    pub fn d_entry(&self, i: usize, r: usize, c: usize) -> f64 {
        self.d_data[Self::sliced_index(self.pad_d, i, r, c)]
    }

    /// Block row of the `k`-th upper sub-matrix.
    #[inline]
    pub fn row_of(&self, k: usize) -> u32 {
        (self.rc[k] >> 32) as u32
    }

    /// Block column of the `k`-th upper sub-matrix.
    #[inline]
    pub fn col_of(&self, k: usize) -> u32 {
        (self.rc[k] & 0xFFFF_FFFF) as u32
    }

    /// Reconstructs the `k`-th upper sub-matrix (tests / diagnostics).
    pub fn nd_block(&self, k: usize) -> Block6 {
        let mut b = Block6::ZERO;
        for r in 0..6 {
            for c in 0..6 {
                b.0[r][c] = self.nd_entry(k, r, c);
            }
        }
        b
    }

    /// Serial SpMV walking the format exactly as the GPU kernels do
    /// (stage 1 per-sub-matrix products, stage 2 per-row reductions) — the
    /// format-correctness reference, independent of the simulator.
    pub fn mul_vec_serial(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n * 6);
        let mut up_res = vec![0.0f64; self.n_nd * 6];
        let mut low_res = vec![0.0f64; self.n_nd * 6];

        // Stage 1.
        for k in 0..self.n_nd {
            let row = self.row_of(k) as usize;
            let col = self.col_of(k) as usize;
            for r in 0..6 {
                let mut up = 0.0;
                for c in 0..6 {
                    let a = self.nd_entry(k, r, c);
                    up += a * x[col * 6 + c];
                    low_res[k * 6 + c] += a * x[row * 6 + r];
                }
                up_res[k * 6 + r] = up;
            }
        }

        // Stage 2 + diagonal.
        let mut y = vec![0.0f64; self.n * 6];
        for i in 0..self.n {
            // Upper reduction: contiguous run of this row's sub-matrices.
            let lo = if i == 0 { 0 } else { self.row_up_i[i - 1] } as usize;
            let hi = self.row_up_i[i] as usize;
            for k in lo..hi {
                for r in 0..6 {
                    y[i * 6 + r] += up_res[k * 6 + r];
                }
            }
            // Lower reduction: scattered via row-low-p.
            let llo = if i == 0 { 0 } else { self.row_low_i[i - 1] } as usize;
            let lhi = self.row_low_i[i] as usize;
            for l in llo..lhi {
                let k = self.row_low_p[l] as usize;
                for r in 0..6 {
                    y[i * 6 + r] += low_res[k * 6 + r];
                }
            }
            // Diagonal.
            for r in 0..6 {
                let mut acc = 0.0;
                for c in 0..6 {
                    acc += self.d_entry(i, r, c) * x[i * 6 + c];
                }
                y[i * 6 + r] += acc;
            }
        }
        y
    }

    /// Bytes of sub-matrix data including slice padding.
    pub fn data_bytes(&self) -> usize {
        (self.d_data.len() + self.nd_data_up.len()) * 8
    }

    /// Refills the numeric values from `m`, reusing the symbolic structure
    /// (index arrays, padding, slice layout) built by [`Hsbcsr::from_sym`].
    ///
    /// Succeeds — and returns `true` — only when `m` has exactly the
    /// sparsity pattern this format was built for (same block count, same
    /// upper `(row, col)` listing in the same order). Otherwise returns
    /// `false` **without modifying `self`**, and the caller rebuilds with
    /// `from_sym`. In the DDA open–close loop the contact pattern is
    /// usually stable between iterations, so the solver refreshes values
    /// only instead of re-deriving `rc` / `row-up-i` / `row-low-i` /
    /// `row-low-p` every solve.
    pub fn refill_values(&mut self, m: &SymBlockMatrix) -> bool {
        self.refill_impl(m, None)
    }

    /// [`Hsbcsr::refill_values`] that additionally refreshes the fp32
    /// `shadow` *in the same sweep*: each 6×6 block is read once and
    /// written to both precisions, so keeping the shadow warm adds zero
    /// extra passes over the matrix (and, once the shadow's capacity is
    /// grown, zero allocations). Same pattern-match contract: on `false`
    /// neither `self` nor `shadow` is modified.
    pub fn refill_values_with_shadow(&mut self, m: &SymBlockMatrix, shadow: &mut Hsbcsr32) -> bool {
        self.refill_impl(m, Some(shadow))
    }

    fn refill_impl(&mut self, m: &SymBlockMatrix, mut shadow: Option<&mut Hsbcsr32>) -> bool {
        if m.n_blocks() != self.n || m.n_upper() != self.n_nd {
            return false;
        }
        // Pattern check first — no partial writes on mismatch.
        for (k, &(r, c, _)) in m.upper.iter().enumerate() {
            if self.rc[k] != ((r as u64) << 32) | c as u64 {
                return false;
            }
        }
        if let Some(sh) = shadow.as_deref_mut() {
            sh.d_data.resize(self.d_data.len(), 0.0);
            sh.nd_data_up.resize(self.nd_data_up.len(), 0.0);
        }
        // One sweep: each block is written to every precision while hot.
        for (i, b) in m.diag.iter().enumerate() {
            write_sliced(&mut self.d_data, self.pad_d, i, b);
            if let Some(sh) = shadow.as_deref_mut() {
                write_sliced(&mut sh.d_data, self.pad_d, i, b);
            }
        }
        for (k, (_, _, b)) in m.upper.iter().enumerate() {
            write_sliced(&mut self.nd_data_up, self.pad_nd, k, b);
            if let Some(sh) = shadow.as_deref_mut() {
                write_sliced(&mut sh.nd_data_up, self.pad_nd, k, b);
            }
        }
        true
    }
}

fn pad(n: usize) -> usize {
    n.div_ceil(SLICE_ALIGN) * SLICE_ALIGN
}

fn write_sliced<S: Scalar>(data: &mut [S], pad: usize, slot: usize, b: &Block6) {
    for r in 0..6 {
        for c in 0..6 {
            data[Hsbcsr::sliced_index(pad, slot, r, c)] = S::narrow(b.0[r][c]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: usize, seed: u64) -> SymBlockMatrix {
        SymBlockMatrix::random_spd(n, 3.5, seed)
    }

    #[test]
    fn padding_is_32_aligned() {
        let m = sym(45, 3);
        let h = Hsbcsr::from_sym(&m);
        assert_eq!(h.pad_d % SLICE_ALIGN, 0);
        assert_eq!(h.pad_nd % SLICE_ALIGN, 0);
        assert!(h.pad_d >= h.n);
        assert!(h.pad_nd >= h.n_nd);
        assert_eq!(h.d_data.len(), 36 * h.pad_d);
        assert_eq!(h.nd_data_up.len(), 36 * h.pad_nd);
    }

    #[test]
    fn sliced_layout_roundtrip() {
        let m = sym(10, 9);
        let h = Hsbcsr::from_sym(&m);
        for (k, (_, _, b)) in m.upper.iter().enumerate() {
            assert_eq!(h.nd_block(k), *b, "sub-matrix {k}");
        }
        for (i, d) in m.diag.iter().enumerate() {
            for r in 0..6 {
                for c in 0..6 {
                    assert_eq!(h.d_entry(i, r, c), d.0[r][c]);
                }
            }
        }
    }

    #[test]
    fn slice_is_column_contiguous_across_submatrices() {
        // The whole point of the layout: entry (r, c) of consecutive
        // sub-matrices are adjacent in memory.
        let m = sym(40, 11);
        let h = Hsbcsr::from_sym(&m);
        let i0 = Hsbcsr::sliced_index(h.pad_nd, 0, 3, 2);
        let i1 = Hsbcsr::sliced_index(h.pad_nd, 1, 3, 2);
        assert_eq!(i1, i0 + 1);
        // The next slice (local row) starts a 6·pad_nd stride later.
        let j0 = Hsbcsr::sliced_index(h.pad_nd, 0, 4, 2);
        assert_eq!(j0 - i0, 6 * h.pad_nd);
    }

    #[test]
    fn rc_and_row_indices_consistent() {
        let m = sym(30, 17);
        let h = Hsbcsr::from_sym(&m);
        assert_eq!(h.rc.len(), m.n_upper());
        // Upper listing sorted by (row, col) and row_up_i delimits rows.
        for k in 0..h.n_nd {
            let r = h.row_of(k) as usize;
            let lo = if r == 0 { 0 } else { h.row_up_i[r - 1] } as usize;
            let hi = h.row_up_i[r] as usize;
            assert!(lo <= k && k < hi, "entry {k} outside its row range");
            assert!(h.row_of(k) < h.col_of(k));
        }
        assert_eq!(h.row_up_i[h.n - 1] as usize, h.n_nd);
    }

    #[test]
    fn row_low_p_maps_to_transposed_entries() {
        let m = sym(30, 23);
        let h = Hsbcsr::from_sym(&m);
        assert_eq!(h.row_low_p.len(), h.n_nd);
        assert_eq!(h.row_low_i[h.n - 1] as usize, h.n_nd);
        // For lower row i, every mapped source has col == i.
        for i in 0..h.n {
            let lo = if i == 0 { 0 } else { h.row_low_i[i - 1] } as usize;
            let hi = h.row_low_i[i] as usize;
            for l in lo..hi {
                let k = h.row_low_p[l] as usize;
                assert_eq!(h.col_of(k) as usize, i, "lower entry {l} of row {i}");
            }
        }
        // row_low_p is a permutation.
        let mut seen = vec![false; h.n_nd];
        for &p in &h.row_low_p {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    #[test]
    fn serial_spmv_matches_reference() {
        for seed in [1u64, 2, 3] {
            let m = sym(25, seed);
            let h = Hsbcsr::from_sym(&m);
            let x: Vec<f64> = (0..m.dim())
                .map(|i| ((i * 31 + 7) % 17) as f64 - 8.0)
                .collect();
            let y_ref = m.mul_vec(&x);
            let y = h.mul_vec_serial(&x);
            for i in 0..m.dim() {
                assert!((y[i] - y_ref[i]).abs() < 1e-9, "seed {seed} i={i}");
            }
        }
    }

    #[test]
    fn empty_upper_triangle() {
        let m = SymBlockMatrix::new(vec![Block6::identity().scale(3.0); 5], vec![]);
        let h = Hsbcsr::from_sym(&m);
        assert_eq!(h.n_nd, 0);
        let x = vec![2.0; 30];
        let y = h.mul_vec_serial(&x);
        assert!(y.iter().all(|&v| (v - 6.0).abs() < 1e-15));
    }

    #[test]
    fn refill_matches_fresh_from_sym() {
        let m1 = sym(30, 41);
        // Same sparsity pattern, different values.
        let mut m2 = m1.clone();
        for b in &mut m2.diag {
            *b = b.scale(1.5);
        }
        for (_, _, b) in &mut m2.upper {
            *b = b.scale(0.25);
        }
        let mut h = Hsbcsr::from_sym(&m1);
        assert!(h.refill_values(&m2));
        let fresh = Hsbcsr::from_sym(&m2);
        assert_eq!(h, fresh, "refilled format must equal a fresh build");
        let x: Vec<f64> = (0..m2.dim()).map(|i| (i as f64 * 0.31).cos()).collect();
        assert_eq!(h.mul_vec_serial(&x), fresh.mul_vec_serial(&x));
    }

    #[test]
    fn refill_rejects_pattern_change_without_partial_writes() {
        let m1 = sym(20, 5);
        let mut h = Hsbcsr::from_sym(&m1);
        let before = h.clone();
        // Different block count.
        assert!(!h.refill_values(&sym(21, 5)));
        // Same size, different pattern (different seed ⇒ different contacts).
        let m3 = sym(20, 6);
        if m3.upper.iter().map(|&(r, c, _)| (r, c)).collect::<Vec<_>>()
            != m1.upper.iter().map(|&(r, c, _)| (r, c)).collect::<Vec<_>>()
        {
            assert!(!h.refill_values(&m3));
        }
        assert_eq!(h, before, "failed refill must leave the format untouched");
    }

    #[test]
    fn shadow_refill_matches_full_demotion() {
        let m1 = sym(25, 51);
        let mut m2 = m1.clone();
        for b in &mut m2.diag {
            *b = b.scale(1.0 + 1.0 / 3.0);
        }
        let mut h = Hsbcsr::from_sym(&m1);
        let mut sh = Hsbcsr32::new();
        assert!(h.refill_values_with_shadow(&m2, &mut sh));
        // The fused sweep must equal a from-scratch demotion of the fp64
        // arrays it wrote.
        let mut fresh = Hsbcsr32::new();
        fresh.refill_from(&h);
        assert_eq!(sh, fresh, "fused shadow refill must equal full demotion");
        assert!(sh.matches(&h));
        assert_eq!(sh.data_bytes() * 2, h.data_bytes());
        // And the fp64 side is untouched by the fusion.
        let mut h_plain = Hsbcsr::from_sym(&m1);
        assert!(h_plain.refill_values(&m2));
        assert_eq!(h, h_plain);
    }

    #[test]
    fn shadow_refill_rejects_pattern_change_without_partial_writes() {
        let m1 = sym(20, 7);
        let mut h = Hsbcsr::from_sym(&m1);
        let mut sh = Hsbcsr32::new();
        assert!(h.refill_values_with_shadow(&m1, &mut sh));
        let h_before = h.clone();
        let sh_before = sh.clone();
        assert!(!h.refill_values_with_shadow(&sym(21, 7), &mut sh));
        assert_eq!(h, h_before);
        assert_eq!(sh, sh_before, "failed refill must leave the shadow intact");
    }

    #[test]
    fn paper_case1_scale_counts() {
        // The paper's Fig 10 matrix: 4361 diagonal and 18731 non-diagonal
        // sub-matrices. Verify the format's memory layout at that scale.
        let n = 4361;
        let m = sym(n, 99);
        let h = Hsbcsr::from_sym(&m);
        assert_eq!(h.n, n);
        assert_eq!(h.pad_d, 4384); // 4361 → next multiple of 32
        assert!(h.data_bytes() > 36 * 8 * n);
    }
}
