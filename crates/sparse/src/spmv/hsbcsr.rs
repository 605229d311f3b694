//! The paper's two-stage HSBCSR SpMV (§IV-B, Figs 8–9).
//!
//! **Stage 1** — one thread per stored upper sub-matrix: the thread streams
//! its 36 entries *slice by slice*; because slice storage interleaves
//! sub-matrices (entry `(r,c)` of consecutive sub-matrices are adjacent),
//! the warp's loads are perfectly coalesced. Each entry multiplies both the
//! upper vector chunk (`A_ij · x_j` → `up-res`) and, transposed, the lower
//! chunk (`A_ijᵀ · x_i` → `low-res`); the vector gathers go through the
//! texture path. The per-sub-matrix reduction uses the Fig-8 shared-memory
//! scheme in which concurrent threads walk different banks
//! ([`Stage1Smem::Proposed`]); the naive row-major walk
//! ([`Stage1Smem::NaiveRowMajor`]) is kept for the Fig-8/9 ablation.
//!
//! **Stage 2** — per-row reductions: the `up-res` segments of a row are
//! contiguous ("regular and fast", loaded coalesced by 48-thread groups in
//! the paper), while `low-res` entries are scattered and fetched through
//! the texture cache via the `row-low-p` mapping (Fig 9). The diagonal
//! product is fused here; its sliced layout again loads coalesced.
//!
//! **Folded direction update** — the PCG iteration's `p ← z + βp` need not
//! be a launch of its own: [`spmv_hsbcsr_folded_pq`] reads `z`, the old `p`
//! and the device scalar `β`, and both stages form `p` where they load it
//! (stage 1 per vector chunk, stage 2 per row); stage 2 stores the new `p`
//! of its own rows, which no other block of that launch reads.

use crate::hsbcsr::{Hsbcsr, Hsbcsr32};
use crate::scalar::{Scalar, Scratch};
use dda_simt::{Device, Lane};

/// Shared-memory access pattern for the stage-1 sub-matrix reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage1Smem {
    /// The paper's Fig-8 scheme: threads access different banks every step —
    /// conflict-free.
    Proposed,
    /// Natural row-major 6×6 tile walk: stride-6 bank pattern with 2-way
    /// conflicts (the ablation baseline).
    NaiveRowMajor,
}

/// Rows reduced per stage-2 thread block.
const ROWS_PER_BLOCK: usize = 32;

/// Reusable buffers for [`spmv_hsbcsr_into`]: the `up-res` / `low-res`
/// intermediate vectors (stored as `S`, like the vectors they stage) and
/// the per-row-block `p·q` partials of the fused variant. Holding one
/// workspace across calls makes the steady-state SpMV path allocation-free
/// (per-block gather scratch is per-host-thread and equally reused).
#[derive(Debug, Default)]
pub struct SpmvWorkspace<S: Scalar = f64> {
    up_res: Vec<S>,
    low_res: Vec<S>,
    /// One partial sum of `x·y` per stage-2 row block, filled by
    /// [`spmv_hsbcsr_fused_pq`]. Always fp64.
    pub pq_partials: Vec<f64>,
}

impl<S: Scalar> SpmvWorkspace<S> {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> SpmvWorkspace<S> {
        SpmvWorkspace::default()
    }
}

/// `y = A x` with `A` in HSBCSR form. Never materialises the full matrix.
///
/// Convenience wrapper over [`spmv_hsbcsr_into`] that allocates the result
/// and a throwaway workspace; the hot loop uses the `_into` form.
pub fn spmv_hsbcsr(dev: &Device, h: &Hsbcsr, x: &[f64], scheme: Stage1Smem) -> Vec<f64> {
    let mut ws = SpmvWorkspace::new();
    let mut y = vec![0.0f64; h.n * 6];
    spmv_hsbcsr_into(dev, h, x, scheme, &mut ws, &mut y);
    y
}

/// Allocation-free `y = A x`: intermediates live in `ws`, the result lands
/// in `y` (length `6n`). Bitwise-identical to [`spmv_hsbcsr`].
pub fn spmv_hsbcsr_into(
    dev: &Device,
    h: &Hsbcsr,
    x: &[f64],
    scheme: Stage1Smem,
    ws: &mut SpmvWorkspace,
    y: &mut [f64],
) {
    let input = Input::Stored(x);
    spmv_hsbcsr_stage12(
        dev,
        h,
        &h.d_data,
        &h.nd_data_up,
        input,
        scheme,
        ws,
        y,
        false,
    );
}

/// Fused SpMV + dot: computes `y = A x` and, in the same stage-2 launch,
/// one partial sum of `x · y` per row block into `ws.pq_partials` — the
/// per-block tiles the fused PCG's next kernel reduces to `α` without a
/// separate dot launch. `y` is bitwise-identical to [`spmv_hsbcsr`]; the
/// dot partials tile by row block (192 scalars) instead of the unfused
/// 256-tile `vec.dot` grouping, a reassociation documented to drift ≤1e-12
/// relative on DDA-scale systems.
pub fn spmv_hsbcsr_fused_pq(
    dev: &Device,
    h: &Hsbcsr,
    x: &[f64],
    scheme: Stage1Smem,
    ws: &mut SpmvWorkspace,
    y: &mut [f64],
) {
    let input = Input::Stored(x);
    spmv_hsbcsr_stage12(dev, h, &h.d_data, &h.nd_data_up, input, scheme, ws, y, true);
}

/// The direction update `p ← z + β·p` folded into the SpMV that multiplies
/// `p`: `beta` is the device scalar a previous launch stored (element 0 is
/// read), `z` the preconditioned residual.
#[derive(Debug, Clone, Copy)]
pub struct Fold<'a, S> {
    /// The preconditioned residual.
    pub z: &'a [S],
    /// Device scalar holding `β` at index 0.
    pub beta: &'a [f64],
}

/// [`spmv_hsbcsr_fused_pq`] on the new direction: `p ← z + β·p`, then
/// `y = A p` and the `p·y` partials, in the same two launches. Every `p`
/// the stages multiply is rounded exactly as a stored `p` would be, so `p`,
/// `y` and the partials are bitwise those of the unfolded `xpby` followed
/// by [`spmv_hsbcsr_fused_pq`].
pub fn spmv_hsbcsr_folded_pq(
    dev: &Device,
    h: &Hsbcsr,
    fold: Fold<'_, f64>,
    p: &mut [f64],
    scheme: Stage1Smem,
    ws: &mut SpmvWorkspace,
    y: &mut [f64],
) {
    let input = Input::Folded(fold, p);
    spmv_hsbcsr_stage12(dev, h, &h.d_data, &h.nd_data_up, input, scheme, ws, y, true);
}

/// Fully-fp32 `y = A x` for the mixed solver's inner loop: matrix values
/// (the shadow `vals` of `h`) *and* vectors (input, output, and the stage-1
/// staging arrays) stream at fp32, so every non-index byte of the SpMV's
/// global traffic is halved. All products and reductions still accumulate
/// in fp64; each store rounds once. With `fuse_pq` the stage-2 launch also
/// writes the fp64 per-row-block `x·y` partials into `ws.pq_partials`, as
/// [`spmv_hsbcsr_fused_pq`] does.
#[deny(clippy::float_cmp)]
#[allow(clippy::too_many_arguments)]
pub fn spmv_hsbcsr_f32(
    dev: &Device,
    h: &Hsbcsr,
    vals: &Hsbcsr32,
    x: &[f32],
    scheme: Stage1Smem,
    ws: &mut SpmvWorkspace<f32>,
    y: &mut [f32],
    fuse_pq: bool,
) {
    assert!(vals.matches(h), "fp32 shadow out of sync with the format");
    let (d, nd) = (&vals.d_data, &vals.nd_data_up);
    spmv_hsbcsr_stage12(dev, h, d, nd, Input::Stored(x), scheme, ws, y, fuse_pq);
}

/// [`spmv_hsbcsr_folded_pq`] on the fp32 shadow, as [`spmv_hsbcsr_f32`]
/// with `fuse_pq`.
#[allow(clippy::too_many_arguments)]
pub fn spmv_hsbcsr_f32_folded_pq(
    dev: &Device,
    h: &Hsbcsr,
    vals: &Hsbcsr32,
    fold: Fold<'_, f32>,
    p: &mut [f32],
    scheme: Stage1Smem,
    ws: &mut SpmvWorkspace<f32>,
    y: &mut [f32],
) {
    assert!(vals.matches(h), "fp32 shadow out of sync with the format");
    let (d, nd) = (&vals.d_data, &vals.nd_data_up);
    let input = Input::Folded(fold, p);
    spmv_hsbcsr_stage12(dev, h, d, nd, input, scheme, ws, y, true);
}

/// The vector an SpMV multiplies.
enum Input<'a, S> {
    /// `x` as stored.
    Stored(&'a [S]),
    /// `z + β·p`, formed on load; stage 2 stores it over `p`.
    Folded(Fold<'a, S>, &'a mut [S]),
}

/// `z + β·p`, rounded once as the stored direction element is.
#[inline]
fn xpby<S: Scalar>(z: S, beta: f64, p: S) -> S {
    S::narrow(z.widen() + beta * p.widen())
}

#[allow(clippy::too_many_arguments)]
fn spmv_hsbcsr_stage12<S: Scalar>(
    dev: &Device,
    h: &Hsbcsr,
    d_data: &[S],
    nd_data: &[S],
    mut input: Input<'_, S>,
    scheme: Stage1Smem,
    ws: &mut SpmvWorkspace<S>,
    y: &mut [S],
    fuse_pq: bool,
) {
    let (x, fold) = match &input {
        Input::Stored(x) => (*x, None),
        Input::Folded(fold, p) => {
            assert!(
                fuse_pq,
                "only the p·q-fused SpMV folds the direction update"
            );
            assert_eq!(fold.z.len(), p.len());
            (&**p, Some(*fold))
        }
    };
    assert_eq!(x.len(), h.n * 6);
    assert_eq!(y.len(), h.n * 6);
    let SpmvWorkspace {
        up_res,
        low_res,
        pq_partials,
    } = ws;
    // Stage 1 overwrites every element, so only the lengths matter;
    // `resize` reuses capacity once warmed.
    up_res.resize(h.n_nd * 6, S::default());
    low_res.resize(h.n_nd * 6, S::default());
    let b_fold = fold.map(|f| (dev.bind_ro(f.z), dev.bind_ro(f.beta)));

    // ---- Stage 1: per-sub-matrix products ---------------------------------
    if h.n_nd > 0 {
        let b_nd = dev.bind_ro(nd_data);
        let b_rc = dev.bind_ro(&h.rc);
        let b_x = dev.bind_ro(x);
        let b_up = dev.bind(up_res.as_mut_slice());
        let b_low = dev.bind(low_res.as_mut_slice());
        let pad = h.pad_nd;
        let nnd = h.n_nd;
        let name = if fold.is_some() {
            S::SPMV_STAGE1_XPBY
        } else {
            S::SPMV_STAGE1
        };
        dev.launch(name, h.n_nd, |lane| {
            let k = lane.gid;
            let rc = lane.ld(&b_rc, k);
            let row = (rc >> 32) as usize;
            let col = (rc & 0xFFFF_FFFF) as usize;
            let mut up = [0.0f64; 6];
            let mut low = [0.0f64; 6];
            // Both vector chunks are fetched once into registers (12 texture
            // reads per sub-matrix, not 72; 24 when each element is formed
            // from `z` and the old `p`).
            let fold = b_fold
                .as_ref()
                .map(|(b_z, b_beta)| (b_z, lane.ld(b_beta, 0)));
            let chunk = |lane: &mut Lane, i: usize| {
                let v = lane.ld_tex(&b_x, i);
                match fold {
                    Some((b_z, beta)) => {
                        let zv = lane.ld_tex(b_z, i);
                        lane.flop(2);
                        xpby(zv, beta, v).widen()
                    }
                    None => v.widen(),
                }
            };
            let mut xr = [0.0f64; 6];
            let mut xc = [0.0f64; 6];
            for r in 0..6 {
                xr[r] = chunk(lane, row * 6 + r);
                xc[r] = chunk(lane, col * 6 + r);
            }
            // Slice-by-slice traversal: for fixed (r, c), consecutive k are
            // consecutive addresses → coalesced.
            for r in 0..6 {
                for c in 0..6 {
                    let a = lane.ld(&b_nd, Hsbcsr::sliced_index(pad, k, r, c)).widen();
                    lane.flop(4);
                    up[r] += a * xc[c];
                    low[c] += a * xr[r];
                }
            }
            // Fig-8 reduction of the up results in shared memory: 6 steps,
            // each a store + load.
            for step in 0..6u32 {
                let word = match scheme {
                    Stage1Smem::Proposed => lane.lane_id, // one bank per lane
                    Stage1Smem::NaiveRowMajor => lane.lane_id * 6 + step,
                };
                lane.smem_st(word);
                lane.smem_ld(word);
                lane.flop(1);
            }
            // Results land in slice layout (r·n_nd + k): at each local row
            // the warp's stores are consecutive — the coalesced pattern the
            // paper achieves by staging in shared memory (Fig 8).
            for r in 0..6 {
                lane.st(&b_up, r * nnd + k, S::narrow(up[r]));
                lane.st(&b_low, r * nnd + k, S::narrow(low[r]));
            }
        });
    }

    // ---- Stage 2: per-row reductions + diagonal ----------------------------
    let n_blocks = h.n.div_ceil(ROWS_PER_BLOCK);
    if fuse_pq {
        pq_partials.resize(n_blocks, 0.0);
    } else {
        pq_partials.clear();
    }
    let stage2_name: &'static str = match (fuse_pq, fold.is_some()) {
        (false, _) => S::SPMV_STAGE2,
        (true, false) => S::SPMV_STAGE2_PQ,
        (true, true) => S::SPMV_STAGE2_PQ_XPBY,
    };
    {
        let b_up = dev.bind_ro(up_res.as_slice());
        let b_low = dev.bind_ro(low_res.as_slice());
        let b_rui = dev.bind_ro(&h.row_up_i);
        let b_rli = dev.bind_ro(&h.row_low_i);
        let b_rlp = dev.bind_ro(&h.row_low_p);
        let b_d = dev.bind_ro(d_data);
        // Folded, this block's rows of `p` are read and then overwritten.
        let b_x = match &mut input {
            Input::Stored(x) => dev.bind_ro(x),
            Input::Folded(_, p) => dev.bind(p),
        };
        let b_y = dev.bind(&mut *y);
        let b_pq = dev.bind(pq_partials.as_mut_slice());
        let pad_d = h.pad_d;
        let n_nd = h.n_nd.max(1);
        dev.launch_blocks(stage2_name, n_blocks, 256, |blk| {
            S::with_scratch(|scratch| {
                // The six-slice buffers serve the upper loads, then the
                // lower gathers, then the x chunk: each is reduced into
                // `acc` before the next overwrites it.
                let Scratch {
                    tiles: [s0, s1, s2, s3, s4, s5, dvals, flat],
                    acc,
                    idx: [gather, xidx],
                    words: [up_ends, low_ends, words, ps],
                    ..
                } = scratch;
                let six = [s0, s1, s2, s3, s4, s5];

                let i0 = blk.block_id * ROWS_PER_BLOCK;
                let rows = ROWS_PER_BLOCK.min(h.n - i0);
                acc.clear();
                acc.resize(rows, [0.0f64; 6]);

                // Row bounds (coalesced index loads).
                blk.gld_range_into(&b_rui, i0, rows, up_ends);
                let up_first = if i0 == 0 {
                    0
                } else {
                    blk.gld_one(&b_rui, i0 - 1)
                };
                blk.gld_range_into(&b_rli, i0, rows, low_ends);
                let low_first = if i0 == 0 {
                    0
                } else {
                    blk.gld_one(&b_rli, i0 - 1)
                };

                // Upper reduction: each slice of the chunk's up-res region is
                // contiguous ("regular and fast", Fig 9).
                let up_lo = up_first as usize;
                let up_hi = *up_ends.last().unwrap() as usize;
                if up_hi > up_lo {
                    let count = up_hi - up_lo;
                    for r in 0..6 {
                        blk.gld_range_into(&b_up, r * n_nd + up_lo, count, six[r]);
                    }
                    blk.flop_masked(count.min(256), 6);
                    // Shared-memory reduction of six-row groups (the paper's
                    // 48-thread scheme); conflict-free word pattern.
                    words.clear();
                    words.extend(0..count.min(256) as u32);
                    blk.smem_access(words);
                    let mut lo = up_lo;
                    for (w, &end) in up_ends.iter().enumerate() {
                        let hi = end as usize;
                        for k in lo..hi {
                            for r in 0..6 {
                                acc[w][r] += six[r][k - up_lo].widen();
                            }
                        }
                        lo = hi;
                    }
                }

                // Lower reduction: mapped positions, texture gathers.
                let low_lo = low_first as usize;
                let low_hi = *low_ends.last().unwrap() as usize;
                if low_hi > low_lo {
                    let count = low_hi - low_lo;
                    blk.gld_range_into(&b_rlp, low_lo, count, ps);
                    for r in 0..6 {
                        gather.clear();
                        gather.extend(ps.iter().map(|&p| r * n_nd + p as usize));
                        blk.gld_gather_tex_into(&b_low, gather, six[r]);
                    }
                    blk.flop_masked(count.min(256), 6);
                    let mut lo = low_lo;
                    for (w, &end) in low_ends.iter().enumerate() {
                        let hi = end as usize;
                        for l in lo..hi {
                            for r in 0..6 {
                                acc[w][r] += six[r][l - low_lo].widen();
                            }
                        }
                        lo = hi;
                    }
                }

                // Diagonal product: sliced layout → coalesced over rows. The x
                // chunk of the row block is fetched once per local column.
                let fold = b_fold
                    .as_ref()
                    .map(|(b_z, b_beta)| (b_z, blk.gld_one(b_beta, 0)));
                for c in 0..6 {
                    xidx.clear();
                    xidx.extend((0..rows).map(|w| (i0 + w) * 6 + c));
                    blk.gld_gather_tex_into(&b_x, xidx, six[c]);
                    if let Some((b_z, beta)) = fold {
                        // `flat` is free until the result store.
                        blk.gld_gather_tex_into(b_z, xidx, flat);
                        blk.flop_masked(rows, 2);
                        for w in 0..rows {
                            six[c][w] = xpby(flat[w], beta, six[c][w]);
                        }
                    }
                }
                if fold.is_some() {
                    // The new p of this block's rows, coalesced.
                    flat.clear();
                    flat.extend((0..rows).flat_map(|w| six.iter().map(move |s| s[w])));
                    blk.gst_range(&b_x, i0 * 6, flat);
                }
                for r in 0..6 {
                    for c in 0..6 {
                        blk.gld_range_into(
                            &b_d,
                            Hsbcsr::sliced_index(pad_d, i0, r, c),
                            rows,
                            dvals,
                        );
                        blk.flop_masked(rows, 2);
                        for w in 0..rows {
                            acc[w][r] += dvals[w].widen() * six[c][w].widen();
                        }
                    }
                }

                // Fused p·q partial: the row block's x chunk is already in
                // registers (`six`, fetched for the diagonal product), so
                // the dot costs only flops, an intra-block reduction, and one
                // scalar store — no extra global reads and no separate launch.
                if fuse_pq {
                    let mut partial = 0.0f64;
                    for w in 0..rows {
                        for r in 0..6 {
                            partial += acc[w][r] * six[r][w].widen();
                        }
                    }
                    blk.flop_masked(rows, 12);
                    blk.shfl_reduce_cost(rows.min(256), 32);
                    blk.gst_one(&b_pq, blk.block_id, partial);
                }

                // Coalesced result store.
                flat.clear();
                flat.extend(acc.iter().flat_map(|a| a.iter().map(|&v| S::narrow(v))));
                blk.gst_range(&b_y, i0 * 6, flat);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::SymBlockMatrix;
    use dda_simt::DeviceProfile;

    fn dev() -> Device {
        Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
    }

    #[test]
    fn correct_against_reference() {
        for seed in [3u64, 6, 12] {
            let m = SymBlockMatrix::random_spd(50, 4.0, seed);
            let h = Hsbcsr::from_sym(&m);
            let x: Vec<f64> = (0..m.dim())
                .map(|i| (i as f64 * 0.13).sin() * 2.0)
                .collect();
            let d = dev();
            let y = spmv_hsbcsr(&d, &h, &x, Stage1Smem::Proposed);
            let y_ref = m.mul_vec(&x);
            for i in 0..m.dim() {
                assert!((y[i] - y_ref[i]).abs() < 1e-9, "seed {seed} i={i}");
            }
        }
    }

    #[test]
    fn naive_scheme_same_result_more_conflicts() {
        let m = SymBlockMatrix::random_spd(120, 5.0, 7);
        let h = Hsbcsr::from_sym(&m);
        let x = vec![0.5; m.dim()];

        let d1 = dev();
        let y1 = spmv_hsbcsr(&d1, &h, &x, Stage1Smem::Proposed);
        let s1 = d1.trace().total_stats();

        let d2 = dev();
        let y2 = spmv_hsbcsr(&d2, &h, &x, Stage1Smem::NaiveRowMajor);
        let s2 = d2.trace().total_stats();

        assert_eq!(y1, y2);
        assert_eq!(s1.smem_replays, 0, "proposed scheme must be conflict-free");
        assert!(
            s2.smem_replays > 0,
            "row-major walk must produce bank conflicts"
        );
    }

    #[test]
    fn diagonal_only_matrix() {
        let m = SymBlockMatrix::random_spd(33, 0.0, 4);
        let h = Hsbcsr::from_sym(&m);
        assert_eq!(h.n_nd, 0);
        let x: Vec<f64> = (0..m.dim()).map(|i| i as f64).collect();
        let d = dev();
        let y = spmv_hsbcsr(&d, &h, &x, Stage1Smem::Proposed);
        let y_ref = m.mul_vec(&x);
        for i in 0..m.dim() {
            assert!((y[i] - y_ref[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn single_block_matrix() {
        let m = SymBlockMatrix::random_spd(1, 0.0, 2);
        let h = Hsbcsr::from_sym(&m);
        let x = vec![1.0; 6];
        let d = dev();
        let y = spmv_hsbcsr(&d, &h, &x, Stage1Smem::Proposed);
        let y_ref = m.mul_vec(&x);
        for i in 0..6 {
            assert!((y[i] - y_ref[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn stage1_loads_are_well_coalesced() {
        let m = SymBlockMatrix::random_spd(400, 5.0, 13);
        let h = Hsbcsr::from_sym(&m);
        let x = vec![1.0; m.dim()];
        let d = dev();
        let _ = spmv_hsbcsr(&d, &h, &x, Stage1Smem::Proposed);
        let by = d.trace().by_kernel();
        let s1 = by["spmv.hsbcsr.stage1"].0;
        // Matrix data is streamed coalesced; only the x gathers are
        // irregular (texture), which bounds the combined overfetch well
        // below the fully-scattered regime (~16× for f64).
        assert!(
            s1.overfetch() < 3.0,
            "stage-1 overfetch {} too high",
            s1.overfetch()
        );
        // The L1/L2 portion (matrix loads perfectly coalesced; the
        // stride-6 up-res/low-res stores pay some over-fetch, as on the
        // hardware) must stay well under the scattered regime.
        let l12_bytes = s1.gmem_transactions * 128;
        assert!(
            l12_bytes < 2 * s1.gmem_bytes,
            "sliced traffic too high: {l12_bytes} vs useful {}",
            s1.gmem_bytes
        );
    }

    #[test]
    fn into_variant_is_bitwise_identical_and_reusable() {
        let m = SymBlockMatrix::random_spd(60, 4.0, 31);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let mut ws = SpmvWorkspace::new();
        let mut y = vec![0.0f64; m.dim()];
        for pass in 0..3 {
            let x: Vec<f64> = (0..m.dim())
                .map(|i| ((i + pass) as f64 * 0.17).sin())
                .collect();
            spmv_hsbcsr_into(&d, &h, &x, Stage1Smem::Proposed, &mut ws, &mut y);
            let y_ref = spmv_hsbcsr(&d, &h, &x, Stage1Smem::Proposed);
            assert_eq!(y, y_ref, "pass {pass} must be bitwise identical");
        }
    }

    #[test]
    fn fused_pq_partials_reduce_to_the_dot() {
        let m = SymBlockMatrix::random_spd(70, 4.0, 8);
        let h = Hsbcsr::from_sym(&m);
        let x: Vec<f64> = (0..m.dim()).map(|i| (i as f64 * 0.29).cos()).collect();
        let d = dev();
        let mut ws = SpmvWorkspace::new();
        let mut y = vec![0.0f64; m.dim()];
        spmv_hsbcsr_fused_pq(&d, &h, &x, Stage1Smem::Proposed, &mut ws, &mut y);

        // y unchanged by the fusion.
        let y_ref = spmv_hsbcsr(&d, &h, &x, Stage1Smem::Proposed);
        assert_eq!(y, y_ref, "fusing the dot must not perturb y");

        // Partials tile by row block and sum to x·y (reassociation only).
        assert_eq!(ws.pq_partials.len(), m.dim().div_ceil(6 * ROWS_PER_BLOCK));
        let pq: f64 = ws.pq_partials.iter().sum();
        let dot_ref: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!(
            (pq - dot_ref).abs() <= 1e-12 * dot_ref.abs().max(1.0),
            "fused dot {pq} vs reference {dot_ref}"
        );

        // The fused stage 2 replaces, not adds, a launch.
        let by = d.trace().by_kernel();
        assert!(by.contains_key("spmv.hsbcsr.stage2_pq"));
    }

    #[test]
    fn folded_direction_update_is_bitwise_xpby_then_spmv() {
        // p ← z + βp folded into both stages against the stored update
        // followed by the plain p·q-fused SpMV: same p, y and partials, bit
        // for bit, for both storage types — with off-diagonal blocks and
        // without (stage 1 skipped, stage 2 alone forms p).
        for (n, density) in [(70usize, 4.0), (33, 0.0)] {
            let m = SymBlockMatrix::random_spd(n, density, 9);
            let h = Hsbcsr::from_sym(&m);
            let mut sh = Hsbcsr32::new();
            sh.refill_from(&h);
            let z: Vec<f64> = (0..m.dim()).map(|i| (i as f64 * 0.31).sin()).collect();
            let p_old: Vec<f64> = (0..m.dim()).map(|i| (i as f64 * 0.17).cos()).collect();
            let beta = [0.37];
            let scheme = Stage1Smem::Proposed;
            let d = dev();
            let mut ws = SpmvWorkspace::new();

            let p_ref: Vec<f64> = z.iter().zip(&p_old).map(|(z, p)| z + beta[0] * p).collect();
            let mut y_ref = vec![0.0f64; m.dim()];
            spmv_hsbcsr_fused_pq(&d, &h, &p_ref, scheme, &mut ws, &mut y_ref);
            let pq_ref = ws.pq_partials.clone();
            let (mut p, mut y) = (p_old.clone(), vec![0.0f64; m.dim()]);
            let fold = Fold { z: &z, beta: &beta };
            spmv_hsbcsr_folded_pq(&d, &h, fold, &mut p, scheme, &mut ws, &mut y);
            assert_eq!((&p, &y, &ws.pq_partials), (&p_ref, &y_ref, &pq_ref));

            let z32: Vec<f32> = z.iter().map(|&v| v as f32).collect();
            let p32_old: Vec<f32> = p_old.iter().map(|&v| v as f32).collect();
            let p32_ref: Vec<f32> = z32
                .iter()
                .zip(&p32_old)
                .map(|(&z, &p)| (f64::from(z) + beta[0] * f64::from(p)) as f32)
                .collect();
            let mut ws32 = SpmvWorkspace::new();
            let mut y32_ref = vec![0.0f32; m.dim()];
            spmv_hsbcsr_f32(&d, &h, &sh, &p32_ref, scheme, &mut ws32, &mut y32_ref, true);
            let pq32_ref = ws32.pq_partials.clone();
            let (mut p32, mut y32) = (p32_old, vec![0.0f32; m.dim()]);
            let fold = Fold {
                z: &z32,
                beta: &beta,
            };
            spmv_hsbcsr_f32_folded_pq(&d, &h, &sh, fold, &mut p32, scheme, &mut ws32, &mut y32);
            assert_eq!(
                (&p32, &y32, &ws32.pq_partials),
                (&p32_ref, &y32_ref, &pq32_ref)
            );

            // The folded stages are kernels of their own in a per-kernel
            // table; stage 1 only where there are off-diagonal blocks.
            let by = d.trace().by_kernel();
            for name in [f64::SPMV_STAGE1_XPBY, f32::SPMV_STAGE1_XPBY] {
                assert_eq!(by.contains_key(name), h.n_nd > 0, "{name}");
            }
            for name in [f64::SPMV_STAGE2_PQ_XPBY, f32::SPMV_STAGE2_PQ_XPBY] {
                assert_eq!(by[name].0.launches, 1, "{name}");
            }
        }
    }

    #[test]
    fn f32_instantiation_matches_f64_within_rounding_at_half_the_bytes() {
        // One kernel, two storage types. Fed the same fp32-representable
        // matrix and vector, the instantiations differ only by the fp32
        // rounding of the stage-1 staging stores and of the result store
        // (every accumulation is fp64), and every non-index byte of global
        // traffic halves. Checked with and without the fused p·q partials.
        const EPS32: f64 = 1.0 / (1u64 << 24) as f64;
        let m = SymBlockMatrix::random_spd(400, 5.0, 13);
        let mut h = Hsbcsr::from_sym(&m);
        for v in h.d_data.iter_mut().chain(h.nd_data_up.iter_mut()) {
            *v = f64::from(*v as f32);
        }
        let mut sh = Hsbcsr32::new();
        sh.refill_from(&h);
        let x32: Vec<f32> = (0..m.dim()).map(|i| (i as f32 * 0.23).sin()).collect();
        let x64: Vec<f64> = x32.iter().map(|&v| f64::from(v)).collect();

        for fuse_pq in [false, true] {
            let d64 = dev();
            let mut ws64 = SpmvWorkspace::new();
            let mut y64 = vec![0.0f64; m.dim()];
            if fuse_pq {
                spmv_hsbcsr_fused_pq(&d64, &h, &x64, Stage1Smem::Proposed, &mut ws64, &mut y64);
            } else {
                spmv_hsbcsr_into(&d64, &h, &x64, Stage1Smem::Proposed, &mut ws64, &mut y64);
            }
            let d32 = dev();
            let mut ws32 = SpmvWorkspace::new();
            let mut y32 = vec![0.0f32; m.dim()];
            let scheme = Stage1Smem::Proposed;
            spmv_hsbcsr_f32(&d32, &h, &sh, &x32, scheme, &mut ws32, &mut y32, fuse_pq);

            // A row sums ~11 staged terms, each rounded once, plus the
            // result rounding.
            let scale = y64.iter().fold(1.0f64, |a, v| a.max(v.abs()));
            for i in 0..m.dim() {
                assert!(
                    (f64::from(y32[i]) - y64[i]).abs() <= 8.0 * EPS32 * scale,
                    "fuse_pq={fuse_pq} i={i}: f32 {} vs f64 {}",
                    y32[i],
                    y64[i]
                );
            }
            assert_eq!(ws32.pq_partials.len(), ws64.pq_partials.len());
            if fuse_pq {
                // Partials never narrow: they are the fp64 dot of the
                // stored x with the *unrounded* accumulators.
                let pq32: f64 = ws32.pq_partials.iter().sum();
                let pq64: f64 = ws64.pq_partials.iter().sum();
                assert!((pq32 - pq64).abs() <= 8.0 * EPS32 * pq64.abs());
            }

            let (by64, by32) = (d64.trace().by_kernel(), d32.trace().by_kernel());
            // Stage 1: matrix values (36/nd), x gathers (12/nd) and the
            // up/low staging stores (12/nd) move at 4 bytes instead of 8.
            let s1_64 = by64[<f64 as Scalar>::SPMV_STAGE1].0;
            let s1_32 = by32[<f32 as Scalar>::SPMV_STAGE1].0;
            assert_eq!(
                s1_64.gmem_bytes - s1_32.gmem_bytes,
                4 * (36 + 12 + 12) * h.n_nd as u64,
                "stage 1 must halve matrix, vector, and staging streams"
            );
            assert!(s1_32.gmem_transactions < s1_64.gmem_transactions);
            // Stage 2 halves everything except the index streams and the
            // fp64 partials: up/low reductions (12 scalars per stored
            // sub-matrix), the diagonal (36/row), the x gathers (6/row),
            // and the y store (6/row).
            let (n64, n32) = if fuse_pq {
                (f64::SPMV_STAGE2_PQ, f32::SPMV_STAGE2_PQ)
            } else {
                (f64::SPMV_STAGE2, f32::SPMV_STAGE2)
            };
            assert_eq!(
                by64[n64].0.gmem_bytes - by32[n32].0.gmem_bytes,
                4 * (12 * h.n_nd as u64 + 48 * h.n as u64),
                "stage 2 non-index traffic must exactly halve"
            );
            assert!(d32.modeled_seconds() < d64.modeled_seconds());
        }
    }

    #[test]
    fn hsbcsr_beats_scalar_csr_in_modeled_time() {
        // The headline Fig-10 shape at reduced scale: half-stored sliced
        // SpMV must be faster than the naive scalar-CSR kernel on the same
        // matrix.
        let m = SymBlockMatrix::random_spd(500, 4.5, 21);
        let x = vec![1.0; m.dim()];

        let d1 = dev();
        let h = Hsbcsr::from_sym(&m);
        let _ = spmv_hsbcsr(&d1, &h, &x, Stage1Smem::Proposed);
        let t_hsbcsr = d1.modeled_seconds();

        let d2 = dev();
        let a = crate::csr::Csr::from_sym_full(&m);
        let _ = crate::spmv::spmv_csr_scalar(&d2, &a, &x);
        let t_csr = d2.modeled_seconds();

        assert!(
            t_hsbcsr < t_csr,
            "HSBCSR {t_hsbcsr} should beat scalar CSR {t_csr}"
        );
    }
}
