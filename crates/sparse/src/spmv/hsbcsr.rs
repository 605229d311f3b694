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

use crate::hsbcsr::Hsbcsr;
use crate::scratch::Scratch;
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
/// intermediate vectors and the per-row-block `p·q` partials of the fused
/// variant. Holding one
/// workspace across calls makes the steady-state SpMV path allocation-free
/// (per-block gather scratch is per-host-thread and equally reused).
#[derive(Debug, Default)]
pub struct SpmvWorkspace {
    up_res: Vec<f64>,
    low_res: Vec<f64>,
    /// One partial sum of `x·y` per stage-2 row block, filled by
    /// [`spmv_hsbcsr_fused_pq`].
    pub pq_partials: Vec<f64>,
}

impl SpmvWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> SpmvWorkspace {
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
    spmv_hsbcsr_stage12(dev, h, Input::Stored(x), scheme, ws, y, false);
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
    spmv_hsbcsr_stage12(dev, h, Input::Stored(x), scheme, ws, y, true);
}

/// The direction update `p ← z + β·p` folded into the SpMV that multiplies
/// `p`: `beta` is the device scalar a previous launch stored (element 0 is
/// read), `z` the preconditioned residual.
#[derive(Debug, Clone, Copy)]
pub struct Fold<'a> {
    /// The preconditioned residual.
    pub z: &'a [f64],
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
    fold: Fold<'_>,
    p: &mut [f64],
    scheme: Stage1Smem,
    ws: &mut SpmvWorkspace,
    y: &mut [f64],
) {
    spmv_hsbcsr_stage12(dev, h, Input::Folded(fold, p), scheme, ws, y, true);
}

/// The vector an SpMV multiplies.
enum Input<'a> {
    /// `x` as stored.
    Stored(&'a [f64]),
    /// `z + β·p`, formed on load; stage 2 stores it over `p`.
    Folded(Fold<'a>, &'a mut [f64]),
}

/// `z + β·p`, rounded as the stored direction element is.
#[inline]
fn xpby(z: f64, beta: f64, p: f64) -> f64 {
    z + beta * p
}

fn spmv_hsbcsr_stage12(
    dev: &Device,
    h: &Hsbcsr,
    mut input: Input<'_>,
    scheme: Stage1Smem,
    ws: &mut SpmvWorkspace,
    y: &mut [f64],
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
    up_res.resize(h.n_nd * 6, 0.0);
    low_res.resize(h.n_nd * 6, 0.0);
    let b_fold = fold.map(|f| (dev.bind_ro(f.z), dev.bind_ro(f.beta)));

    // ---- Stage 1: per-sub-matrix products ---------------------------------
    if h.n_nd > 0 {
        let b_nd = dev.bind_ro(&h.nd_data_up);
        let b_rc = dev.bind_ro(&h.rc);
        let b_x = dev.bind_ro(x);
        let b_up = dev.bind(up_res.as_mut_slice());
        let b_low = dev.bind(low_res.as_mut_slice());
        let pad = h.pad_nd;
        let nnd = h.n_nd;
        let name = if fold.is_some() {
            "spmv.hsbcsr.stage1_xpby"
        } else {
            "spmv.hsbcsr.stage1"
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
                        xpby(zv, beta, v)
                    }
                    None => v,
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
                    let a = lane.ld(&b_nd, Hsbcsr::sliced_index(pad, k, r, c));
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
                lane.st(&b_up, r * nnd + k, up[r]);
                lane.st(&b_low, r * nnd + k, low[r]);
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
        (false, _) => "spmv.hsbcsr.stage2",
        (true, false) => "spmv.hsbcsr.stage2_pq",
        (true, true) => "spmv.hsbcsr.stage2_pq_xpby",
    };
    {
        let b_up = dev.bind_ro(up_res.as_slice());
        let b_low = dev.bind_ro(low_res.as_slice());
        let b_rui = dev.bind_ro(&h.row_up_i);
        let b_rli = dev.bind_ro(&h.row_low_i);
        let b_rlp = dev.bind_ro(&h.row_low_p);
        let b_d = dev.bind_ro(&h.d_data);
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
            Scratch::with(|scratch| {
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
                                acc[w][r] += six[r][k - up_lo];
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
                                acc[w][r] += six[r][l - low_lo];
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
                            acc[w][r] += dvals[w] * six[c][w];
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
                            partial += acc[w][r] * six[r][w];
                        }
                    }
                    blk.flop_masked(rows, 12);
                    blk.shfl_reduce_cost(rows.min(256), 32);
                    blk.gst_one(&b_pq, blk.block_id, partial);
                }

                // Coalesced result store.
                flat.clear();
                flat.extend(acc.iter().flatten());
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
        // for bit — with off-diagonal blocks and without (stage 1 skipped,
        // stage 2 alone forms p).
        for (n, density) in [(70usize, 4.0), (33, 0.0)] {
            let m = SymBlockMatrix::random_spd(n, density, 9);
            let h = Hsbcsr::from_sym(&m);
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

            // The folded stages are kernels of their own in a per-kernel
            // table; stage 1 only where there are off-diagonal blocks.
            let by = d.trace().by_kernel();
            assert_eq!(by.contains_key("spmv.hsbcsr.stage1_xpby"), h.n_nd > 0);
            assert_eq!(by["spmv.hsbcsr.stage2_pq_xpby"].0.launches, 1);
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
