//! Instrumented device vector kernels for the Krylov iteration.
//!
//! PCG's non-SpMV work is a handful of BLAS-1 operations per iteration:
//! two dots, three axpy-like updates, and a norm check. Each is a real
//! device launch here so the solver's modeled time includes them (they are
//! memory-bound and small — on the GPU their launch overhead is visible,
//! which is part of why low-iteration-count preconditioners matter).
//!
//! The `fused_*` kernels collapse that per-iteration BLAS-1 train (see
//! [`crate::pcg::pcg_fused`]): with a block-diagonal or identity
//! preconditioner it is one launch, [`fused_update`], after the SpMV; with
//! any other it is [`fused_axpy2_norm`] and [`fused_xpby_beta`] around the
//! preconditioner's own apply. A fused kernel starts with a redundant
//! per-block reduction of the previous kernel's partial sums — recomputing
//! a tiny reduction in every block is far cheaper than a dedicated reduce
//! launch — or, where the next launch needs one scalar, leaves the final
//! reduction to the block that finishes last; then it performs its vector
//! updates and writes the partials the *next* kernel needs. All partial
//! sums keep the unfused 256-tile ordering, so the only reassociation
//! relative to the unfused loop is the `p·q` dot, whose partials tile by
//! SpMV row block.

//!
//! The fused kernels and the tile-partial dot are generic over the storage
//! [`Scalar`] of their vectors (`f64`, or `f32` for the mixed solver's
//! inner loop): elements widen on load and round once on store, every
//! product and reduction accumulates in `f64`, and the partial-sum buffers
//! stay `f64`, so the update scalars (α, β, ‖r‖², r·z) carry full precision
//! between launches. For `f64` the hooks are the identity.

use dda_simt::Device;
use dda_sparse::{Scalar, Scratch};

/// Reduction/update tile width — matches the unfused [`dot`] so the fused
/// partials reassociate identically.
const TILE: usize = 256;

/// `y ← a·x + y`.
pub fn axpy(dev: &Device, a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    let bx = dev.bind_ro(x);
    let by = dev.bind(y);
    dev.launch("vec.axpy", n, |lane| {
        let i = lane.gid;
        let xv = lane.ld(&bx, i);
        let yv = lane.ld(&by, i);
        lane.flop(2);
        lane.st(&by, i, a * xv + yv);
    });
}

/// `y ← x + b·y` (the `p ← z + βp` update).
pub fn xpby(dev: &Device, x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    let bx = dev.bind_ro(x);
    let by = dev.bind(y);
    dev.launch("vec.xpby", n, |lane| {
        let i = lane.gid;
        let xv = lane.ld(&bx, i);
        let yv = lane.ld(&by, i);
        lane.flop(2);
        lane.st(&by, i, xv + b * yv);
    });
}

/// Element-wise copy through the device.
pub fn copy(dev: &Device, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    let bx = dev.bind_ro(x);
    let by = dev.bind(y);
    dev.launch("vec.copy", n, |lane| {
        let v = lane.ld(&bx, lane.gid);
        lane.st(&by, lane.gid, v);
    });
}

/// The tile-partial stage of [`dot`], allocation-free: fills `partials`
/// with one 256-tile partial sum per block (reusing its capacity).
pub fn dot_partials_into<S: Scalar>(dev: &Device, x: &[S], y: &[S], partials: &mut Vec<f64>) {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    let n_blocks = n.div_ceil(TILE);
    partials.clear();
    partials.resize(n_blocks, 0.0);
    if n == 0 {
        return;
    }
    let bx = dev.bind_ro(x);
    let by = dev.bind_ro(y);
    let bp = dev.bind(partials.as_mut_slice());
    dev.launch_blocks(S::DOT_PARTIAL, n_blocks, 256, |blk| {
        S::with_scratch(|scratch| {
            let [va, vb, ..] = &mut scratch.tiles;
            let start = blk.block_id * TILE;
            let count = TILE.min(n - start);
            blk.gld_range_into(&bx, start, count, va);
            blk.gld_range_into(&by, start, count, vb);
            blk.flop_masked(count, 2);
            blk.shfl_reduce_cost(count, 32);
            blk.sync();
            blk.gst_one(&bp, blk.block_id, tile_dot(va, vb));
        });
    });
}

/// Single-block final reduction of tile partials ("vec.dot.final" order:
/// 256-chunk sequential sums). Skips the launch when one partial suffices,
/// exactly as [`dot`] does.
pub fn reduce_partials(dev: &Device, partials: &[f64]) -> f64 {
    let n_blocks = partials.len();
    if n_blocks == 0 {
        return 0.0;
    }
    if n_blocks == 1 {
        return partials[0];
    }
    let mut result = [0.0f64; 1];
    {
        let bp = dev.bind_ro(partials);
        let br = dev.bind(&mut result[..]);
        dev.launch_blocks("vec.dot.final", 1, 256, |blk| {
            let mut acc = 0.0;
            let mut off = 0;
            while off < n_blocks {
                let count = 256.min(n_blocks - off);
                let vals = blk.gld_range(&bp, off, count);
                blk.flop_masked(count, 1);
                acc += vals.iter().sum::<f64>();
                off += count;
            }
            blk.shfl_reduce_cost(256, 32);
            blk.gst_one(&br, 0, acc);
        });
    }
    result[0]
}

/// Host-side mirror of the device partial reduction, in the identical
/// 256-chunk order — used by the fused kernels to hand the reduced scalar
/// back to the orchestrating host without an extra launch (the device-side
/// redundant reduce is charged inside the fused kernel itself).
pub(crate) fn reduce_partials_host(partials: &[f64]) -> f64 {
    if partials.len() == 1 {
        return partials[0];
    }
    let mut acc = 0.0;
    let mut off = 0;
    while off < partials.len() {
        let count = 256.min(partials.len() - off);
        acc += partials[off..off + count].iter().sum::<f64>();
        off += count;
    }
    acc
}

/// `Σ v²` over one tile in the unfused [`dot`] order — the `‖·‖²` tile partial
/// the fused kernels emit.
fn tile_norm_sq<S: Scalar>(vals: &[S]) -> f64 {
    vals.iter()
        .map(|v| {
            let w = v.widen();
            w * w
        })
        .sum()
}

/// `Σ a·b` over one tile in the unfused [`dot`] order — its tile partial,
/// and the `r·z` partial the fused kernels emit.
fn tile_dot<S: Scalar>(a: &[S], b: &[S]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x.widen() * y.widen()).sum()
}

/// One row of a 6×6 block-diagonal apply: `Σ_c dinv[c] · r[c]` over the
/// row's six inverse entries and its DDA block's six residual elements,
/// accumulated in that order and rounded once.
fn block_diag_row<S: Scalar>(dinv: &[S], r: &[S]) -> S {
    let mut acc = 0.0f64;
    for c in 0..6 {
        acc += dinv[c].widen() * r[c].widen();
    }
    S::narrow(acc)
}

/// Dot product with a two-phase block reduction (tile partial sums, then a
/// final single-block pass).
pub fn dot(dev: &Device, x: &[f64], y: &[f64]) -> f64 {
    if x.is_empty() {
        assert_eq!(x.len(), y.len());
        return 0.0;
    }
    let mut partials = Vec::new();
    dot_partials_into(dev, x, y, &mut partials);
    reduce_partials(dev, &partials)
}

/// Squared 2-norm.
pub fn norm_sq(dev: &Device, x: &[f64]) -> f64 {
    dot(dev, x, x)
}

/// Fused set-up kernel: one launch performing
///
/// 1. `r ← b − q` with `q = A·x₀` (for `f64`, bitwise the unfused
///    `axpy(−1, q, r = b)`);
/// 2. one `‖b‖²` and one `‖r‖²` partial per 256-tile into `b_partials` and
///    `norm_partials`, in the unfused [`dot`] tile order, the latter from the
///    stored (rounded) `r`;
/// 3. both final reductions, by the block that finishes last — the
///    `__threadfence` single-pass reduction, so the two scalars the host
///    needs before it can start (or skip) the iteration cost no launch.
///
/// Returns `(‖b‖², ‖r‖²)` (host mirrors of the charged device reduce).
#[deny(clippy::float_cmp)]
pub fn fused_residual<S: Scalar>(
    dev: &Device,
    b: &[S],
    q: &[S],
    r: &mut Vec<S>,
    b_partials: &mut Vec<f64>,
    norm_partials: &mut Vec<f64>,
) -> (f64, f64) {
    let n = b.len();
    assert_eq!(q.len(), n);
    r.clear();
    r.resize(n, S::default());
    let n_tiles = n.div_ceil(TILE);
    for partials in [&mut *b_partials, &mut *norm_partials] {
        partials.clear();
        partials.resize(n_tiles, 0.0);
    }
    {
        let b_b = dev.bind_ro(b);
        let b_q = dev.bind_ro(q);
        let b_r = dev.bind(r.as_mut_slice());
        let b_bp = dev.bind(b_partials.as_mut_slice());
        let b_np = dev.bind(norm_partials.as_mut_slice());
        dev.launch_blocks(S::RESIDUAL, n_tiles, 256, |blk| {
            S::with_scratch(|scratch| {
                let [vb, vq, out, ..] = &mut scratch.tiles;
                let start = blk.block_id * TILE;
                let count = TILE.min(n - start);
                blk.gld_range_into(&b_b, start, count, vb);
                blk.gld_range_into(&b_q, start, count, vq);
                blk.flop_masked(count, 2);
                // Literally `axpy`'s `a·x + y` with `a = −1`: `−q + b` and
                // `b − q` agree with it on every non-NaN input but need not
                // on the sign and payload of a NaN.
                #[allow(clippy::neg_multiply)]
                let residual = |t: usize| S::narrow(-1.0 * vq[t].widen() + vb[t].widen());
                out.clear();
                out.extend((0..count).map(residual));
                blk.gst_range(&b_r, start, out);
                // ‖b‖² and ‖r‖² tile partials, unfused dot order.
                for (vals, partials) in [(&*vb, &b_bp), (&*out, &b_np)] {
                    blk.flop_masked(count, 2);
                    blk.shfl_reduce_cost(count, 32);
                    blk.gst_one(partials, blk.block_id, tile_norm_sq(vals));
                }
                if blk.block_id + 1 == n_tiles {
                    // Stand-in for "the block that finishes last": it alone
                    // re-reads every block's two partials (dot.final order).
                    for partials in [&b_bp, &b_np] {
                        blk.gld_range_cost(partials, 0, n_tiles);
                        blk.flop_masked(n_tiles.min(256), 1);
                        blk.shfl_reduce_cost(n_tiles.min(256), 32);
                    }
                }
            });
        });
    }
    (
        reduce_partials_host(b_partials),
        reduce_partials_host(norm_partials),
    )
}

/// Fused PCG update kernel: one launch performing
///
/// 1. redundant per-block reduction of the SpMV's `p·q` partials → `α = rz/pq`
///    (with the device-side breakdown guard: `pq ≤ 0` or non-finite leaves
///    `x` and `r` untouched so the host bails with the current iterate,
///    matching the unfused loop);
/// 2. `x ← x + α p` and `r ← r − α q` (for `f64`, bitwise the unfused
///    [`axpy`] pair);
/// 3. one `‖r‖²` partial per 256-tile into `norm_partials`, in the unfused
///    [`dot`] tile order, from the stored (rounded) `r`.
///
/// Returns the reduced `p·q` (same summation order as the in-kernel reduce)
/// for the host-side breakdown check.
#[deny(clippy::float_cmp)]
#[allow(clippy::too_many_arguments)]
pub fn fused_axpy2_norm<S: Scalar>(
    dev: &Device,
    pq_partials: &[f64],
    rz: f64,
    p: &[S],
    q: &[S],
    x: &mut [S],
    r: &mut [S],
    norm_partials: &mut Vec<f64>,
) -> f64 {
    let n = p.len();
    assert_eq!(q.len(), n);
    assert_eq!(x.len(), n);
    assert_eq!(r.len(), n);
    let n_tiles = n.div_ceil(TILE).max(1);
    norm_partials.clear();
    norm_partials.resize(n_tiles, 0.0);
    let n_pq = pq_partials.len();
    let pqv: f64 = pq_partials.iter().sum();
    {
        let b_pq = dev.bind_ro(pq_partials);
        let b_p = dev.bind_ro(p);
        let b_q = dev.bind_ro(q);
        let b_x = dev.bind(&mut *x);
        let b_r = dev.bind(&mut *r);
        let b_np = dev.bind(norm_partials.as_mut_slice());
        dev.launch_blocks(S::AXPY2NORM, n_tiles, 256, |blk| {
            S::with_scratch(|scratch| {
                let Scratch {
                    tiles: [va, vb, vc, vd, out, ..],
                    red,
                    ..
                } = scratch;
                // Redundant per-block p·q reduction (n_pq is tiny; a reduce
                // launch would cost more than every block re-summing it).
                blk.gld_range_into(&b_pq, 0, n_pq, red);
                blk.flop_masked(n_pq.min(256), 1);
                let pq: f64 = red.iter().sum();
                if pq <= 0.0 || !pq.is_finite() {
                    return;
                }
                let alpha = rz / pq;
                blk.flop_one(1);
                let start = blk.block_id * TILE;
                let count = TILE.min(n - start);
                blk.gld_range_into(&b_p, start, count, va);
                blk.gld_range_into(&b_q, start, count, vb);
                blk.gld_range_into(&b_x, start, count, vc);
                blk.gld_range_into(&b_r, start, count, vd);
                // x + αp and r − αq, both 2 flops per element.
                blk.flop_masked(count, 4);
                out.clear();
                out.extend((0..count).map(|t| S::narrow(alpha * va[t].widen() + vc[t].widen())));
                blk.gst_range(&b_x, start, out);
                out.clear();
                out.extend((0..count).map(|t| S::narrow(-alpha * vb[t].widen() + vd[t].widen())));
                blk.gst_range(&b_r, start, out);
                // ‖r‖² tile partial, unfused dot order.
                blk.flop_masked(count, 2);
                blk.shfl_reduce_cost(count, 32);
                blk.gst_one(&b_np, blk.block_id, tile_norm_sq(out));
            });
        });
    }
    pqv
}

/// Fused set-up preconditioner kernel: one launch performing
///
/// 1. `z ← D⁻¹ r` when `dinv` holds flat 6×6 block-diagonal inverses
///    (the exact arithmetic order of the Block-Jacobi apply kernel; stored
///    as `S` like the vectors, so the fp32 instantiation halves the
///    kernel's dominant traffic), or `z ← r` for the identity
///    preconditioner;
/// 2. one `r·z` partial per 256-tile into `rz_partials`;
/// 3. the final `r·z` reduction by the block that finishes last, which
///    stores it to `scalars[0]` (the host mirrors the charged reduce), where
///    the first [`fused_update`] reads it.
#[deny(clippy::float_cmp)]
pub fn fused_precond_rz<S: Scalar>(
    dev: &Device,
    dinv: Option<&[S]>,
    r: &[S],
    z: &mut [S],
    rz_partials: &mut Vec<f64>,
    scalars: &mut [f64; 2],
) {
    let n = r.len();
    assert_eq!(z.len(), n);
    let n_tiles = n.div_ceil(TILE).max(1);
    rz_partials.clear();
    rz_partials.resize(n_tiles, 0.0);
    {
        let b_r = dev.bind_ro(r);
        let b_z = dev.bind(&mut *z);
        let b_rz = dev.bind(rz_partials.as_mut_slice());
        let b_s = dev.bind(&mut scalars[..]);
        let b_dinv = dinv.map(|d| dev.bind_ro(d));
        dev.launch_blocks(S::PRECOND_RZ, n_tiles, 256, |blk| {
            S::with_scratch(|scratch| {
                let Scratch {
                    tiles: [va, vd, gat, out, ..],
                    idx: [ia, ib],
                    ..
                } = scratch;
                let start = blk.block_id * TILE;
                let count = TILE.min(n - start);
                blk.gld_range_into(&b_r, start, count, vd);
                out.clear();
                if let Some(b_dinv) = &b_dinv {
                    // z_g = Σ_c Dinv[i·36 + r·6 + c] · r[i·6 + c], the
                    // block-diagonal apply in its exact arithmetic order
                    // (i = g/6, local row r = g%6).
                    ia.clear();
                    ia.extend((start..start + count).flat_map(|g| {
                        let (i, rr) = (g / 6, g % 6);
                        (0..6).map(move |c| i * 36 + rr * 6 + c)
                    }));
                    blk.gld_gather_into(b_dinv, ia, va);
                    ib.clear();
                    ib.extend(
                        (start..start + count).flat_map(|g| (0..6).map(move |c| (g / 6) * 6 + c)),
                    );
                    blk.gld_gather_tex_into(&b_r, ib, gat);
                    blk.flop_masked(count, 12);
                    out.extend((0..count).map(|t| block_diag_row(&va[t * 6..], &gat[t * 6..])));
                } else {
                    // Identity preconditioner: z = r.
                    out.extend_from_slice(vd);
                }
                blk.gst_range(&b_z, start, out);
                // r·z tile partial, unfused dot order.
                blk.flop_masked(count, 2);
                blk.shfl_reduce_cost(count, 32);
                blk.gst_one(&b_rz, blk.block_id, tile_dot(vd, out));
                if blk.block_id + 1 == n_tiles {
                    // The block that finishes last reduces every block's
                    // partial (dot.final order) and stores r·z.
                    blk.gld_range_cost(&b_rz, 0, n_tiles);
                    blk.flop_masked(n_tiles.min(256), 1);
                    blk.shfl_reduce_cost(n_tiles.min(256), 32);
                    blk.gst_range_cost(&b_s, 0, 1);
                }
            });
        });
    }
    scalars[0] = reduce_partials_host(rz_partials);
}

/// Fused PCG update kernel for a block-diagonal or identity preconditioner:
/// one launch performing
///
/// 1. redundant per-block reduction of the SpMV's `p·q` partials →
///    `α = r·z / p·q`, with `r·z` read from `scalars[0]` and the device-side
///    breakdown guard (`p·q ≤ 0` or non-finite: no block writes anything,
///    so the host bails with the current iterate);
/// 2. `x ← x + αp` and `r_next ← r − αq` (for `f64`, bitwise the unfused
///    [`axpy`] pair);
/// 3. `z ← D⁻¹ r_next` (or `z ← r_next`) in the arithmetic order of
///    [`fused_precond_rz`]. 256 is not a multiple of 6, so a DDA block can
///    straddle two tiles: each tile recomputes the up to five halo elements
///    of `r_next` on either side from `q` and `r`, which is why the update
///    writes `r_next` and leaves `r` alone;
/// 4. one `‖r_next‖²` and one `r_next·z` partial per 256-tile, in the
///    unfused [`dot`] tile order;
/// 5. both final reductions by the block that finishes last, which stores
///    `[r·z_new, β = r·z_new / r·z_old]` to `scalars` for the next SpMV to
///    fold `p ← z + βp` into its loads.
///
/// Returns `Ok(‖r_next‖²)` (with `scalars`, the host mirrors of the charged
/// device reduces), or `Err(p·q)` on breakdown.
#[deny(clippy::float_cmp)]
#[allow(clippy::too_many_arguments)]
pub fn fused_update<S: Scalar>(
    dev: &Device,
    pq_partials: &[f64],
    dinv: Option<&[S]>,
    p: &[S],
    q: &[S],
    x: &mut [S],
    r: &[S],
    r_next: &mut Vec<S>,
    z: &mut [S],
    norm_partials: &mut Vec<f64>,
    rz_partials: &mut Vec<f64>,
    scalars: &mut [f64; 2],
) -> Result<f64, f64> {
    let n = p.len();
    for v in [q, &*x, r, &*z] {
        assert_eq!(v.len(), n);
    }
    r_next.clear();
    r_next.resize(n, S::default());
    let n_tiles = n.div_ceil(TILE).max(1);
    for partials in [&mut *norm_partials, &mut *rz_partials] {
        partials.clear();
        partials.resize(n_tiles, 0.0);
    }
    let n_pq = pq_partials.len();
    {
        let b_pq = dev.bind_ro(pq_partials);
        let b_p = dev.bind_ro(p);
        let b_q = dev.bind_ro(q);
        let b_x = dev.bind(&mut *x);
        let b_r = dev.bind_ro(r);
        let b_rn = dev.bind(r_next.as_mut_slice());
        let b_z = dev.bind(&mut *z);
        let b_np = dev.bind(norm_partials.as_mut_slice());
        let b_rz = dev.bind(rz_partials.as_mut_slice());
        let b_s = dev.bind(&mut scalars[..]);
        let b_dinv = dinv.map(|d| dev.bind_ro(d));
        dev.launch_blocks(S::UPDATE, n_tiles, 256, |blk| {
            S::with_scratch(|scratch| {
                let Scratch {
                    tiles: [va, vb, vc, vd, rn, out, ..],
                    red,
                    idx: [ia, _],
                    words: [words, ..],
                    ..
                } = scratch;
                // Redundant per-block p·q reduction, as in `axpy2norm`.
                blk.gld_range_into(&b_pq, 0, n_pq, red);
                blk.flop_masked(n_pq.min(256), 1);
                let pq: f64 = red.iter().sum();
                if pq <= 0.0 || !pq.is_finite() {
                    return;
                }
                let alpha = blk.gld_one(&b_s, 0) / pq;
                blk.flop_one(1);
                let start = blk.block_id * TILE;
                let count = TILE.min(n - start);
                // `r_next` over the tile and, under a block-diagonal D⁻¹,
                // the rest of the DDA blocks the tile's ends fall in.
                let (lo, hi) = if b_dinv.is_some() {
                    (start / 6 * 6, (start + count).div_ceil(6) * 6)
                } else {
                    (start, start + count)
                };
                blk.gld_range_into(&b_p, start, count, va);
                blk.gld_range_into(&b_q, lo, hi - lo, vb);
                blk.gld_range_into(&b_x, start, count, vc);
                blk.gld_range_into(&b_r, lo, hi - lo, vd);
                blk.flop_masked(count, 2);
                blk.flop_masked(hi - lo, 2);
                out.clear();
                out.extend((0..count).map(|t| S::narrow(alpha * va[t].widen() + vc[t].widen())));
                blk.gst_range(&b_x, start, out);
                rn.clear();
                rn.extend((0..hi - lo).map(|t| S::narrow(-alpha * vb[t].widen() + vd[t].widen())));
                let tile = &rn[start - lo..start - lo + count];
                blk.gst_range(&b_rn, start, tile);
                out.clear();
                if let Some(b_dinv) = &b_dinv {
                    ia.clear();
                    ia.extend((start..start + count).flat_map(|g| {
                        let (i, rr) = (g / 6, g % 6);
                        (0..6).map(move |c| i * 36 + rr * 6 + c)
                    }));
                    blk.gld_gather_into(b_dinv, ia, va);
                    // The block's `r_next` goes through shared memory, where
                    // each row reads the six elements of its DDA block.
                    words.clear();
                    words.extend(0..(hi - lo) as u32);
                    blk.smem_access(words);
                    blk.sync();
                    for c in 0..6 {
                        words.clear();
                        words.extend((start..start + count).map(|g| (g / 6 * 6 + c - lo) as u32));
                        blk.smem_access(words);
                    }
                    blk.flop_masked(count, 12);
                    out.extend((start..start + count).map(|g| {
                        let t = g - start;
                        block_diag_row(&va[t * 6..t * 6 + 6], &rn[g / 6 * 6 - lo..])
                    }));
                } else {
                    out.extend_from_slice(tile);
                }
                blk.gst_range(&b_z, start, out);
                // ‖r‖² and r·z tile partials, unfused dot order.
                for (partials, partial) in
                    [(&b_np, tile_norm_sq(tile)), (&b_rz, tile_dot(tile, out))]
                {
                    blk.flop_masked(count, 2);
                    blk.shfl_reduce_cost(count, 32);
                    blk.gst_one(partials, blk.block_id, partial);
                }
                if blk.block_id + 1 == n_tiles {
                    // The block that finishes last reduces every block's
                    // two partials (dot.final order), forms β and stores
                    // both scalars.
                    for partials in [&b_np, &b_rz] {
                        blk.gld_range_cost(partials, 0, n_tiles);
                        blk.flop_masked(n_tiles.min(256), 1);
                        blk.shfl_reduce_cost(n_tiles.min(256), 32);
                    }
                    blk.flop_one(1);
                    blk.gst_range_cost(&b_s, 0, 2);
                }
            });
        });
    }
    let pq: f64 = pq_partials.iter().sum();
    if pq <= 0.0 || !pq.is_finite() {
        return Err(pq);
    }
    let rz = reduce_partials_host(rz_partials);
    *scalars = [rz, rz / scalars[0]];
    Ok(reduce_partials_host(norm_partials))
}

/// Fused direction-update kernel: one launch performing
///
/// 1. redundant per-block reduction of `rz_partials` → `rz_new`, then
///    `β = rz_new / rz_old` (in fp64);
/// 2. `p ← z + β p` (for `f64`, bitwise the unfused [`xpby`]).
///
/// Returns `rz_new` (host mirror of the charged device reduce).
#[deny(clippy::float_cmp)]
pub fn fused_xpby_beta<S: Scalar>(
    dev: &Device,
    rz_partials: &[f64],
    rz_old: f64,
    z: &[S],
    p: &mut [S],
) -> f64 {
    let n = z.len();
    assert_eq!(p.len(), n);
    let n_tiles = n.div_ceil(TILE).max(1);
    let n_rz = rz_partials.len();
    {
        let b_rz = dev.bind_ro(rz_partials);
        let b_z = dev.bind_ro(z);
        let b_p = dev.bind(&mut *p);
        dev.launch_blocks(S::XPBY_BETA, n_tiles, 256, |blk| {
            S::with_scratch(|scratch| {
                let Scratch {
                    tiles: [va, vb, out, ..],
                    red,
                    ..
                } = scratch;
                blk.gld_range_into(&b_rz, 0, n_rz, red);
                blk.flop_masked(n_rz.min(256), 1);
                let rz_new = reduce_partials_host(red);
                let beta = rz_new / rz_old;
                blk.flop_one(1);
                let start = blk.block_id * TILE;
                let count = TILE.min(n - start);
                blk.gld_range_into(&b_z, start, count, va);
                blk.gld_range_into(&b_p, start, count, vb);
                blk.flop_masked(count, 2);
                out.clear();
                out.extend((0..count).map(|t| S::narrow(va[t].widen() + beta * vb[t].widen())));
                blk.gst_range(&b_p, start, out);
            });
        });
    }
    reduce_partials_host(rz_partials)
}

// ---- Conversions between the mixed solver's fp64 outer and fp32 inner state ----

/// `y ← y + x` with `x` fp32 and `y` fp64 — the promotion step that folds
/// an fp32 inner correction into the fp64 refinement iterate in one launch
/// (12 bytes moved per element instead of promote-then-axpy's 24).
pub fn axpy_widen(dev: &Device, x: &[f32], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    let bx = dev.bind_ro(x);
    let by = dev.bind(y);
    dev.launch("vec.axpy.widen", n, |lane| {
        let i = lane.gid;
        let xv = lane.ld(&bx, i);
        let yv = lane.ld(&by, i);
        lane.flop(1);
        lane.st(&by, i, yv + f64::from(xv));
    });
}

/// `y ← fp32(x)`: one rounding per element, 12 bytes moved.
pub fn demote(dev: &Device, x: &[f64], y: &mut Vec<f32>) {
    let n = x.len();
    y.clear();
    y.resize(n, 0.0);
    let bx = dev.bind_ro(x);
    let by = dev.bind(y.as_mut_slice());
    dev.launch("vec.demote", n, |lane| {
        let v = lane.ld(&bx, lane.gid);
        lane.st(&by, lane.gid, v as f32);
    });
}

/// `y ← fp64(x)`: exact widening, 12 bytes moved. The bridge that lets
/// non-block-diagonal preconditioners (SSOR/ILU0/Jacobi) apply their fp64
/// kernels inside the fp32 inner loop.
pub fn promote(dev: &Device, x: &[f32], y: &mut Vec<f64>) {
    let n = x.len();
    y.clear();
    y.resize(n, 0.0);
    let bx = dev.bind_ro(x);
    let by = dev.bind(y.as_mut_slice());
    dev.launch("vec.promote", n, |lane| {
        let v = lane.ld(&bx, lane.gid);
        lane.st(&by, lane.gid, f64::from(v));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_simt::DeviceProfile;

    fn dev() -> Device {
        Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
    }

    #[test]
    fn axpy_works() {
        let d = dev();
        let x: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let mut y = vec![1.0; 1000];
        axpy(&d, 2.0, &x, &mut y);
        assert_eq!(y[10], 21.0);
        assert_eq!(y[999], 1999.0);
    }

    #[test]
    fn xpby_works() {
        let d = dev();
        let x = vec![5.0; 100];
        let mut y = vec![2.0; 100];
        xpby(&d, &x, 3.0, &mut y);
        assert!(y.iter().all(|&v| (v - 11.0).abs() < 1e-15));
    }

    #[test]
    fn copy_works() {
        let d = dev();
        let x: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let mut y = vec![0.0; 500];
        copy(&d, &x, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn dot_small_and_large() {
        let d = dev();
        assert_eq!(dot(&d, &[], &[]), 0.0);
        let x = vec![2.0; 10];
        let y = vec![3.0; 10];
        assert!((dot(&d, &x, &y) - 60.0).abs() < 1e-12);

        let n = 100_000;
        let x: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) * 0.5).collect();
        let expect: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let got = dot(&d, &x, &y);
        assert!((got - expect).abs() < 1e-6 * expect.abs().max(1.0));
    }

    #[test]
    fn norm_sq_matches() {
        let d = dev();
        let x = vec![3.0, 4.0];
        assert!((norm_sq(&d, &x) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn kernels_appear_in_trace() {
        let d = dev();
        let x = vec![1.0; 1024];
        let y = vec![1.0; 1024];
        let _ = dot(&d, &x, &y);
        let by = d.trace().by_kernel();
        assert!(by.contains_key("vec.dot.partial"));
        assert!(by.contains_key("vec.dot.final"));
    }

    /// `sin`-patterned fp32-representable test vector and its exact widening.
    fn vec_pair(n: usize, phase: f32) -> (Vec<f32>, Vec<f64>) {
        let v32: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37 + phase).sin()).collect();
        let v64 = v32.iter().map(|&v| f64::from(v)).collect();
        (v32, v64)
    }

    fn narrowed(v: &[f64]) -> Vec<f32> {
        v.iter().map(|&x| x as f32).collect()
    }

    /// Bytes of the only launch on `d`, which must be `kernel`.
    fn launch_bytes(d: &Device, kernel: &str) -> u64 {
        let trace = d.trace();
        assert_eq!(trace.records.len(), 1);
        assert_eq!(trace.records[0].name, kernel);
        trace.records[0].stats.gmem_bytes
    }

    #[test]
    fn f32_instantiations_round_the_f64_result_once_at_half_the_vector_bytes() {
        // One check per generic kernel. Fed the same fp32-representable
        // inputs, the two instantiations accumulate the identical f64
        // values, so every vector the f32 kernel stores is the f64 kernel's
        // rounded once; partials (fp64 in both) differ only through the
        // rounded vector they are formed from, ≤ 2⁻²⁴ relative per factor;
        // and the byte counters differ by exactly 4 bytes per vector element
        // moved (the vector traffic halves, the partial traffic does not).
        const EPS32: f64 = 1.0 / (1u64 << 24) as f64;
        let n = 6 * 170; // four tiles, the last one partial
        let (p32, p64) = vec_pair(n, 0.1);
        let (q32, q64) = vec_pair(n, 1.3);
        let (x32, x64) = vec_pair(n, 2.2);
        let (r32, r64) = vec_pair(n, 0.7);
        let (dinv32, dinv64) = vec_pair(6 * n, 0.4);
        let partials = [0.75, 1.5, 0.25];
        let elems = |k: usize| 4 * (k * n) as u64;

        let (mut np64, mut np32) = (Vec::new(), Vec::new());

        // vec.dot.partial: same f64 products, same order — bit-equal.
        let (d64, d32) = (dev(), dev());
        let (mut out64, mut out32) = (Vec::new(), Vec::new());
        dot_partials_into(&d64, &p64, &q64, &mut out64);
        dot_partials_into(&d32, &p32, &q32, &mut out32);
        assert_eq!(out64, out32);
        assert_eq!(
            launch_bytes(&d64, "vec.dot.partial") - launch_bytes(&d32, "vec.dot.partial.f32"),
            elems(2)
        );

        // pcg.fused.residual: b and q loads, r store; ‖b‖² is bit-equal
        // (same products), ‖r‖² is formed from the rounded r.
        let (d64, d32) = (dev(), dev());
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        let (mut bp64, mut bp32) = (Vec::new(), Vec::new());
        let (b64_sq, r64_sq) = fused_residual(&d64, &p64, &q64, &mut ra, &mut bp64, &mut np64);
        let (b32_sq, r32_sq) = fused_residual(&d32, &p32, &q32, &mut rb, &mut bp32, &mut np32);
        assert_eq!(b64_sq.to_bits(), b32_sq.to_bits());
        assert_eq!(rb, narrowed(&ra));
        assert!((r64_sq - r32_sq).abs() <= 2.5 * EPS32 * r64_sq);
        assert_eq!(
            launch_bytes(&d64, "pcg.fused.residual") - launch_bytes(&d32, "pcg.fused.residual.f32"),
            elems(3)
        );

        // pcg.fused.axpy2norm: 4 vector loads + 2 stores per element.
        let (d64, d32) = (dev(), dev());
        let (mut xa, mut ra) = (x64.clone(), r64.clone());
        let (mut xb, mut rb) = (x32.clone(), r32.clone());
        let pq64 = fused_axpy2_norm(
            &d64, &partials, 0.5, &p64, &q64, &mut xa, &mut ra, &mut np64,
        );
        let pq32 = fused_axpy2_norm(
            &d32, &partials, 0.5, &p32, &q32, &mut xb, &mut rb, &mut np32,
        );
        assert_eq!(pq64.to_bits(), pq32.to_bits());
        assert_eq!(xb, narrowed(&xa));
        assert_eq!(rb, narrowed(&ra));
        for (a, b) in np64.iter().zip(&np32) {
            assert!((a - b).abs() <= 2.5 * EPS32 * a, "‖r‖² partial {b} vs {a}");
        }
        assert_eq!(
            launch_bytes(&d64, "pcg.fused.axpy2norm")
                - launch_bytes(&d32, "pcg.fused.axpy2norm.f32"),
            elems(6)
        );

        // pcg.fused.precond_rz, block-diagonal (r, 6 D⁻¹ + 6 r gathers, z
        // per element) and identity (r, z); r·z lands in scalars[0].
        for (dinv, moved) in [(Some((&dinv64, &dinv32)), 14), (None, 2)] {
            let (d64, d32) = (dev(), dev());
            let (mut z64, mut z32) = (vec![0.0f64; n], vec![0.0f32; n]);
            let (mut rz64, mut rz32) = (Vec::new(), Vec::new());
            let (mut s64, mut s32) = ([0.0; 2], [0.0; 2]);
            let dinv_a = dinv.map(|d| d.0.as_slice());
            let dinv_b = dinv.map(|d| d.1.as_slice());
            fused_precond_rz(&d64, dinv_a, &r64, &mut z64, &mut rz64, &mut s64);
            fused_precond_rz(&d32, dinv_b, &r32, &mut z32, &mut rz32, &mut s32);
            assert_eq!(s64[0].to_bits(), reduce_partials_host(&rz64).to_bits());
            assert_eq!(s32[0].to_bits(), reduce_partials_host(&rz32).to_bits());
            assert_eq!(z32, narrowed(&z64));
            for (t, (a, b)) in rz64.iter().zip(&rz32).enumerate() {
                let tile = t * TILE..n.min((t + 1) * TILE);
                let mass: f64 = tile.map(|i| (r64[i] * z64[i]).abs()).sum();
                assert!((a - b).abs() <= EPS32 * mass, "r·z partial {b} vs {a}");
            }
            assert_eq!(
                launch_bytes(&d64, "pcg.fused.precond_rz")
                    - launch_bytes(&d32, "pcg.fused.precond_rz.f32"),
                elems(moved)
            );
        }

        // pcg.fused.update: p, x loads, q and r loads with the halo of the
        // DDA blocks that straddle a tile end (1020 rows: 2 + 8 + 2 halo
        // elements), x, r_next and z stores, plus the 6 D⁻¹ gathers of the
        // block-diagonal apply; identity: no halo and no D⁻¹.
        for (dinv, moved, halo) in [(Some((&dinv64, &dinv32)), 13, 12), (None, 7, 0)] {
            let (d64, d32) = (dev(), dev());
            let (mut xa, mut xb) = (x64.clone(), x32.clone());
            let (mut ra, mut rb) = (Vec::new(), Vec::new());
            let (mut z64, mut z32) = (vec![0.0f64; n], vec![0.0f32; n]);
            let (mut rz64, mut rz32) = (Vec::new(), Vec::new());
            let (mut s64, mut s32) = ([0.5, 0.0], [0.5, 0.0]);
            let dinv_a = dinv.map(|d| d.0.as_slice());
            let dinv_b = dinv.map(|d| d.1.as_slice());
            let np_a = fused_update(
                &d64, &partials, dinv_a, &p64, &q64, &mut xa, &r64, &mut ra, &mut z64, &mut np64,
                &mut rz64, &mut s64,
            )
            .unwrap();
            let np_b = fused_update(
                &d32, &partials, dinv_b, &p32, &q32, &mut xb, &r32, &mut rb, &mut z32, &mut np32,
                &mut rz32, &mut s32,
            )
            .unwrap();
            assert_eq!(xb, narrowed(&xa));
            assert_eq!(rb, narrowed(&ra));
            assert!((np_a - np_b).abs() <= 2.5 * EPS32 * np_a);
            assert_eq!(s64, [reduce_partials_host(&rz64), s64[0] / 0.5]);
            assert_eq!(s32, [reduce_partials_host(&rz32), s32[0] / 0.5]);
            if dinv.is_none() {
                assert_eq!(z32, narrowed(&z64));
            }
            assert_eq!(
                launch_bytes(&d64, "pcg.fused.update") - launch_bytes(&d32, "pcg.fused.update.f32"),
                elems(moved) + 4 * 2 * halo
            );
        }

        // A non-positive p·q writes nothing and leaves the scalars alone.
        let d = dev();
        let (mut xa, mut ra, mut z) = (x64.clone(), Vec::new(), vec![7.0; n]);
        let mut scalars = [0.5, 3.0];
        let broke = fused_update(
            &d,
            &[1.0, -2.0],
            None,
            &p64,
            &q64,
            &mut xa,
            &r64,
            &mut ra,
            &mut z,
            &mut np64,
            &mut Vec::new(),
            &mut scalars,
        );
        assert_eq!(broke, Err(-1.0));
        assert_eq!(xa, x64);
        assert!(ra.iter().all(|&v| v == 0.0) && z.iter().all(|&v| v == 7.0));
        assert_eq!(scalars, [0.5, 3.0]);

        // pcg.fused.xpby_beta: z and p loads, p store.
        let (d64, d32) = (dev(), dev());
        let (mut pa, mut pb) = (p64.clone(), p32.clone());
        let rz_a = fused_xpby_beta(&d64, &partials, 2.0, &q64, &mut pa);
        let rz_b = fused_xpby_beta(&d32, &partials, 2.0, &q32, &mut pb);
        assert_eq!(rz_a.to_bits(), rz_b.to_bits());
        assert_eq!(pb, narrowed(&pa));
        assert_eq!(
            launch_bytes(&d64, "pcg.fused.xpby_beta")
                - launch_bytes(&d32, "pcg.fused.xpby_beta.f32"),
            elems(3)
        );
    }
}
