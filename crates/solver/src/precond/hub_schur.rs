//! Block-Jacobi with the fixed-block hub solved exactly by its Schur
//! complement.
//!
//! A DDA scene's fixed blocks stay in the system, held by stiff fixity
//! springs, and on a rockfall every contact joins a rock to one of them:
//! the stiffness matrix is an *arrow*, free blocks on the diagonal coupled
//! only to a few hub blocks. Block-Jacobi drops exactly the couplings that
//! matter there. This preconditioner keeps them. With `F` the free blocks
//! and `H` the hub (the scene's fixed blocks, at most [`HUB_CAP`]),
//!
//! ```text
//! M = [ D_FF  K_FH ]      D_FF = blockdiag(K_ii), i ∈ F
//!     [ K_HF  K_HH ]
//! ```
//!
//! drops only the free–free couplings, so it is `K` itself when there are
//! none. It is applied by block elimination: `y_i = D_i⁻¹ r_i`, `t = r_H −
//! Σ_i K_Hi y_i`, `x_H = S⁻¹ t` with the hub Schur complement
//! `S = K_HH − Σ_i K_Hi D_i⁻¹ K_iH`, then `z_i = y_i − W_iH x_H` with
//! `W_iH = D_i⁻¹ K_iH`, and `z_H = x_H`. `M` is SPD: `D_FF` is, and `S`
//! is at least the hub's own fixity springs, since every contact's 12×12
//! contribution is PSD and a free block's `D_i` holds at least the
//! contacts that couple it to the hub (DESIGN.md, "The hub Schur
//! complement").
//!
//! Launches: construction is Block-Jacobi's `precond.bj.construct` plus
//! one `precond.hub.construct` (`W`, the per-tile `S` partials, and the
//! Cholesky factor of `S` in the block that finishes last). An apply is
//! `precond.hub.apply` (`y`, the per-tile `K_Hi y_i` partials, and the
//! `S x_H = t` solve in the last block) and `precond.hub.back` (`z`, fused
//! with the `r·z` tile partials and their reduction). Without a hub — no
//! fixed block, more than [`HUB_CAP`], or no off-diagonal block touching
//! one — it *is* [`BlockJacobi`], launch for launch and bit for bit: it
//! hands the fused PCG its inverses and runs the three-launch iteration.

use super::block_jacobi::{block_diag_apply, BlockJacobi};
use super::{PrecondError, Preconditioner};
use crate::vecops::reduce_partials_host;
use dda_simt::Device;
use dda_sparse::{Block6, Hsbcsr, Scratch};

/// Most hub blocks eliminated densely. The rockfall and fleet scenes have
/// 2 fixed blocks and the scatter field 1; the slope's 49 (a 294-DOF hub)
/// would cost a dense factor per solve for a 6 % iteration saving.
pub const HUB_CAP: usize = 8;

/// DDA blocks per thread block of the apply kernels: 252 threads, one per
/// scalar row, so no DDA block straddles two tiles.
const ROW_TILE: usize = 42;

/// Couplings per thread block of the construction kernel (one thread
/// each).
const CPL_TILE: usize = 128;

/// `hub_pos` of a free block.
const FREE: u32 = u32::MAX;

/// One free–hub coupling `K_iH` block.
#[derive(Debug, Clone, Copy)]
struct Coupling {
    /// The free block.
    free: u32,
    /// Position of the hub block in [`HubSchur::hub`].
    hub: u32,
    /// Slot of the stored block in the HSBCSR upper listing.
    slot: u32,
    /// Whether the stored block is `K_Hi` (the hub block has the lower
    /// index), so `K_iH` is its transpose.
    transposed: bool,
}

/// Block-Jacobi plus the exact hub solve; see the module docs.
pub struct HubSchur {
    bj: BlockJacobi,
    /// Hub blocks, ascending; empty when the preconditioner is plain
    /// Block-Jacobi.
    hub: Vec<u32>,
    /// Per block, its position in `hub`, or [`FREE`].
    hub_pos: Vec<u32>,
    /// Free–hub couplings by free block, then hub position.
    cpl: Vec<Coupling>,
    /// `cpl[blk_cpl[i]..blk_cpl[i + 1]]` are block `i`'s couplings.
    blk_cpl: Vec<u32>,
    /// Packed `K_iH` per coupling, row-major, 36 each.
    k: Vec<f64>,
    /// `W_iH = D_i⁻¹ K_iH` per coupling, row-major, 36 each.
    w: Vec<f64>,
    /// Lower Cholesky factor of `S`, row-major `6|H| × 6|H|`.
    l: Vec<f64>,
}

impl HubSchur {
    /// The hub to eliminate on `h` for a scene whose fixed blocks are
    /// `fixed`: all of them when there are 1 to [`HUB_CAP`] and an
    /// off-diagonal block of `h` touches one; none otherwise. It depends on
    /// the pattern only, so a caller decides it once per format rebuild.
    pub fn hub_of(h: &Hsbcsr, fixed: &[u32]) -> Vec<u32> {
        if fixed.is_empty() || fixed.len() > HUB_CAP {
            return Vec::new();
        }
        let touches = h.rc[..h.n_nd]
            .iter()
            .any(|&rc| fixed.contains(&((rc >> 32) as u32)) || fixed.contains(&(rc as u32)));
        let mut hub = if touches { fixed.to_vec() } else { Vec::new() };
        hub.sort_unstable();
        hub.dedup();
        hub
    }

    /// Factors `M` for `h` around `hub` (see [`HubSchur::hub_of`]). A
    /// singular diagonal block or a singular `S` is a [`PrecondError`].
    pub fn try_new(dev: &Device, h: &Hsbcsr, hub: &[u32]) -> Result<HubSchur, PrecondError> {
        let mut p = HubSchur {
            bj: BlockJacobi::try_new(dev, h)?,
            hub: Vec::new(),
            hub_pos: Vec::new(),
            cpl: Vec::new(),
            blk_cpl: Vec::new(),
            k: Vec::new(),
            w: Vec::new(),
            l: Vec::new(),
        };
        p.factor_hub(dev, h, hub)?;
        Ok(p)
    }

    /// Refactors in place: Block-Jacobi's single launch, then, with a hub,
    /// the hub's construction launch.
    pub fn try_refactor(
        &mut self,
        dev: &Device,
        h: &Hsbcsr,
        hub: &[u32],
    ) -> Result<(), PrecondError> {
        self.bj.try_refactor(dev, h)?;
        self.factor_hub(dev, h, hub)
    }

    /// Rebuilds the coupling index (host-side, from the pattern) and runs
    /// `precond.hub.construct`.
    fn factor_hub(&mut self, dev: &Device, h: &Hsbcsr, hub: &[u32]) -> Result<(), PrecondError> {
        self.hub.clear();
        self.hub.extend_from_slice(hub);
        self.cpl.clear();
        self.blk_cpl.clear();
        if hub.is_empty() {
            return Ok(());
        }
        self.hub_pos.clear();
        self.hub_pos.resize(h.n, FREE);
        for (a, &b) in hub.iter().enumerate() {
            self.hub_pos[b as usize] = a as u32;
        }
        for slot in 0..h.n_nd {
            let (r, c) = (h.row_of(slot), h.col_of(slot));
            let (pr, pc) = (self.hub_pos[r as usize], self.hub_pos[c as usize]);
            let (free, at, transposed) = match (pr == FREE, pc == FREE) {
                (true, false) => (r, pc, false),
                (false, true) => (c, pr, true),
                _ => continue,
            };
            self.cpl.push(Coupling {
                free,
                hub: at,
                slot: slot as u32,
                transposed,
            });
        }
        self.cpl.sort_unstable_by_key(|c| (c.free, c.hub));
        self.blk_cpl.resize(h.n + 1, 0);
        for c in &self.cpl {
            self.blk_cpl[c.free as usize + 1] += 1;
        }
        for i in 0..h.n {
            self.blk_cpl[i + 1] += self.blk_cpl[i];
        }
        self.construct(dev, h)
    }

    /// `precond.hub.construct`: one thread per coupling packs `K_iH`, forms
    /// `W_iH = D_i⁻¹ K_iH` and, against each later coupling `K_iH'` of the
    /// same free block, the `W_iHᵀ K_iH'` term of `S`, summed per tile and
    /// hub pair. The block that finishes last reduces the tiles, subtracts
    /// them from `K_HH` and Cholesky-factors `S` (its work is charged there
    /// and mirrored on the host once the launch is over).
    fn construct(&mut self, dev: &Device, h: &Hsbcsr) -> Result<(), PrecondError> {
        let m = self.hub.len();
        let d = 6 * m;
        let pairs = m * (m + 1) / 2;
        let nc = self.cpl.len();
        let n_tiles = nc.div_ceil(CPL_TILE).max(1);
        self.k.clear();
        self.k.resize(36 * nc, 0.0);
        self.w.clear();
        self.w.resize(36 * nc, 0.0);
        let mut partials = vec![0.0f64; n_tiles * pairs * 36];
        self.l.clear();
        self.l.resize(d * d, 0.0);
        let (cpl, blk_cpl) = (&self.cpl, &self.blk_cpl);
        let pad_nd = h.pad_nd;
        // Sliced-layout positions of `K_iH`'s 36 entries, row-major.
        let k_index = move |c: &Coupling, e: usize| {
            let (r, col) = if c.transposed {
                (e % 6, e / 6)
            } else {
                (e / 6, e % 6)
            };
            Hsbcsr::sliced_index(pad_nd, c.slot as usize, r, col)
        };
        {
            let b_nd = dev.bind_ro(&h.nd_data_up);
            let b_d = dev.bind_ro(&h.d_data);
            let b_dinv = dev.bind_ro(self.bj.dinv());
            let b_k = dev.bind(self.k.as_mut_slice());
            let b_w = dev.bind(self.w.as_mut_slice());
            let b_part = dev.bind(partials.as_mut_slice());
            let b_l = dev.bind(self.l.as_mut_slice());
            dev.launch_blocks("precond.hub.construct", n_tiles, CPL_TILE, |blk| {
                Scratch::with(|scratch| {
                    let Scratch {
                        tiles: [kv, dv, wv, other, part, staged, ..],
                        idx: [ia, _],
                        words: [words, ..],
                        ..
                    } = scratch;
                    let start = blk.block_id * CPL_TILE;
                    let count = CPL_TILE.min(nc.saturating_sub(start));
                    let tile = &cpl[start..start + count];
                    // Entry e of every thread's K_iH, one gather per entry
                    // as the threads of a warp load them (the sliced layout
                    // puts a row's slots side by side). Each D_i⁻¹ is 36
                    // contiguous words, which 36 threads load together and
                    // stage in shared memory.
                    ia.clear();
                    ia.extend((0..36).flat_map(|e| tile.iter().map(move |c| k_index(c, e))));
                    blk.gld_gather_into(&b_nd, ia, staged);
                    by_thread(staged, count, kv);
                    dv.clear();
                    for c in tile {
                        blk.gld_range_into(&b_dinv, 36 * c.free as usize, 36, staged);
                        dv.extend_from_slice(staged);
                    }
                    words.clear();
                    words.extend(0..(36 * count) as u32);
                    blk.smem_access(words);
                    blk.sync();
                    // W = D⁻¹ K, 6×6×6 multiply-adds per coupling.
                    blk.flop_masked(count, 432);
                    wv.clear();
                    for t in 0..count {
                        let w = block_of(&dv[t * 36..]).matmul(&block_of(&kv[t * 36..]));
                        wv.extend_from_slice(w.0.as_flattened());
                    }
                    blk.gst_range(&b_k, start * 36, kv);
                    blk.gst_range(&b_w, start * 36, wv);
                    // S terms: thread t against every later coupling of its
                    // free block, accumulated per hub pair in coupling order.
                    part.clear();
                    part.resize(pairs * 36, 0.0);
                    let mut terms = 0usize;
                    for (t, c) in tile.iter().enumerate() {
                        let w = block_of(&wv[t * 36..]);
                        let (_, end) = block_range(blk_cpl, c.free);
                        let mine = start + t;
                        ia.clear();
                        ia.extend(
                            (mine..end).flat_map(|o| (0..36).map(move |e| k_index(&cpl[o], e))),
                        );
                        blk.gld_gather_into(&b_nd, ia, other);
                        for (q, o) in (mine..end).enumerate() {
                            let term = w.transpose().matmul(&block_of(&other[q * 36..]));
                            let at = pair_index(m, c.hub as usize, cpl[o].hub as usize) * 36;
                            for (acc, v) in part[at..at + 36].iter_mut().zip(term.0.as_flattened())
                            {
                                *acc += v;
                            }
                            terms += 1;
                        }
                    }
                    // The per-pair sums meet in shared memory.
                    blk.flop_masked(count, 432 * terms.div_ceil(count.max(1)) as u64);
                    words.clear();
                    words.extend(0..(pairs * 36) as u32);
                    blk.smem_access(words);
                    blk.sync();
                    blk.gst_range(&b_part, blk.block_id * pairs * 36, part);
                    if blk.block_id + 1 == n_tiles {
                        // The block that finishes last: reduce every tile's
                        // pair sums, load K_HH, factor S = L Lᵀ.
                        blk.gld_range_cost(&b_part, 0, n_tiles * pairs * 36);
                        blk.flop_masked((pairs * 36).min(CPL_TILE), n_tiles as u64);
                        blk.gld_range_cost(&b_d, 0, 36 * m);
                        blk.gld_range_cost(&b_nd, 0, 36 * pairs.saturating_sub(m));
                        blk.flop_masked(d.min(CPL_TILE), (d * d / 3).max(1) as u64);
                        blk.gst_range_cost(&b_l, 0, d * d);
                    }
                });
            });
        }
        // The last block's reduction and factorization, mirrored.
        let mut s = vec![0.0f64; d * d];
        for (a, &ha) in self.hub.iter().enumerate() {
            for r in 0..6 {
                for c in 0..6 {
                    s[(6 * a + r) * d + 6 * a + c] = h.d_entry(ha as usize, r, c);
                }
            }
        }
        for slot in 0..h.n_nd {
            let (r, c) = (h.row_of(slot), h.col_of(slot));
            let (pa, pb) = (self.hub_pos[r as usize], self.hub_pos[c as usize]);
            if pa == FREE || pb == FREE {
                continue;
            }
            let blk = h.nd_block(slot);
            let (pa, pb) = (pa as usize, pb as usize);
            for rr in 0..6 {
                for cc in 0..6 {
                    s[(6 * pa + rr) * d + 6 * pb + cc] += blk.0[rr][cc];
                    s[(6 * pb + cc) * d + 6 * pa + rr] += blk.0[rr][cc];
                }
            }
        }
        let mut sum = vec![0.0f64; pairs * 36];
        for tile in partials.chunks_exact(pairs * 36) {
            for (acc, v) in sum.iter_mut().zip(tile) {
                *acc += v;
            }
        }
        for a in 0..m {
            for b in a..m {
                let at = pair_index(m, a, b) * 36;
                for rr in 0..6 {
                    for cc in 0..6 {
                        let v = sum[at + rr * 6 + cc];
                        s[(6 * a + rr) * d + 6 * b + cc] -= v;
                        if a != b {
                            s[(6 * b + cc) * d + 6 * a + rr] -= v;
                        }
                    }
                }
            }
        }
        cholesky(&mut s, d).map_err(|(j, pivot)| PrecondError::ZeroPivot {
            row: 6 * self.hub[j / 6] as usize + j % 6,
            pivot,
        })?;
        self.l.copy_from_slice(&s);
        Ok(())
    }

    /// `z = M⁻¹ r` in two launches; with `rz` the second also leaves the
    /// `r·z` tile partials there and returns their reduction.
    fn solve(
        &self,
        dev: &Device,
        r: &[f64],
        z: &mut Vec<f64>,
        mut rz: Option<&mut Vec<f64>>,
    ) -> f64 {
        let n = self.bj.n_blocks();
        assert_eq!(r.len(), 6 * n);
        let m = self.hub.len();
        let d = 6 * m;
        let n_tiles = n.div_ceil(ROW_TILE).max(1);
        z.clear();
        z.resize(6 * n, 0.0);
        let mut t_part = vec![0.0f64; n_tiles * d];
        let mut xh = vec![0.0f64; d];
        let (cpl, blk_cpl, hub_pos) = (&self.cpl, &self.blk_cpl, &self.hub_pos);
        {
            let b_r = dev.bind_ro(r);
            let b_dinv = dev.bind_ro(self.bj.dinv());
            let b_k = dev.bind_ro(&self.k);
            let b_bc = dev.bind_ro(blk_cpl);
            let b_l = dev.bind_ro(&self.l);
            let b_z = dev.bind(z.as_mut_slice());
            let b_tp = dev.bind(t_part.as_mut_slice());
            let b_xh = dev.bind(xh.as_mut_slice());
            dev.launch_blocks("precond.hub.apply", n_tiles, 256, |blk| {
                Scratch::with(|scratch| {
                    let Scratch {
                        tiles: [rv, dv, y, kv, part, ..],
                        idx: [ia, _],
                        words: [bc, words, ..],
                        ..
                    } = scratch;
                    let (b0, b1) = tile_blocks(blk.block_id, n);
                    let (lo, count) = (6 * b0, 6 * (b1 - b0));
                    // y = D⁻¹ r, Block-Jacobi's arithmetic.
                    blk.gld_range_into(&b_r, lo, count, rv);
                    ia.clear();
                    ia.extend((lo..lo + count).flat_map(|g| {
                        let (i, rr) = (g / 6, g % 6);
                        (0..6).map(move |c| i * 36 + rr * 6 + c)
                    }));
                    blk.gld_gather_into(&b_dinv, ia, dv);
                    blk.flop_masked(count, 12);
                    y.clear();
                    y.extend((0..count).map(|t| block_diag_row(&dv[t * 6..], &rv[t / 6 * 6..])));
                    blk.gst_range(&b_z, lo, y);
                    // The tile's Σ K_Hi y_i, one thread per coupling.
                    blk.gld_range_into(&b_bc, b0, b1 - b0 + 1, bc);
                    let (c0, c1) = (bc[0] as usize, bc[bc.len() - 1] as usize);
                    blk.gld_range_into(&b_k, 36 * c0, 36 * (c1 - c0), kv);
                    blk.flop_masked(c1 - c0, 72);
                    part.clear();
                    part.resize(d, 0.0);
                    for (q, c) in cpl[c0..c1].iter().enumerate() {
                        let yi = &y[6 * (c.free as usize - b0)..];
                        let k = &kv[36 * q..36 * q + 36];
                        let at = 6 * c.hub as usize;
                        for col in 0..6 {
                            let mut acc = 0.0;
                            for row in 0..6 {
                                acc += k[row * 6 + col] * yi[row];
                            }
                            part[at + col] += acc;
                        }
                    }
                    // Each coupling adds its six sums to its hub's slots in
                    // shared memory.
                    words.clear();
                    words.extend(
                        cpl[c0..c1]
                            .iter()
                            .flat_map(|c| (0..6).map(move |k| 6 * c.hub + k)),
                    );
                    blk.smem_access(words);
                    blk.sync();
                    blk.gst_range(&b_tp, blk.block_id * d, part);
                    if blk.block_id + 1 == n_tiles {
                        // The block that finishes last: t = r_H − Σ tiles,
                        // then forward and back substitution with L.
                        blk.gld_range_cost(&b_tp, 0, n_tiles * d);
                        blk.flop_masked(d, n_tiles as u64);
                        blk.gld_range_cost(&b_r, 0, d);
                        blk.gld_range_cost(&b_l, 0, d * d);
                        blk.flop_masked(d, 2 * d as u64);
                        blk.gst_range_cost(&b_xh, 0, d);
                    }
                });
            });
        }
        // The last block's solve, mirrored.
        let mut acc = vec![0.0f64; d];
        for tile in t_part.chunks_exact(d) {
            for (a, v) in acc.iter_mut().zip(tile) {
                *a += v;
            }
        }
        for (a, &hb) in self.hub.iter().enumerate() {
            for k in 0..6 {
                xh[6 * a + k] = r[6 * hb as usize + k] - acc[6 * a + k];
            }
        }
        cholesky_solve(&self.l, d, &mut xh);

        if let Some(p) = rz.as_deref_mut() {
            p.clear();
            p.resize(n_tiles, 0.0);
        }
        {
            let b_r = dev.bind_ro(r);
            let b_w = dev.bind_ro(&self.w);
            let b_bc = dev.bind_ro(blk_cpl);
            let b_hp = dev.bind_ro(hub_pos);
            let b_xh = dev.bind_ro(&xh);
            let b_z = dev.bind(z.as_mut_slice());
            let b_rz = rz.as_deref_mut().map(|p| dev.bind(p.as_mut_slice()));
            let mut scalar = [0.0f64; 1];
            let b_s = dev.bind(&mut scalar[..]);
            dev.launch_blocks("precond.hub.back", n_tiles, 256, |blk| {
                Scratch::with(|scratch| {
                    let Scratch {
                        tiles: [y, wv, xv, out, rv, ..],
                        idx: [ia, ib],
                        words: [bc, hp, ..],
                        ..
                    } = scratch;
                    let (b0, b1) = tile_blocks(blk.block_id, n);
                    let (lo, count) = (6 * b0, 6 * (b1 - b0));
                    blk.gld_range_into(&b_z, lo, count, y);
                    blk.gld_range_into(&b_hp, b0, b1 - b0, hp);
                    blk.gld_range_into(&b_bc, b0, b1 - b0 + 1, bc);
                    // Row (i, rr) reads row rr of each W_iH and x_H at its
                    // hub; a hub row reads its own x_H entry.
                    ia.clear();
                    ib.clear();
                    for g in lo..lo + count {
                        let (i, rr) = (g / 6, g % 6);
                        let (s, e) = (bc[i - b0] as usize, bc[i - b0 + 1] as usize);
                        for (o, c) in cpl.iter().enumerate().take(e).skip(s) {
                            ia.extend((0..6).map(|q| 36 * o + 6 * rr + q));
                            ib.extend((0..6).map(|q| 6 * c.hub as usize + q));
                        }
                        if hp[i - b0] != FREE {
                            ib.push(6 * hp[i - b0] as usize + rr);
                        }
                    }
                    blk.gld_gather_into(&b_w, ia, wv);
                    blk.gld_gather_tex_into(&b_xh, ib, xv);
                    blk.flop_masked(count, 2 * (ia.len() / count.max(1)) as u64);
                    out.clear();
                    let (mut wk, mut xk) = (0, 0);
                    for g in lo..lo + count {
                        let i = g / 6;
                        let (s, e) = (bc[i - b0] as usize, bc[i - b0 + 1] as usize);
                        let mut v = y[g - lo];
                        for _ in s..e {
                            let mut dot = 0.0;
                            for q in 0..6 {
                                dot += wv[wk + q] * xv[xk + q];
                            }
                            v -= dot;
                            wk += 6;
                            xk += 6;
                        }
                        if hp[i - b0] != FREE {
                            v = xv[xk];
                            xk += 1;
                        }
                        out.push(v);
                    }
                    blk.gst_range(&b_z, lo, out);
                    if let Some(b_rz) = &b_rz {
                        // r·z tile partial; the last block reduces them all.
                        blk.gld_range_into(&b_r, lo, count, rv);
                        blk.flop_masked(count, 2);
                        blk.shfl_reduce_cost(count, 32);
                        let partial: f64 = rv.iter().zip(out.iter()).map(|(a, b)| a * b).sum();
                        blk.gst_one(b_rz, blk.block_id, partial);
                        if blk.block_id + 1 == n_tiles {
                            blk.gld_range_cost(b_rz, 0, n_tiles);
                            blk.flop_masked(n_tiles.min(256), 1);
                            blk.shfl_reduce_cost(n_tiles.min(256), 32);
                            blk.gst_range_cost(&b_s, 0, 1);
                        }
                    }
                });
            });
        }
        rz.map_or(0.0, |p| reduce_partials_host(p))
    }
}

/// The row-major 6×6 block starting at `v[0]`.
fn block_of(v: &[f64]) -> Block6 {
    let mut b = Block6::ZERO;
    for (dst, src) in b.0.iter_mut().zip(v.chunks_exact(6)) {
        dst.copy_from_slice(src);
    }
    b
}

/// Regroups `staged`, entry `e` of thread `t` at `e·count + t`, into
/// `out`, thread `t`'s 36 entries at `36t..36t + 36`.
fn by_thread(staged: &[f64], count: usize, out: &mut Vec<f64>) {
    out.clear();
    out.resize(staged.len(), 0.0);
    for (k, &v) in staged.iter().enumerate() {
        out[k % count * 36 + k / count] = v;
    }
}

/// Couplings of free block `i`: `[start, end)` in the coupling list.
fn block_range(blk_cpl: &[u32], i: u32) -> (usize, usize) {
    (
        blk_cpl[i as usize] as usize,
        blk_cpl[i as usize + 1] as usize,
    )
}

/// DDA blocks `[b0, b1)` of apply tile `tile`.
fn tile_blocks(tile: usize, n: usize) -> (usize, usize) {
    let b0 = (tile * ROW_TILE).min(n);
    (b0, (b0 + ROW_TILE).min(n))
}

/// Index of hub pair `(a, b)`, `a ≤ b`, among the `m(m+1)/2` pairs.
fn pair_index(m: usize, a: usize, b: usize) -> usize {
    debug_assert!(a <= b && b < m);
    a * m - a * (a + 1) / 2 + b
}

/// Block-Jacobi's row: `Σ_c dinv[c] · r[c]` in that order.
fn block_diag_row(dinv: &[f64], r: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for c in 0..6 {
        acc += dinv[c] * r[c];
    }
    acc
}

/// In-place Cholesky `S = L Lᵀ` of the row-major `d × d` matrix `s`
/// (lower triangle read, `L` written over it, upper triangle zeroed).
/// `Err((j, pivot))` on the first pivot that is not positive and finite.
fn cholesky(s: &mut [f64], d: usize) -> Result<(), (usize, f64)> {
    for j in 0..d {
        let mut pivot = s[j * d + j];
        for k in 0..j {
            pivot -= s[j * d + k] * s[j * d + k];
        }
        if !(pivot > 0.0 && pivot.is_finite()) {
            return Err((j, pivot));
        }
        let ljj = pivot.sqrt();
        s[j * d + j] = ljj;
        for i in j + 1..d {
            let mut v = s[i * d + j];
            for k in 0..j {
                v -= s[i * d + k] * s[j * d + k];
            }
            s[i * d + j] = v / ljj;
            s[j * d + i] = 0.0;
        }
    }
    Ok(())
}

/// Solves `L Lᵀ x = b` in place.
fn cholesky_solve(l: &[f64], d: usize, x: &mut [f64]) {
    for i in 0..d {
        let mut v = x[i];
        for k in 0..i {
            v -= l[i * d + k] * x[k];
        }
        x[i] = v / l[i * d + i];
    }
    for i in (0..d).rev() {
        let mut v = x[i];
        for k in i + 1..d {
            v -= l[k * d + i] * x[k];
        }
        x[i] = v / l[i * d + i];
    }
}

impl Preconditioner for HubSchur {
    fn name(&self) -> &'static str {
        "BJ+hub"
    }

    fn apply(&self, dev: &Device, r: &[f64]) -> Vec<f64> {
        if self.hub.is_empty() {
            return block_diag_apply(dev, "precond.bj.apply", self.bj.dinv(), r);
        }
        let mut z = Vec::new();
        self.solve(dev, r, &mut z, None);
        z
    }

    fn apply_rz(
        &self,
        dev: &Device,
        r: &[f64],
        z: &mut Vec<f64>,
        rz_partials: &mut Vec<f64>,
    ) -> Option<f64> {
        if self.hub.is_empty() {
            return self.bj.apply_rz(dev, r, z, rz_partials);
        }
        Some(self.solve(dev, r, z, Some(rz_partials)))
    }

    fn block_diag_inv(&self) -> Option<&[f64]> {
        self.hub.is_empty().then(|| self.bj.dinv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::{pcg_fused, PcgOptions, PcgWorkspace};
    use dda_simt::DeviceProfile;
    use dda_sparse::SymBlockMatrix;

    fn dev() -> Device {
        Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
    }

    /// A splitmix64 stream of values in `[-1, 1)`.
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// A random SPD arrow matrix on `n` blocks: every block outside `hub`
    /// couples to one or two hub blocks and to nothing else, the hub blocks
    /// to each other; diagonally dominant, so SPD.
    fn arrow(n: usize, hub: &[u32], seed: u64) -> SymBlockMatrix {
        let mut next = rng(seed);
        let mut block = |scale: f64| {
            let mut b = Block6::ZERO;
            for row in b.0.iter_mut() {
                for v in row.iter_mut() {
                    *v = scale * next();
                }
            }
            b
        };
        let mut upper = Vec::new();
        let mut degree = vec![0usize; n];
        for i in 0..n as u32 {
            if hub.contains(&i) {
                continue;
            }
            let first = hub[i as usize % hub.len()];
            let second = hub[(i as usize / 2 + 1) % hub.len()];
            for hb in if i % 3 == 0 && first != second {
                vec![first, second]
            } else {
                vec![first]
            } {
                upper.push((i.min(hb), i.max(hb), block(1.0)));
                degree[i as usize] += 1;
                degree[hb as usize] += 1;
            }
        }
        for (k, &a) in hub.iter().enumerate() {
            for &b in &hub[k + 1..] {
                upper.push((a, b, block(1.0)));
                degree[a as usize] += 1;
                degree[b as usize] += 1;
            }
        }
        let diag = (0..n)
            .map(|i| {
                let r = block(0.5);
                let mut d = r.matmul(&r.transpose());
                d.add_diag(6.0 * degree[i] as f64 + 1.0);
                d
            })
            .collect();
        SymBlockMatrix::new(diag, upper)
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..6 * n)
            .map(|i| ((i * 7 + 3) % 19) as f64 - 9.0)
            .collect()
    }

    #[test]
    fn arrow_matrices_solve_in_one_iteration() {
        // Hubs below, among and above the free blocks (both storage
        // orientations of K_iH), of one, two and three blocks; 100 blocks
        // span three apply tiles.
        for (n, hub, seed) in [
            (20usize, vec![0u32], 1u64),
            (43, vec![0, 42], 2),
            (100, vec![3, 50, 99], 3),
        ] {
            let m = arrow(n, &hub, seed);
            let h = Hsbcsr::from_sym(&m);
            let d = dev();
            assert_eq!(HubSchur::hub_of(&h, &hub), hub);
            let p = HubSchur::try_new(&d, &h, &hub).expect("SPD arrow factors");
            assert_eq!(p.cpl.len(), m.n_upper() - hub.len() * (hub.len() - 1) / 2);
            // The apply is K⁻¹: K z = r to rounding.
            let r = rhs(n);
            let z = p.apply(&d, &r);
            let back = m.mul_vec(&z);
            let err = back
                .iter()
                .zip(&r)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "n = {n}: |Kz - r| = {err:e}");

            let mut ws = PcgWorkspace::new();
            let res = pcg_fused(
                &d,
                &h,
                &r,
                &vec![0.0; 6 * n],
                &p,
                PcgOptions::default(),
                &mut ws,
            );
            assert!(res.converged && res.iterations == 1, "n = {n}: {res:?}");
            let bj = BlockJacobi::new(&d, &h);
            let plain = pcg_fused(
                &d,
                &h,
                &r,
                &vec![0.0; 6 * n],
                &bj,
                PcgOptions::default(),
                &mut ws,
            );
            assert!(
                plain.iterations > 3,
                "n = {n}: BJ needs {}",
                plain.iterations
            );
        }
    }

    /// Every record of `dev`'s trace: kernel name and counters.
    fn records(dev: &Device) -> Vec<(&'static str, dda_simt::KernelStats)> {
        dev.trace()
            .records
            .iter()
            .map(|r| (r.name, r.stats))
            .collect()
    }

    #[test]
    fn without_a_hub_coupling_it_is_block_jacobi_bitwise() {
        // Block 7 couples to nothing; the scene's fixed blocks past the cap
        // are not eliminated either.
        let mut m = SymBlockMatrix::random_spd(40, 3.0, 5);
        m.upper.retain(|&(i, j, _)| i != 7 && j != 7);
        let h = Hsbcsr::from_sym(&m);
        let many: Vec<u32> = (0..=HUB_CAP as u32).collect();
        for fixed in [vec![], vec![7], many] {
            let hub = HubSchur::hub_of(&h, &fixed);
            assert!(hub.is_empty(), "{fixed:?}");
            let b = rhs(40);
            let x0 = vec![0.0; 240];
            let (d_bj, d_hub) = (dev(), dev());
            let bj = BlockJacobi::new(&d_bj, &h);
            let p = HubSchur::try_new(&d_hub, &h, &hub).unwrap();
            assert!(p.block_diag_inv().is_some(), "the fused path");
            let mut ws = PcgWorkspace::new();
            let want = pcg_fused(&d_bj, &h, &b, &x0, &bj, PcgOptions::default(), &mut ws);
            let got = pcg_fused(&d_hub, &h, &b, &x0, &p, PcgOptions::default(), &mut ws);
            assert_eq!(got.iterations, want.iterations);
            assert_eq!(
                got.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(records(&d_hub), records(&d_bj), "launch for launch");
        }
    }

    #[test]
    fn a_hub_solve_costs_at_most_eleven_launches() {
        // 100 blocks: the vectors span three 256-tiles, so the bridged
        // iteration's ‖r‖² reduction is a launch of its own.
        let hub = [0u32, 99];
        let m = arrow(100, &hub, 9);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let p = HubSchur::try_new(&d, &h, &hub).unwrap();
        let names: Vec<_> = d.trace().records.iter().map(|r| r.name).collect();
        assert_eq!(names, ["precond.bj.construct", "precond.hub.construct"]);
        d.reset_trace();
        let mut ws = PcgWorkspace::new();
        let res = pcg_fused(
            &d,
            &h,
            &rhs(100),
            &vec![0.0; 600],
            &p,
            PcgOptions::default(),
            &mut ws,
        );
        assert_eq!(res.iterations, 1);
        let names: Vec<_> = d.trace().records.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "spmv.hsbcsr.stage1",
                "spmv.hsbcsr.stage2",
                "pcg.fused.residual",
                "precond.hub.apply",
                "precond.hub.back",
                "spmv.hsbcsr.stage1",
                "spmv.hsbcsr.stage2_pq",
                "pcg.fused.axpy2norm",
                "vec.dot.final",
            ]
        );
        assert!(names.len() + 2 <= 11);
    }

    #[test]
    fn singular_blocks_and_a_singular_schur_complement_are_errors() {
        // A singular free block fails in Block-Jacobi's launch.
        let hub = [0u32];
        let mut m = arrow(10, &hub, 4);
        m.diag[5] = Block6::ZERO;
        let h = Hsbcsr::from_sym(&m);
        assert_eq!(
            HubSchur::try_new(&dev(), &h, &hub).err(),
            Some(PrecondError::SingularBlock { block: 5 })
        );
        // K = [I I; I I]: S = I − I·I⁻¹·I = 0 at the hub (block 1).
        let id = Block6::identity();
        let m = SymBlockMatrix::new(vec![id, id], vec![(0, 1, id)]);
        let h = Hsbcsr::from_sym(&m);
        let err = HubSchur::try_new(&dev(), &h, &[1]).err();
        assert!(
            matches!(err, Some(PrecondError::ZeroPivot { row: 6, pivot }) if pivot <= 0.0),
            "{err:?}"
        );
        // And a refactor of a healthy factorization hits the same guard.
        let good = Hsbcsr::from_sym(&arrow(2, &[1], 5));
        let d = dev();
        let mut p = HubSchur::try_new(&d, &good, &[1]).unwrap();
        assert!(p.try_refactor(&d, &h, &[1]).is_err());
    }

    #[test]
    fn pair_indices_cover_the_upper_triangle_once() {
        for m in 1..=HUB_CAP {
            let mut seen = Vec::new();
            for a in 0..m {
                for b in a..m {
                    seen.push(pair_index(m, a, b));
                }
            }
            let want: Vec<usize> = (0..m * (m + 1) / 2).collect();
            seen.sort_unstable();
            assert_eq!(seen, want, "m = {m}");
        }
    }
}
