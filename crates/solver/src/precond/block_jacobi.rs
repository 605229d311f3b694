//! Block-Jacobi preconditioner: `M = blockdiag(A)`.
//!
//! "BJ and Jacobi methods are easy to construct and implement on the GPU"
//! (§II-B): construction inverts every 6×6 diagonal sub-matrix (one thread
//! each, embarrassingly parallel), application is one block-diagonal
//! product. The paper measures 0.059 ms construction / 0.011 ms apply —
//! the cheapest of the three — at the cost of the most iterations (275).

use super::{PrecondError, Preconditioner};
use dda_simt::Device;
use dda_sparse::{Block6, Hsbcsr, Scalar, Scratch};
use std::sync::atomic::{AtomicUsize, Ordering};

/// DDA blocks per thread block of the construction kernel (one thread each):
/// the tile's staged inverses, `TILE × SMEM_ROW` doubles, fit Kepler's 48 KB
/// of shared memory.
const TILE: usize = 128;

/// Shared-memory row stride of one staged inverse, in 8-byte words.
const SMEM_ROW: usize = 37;

/// The row-major 6×6 block held in `row`.
fn block_of(row: &[f64]) -> Block6 {
    let mut b = Block6::ZERO;
    for (dst, src) in b.0.iter_mut().zip(row.chunks_exact(6)) {
        dst.copy_from_slice(src);
    }
    b
}

/// Block-Jacobi preconditioner with precomputed 6×6 inverses.
pub struct BlockJacobi {
    n: usize,
    /// Flat row-major inverses, 36 values per block row.
    dinv: Vec<f64>,
    /// fp32 shadow of `dinv`, written by the same construction launch, so
    /// the mixed solver's inner loop streams the inverses at half the
    /// bytes without a separate demotion pass.
    dinv32: Vec<f32>,
}

impl BlockJacobi {
    /// Inverts the diagonal sub-matrices on the device.
    ///
    /// # Panics
    /// Panics when a diagonal sub-matrix is singular — in DDA the inertia
    /// term guarantees it never is (§IV-A). Use [`BlockJacobi::try_new`]
    /// when the matrix comes from untrusted scene input.
    pub fn new(dev: &Device, m: &Hsbcsr) -> BlockJacobi {
        BlockJacobi::try_new(dev, m)
            .unwrap_or_else(|e| panic!("Block-Jacobi construction failed: {e}"))
    }

    /// Fallible construction: reports the first singular (or non-finite)
    /// diagonal sub-matrix as a structured [`PrecondError`] instead of
    /// panicking inside the construction kernel.
    pub fn try_new(dev: &Device, m: &Hsbcsr) -> Result<BlockJacobi, PrecondError> {
        let mut bj = BlockJacobi {
            n: m.n,
            dinv: vec![0.0f64; 36 * m.n],
            dinv32: vec![0.0f32; 36 * m.n],
        };
        bj.compute(dev, m)?;
        Ok(bj)
    }

    /// Recomputes the inverses in place — the identical single launch as
    /// construction, but reusing the existing allocation. The pipeline's
    /// solver cache calls this every solve, since the diagonal values
    /// change with the contact springs even when the pattern is stable.
    ///
    /// # Panics
    /// Panics on a singular diagonal sub-matrix, like [`BlockJacobi::new`].
    pub fn refactor(&mut self, dev: &Device, m: &Hsbcsr) {
        self.try_refactor(dev, m)
            .unwrap_or_else(|e| panic!("Block-Jacobi refactor failed: {e}"))
    }

    /// Fallible in-place refactor, reporting singular blocks structurally.
    pub fn try_refactor(&mut self, dev: &Device, m: &Hsbcsr) -> Result<(), PrecondError> {
        if self.n != m.n {
            self.n = m.n;
            self.dinv.clear();
            self.dinv.resize(36 * m.n, 0.0);
            self.dinv32.clear();
            self.dinv32.resize(36 * m.n, 0.0);
        }
        self.compute(dev, m)
    }

    fn compute(&mut self, dev: &Device, m: &Hsbcsr) -> Result<(), PrecondError> {
        // Thread blocks run concurrently, so a failed inverse is flagged
        // through an atomic min (lowest failing block wins) and checked
        // after the launch; the kernel itself never panics on scene data.
        let singular = AtomicUsize::new(usize::MAX);
        {
            let n = m.n;
            let b_d = dev.bind_ro(&m.d_data);
            let b_out = dev.bind(self.dinv.as_mut_slice());
            let b_out32 = dev.bind(self.dinv32.as_mut_slice());
            let pad = m.pad_d;
            let flag = &singular;
            dev.launch_blocks("precond.bj.construct", n.div_ceil(TILE), TILE, |blk| {
                f64::with_scratch(|scratch| {
                    let Scratch {
                        tiles: [slice, staged, ..],
                        words: [smem, ..],
                        ..
                    } = scratch;
                    let start = blk.block_id * TILE;
                    let count = TILE.min(n - start);
                    // One thread per DDA block. The sliced layout makes each
                    // of the 36 entry loads one coalesced range per tile.
                    staged.clear();
                    staged.resize(count * 36, 0.0);
                    for e in 0..36 {
                        let at = Hsbcsr::sliced_index(pad, start, e / 6, e % 6);
                        blk.gld_range_into(&b_d, at, count, slice);
                        for (t, &v) in slice.iter().enumerate() {
                            staged[t * 36 + e] = v;
                        }
                    }
                    // 6×6 Gauss–Jordan ≈ 2·6³ flops.
                    blk.flop_masked(count, 430);
                    for (t, row) in staged.chunks_exact_mut(36).enumerate() {
                        let inv = row
                            .iter()
                            .all(|v| v.is_finite())
                            .then(|| block_of(row).inverse())
                            .flatten()
                            .unwrap_or_else(|| {
                                flag.fetch_min(start + t, Ordering::Relaxed);
                                Block6::ZERO
                            });
                        row.copy_from_slice(inv.0.as_flattened());
                    }
                    // A thread storing its own 288-byte inverse would touch
                    // 32 segments per warp and store. Instead the tile's
                    // inverses go through shared memory — row `t` at word
                    // `t·SMEM_ROW`, one word of padding per row so the
                    // 36-word stride does not fold four threads of a warp
                    // onto one bank — and leave in flat `dinv` order, thread
                    // `t` of pass `k` storing element `k·TILE + t`.
                    for e in 0..36 {
                        smem.clear();
                        smem.extend((0..count).map(|t| (t * SMEM_ROW + e) as u32));
                        blk.smem_access(smem);
                    }
                    blk.sync();
                    f32::with_scratch(|scratch32| {
                        let narrow = &mut scratch32.tiles[0];
                        for (pass, vals) in staged.chunks(TILE).enumerate() {
                            let flat = pass * TILE;
                            smem.clear();
                            smem.extend(
                                (flat..flat + vals.len())
                                    .map(|k| (k / 36 * SMEM_ROW + k % 36) as u32),
                            );
                            blk.smem_access(smem);
                            blk.gst_range(&b_out, start * 36 + flat, vals);
                            narrow.clear();
                            narrow.extend(vals.iter().map(|&v| v as f32));
                            blk.gst_range(&b_out32, start * 36 + flat, narrow);
                        }
                    });
                });
            });
        }
        match singular.load(Ordering::Relaxed) {
            usize::MAX => Ok(()),
            block => Err(PrecondError::SingularBlock { block }),
        }
    }

    /// The inverse of diagonal block `i` (diagnostics/tests).
    pub fn block_inverse(&self, i: usize) -> Block6 {
        block_of(&self.dinv[i * 36..(i + 1) * 36])
    }

    /// Raw access for preconditioners that reuse the inverses (SSOR-AI).
    pub(crate) fn dinv(&self) -> &[f64] {
        &self.dinv
    }

    /// Number of block rows.
    pub fn n_blocks(&self) -> usize {
        self.n
    }
}

/// Device kernel: `z_i = Dinv_i · r_i`, one thread per *scalar* row
/// (`6n` threads — six per block — which keeps the kernel occupied even on
/// mid-sized models; one-thread-per-block leaves 5/6 of the device idle).
pub(crate) fn block_diag_apply(
    dev: &Device,
    name: &'static str,
    dinv: &[f64],
    r: &[f64],
) -> Vec<f64> {
    let dim = r.len();
    let mut z = vec![0.0f64; dim];
    {
        let b_dinv = dev.bind_ro(dinv);
        let b_r = dev.bind_ro(r);
        let b_z = dev.bind(&mut z);
        dev.launch(name, dim, |lane| {
            let i = lane.gid / 6;
            let r_ = lane.gid % 6;
            let mut acc = 0.0;
            for c in 0..6 {
                let v = lane.ld(&b_dinv, i * 36 + r_ * 6 + c);
                let rv = lane.ld_tex(&b_r, i * 6 + c);
                lane.flop(2);
                acc += v * rv;
            }
            lane.st(&b_z, lane.gid, acc);
        });
    }
    z
}

impl Preconditioner for BlockJacobi {
    fn name(&self) -> &'static str {
        "BJ"
    }

    fn apply(&self, dev: &Device, r: &[f64]) -> Vec<f64> {
        assert_eq!(r.len(), self.n * 6);
        block_diag_apply(dev, "precond.bj.apply", &self.dinv, r)
    }

    fn block_diag_inv(&self) -> Option<&[f64]> {
        Some(&self.dinv)
    }

    fn block_diag_inv_f32(&self) -> Option<&[f32]> {
        Some(&self.dinv32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_simt::DeviceProfile;
    use dda_sparse::SymBlockMatrix;

    fn dev() -> Device {
        Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
    }

    #[test]
    fn inverts_diagonal_blocks() {
        let m = SymBlockMatrix::random_spd(10, 2.0, 3);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let bj = BlockJacobi::new(&d, &h);
        for i in 0..10 {
            let prod = m.diag[i].matmul(&bj.block_inverse(i));
            for r in 0..6 {
                for c in 0..6 {
                    let expect = if r == c { 1.0 } else { 0.0 };
                    assert!((prod.0[r][c] - expect).abs() < 1e-9, "block {i} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn apply_is_block_diag_solve() {
        let m = SymBlockMatrix::random_spd(8, 2.0, 9);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let bj = BlockJacobi::new(&d, &h);
        let r: Vec<f64> = (0..48).map(|i| (i as f64 * 0.7).cos()).collect();
        let z = bj.apply(&d, &r);
        // D z = r must hold block-wise.
        for i in 0..8 {
            let zi: [f64; 6] = z[i * 6..i * 6 + 6].try_into().unwrap();
            let back = m.diag[i].mul_vec(&zi);
            for c in 0..6 {
                assert!((back[c] - r[i * 6 + c]).abs() < 1e-9);
            }
        }
    }

    /// Every stored inverse, fp64 and fp32, against the host oracle.
    fn assert_matches_host_inverse(bj: &BlockJacobi, m: &SymBlockMatrix) {
        let n = m.diag.len();
        assert_eq!(bj.n_blocks(), n);
        let dinv32 = bj.block_diag_inv_f32().unwrap();
        assert_eq!((bj.dinv().len(), dinv32.len()), (36 * n, 36 * n));
        for (i, d) in m.diag.iter().enumerate() {
            let want = d.inverse().expect("SPD diagonal block");
            for (k, w) in want.0.as_flattened().iter().enumerate() {
                assert_eq!(bj.dinv()[i * 36 + k].to_bits(), w.to_bits(), "block {i}");
                assert_eq!(dinv32[i * 36 + k].to_bits(), (*w as f32).to_bits());
            }
        }
    }

    #[test]
    fn construction_equals_the_host_inverse_bitwise_at_memory_speed() {
        // One, a partial warp, a full tile, one past it, the slope and the
        // scatter benchmark sizes.
        for n in [1, 31, 128, 129, 421, 5001] {
            let m = SymBlockMatrix::random_spd(n, 2.0, n as u64);
            let h = Hsbcsr::from_sym(&m);
            let d = dev();
            assert_matches_host_inverse(&BlockJacobi::new(&d, &h), &m);

            // Still one launch, and every slice load and staged store
            // coalesces: within 10 % of moving the useful bytes in whole
            // 128-byte transactions.
            let trace = d.trace();
            assert_eq!(trace.records.len(), 1, "n = {n}");
            let stats = trace.records[0].stats;
            assert_eq!(stats.gmem_bytes, (n * 36 * (8 + 8 + 4)) as u64);
            let ideal = stats.gmem_bytes.div_ceil(128);
            if n >= TILE {
                assert!(
                    stats.gmem_transactions * 10 <= ideal * 11,
                    "n = {n}: {} transactions, ideal {ideal}",
                    stats.gmem_transactions
                );
            }
            // The padded rows keep the staging writes conflict-free; reads
            // replay at most where a warp crosses a row end.
            assert!(stats.smem_replays * 20 <= stats.smem_accesses, "n = {n}");
        }
    }

    #[test]
    fn refactor_matches_fresh_construction_across_size_changes() {
        let d = dev();
        let sizes = [(12, 3), (12, 4), (300, 5), (7, 6)];
        let mut bj = BlockJacobi::new(
            &d,
            &Hsbcsr::from_sym(&SymBlockMatrix::random_spd(5, 2.0, 1)),
        );
        for (n, seed) in sizes {
            let m = SymBlockMatrix::random_spd(n, 2.0, seed);
            bj.try_refactor(&d, &Hsbcsr::from_sym(&m)).unwrap();
            assert_matches_host_inverse(&bj, &m);
        }
    }

    #[test]
    fn lowest_failing_block_is_reported_and_the_rest_still_inverted() {
        // Singular and non-finite blocks in three different tiles, listed
        // out of order: the lowest index wins whichever thread block
        // finishes first.
        let mut m = SymBlockMatrix::random_spd(300, 2.0, 6);
        m.diag[290] = Block6::ZERO;
        m.diag[131].0[2][4] = f64::NAN;
        m.diag[140] = Block6::ZERO;
        m.diag[257].0[0][0] = f64::INFINITY;
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        assert_eq!(
            BlockJacobi::try_new(&d, &h).err(),
            Some(PrecondError::SingularBlock { block: 131 })
        );
        // Refactor from a healthy factorization hits the same guard, zeroes
        // the failed blocks and inverts every other one.
        let good = Hsbcsr::from_sym(&SymBlockMatrix::random_spd(300, 2.0, 7));
        let mut bj = BlockJacobi::new(&d, &good);
        assert_eq!(
            bj.try_refactor(&d, &h),
            Err(PrecondError::SingularBlock { block: 131 })
        );
        for i in 0..300 {
            let want = if [131, 140, 257, 290].contains(&i) {
                Block6::ZERO
            } else {
                m.diag[i].inverse().unwrap()
            };
            assert_eq!(bj.block_inverse(i), want, "block {i}");
        }
    }

    #[test]
    fn construction_is_one_launch() {
        let m = SymBlockMatrix::random_spd(20, 2.0, 1);
        let h = Hsbcsr::from_sym(&m);
        let d = dev();
        let _bj = BlockJacobi::new(&d, &h);
        let by = d.trace().by_kernel();
        assert_eq!(by["precond.bj.construct"].0.launches, 1);
        assert_eq!(by.len(), 1, "BJ construction must be a single kernel");
    }
}
