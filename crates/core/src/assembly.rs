//! Global stiffness assembly — serial reference and the paper's
//! write-conflict-free GPU scheme (Fig 4).
//!
//! Blocks `i` and `j` "usually include several contact data" (§III-C), so
//! naively accumulating `k_ii`, `k_ij`, `k_jj` from concurrent threads
//! races. The GPU scheme instead:
//!
//! 1. each contact computes its sub-matrices in parallel into array `D`
//!    with a sub-matrix key (block-pair number);
//! 2. `D`'s keys are radix-sorted;
//! 3. segment boundaries are found (`di[i] = (SD[i]−SD[i−1]==0)?1:0`) and
//!    scanned;
//! 4. each distinct sub-matrix is the segmented sum of its run.
//!
//! "All the sort and scan steps act on the block number and index; the
//! data of a sub-matrix are moved only for assembly in the final step" —
//! implemented the same way here: the argsort permutes indices, and the
//! 36-value payloads are gathered once by the reduction kernel. The whole
//! path runs with the simulator's write-conflict detector armed in tests.
//!
//! That stream is [`assemble_contacts_gpu`], the oracle. The engine's
//! default path ([`crate::assembly_cache`]) sorts the keys once per contact
//! list and replaces steps 1 and 4 by one gather launch; its kernels (the
//! key stream and the slot-parallel gather, with the per-plan pricing of
//! the gather's fixed work) live here, beside the spring evaluation they
//! share with step 1.

use crate::contact::types::Contact;
use crate::contact::GeomSoa;
use crate::params::DdaParams;
use crate::stiffness::perblock::{build_diag_gpu, build_diag_serial, BlockSoa};
use crate::stiffness::springs::{contact_spring_terms, SpringTerms};
use crate::system::BlockSystem;
use dda_geom::Vec2;
use dda_simt::primitives::{segment_starts, sort::argsort_u64};
use dda_simt::serial::CpuCounter;
use dda_simt::{Block, Device, GBuf, KernelStats, Lane, WARP_SIZE};
use dda_sparse::{Block6, SymBlockMatrix};
use std::collections::HashMap;

/// An assembled linear system `K d = F`.
#[derive(Debug, Clone)]
pub struct AssembledSystem {
    /// Symmetric half-stored stiffness matrix.
    pub matrix: SymBlockMatrix,
    /// Right-hand side (6 entries per block).
    pub rhs: Vec<f64>,
}

/// Per-contact joint parameters flattened for the kernels.
fn joint_params(sys: &BlockSystem, contacts: &[Contact]) -> Vec<f64> {
    let mut out = Vec::new();
    fill_joint_params(sys, contacts, &mut out);
    out
}

/// In-place refill of the flattened joint parameters (two entries per
/// contact: `tan φ`, cohesion). Reuses the vector's capacity so a warmed
/// per-step workspace refills without heap traffic.
pub(crate) fn fill_joint_params(sys: &BlockSystem, contacts: &[Contact], out: &mut Vec<f64>) {
    out.clear();
    for c in contacts {
        let jm = sys.joint_of(c.i as usize, c.j as usize);
        out.push(jm.tan_phi());
        out.push(jm.cohesion);
    }
}

/// Serial assembly: diagonal terms plus contact springs accumulated into a
/// hash map.
pub fn assemble_serial(
    sys: &BlockSystem,
    contacts: &[Contact],
    params: &DdaParams,
    counter: &mut CpuCounter,
) -> AssembledSystem {
    let (diag, rhs) = build_diag_serial(sys, params, counter);
    assemble_contacts_serial(sys, contacts, params, diag, rhs, counter)
}

/// Non-diagonal building only: adds the contact-spring terms to
/// precomputed diagonal terms (the pipeline times the two modules
/// separately, as Tables II–III report them separately).
pub fn assemble_contacts_serial(
    sys: &BlockSystem,
    contacts: &[Contact],
    params: &DdaParams,
    mut diag: Vec<Block6>,
    mut rhs: Vec<f64>,
    counter: &mut CpuCounter,
) -> AssembledSystem {
    let mut upper: HashMap<(u32, u32), Block6> = HashMap::new();

    for c in contacts {
        let bi = &sys.blocks[c.i as usize];
        let bj = &sys.blocks[c.j as usize];
        let p1 = bi.poly.vertex(c.vertex as usize);
        let seg = bj.poly.edge(c.edge as usize);
        let jm = sys.joint_of(c.i as usize, c.j as usize);
        counter.flop(600);
        counter.bytes(200);
        let Some(t) = contact_spring_terms(
            c,
            bi.centroid(),
            bj.centroid(),
            p1,
            seg.a,
            seg.b,
            params.penalty,
            params.shear_ratio,
            jm.tan_phi(),
            jm.cohesion,
        ) else {
            continue;
        };
        diag[c.i as usize] += t.kii;
        diag[c.j as usize] += t.kjj;
        let (r, col, block) = if c.i < c.j {
            (c.i, c.j, t.kij)
        } else {
            (c.j, c.i, t.kji())
        };
        *upper.entry((r, col)).or_insert(Block6::ZERO) += block;
        for k in 0..6 {
            rhs[6 * c.i as usize + k] += t.fi[k];
            rhs[6 * c.j as usize + k] += t.fj[k];
        }
        counter.flop(36 * 3 + 12);
        counter.bytes(36 * 3 * 8);
    }

    let upper_vec: Vec<(u32, u32, Block6)> =
        upper.into_iter().map(|((r, c), b)| (r, c, b)).collect();
    AssembledSystem {
        matrix: SymBlockMatrix::new(diag, upper_vec),
        rhs,
    }
}

/// GPU assembly following Fig 4.
pub fn assemble_gpu(
    dev: &Device,
    sys: &BlockSystem,
    gsoa: &GeomSoa,
    bsoa: &BlockSoa,
    contacts: &[Contact],
    params: &DdaParams,
) -> AssembledSystem {
    let (diag, rhs) = build_diag_gpu(dev, sys, bsoa, params);
    assemble_contacts_gpu(dev, sys, gsoa, contacts, params, diag, rhs)
}

/// GPU non-diagonal building only (Fig 4), over precomputed diagonal
/// terms.
pub fn assemble_contacts_gpu(
    dev: &Device,
    sys: &BlockSystem,
    gsoa: &GeomSoa,
    contacts: &[Contact],
    params: &DdaParams,
    mut diag: Vec<Block6>,
    mut rhs: Vec<f64>,
) -> AssembledSystem {
    let nc = contacts.len();
    if nc == 0 {
        return AssembledSystem {
            matrix: SymBlockMatrix::new(diag, Vec::new()),
            rhs,
        };
    }
    let n = sys.len() as u64;
    let jparams = joint_params(sys, contacts);

    // --- Step 1: per-contact sub-matrix computation into array D ------------
    // Three keyed 36-f64 payloads per contact (k_ii, k_jj, upper(i,j)) and
    // two keyed 6-f64 force payloads.
    let mut d_vals = vec![0.0f64; nc * 3 * 36];
    let mut d_keys = vec![u64::MAX; nc * 3];
    let mut f_vals = vec![0.0f64; nc * 2 * 6];
    let mut f_keys = vec![u64::MAX; nc * 2];
    {
        let inp = SpringInputs::bind(dev, gsoa, contacts, &jparams, params);
        let b_dv = dev.bind(&mut d_vals);
        let b_dk = dev.bind(&mut d_keys);
        let b_fv = dev.bind(&mut f_vals);
        let b_fk = dev.bind(&mut f_keys);
        dev.launch("nondiag.compute", nc, |lane| {
            let t_idx = lane.gid;
            let c = lane.ld(&inp.contacts, t_idx);
            // Open contacts and degenerate edges are abandoned: their
            // slots keep the MAX key and sort to the tail.
            if !lane.branch(0, c.state.closed()) {
                return;
            }
            let Some(t) = inp.eval(lane, t_idx, &c) else {
                return;
            };

            let store_block = |lane: &mut Lane, slot: usize, key: u64, b: &Block6| {
                lane.st(&b_dk, slot, key);
                for r in 0..6 {
                    for cc in 0..6 {
                        lane.st(&b_dv, slot * 36 + r * 6 + cc, b.0[r][cc]);
                    }
                }
            };
            let keys = contact_keys(&c, n);
            store_block(lane, 3 * t_idx, keys[0], &t.kii);
            store_block(lane, 3 * t_idx + 1, keys[1], &t.kjj);
            let off = if c.i < c.j { t.kij } else { t.kji() };
            store_block(lane, 3 * t_idx + 2, keys[2], &off);

            lane.st(&b_fk, 2 * t_idx, c.i as u64);
            lane.st(&b_fk, 2 * t_idx + 1, c.j as u64);
            for k in 0..6 {
                lane.st(&b_fv, 2 * t_idx * 6 + k, t.fi[k]);
                lane.st(&b_fv, (2 * t_idx + 1) * 6 + k, t.fj[k]);
            }
        });
    }

    // --- Steps 2–5: sort, boundaries, segmented reduction --------------------
    let plan = ReducePlan::build(dev, &d_keys);
    let mut upper = Vec::new();
    if plan.n_seg() > 0 {
        let sums = reduce_segments(dev, "assembly.reduce_blocks", &plan, &d_vals, 36);
        for (s, sum) in sums.chunks_exact(36).enumerate() {
            let (r, c) = ((plan.key(s) / n) as u32, (plan.key(s) % n) as u32);
            let blk = block_from(sum);
            if r == c {
                diag[r as usize] += blk;
            } else {
                upper.push((r, c, blk));
            }
        }
    }
    let plan = ReducePlan::build(dev, &f_keys);
    if plan.n_seg() > 0 {
        let sums = reduce_segments(dev, "assembly.reduce_forces", &plan, &f_vals, 6);
        for (s, f) in sums.chunks_exact(6).enumerate() {
            let b = plan.key(s) as usize;
            for k in 0..6 {
                rhs[6 * b + k] += f[k];
            }
        }
    }

    AssembledSystem {
        matrix: SymBlockMatrix::new(diag, upper),
        rhs,
    }
}

/// A 6×6 block from 36 row-major values.
fn block_from(vals: &[f64]) -> Block6 {
    let mut b = Block6::ZERO;
    for (r, row) in b.0.iter_mut().enumerate() {
        row.copy_from_slice(&vals[r * 6..r * 6 + 6]);
    }
    b
}

/// The three sub-matrix keys of a contact as `row · n + col` — `k_ii`,
/// `k_jj`, and the upper-triangle block of the pair. They depend on
/// `(i, j)` only: a contact's state decides whether its slots are live,
/// never where they sort.
pub(crate) fn contact_keys(c: &Contact, n: u64) -> [u64; 3] {
    let (i, j) = (c.i as u64, c.j as u64);
    [i * n + i, j * n + j, i.min(j) * n + i.max(j)]
}

/// Device views of what one contact's spring evaluation reads.
struct SpringInputs<'a> {
    contacts: GBuf<'a, Contact>,
    vx: GBuf<'a, f64>,
    vy: GBuf<'a, f64>,
    vptr: GBuf<'a, u32>,
    cx: GBuf<'a, f64>,
    cy: GBuf<'a, f64>,
    jparams: GBuf<'a, f64>,
    penalty: f64,
    shear_ratio: f64,
}

impl<'a> SpringInputs<'a> {
    fn bind(
        dev: &Device,
        gsoa: &'a GeomSoa,
        contacts: &'a [Contact],
        jparams: &'a [f64],
        params: &DdaParams,
    ) -> Self {
        SpringInputs {
            contacts: dev.bind_ro(contacts),
            vx: dev.bind_ro(&gsoa.vx),
            vy: dev.bind_ro(&gsoa.vy),
            vptr: dev.bind_ro(&gsoa.vptr),
            cx: dev.bind_ro(&gsoa.cx),
            cy: dev.bind_ro(&gsoa.cy),
            jparams: dev.bind_ro(jparams),
            penalty: params.penalty,
            shear_ratio: params.shear_ratio,
        }
    }

    /// Gathers closed contact `t`'s geometry and evaluates its springs, for
    /// the Fig 4 store kernel. [`SpringInputs::eval_warp`] makes the same
    /// loads ([`SpringInputs::addrs`]) and the same `contact_spring_terms`
    /// call ([`SpringInputs::terms`]) for the gather, so the two paths add
    /// the same bits.
    fn eval(&self, lane: &mut Lane, t: usize, c: &Contact) -> Option<SpringTerms> {
        let ptr = vptr_addrs(c).map(|a| lane.ld_tex(&self.vptr, a));
        let addrs = Self::addrs(c, t, ptr);
        let vals: [f64; INPUTS] = std::array::from_fn(|k| match k {
            0..=5 => lane.ld_tex([&self.vx, &self.vy][k % 2], addrs[k]),
            6..=9 => lane.ld_tex([&self.cx, &self.cy][k % 2], addrs[k]),
            _ => lane.ld(&self.jparams, addrs[k]),
        });
        lane.flop(600);
        self.terms(c, &vals)
    }

    /// Where contact `t`'s spring inputs are, in load order, given its
    /// blocks' vertex offsets `vptr[i]`, `vptr[j]`, `vptr[j + 1]`: (x, y)
    /// of the vertex, of the edge's two ends and of the two centroids, then
    /// the joint's tan φ and cohesion.
    fn addrs(c: &Contact, t: usize, ptr: [u32; 3]) -> [usize; INPUTS] {
        let (i0, j0) = (ptr[0] as usize, ptr[1] as usize);
        let e = c.edge as usize;
        let e1 = (e + 1) % (ptr[2] as usize - j0);
        let (v, i, j) = (i0 + c.vertex as usize, c.i as usize, c.j as usize);
        [
            v,
            v,
            j0 + e,
            j0 + e,
            j0 + e1,
            j0 + e1,
            i,
            i,
            j,
            j,
            2 * t,
            2 * t + 1,
        ]
    }

    /// The springs of contact `c` from its inputs, in [`SpringInputs::addrs`]
    /// order.
    fn terms(&self, c: &Contact, vals: &[f64; INPUTS]) -> Option<SpringTerms> {
        let at = |k: usize| Vec2::new(vals[k], vals[k + 1]);
        contact_spring_terms(
            c,
            at(6),
            at(8),
            at(0),
            at(2),
            at(4),
            self.penalty,
            self.shear_ratio,
            vals[10],
            vals[11],
        )
    }

    /// [`SpringInputs::eval`] for the closed slots `sc.live` of one warp,
    /// each of its loads one warp-wide gather: fills `sc.terms` at the
    /// slots' threads.
    fn eval_warp(&self, blk: &mut Block, sc: &mut GatherScratch) {
        let GatherScratch {
            idx,
            live,
            terms,
            ptr,
            addrs,
            geom,
            ..
        } = sc;
        if live.is_empty() {
            return;
        }
        for (k, vals) in ptr.iter_mut().enumerate() {
            idx.clear();
            idx.extend(live.iter().map(|(_, _, c)| vptr_addrs(c)[k]));
            blk.gld_gather_tex_into(&self.vptr, idx, vals);
        }
        addrs.clear();
        addrs.extend(
            live.iter()
                .enumerate()
                .map(|(n, &(_, t, c))| Self::addrs(&c, t, [ptr[0][n], ptr[1][n], ptr[2][n]])),
        );
        for (k, vals) in geom.iter_mut().enumerate() {
            idx.clear();
            idx.extend(addrs.iter().map(|a| a[k]));
            match k {
                0..=5 => blk.gld_gather_tex_into([&self.vx, &self.vy][k % 2], idx, vals),
                6..=9 => blk.gld_gather_tex_into([&self.cx, &self.cy][k % 2], idx, vals),
                _ => blk.gld_gather_into(&self.jparams, idx, vals),
            }
        }
        // At most one warp's lanes: `flop_masked` charges the one warp.
        blk.flop_masked(live.len(), 600);
        for (n, (l, _, c)) in live.iter().enumerate() {
            terms[*l] = self.terms(c, &std::array::from_fn(|k| geom[k][n]));
        }
    }
}

/// Spring inputs a contact loads after its three `vptr` entries.
const INPUTS: usize = 12;

/// The `vptr` entries contact `c`'s spring inputs are found from, in load
/// order: `i`, `j`, `j + 1`.
fn vptr_addrs(c: &Contact) -> [usize; 3] {
    [c.i as usize, c.j as usize, c.j as usize + 1]
}

/// A keyed-reduction plan: the radix argsort and segment boundaries of one
/// keyed array (Fig 4 steps 2–4). The sort is stable, so a segment lists
/// its slots in increasing slot order.
#[derive(Debug, Default)]
pub(crate) struct ReducePlan {
    /// Sorted keys, truncated to the valid (non-`u64::MAX`) prefix.
    pub(crate) sorted_keys: Vec<u64>,
    /// Argsort permutation over the valid prefix.
    pub(crate) perm: Vec<u32>,
    /// Segment starts over the valid prefix (`len = n_seg + 1`; empty when
    /// no key is valid).
    pub(crate) starts: Vec<u32>,
}

impl ReducePlan {
    /// Argsort + segment boundaries of `keys` on the device.
    pub(crate) fn build(dev: &Device, keys: &[u64]) -> ReducePlan {
        let (mut sorted_keys, mut perm) = argsort_u64(dev, keys);
        let valid = sorted_keys.partition_point(|&k| k != u64::MAX);
        sorted_keys.truncate(valid);
        perm.truncate(valid);
        let starts = if valid > 0 {
            segment_starts(dev, &sorted_keys).1
        } else {
            Vec::new()
        };
        ReducePlan {
            sorted_keys,
            perm,
            starts,
        }
    }

    /// Number of segments (distinct keys).
    pub(crate) fn n_seg(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// The key of segment `s`.
    pub(crate) fn key(&self, s: usize) -> u64 {
        self.sorted_keys[self.starts[s] as usize]
    }
}

/// Segmented sum of `w`-wide payloads under `plan` (Fig 4 step 5): thread
/// `s` adds segment `s`'s payloads in plan order from `+0.0`.
fn reduce_segments(
    dev: &Device,
    name: &'static str,
    plan: &ReducePlan,
    vals: &[f64],
    w: usize,
) -> Vec<f64> {
    let mut out = vec![0.0f64; plan.n_seg() * w];
    let b_starts = dev.bind_ro(&plan.starts);
    let b_perm = dev.bind_ro(&plan.perm);
    let b_vals = dev.bind_ro(vals);
    let b_out = dev.bind(&mut out);
    dev.launch(name, plan.n_seg(), |lane| {
        let s = lane.gid;
        let lo = lane.ld(&b_starts, s) as usize;
        let hi = lane.ld(&b_starts, s + 1) as usize;
        let mut acc = [0.0f64; 36];
        for m in lo..hi {
            let src = lane.ld(&b_perm, m) as usize;
            for (k, a) in acc[..w].iter_mut().enumerate() {
                *a += lane.ld_tex(&b_vals, src * w + k);
            }
            lane.flop(w as u32);
        }
        for (k, v) in acc[..w].iter().enumerate() {
            lane.st(&b_out, s * w + k, *v);
        }
    });
    drop(b_out);
    out
}

/// Kernel `nondiag.keys`: thread `t` writes contact `t`'s three
/// [`contact_keys`] into slots `3t..3t + 3` — the state-independent key
/// stream a gather plan is sorted from.
pub(crate) fn contact_keys_gpu(dev: &Device, n: u64, contacts: &[Contact], keys: &mut [u64]) {
    let b_c = dev.bind_ro(contacts);
    let b_k = dev.bind(keys);
    dev.launch("nondiag.keys", contacts.len(), |lane| {
        let t = lane.gid;
        let c = lane.ld(&b_c, t);
        lane.flop(6);
        for (role, key) in contact_keys(&c, n).into_iter().enumerate() {
            lane.st(&b_k, 3 * t + role, key);
        }
    });
}

/// Threads per block of `assembly.gather`, and slots per window.
pub(crate) const GATHER_BLOCK: usize = 128;

/// Entries a slot hands over in one pass.
const PASS_ENTRIES: usize = 6;

/// Hand-over passes: six carry the role's block (entries 0–35, row-major),
/// the seventh the role's force (entries 36–41, `+0.0` for the upper role).
const PASSES: usize = 7;

/// Entries a slot hands over in all, the live flag aside.
const ENTRIES: usize = PASS_ENTRIES * PASSES;

/// Words per staging row. Seven is odd, so the rows of a warp's 32 threads
/// start in 32 distinct banks and every staging pass is conflict-free; pass
/// 0 puts the slot's live flag in the spare seventh word.
const ROW_WORDS: usize = 7;

/// Shared-memory word of the owned segments' starts (at most 128, plus
/// the end), after a staging row per thread. The store transposes reuse the
/// rows: a pass holds at most `7 · 128` sums.
const STARTS_WORD: usize = GATHER_BLOCK * ROW_WORDS;

/// Shared-memory word of the two bounds thread 0 finds.
const BOUNDS_WORD: usize = STARTS_WORD + GATHER_BLOCK + 1;

/// Shared memory of one gather block: the staging rows (8-byte words), the
/// starts and the bounds (4-byte words).
const GATHER_SMEM_BYTES: usize = STARTS_WORD * 8 + (BOUNDS_WORD + 2 - STARTS_WORD) * 4;

// Four blocks — 16 warps, the occupancy `DeviceProfile::full_occupancy_warps`
// prices — fit in the 48 KB of shared memory of a Kepler SM.
const _: () = assert!(GATHER_SMEM_BYTES <= 12 * 1024);

/// Columns of staging pass `p`: its entries, and the live flag in pass 0.
fn pass_width(p: usize) -> usize {
    if p == 0 {
        ROW_WORDS
    } else {
        PASS_ENTRIES
    }
}

/// The first segment whose start is at or past slot `x` (`n_seg` if none),
/// by binary search over `starts[0..n_seg]` read through `start`.
fn first_start_at_or_past(n_seg: usize, x: usize, mut start: impl FnMut(usize) -> u32) -> usize {
    let (mut lo, mut hi) = (0, n_seg);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if (start(mid) as usize) < x {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The work of `assembly.gather` that depends on the plan alone, priced
/// once per plan, one entry per block: the shared-memory traffic and
/// barriers of the bounds, every round, pass and store transpose, and
/// phase 2's adds. Dead slots stage `+0.0` like live ones, so no part of
/// this depends on which contacts are closed. Accesses whose words are
/// distinct banks by construction are charged in closed form: the staging
/// rows (odd stride), the starts (consecutive words) and the broadcast
/// reads of the bounds and starts (one word, or a warp's at most eight
/// consecutive starts). Phase 2's reads and the transposes are counted
/// from their patterns, bank by bank, allocating nothing but `out`.
pub(crate) fn gather_priced_costs(starts: &[u32], out: &mut Vec<KernelStats>) {
    out.clear();
    let n_seg = starts.len().saturating_sub(1);
    if n_seg == 0 {
        return;
    }
    let n_slots = starts[n_seg] as usize;
    for b in 0..n_slots.div_ceil(GATHER_BLOCK) {
        let s0 = first_start_at_or_past(n_seg, GATHER_BLOCK * b, |s| starts[s]);
        let s1 = first_start_at_or_past(n_seg, GATHER_BLOCK * (b + 1), |s| starts[s]);
        // Thread 0 stages the two bounds; every thread reads both back.
        let mut cost = KernelStats {
            smem_accesses: (2 + 2 * GATHER_BLOCK) as u64,
            syncs: 1,
            ..KernelStats::default()
        };
        if s0 < s1 {
            let seg = &starts[s0..=s1];
            let g = s1 - s0;
            // Threads 0..=g stage the owned starts; every thread reads the
            // first and the last back, and the two bounds of each of its
            // phase-2 items, under both column counts, once.
            let item_bounds = 2 * (ROW_WORDS + PASS_ENTRIES) * g;
            cost.smem_accesses += (g + 1 + 2 * GATHER_BLOCK + item_bounds) as u64;
            cost.syncs += 1;
            let hi = seg[g] as usize;
            let mut base = seg[0] as usize;
            while base < hi {
                let end = (base + GATHER_BLOCK).min(hi);
                for p in 0..PASSES {
                    let w = pass_width(p);
                    // Phase 1: thread t writes words 7t..7t + w.
                    cost.smem_accesses += (w * (end - base)) as u64;
                    cost.syncs += 1;
                    price_phase2_pass(&mut cost, seg, base, end, w);
                    cost.syncs += 1;
                }
                base += GATHER_BLOCK;
            }
            // The store transpose of each pass: item (u, c) writes word
            // `c · g + u`, a barrier, and thread `c · g + u` reads it back.
            for p in 0..PASSES {
                let n = pass_width(p) * g;
                let w = pass_width(p);
                price_smem(&mut cost, n, |i| (i % w) * g + i / w);
                cost.syncs += 1;
                price_smem(&mut cost, n, |i| i);
                cost.syncs += 1;
            }
        }
        out.push(cost);
    }
}

/// One lockstep shared-memory access of threads `0..n`, thread `i` at word
/// `word(i)`, warp by warp.
fn price_smem(cost: &mut KernelStats, n: usize, word: impl Fn(usize) -> usize) {
    for first in (0..n).step_by(WARP_SIZE) {
        cost.smem_warp((first..n.min(first + WARP_SIZE)).map(&word));
    }
}

/// Phase 2 of one pass over the window `[base, end)`: item `i = u · w + c`
/// (owned segment `u`, column `c`) runs on thread `i mod 128`, its
/// `i / 128`-th item, so a warp holds about five segments' columns. The
/// lanes of a warp add their segment's in-window slots in lockstep, a lane
/// reading word `7 · row + c` at each step.
fn price_phase2_pass(cost: &mut KernelStats, seg: &[u32], base: usize, end: usize, w: usize) {
    let n_items = w * (seg.len() - 1);
    // (first row, column, length) of each lane of a warp.
    let mut lanes = [(0usize, 0usize, 0usize); WARP_SIZE];
    for first in (0..n_items).step_by(WARP_SIZE) {
        let mut longest = 0;
        for (l, lane) in lanes.iter_mut().enumerate() {
            let i = first + l;
            *lane = (0, 0, 0);
            if i >= n_items {
                continue;
            }
            let (u, c) = (i / w, i % w);
            let a = (seg[u] as usize).max(base);
            let e = (seg[u + 1] as usize).min(end);
            if a < e {
                *lane = (a - base, c, e - a);
                cost.flops += (e - a) as u64;
                longest = longest.max(e - a);
            }
        }
        cost.warp_flops += (WARP_SIZE * longest) as u64;
        for k in 0..longest {
            let active = lanes.iter().filter(|lane| lane.2 > k);
            cost.smem_warp(active.map(|&(row, c, _)| ROW_WORDS * (row + k) + c));
        }
    }
}

/// Per-block staging of `assembly.gather`, reused by every block a host
/// thread runs.
#[derive(Default)]
struct GatherScratch {
    /// The owned segments' starts, `starts[s0..=s1]`.
    starts: Vec<u32>,
    /// The slot indices (`perm`) of a warp's active threads.
    slots: Vec<u32>,
    idx: Vec<usize>,
    contacts: Vec<Contact>,
    /// A warp's branch mask.
    mask: Vec<bool>,
    /// `(thread, contact index, contact)` of a warp's closed slots.
    live: Vec<(usize, usize, Contact)>,
    /// The spring terms of a warp's threads; `None` for dead slots.
    terms: Vec<Option<SpringTerms>>,
    ptr: [Vec<u32>; 3],
    /// The input addresses of a warp's closed slots.
    addrs: Vec<[usize; INPUTS]>,
    geom: [Vec<f64>; INPUTS],
    /// Accumulators, entry-major: entry `e` of owned segment `u` at
    /// `e · g + u`.
    acc: Vec<f64>,
    n_live: Vec<u32>,
    pairs: Vec<(usize, f64)>,
    live_pairs: Vec<(usize, u32)>,
}

thread_local! {
    static GATHER_SCRATCH: std::cell::RefCell<GatherScratch> =
        std::cell::RefCell::new(GatherScratch::default());
}

/// Kernel `assembly.gather`: the segmented sums of `plan`, one thread per
/// slot, in 128-thread blocks over the slot array in plan order. Block `b`
/// owns the segments that start in slots `[128b, 128b + 128)`; thread 0
/// finds them by binary search of `plan.starts`. The block then runs
/// rounds over windows of 128 slots, from its first owned slot `lo` until
/// its last owned segment ends (anchoring the windows at `lo` leaves one
/// short warp per block, where windows at `128(b + r)` would split the
/// warp at every block's edge between two blocks):
///
/// * **Phase 1.** Thread `t` of round `r` takes slot `m = lo + 128r + t`
///   if an owned segment holds it: it loads `perm[m]` — contact
///   `perm[m] / 3` in role `perm[m] % 3` — and the contact; if the contact
///   is closed it evaluates the springs (the loads, flops and
///   `contact_spring_terms` call of [`SpringInputs::eval`]) and keeps its
///   role's 36 block entries and 6 force entries.
/// * **Hand-over.** The 42 values cross shared memory six at a time, one
///   row of stride 7 per thread, with a barrier before and after each pass.
///   A dead slot (open contact, degenerate edge) stages `+0.0`.
/// * **Phase 2.** One thread per (owned segment, entry) adds that entry
///   over the segment's in-window slots in plan order; accumulators live
///   across rounds, so a segment that runs past a window continues in the
///   next. Pass 0 also counts the live flags.
/// * **Stores.** Each pass's sums cross shared memory once more, so that a
///   warp stores consecutive segments of one entry.
///
/// Every sum is the Fig 4 oracle's bits: the same function's output added
/// in the same (slot) order from `+0.0`, and the staged `+0.0` of a dead
/// slot changes no sum — a sum that starts at `+0.0` is never `−0.0`
/// (`x + y` is `−0.0` only when both are), and adding `+0.0` to anything
/// else returns it unchanged. The diagonal segment of block `b` holds the
/// slots the force stream's segment `b` holds, so the forces need no plan
/// of their own.
///
/// Outputs are entry-major in plan order: `n_live[s]` for every segment,
/// and `out[k · n_seg + s]` and `fout[k · n_seg + s]` (`+0.0` for upper
/// segments) where `n_live[s] > 0`. What depends on the plan alone is
/// charged from `priced` ([`gather_priced_costs`]); loads, branches, the
/// spring flops and the stores are charged as they run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_segments(
    dev: &Device,
    gsoa: &GeomSoa,
    contacts: &[Contact],
    jparams: &[f64],
    params: &DdaParams,
    plan: &ReducePlan,
    priced: &[KernelStats],
    n_live: &mut [u32],
    out: &mut [f64],
    fout: &mut [f64],
) {
    let n_seg = plan.n_seg();
    let n_blocks = plan.perm.len().div_ceil(GATHER_BLOCK);
    assert_eq!(
        priced.len(),
        n_blocks,
        "gather costs priced for another plan"
    );
    let inp = SpringInputs::bind(dev, gsoa, contacts, jparams, params);
    let b_starts = dev.bind_ro(&plan.starts);
    let b_perm = dev.bind_ro(&plan.perm);
    let b_live = dev.bind(n_live);
    let b_out = dev.bind(out);
    let b_fout = dev.bind(fout);
    dev.launch_blocks("assembly.gather", n_blocks, GATHER_BLOCK, |blk| {
        GATHER_SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            let b = blk.block_id;
            let bound = |blk: &mut Block, x: usize| {
                first_start_at_or_past(n_seg, x, |s| {
                    blk.flop_one(2);
                    blk.gld_one(&b_starts, s)
                })
            };
            let s0 = bound(blk, GATHER_BLOCK * b);
            let s1 = bound(blk, GATHER_BLOCK * (b + 1));
            blk.charge(&priced[b]);
            if s0 == s1 {
                return;
            }
            let g = s1 - s0;
            blk.gld_range_into(&b_starts, s0, g + 1, &mut sc.starts);
            let (lo, hi) = (sc.starts[0] as usize, sc.starts[g] as usize);
            sc.acc.clear();
            sc.acc.resize(ENTRIES * g, 0.0);
            sc.n_live.clear();
            sc.n_live.resize(g, 0);
            let mut u = 0;
            let mut base = lo;
            while base < hi {
                for w in 0..GATHER_BLOCK / WARP_SIZE {
                    let first = base + w * WARP_SIZE;
                    let end = (first + WARP_SIZE).min(hi);
                    if first >= end {
                        continue;
                    }
                    stage_warp(blk, &inp, &b_perm, first, end, sc);
                    for (l, m) in (first..end).enumerate() {
                        while sc.starts[u + 1] as usize <= m {
                            u += 1;
                        }
                        accumulate(sc, l, u, g);
                    }
                }
                base += GATHER_BLOCK;
            }
            store_sums(blk, sc, s0, n_seg, &b_out, &b_fout, &b_live);
        });
    });
}

/// Phase 1 of the warp whose active threads take slots `first..end`: the
/// slot and contact loads, the closed/open branch and, for the closed
/// contacts, [`SpringInputs::eval_warp`]. Leaves `sc.slots` and `sc.terms`
/// one per thread.
fn stage_warp(
    blk: &mut Block,
    inp: &SpringInputs,
    b_perm: &GBuf<u32>,
    first: usize,
    end: usize,
    sc: &mut GatherScratch,
) {
    blk.gld_range_into(b_perm, first, end - first, &mut sc.slots);
    sc.idx.clear();
    sc.idx
        .extend(sc.slots.iter().map(|&slot| slot as usize / 3));
    blk.gld_gather_into(&inp.contacts, &sc.idx, &mut sc.contacts);
    sc.mask.clear();
    sc.mask.extend(sc.contacts.iter().map(|c| c.state.closed()));
    blk.branch_mask(0, &sc.mask);
    sc.live.clear();
    sc.live.extend(
        sc.contacts
            .iter()
            .zip(&sc.idx)
            .enumerate()
            .filter(|(_, (c, _))| c.state.closed())
            .map(|(l, (c, &t))| (l, t, *c)),
    );
    sc.terms.clear();
    sc.terms.resize(end - first, None);
    inp.eval_warp(blk, sc);
}

/// Adds thread `l`'s staged entries to owned segment `u`'s accumulators,
/// `+0.0` for a dead slot.
fn accumulate(sc: &mut GatherScratch, l: usize, u: usize, g: usize) {
    let acc = &mut sc.acc;
    let Some(t) = &sc.terms[l] else {
        for e in 0..ENTRIES {
            acc[e * g + u] += 0.0;
        }
        return;
    };
    let slot = sc.slots[l] as usize;
    let c = &sc.contacts[l];
    let upper;
    let (blk, force) = match slot % 3 {
        0 => (&t.kii, Some(&t.fi)),
        1 => (&t.kjj, Some(&t.fj)),
        _ => {
            upper = if c.i < c.j { t.kij } else { t.kji() };
            (&upper, None)
        }
    };
    for (e, v) in blk.0.iter().flatten().enumerate() {
        acc[e * g + u] += v;
    }
    for k in 0..6 {
        acc[(36 + k) * g + u] += force.map_or(0.0, |f| f[k]);
    }
    sc.n_live[u] += 1;
}

/// The stores of every pass, after the sums cross shared memory once more
/// (priced in [`gather_priced_costs`]) so that thread `i` holds item
/// `(u, c) = (i mod g, i / g)`: a warp stores runs of consecutive
/// segments of one entry. Live counts are stored for every segment, sums
/// only where the segment has a live slot.
fn store_sums(
    blk: &mut Block,
    sc: &mut GatherScratch,
    s0: usize,
    n_seg: usize,
    b_out: &GBuf<f64>,
    b_fout: &GBuf<f64>,
    b_live: &GBuf<u32>,
) {
    let g = sc.n_live.len();
    for p in 0..PASSES {
        let w = pass_width(p);
        let n_items = w * g;
        for first in (0..n_items).step_by(WARP_SIZE) {
            sc.pairs.clear();
            sc.live_pairs.clear();
            sc.mask.clear();
            for i in first..n_items.min(first + WARP_SIZE) {
                let (u, c) = (i % g, i / g);
                if c == PASS_ENTRIES {
                    sc.live_pairs.push((s0 + u, sc.n_live[u]));
                    continue;
                }
                sc.mask.push(sc.n_live[u] > 0);
                if sc.n_live[u] == 0 {
                    continue;
                }
                let e = p * PASS_ENTRIES + c;
                let k = if e < 36 { e } else { e - 36 };
                sc.pairs.push((k * n_seg + s0 + u, sc.acc[e * g + u]));
            }
            blk.branch_mask(1, &sc.mask);
            blk.gst_scatter(if p + 1 < PASSES { b_out } else { b_fout }, &sc.pairs);
            if !sc.live_pairs.is_empty() {
                blk.gst_scatter(b_live, &sc.live_pairs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::contact::narrow::narrow_phase_serial;
    use crate::contact::types::{ContactKind, ContactState};
    use crate::material::{BlockMaterial, JointMaterial};
    use dda_geom::Polygon;
    use dda_simt::DeviceProfile;

    fn stack() -> (BlockSystem, Vec<Contact>, DdaParams) {
        let sys = BlockSystem::new(
            vec![
                Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed(),
                Block::new(Polygon::rect(0.0, 0.0, 1.0, 1.0), 0),
                Block::new(Polygon::rect(1.0, 0.0, 2.0, 1.0), 0),
            ],
            BlockMaterial::rock(),
            JointMaterial::frictional(30.0),
        );
        let params = DdaParams::for_model(1.0, 5e9);
        let mut cnt = CpuCounter::new();
        let mut contacts = narrow_phase_serial(
            &sys,
            &[(0, 1), (0, 2), (1, 2)],
            params.contact_range,
            &mut cnt,
        );
        crate::contact::init::init_contacts_serial(
            &sys,
            &mut contacts,
            params.touch_tol * params.max_displacement,
            &mut cnt,
        );
        assert!(contacts.iter().any(|c| c.state == ContactState::Lock));
        (sys, contacts, params)
    }

    fn dev() -> Device {
        Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
    }

    #[test]
    fn serial_assembly_produces_solvable_system() {
        let (sys, contacts, params) = stack();
        let mut cnt = CpuCounter::new();
        let asm = assemble_serial(&sys, &contacts, &params, &mut cnt);
        assert_eq!(asm.matrix.n_blocks(), 3);
        assert!(asm.matrix.n_upper() >= 2, "stacked blocks must couple");
        // The matrix must be SPD enough for PCG: solve and check residual.
        let mut c2 = CpuCounter::new();
        let res = dda_solver::serial::pcg_serial_bj(
            &asm.matrix,
            &asm.rhs,
            &vec![0.0; asm.matrix.dim()],
            params.pcg,
            &mut c2,
        );
        assert!(res.converged, "PCG failed: {} iters", res.iterations);
    }

    #[test]
    fn gpu_assembly_matches_serial() {
        let (sys, contacts, params) = stack();
        let mut cnt = CpuCounter::new();
        let a_serial = assemble_serial(&sys, &contacts, &params, &mut cnt);
        let d = dev();
        let gsoa = GeomSoa::build(&sys);
        let bsoa = BlockSoa::build(&sys);
        let a_gpu = assemble_gpu(&d, &sys, &gsoa, &bsoa, &contacts, &params);

        assert_eq!(a_serial.matrix.n_upper(), a_gpu.matrix.n_upper());
        for (s, g) in a_serial.matrix.upper.iter().zip(&a_gpu.matrix.upper) {
            assert_eq!((s.0, s.1), (g.0, g.1));
            let scale = s.2.max_abs().max(1.0);
            for r in 0..6 {
                for c in 0..6 {
                    assert!(
                        (s.2 .0[r][c] - g.2 .0[r][c]).abs() < 1e-9 * scale,
                        "upper ({},{}) entry ({r},{c})",
                        s.0,
                        s.1
                    );
                }
            }
        }
        for i in 0..sys.len() {
            let scale = a_serial.matrix.diag[i].max_abs();
            for r in 0..6 {
                for c in 0..6 {
                    assert!(
                        (a_serial.matrix.diag[i].0[r][c] - a_gpu.matrix.diag[i].0[r][c]).abs()
                            < 1e-9 * scale,
                        "diag {i} ({r},{c})"
                    );
                }
            }
        }
        for k in 0..a_serial.rhs.len() {
            assert!(
                (a_serial.rhs[k] - a_gpu.rhs[k]).abs() < 1e-6 * a_serial.rhs[k].abs().max(1.0),
                "rhs[{k}]"
            );
        }
    }

    #[test]
    fn open_contacts_contribute_nothing() {
        let (sys, mut contacts, params) = stack();
        for c in contacts.iter_mut() {
            c.state = ContactState::Open;
        }
        let mut cnt = CpuCounter::new();
        let asm = assemble_serial(&sys, &contacts, &params, &mut cnt);
        assert_eq!(asm.matrix.n_upper(), 0);
        let d = dev();
        let gsoa = GeomSoa::build(&sys);
        let bsoa = BlockSoa::build(&sys);
        let a_gpu = assemble_gpu(&d, &sys, &gsoa, &bsoa, &contacts, &params);
        assert_eq!(a_gpu.matrix.n_upper(), 0);
    }

    #[test]
    fn no_contacts_diag_only() {
        let (sys, _, params) = stack();
        let d = dev();
        let gsoa = GeomSoa::build(&sys);
        let bsoa = BlockSoa::build(&sys);
        let asm = assemble_gpu(&d, &sys, &gsoa, &bsoa, &[], &params);
        assert_eq!(asm.matrix.n_upper(), 0);
        assert_eq!(asm.matrix.n_blocks(), 3);
    }

    /// The gather's staging argument on the kernel's own accumulation: a
    /// dead slot adds `+0.0` to every sum of its segment, and each sum still
    /// has the bits of the oracle's, which skips the slot — also when live
    /// terms carry `−0.0` entries. `contact_spring_terms` never returns
    /// `−0.0` (every entry is a sum that starts at `+0.0`), so the terms
    /// are drawn here: signed zeros, subnormals and values of either sign,
    /// with whole segments of `−0.0` in some entries.
    #[test]
    fn staged_zeros_keep_the_oracle_bits_with_negative_zero_terms() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let draw_value = |rng: &mut StdRng, all_neg_zero: bool| {
            let sign = if rng.gen::<bool>() { -1.0 } else { 1.0 };
            if all_neg_zero {
                return -0.0;
            }
            match rng.gen_range(0..5) {
                0 => -0.0,
                1 => 0.0,
                2 => sign * f64::from_bits(rng.gen::<u64>() >> 12),
                _ => sign * 1e3 * rng.gen::<f64>(),
            }
        };
        let mut sc = GatherScratch::default();
        for draw in 0..200 {
            let g = rng.gen_range(1..6);
            // Per segment, its slots: `None` dead, else the role's 42 staged
            // entries.
            let mut segments = Vec::new();
            for _ in 0..g {
                let neg_zero_seg = rng.gen_range(0..10) < 3;
                let role = rng.gen_range(0..3);
                let slots: Vec<Option<[f64; ENTRIES]>> = (0..rng.gen_range(1..8))
                    .map(|_| {
                        (rng.gen_range(0..10) < 6).then(|| {
                            std::array::from_fn(|e| {
                                if role == 2 && e >= 36 {
                                    0.0
                                } else {
                                    draw_value(&mut rng, neg_zero_seg && e % 5 == 0)
                                }
                            })
                        })
                    })
                    .collect();
                segments.push((role, slots));
            }
            sc.acc.clear();
            sc.acc.resize(ENTRIES * g, 0.0);
            sc.n_live.clear();
            sc.n_live.resize(g, 0);
            for (u, (role, slots)) in segments.iter().enumerate() {
                for staged in slots {
                    sc.slots.clear();
                    sc.slots.push(*role as u32);
                    sc.contacts.clear();
                    sc.contacts
                        .push(Contact::new(0, 1, 0, 0, u32::MAX, ContactKind::Ve));
                    sc.terms.clear();
                    sc.terms.push(staged.map(|v| {
                        let block = block_from(&v[..36]);
                        let force: [f64; 6] = std::array::from_fn(|k| v[36 + k]);
                        SpringTerms {
                            kii: block,
                            kij: block,
                            kjj: block,
                            fi: force,
                            fj: force,
                        }
                    }));
                    accumulate(&mut sc, 0, u, g);
                }
            }
            for (u, (_, slots)) in segments.iter().enumerate() {
                for e in 0..ENTRIES {
                    let mut oracle = 0.0f64;
                    for v in slots.iter().flatten() {
                        oracle += v[e];
                    }
                    assert_eq!(
                        sc.acc[e * g + u].to_bits(),
                        oracle.to_bits(),
                        "draw {draw}, segment {u}, entry {e}"
                    );
                }
                assert_eq!(sc.n_live[u] as usize, slots.iter().flatten().count());
            }
        }
    }

    /// The shared-memory traffic, barriers and phase-2 adds of gather block
    /// `b` under `starts`, charged access by access through the block's own
    /// counters the way the kernel runs them.
    fn walk_gather_block(blk: &mut dda_simt::Block, starts: &[u32], b: usize) {
        let n_seg = starts.len() - 1;
        let first_at = |x: usize| starts[..n_seg].partition_point(|&s| (s as usize) < x);
        let (s0, s1) = (first_at(GATHER_BLOCK * b), first_at(GATHER_BLOCK * (b + 1)));
        let all = |word: usize| vec![word as u32; GATHER_BLOCK];
        // Thread 0 stages the bounds, one store each; every thread reads
        // them back.
        blk.smem_access(&[BOUNDS_WORD as u32]);
        blk.smem_access(&[BOUNDS_WORD as u32 + 1]);
        blk.sync();
        blk.smem_broadcast(&all(BOUNDS_WORD));
        blk.smem_broadcast(&all(BOUNDS_WORD + 1));
        if s0 == s1 {
            return;
        }
        let g = s1 - s0;
        let seg = &starts[s0..=s1];
        let words = |r: std::ops::Range<usize>, f: &dyn Fn(usize) -> usize| -> Vec<u32> {
            r.map(|i| f(i) as u32).collect()
        };
        // Threads `0..=g` stage the owned starts; every thread reads the
        // first and the last.
        blk.smem_access(&words(0..g + 1, &|t| STARTS_WORD + t));
        blk.sync();
        blk.smem_broadcast(&all(STARTS_WORD));
        blk.smem_broadcast(&all(STARTS_WORD + g));
        // Item `i` of `w` columns is owned segment `i / w`, column `i % w`,
        // on thread `i mod 128`: one block-wide instruction per 128 items.
        let item_rounds = |w: usize| {
            (0..w * g)
                .step_by(GATHER_BLOCK)
                .map(move |first| first..(first + GATHER_BLOCK).min(w * g))
        };
        for w in [ROW_WORDS, PASS_ENTRIES] {
            for bound in 0..2 {
                for items in item_rounds(w) {
                    blk.smem_broadcast(&words(items, &|i| STARTS_WORD + i / w + bound));
                }
            }
        }
        let (lo, hi) = (seg[0] as usize, seg[g] as usize);
        for base in (lo..hi).step_by(GATHER_BLOCK) {
            let end = (base + GATHER_BLOCK).min(hi);
            for p in 0..PASSES {
                let w = pass_width(p);
                // Phase 1: thread `t` stores its slot's `w` entries in row `t`.
                for c in 0..w {
                    blk.smem_access(&words(0..end - base, &|t| ROW_WORDS * t + c));
                }
                blk.sync();
                // Phase 2: each warp steps through its items' in-window
                // rows together; a lane whose segment has a row left reads
                // it and adds.
                for items in item_rounds(w) {
                    for warp in items.step_by(WARP_SIZE) {
                        let lanes: Vec<(usize, usize)> = (warp..(warp + WARP_SIZE).min(w * g))
                            .filter_map(|i| {
                                let (u, c) = (i / w, i % w);
                                let a = (seg[u] as usize).max(base);
                                let e = (seg[u + 1] as usize).min(end);
                                (a < e).then(|| (ROW_WORDS * (a - base) + c, e - a))
                            })
                            .collect();
                        for k in 0..lanes.iter().map(|l| l.1).max().unwrap_or(0) {
                            let active: Vec<u32> = lanes
                                .iter()
                                .filter(|l| l.1 > k)
                                .map(|l| (l.0 + ROW_WORDS * k) as u32)
                                .collect();
                            blk.smem_access(&active);
                            blk.flop_masked(active.len(), 1);
                        }
                    }
                }
                blk.sync();
            }
        }
        // Stores: item `(u, c)` of each pass writes its sum to word
        // `c · g + u`, and thread `j` reads word `j` back.
        for p in 0..PASSES {
            let w = pass_width(p);
            for items in item_rounds(w) {
                blk.smem_access(&words(items, &|i| (i % w) * g + i / w));
            }
            blk.sync();
            for items in item_rounds(w) {
                blk.smem_access(&words(items, &|j| j));
            }
            blk.sync();
        }
    }

    /// Plan starts from segment lengths.
    fn starts_of(lens: &[usize]) -> Vec<u32> {
        std::iter::once(0)
            .chain(lens.iter().scan(0, |at, &l| {
                *at += l as u32;
                Some(*at)
            }))
            .collect()
    }

    /// The per-plan pricing of `assembly.gather` against a walk of the
    /// kernel's loops that charges every access through `Block`: the
    /// plan shapes of the gather's bitwise test (blocks owning 126 to 302
    /// slots, a segment across three windows, blocks owning nothing), the
    /// skewed 30/8/1 plan and random plans.
    #[test]
    fn gather_pricing_matches_a_walk_of_the_kernel() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let pair = |k: usize| [k, k, k];
        let disjoint = |counts: &[usize]| counts.iter().flat_map(|&k| pair(k)).collect::<Vec<_>>();
        // Segments of a chain of pairs with `count[p]` contacts on pair `p`:
        // diagonal, upper, diagonal, …
        let chain = |count: &[usize]| {
            let mut lens = vec![count[0]];
            for (p, &k) in count.iter().enumerate() {
                lens.push(k);
                lens.push(k + count.get(p + 1).copied().unwrap_or(0));
            }
            lens
        };
        let mut plans = vec![
            disjoint(&[42]),
            disjoint(&[42, 1]),
            disjoint(&[43, 1, 41, 1]),
            disjoint(&[30, 8, 1, 30, 8, 1]),
            chain(
                &(0..24)
                    .map(|p| if p == 0 { 300 } else { 1 + p % 3 })
                    .collect::<Vec<_>>(),
            ),
            chain(&(0..20).map(|p| 2 + p % 4).collect::<Vec<_>>()),
            (0..96).flat_map(|b| pair([30, 8, 1][b % 3])).collect(),
        ];
        let mut rng = StdRng::seed_from_u64(37);
        for _ in 0..6 {
            plans.push(
                (0..rng.gen_range(1..200))
                    .map(|_| match rng.gen_range(0..20) {
                        0 => rng.gen_range(100..350),
                        _ => rng.gen_range(1..40),
                    })
                    .collect(),
            );
        }
        let dev = Device::new(DeviceProfile::tesla_k40());
        let mut priced = Vec::new();
        for (n, lens) in plans.iter().enumerate() {
            let starts = starts_of(lens);
            gather_priced_costs(&starts, &mut priced);
            assert_eq!(
                priced.len(),
                (starts[lens.len()] as usize).div_ceil(GATHER_BLOCK)
            );
            for (b, cost) in priced.iter().enumerate() {
                let mut walked = dev.launch_blocks("gather.walk", 1, GATHER_BLOCK, |blk| {
                    walk_gather_block(blk, &starts, b)
                });
                (walked.launches, walked.threads, walked.warps) = (0, 0, 0);
                assert_eq!(&walked, cost, "plan {n}, block {b}");
            }
        }
    }

    #[test]
    fn assembly_kernels_traced() {
        let (sys, contacts, params) = stack();
        let d = dev();
        let gsoa = GeomSoa::build(&sys);
        let bsoa = BlockSoa::build(&sys);
        let _ = assemble_gpu(&d, &sys, &gsoa, &bsoa, &contacts, &params);
        let by = d.trace().by_kernel();
        assert!(by.contains_key("diag.build"));
        assert!(by.contains_key("nondiag.compute"));
        assert!(by.contains_key("radix.histogram"));
        assert!(by.contains_key("assembly.reduce_blocks"));
        assert!(by.contains_key("assembly.reduce_forces"));
    }
}
