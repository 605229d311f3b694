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
//! key stream, the gather and the gather's thread schedule) live here,
//! beside the spring evaluation they share with step 1.

use crate::contact::types::Contact;
use crate::contact::GeomSoa;
use crate::params::DdaParams;
use crate::stiffness::perblock::{build_diag_gpu, build_diag_serial, BlockSoa};
use crate::stiffness::springs::{contact_spring_terms, SpringTerms};
use crate::system::BlockSystem;
use dda_geom::Vec2;
use dda_simt::primitives::{scan_exclusive_u32, segment_starts, sort::argsort_u64};
use dda_simt::serial::CpuCounter;
use dda_simt::{Device, GBuf, Lane, WARP_SIZE};
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
    diag: Vec<Block6>,
    rhs: Vec<f64>,
) -> AssembledSystem {
    assemble_contacts_gpu_scheduled(dev, sys, gsoa, contacts, params, diag, rhs, None)
}

/// [`assemble_contacts_gpu`] with an optional scheduling permutation over
/// the per-contact threads of `nondiag.compute`: thread `t` computes the
/// sub-matrices of contact `sched[t]` and stores into *that contact's*
/// keyed slots, so the keyed arrays — and everything downstream of the
/// radix sort — are bitwise identical to the unscheduled path. Only the
/// warp composition at the closed/abandoned branch (site 0) changes,
/// which is what a class-sorted schedule exploits. Wrong-length schedules
/// are ignored.
#[allow(clippy::too_many_arguments)]
pub fn assemble_contacts_gpu_scheduled(
    dev: &Device,
    sys: &BlockSystem,
    gsoa: &GeomSoa,
    contacts: &[Contact],
    params: &DdaParams,
    mut diag: Vec<Block6>,
    mut rhs: Vec<f64>,
    sched: Option<&[u32]>,
) -> AssembledSystem {
    let nc = contacts.len();
    if nc == 0 {
        return AssembledSystem {
            matrix: SymBlockMatrix::new(diag, Vec::new()),
            rhs,
        };
    }
    let sched = sched.filter(|s| s.len() == nc);
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
        let b_sched = sched.map(|s| dev.bind_ro(s));
        dev.launch("nondiag.compute", nc, |lane| {
            let t_idx = match &b_sched {
                Some(b) => lane.ld(b, lane.gid) as usize,
                None => lane.gid,
            };
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

    /// Gathers closed contact `t`'s geometry and evaluates its springs —
    /// one body for the Fig 4 store kernel and the segment gather, so the
    /// two paths add the same bits.
    fn eval(&self, lane: &mut Lane, t: usize, c: &Contact) -> Option<SpringTerms> {
        let i0 = lane.ld_tex(&self.vptr, c.i as usize) as usize;
        let j0 = lane.ld_tex(&self.vptr, c.j as usize) as usize;
        let nj = lane.ld_tex(&self.vptr, c.j as usize + 1) as usize - j0;
        let p1 = Vec2::new(
            lane.ld_tex(&self.vx, i0 + c.vertex as usize),
            lane.ld_tex(&self.vy, i0 + c.vertex as usize),
        );
        let e = c.edge as usize;
        let p2 = Vec2::new(lane.ld_tex(&self.vx, j0 + e), lane.ld_tex(&self.vy, j0 + e));
        let e1 = (e + 1) % nj;
        let p3 = Vec2::new(
            lane.ld_tex(&self.vx, j0 + e1),
            lane.ld_tex(&self.vy, j0 + e1),
        );
        let ci = Vec2::new(
            lane.ld_tex(&self.cx, c.i as usize),
            lane.ld_tex(&self.cy, c.i as usize),
        );
        let cj = Vec2::new(
            lane.ld_tex(&self.cx, c.j as usize),
            lane.ld_tex(&self.cy, c.j as usize),
        );
        let tan_phi = lane.ld(&self.jparams, 2 * t);
        let cohesion = lane.ld(&self.jparams, 2 * t + 1);
        lane.flop(600);
        contact_spring_terms(
            c,
            ci,
            cj,
            p1,
            p2,
            p3,
            self.penalty,
            self.shear_ratio,
            tan_phi,
            cohesion,
        )
    }
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

/// The thread schedule of [`gather_segments`] over a [`ReducePlan`]: which
/// gather thread (*position*) sums which segment, and where its slots lie.
/// Position `q` walks the slot indices at `walk[first_q + stride · k]`,
/// `k = 0, 1, …`, below `end_q`, and stores its sums at `q`.
///
/// * **Plan order** (a plan of at most one warp of segments): position
///   `q` is segment `q`, its walk is the plan's own
///   `perm[starts[q]..starts[q + 1]]` at stride 1. Within one warp the
///   order of the segments cannot change the cost — the warp pays its
///   longest lane whatever lane that is — so nothing is built.
/// * **Length-sorted, jagged-diagonal** (more than one warp): positions
///   take the segments in descending slot count, so a warp's lanes walk
///   segments of nearly one length, and slot `k` of lane `ℓ` in warp `w`
///   sits at `base_w + 32k + ℓ` — the `k`-th loads of a warp's lanes are
///   32 consecutive words. `base_w` is 32 × the sum of the earlier warps'
///   longest segments.
///
/// Built once per plan by [`GatherSchedule::build`], on the device.
#[derive(Debug, Default)]
pub(crate) struct GatherSchedule {
    /// The position of segment `s`; empty in plan order.
    pos: Vec<u32>,
    /// `first_q` at `q`, `end_q` at `n_seg + q`; empty in plan order.
    bounds: Vec<u32>,
    /// Slot indices in jagged-diagonal layout; empty in plan order.
    walk: Vec<u32>,
}

impl GatherSchedule {
    /// The schedule of `plan`: plan order up to one warp of segments,
    /// else the segment lengths (`assembly.sched.lengths`), their stable
    /// radix argsort read backwards, the warp bases (`assembly.sched.
    /// heights` and a scan) and one relayout launch
    /// (`assembly.sched.layout`).
    pub(crate) fn build(dev: &Device, plan: &ReducePlan) -> GatherSchedule {
        let n_seg = plan.n_seg();
        if n_seg <= WARP_SIZE {
            return GatherSchedule::default();
        }
        let mut lens = vec![0u64; n_seg];
        {
            let b_starts = dev.bind_ro(&plan.starts);
            let b_lens = dev.bind(&mut lens);
            dev.launch("assembly.sched.lengths", n_seg, |lane| {
                let s = lane.gid;
                let lo = lane.ld(&b_starts, s);
                let hi = lane.ld(&b_starts, s + 1);
                lane.flop(1);
                lane.st(&b_lens, s, u64::from(hi - lo));
            });
        }
        // Ascending and stable; position q reads index n_seg − 1 − q.
        let (sorted_lens, order) = argsort_u64(dev, &lens);
        let n_warps = n_seg.div_ceil(WARP_SIZE);
        let mut heights = vec![0u32; n_warps];
        {
            let b_sorted = dev.bind_ro(&sorted_lens);
            let b_h = dev.bind(&mut heights);
            dev.launch("assembly.sched.heights", n_warps, |lane| {
                let w = lane.gid;
                // Lane 0 of warp w holds the warp's longest segment.
                let longest = lane.ld(&b_sorted, n_seg - 1 - w * WARP_SIZE);
                lane.flop(1);
                lane.st(&b_h, w, (WARP_SIZE as u64 * longest) as u32);
            });
        }
        let (bases, total) = scan_exclusive_u32(dev, &heights);
        let mut sched = GatherSchedule {
            pos: vec![0; n_seg],
            bounds: vec![0; 2 * n_seg],
            walk: vec![0; total as usize],
        };
        {
            let b_order = dev.bind_ro(&order);
            let b_starts = dev.bind_ro(&plan.starts);
            let b_perm = dev.bind_ro(&plan.perm);
            let b_bases = dev.bind_ro(&bases);
            let b_pos = dev.bind(&mut sched.pos);
            let b_bounds = dev.bind(&mut sched.bounds);
            let b_walk = dev.bind(&mut sched.walk);
            dev.launch("assembly.sched.layout", n_seg, |lane| {
                let q = lane.gid;
                let s = lane.ld(&b_order, n_seg - 1 - q) as usize;
                let lo = lane.ld(&b_starts, s) as usize;
                let hi = lane.ld(&b_starts, s + 1) as usize;
                let first = lane.ld(&b_bases, q / WARP_SIZE) as usize + lane.lane_id as usize;
                for k in 0..hi - lo {
                    let slot = lane.ld(&b_perm, lo + k);
                    lane.st(&b_walk, first + WARP_SIZE * k, slot);
                }
                lane.flop(2 + (hi - lo) as u32);
                lane.st(&b_bounds, q, first as u32);
                lane.st(&b_bounds, n_seg + q, (first + WARP_SIZE * (hi - lo)) as u32);
                lane.st(&b_pos, s, q as u32);
            });
        }
        sched
    }

    /// Positions are segments (no schedule was built).
    pub(crate) fn is_plan_order(&self) -> bool {
        self.pos.is_empty()
    }

    /// The position whose sums hold segment `s`.
    pub(crate) fn position(&self, s: usize) -> usize {
        self.pos.get(s).map_or(s, |&q| q as usize)
    }
}

/// Kernel `assembly.gather`: thread `q` owns one segment of `plan` (one
/// distinct block pair), the one `sched` gives position `q`, and walks its
/// slots in plan order. Slot `3t + role` belongs to contact `t`; if the
/// contact is closed and its edge is not degenerate the thread recomputes
/// its spring terms and adds the role's block (`k_ii` | `k_jj` | upper)
/// and, for the two diagonal roles, the role's force. The walk visits
/// exactly the live slots the Fig 4 sort would have put in this segment,
/// in the same order, and adds them from `+0.0`, so the sums are the
/// oracle's bits whichever thread computes them; the diagonal segment of
/// block `b` holds the slots the force stream's segment `b` holds, so the
/// forces need no plan of their own.
///
/// Outputs are position-minor (`out[k · n_seg + q]`) so a warp's stores
/// coalesce, and are written only where `n_live[q] > 0`; the caller reads
/// segment `s` at [`GatherSchedule::position`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_segments(
    dev: &Device,
    gsoa: &GeomSoa,
    contacts: &[Contact],
    jparams: &[f64],
    params: &DdaParams,
    plan: &ReducePlan,
    sched: &GatherSchedule,
    n_live: &mut [u32],
    out: &mut [f64],
    fout: &mut [f64],
) {
    let n_seg = plan.n_seg();
    // (first_q, end_q) sit at (q, q + end_off) of `bounds`; walks step by
    // `stride`.
    let (bounds, end_off, walk, stride) = if sched.is_plan_order() {
        (&plan.starts, 1, &plan.perm, 1)
    } else {
        (&sched.bounds, n_seg, &sched.walk, WARP_SIZE)
    };
    let inp = SpringInputs::bind(dev, gsoa, contacts, jparams, params);
    let b_bounds = dev.bind_ro(bounds);
    let b_walk = dev.bind_ro(walk);
    let b_live = dev.bind(n_live);
    let b_out = dev.bind(out);
    let b_fout = dev.bind(fout);
    dev.launch("assembly.gather", n_seg, |lane| {
        let q = lane.gid;
        let first = lane.ld(&b_bounds, q) as usize;
        let end = lane.ld(&b_bounds, q + end_off) as usize;
        let mut acc = [0.0f64; 36];
        let mut facc = [0.0f64; 6];
        let (mut live, mut diagonal) = (0u32, false);
        for m in (first..end).step_by(stride) {
            let slot = lane.ld(&b_walk, m) as usize;
            let (t, role) = (slot / 3, slot % 3);
            let c = lane.ld(&inp.contacts, t);
            if !lane.branch(0, c.state.closed()) {
                continue;
            }
            let Some(terms) = inp.eval(lane, t, &c) else {
                continue;
            };
            let (blk, force) = match role {
                0 => (terms.kii, Some(terms.fi)),
                1 => (terms.kjj, Some(terms.fj)),
                _ if c.i < c.j => (terms.kij, None),
                _ => (terms.kji(), None),
            };
            for (a, v) in acc.iter_mut().zip(blk.0.iter().flatten()) {
                *a += v;
            }
            lane.flop(36);
            if let Some(f) = force {
                for (a, v) in facc.iter_mut().zip(f) {
                    *a += v;
                }
                lane.flop(6);
                diagonal = true;
            }
            live += 1;
        }
        lane.st(&b_live, q, live);
        if !lane.branch(1, live > 0) {
            return;
        }
        for (k, v) in acc.iter().enumerate() {
            lane.st(&b_out, k * n_seg + q, *v);
        }
        if diagonal {
            for (k, v) in facc.iter().enumerate() {
                lane.st(&b_fout, k * n_seg + q, *v);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::contact::narrow::narrow_phase_serial;
    use crate::contact::types::ContactState;
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
