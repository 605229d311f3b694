//! The shipped non-diagonal assembly: a reduction plan per contact list, a
//! segment gather per open–close iteration.
//!
//! One rule carries the module: **keys are geometry, liveness is state.** A
//! contact's three sub-matrix keys depend on its block pair `(i, j)` only,
//! and the contact list is fixed from detection to commit, so the radix
//! sort and segment boundaries of Fig 4 are a property of the *list*. The
//! open–close loop and the Δt retries change which contacts are closed —
//! never where a contact's slots sort.
//!
//! * **Plan, per contact list.** [`AssemblyCache::begin_step`] compares the
//!   fresh list's keys with the ones the standing plan was sorted from —
//!   once per detection, on the host. Only when they differ does the next
//!   assemble launch `nondiag.keys`, sort and find the boundaries again; a
//!   settled scene sorts once for the whole run. The gather's work that
//!   depends on the plan alone — its shared-memory traffic, barriers and
//!   segment sums — is priced then, on the host, one entry per block.
//! * **Gather, per iteration.** Every assemble is one `assembly.gather`
//!   launch of 128-thread blocks, one thread per slot in plan order: each
//!   thread recomputes its slot's spring terms if the contact is closed,
//!   the terms cross shared memory, and one thread per (segment, entry)
//!   adds them in plan order (see `assembly::gather_segments`). Nothing
//!   per-contact is stored in between.
//!
//! The result is bitwise the system `AssemblyReuse::Recompute` — Fig 4 from
//! scratch, kept as the oracle and the paper-table path — assembles: a
//! stable sort orders a segment by slot index, the live slots of that
//! order are the subsequence the oracle's sort of live keys produces, both
//! add the same function's output from `+0.0`, and the `+0.0` a dead slot
//! adds in between changes no sum that starts at `+0.0`. Segments with no
//! live slot are dropped, as Fig 4 never materialises them, so the HSBCSR
//! pattern and every solver-cache decision are the oracle's too.

use crate::assembly::{
    contact_keys, contact_keys_gpu, fill_joint_params, gather_priced_costs, gather_segments,
    AssembledSystem, ReducePlan,
};
use crate::contact::types::Contact;
use crate::contact::GeomSoa;
use crate::params::DdaParams;
use crate::system::BlockSystem;
use dda_simt::{Device, KernelStats};
use dda_sparse::{Block6, SymBlockMatrix};
use serde::{Deserialize, Serialize};

/// Lifetime counters of the assembly cache; the per-step deltas ride on
/// `StepReport` so benches read reuse rates directly instead of inferring
/// them from kernel-name greps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssemblyStats {
    /// Assemblies run (every gather evaluates its contacts from scratch).
    pub full_builds: u64,
    /// Closed contacts assembled, summed over assemblies. The gather
    /// evaluates each one once per role (`k_ii`, `k_jj`, upper): three
    /// spring evaluations per count.
    pub recomputed: u64,
    /// Always 0: no per-contact contribution outlives an assembly.
    pub spliced: u64,
    /// Plans built (key launch + argsort + segment boundaries ran).
    pub plan_rebuilds: u64,
    /// Assemblies served by a standing plan (no sort launched).
    pub plan_hits: u64,
}

impl AssemblyStats {
    /// Counter increments since an earlier snapshot.
    pub fn delta_since(&self, earlier: &AssemblyStats) -> AssemblyStats {
        AssemblyStats {
            full_builds: self.full_builds - earlier.full_builds,
            recomputed: self.recomputed - earlier.recomputed,
            spliced: self.spliced - earlier.spliced,
            plan_rebuilds: self.plan_rebuilds - earlier.plan_rebuilds,
            plan_hits: self.plan_hits - earlier.plan_hits,
        }
    }
}

/// The standing reduction plan of a scene's contact list and the gather
/// kernel's buffers, living beside [`crate::pipeline::GpuPipeline`]'s
/// solver cache. See the module docs for the validity rule.
#[derive(Debug, Default)]
pub struct AssemblyCache {
    /// Block count the plan's keys were formed with.
    n: u64,
    /// The key stream the plan was sorted from (three per contact).
    keys: Vec<u64>,
    plan: ReducePlan,
    /// The gather's per-block work that depends on `plan` alone.
    priced: Vec<KernelStats>,
    /// The current contact list's keys are not the plan's.
    stale: bool,
    jparams: Vec<f64>,
    n_live: Vec<u32>,
    out: Vec<f64>,
    fout: Vec<f64>,
    stats: AssemblyStats,
}

impl AssemblyCache {
    /// Empty cache; the first assemble builds its plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-detection rebind: refill the flattened joint parameters and
    /// decide — once for every assembly until the next detection — whether
    /// the standing plan still serves `contacts`. Host-side and, on a
    /// warmed cache, allocation-free.
    pub fn begin_step(&mut self, sys: &BlockSystem, contacts: &[Contact]) {
        fill_joint_params(sys, contacts, &mut self.jparams);
        let n = sys.len() as u64;
        self.stale = self.n != n
            || self.keys.len() != 3 * contacts.len()
            || contacts
                .iter()
                .zip(self.keys.chunks_exact(3))
                .any(|(c, k)| contact_keys(c, n) != k);
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AssemblyStats {
        self.stats
    }

    /// Adds the contact springs of `contacts` to `diag`/`rhs` — the same
    /// bits as [`crate::assembly::assemble_contacts_gpu`]. A warmed call
    /// under a standing plan allocates nothing but the returned system.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        &mut self,
        dev: &Device,
        sys: &BlockSystem,
        gsoa: &GeomSoa,
        contacts: &[Contact],
        params: &DdaParams,
        mut diag: Vec<Block6>,
        mut rhs: Vec<f64>,
    ) -> AssembledSystem {
        let nc = contacts.len();
        assert_eq!(
            self.jparams.len(),
            2 * nc,
            "AssemblyCache::begin_step must precede assemble"
        );
        let n = sys.len() as u64;
        if self.stale {
            self.n = n;
            self.keys.clear();
            self.keys.resize(3 * nc, 0);
            self.plan = if nc == 0 {
                ReducePlan::default()
            } else {
                contact_keys_gpu(dev, n, contacts, &mut self.keys);
                ReducePlan::build(dev, &self.keys)
            };
            gather_priced_costs(&self.plan.starts, &mut self.priced);
            let n_seg = self.plan.n_seg();
            self.n_live.resize(n_seg, 0);
            self.out.resize(36 * n_seg, 0.0);
            self.fout.resize(6 * n_seg, 0.0);
            self.stale = false;
            self.stats.plan_rebuilds += 1;
        } else {
            self.stats.plan_hits += 1;
        }
        self.stats.full_builds += 1;
        self.stats.recomputed += contacts.iter().filter(|c| c.state.closed()).count() as u64;

        let n_seg = self.plan.n_seg();
        let mut upper = Vec::with_capacity(n_seg);
        if n_seg > 0 {
            gather_segments(
                dev,
                gsoa,
                contacts,
                &self.jparams,
                params,
                &self.plan,
                &self.priced,
                &mut self.n_live,
                &mut self.out,
                &mut self.fout,
            );
        }
        for s in 0..n_seg {
            if self.n_live[s] == 0 {
                continue;
            }
            let key = self.plan.key(s);
            let (r, c) = ((key / n) as usize, (key % n) as usize);
            let mut blk = Block6::ZERO;
            for (k, v) in blk.0.iter_mut().flatten().enumerate() {
                *v = self.out[k * n_seg + s];
            }
            if r == c {
                diag[r] += blk;
                for k in 0..6 {
                    rhs[6 * r + k] += self.fout[k * n_seg + s];
                }
            } else {
                upper.push((r as u32, c as u32, blk));
            }
        }
        AssembledSystem {
            matrix: SymBlockMatrix::new(diag, upper),
            rhs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{assemble_contacts_gpu, GATHER_BLOCK};
    use crate::block::Block;
    use crate::contact::types::{ContactKind, ContactState};
    use crate::contact::{broad_phase_serial, narrow_phase_serial};
    use crate::material::{BlockMaterial, JointMaterial};
    use crate::stiffness::perblock::{build_diag_gpu, BlockSoa};
    use dda_geom::Polygon;
    use dda_simt::serial::CpuCounter;
    use dda_simt::{DeviceProfile, WARP_SIZE};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A 4 × 3 wall of unit blocks 5 mm apart: every joint carries several
    /// contacts, in both `i < j` and `i > j` orientation, and every inner
    /// block belongs to several pairs.
    struct Wall {
        sys: BlockSystem,
        contacts: Vec<Contact>,
        params: DdaParams,
        gsoa: GeomSoa,
        dev: Device,
        diag: Vec<Block6>,
        rhs: Vec<f64>,
    }

    /// `n` unit blocks in a row and, for each `(i, j, count)`, `count`
    /// contacts between blocks `i` and `j` (alternating which one carries
    /// the vertex): the plan's segments are exactly the blocks named and
    /// the distinct pairs, each pair's three segments `count` slots long
    /// (the diagonal ones longer where a block has several pairs).
    fn synthetic(n: usize, pairs: &[(u32, u32, usize)]) -> Wall {
        let blocks = (0..n)
            .map(|k| {
                let x = k as f64 * 1.005;
                Block::new(Polygon::rect(x, 0.0, x + 1.0, 1.0), 0)
            })
            .collect();
        let sys = BlockSystem::new(
            blocks,
            BlockMaterial::rock(),
            JointMaterial::frictional(30.0),
        );
        let mut contacts = Vec::new();
        for &(i, j, count) in pairs {
            for k in 0..count {
                let (a, b) = if k % 2 == 0 { (i, j) } else { (j, i) };
                let (vertex, edge) = ((k % 4) as u32, (k / 4 % 4) as u32);
                let mut c = Contact::new(a, b, vertex, edge, u32::MAX, ContactKind::Ve);
                c.state = ContactState::Lock;
                contacts.push(c);
            }
        }
        let params = DdaParams::for_model(1.0, 5e9);
        let dev = Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true);
        let (diag, rhs) = build_diag_gpu(&dev, &sys, &BlockSoa::build(&sys), &params);
        Wall {
            gsoa: GeomSoa::build(&sys),
            sys,
            contacts,
            params,
            dev,
            diag,
            rhs,
        }
    }

    fn wall() -> Wall {
        let blocks = (0..12)
            .map(|k| {
                let (x, y) = ((k % 4) as f64 * 1.005, (k / 4) as f64 * 1.005);
                Block::new(Polygon::rect(x, y, x + 1.0, y + 1.0), 0)
            })
            .collect();
        let sys = BlockSystem::new(
            blocks,
            BlockMaterial::rock(),
            JointMaterial::frictional(30.0),
        );
        let params = DdaParams::for_model(1.0, 5e9);
        let mut cnt = CpuCounter::new();
        let pairs = broad_phase_serial(&sys, params.contact_range, &mut cnt);
        let contacts = narrow_phase_serial(&sys, &pairs, params.contact_range, &mut cnt);
        assert!(contacts.iter().any(|c| c.i < c.j));
        assert!(
            contacts.iter().any(|c| c.i > c.j),
            "the wall must hold a contact whose upper block is kji()"
        );
        let dev = Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true);
        let (diag, rhs) = build_diag_gpu(&dev, &sys, &BlockSoa::build(&sys), &params);
        Wall {
            gsoa: GeomSoa::build(&sys),
            sys,
            contacts,
            params,
            dev,
            diag,
            rhs,
        }
    }

    impl Wall {
        fn close_all(&mut self) {
            for c in self.contacts.iter_mut() {
                c.state = ContactState::Lock;
            }
        }

        fn oracle(&self) -> AssembledSystem {
            assemble_contacts_gpu(
                &self.dev,
                &self.sys,
                &self.gsoa,
                &self.contacts,
                &self.params,
                self.diag.clone(),
                self.rhs.clone(),
            )
        }

        /// One detection (`begin_step`) followed by one assembly.
        fn step(&self, cache: &mut AssemblyCache) -> AssembledSystem {
            cache.begin_step(&self.sys, &self.contacts);
            self.gather(cache)
        }

        fn gather(&self, cache: &mut AssemblyCache) -> AssembledSystem {
            cache.assemble(
                &self.dev,
                &self.sys,
                &self.gsoa,
                &self.contacts,
                &self.params,
                self.diag.clone(),
                self.rhs.clone(),
            )
        }

        /// Random states, edge ratios and slide directions on every
        /// contact, except that contacts `dead` pick from open only.
        fn draw_states(&mut self, rng: &mut StdRng, dead: impl Fn(&Contact) -> bool) {
            for c in self.contacts.iter_mut() {
                let n_states = if dead(c) { 1 } else { 3 };
                c.state = [ContactState::Open, ContactState::Lock, ContactState::Slide]
                    [rng.gen_range(0..n_states)];
                c.edge_ratio = rng.gen();
                c.slide_dir = [-1.0, 0.0, 1.0][rng.gen_range(0..3)];
            }
        }

        /// Collapses contact `k`'s edge in the device geometry: both paths
        /// see `contact_spring_terms` return `None` for every contact on it.
        fn collapse_edge_of(&mut self, k: usize) {
            let c = self.contacts[k];
            let j0 = self.gsoa.vptr[c.j as usize] as usize;
            let nj = self.gsoa.vptr[c.j as usize + 1] as usize - j0;
            let (e, e1) = (c.edge as usize, (c.edge as usize + 1) % nj);
            self.gsoa.vx[j0 + e1] = self.gsoa.vx[j0 + e];
            self.gsoa.vy[j0 + e1] = self.gsoa.vy[j0 + e];
        }

        fn radix_launches(&self) -> u64 {
            let by = self.dev.trace().by_kernel();
            by.iter()
                .filter(|(k, _)| k.starts_with("radix."))
                .map(|(_, (s, _))| s.launches)
                .sum()
        }
    }

    fn bits(asm: &AssembledSystem) -> Vec<u64> {
        let block = |b: &Block6| {
            b.0.iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        let mut v: Vec<u64> = asm.matrix.diag.iter().flat_map(block).collect();
        for (r, c, b) in &asm.matrix.upper {
            v.extend([*r as u64, *c as u64]);
            v.extend(block(b));
        }
        v.extend(asm.rhs.iter().map(|x| x.to_bits()));
        v
    }

    #[test]
    fn gather_matches_fig4_bitwise_over_random_states() {
        let mut w = wall();
        let mut cache = AssemblyCache::new();
        let mut rng = StdRng::seed_from_u64(17);
        let mut live_uppers = std::collections::BTreeSet::new();
        for draw in 0..240 {
            for c in w.contacts.iter_mut() {
                c.state = [ContactState::Open, ContactState::Lock, ContactState::Slide]
                    [rng.gen_range(0..3)];
                c.edge_ratio = rng.gen();
                c.slide_dir = [-1.0, 0.0, 1.0][rng.gen_range(0..3)];
            }
            let got = w.step(&mut cache);
            assert_eq!(bits(&got), bits(&w.oracle()), "draw {draw}");
            live_uppers.insert(got.matrix.n_upper());
        }
        assert!(
            live_uppers.len() > 1,
            "the draws never dropped a block pair"
        );
        let st = cache.stats();
        assert_eq!(
            (st.plan_rebuilds, st.plan_hits),
            (1, 239),
            "no state draw may move a key"
        );
    }

    #[test]
    fn open_contacts_leave_the_system_untouched() {
        let w = wall();
        assert!(w.contacts.iter().all(|c| !c.state.closed()));
        let got = w.step(&mut AssemblyCache::new());
        assert_eq!(got.matrix.n_upper(), 0);
        let untouched = AssembledSystem {
            matrix: SymBlockMatrix::new(w.diag.clone(), Vec::new()),
            rhs: w.rhs.clone(),
        };
        assert_eq!(bits(&got), bits(&untouched));
    }

    #[test]
    fn an_all_open_block_pair_is_dropped_not_zeroed() {
        let mut w = wall();
        w.close_all();
        let all = w.step(&mut AssemblyCache::new());
        let (r, c, _) = all.matrix.upper[0];
        for k in w.contacts.iter_mut() {
            if (k.i.min(k.j), k.i.max(k.j)) == (r, c) {
                k.state = ContactState::Open;
            }
        }
        let got = w.step(&mut AssemblyCache::new());
        assert_eq!(got.matrix.n_upper(), all.matrix.n_upper() - 1);
        assert!(got.matrix.upper.iter().all(|u| (u.0, u.1) != (r, c)));
        assert_eq!(bits(&got), bits(&w.oracle()));
    }

    #[test]
    fn degenerate_edge_contributes_nothing() {
        let mut w = wall();
        w.close_all();
        let c0 = w.contacts[0];
        w.collapse_edge_of(0);
        let got = w.step(&mut AssemblyCache::new());
        assert_eq!(bits(&got), bits(&w.oracle()));
        for c in w.contacts.iter_mut() {
            if (c.j, c.edge) == (c0.j, c0.edge) {
                c.state = ContactState::Open;
            }
        }
        assert_eq!(
            bits(&got),
            bits(&w.oracle()),
            "a degenerate edge must weigh what an open contact weighs"
        );
    }

    #[test]
    fn one_plan_per_contact_list() {
        let mut w = wall();
        w.close_all();
        let mut cache = AssemblyCache::new();

        // Step 1: the first assembly sorts; churned re-iterations do not.
        w.step(&mut cache);
        let sorted_once = w.radix_launches();
        assert!(sorted_once > 0);
        for k in [0, 3] {
            w.contacts[k].state = ContactState::Open;
            w.contacts[k + 1].state = ContactState::Slide;
            w.gather(&mut cache);
        }
        // Step 2: detection returns the same list.
        w.step(&mut cache);
        assert_eq!(
            w.radix_launches(),
            sorted_once,
            "a standing plan must not sort"
        );
        let st = cache.stats();
        assert_eq!((st.plan_rebuilds, st.plan_hits), (1, 3));

        // Removing a contact, then adding it back, rebuilds once each.
        let last = w.contacts.pop().expect("the wall has contacts");
        w.step(&mut cache);
        w.gather(&mut cache);
        assert_eq!(cache.stats().plan_rebuilds, 2);
        w.contacts.push(last);
        let got = w.step(&mut cache);
        w.gather(&mut cache);
        assert_eq!(cache.stats().plan_rebuilds, 3);
        assert_eq!(bits(&got), bits(&w.oracle()));

        let st = cache.stats();
        assert_eq!(st.plan_rebuilds + st.plan_hits, 8, "one per assembly");
        assert_eq!((st.full_builds, st.spliced), (8, 0));
    }

    /// A chain `0 – 1 – … – n_pairs` with `count(p)` contacts on pair `p`:
    /// `2 · n_pairs + 1` segments.
    fn chain(n_pairs: u32, count: impl Fn(u32) -> usize) -> Wall {
        let pairs: Vec<_> = (0..n_pairs).map(|p| (p, p + 1, count(p))).collect();
        synthetic(n_pairs as usize + 1, &pairs)
    }

    /// The slots each `assembly.gather` block owns: block `b` takes the
    /// segments that start in `[128b, 128b + 128)`, through the end of the
    /// last of them.
    fn owned_slots(starts: &[u32]) -> Vec<usize> {
        let n_seg = starts.len() - 1;
        let first_at = |x: usize| starts[..n_seg].partition_point(|&s| (s as usize) < x);
        let n_blocks = (starts[n_seg] as usize).div_ceil(GATHER_BLOCK);
        (0..n_blocks)
            .map(|b| {
                let (s0, s1) = (first_at(GATHER_BLOCK * b), first_at(GATHER_BLOCK * (b + 1)));
                (starts[s1] - starts[s0]) as usize
            })
            .collect()
    }

    /// Random state draws on synthetic plans of every window shape the
    /// slot-parallel gather tells apart, each draw held to the Fig 4 oracle
    /// bit for bit under the conflict checker. Every scene alternates which
    /// block of a pair carries the vertex, so every plan holds `i > j`
    /// contacts.
    #[test]
    fn slot_gather_matches_fig4_bitwise_on_every_plan_shape() {
        let disjoint = |counts: &[usize]| {
            let pairs: Vec<_> = (0..counts.len() as u32)
                .map(|b| (2 * b, 2 * b + 1, counts[b as usize]))
                .collect();
            synthetic(2 * counts.len(), &pairs)
        };
        let live = |_: &Contact| false;
        let open = |_: &Contact| true;
        let pairs_01_78 = |c: &Contact| [(0, 1), (7, 8)].contains(&(c.i.min(c.j), c.i.max(c.j)));
        type Dead<'a> = &'a dyn Fn(&Contact) -> bool;
        // (case, scene, contacts kept open, collapse contact 0's edge,
        // slots owned per block)
        let cases: [(&str, Wall, Dead, bool, &[usize]); 9] = [
            (
                "one window short of full",
                disjoint(&[42]),
                &live,
                false,
                &[126],
            ),
            // A segment starts on the window edge: block 1 owns one slot.
            ("a full window", disjoint(&[42, 1]), &live, false, &[128, 1]),
            // The segment [86, 129) straddles the edge by one slot; block 1
            // owns 127 slots, its last warp one lane short.
            (
                "129 and 127 slots",
                disjoint(&[43, 1, 41, 1]),
                &live,
                false,
                &[129, 127, 2],
            ),
            (
                "a straddling segment",
                disjoint(&[30, 8, 1, 30, 8, 1]),
                &live,
                false,
                &[147, 87],
            ),
            // Block 0's diagonal segment [0, 300) spans three windows, the
            // window of block 1 owns no segment, and block 2 owns the
            // 300-slot upper segment.
            (
                "a segment across three windows",
                chain(24, |p| if p == 0 { 300 } else { 1 + p as usize % 3 }),
                &live,
                false,
                &[300, 0, 300, 0, 302, 0, 0, 122, 17],
            ),
            (
                "all open",
                chain(20, |p| 1 + p as usize % 4),
                &open,
                false,
                &[132, 18],
            ),
            // The pair segments of (0, 1) and (7, 8) and block 0's diagonal
            // segment have no live slot.
            (
                "all-dead segments",
                chain(20, |p| 2 + p as usize % 4),
                &pairs_01_78,
                false,
                &[128, 82],
            ),
            (
                "a degenerate edge",
                chain(20, |p| 2 + p as usize % 4),
                &live,
                true,
                &[128, 82],
            ),
            (
                "a ring of 16 blocks",
                synthetic(
                    16,
                    &(0..16u32)
                        .map(|b| (b, (b + 1) % 16, 1 + b as usize % 5))
                        .collect::<Vec<_>>(),
                ),
                &live,
                false,
                &[132, 6],
            ),
        ];
        for (case, mut w, dead, degenerate, owned) in cases {
            if degenerate {
                w.collapse_edge_of(0);
            }
            let mut cache = AssemblyCache::new();
            let mut rng = StdRng::seed_from_u64(29);
            for draw in 0..24 {
                w.draw_states(&mut rng, dead);
                let got = w.step(&mut cache);
                assert_eq!(bits(&got), bits(&w.oracle()), "{case}, draw {draw}");
            }
            assert_eq!(owned_slots(&cache.plan.starts), owned, "{case}");
            assert_eq!(cache.stats().plan_rebuilds, 1, "{case}");
        }
    }

    #[test]
    fn slot_gather_runs_a_thread_per_slot() {
        // 96 disjoint pairs whose three segments hold 30, 8 or 1 slots,
        // interleaved in key order: the skewed plan that cost the
        // one-thread-per-segment gather 0.43 of its warp work in plan order.
        let pairs: Vec<_> = (0..96u32)
            .map(|b| (2 * b, 2 * b + 1, [30, 8, 1][b as usize % 3]))
            .collect();
        let w = synthetic(192, &pairs);
        let mut cache = AssemblyCache::new();
        w.step(&mut cache);
        assert_eq!(cache.plan.n_seg(), 288);
        let slots = cache.plan.perm.len();
        let (gather, _) = w.dev.trace().by_kernel()["assembly.gather"];
        // One thread per slot, in whole 128-thread blocks.
        assert_eq!(gather.launches, 1);
        assert_eq!(
            gather.warps as usize,
            slots
                .div_ceil(WARP_SIZE)
                .next_multiple_of(GATHER_BLOCK / WARP_SIZE)
        );
        // The bound the length-sorted schedule met on this plan. The
        // slot-parallel gather reaches 0.837 here and fails it: its blocks
        // own 117 to 150 slots, so their last warps leave 320 of phase 1's
        // 4 064 lanes idle, and a phase-2 warp waits for its longest
        // segment (0.40). Even the best packing of phase 2's items into
        // warps (0.68) leaves the kernel at 0.889 on this plan.
        let efficiency = gather.flops as f64 / gather.warp_flops as f64;
        assert!(
            efficiency >= 0.9,
            "gather SIMT efficiency {efficiency:.3} < 0.9"
        );
    }
}
