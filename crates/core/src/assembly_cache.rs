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
//!   settled scene sorts once for the whole run. A plan of more than one
//!   warp of segments gets its gather schedule then, on the device
//!   ([`GatherSchedule`]: segments by descending slot count, slots laid
//!   out jagged-diagonally), so a warp's threads walk segments of nearly
//!   one length instead of paying 32 × the longest of 32 in key order.
//! * **Gather, per iteration.** Every assemble is one `assembly.gather`
//!   launch, one thread per distinct block pair, that recomputes the spring
//!   terms of its segment's closed contacts and adds them in plan order
//!   (see [`gather_segments`]). Nothing per-contact is stored in between.
//!
//! The result is bitwise the system `AssemblyReuse::Recompute` — Fig 4 from
//! scratch, kept as the oracle and the paper-table path — assembles: a
//! stable sort orders a segment by slot index, skipping the dead slots
//! leaves the subsequence the oracle's sort of live keys produces, and both
//! add the same function's output from `+0.0` — whichever thread does the
//! sum and wherever it stores it. Segments with no live slot
//! are dropped, as Fig 4 never materialises them, so the HSBCSR pattern and
//! every solver-cache decision are the oracle's too.

use crate::assembly::{
    contact_keys, contact_keys_gpu, fill_joint_params, gather_segments, AssembledSystem,
    GatherSchedule, ReducePlan,
};
use crate::contact::types::Contact;
use crate::contact::GeomSoa;
use crate::params::DdaParams;
use crate::system::BlockSystem;
use dda_simt::Device;
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
    /// The gather's thread schedule over `plan`.
    sched: GatherSchedule,
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
            self.sched = GatherSchedule::build(dev, &self.plan);
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
                &self.sched,
                &mut self.n_live,
                &mut self.out,
                &mut self.fout,
            );
        }
        // Key order: segment s's sums sit at its gather position q.
        for s in 0..n_seg {
            let q = self.sched.position(s);
            if self.n_live[q] == 0 {
                continue;
            }
            let key = self.plan.key(s);
            let (r, c) = ((key / n) as usize, (key % n) as usize);
            let mut blk = Block6::ZERO;
            for (k, v) in blk.0.iter_mut().flatten().enumerate() {
                *v = self.out[k * n_seg + q];
            }
            if r == c {
                diag[r] += blk;
                for k in 0..6 {
                    rhs[6 * r + k] += self.fout[k * n_seg + q];
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
    use crate::assembly::assemble_contacts_gpu;
    use crate::block::Block;
    use crate::contact::types::{ContactKind, ContactState};
    use crate::contact::{broad_phase_serial, narrow_phase_serial};
    use crate::material::{BlockMaterial, JointMaterial};
    use crate::stiffness::perblock::{build_diag_gpu, BlockSoa};
    use dda_geom::Polygon;
    use dda_simt::serial::CpuCounter;
    use dda_simt::DeviceProfile;
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
        // Collapse contact 0's edge in the device geometry: both paths see
        // `contact_spring_terms` return `None` for every contact on it.
        let c0 = w.contacts[0];
        let j0 = w.gsoa.vptr[c0.j as usize] as usize;
        let nj = w.gsoa.vptr[c0.j as usize + 1] as usize - j0;
        let (e, e1) = (c0.edge as usize, (c0.edge as usize + 1) % nj);
        w.gsoa.vx[j0 + e1] = w.gsoa.vx[j0 + e];
        w.gsoa.vy[j0 + e1] = w.gsoa.vy[j0 + e];
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

    /// Random state draws on synthetic plans of every shape the schedule
    /// tells apart, each draw held to the Fig 4 oracle bit for bit.
    #[test]
    fn scheduled_gather_matches_fig4_bitwise_on_every_plan_shape() {
        let ring: Vec<_> = (0..16u32)
            .map(|b| (b, (b + 1) % 16, 1 + b as usize % 5))
            .collect();
        let uniform: Vec<_> = (0..12u32).map(|b| (2 * b, 2 * b + 1, 4)).collect();
        let live = |_: &Contact| false;
        let open = |_: &Contact| true;
        let pairs_01_78 = |c: &Contact| [(0, 1), (7, 8)].contains(&(c.i.min(c.j), c.i.max(c.j)));
        type Dead<'a> = &'a dyn Fn(&Contact) -> bool;
        // (case, scene, state draws, contacts kept open, segments)
        let cases: [(&str, Wall, usize, Dead, usize); 6] = [
            ("a ring of 16 blocks", synthetic(16, &ring), 40, &live, 32),
            (
                "33 segments",
                chain(16, |p| 1 + (p as usize * 7) % 11),
                40,
                &live,
                33,
            ),
            // Three segments of 300+ slots: the length sort takes two
            // radix passes.
            (
                "a segment past 256 slots",
                chain(24, |p| if p == 0 { 300 } else { 1 + p as usize % 3 }),
                12,
                &live,
                49,
            ),
            ("uniform lengths", synthetic(24, &uniform), 40, &live, 36),
            ("all open", chain(20, |p| 1 + p as usize % 4), 4, &open, 41),
            // The pair segments of (0, 1) and (7, 8) and block 0's diagonal
            // segment have no live slot.
            (
                "all-dead segments",
                chain(20, |p| 2 + p as usize % 4),
                40,
                &pairs_01_78,
                41,
            ),
        ];
        for (case, mut w, draws, dead, n_seg) in cases {
            let mut cache = AssemblyCache::new();
            let mut rng = StdRng::seed_from_u64(29);
            for draw in 0..draws {
                w.draw_states(&mut rng, dead);
                let got = w.step(&mut cache);
                assert_eq!(bits(&got), bits(&w.oracle()), "{case}, draw {draw}");
            }
            assert_eq!(cache.plan.n_seg(), n_seg, "{case}");
            assert_eq!(cache.sched.is_plan_order(), n_seg <= 32, "{case}");
            assert_eq!(cache.stats().plan_rebuilds, 1, "{case}");
        }
    }

    #[test]
    fn length_sorted_gather_keeps_warps_busy() {
        // 96 disjoint pairs whose three segments hold 30, 8 or 1 slots,
        // interleaved in key order: every warp of plan order holds a
        // 30-slot segment, while each warp of the length-sorted schedule
        // holds one length only.
        let pairs: Vec<_> = (0..96u32)
            .map(|b| (2 * b, 2 * b + 1, [30, 8, 1][b as usize % 3]))
            .collect();
        let w = synthetic(192, &pairs);
        let mut cache = AssemblyCache::new();
        w.step(&mut cache);
        assert_eq!(cache.plan.n_seg(), 288);
        let (gather, _) = w.dev.trace().by_kernel()["assembly.gather"];
        let efficiency = gather.flops as f64 / gather.warp_flops as f64;
        assert!(
            efficiency >= 0.9,
            "gather SIMT efficiency {efficiency:.3} < 0.9"
        );
    }
}
