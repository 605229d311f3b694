//! Narrow-phase contact detection: distance judgment, angle judgment, and
//! the VE / VV1 / VV2 classification (§III-A's first two classifications,
//! Fig 3).
//!
//! For every candidate pair, each vertex of one block is tested against the
//! edges of the other (both orientations). The *distance judgment* keeps
//! features closer than the contact range `d0` and splits them into
//! vertex–edge (projection inside the edge) and vertex–vertex (projection
//! at an endpoint). The *angle judgment* abandons candidates whose material
//! wedges cannot face each other, and splits the surviving VV contacts into
//! VV1 (the facing edges are parallel — an edge–edge contact, two springs)
//! and VV2 (a genuine corner contact — one spring on the shortest-exit
//! edge).
//!
//! The serial and GPU paths share the same pure per-pair routine
//! ([`pair_contacts`]); the GPU path loads geometry through instrumented
//! device buffers and records the judgment branches per classification
//! site, which is what experiment D1 measures.

use super::soa::GeomSoa;
use super::types::{Contact, ContactKind};
use crate::system::BlockSystem;
use dda_geom::angle::{ve_admissible, vv_admissible, Wedge};
use dda_geom::{Segment, Vec2};
use dda_simt::serial::CpuCounter;
use dda_simt::Device;

/// Angular slack for the angle judgment (radians).
const ANGLE_TOL: f64 = 0.05;
/// Angular tolerance for the VV1 parallel-edge test (radians).
const PARALLEL_TOL: f64 = 0.02;

/// Per-candidate judgment outcomes of one `(i → j)` orientation, used by
/// the GPU path to record the *actual* branch fronts.
///
/// One entry of `dist` per vertex of block `i` (distance judgment:
/// in range or abandoned). For each in-range vertex, one entry of `ve`
/// (distance judgment's VE-vs-VV classification) and one entry of
/// `accept` (angle judgment: did the candidate survive to a contact?).
/// Rejected candidates are recorded too — an always-`true` record here
/// would blind the divergence model to the very branches the
/// data-classification framework exists to remove.
#[derive(Debug, Default, Clone)]
pub struct JudgmentOutcomes {
    /// Distance judgment per vertex of `i`: `dist < d0`.
    pub dist: Vec<bool>,
    /// Per in-range candidate: classified VE (projection inside the edge).
    pub ve: Vec<bool>,
    /// Per in-range candidate: accepted by the angle judgment (produced a
    /// contact) or abandoned.
    pub accept: Vec<bool>,
}

/// Contacts of one orientation `(i → j)` of a candidate pair.
///
/// `vi`/`vj` are the CCW vertex rings of the two blocks. Returns VE
/// contacts of vertices of `i` against edges of `j`, plus VV contacts
/// resolved as described in the module docs. Pure function shared by the
/// serial and GPU paths.
pub fn pair_contacts(i: u32, j: u32, vi: &[Vec2], vj: &[Vec2], d0: f64) -> Vec<Contact> {
    pair_contacts_judged(i, j, vi, vj, d0).0
}

/// [`pair_contacts`] plus the per-candidate judgment outcomes. The contact
/// list is identical to `pair_contacts`; the outcomes only feed the
/// divergence accounting of the GPU path.
pub fn pair_contacts_judged(
    i: u32,
    j: u32,
    vi: &[Vec2],
    vj: &[Vec2],
    d0: f64,
) -> (Vec<Contact>, JudgmentOutcomes) {
    let mut out = Vec::new();
    let mut jo = JudgmentOutcomes::default();
    let nj = vj.len();
    for (v_idx, &p) in vi.iter().enumerate() {
        // Distance judgment: closest feature of block j.
        let mut best = (f64::INFINITY, 0usize, 0.0f64); // (dist, edge, t)
        for e in 0..nj {
            let seg = Segment::new(vj[e], vj[(e + 1) % nj]);
            let t = seg.closest_param(p);
            let dist = seg.point_at(t).dist(p);
            if dist < best.0 {
                best = (dist, e, t);
            }
        }
        let (dist, e, t) = best;
        jo.dist.push(dist < d0);
        if dist >= d0 {
            continue; // abandoned by the distance judgment
        }
        let seg = Segment::new(vj[e], vj[(e + 1) % nj]);
        let len = seg.length().max(1e-12);
        let band = (0.5 * d0 / len).min(0.4);

        let wedge_i = wedge_of(vi, v_idx);
        let is_ve = t > band && t < 1.0 - band;
        jo.ve.push(is_ve);
        if is_ve {
            // --- VE ---
            let admissible = ve_admissible(&wedge_i, seg.outward_normal(), ANGLE_TOL);
            jo.accept.push(admissible);
            if admissible {
                let mut c = Contact::new(i, j, v_idx as u32, e as u32, u32::MAX, ContactKind::Ve);
                c.edge_ratio = t;
                out.push(c);
            }
            continue;
        }

        // --- VV ---
        let v2 = if t <= band { e } else { (e + 1) % nj };
        let wedge_j = wedge_of(vj, v2);
        if !vv_admissible(&wedge_i, &wedge_j, ANGLE_TOL) {
            jo.accept.push(false); // abandoned by the angle judgment
            continue;
        }

        // Parallel test: the facing edges adjacent to the two vertices.
        let i_edges = adjacent_edges(vi, v_idx);
        let j_edges = adjacent_edges(vj, v2);
        let mut parallel_edge: Option<usize> = None;
        'outer: for ie in &i_edges {
            for (je_idx, je) in [(prev_edge(nj, v2), &j_edges[0]), (v2, &j_edges[1])] {
                if ie.is_parallel_to(je, PARALLEL_TOL) && ie.unit_dir().dot(je.unit_dir()) < 0.0 {
                    parallel_edge = Some(je_idx);
                    break 'outer;
                }
            }
        }

        if let Some(pe) = parallel_edge {
            // --- VV1: vertex presses the parallel facing edge ---
            let pseg = Segment::new(vj[pe], vj[(pe + 1) % nj]);
            let admissible = ve_admissible(&wedge_i, pseg.outward_normal(), ANGLE_TOL);
            jo.accept.push(admissible);
            if admissible {
                let mut c =
                    Contact::new(i, j, v_idx as u32, pe as u32, v2 as u32, ContactKind::Vv1);
                c.edge_ratio = pseg.closest_param(p);
                out.push(c);
            }
            continue;
        }

        // --- VV2: shortest-exit edge among the two adjacent to v2 ---
        let mut chosen: Option<(usize, f64, f64)> = None; // (edge, |dist|, t)
        for &cand in &[prev_edge(nj, v2), v2] {
            let cseg = Segment::new(vj[cand], vj[(cand + 1) % nj]);
            if !ve_admissible(&wedge_i, cseg.outward_normal(), ANGLE_TOL) {
                continue;
            }
            let dist = cseg.signed_line_dist(p).abs();
            if chosen.is_none_or(|(_, d, _)| dist < d) {
                chosen = Some((cand, dist, cseg.closest_param(p)));
            }
        }
        jo.accept.push(chosen.is_some());
        if let Some((ce, _, ct)) = chosen {
            let mut c = Contact::new(i, j, v_idx as u32, ce as u32, v2 as u32, ContactKind::Vv2);
            c.edge_ratio = ct;
            out.push(c);
        }
    }
    (out, jo)
}

fn wedge_of(ring: &[Vec2], v: usize) -> Wedge {
    let n = ring.len();
    Wedge::new(ring[(v + n - 1) % n], ring[v], ring[(v + 1) % n])
}

fn prev_edge(n: usize, v: usize) -> usize {
    (v + n - 1) % n
}

/// The two edges adjacent to vertex `v`: `(incoming, outgoing)`.
fn adjacent_edges(ring: &[Vec2], v: usize) -> [Segment; 2] {
    let n = ring.len();
    [
        Segment::new(ring[(v + n - 1) % n], ring[v]),
        Segment::new(ring[v], ring[(v + 1) % n]),
    ]
}

/// Deduplicates VV2 contacts discovered from both orientations of the same
/// vertex pair, keeping the `i < j` record (deterministic, matching the
/// GPU path). Returns contacts sorted by transfer key.
fn dedup_and_sort(mut contacts: Vec<Contact>) -> Vec<Contact> {
    use std::collections::HashMap;
    let mut vv2: HashMap<(u32, u32, u32, u32), usize> = HashMap::new();
    let mut keep: Vec<Contact> = Vec::with_capacity(contacts.len());
    for c in contacts.drain(..) {
        if c.kind == ContactKind::Vv2 {
            // Unordered (block, vertex) pair key.
            let a = (c.i, c.vertex);
            let b = (c.j, c.vertex2);
            let key = if a <= b {
                (a.0, a.1, b.0, b.1)
            } else {
                (b.0, b.1, a.0, a.1)
            };
            if let Some(&pos) = vv2.get(&key) {
                // Keep the record with the smaller owning block index.
                if c.i < keep[pos].i {
                    keep[pos] = c;
                }
                continue;
            }
            vv2.insert(key, keep.len());
        }
        keep.push(c);
    }
    keep.sort_by_key(|c| c.key());
    keep
}

/// Serial narrow phase over candidate pairs.
pub fn narrow_phase_serial(
    sys: &BlockSystem,
    pairs: &[(u32, u32)],
    d0: f64,
    counter: &mut CpuCounter,
) -> Vec<Contact> {
    let mut contacts = Vec::new();
    for &(a, b) in pairs {
        let va = sys.blocks[a as usize].poly.vertices();
        let vb = sys.blocks[b as usize].poly.vertices();
        contacts.extend(pair_contacts(a, b, va, vb, d0));
        contacts.extend(pair_contacts(b, a, vb, va, d0));
        let work = (va.len() * vb.len()) as u64;
        counter.flop(30 * work);
        counter.bytes(16 * (va.len() + vb.len()) as u64);
    }
    dedup_and_sort(contacts)
}

/// GPU narrow phase: one thread per (pair, orientation); geometry is loaded
/// through device buffers, judgment outcomes recorded as branch sites.
///
/// Emission uses the count → scan → emit pattern so survivors land "in a
/// successive array" without write conflicts.
pub fn narrow_phase_gpu(
    dev: &Device,
    soa: &GeomSoa,
    pairs: &[(u32, u32)],
    d0: f64,
) -> Vec<Contact> {
    if pairs.is_empty() {
        return Vec::new();
    }
    let n_threads = pairs.len() * 2;
    let pair_flat: Vec<u32> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();

    // Shared geometry loader: pulls one orientation's vertex rings through
    // the device buffers and runs the pure pair routine.
    let run_pair = |lane: &mut dda_simt::Lane,
                    b_pairs: &dda_simt::GBuf<u32>,
                    b_vx: &dda_simt::GBuf<f64>,
                    b_vy: &dda_simt::GBuf<f64>,
                    b_vp: &dda_simt::GBuf<u32>|
     -> Vec<Contact> {
        let pair_idx = lane.gid / 2;
        let flip = lane.gid % 2 == 1;
        let a = lane.ld(b_pairs, 2 * pair_idx) as usize;
        let b = lane.ld(b_pairs, 2 * pair_idx + 1) as usize;
        let (i, j) = if flip { (b, a) } else { (a, b) };
        let load_ring = |lane: &mut dda_simt::Lane, blk: usize| -> Vec<Vec2> {
            let lo = lane.ld(b_vp, blk) as usize;
            let hi = lane.ld(b_vp, blk + 1) as usize;
            (lo..hi)
                .map(|k| Vec2::new(lane.ld_tex(b_vx, k), lane.ld_tex(b_vy, k)))
                .collect()
        };
        let vi = load_ring(lane, i);
        let vj = load_ring(lane, j);
        lane.flop(30 * (vi.len() * vj.len()) as u32);
        let (found, jo) = pair_contacts_judged(i as u32, j as u32, &vi, &vj, d0);
        // Judgment-site branches with their *actual* outcomes: distance
        // (site 0) per vertex, VE-vs-VV classification (site 1) and angle
        // acceptance (site 2) per in-range candidate — rejected candidates
        // included, so the model sees the real branch front rather than an
        // always-taken record that can never register divergence.
        for &d in &jo.dist {
            lane.branch(0, d);
        }
        for &v in &jo.ve {
            lane.branch(1, v);
        }
        for &acc in &jo.accept {
            lane.branch(2, acc);
        }
        found
    };

    // Kernel 1: count survivors per thread.
    let mut counts = vec![0u32; n_threads];
    {
        let b_pairs = dev.bind_ro(&pair_flat);
        let b_vx = dev.bind_ro(&soa.vx);
        let b_vy = dev.bind_ro(&soa.vy);
        let b_vp = dev.bind_ro(&soa.vptr);
        let b_counts = dev.bind(&mut counts);
        dev.launch("narrow.count", n_threads, |lane| {
            let found = run_pair(lane, &b_pairs, &b_vx, &b_vy, &b_vp);
            lane.st(&b_counts, lane.gid, found.len() as u32);
        });
    }

    // Scan for output offsets.
    let (offsets, total) = dda_simt::primitives::scan_exclusive_u32(dev, &counts);

    // Kernel 2: emit into the successive array at the scanned offsets.
    let mut out: Vec<Contact> =
        vec![Contact::new(0, 0, 0, 0, u32::MAX, ContactKind::Ve); total as usize];
    if total > 0 {
        let b_pairs = dev.bind_ro(&pair_flat);
        let b_vx = dev.bind_ro(&soa.vx);
        let b_vy = dev.bind_ro(&soa.vy);
        let b_vp = dev.bind_ro(&soa.vptr);
        let b_off = dev.bind_ro(&offsets);
        let b_out = dev.bind(&mut out);
        dev.launch("narrow.emit", n_threads, |lane| {
            let found = run_pair(lane, &b_pairs, &b_vx, &b_vy, &b_vp);
            let base = lane.ld(&b_off, lane.gid) as usize;
            for (k, c) in found.into_iter().enumerate() {
                lane.st(&b_out, base + k, c);
            }
        });
    }

    dedup_and_sort(out)
}

/// [`narrow_phase_gpu`] under the name `benchmark/` still calls. The
/// class-sorted schedule is gone, so a schedule is refused; the wrapper
/// goes with ROADMAP item 4.
pub fn narrow_phase_gpu_scheduled(
    dev: &Device,
    soa: &GeomSoa,
    pairs: &[(u32, u32)],
    d0: f64,
    sched: Option<&[u32]>,
) -> Vec<Contact> {
    assert!(sched.is_none(), "contact scheduling was removed");
    narrow_phase_gpu(dev, soa, pairs, d0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::material::{BlockMaterial, JointMaterial};
    use dda_geom::Polygon;
    use dda_simt::DeviceProfile;

    fn sys_of(polys: Vec<Polygon>) -> BlockSystem {
        BlockSystem::new(
            polys.into_iter().map(|p| Block::new(p, 0)).collect(),
            BlockMaterial::rock(),
            JointMaterial::frictional(30.0),
        )
    }

    fn dev() -> Device {
        Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
    }

    #[test]
    fn block_resting_on_floor_gives_ve_contacts() {
        // A square sitting on a wide floor: its two bottom corners are VE
        // contacts against the floor's top edge.
        let sys = sys_of(vec![
            Polygon::rect(-5.0, -1.0, 5.0, 0.0), // floor
            Polygon::rect(0.0, 0.0, 1.0, 1.0),   // box
        ]);
        let mut c = CpuCounter::new();
        let contacts = narrow_phase_serial(&sys, &[(0, 1)], 0.05, &mut c);
        let ve: Vec<_> = contacts
            .iter()
            .filter(|c| c.kind == ContactKind::Ve)
            .collect();
        assert_eq!(
            ve.len(),
            2,
            "two corners on the edge interior: {contacts:?}"
        );
        // Both contacts: vertex of the box (block 1) onto floor's top edge.
        for c in &ve {
            assert_eq!(c.i, 1);
            assert_eq!(c.j, 0);
            assert!(c.edge_ratio > 0.0 && c.edge_ratio < 1.0);
        }
    }

    #[test]
    fn aligned_boxes_give_vv1_corner_contacts() {
        // Two equal boxes side by side: corners meet corners with parallel
        // vertical faces → VV1.
        let sys = sys_of(vec![
            Polygon::rect(0.0, 0.0, 1.0, 1.0),
            Polygon::rect(1.0, 0.0, 2.0, 1.0),
        ]);
        let mut c = CpuCounter::new();
        let contacts = narrow_phase_serial(&sys, &[(0, 1)], 0.05, &mut c);
        assert!(!contacts.is_empty());
        assert!(
            contacts.iter().all(|c| c.kind == ContactKind::Vv1),
            "aligned corner contacts must be VV1: {contacts:?}"
        );
        // Edge–edge behaviour: springs from both sides.
        assert!(contacts.iter().any(|c| c.i == 0));
        assert!(contacts.iter().any(|c| c.i == 1));
    }

    #[test]
    fn rotated_corner_gives_vv2() {
        // A diamond (rotated square) tip approaching a box *corner* with
        // non-parallel edges.
        let diamond = Polygon::new(vec![
            Vec2::new(2.01, 1.0),
            Vec2::new(2.8, 0.2),
            Vec2::new(3.6, 1.0),
            Vec2::new(2.8, 1.8),
        ]);
        let sys = sys_of(vec![Polygon::rect(0.0, 0.0, 2.0, 1.0), diamond]);
        let mut c = CpuCounter::new();
        let contacts = narrow_phase_serial(&sys, &[(0, 1)], 0.05, &mut c);
        assert!(
            contacts.iter().any(|c| c.kind == ContactKind::Vv2),
            "expected a VV2 contact: {contacts:?}"
        );
        // VV2 dedup: exactly one record per vertex pair.
        let vv2: Vec<_> = contacts
            .iter()
            .filter(|c| c.kind == ContactKind::Vv2)
            .collect();
        assert_eq!(vv2.len(), 1);
    }

    #[test]
    fn distant_blocks_abandoned() {
        let sys = sys_of(vec![
            Polygon::rect(0.0, 0.0, 1.0, 1.0),
            Polygon::rect(3.0, 0.0, 4.0, 1.0),
        ]);
        let mut c = CpuCounter::new();
        let contacts = narrow_phase_serial(&sys, &[(0, 1)], 0.05, &mut c);
        assert!(contacts.is_empty());
    }

    #[test]
    fn far_vertices_abandoned_by_distance_judgment() {
        // A tall block just above another: only the near (bottom) vertices
        // of the upper block are within d0; its top vertices must be
        // abandoned by the distance judgment.
        let sys = sys_of(vec![
            Polygon::rect(0.0, 0.0, 1.0, 1.0),
            Polygon::rect(0.2, 1.02, 0.8, 2.0),
        ]);
        let mut c = CpuCounter::new();
        let contacts = narrow_phase_serial(&sys, &[(0, 1)], 0.05, &mut c);
        assert!(!contacts.is_empty());
        for ct in &contacts {
            if ct.i == 1 {
                let v = sys.blocks[1].poly.vertex(ct.vertex as usize);
                assert!(v.y < 1.5, "far vertex {v:?} should be abandoned: {ct:?}");
            }
        }
    }

    #[test]
    fn angle_judgment_rejects_vertex_pressing_own_material_side() {
        // A flat-bottomed block whose bottom edge carries a collinear
        // midpoint vertex, hovering just above a floor: the midpoint vertex
        // has a π wedge opening downward, so pressing *down* on the floor
        // is admissible — but pressing *up* against a ceiling directly
        // above the block's top edge midpoint vertex is not when material
        // fills the upper half plane. Construct the inadmissible case: the
        // block's top edge has a collinear midpoint vertex, and a ceiling
        // sits above the *floor* block — i.e. the midpoint vertex of the
        // floor's BOTTOM edge (material above) vs a slab below it.
        let floor = Polygon::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0), // collinear midpoint on the bottom edge
            Vec2::new(2.0, 0.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(0.0, 1.0),
        ]);
        let slab = Polygon::rect(0.4, -1.0, 1.6, -0.02);
        let sys = sys_of(vec![floor, slab]);
        let mut c = CpuCounter::new();
        let contacts = narrow_phase_serial(&sys, &[(0, 1)], 0.05, &mut c);
        // The floor's bottom-edge vertices may contact the slab's top edge
        // (material above pressing down is admissible), but no contact may
        // have the slab's TOP vertices pressing INTO the floor's bottom
        // edge with the approach direction inside the slab's material —
        // i.e. every emitted VE contact must satisfy the wedge test, which
        // we re-verify directly here.
        for ct in contacts.iter().filter(|c| c.kind == ContactKind::Ve) {
            let ring_i = sys.blocks[ct.i as usize].poly.vertices();
            let wedge = super::wedge_of(ring_i, ct.vertex as usize);
            let seg = sys.blocks[ct.j as usize].poly.edge(ct.edge as usize);
            assert!(
                ve_admissible(&wedge, seg.outward_normal(), 0.05),
                "inadmissible contact emitted: {ct:?}"
            );
        }
    }

    #[test]
    fn gpu_matches_serial() {
        let diamond = Polygon::new(vec![
            Vec2::new(2.01, 0.5),
            Vec2::new(2.8, -0.3),
            Vec2::new(3.6, 0.5),
            Vec2::new(2.8, 1.3),
        ]);
        let sys = sys_of(vec![
            Polygon::rect(-5.0, -1.0, 5.0, 0.0),
            Polygon::rect(0.0, 0.0, 1.0, 1.0),
            Polygon::rect(1.0, 0.0, 2.0, 1.0),
            diamond,
        ]);
        let pairs = vec![(0u32, 1u32), (0, 2), (1, 2), (2, 3)];
        let mut c = CpuCounter::new();
        let serial = narrow_phase_serial(&sys, &pairs, 0.05, &mut c);
        let d = dev();
        let soa = GeomSoa::build(&sys);
        let gpu = narrow_phase_gpu(&d, &soa, &pairs, 0.05);
        assert_eq!(serial.len(), gpu.len());
        for (a, b) in serial.iter().zip(&gpu) {
            assert_eq!(a, b);
        }
        // Divergence was observed at the judgment sites.
        let stats = d.trace().total_stats();
        assert!(stats.branch_groups > 0);
    }

    #[test]
    fn gpu_empty_pairs() {
        let sys = sys_of(vec![Polygon::rect(0.0, 0.0, 1.0, 1.0)]);
        let d = dev();
        let soa = GeomSoa::build(&sys);
        assert!(narrow_phase_gpu(&d, &soa, &[], 0.1).is_empty());
    }

    #[test]
    fn contacts_sorted_by_key() {
        let sys = sys_of(vec![
            Polygon::rect(-5.0, -1.0, 5.0, 0.0),
            Polygon::rect(0.0, 0.0, 1.0, 1.0),
            Polygon::rect(1.0, 0.0, 2.0, 1.0),
        ]);
        let mut c = CpuCounter::new();
        let contacts = narrow_phase_serial(&sys, &[(0, 1), (0, 2), (1, 2)], 0.05, &mut c);
        for w in contacts.windows(2) {
            assert!(w[0].key() <= w[1].key());
        }
    }
}
