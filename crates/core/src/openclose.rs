//! The open–close iteration (loop 3 of Fig 1).
//!
//! Given the checking module's per-contact measures, each contact's state
//! is re-decided:
//!
//! * separation (negative normal measure beyond the tensile allowance) →
//!   **open**;
//! * compression with the shear force inside the Mohr–Coulomb margin →
//!   **lock**;
//! * compression with the margin exceeded → **slide**.
//!
//! The step's equations are re-assembled and re-solved until no state
//! changes ("no interpenetrations between the contacted blocks and no
//! tension between the separate blocks"). The state-change indicators
//! `p1`/`p2` computed here drive the C1…C5 categories of the non-diagonal
//! building classification.

use crate::contact::types::{Contact, ContactState};
use crate::interpenetration::GapArrays;
use dda_simt::serial::CpuCounter;
use dda_simt::Device;

/// Relative hysteresis band on the friction limit: a locked contact slides
/// only when the shear force exceeds the limit, and a sliding contact
/// re-locks only when the shear force falls below `(1 − band)` of it.
/// Without the band, marginal contacts flip lock↔slide every iteration and
/// the open–close loop cannot settle (the classical DDA remedy).
const FRICTION_HYSTERESIS: f64 = 0.1;

/// After this many state flips within one open–close loop a closed contact
/// is frozen in the slide state: it sits at the friction limit, where the
/// lock and slide models bracket the same physical answer.
pub const FREEZE_FLIPS: u32 = 2;

/// Pure state-decision rule shared by the serial and GPU paths.
///
/// `dn` — normal measure (positive = penetrating); `ds` — incremental slip
/// this iteration (the shear reference follows the slide, so `ds` measures
/// *new* slip); `margin` — Mohr–Coulomb margin (negative = shear limit
/// exceeded); `limit` — the Mohr–Coulomb limit itself; `slide_dir` — the
/// remembered sliding direction; `open_tol` — separation tolerance.
///
/// A sliding contact keeps sliding while the slip continues in its
/// direction; it re-locks only when the slip stalls or reverses *and* the
/// shear force clears the hysteresis band. Without this, a steadily
/// sliding contact would flip lock↔slide every iteration (its relaxed
/// shear spring always measures a force inside the limit) and the
/// open–close loop could never settle.
fn decide(
    state: ContactState,
    dn: f64,
    ds: f64,
    margin: f64,
    limit: f64,
    slide_dir: f64,
    open_tol: f64,
) -> ContactState {
    if dn < -open_tol {
        ContactState::Open
    } else if !state.closed() && dn <= 0.0 {
        // Not separated beyond tolerance but not penetrating either: an
        // open contact only closes once it actually penetrates.
        ContactState::Open
    } else if state == ContactState::Slide {
        let still_slipping = ds * slide_dir > 0.0;
        if !still_slipping && margin > FRICTION_HYSTERESIS * limit.abs() {
            ContactState::Lock
        } else {
            ContactState::Slide
        }
    } else if margin < 0.0 {
        ContactState::Slide
    } else {
        ContactState::Lock
    }
}

/// Tolerance on the edge-ratio saturation test in [`apply_slip`]: a
/// reference point this close to an endpoint is treated as still on the
/// edge (floating-point slop, not a real slide-off).
const EDGE_RATIO_SLACK: f64 = 1e-9;

/// Post-decision bookkeeping shared by both paths: sliding contacts
/// remember their direction and let the shear reference point slip along
/// the edge, so a later re-lock attaches the shear spring at the slid
/// position instead of yanking the block back.
///
/// A slip that carries the reference point *past* an edge endpoint means
/// the vertex has slid off this edge: the contact pair no longer exists
/// geometrically, so the contact is released to open (and reported as a
/// state change by the caller) instead of being silently pinned at the
/// endpoint — the next detection pass re-finds the vertex against its new
/// edge (or corner) and transfer drops the stale spring. Returns `true`
/// when the contact slid off.
fn apply_slip(c: &mut Contact, ds: f64, len: f64) -> bool {
    if c.state != ContactState::Slide {
        return false;
    }
    if ds.abs() > 1e-14 {
        c.slide_dir = ds.signum();
    }
    if len > 1e-12 {
        let raw = c.edge_ratio + ds / len;
        c.edge_ratio = raw.clamp(0.0, 1.0);
        if !(-EDGE_RATIO_SLACK..=1.0 + EDGE_RATIO_SLACK).contains(&raw) {
            c.state = ContactState::Open;
            return true;
        }
    }
    false
}

/// One contact's update, shared by both paths, from its `[dn, ds, margin,
/// limit, len]` measures: decide the new state, record `prev_iter_state`,
/// count the flip and let the shear reference slip. Returns `(flipped,
/// slid_off)`.
fn update_contact(
    c: &mut Contact,
    [dn, ds, margin, limit, len]: [f64; 5],
    open_tol: f64,
    freeze: bool,
) -> (bool, bool) {
    let mut new_state = decide(c.state, dn, ds, margin, limit, c.slide_dir, open_tol);
    if (freeze || c.flips >= FREEZE_FLIPS)
        && c.state.closed()
        && new_state.closed()
        && new_state != c.state
    {
        // Terminal phase: a closed contact still flipping sits at the
        // friction limit — settle it as sliding without restarting the
        // iteration.
        new_state = ContactState::Slide;
        c.state = ContactState::Slide;
    }
    c.prev_iter_state = c.state;
    let flipped = new_state != c.state;
    if flipped {
        c.state = new_state;
        c.flips += 1;
    }
    (flipped, apply_slip(c, ds, len))
}

/// Serial open–close update: applies the decision to every contact and
/// returns the number of state changes.
pub fn open_close_serial(
    contacts: &mut [Contact],
    gaps: &GapArrays,
    open_tol: f64,
    freeze: bool,
    counter: &mut CpuCounter,
) -> usize {
    let mut changes = 0;
    for (k, c) in contacts.iter_mut().enumerate() {
        let measures = [
            gaps.dn[k],
            gaps.ds[k],
            gaps.margin[k],
            gaps.limit[k],
            gaps.len[k],
        ];
        let (flipped, slid_off) = update_contact(c, measures, open_tol, freeze);
        if flipped || slid_off {
            // A slide-off release is a state change the loop must see, or
            // it would converge with a phantom contact still assembled.
            changes += 1;
        }
        counter.flop(8);
        counter.bytes(80);
    }
    changes
}

/// Contacts per block of `openclose.update`, one change-count partial each.
const TILE: usize = 256;

/// Per-block staging of `openclose.update`, reused by every block a host
/// thread runs.
#[derive(Default)]
struct TileScratch {
    contacts: Vec<Contact>,
    gaps: [Vec<f64>; 5],
    flipped: Vec<bool>,
    warp_words: Vec<u32>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<TileScratch> =
        std::cell::RefCell::new(TileScratch::default());
}

/// GPU open–close update: one thread per contact, and the change count in
/// the same launch — each warp reduces its flags by shuffle, each
/// 256-contact block stores a partial, and the block that finishes last
/// reduces the partials (the `__threadfence` pattern of
/// `dda_solver::vecops::fused_residual`; the host mirrors that integer
/// sum).
pub fn open_close_gpu(
    dev: &Device,
    contacts: &mut [Contact],
    gaps: &GapArrays,
    open_tol: f64,
    freeze: bool,
) -> usize {
    let nc = contacts.len();
    if nc == 0 {
        return 0;
    }
    let n_tiles = nc.div_ceil(TILE);
    let mut partials = vec![0u32; n_tiles];
    {
        let b_gaps =
            [&gaps.dn, &gaps.ds, &gaps.margin, &gaps.limit, &gaps.len].map(|g| dev.bind_ro(g));
        let b_c = dev.bind(contacts);
        let b_p = dev.bind(&mut partials);
        dev.launch_blocks("openclose.update", n_tiles, TILE, |blk| {
            SCRATCH.with(|cell| {
                let tile = &mut *cell.borrow_mut();
                let start = blk.block_id * TILE;
                let count = TILE.min(nc - start);
                blk.gld_range_into(&b_c, start, count, &mut tile.contacts);
                for (b, vals) in b_gaps.iter().zip(tile.gaps.iter_mut()) {
                    blk.gld_range_into(b, start, count, vals);
                }
                blk.flop_masked(count, 8);
                tile.flipped.clear();
                let mut changes = 0u32;
                for (t, c) in tile.contacts.iter_mut().enumerate() {
                    let measures = tile.gaps.each_ref().map(|g| g[t]);
                    let (flipped, slid_off) = update_contact(c, measures, open_tol, freeze);
                    tile.flipped.push(flipped);
                    changes += u32::from(flipped || slid_off);
                }
                blk.branch_mask(0, &tile.flipped);
                blk.gst_range(&b_c, start, &tile.contacts);
                // Warp shuffle reductions, one shared-memory pass over the
                // warp totals, the tile's partial.
                blk.shfl_reduce_cost(count, 32);
                tile.warp_words.clear();
                tile.warp_words.extend(0..count.div_ceil(32) as u32);
                blk.smem_access(&tile.warp_words);
                blk.sync();
                blk.gst_one(&b_p, blk.block_id, changes);
                if blk.block_id + 1 == n_tiles {
                    // Stand-in for "the block that finishes last": it alone
                    // re-reads every block's partial.
                    blk.gld_range_cost(&b_p, 0, n_tiles);
                    blk.flop_masked(n_tiles.min(TILE), 1);
                    blk.shfl_reduce_cost(n_tiles.min(TILE), 32);
                }
            });
        });
    }
    partials.iter().map(|&p| p as usize).sum()
}

/// Device-side third classification (§III-A): tags every contact with its
/// non-diagonal-building category (1–5, or 0 for abandoned) and returns
/// the histogram. The categories select which per-class pipeline a contact
/// takes through non-diagonal building; the pipeline reports them per
/// step.
pub fn categorize_gpu(dev: &Device, contacts: &[Contact]) -> [usize; 6] {
    let nc = contacts.len();
    let mut codes = vec![0u32; nc.max(1)];
    if nc > 0 {
        let b_c = dev.bind_ro(contacts);
        let b_k = dev.bind(&mut codes);
        dev.launch("openclose.categorize", nc, |lane| {
            let c = lane.ld(&b_c, lane.gid);
            lane.flop(4);
            let code = c.category().unwrap_or(0);
            lane.st(&b_k, lane.gid, u32::from(code));
        });
    }
    let mut hist = [0usize; 6];
    for &k in codes.iter().take(nc) {
        hist[k as usize] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::types::ContactKind;
    use dda_simt::DeviceProfile;

    fn contact(state: ContactState) -> Contact {
        let mut c = Contact::new(0, 1, 0, 0, u32::MAX, ContactKind::Ve);
        c.state = state;
        c.prev_iter_state = state;
        c
    }

    #[test]
    fn decision_rules() {
        let tol = 1e-6;
        // Separated beyond tolerance → open, whatever the previous state.
        assert_eq!(
            decide(ContactState::Lock, -1e-3, 0.0, 5.0, 6.0, 0.0, tol),
            ContactState::Open
        );
        assert_eq!(
            decide(ContactState::Open, -1e-3, 0.0, 5.0, 6.0, 0.0, tol),
            ContactState::Open
        );
        // Open and merely touching (dn ≤ 0) stays open.
        assert_eq!(
            decide(ContactState::Open, -1e-9, 0.0, 5.0, 6.0, 0.0, tol),
            ContactState::Open
        );
        // Penetrating with margin → lock.
        assert_eq!(
            decide(ContactState::Open, 1e-4, 0.0, 5.0, 6.0, 0.0, tol),
            ContactState::Lock
        );
        // A stalled slider with clear margin re-locks.
        assert_eq!(
            decide(ContactState::Slide, 1e-4, 0.0, 5.0, 6.0, 1.0, tol),
            ContactState::Lock
        );
        // Penetrating beyond the friction margin → slide.
        assert_eq!(
            decide(ContactState::Lock, 1e-4, 0.0, -1.0, 6.0, 0.0, tol),
            ContactState::Slide
        );
        // A closed contact within tolerance keeps its spring.
        assert_eq!(
            decide(ContactState::Lock, -1e-9, 0.0, 5.0, 6.0, 0.0, tol),
            ContactState::Lock
        );
    }

    #[test]
    fn friction_hysteresis_band() {
        let tol = 1e-6;
        // A stalled slider just inside the limit stays sliding…
        assert_eq!(
            decide(ContactState::Slide, 1e-4, 0.0, 0.05, 1.0, 1.0, tol),
            ContactState::Slide
        );
        // …but a locked one with the same margin stays locked.
        assert_eq!(
            decide(ContactState::Lock, 1e-4, 0.0, 0.05, 1.0, 0.0, tol),
            ContactState::Lock
        );
        // Clearing the band re-locks a stalled slider.
        assert_eq!(
            decide(ContactState::Slide, 1e-4, 0.0, 0.2, 1.0, 1.0, tol),
            ContactState::Lock
        );
        // A slider still slipping forward keeps sliding regardless of
        // margin.
        assert_eq!(
            decide(ContactState::Slide, 1e-4, 0.01, 5.0, 1.0, 1.0, tol),
            ContactState::Slide
        );
        // Reversed slip with margin re-locks.
        assert_eq!(
            decide(ContactState::Slide, 1e-4, -0.01, 5.0, 1.0, 1.0, tol),
            ContactState::Lock
        );
    }

    #[test]
    fn slip_reference_follows_sliding() {
        let mut c = contact(ContactState::Slide);
        c.edge_ratio = 0.5;
        apply_slip(&mut c, 0.1, 2.0); // slid 0.1 m along a 2 m edge
        assert!((c.edge_ratio - 0.55).abs() < 1e-12);
        assert_eq!(c.slide_dir, 1.0);
        // Locked contacts keep their reference.
        let mut cl = contact(ContactState::Lock);
        cl.edge_ratio = 0.5;
        apply_slip(&mut cl, 0.1, 2.0);
        assert_eq!(cl.edge_ratio, 0.5);
    }

    #[test]
    fn slide_past_edge_end_releases_contact() {
        // Regression: the pre-fix code clamped the ratio and silently kept
        // the contact sliding, pinned at the endpoint.
        let mut c = contact(ContactState::Slide);
        c.edge_ratio = 0.9;
        // Slip 0.8 m along a 2 m edge: the reference lands at ratio 1.3.
        assert!(apply_slip(&mut c, 0.8, 2.0), "must report the slide-off");
        assert_eq!(c.state, ContactState::Open, "slid-off contact releases");
        assert_eq!(c.edge_ratio, 1.0);
        // Off the start of the edge, symmetrically.
        let mut c2 = contact(ContactState::Slide);
        c2.edge_ratio = 0.05;
        assert!(apply_slip(&mut c2, -0.4, 2.0));
        assert_eq!(c2.state, ContactState::Open);
        assert_eq!(c2.edge_ratio, 0.0);
        // A slip that stays on the edge keeps sliding.
        let mut c3 = contact(ContactState::Slide);
        c3.edge_ratio = 0.5;
        assert!(!apply_slip(&mut c3, 0.2, 2.0));
        assert_eq!(c3.state, ContactState::Slide);
        // Landing exactly on the endpoint (within slack) is not a
        // slide-off.
        let mut c4 = contact(ContactState::Slide);
        c4.edge_ratio = 0.5;
        assert!(!apply_slip(&mut c4, 1.0, 2.0));
        assert_eq!(c4.state, ContactState::Slide);
        assert_eq!(c4.edge_ratio, 1.0);
    }

    #[test]
    fn slide_off_counts_as_change_and_matches_gpu() {
        // A ramp-edge slide-off seen by the loop drivers: one contact still
        // slipping forward whose accumulated slip carries it past the edge
        // end. Both paths must release it AND count a change, or loop 3
        // would converge with a phantom contact still assembled.
        let mk = || {
            let mut c = contact(ContactState::Slide);
            c.slide_dir = 1.0;
            c.edge_ratio = 0.95;
            c
        };
        let mut serial = vec![mk()];
        let mut gpu = serial.clone();
        let gaps = GapArrays {
            dn: vec![0.001],    // still pressing the edge
            ds: vec![0.3],      // slipping forward, 0.3 m on a 2 m edge
            margin: vec![-1.0], // beyond the friction limit
            limit: vec![1.0],
            len: vec![2.0],
        };
        let mut cnt = CpuCounter::new();
        let n1 = open_close_serial(&mut serial, &gaps, 1e-6, false, &mut cnt);
        assert_eq!(n1, 1, "the release must be counted as a state change");
        assert_eq!(serial[0].state, ContactState::Open);
        let dev = Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true);
        let n2 = open_close_gpu(&dev, &mut gpu, &gaps, 1e-6, false);
        assert_eq!(n1, n2);
        assert_eq!(serial, gpu);
    }

    /// Pins today's count of a round trip that is no net change: an open
    /// contact penetrates, `decide` closes it as sliding (beyond the
    /// friction margin), and `apply_slip` carries it off its edge back to
    /// open — all in one update, which still counts it. Repeated, the same
    /// measures count one change per update with no state ever differing
    /// between updates: the plateau on which the unconverged open–close
    /// loops of the slope and scatter workloads end.
    #[test]
    fn open_slide_open_round_trip_counts_as_a_change() {
        let mk = || {
            let mut c = contact(ContactState::Open);
            c.edge_ratio = 0.95;
            c
        };
        let mut serial = vec![mk()];
        let mut gpu = serial.clone();
        let gaps = GapArrays {
            dn: vec![0.001],    // penetrating
            ds: vec![0.3],      // 0.3 m of slip on a 2 m edge: past its end
            margin: vec![-1.0], // beyond the friction limit
            limit: vec![1.0],
            len: vec![2.0],
        };
        let dev = Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true);
        let mut cnt = CpuCounter::new();
        for update in 0..3 {
            let before = serial.clone();
            let n1 = open_close_serial(&mut serial, &gaps, 1e-6, false, &mut cnt);
            let n2 = open_close_gpu(&dev, &mut gpu, &gaps, 1e-6, false);
            assert_eq!((n1, n2), (1, 1), "update {update}");
            assert_eq!(serial, gpu, "update {update}");
            assert_eq!(serial[0].state, ContactState::Open, "update {update}");
            assert_eq!(serial[0].state, before[0].state, "no net change");
            assert_eq!(serial[0].prev_iter_state, ContactState::Open);
        }
        // Every round trip is a flip (open → slide) and a release.
        assert_eq!(serial[0].flips, 3);
    }

    #[test]
    fn serial_counts_changes_and_records_prev() {
        let mut contacts = vec![
            contact(ContactState::Lock), // will open
            contact(ContactState::Lock), // stays locked
            contact(ContactState::Lock), // will slide
            contact(ContactState::Open), // will lock
        ];
        let gaps = GapArrays {
            dn: vec![-0.1, 0.001, 0.001, 0.001],
            ds: vec![0.0; 4],
            margin: vec![1.0, 1.0, -1.0, 1.0],
            limit: vec![1.0; 4],
            len: vec![1.0; 4],
        };
        let mut cnt = CpuCounter::new();
        let changes = open_close_serial(&mut contacts, &gaps, 1e-6, false, &mut cnt);
        assert_eq!(changes, 3);
        assert_eq!(contacts[0].state, ContactState::Open);
        assert_eq!(contacts[1].state, ContactState::Lock);
        assert_eq!(contacts[2].state, ContactState::Slide);
        assert_eq!(contacts[3].state, ContactState::Lock);
        // prev_iter_state holds the pre-update state → p2 is defined.
        assert_eq!(contacts[2].prev_iter_state, ContactState::Lock);
        assert_eq!(contacts[2].p2(), -1);
    }

    #[test]
    fn gpu_matches_serial() {
        let states = [
            ContactState::Lock,
            ContactState::Open,
            ContactState::Slide,
            ContactState::Lock,
            ContactState::Open,
        ];
        let mut serial: Vec<Contact> = states.iter().map(|&s| contact(s)).collect();
        let mut gpu = serial.clone();
        let gaps = GapArrays {
            dn: vec![0.001, 0.002, -0.5, -0.5, -1e-9],
            ds: vec![0.01, 0.0, 0.0, 0.0, 0.0],
            margin: vec![-1.0, 3.0, 1.0, 1.0, 1.0],
            limit: vec![1.0; 5],
            len: vec![2.0; 5],
        };
        let mut cnt = CpuCounter::new();
        let n1 = open_close_serial(&mut serial, &gaps, 1e-6, false, &mut cnt);
        let dev = Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true);
        let n2 = open_close_gpu(&dev, &mut gpu, &gaps, 1e-6, false);
        assert_eq!(n1, n2);
        assert_eq!(serial, gpu);
    }

    #[test]
    fn change_count_is_one_launch_and_matches_serial() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for nc in [1, 255, 256, 257, 5_000] {
            let states = [ContactState::Open, ContactState::Lock, ContactState::Slide];
            let mut serial: Vec<Contact> = (0..nc)
                .map(|_| {
                    let mut c = contact(states[rng.gen_range(0..3)]);
                    c.slide_dir = [-1.0, 0.0, 1.0][rng.gen_range(0..3)];
                    c.edge_ratio = rng.gen();
                    c.flips = rng.gen_range(0..3) as u32;
                    c
                })
                .collect();
            let mut draw = |lo: f64, hi: f64| -> Vec<f64> {
                (0..nc).map(|_| lo + (hi - lo) * rng.gen::<f64>()).collect()
            };
            let gaps = GapArrays {
                dn: draw(-2e-6, 2e-6),
                ds: draw(-0.2, 0.2),
                margin: draw(-1.0, 1.0),
                limit: draw(0.5, 1.0),
                len: draw(1.0, 2.0),
            };
            let freeze = nc % 2 == 0;
            let mut gpu = serial.clone();
            let mut cnt = CpuCounter::new();
            let n1 = open_close_serial(&mut serial, &gaps, 1e-6, freeze, &mut cnt);
            let dev = Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true);
            let n2 = open_close_gpu(&dev, &mut gpu, &gaps, 1e-6, freeze);
            assert_eq!(n1, n2, "nc = {nc}");
            assert_eq!(serial, gpu, "nc = {nc}");
            assert!(nc < 255 || (0 < n1 && n1 < nc), "nc = {nc}: {n1} changes");
            let names: Vec<_> = dev.trace().records.iter().map(|r| r.name).collect();
            assert_eq!(names, ["openclose.update"], "nc = {nc}");
        }
    }

    #[test]
    fn categorize_histogram_matches_reference() {
        use crate::contact::types::ContactKind;
        let mut contacts = Vec::new();
        // One of each category plus an abandoned contact.
        let mk =
            |kind: ContactKind, prev: ContactState, prev_it: ContactState, cur: ContactState| {
                let mut c = Contact::new(0, 1, 0, 0, u32::MAX, kind);
                c.prev_step_state = prev;
                c.prev_iter_state = prev_it;
                c.state = cur;
                c
            };
        contacts.push(mk(
            ContactKind::Ve,
            ContactState::Open,
            ContactState::Open,
            ContactState::Lock,
        )); // C1
        contacts.push(mk(
            ContactKind::Ve,
            ContactState::Slide,
            ContactState::Slide,
            ContactState::Lock,
        )); // C2
        contacts.push(mk(
            ContactKind::Vv1,
            ContactState::Lock,
            ContactState::Lock,
            ContactState::Lock,
        )); // C3
        contacts.push(mk(
            ContactKind::Vv2,
            ContactState::Open,
            ContactState::Open,
            ContactState::Lock,
        )); // C4
        contacts.push(mk(
            ContactKind::Vv2,
            ContactState::Slide,
            ContactState::Slide,
            ContactState::Slide,
        )); // C5
        contacts.push(mk(
            ContactKind::Ve,
            ContactState::Open,
            ContactState::Open,
            ContactState::Open,
        )); // abandoned
        let dev = Device::new(DeviceProfile::tesla_k40());
        let hist = categorize_gpu(&dev, &contacts);
        assert_eq!(hist, [1, 1, 1, 1, 1, 1]);
        // Empty input.
        assert_eq!(categorize_gpu(&dev, &[]), [0; 6]);
    }

    #[test]
    fn converged_population_reports_zero_changes() {
        let mut contacts = vec![contact(ContactState::Lock); 10];
        let gaps = GapArrays {
            dn: vec![1e-5; 10],
            ds: vec![0.0; 10],
            margin: vec![1.0; 10],
            limit: vec![1.0; 10],
            len: vec![1.0; 10],
        };
        let mut cnt = CpuCounter::new();
        assert_eq!(
            open_close_serial(&mut contacts, &gaps, 1e-6, false, &mut cnt),
            0
        );
    }
}
