//! Contact transfer (§III-B): carry contact history across time steps.
//!
//! "Each contact of the previous step will search the contacts of the
//! current step. If their contact data are the same, then the contact
//! status parameter, normal displacement, shear displacement, and contact
//! edge ratio of the previous step are transferred to the current step."
//!
//! The GPU path follows the paper: the current contacts form a successive
//! array sorted by (minor-block-first) key, and each previous contact
//! binary-searches it (sorted search). Matches copy the history fields.

use super::types::Contact;
use dda_simt::primitives::search::find_exact_u64;
use dda_simt::serial::CpuCounter;
use dda_simt::Device;

/// Serial transfer: binary search per previous contact.
///
/// `current` must be sorted by [`Contact::key`] (narrow phase guarantees
/// this). Returns the number of transferred contacts.
pub fn transfer_contacts_serial(
    previous: &[Contact],
    current: &mut [Contact],
    counter: &mut CpuCounter,
) -> usize {
    let keys: Vec<u64> = current.iter().map(|c| c.key()).collect();
    let mut transferred = 0;
    for p in previous {
        if let Ok(pos) = keys.binary_search(&p.key()) {
            apply_transfer(&mut current[pos], p);
            transferred += 1;
        }
    }
    let searches = previous.len() as u64;
    let logn = (usize::BITS - current.len().max(1).leading_zeros()) as u64;
    counter.flop(2 * searches * logn);
    counter.bytes(searches * (logn + 4) * 8);
    transferred
}

/// GPU transfer via device sorted search, then a gather-update pass.
pub fn transfer_contacts_gpu(dev: &Device, previous: &[Contact], current: &mut [Contact]) -> usize {
    if previous.is_empty() || current.is_empty() {
        return 0;
    }
    let keys: Vec<u64> = current.iter().map(|c| c.key()).collect();
    let queries: Vec<u64> = previous.iter().map(|c| c.key()).collect();
    let hits = find_exact_u64(dev, &keys, &queries);

    // Update kernel: each previous contact with a hit writes the history
    // fields of its match. Matches are unique (keys are unique within a
    // step), so stores are conflict-free.
    let mut transferred = 0usize;
    {
        let b_prev = dev.bind_ro(previous);
        let b_hits = dev.bind_ro(&hits);
        let b_cur = dev.bind(current);
        dev.launch("transfer.apply", previous.len(), |lane| {
            let h = lane.ld(&b_hits, lane.gid);
            if lane.branch(0, h != u32::MAX) {
                let p = lane.ld(&b_prev, lane.gid);
                let mut c = lane.ld(&b_cur, h as usize);
                apply_transfer(&mut c, &p);
                lane.st(&b_cur, h as usize, c);
            }
        });
    }
    for h in &hits {
        if *h != u32::MAX {
            transferred += 1;
        }
    }
    transferred
}

/// [`transfer_contacts_gpu`] under the name `benchmark/` still calls. The
/// class-sorted schedule is gone, so a schedule is refused; the wrapper
/// goes with ROADMAP item 4.
pub fn transfer_contacts_gpu_scheduled(
    dev: &Device,
    previous: &[Contact],
    current: &mut [Contact],
    sched: Option<&[u32]>,
) -> usize {
    assert!(sched.is_none(), "contact scheduling was removed");
    transfer_contacts_gpu(dev, previous, current)
}

fn apply_transfer(cur: &mut Contact, prev: &Contact) {
    cur.state = prev.state;
    cur.prev_step_state = prev.state;
    cur.prev_iter_state = prev.state;
    cur.normal_disp = prev.normal_disp;
    cur.shear_disp = prev.shear_disp;
    // The transferred edge ratio carries the shear-spring reference point;
    // the sliding direction must travel with it or the friction force of a
    // persisting slide contact would re-derive its sign from numerical
    // noise at the (re-attached) reference.
    cur.edge_ratio = prev.edge_ratio;
    cur.slide_dir = prev.slide_dir;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::types::{ContactKind, ContactState};
    use dda_simt::DeviceProfile;

    fn contact(i: u32, j: u32, v: u32, e: u32) -> Contact {
        Contact::new(i, j, v, e, u32::MAX, ContactKind::Ve)
    }

    fn sorted(mut v: Vec<Contact>) -> Vec<Contact> {
        v.sort_by_key(|c| c.key());
        v
    }

    #[test]
    fn history_is_copied_on_match() {
        let mut prev = contact(0, 1, 2, 0);
        prev.state = ContactState::Lock;
        prev.normal_disp = 0.5;
        prev.shear_disp = -0.25;
        prev.edge_ratio = 0.7;
        let mut current = sorted(vec![contact(0, 1, 2, 0), contact(0, 1, 3, 0)]);
        let mut c = CpuCounter::new();
        let n = transfer_contacts_serial(&[prev], &mut current, &mut c);
        assert_eq!(n, 1);
        let m = current.iter().find(|c| c.vertex == 2).unwrap();
        assert_eq!(m.state, ContactState::Lock);
        assert_eq!(m.prev_step_state, ContactState::Lock);
        assert_eq!(m.normal_disp, 0.5);
        assert_eq!(m.edge_ratio, 0.7);
        // The unmatched contact keeps its defaults.
        let u = current.iter().find(|c| c.vertex == 3).unwrap();
        assert_eq!(u.state, ContactState::Open);
    }

    #[test]
    fn vanished_contacts_do_not_transfer() {
        let prev = contact(5, 6, 0, 0);
        let mut current = sorted(vec![contact(0, 1, 0, 0)]);
        let mut c = CpuCounter::new();
        assert_eq!(transfer_contacts_serial(&[prev], &mut current, &mut c), 0);
    }

    #[test]
    fn gpu_matches_serial() {
        let mut prevs = Vec::new();
        for k in 0..40u32 {
            let mut p = contact(k % 7, k % 7 + 1 + k % 3, k % 4, k % 2);
            p.state = if k % 2 == 0 {
                ContactState::Lock
            } else {
                ContactState::Slide
            };
            p.normal_disp = k as f64 * 0.1;
            prevs.push(p);
        }
        prevs = sorted(prevs);
        prevs.dedup_by_key(|c| c.key());
        // Current step: half the old contacts survive plus some new ones.
        let mut current: Vec<Contact> = prevs
            .iter()
            .step_by(2)
            .copied()
            .map(|mut c| {
                c.state = ContactState::Open;
                c.normal_disp = 0.0;
                c.shear_disp = 0.0;
                c
            })
            .collect();
        for k in 0..10u32 {
            current.push(contact(100 + k, 200 + k, 0, 0));
        }
        let mut cur_serial = sorted(current);
        let mut cur_gpu = cur_serial.clone();

        let mut cnt = CpuCounter::new();
        let n1 = transfer_contacts_serial(&prevs, &mut cur_serial, &mut cnt);
        let dev = Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true);
        let n2 = transfer_contacts_gpu(&dev, &prevs, &mut cur_gpu);
        assert_eq!(n1, n2);
        assert_eq!(cur_serial, cur_gpu);
        assert!(n1 > 0);
    }

    #[test]
    fn empty_inputs() {
        let dev = Device::new(DeviceProfile::tesla_k40());
        let mut cur: Vec<Contact> = vec![];
        assert_eq!(transfer_contacts_gpu(&dev, &[], &mut cur), 0);
        let mut cur2 = vec![contact(0, 1, 0, 0)];
        assert_eq!(transfer_contacts_gpu(&dev, &[], &mut cur2), 0);
    }
}
