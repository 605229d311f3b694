//! Batch regions: merging per-scene launches into batched launch records.
//!
//! The multi-scene runtime in `dda-core` steps N independent scenes through
//! the same pipeline phases. On real hardware each phase would be issued as
//! **one** kernel over the concatenated scene data (the inference-batching
//! shape: same math, amortized launch overhead, better occupancy). The host
//! execution here still runs each scene's kernel body separately — which is
//! exactly what guarantees per-scene results bit-identical to solo stepping
//! — but inside a *batch region* the device coalesces the per-scene
//! [`LaunchRecord`](crate::stats::LaunchRecord)s of matching kernels into
//! merged records with a single launch overhead and summed occupancy,
//! which is what the timing model would charge the fused launch.
//!
//! ## Alignment
//!
//! Launches are grouped greedily by kernel name with a per-segment cursor:
//! each incoming launch from segment `s` joins the first group at index ≥
//! `cursor[s]` whose name matches and that `s` has not already joined,
//! else it opens a new group. Because every pipeline phase (and every PCG
//! iteration) issues a fixed cycle of distinct kernel names, this aligns
//! iteration *k* of scene A with iteration *k* of scene B — the masked
//! lockstep execution a real batched kernel performs. A scene that
//! converges early simply stops joining groups; the remaining scenes keep
//! merging without it.
//!
//! ## Attribution
//!
//! Each merged group is charged once by the [`TimingModel`]; the group's
//! modeled seconds are split back over the participating segments in
//! proportion to each segment's launch-overhead-free modeled time (its pure
//! work share), so a heavy scene in a batch is billed more than a light one.

use crate::profile::DeviceProfile;
use crate::stats::KernelStats;
use crate::timing::TimingModel;

/// One merged-launch group being assembled inside a batch region.
struct BatchGroup {
    /// Kernel name shared by every member.
    name: &'static str,
    /// Merged counters (launches sums the members until `finish` collapses
    /// it to the members' maximum).
    stats: KernelStats,
    /// Per-member `(segment, counters)` contributions, for attribution.
    members: Vec<(usize, KernelStats)>,
}

/// In-flight state of an open batch region (owned by the device).
pub(crate) struct BatchState {
    n_segments: usize,
    current: Option<usize>,
    /// Per-segment group cursor: the next group index this segment may join.
    cursors: Vec<usize>,
    groups: Vec<BatchGroup>,
    launches_in: u64,
}

impl BatchState {
    pub(crate) fn new(n_segments: usize) -> BatchState {
        assert!(n_segments > 0, "batch region needs at least one segment");
        BatchState {
            n_segments,
            current: None,
            cursors: vec![0; n_segments],
            groups: Vec::new(),
            launches_in: 0,
        }
    }

    /// The segment subsequent launches are attributed to (None before the
    /// region's first `set_segment`).
    pub(crate) fn current_segment(&self) -> Option<usize> {
        self.current
    }

    pub(crate) fn set_segment(&mut self, i: usize) {
        assert!(
            i < self.n_segments,
            "batch segment {i} out of range (n_segments = {})",
            self.n_segments
        );
        self.current = Some(i);
    }

    /// Routes one launch into the open batch (greedy cursor alignment).
    pub(crate) fn push(&mut self, name: &'static str, stats: KernelStats) {
        let seg = self
            .current
            .expect("launch inside a batch region before batch_segment()");
        self.launches_in += stats.launches;
        let start = self.cursors[seg];
        let joined = self.groups[start..]
            .iter()
            .position(|g| g.name == name && g.members.iter().all(|&(s, _)| s != seg))
            .map(|off| start + off);
        let g = match joined {
            Some(g) => g,
            None => {
                self.groups.push(BatchGroup {
                    name,
                    stats: KernelStats::default(),
                    members: Vec::new(),
                });
                self.groups.len() - 1
            }
        };
        self.groups[g].stats.merge(&stats);
        self.groups[g].members.push((seg, stats));
        self.cursors[seg] = g + 1;
    }

    /// Closes the region: collapses each group to one launch, prices it,
    /// and attributes the time back to the segments. Returns the merged
    /// launches as `(name, counters, seconds)` in group order.
    pub(crate) fn finish(
        self,
        model: &TimingModel,
        profile: &DeviceProfile,
    ) -> (Vec<(&'static str, KernelStats, f64)>, BatchSummary) {
        let mut records = Vec::with_capacity(self.groups.len());
        let mut per_segment_seconds = vec![0.0; self.n_segments];
        let mut seconds = 0.0;
        for group in &self.groups {
            let mut merged = group.stats;
            // One batched issue replaces the members' parallel issues — but
            // a record that models k *sequential* launches (e.g. a 2-kernel
            // phase recorded as one entry) still needs k when batched.
            merged.launches = group
                .members
                .iter()
                .map(|(_, s)| s.launches)
                .max()
                .unwrap_or(1)
                .max(1);
            let t = model.seconds(&merged, profile);
            seconds += t;
            records.push((group.name, merged, t));
            // Work share per member: modeled time with the launch overhead
            // stripped (launches = 0), so attribution reflects pure work.
            let weights: Vec<f64> = group
                .members
                .iter()
                .map(|(_, s)| {
                    let mut w = *s;
                    w.launches = 0;
                    model.seconds(&w, profile)
                })
                .collect();
            let total_w: f64 = weights.iter().sum();
            for ((seg, _), w) in group.members.iter().zip(&weights) {
                let share = if total_w > 0.0 {
                    w / total_w
                } else {
                    1.0 / group.members.len() as f64
                };
                per_segment_seconds[*seg] += t * share;
            }
        }
        let launches_out = records.iter().map(|r| r.1.launches).sum();
        let summary = BatchSummary {
            launches_in: self.launches_in,
            launches_out,
            seconds,
            per_segment_seconds,
        };
        (records, summary)
    }
}

/// Accounting result of one closed batch region.
#[derive(Debug, Clone, Default)]
pub struct BatchSummary {
    /// Launches issued by the segments while the region was open.
    pub launches_in: u64,
    /// Launches actually recorded after merging.
    pub launches_out: u64,
    /// Total modeled seconds of the merged launches.
    pub seconds: f64,
    /// `seconds` attributed back to each segment by its work share.
    pub per_segment_seconds: Vec<f64>,
}

impl BatchSummary {
    /// Merges another summary into this one (segment-wise; the two must
    /// cover the same segments).
    pub fn merge(&mut self, other: &BatchSummary) {
        if self.per_segment_seconds.is_empty() {
            self.per_segment_seconds = vec![0.0; other.per_segment_seconds.len()];
        }
        assert_eq!(
            self.per_segment_seconds.len(),
            other.per_segment_seconds.len(),
            "cannot merge batch summaries over different segment counts"
        );
        self.launches_in += other.launches_in;
        self.launches_out += other.launches_out;
        self.seconds += other.seconds;
        for (a, b) in self
            .per_segment_seconds
            .iter_mut()
            .zip(&other.per_segment_seconds)
        {
            *a += b;
        }
    }
}
