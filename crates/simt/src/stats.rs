//! Kernel execution reports and the device-level trace.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Architectural counters collected from one kernel launch (or merged over
/// several).
///
/// The counters deliberately mirror what NVIDIA's Nsight exposes — the paper
/// validates its divergence claim with Nsight — so the harness can report
/// the same quantities (e.g. *branch divergence %* =
/// `divergent_branch_groups / branch_groups`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Number of launches merged into this report.
    pub launches: u64,
    /// Simulated threads across those launches.
    pub threads: u64,
    /// Simulated warps (including partially-filled tail warps).
    pub warps: u64,
    /// Sum of per-lane floating-point operations (the *useful* work; this is
    /// what a serial CPU would execute).
    pub flops: u64,
    /// SIMT work: for each warp, the maximum per-lane flops times the full
    /// warp width. Idle lanes in divergent or tail warps make this exceed
    /// [`KernelStats::flops`]; the ratio is the SIMT efficiency.
    pub warp_flops: u64,
    /// 128-byte global-memory transactions after warp-level coalescing.
    pub gmem_transactions: u64,
    /// Bytes actually requested by lanes (useful bytes). The ratio of
    /// `gmem_transactions * 128` to this is the over-fetch factor of an
    /// uncoalesced access pattern.
    pub gmem_bytes: u64,
    /// 32-byte texture-path transactions (the cached route the paper uses
    /// for irregular vector reads).
    pub tex_transactions: u64,
    /// Shared-memory accesses issued.
    pub smem_accesses: u64,
    /// Shared-memory replays caused by bank conflicts.
    pub smem_replays: u64,
    /// Warp-level branch decision groups observed (one per branch site per
    /// dynamic occurrence per warp).
    pub branch_groups: u64,
    /// Branch groups where lanes of the same warp disagreed — the divergence
    /// events the paper's data-classification framework removes.
    pub divergent_branch_groups: u64,
    /// Warp shuffle operations (the paper replaces shared-memory reductions
    /// with shuffles in its scan/sort).
    pub shuffles: u64,
    /// Block-wide barriers executed.
    pub syncs: u64,
}

impl KernelStats {
    /// All-zero report; `const` so thread-local accumulators can be
    /// initialized without lazy machinery.
    pub const fn new() -> KernelStats {
        KernelStats {
            launches: 0,
            threads: 0,
            warps: 0,
            flops: 0,
            warp_flops: 0,
            gmem_transactions: 0,
            gmem_bytes: 0,
            tex_transactions: 0,
            smem_accesses: 0,
            smem_replays: 0,
            branch_groups: 0,
            divergent_branch_groups: 0,
            shuffles: 0,
            syncs: 0,
        }
    }

    /// Merges another report into this one (summing every counter).
    pub fn merge(&mut self, other: &KernelStats) {
        self.launches += other.launches;
        self.threads += other.threads;
        self.warps += other.warps;
        self.flops += other.flops;
        self.warp_flops += other.warp_flops;
        self.gmem_transactions += other.gmem_transactions;
        self.gmem_bytes += other.gmem_bytes;
        self.tex_transactions += other.tex_transactions;
        self.smem_accesses += other.smem_accesses;
        self.smem_replays += other.smem_replays;
        self.branch_groups += other.branch_groups;
        self.divergent_branch_groups += other.divergent_branch_groups;
        self.shuffles += other.shuffles;
        self.syncs += other.syncs;
    }

    /// Counts one warp's lockstep shared-memory access, lane by lane at
    /// `words` (at most [`crate::WARP_SIZE`] of them): one access per lane,
    /// and one replay for each word the fullest of the
    /// [`crate::SMEM_BANKS`] banks serves beyond its first.
    pub fn smem_warp(&mut self, words: impl IntoIterator<Item = usize>) {
        let mut banks = [0u32; crate::SMEM_BANKS];
        for w in words {
            banks[w % crate::SMEM_BANKS] += 1;
            self.smem_accesses += 1;
        }
        let fullest = banks.iter().copied().max().unwrap_or(0);
        self.smem_replays += u64::from(fullest.saturating_sub(1));
    }

    /// Fraction of warp branch groups that diverged, in `[0, 1]`.
    /// Returns 0 when no branches were observed.
    pub fn divergence_fraction(&self) -> f64 {
        if self.branch_groups == 0 {
            0.0
        } else {
            self.divergent_branch_groups as f64 / self.branch_groups as f64
        }
    }

    /// SIMT lane efficiency: useful flops over lockstep warp flops, in
    /// `(0, 1]`. Returns 1 when no flops were recorded.
    pub fn simt_efficiency(&self) -> f64 {
        if self.warp_flops == 0 {
            1.0
        } else {
            self.flops as f64 / self.warp_flops as f64
        }
    }

    /// Coalescing over-fetch: transaction bytes moved per useful byte.
    /// 1.0 is perfectly coalesced; 32.0 is a fully-scattered warp load.
    pub fn overfetch(&self) -> f64 {
        if self.gmem_bytes == 0 {
            1.0
        } else {
            (self.gmem_transactions * crate::TRANSACTION_BYTES
                + self.tex_transactions * crate::TEX_TRANSACTION_BYTES) as f64
                / self.gmem_bytes as f64
        }
    }

    /// Shared-memory bank-conflict replay rate (replays per access).
    pub fn bank_conflict_rate(&self) -> f64 {
        if self.smem_accesses == 0 {
            0.0
        } else {
            self.smem_replays as f64 / self.smem_accesses as f64
        }
    }
}

/// One recorded launch: kernel name, pipeline phase, its counters, and its
/// modeled time.
///
/// Kernel names are interned `&'static str`s (every launch site names its
/// kernel with a literal), so recording a launch in the hot loop copies a
/// pointer instead of allocating a `String`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LaunchRecord {
    /// Kernel name as passed to `Device::launch`.
    pub name: &'static str,
    /// The [`Device::in_phase`](crate::Device::in_phase) the launch was
    /// recorded in; empty outside any.
    pub phase: &'static str,
    /// Counters for this launch.
    pub stats: KernelStats,
    /// Modeled execution time in seconds under the device's profile.
    pub seconds: f64,
}

/// Accumulated log of every launch on a device since the last reset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DeviceTrace {
    /// Launches in issue order.
    pub records: Vec<LaunchRecord>,
}

impl DeviceTrace {
    /// Total modeled seconds across all recorded launches.
    pub fn total_seconds(&self) -> f64 {
        self.records.iter().map(|r| r.seconds).sum()
    }

    /// Merged counters across all recorded launches.
    pub fn total_stats(&self) -> KernelStats {
        let mut acc = KernelStats::default();
        for r in &self.records {
            acc.merge(&r.stats);
        }
        acc
    }

    /// Per-kernel-name aggregation: `(merged stats, total seconds)`, sorted
    /// by name for deterministic reporting.
    pub fn by_kernel(&self) -> BTreeMap<&'static str, (KernelStats, f64)> {
        self.aggregate(|r| r.name)
    }

    /// [`DeviceTrace::by_kernel`] split by phase: one row per `(phase,
    /// kernel)`, sorted by phase, then name.
    pub fn by_phase_kernel(&self) -> BTreeMap<(&'static str, &'static str), (KernelStats, f64)> {
        self.aggregate(|r| (r.phase, r.name))
    }

    fn aggregate<K: Ord>(
        &self,
        key: impl Fn(&LaunchRecord) -> K,
    ) -> BTreeMap<K, (KernelStats, f64)> {
        let mut map = BTreeMap::new();
        for r in &self.records {
            let entry = map.entry(key(r)).or_insert((KernelStats::default(), 0.0));
            entry.0.merge(&r.stats);
            entry.1 += r.seconds;
        }
        map
    }

    /// Number of launches recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no launches have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl std::fmt::Display for KernelStats {
    /// Compact single-line summary, Nsight-style.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} launch(es), {} threads | {:.2} Mflop (SIMT eff {:.0}%) | {} tx ({:.2}× fetch) | div {:.1}% | bank replays {}",
            self.launches,
            self.threads,
            self.flops as f64 / 1e6,
            self.simt_efficiency() * 100.0,
            self.gmem_transactions + self.tex_transactions,
            self.overfetch(),
            self.divergence_fraction() * 100.0,
            self.smem_replays,
        )
    }
}

impl DeviceTrace {
    /// Renders a per-kernel profile table sorted by modeled time, similar
    /// to a profiler summary. `top` limits the number of rows (0 = all).
    pub fn report(&self, top: usize) -> String {
        let total = self.total_seconds().max(1e-30);
        let mut rows: Vec<(&'static str, KernelStats, f64)> = self
            .by_kernel()
            .into_iter()
            .map(|(k, (s, t))| (k, s, t))
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        if top > 0 {
            rows.truncate(top);
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<32} {:>10} {:>12} {:>7}
",
            "kernel", "launches", "modeled", "share"
        ));
        for (name, stats, t) in rows {
            out.push_str(&format!(
                "{:<32} {:>10} {:>9.3} ms {:>6.1}%
",
                name,
                stats.launches,
                t * 1e3,
                t / total * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(flops: u64, warp_flops: u64) -> KernelStats {
        KernelStats {
            launches: 1,
            threads: 64,
            warps: 2,
            flops,
            warp_flops,
            gmem_transactions: 4,
            gmem_bytes: 512,
            branch_groups: 10,
            divergent_branch_groups: 2,
            smem_accesses: 100,
            smem_replays: 25,
            ..Default::default()
        }
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = sample(100, 200);
        let b = sample(50, 80);
        a.merge(&b);
        assert_eq!(a.launches, 2);
        assert_eq!(a.flops, 150);
        assert_eq!(a.warp_flops, 280);
        assert_eq!(a.gmem_transactions, 8);
        assert_eq!(a.branch_groups, 20);
    }

    #[test]
    fn derived_metrics() {
        let s = sample(100, 200);
        assert!((s.divergence_fraction() - 0.2).abs() < 1e-12);
        assert!((s.simt_efficiency() - 0.5).abs() < 1e-12);
        assert!((s.overfetch() - 1.0).abs() < 1e-12); // 4*128 == 512
        assert!((s.bank_conflict_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn derived_metrics_zero_safe() {
        let z = KernelStats::default();
        assert_eq!(z.divergence_fraction(), 0.0);
        assert_eq!(z.simt_efficiency(), 1.0);
        assert_eq!(z.overfetch(), 1.0);
        assert_eq!(z.bank_conflict_rate(), 0.0);
    }

    #[test]
    fn display_and_report_render() {
        let s = sample(1_000_000, 2_000_000);
        let line = format!("{s}");
        assert!(line.contains("1.00 Mflop"));
        assert!(line.contains("SIMT eff 50%"));

        let mut t = DeviceTrace::default();
        t.records.push(LaunchRecord {
            name: "spmv",
            phase: "",
            stats: s,
            seconds: 2e-3,
        });
        t.records.push(LaunchRecord {
            name: "dot",
            phase: "",
            stats: s,
            seconds: 0.5e-3,
        });
        let rep = t.report(0);
        let lines: Vec<&str> = rep.lines().collect();
        assert_eq!(lines.len(), 3);
        // Sorted by time: spmv first, 80% share.
        assert!(lines[1].starts_with("spmv"));
        assert!(lines[1].contains("80.0%"));
        // top = 1 truncates.
        assert_eq!(t.report(1).lines().count(), 2);
    }

    #[test]
    fn trace_aggregation() {
        let mut t = DeviceTrace::default();
        t.records.push(LaunchRecord {
            name: "a",
            phase: "p",
            stats: sample(10, 20),
            seconds: 1.5,
        });
        t.records.push(LaunchRecord {
            name: "b",
            phase: "p",
            stats: sample(5, 10),
            seconds: 0.5,
        });
        t.records.push(LaunchRecord {
            name: "a",
            phase: "q",
            stats: sample(1, 2),
            seconds: 0.25,
        });
        assert_eq!(t.len(), 3);
        assert!((t.total_seconds() - 2.25).abs() < 1e-12);
        assert_eq!(t.total_stats().flops, 16);
        let by = t.by_kernel();
        assert_eq!(by.len(), 2);
        assert_eq!(by["a"].0.flops, 11);
        assert!((by["a"].1 - 1.75).abs() < 1e-12);
        let rows: Vec<_> = t
            .by_phase_kernel()
            .into_iter()
            .map(|(key, (s, secs))| (key, s.flops, secs))
            .collect();
        assert_eq!(
            rows,
            [
                (("p", "a"), 10, 1.5),
                (("p", "b"), 5, 0.5),
                (("q", "a"), 1, 0.25)
            ]
        );
    }
}
