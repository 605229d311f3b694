//! Multi-device exhibit (§VI future work): fleet step throughput across
//! simulated GPUs, under the crash-durable [`FleetRouter`].
//!
//! The original form of this exhibit scaled a single HSBCSR SpMV across
//! devices with a modeled all-reduce (`MultiGpuSpmv`, since deleted —
//! nothing else called it). This one scales the *pipeline*: a seeded churn stream of whole scenes is routed
//! across fleets of 1/2/4/8 modeled K40s with locality-aware placement,
//! every placement journaled to a write-ahead log, and throughput is
//! scenes per modeled second. Scene-level routing has no all-reduce, so
//! it dodges the communication wall the SpMV split hits — the trade the
//! paper's future-work section weighs.
//!
//! The exhibit then kills a device mid-run (fail-stop and fail-silent)
//! and reports detection latency, migration counts, and the
//! bit-identicality of failover.
//!
//! Exits 1 if the journal's modeled cost exceeds [`WAL_BUDGET_PCT`] of the
//! aggregate modeled step time on any fleet it prints.
//!
//! Usage: `multigpu [--rocks N] [--steps N] [--seed N]`

use std::collections::BTreeMap;

use dda_core::pipeline::{FleetRouter, RouterConfig};
use dda_harness::experiments::{
    fleet_churn_config, run_fleet_churn, wal_dir, wal_overhead_pct, WAL_BUDGET_PCT,
};
use dda_harness::table::{fmt_time, Table};
use dda_harness::Args;
use dda_simt::{DeathMode, Device, DeviceProfile};
use dda_workloads::{FleetChurnConfig, FleetChurnTraffic};

struct FleetRun {
    completed: u64,
    rejected: u64,
    ticks: u64,
    fleet_s: f64,
    rate: f64,
    wal_overhead_pct: f64,
}

fn run_fleet(n_devices: usize, rocks: usize, window: u64, seed: u64) -> FleetRun {
    let (r, rejected) = run_fleet_churn(
        &format!("scale-{n_devices}"),
        &vec![DeviceProfile::tesla_k40(); n_devices],
        fleet_churn_config(rocks, 0),
        seed,
        true,
        window,
    );
    let fleet_s = r.fleet_modeled_seconds();
    FleetRun {
        completed: r.stats().completed,
        rejected,
        ticks: r.stats().ticks,
        fleet_s,
        rate: if fleet_s > 0.0 {
            r.stats().completed as f64 / fleet_s
        } else {
            0.0
        },
        wal_overhead_pct: wal_overhead_pct(&r),
    }
}

fn failover_exhibit(rocks: usize) {
    let run = |tag: &str, arm: Option<(usize, DeathMode, usize)>| {
        let dir = wal_dir(&format!("failover-{tag}"));
        let mut cfg = RouterConfig::new(&dir);
        cfg.wal_snap_interval = 2;
        cfg.watchdog_ticks = 3;
        let devices = vec![
            Device::new(DeviceProfile::tesla_k40()),
            Device::new(DeviceProfile::tesla_k40()),
            Device::new(DeviceProfile::tesla_k20()),
        ];
        let mut r = FleetRouter::new(devices, cfg).expect("fresh fleet");
        let mut traffic = FleetChurnTraffic::new(
            FleetChurnConfig {
                rate: 6.0,
                burst_every: 0,
                ..fleet_churn_config(rocks, 0)
            },
            97,
        );
        for sub in traffic.arrivals(0) {
            r.submit(sub).expect("submission accepted");
        }
        if let Some((dev, mode, polls)) = arm {
            r.device(dev).arm_device_death(mode, polls);
        }
        let ticks = r.drain(256).expect("drain");
        let outs = r.outcomes();
        let fingerprints: BTreeMap<u64, u64> =
            outs.iter().map(|(id, o)| (*id, o.fingerprint)).collect();
        let (detect, migrated) = (
            r.stats().detection_latencies.first().copied(),
            r.stats().migrated,
        );
        let _ = std::fs::remove_dir_all(&dir);
        (fingerprints, ticks, detect, migrated)
    };

    let (base, base_ticks, _, _) = run("base", None);
    println!("\nFailover (3-device fleet, device 0 killed after 2 step boundaries):\n");
    let mut t = Table::new(vec![
        "Death mode",
        "Detected after",
        "Scenes migrated",
        "Extra drain ticks",
        "Outcomes",
    ]);
    for (label, mode) in [
        ("fail-stop (crash)", DeathMode::Crash),
        ("fail-silent (hang)", DeathMode::Hang),
    ] {
        let (fps, ticks, detect, migrated) = run(label, Some((0, mode, 2)));
        let identical = fps == base;
        assert!(identical, "{label}: failover must be bit-identical");
        t.row(vec![
            label.to_string(),
            format!("{} step(s)", detect.expect("a death was detected")),
            migrated.to_string(),
            format!("+{}", ticks as i64 - base_ticks as i64),
            format!("{} scenes, bit-identical", fps.len()),
        ]);
    }
    t.print();
    println!(
        "\nDead devices are detected at step boundaries (fail-silent ones by the\n\
         watchdog), their scenes replayed from the WAL onto survivors, and the\n\
         recovered trajectories match the undisturbed run bit for bit."
    );
}

fn main() {
    let a = Args::parse(0, 2, 32);
    let window = a.steps as u64;
    println!(
        "Multi-device fleet scaling (paper §VI future work), churn stream of\n\
         {}-rock scenes over {} ticks, WAL-journaled placement\n",
        a.rocks, window
    );
    let mut t = Table::new(vec![
        "GPUs",
        "Completed",
        "Rejected",
        "Ticks",
        "Fleet time (modeled)",
        "Scenes/s (modeled)",
        "Speed-up vs 1",
        "WAL overhead",
    ]);
    let mut base_rate = 0.0;
    let mut within_budget = true;
    for p in [1usize, 2, 4, 8] {
        let r = run_fleet(p, a.rocks, window, a.seed);
        if p == 1 {
            base_rate = r.rate;
        }
        within_budget &= r.wal_overhead_pct <= WAL_BUDGET_PCT;
        t.row(vec![
            p.to_string(),
            r.completed.to_string(),
            r.rejected.to_string(),
            r.ticks.to_string(),
            fmt_time(r.fleet_s),
            format!("{:.0}", r.rate),
            format!("{:.2}×", r.rate / base_rate.max(1e-12)),
            format!("{:.2}%", r.wal_overhead_pct),
        ]);
    }
    t.print();
    println!(
        "\nShape: scene-level routing scales until the arrival rate, not the\n\
         fleet, is the bottleneck — no all-reduce on the critical path.\n\
         WAL overhead ≤ {WAL_BUDGET_PCT}% of aggregate modeled step time on \
         every fleet: {within_budget}"
    );
    failover_exhibit(a.rocks);
    if !within_budget {
        std::process::exit(1);
    }
}
