//! Runner for `fleet_churn`: seeded churn traffic into a `FleetRouter`
//! over one K40 and two K20s with a WAL, crash-recovered on a schedule.
//!
//! The loop is **open in tick time** — arrivals are a function of the
//! tick number and never wait for completions — and **closed in host
//! time**: the driver calls `tick()` back to back, so the generator is
//! never late by construction and host-time queueing is not modelled.

use crate::inputs::{
    fleet_devices, fleet_plan, fleet_traffic, k40, FleetPlan, RunOptions, MIN_EPISODES,
};
use crate::ladder::{core_ladder, launch_overhead_us, Values};
use crate::outcome::{peak_rss_mb, RunOutcome};
use crate::serving::{serving_ladder, Scratch};
use crate::stats::{median, percentile, tail_percentile};
use dda_core::pipeline::fleet::system_fingerprint;
use dda_core::pipeline::{
    FleetOutcome, FleetRouter, FleetSubmission, GpuPipeline, RouterConfig, SceneId, WalOutcome,
    WalReplay,
};
use dda_simt::{DeviceTrace, KernelStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Counters the traced run accumulates over recovery epochs.
#[derive(Debug, Default)]
struct FleetTrace {
    kernels: KernelStats,
    /// Modeled seconds by pipeline module ([`module_seconds`]).
    module_s: [f64; 6],
    peak_records: usize,
    admit_waits: Vec<f64>,
    queue_len_max: usize,
    compactions: u64,
    wal_records: u64,
    wal_bytes: u64,
    wal_syncs: u64,
    wal_rotations: u64,
    wal_pruned: u64,
    wal_modeled_s: f64,
    rebalanced: u64,
    migrated: u64,
    replayed: Vec<f64>,
}

/// One episode: a fresh WAL directory, warm-up ticks, the measured ticks
/// with their recoveries, the drain.
#[derive(Debug, Default)]
struct Episode {
    setup_s: f64,
    first_tick_ms: f64,
    tick_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    loop_s: f64,
    /// Modeled seconds: per epoch the slowest device, summed over epochs.
    modeled_s: f64,
    /// Modeled seconds summed over devices and epochs.
    aggregate_s: f64,
    attempted: u64,
    failed: u64,
    completed: u64,
    /// Time steps of the completed scenes (their requested step counts).
    completed_steps: u64,
    /// The same, for scenes that completed after the warm-up ticks.
    window_steps: u64,
    window_scenes: u64,
    ticks: u64,
    /// Hash of every (scene id, outcome, fingerprint).
    digest: u64,
    problems: Vec<String>,
    trace: Option<FleetTrace>,
}

/// Pipeline module a kernel name belongs to — contact, diagonal,
/// non-diagonal, solving, checking/open–close, updating — or `None` for
/// the shared primitives (scan, compaction, radix sort, segmented
/// reduction, sorted search), which several modules launch.
fn module_of(kernel: &str) -> Option<usize> {
    const PREFIXES: [&[&str]; 6] = [
        &["broad.", "grid.", "narrow.", "transfer.", "init."],
        &["diag."],
        &["nondiag.", "assembly."],
        &["pcg.", "spmv.", "vec.", "precond.", "format.", "tss."],
        &["interp.", "openclose."],
        &["update."],
    ];
    PREFIXES
        .iter()
        .position(|ps| ps.iter().any(|p| kernel.starts_with(p)))
}

/// Modeled seconds per pipeline module of a launch trace. A shared
/// primitive is billed to the module of the nearest module-specific
/// kernel before it in issue order; every phase of a step opens with a
/// kernel of its own, so this reproduces `StepReport::phase_times` (a
/// test holds the two together on a solo run).
pub fn module_seconds(trace: &DeviceTrace) -> [f64; 6] {
    let mut out = [0.0; 6];
    let mut current = 0;
    for r in &trace.records {
        if let Some(m) = module_of(r.name) {
            current = m;
        }
        out[current] += r.seconds;
    }
    out
}

/// Folds the router's per-epoch counters into the episode before the
/// router is dropped (or at the end).
fn close_epoch(router: &FleetRouter, ep: &mut Episode) {
    ep.modeled_s += router.fleet_modeled_seconds();
    ep.aggregate_s += router.fleet_aggregate_seconds();
    let Some(tr) = ep.trace.as_mut() else {
        return;
    };
    let mut records = 0;
    for i in 0..router.n_devices() {
        let trace = router.device(i).trace();
        records += trace.len();
        tr.kernels.merge(&trace.total_stats());
        for (acc, s) in tr.module_s.iter_mut().zip(module_seconds(&trace)) {
            *acc += s;
        }
        let st = router.scheduler(i).stats();
        tr.admit_waits
            .extend(st.admission_latencies().iter().map(|&t| t as f64));
        tr.queue_len_max = tr.queue_len_max.max(st.max_queue_len);
        tr.compactions += st.rebalances;
    }
    tr.peak_records = tr.peak_records.max(records);
    let w = router.wal_stats();
    tr.wal_records += w.records;
    tr.wal_bytes += w.bytes;
    tr.wal_syncs += w.syncs;
    tr.wal_rotations += w.rotations;
    tr.wal_pruned += w.pruned;
    tr.wal_modeled_s += w.modeled_seconds;
    tr.rebalanced += router.stats().rebalanced;
    tr.migrated += router.stats().migrated;
}

fn run_episode(
    arrivals: &[Vec<FleetSubmission>],
    plan: &FleetPlan,
    seed: u64,
    traced: bool,
) -> Episode {
    let mut ep = Episode {
        trace: traced.then(FleetTrace::default),
        ..Episode::default()
    };
    let scratch = Scratch::new("fleet-wal");
    let cfg = RouterConfig::new(scratch.path());
    let mut submitted: BTreeMap<SceneId, &FleetSubmission> = BTreeMap::new();
    let total_ticks = plan.warmup_ticks + plan.ticks;

    // ---- set-up: construction + warm-up ticks ------------------------------
    let t_setup = Instant::now();
    let mut router = match FleetRouter::new(fleet_devices(), cfg.clone()) {
        Ok(r) => r,
        Err(e) => {
            ep.problems.push(format!("FleetRouter::new failed: {e}"));
            return ep;
        }
    };
    let mut warm_rejected = 0u64;
    for now in 0..plan.warmup_ticks {
        for sub in &arrivals[now as usize] {
            match router.submit(sub.clone()) {
                Ok(id) => {
                    submitted.insert(id, sub);
                }
                Err(_) => warm_rejected += 1,
            }
        }
        let t = Instant::now();
        if let Err(e) = router.tick() {
            ep.problems.push(format!("warm-up tick failed: {e}"));
        }
        if now == 0 {
            ep.first_tick_ms = t.elapsed().as_secs_f64() * 1e3;
        }
    }
    ep.setup_s = t_setup.elapsed().as_secs_f64();
    let done_in_warmup: Vec<SceneId> = router.outcomes().into_keys().collect();

    // ---- the measured window -------------------------------------------------
    let t_loop = Instant::now();
    for now in plan.warmup_ticks..total_ticks {
        let k = now - plan.warmup_ticks;
        if k > 0 && k.is_multiple_of(plan.recover_every) {
            // Process death: the router goes away mid-flight, nothing is
            // drained, and a new one is rebuilt from the directory alone.
            close_epoch(&router, &mut ep);
            drop(router);
            let t = Instant::now();
            router = match FleetRouter::recover(fleet_devices(), cfg.clone()) {
                Ok(r) => r,
                Err(e) => {
                    ep.problems
                        .push(format!("FleetRouter::recover failed: {e}"));
                    return ep;
                }
            };
            ep.recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some(tr) = ep.trace.as_mut() {
                tr.replayed.push(router.in_flight() as f64);
            }
        }
        for sub in &arrivals[now as usize] {
            ep.attempted += 1;
            let owned = sub.clone();
            let t = Instant::now();
            let res = router.submit(owned);
            ep.submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match res {
                Ok(id) => {
                    submitted.insert(id, sub);
                }
                Err(_) => ep.failed += 1,
            }
        }
        let t = Instant::now();
        let res = router.tick();
        ep.tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = res {
            ep.problems.push(format!("tick {now} failed: {e}"));
        }
    }
    for _ in 0..1024 {
        if router.in_flight() == 0 || router.is_degraded().is_some() {
            break;
        }
        let t = Instant::now();
        let res = router.tick();
        ep.tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = res {
            ep.problems.push(format!("drain tick failed: {e}"));
        }
    }
    close_epoch(&router, &mut ep);
    ep.loop_s = t_loop.elapsed().as_secs_f64();
    ep.ticks = ep.tick_ms.len() as u64;

    // ---- output checks ---------------------------------------------------------
    let outcomes = router.outcomes();
    drop(router);
    ep.completed = outcomes
        .values()
        .filter(|o| o.outcome == WalOutcome::Completed)
        .count() as u64;
    for (id, _) in outcomes
        .iter()
        .filter(|(_, o)| o.outcome == WalOutcome::Completed)
    {
        let steps = submitted.get(id).map_or(0, |fs| fs.submission.run_steps);
        ep.completed_steps += steps;
        if done_in_warmup.binary_search(id).is_err() {
            ep.window_steps += steps;
            ep.window_scenes += 1;
        }
    }
    // Refused, shed or otherwise unfinished scenes are failed operations.
    ep.failed += outcomes.len() as u64 - ep.completed;
    ep.digest = outcomes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, (id, o)| {
            [*id, o.outcome as u64, o.fingerprint]
                .iter()
                .fold(h, |h, &b| (h ^ b).wrapping_mul(0x100_0000_01b3))
        });
    // Exactly one terminal outcome per acknowledged scene, in the router
    // and in the log it leaves behind.
    if !outcomes.keys().eq(submitted.keys()) {
        ep.problems.push(format!(
            "{} scenes acknowledged (warm-up rejected {warm_rejected}) but {} terminal outcomes",
            submitted.len(),
            outcomes.len()
        ));
    }
    match WalReplay::load(scratch.path()) {
        Ok(rp) => {
            let same = rp.live.is_empty()
                && rp.terminal.len() == outcomes.len()
                && rp.terminal.iter().zip(&outcomes).all(|((a, ro), (b, o))| {
                    a == b && ro.outcome == o.outcome && ro.fingerprint == o.fingerprint
                });
            if !same {
                ep.problems
                    .push("the WAL's terminal set differs from the router's outcomes".into());
            }
        }
        Err(e) => ep.problems.push(format!("final WAL replay failed: {e}")),
    }
    verify_sample(
        &submitted,
        &outcomes,
        plan.verify_samples,
        seed,
        &mut ep.problems,
    );
    ep
}

/// Re-runs a seeded sample of completed scenes through a solo
/// `GpuPipeline` and compares final-state fingerprints bit for bit.
fn verify_sample(
    submitted: &BTreeMap<SceneId, &FleetSubmission>,
    outcomes: &BTreeMap<SceneId, FleetOutcome>,
    samples: usize,
    seed: u64,
    problems: &mut Vec<String>,
) {
    let done: Vec<SceneId> = outcomes
        .iter()
        .filter(|(_, o)| o.outcome == WalOutcome::Completed)
        .map(|(id, _)| *id)
        .collect();
    if done.is_empty() {
        problems.push("no scene completed".into());
        return;
    }
    let mut state = seed ^ 0x5eed_5a3b;
    for _ in 0..samples {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let id = done[(state >> 33) as usize % done.len()];
        let Some(fs) = submitted.get(&id) else {
            continue;
        };
        let sub = fs.submission.clone();
        let mut solo = GpuPipeline::new(sub.sys, sub.params, k40());
        for _ in 0..sub.run_steps {
            if solo.try_step().is_err() {
                break;
            }
        }
        let fp = system_fingerprint(&solo.sys);
        if fp != outcomes[&id].fingerprint {
            problems.push(format!(
                "scene {id}: fleet fingerprint {:016x} != solo {fp:016x}",
                outcomes[&id].fingerprint
            ));
        }
    }
}

fn generate(run: &RunOptions, plan: &FleetPlan) -> (Vec<Vec<FleetSubmission>>, f64) {
    let t = Instant::now();
    let mut traffic = fleet_traffic(run.seed);
    let arrivals = (0..plan.warmup_ticks + plan.ticks)
        .map(|now| {
            let mut subs = traffic.arrivals(now);
            for s in &mut subs {
                run.knobs.apply(&mut s.submission.params);
            }
            subs
        })
        .collect();
    (arrivals, t.elapsed().as_secs_f64() * 1e3)
}

/// The percentile `op_ms_tail` is reported at for a plan.
pub fn fleet_tail_percentile(plan: &FleetPlan) -> f64 {
    tail_percentile(MIN_EPISODES * plan.ticks as usize)
}

fn check_episodes(eps: &[Episode], out: &mut RunOutcome) {
    let first = &eps[0];
    for (i, e) in eps.iter().enumerate() {
        for p in &e.problems {
            out.correct = false;
            out.notes.push(format!("episode {i}: {p}"));
        }
        if e.digest != first.digest
            || e.modeled_s.to_bits() != first.modeled_s.to_bits()
            || e.failed != first.failed
        {
            out.correct = false;
            out.notes.push(format!(
                "episode {i} diverged from episode 0: outcome digest {:016x} vs {:016x}, modeled {} vs {} s",
                e.digest, first.digest, e.modeled_s, first.modeled_s
            ));
        }
    }
}

/// The untraced run: produces the end-to-end metrics.
pub fn run_untraced(run: &RunOptions) -> RunOutcome {
    let plan = fleet_plan(run.size);
    let (arrivals, _) = generate(run, &plan);
    let t0 = Instant::now();
    let mut eps = Vec::new();
    let mut rss_mb = f64::NAN;
    while eps.len() < MIN_EPISODES || t0.elapsed().as_secs_f64() < run.seconds {
        eps.push(run_episode(&arrivals, &plan, run.seed, false));
        if eps.len() == MIN_EPISODES {
            // Read after the same amount of work in every run.
            rss_mb = peak_rss_mb();
        }
    }
    let mut out = RunOutcome {
        correct: true,
        ..RunOutcome::default()
    };
    out.attempted = eps.iter().map(|e| e.attempted).sum();
    out.failed = eps.iter().map(|e| e.failed).sum();
    let ticks: Vec<f64> = eps.iter().flat_map(|e| e.tick_ms.iter().copied()).collect();
    let col = |f: &dyn Fn(&Episode) -> f64| median(&eps.iter().map(f).collect::<Vec<_>>());
    let tail_p = fleet_tail_percentile(&plan);
    let m = &mut out.metrics;
    m.insert("setup_s", col(&|e| e.setup_s));
    m.insert(
        "ops_per_s",
        col(&|e| {
            let host_ms: f64 = e.tick_ms.iter().chain(&e.submit_ms).sum();
            e.window_steps as f64 / (host_ms * 1e-3)
        }),
    );
    m.insert("op_ms_p50", median(&ticks));
    m.insert("op_ms_tail", percentile(&ticks, tail_p));
    m.insert(
        "modeled_us_per_op",
        col(&|e| e.aggregate_s * 1e6 / (e.completed_steps as f64).max(1.0)),
    );
    m.insert("peak_rss_mb", rss_mb);
    out.samples = vec![
        ("setup_s", eps.len()),
        ("ops_per_s", eps.len()),
        ("op_ms_p50", ticks.len()),
        ("op_ms_tail", ticks.len()),
    ];
    out.notes.push(format!(
        "attempted/failed count submitted scenes; throughput and modeled time are per scene time step; timed op = FleetRouter::tick(); op_ms_tail is p{tail_p} of {} pooled ticks; {} episodes of {} warm-up + {} measured ticks + drain, recovered every {} ticks; open loop in tick time, closed loop in host time (generator lateness 0 by construction)",
        ticks.len(),
        eps.len(),
        plan.warmup_ticks,
        plan.ticks,
        plan.recover_every
    ));
    check_episodes(&eps, &mut out);
    out
}

/// The traced run: produces the per-layer metrics.
pub fn run_traced(run: &RunOptions) -> RunOutcome {
    let plan = fleet_plan(run.size);
    let (arrivals, gen_ms) = generate(run, &plan);
    let t0 = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while plain.is_empty() || t0.elapsed().as_secs_f64() < 0.5 * run.seconds {
        plain.push(run_episode(&arrivals, &plan, run.seed, false));
        traced.push(run_episode(&arrivals, &plan, run.seed, true));
    }
    let mut out = RunOutcome {
        correct: true,
        ..RunOutcome::default()
    };
    out.attempted = traced[0].attempted;
    out.failed = traced[0].failed;
    let n_plain = plain.len();
    let mut all = plain;
    all.append(&mut traced);
    check_episodes(&all, &mut out);
    let overhead: Vec<f64> = (0..n_plain)
        .map(|i| all[n_plain + i].loop_s / all[i].loop_s - 1.0)
        .collect();
    let ep = all.pop().expect("at least one traced episode");
    let tr = ep.trace.as_ref().expect("traced episode keeps its trace");

    let mut v = Values::new();
    v.insert("trace_overhead_frac", median(&overhead));
    v.insert("workloads.gen_ms", gen_ms);

    // ---- ladder: the numerical layers on one representative scene -----------
    let mut failures = Vec::new();
    let snapshot = arrivals.iter().flatten().next().map(|fs| {
        let sub = fs.submission.clone();
        let mut solo = GpuPipeline::new(sub.sys, sub.params, k40());
        for _ in 0..3 {
            let _ = black_box(solo.try_step());
        }
        solo.scene_state()
    });
    let contacts = snapshot.as_ref().map_or(0, |s| s.contacts.len());
    v.extend(core_ladder(
        snapshot.as_slice(),
        plan.ladder_reps,
        &mut failures,
    ));
    v.insert("simt.launch_overhead_us", launch_overhead_us());
    v.extend(serving_ladder(run.seed, &plan));
    for f in failures {
        out.correct = false;
        out.notes.push(f);
    }

    // ---- counters of the real run ----------------------------------------------
    let done = (ep.completed as f64).max(1.0);
    let steps_done = (ep.completed_steps as f64).max(1.0);
    let tick_host_ms: f64 = ep.tick_ms.iter().sum();
    let ks = &tr.kernels;
    v.insert("simt.launches_per_op", ks.launches as f64 / steps_done);
    v.insert(
        "simt.host_us_per_launch",
        tick_host_ms * 1e3 / (ks.launches as f64).max(1.0),
    );
    v.insert("simt.trace_records", tr.peak_records as f64);
    v.insert("simt.divergent_group_frac", ks.divergence_fraction());
    v.insert(
        "simt.gmem_tx_per_op",
        ks.gmem_transactions as f64 / steps_done,
    );
    let total: f64 = tr.module_s.iter().sum::<f64>().max(1e-300);
    for (name, m) in [
        ("contact.modeled_share", 0),
        ("stiffness.modeled_share", 1),
        ("assembly.modeled_share", 2),
        ("solver.modeled_share", 3),
        ("interp.modeled_share", 4),
        ("update.modeled_share", 5),
    ] {
        v.insert(name, tr.module_s[m] / total);
    }
    v.insert("contact.contacts", contacts as f64);
    v.insert("step.first_step_ms", ep.first_tick_ms);
    // Per-step solver, assembly-cache and open–close counters live in
    // `StepReport`s the router does not surface.
    for name in [
        "sparse.format_refills",
        "sparse.format_rebuilds",
        "solver.pcg_iters_per_op",
        "solver.solves_per_op",
        "solver.fallback_solves",
        "solver.warm_starts",
        "contact.broad_cache_hit_frac",
        "contact.order_resorts",
        "assembly.spliced",
        "assembly.recomputed",
        "assembly.plan_hits",
        "assembly.plan_rebuilds",
        "openclose.iters_per_op",
        "openclose.unconverged_frac",
        "step.retries",
        "step.dt_floor_frac",
        "step.sim_time_us",
        "step.sim_us_per_host_s",
        "step.unattributed_frac",
    ] {
        v.insert(name, 0.0);
    }
    v.insert("ingest.admit_wait_ticks_p50", median(&tr.admit_waits));
    v.insert(
        "ingest.admit_wait_ticks_p95",
        percentile(&tr.admit_waits, 95.0),
    );
    v.insert("ingest.queue_len_max", tr.queue_len_max as f64);
    v.insert("ingest.compactions", tr.compactions as f64);
    let acked = (ep.attempted as f64).max(1.0);
    v.insert("wal.records_per_scene", tr.wal_records as f64 / acked);
    v.insert("wal.bytes_per_scene", tr.wal_bytes as f64 / acked);
    v.insert(
        "wal.syncs_per_tick",
        tr.wal_syncs as f64 / (ep.ticks as f64).max(1.0),
    );
    v.insert("wal.rotations", tr.wal_rotations as f64);
    v.insert("wal.pruned", tr.wal_pruned as f64);
    v.insert(
        "wal.modeled_share",
        tr.wal_modeled_s / (ep.aggregate_s + tr.wal_modeled_s).max(1e-300),
    );
    let window_host_ms: f64 = ep.tick_ms.iter().chain(&ep.submit_ms).sum();
    v.insert(
        "fleet.scenes_per_s",
        ep.window_scenes as f64 / (window_host_ms * 1e-3),
    );
    v.insert("fleet.modeled_us_per_scene", ep.modeled_s * 1e6 / done);
    v.insert("fleet.recover_ms_p50", median(&ep.recover_ms));
    v.insert("fleet.submit_ms_p50", median(&ep.submit_ms));
    v.insert("fleet.submit_ms_p99", percentile(&ep.submit_ms, 99.0));
    v.insert("fleet.rebalanced", tr.rebalanced as f64);
    v.insert("fleet.migrated", tr.migrated as f64);
    // Fleet tick minus a bare scheduler's tick on the same traffic: what
    // the router, its WAL and its two extra schedulers add.
    let bare = v.get("ingest.tick_ms").copied().unwrap_or(0.0);
    v.insert("fleet.router_self_ms_per_tick", median(&ep.tick_ms) - bare);
    v.insert("fleet.replayed_scenes_per_recover", median(&tr.replayed));

    out.notes.push(format!(
        "R counters from one traced episode: {} submissions, {} completed, {} ticks, {} recoveries; host/modeled = {:.1}x (tick host s over slowest-device modeled s)",
        ep.attempted,
        ep.completed,
        ep.ticks,
        ep.recover_ms.len(),
        tick_host_ms * 1e-3 / ep.modeled_s.max(1e-300),
    ));
    out.metrics = v;
    out
}
