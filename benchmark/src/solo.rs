//! Runner for the three solo workloads: one `GpuPipeline` on a K40,
//! stepped from outside.

use crate::inputs::{fleet_plan, k40, solo_input, RunOptions, SoloInput, SoloPlan};
use crate::ladder::{core_ladder, launch_overhead_us, Values};
use crate::outcome::{peak_rss_mb, RunOutcome};
use crate::serving::serving_ladder;
use crate::stats::{median, percentile, tail_percentile};
use dda_core::pipeline::fleet::system_fingerprint;
use dda_core::pipeline::{GpuPipeline, SceneState, StepReport};
use dda_core::{BlockSystem, SceneCheckpoint};
use dda_simt::DeviceTrace;
use std::hint::black_box;
use std::time::Instant;

/// Checkpoint round trips timed at the end of a traced episode.
const RESTORES_PER_EPISODE: usize = 5;

/// What the traced run keeps in addition to the untraced one.
#[derive(Debug, Default)]
struct SoloTrace {
    reports: Vec<StepReport>,
    snapshots: Vec<SceneState>,
    trace: DeviceTrace,
    /// Trace length when the measured window opened.
    records_at_start: usize,
    /// `(refills, rebuilds)` of the HSBCSR format, window start and end.
    format_stats: [(usize, usize); 2],
    broad_cache: (u64, u64),
    order_resorts: u64,
    fallback_solves: usize,
    assembly: dda_core::AssemblyStats,
    encode_us: Vec<f64>,
    checkpoint_bytes: usize,
}

/// One episode: set-up, the measured window, the checkpoint round trips.
#[derive(Debug, Default)]
struct Episode {
    setup_s: f64,
    first_step_ms: f64,
    step_ms: Vec<f64>,
    /// Wall seconds of the whole measured loop, tracing work included.
    loop_s: f64,
    modeled_s: f64,
    sim_s: f64,
    dt_floor_steps: u64,
    failed: u64,
    restore_ms: Vec<f64>,
    fingerprint: u64,
    sound: bool,
    trace: Option<SoloTrace>,
}

fn all_finite(sys: &BlockSystem) -> bool {
    sys.blocks.iter().all(|b| {
        let c = b.centroid();
        c.x.is_finite() && c.y.is_finite() && b.velocity.iter().all(|v| v.is_finite())
    })
}

fn run_episode(input: &SoloInput, traced: bool) -> Episode {
    let plan = input.plan;
    let mut ep = Episode::default();
    let (sys, params) = (input.sys.clone(), input.params.clone());

    // ---- set-up: construction + warm-up steps ------------------------------
    let t_setup = Instant::now();
    let mut pipe = GpuPipeline::new(sys, params, k40());
    for i in 0..plan.warmup {
        let t = Instant::now();
        let ok = pipe.try_step().is_ok();
        if i == 0 {
            ep.first_step_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        if !ok {
            break;
        }
    }
    ep.setup_s = t_setup.elapsed().as_secs_f64();

    let mut tr = traced.then(|| SoloTrace {
        records_at_start: pipe.device().trace().len(),
        ..SoloTrace::default()
    });
    if let Some(tr) = tr.as_mut() {
        tr.format_stats[0] = pipe.format_cache_stats();
    }
    let dt_min = pipe.params.dt_min;

    // ---- the measured window -----------------------------------------------
    ep.step_ms.reserve(plan.measured);
    let t_loop = Instant::now();
    for k in 0..plan.measured {
        if let Some(tr) = tr.as_mut() {
            // Evenly spaced snapshots of the state a step starts from.
            if (k * plan.snapshots) % plan.measured < plan.snapshots {
                tr.snapshots.push(pipe.scene_state());
            }
        }
        let t = Instant::now();
        let r = pipe.try_step();
        ep.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match r {
            Ok(rep) => {
                ep.modeled_s += rep.phase_times.total();
                ep.sim_s += rep.dt;
                ep.dt_floor_steps += (rep.dt <= dt_min) as u64;
                // A step whose open–close loop did not converge is not a
                // solution at the stated tolerance.
                ep.failed += !rep.oc_converged as u64;
                if let Some(tr) = tr.as_mut() {
                    tr.reports.push(rep);
                }
            }
            Err(_) => {
                // The state is unchanged, so the same step would fail
                // again: the rest of the window is lost.
                ep.failed += (plan.measured - k) as u64;
                break;
            }
        }
    }
    if let Some(tr) = tr.as_mut() {
        tr.trace = pipe.device().trace();
    }
    ep.loop_s = t_loop.elapsed().as_secs_f64();

    // ---- durable form and back ---------------------------------------------
    ep.fingerprint = system_fingerprint(&pipe.sys);
    ep.sound = all_finite(&pipe.sys);
    // Only the traced run pays for the round trips.
    for _ in 0..if traced { RESTORES_PER_EPISODE } else { 0 } {
        let cp = SceneCheckpoint {
            state: pipe.scene_state(),
            taken_at_step: (plan.warmup + plan.measured) as u64,
        };
        let t = Instant::now();
        let text = black_box(cp.encode());
        let enc_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let restored =
            SceneCheckpoint::decode(&text).map(|c| GpuPipeline::from_state(c.state, k40()));
        ep.restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ep.sound &= restored.is_ok_and(|p| system_fingerprint(&p.sys) == ep.fingerprint);
        if let Some(tr) = tr.as_mut() {
            tr.encode_us.push(enc_us);
            tr.checkpoint_bytes = text.len();
        }
    }

    if let Some(tr) = tr.as_mut() {
        tr.format_stats[1] = pipe.format_cache_stats();
        tr.broad_cache = pipe.broad_cache_stats();
        tr.order_resorts = pipe.contact_order_stats().0;
        tr.fallback_solves = pipe.fallback_solves();
        tr.assembly = pipe.assembly_cache_stats();
    }
    ep.trace = tr;
    ep
}

/// The percentile `op_ms_tail` is reported at: the rule applied to the
/// fewest samples a run can pool, so it is fixed per workload and size.
pub fn solo_tail_percentile(plan: &SoloPlan) -> f64 {
    tail_percentile(plan.min_episodes * plan.measured)
}

fn generate(workload: &str, run: &RunOptions) -> Option<(SoloInput, f64)> {
    let t = Instant::now();
    let mut input = solo_input(workload, run.seed, run.size, run.knobs)?;
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some(m) = run.measured {
        // A long-horizon probe: one pass is the point, not a median.
        input.plan.measured = m.max(1);
        input.plan.min_episodes = 1;
    }
    Some((input, gen_ms))
}

/// The untraced run: episodes back to back for `seconds` (at least
/// the plan's `min_episodes`); produces the end-to-end metrics and nothing
/// else.
pub fn run_untraced(workload: &str, run: &RunOptions) -> Option<RunOutcome> {
    let (input, _) = generate(workload, run)?;
    let t0 = Instant::now();
    let mut eps = Vec::new();
    let mut rss_mb = f64::NAN;
    while eps.len() < input.plan.min_episodes || t0.elapsed().as_secs_f64() < run.seconds {
        eps.push(run_episode(&input, false));
        if eps.len() == input.plan.min_episodes {
            // Read after the same amount of work in every run, so the
            // figure does not depend on how many episodes the budget fits.
            rss_mb = peak_rss_mb();
        }
    }
    let mut out = RunOutcome {
        correct: true,
        ..RunOutcome::default()
    };
    let measured = input.plan.measured;
    out.attempted = (eps.len() * measured) as u64;
    out.failed = eps.iter().map(|e| e.failed).sum();

    let pooled: Vec<f64> = eps.iter().flat_map(|e| e.step_ms.iter().copied()).collect();
    let col = |f: &dyn Fn(&Episode) -> f64| median(&eps.iter().map(f).collect::<Vec<_>>());
    let tail_p = solo_tail_percentile(&input.plan);
    let m = &mut out.metrics;
    m.insert("setup_s", col(&|e| e.setup_s));
    m.insert(
        "ops_per_s",
        col(&|e| e.step_ms.len() as f64 / (e.step_ms.iter().sum::<f64>() * 1e-3)),
    );
    m.insert("op_ms_p50", median(&pooled));
    m.insert("op_ms_tail", percentile(&pooled, tail_p));
    m.insert(
        "modeled_us_per_op",
        col(&|e| e.modeled_s * 1e6 / measured as f64),
    );
    m.insert("peak_rss_mb", rss_mb);
    out.samples = vec![
        ("setup_s", eps.len()),
        ("ops_per_s", eps.len()),
        ("op_ms_p50", pooled.len()),
        ("op_ms_tail", pooled.len()),
    ];
    out.notes.push(format!(
        "op = one measured time step; op_ms_tail is p{tail_p} of {} pooled steps; {} episodes of {} warm-up + {measured} measured steps",
        pooled.len(),
        eps.len(),
        input.plan.warmup
    ));
    check_episodes(&eps, &mut out);
    Some(out)
}

/// Checks that hold across the episodes of one seed: same final state,
/// same modeled time and simulated time (the program is deterministic),
/// all-finite state, checkpoint round trips exact.
fn check_episodes(eps: &[Episode], out: &mut RunOutcome) {
    let first = &eps[0];
    for (i, e) in eps.iter().enumerate() {
        if !e.sound {
            out.correct = false;
            out.notes.push(format!(
                "episode {i}: non-finite state or checkpoint round trip changed the fingerprint"
            ));
        }
        if e.fingerprint != first.fingerprint
            || e.modeled_s.to_bits() != first.modeled_s.to_bits()
            || e.sim_s.to_bits() != first.sim_s.to_bits()
            || e.failed != first.failed
        {
            out.correct = false;
            out.notes.push(format!(
                "episode {i} diverged from episode 0: fingerprint {:016x} vs {:016x}, modeled {} vs {} s",
                e.fingerprint, first.fingerprint, e.modeled_s, first.modeled_s
            ));
        }
    }
}

/// The traced run: untraced/traced episode pairs (their ratio is the
/// tracing overhead), then the layer ladder on the traced episode's
/// snapshots. Produces the per-layer metrics.
pub fn run_traced(workload: &str, run: &RunOptions) -> Option<RunOutcome> {
    let (input, gen_ms) = generate(workload, run)?;
    let t0 = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while plain.is_empty() || t0.elapsed().as_secs_f64() < 0.5 * run.seconds {
        plain.push(run_episode(&input, false));
        traced.push(run_episode(&input, true));
    }
    let mut out = RunOutcome {
        correct: true,
        ..RunOutcome::default()
    };
    let measured = input.plan.measured as f64;
    out.attempted = input.plan.measured as u64;
    out.failed = traced[0].failed;

    // Traced and untraced runs of one seed must end on the same state.
    let mut all: Vec<Episode> = plain;
    let n_plain = all.len();
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

    // ---- ladder ------------------------------------------------------------
    let mut failures = Vec::new();
    v.extend(core_ladder(
        &tr.snapshots,
        input.plan.ladder_reps,
        &mut failures,
    ));
    v.insert("simt.launch_overhead_us", launch_overhead_us());
    v.extend(serving_ladder(run.seed, &fleet_plan(run.size)));
    // The codec rungs are reported on the workload's own scene.
    v.insert("codec.encode_us", median(&tr.encode_us));
    v.insert("codec.decode_us", median(&ep.restore_ms) * 1e3);
    v.insert("codec.bytes_per_scene", tr.checkpoint_bytes as f64);
    for f in failures {
        out.correct = false;
        out.notes.push(f);
    }

    // ---- counters of the real run (measured window) --------------------------
    let window = &tr.trace.records[tr.records_at_start.min(tr.trace.records.len())..];
    let mut ks = dda_simt::KernelStats::default();
    for r in window {
        ks.merge(&r.stats);
    }
    let host_ms: f64 = ep.step_ms.iter().sum();
    let steps = tr.reports.len().max(1) as f64;
    v.insert("simt.launches_per_op", ks.launches as f64 / measured);
    v.insert(
        "simt.host_us_per_launch",
        host_ms * 1e3 / (ks.launches as f64).max(1.0),
    );
    v.insert("simt.trace_records", tr.trace.len() as f64);
    v.insert("simt.divergent_group_frac", ks.divergence_fraction());
    v.insert(
        "simt.gmem_tx_per_op",
        ks.gmem_transactions as f64 / measured,
    );

    let (refills, rebuilds) = tr.format_stats[1];
    let solves = (refills + rebuilds - tr.format_stats[0].0 - tr.format_stats[0].1) as f64;
    v.insert("sparse.format_refills", refills as f64);
    v.insert("sparse.format_rebuilds", rebuilds as f64);

    let sum = |f: &dyn Fn(&StepReport) -> f64| tr.reports.iter().map(f).sum::<f64>();
    let pcg_iters_per_op = sum(&|r| r.pcg_iterations as f64) / steps;
    let solves_per_op = solves / steps;
    v.insert("solver.pcg_iters_per_op", pcg_iters_per_op);
    v.insert("solver.solves_per_op", solves_per_op);
    v.insert("solver.fallback_solves", tr.fallback_solves as f64);
    v.insert("solver.warm_starts", sum(&|r| r.warm_starts as f64));

    let total = sum(&|r| r.phase_times.total()).max(1e-300);
    v.insert(
        "solver.modeled_share",
        sum(&|r| r.phase_times.solving) / total,
    );
    v.insert(
        "contact.modeled_share",
        sum(&|r| r.phase_times.contact_detection) / total,
    );
    v.insert(
        "stiffness.modeled_share",
        sum(&|r| r.phase_times.diag_building) / total,
    );
    v.insert(
        "assembly.modeled_share",
        sum(&|r| r.phase_times.nondiag_building) / total,
    );
    v.insert(
        "interp.modeled_share",
        sum(&|r| r.phase_times.interpenetration) / total,
    );
    v.insert(
        "update.modeled_share",
        sum(&|r| r.phase_times.updating) / total,
    );

    v.insert("contact.contacts", sum(&|r| r.n_contacts as f64) / steps);
    let (hits, rebins) = tr.broad_cache;
    v.insert(
        "contact.broad_cache_hit_frac",
        hits as f64 / ((hits + rebins) as f64).max(1.0),
    );
    v.insert("contact.order_resorts", tr.order_resorts as f64);
    v.insert("assembly.spliced", tr.assembly.spliced as f64);
    v.insert("assembly.recomputed", tr.assembly.recomputed as f64);
    v.insert("assembly.plan_hits", tr.assembly.plan_hits as f64);
    v.insert("assembly.plan_rebuilds", tr.assembly.plan_rebuilds as f64);

    // Final attempts only: iterations of abandoned Δt attempts are not in
    // `StepReport` (`solver.solves_per_op` counts those too).
    v.insert(
        "openclose.iters_per_op",
        sum(&|r| r.oc_iterations as f64) / steps,
    );
    v.insert("openclose.unconverged_frac", ep.failed as f64 / measured);
    let retries = sum(&|r| r.retries as f64);
    v.insert("step.retries", retries);
    v.insert("step.dt_floor_frac", ep.dt_floor_steps as f64 / measured);
    v.insert("step.sim_time_us", ep.sim_s * 1e6);
    v.insert("step.sim_us_per_host_s", ep.sim_s * 1e6 / (host_ms * 1e-3));
    v.insert("step.first_step_ms", ep.first_step_ms);

    // An estimate, not a measurement: ladder cost per call times calls per
    // step, against the measured mean step. Ladder calls run on cold
    // workspaces and a short trace, so this can be off in either sign.
    let g = |k: &str| v.get(k).copied().unwrap_or(0.0);
    let per_attempt = 1.0 + retries / steps;
    let est_ms = g("contact.geom_soa_ms")
        + g("contact.broad_ms")
        + g("contact.narrow_ms")
        + g("contact.transfer_ms")
        + g("contact.init_ms")
        + g("stiffness.block_soa_ms")
        + g("update.ms")
        + per_attempt * g("stiffness.diag_ms")
        + solves_per_op
            * (g("assembly.nondiag_ms")
                + g("sparse.refill_ms")
                + g("solver.bj_build_ms")
                + g("interp.check_ms")
                + g("openclose.update_ms"))
        + pcg_iters_per_op * g("solver.pcg_host_ms_per_iter");
    v.insert("step.unattributed_frac", 1.0 - est_ms / (host_ms / steps));

    // The serving layers do no work on a solo workload.
    for name in [
        "ingest.admit_wait_ticks_p50",
        "ingest.admit_wait_ticks_p95",
        "ingest.queue_len_max",
        "ingest.compactions",
        "wal.records_per_scene",
        "wal.bytes_per_scene",
        "wal.syncs_per_tick",
        "wal.rotations",
        "wal.pruned",
        "wal.modeled_share",
        "fleet.scenes_per_s",
        "fleet.modeled_us_per_scene",
        "fleet.recover_ms_p50",
        "fleet.submit_ms_p50",
        "fleet.submit_ms_p99",
        "fleet.rebalanced",
        "fleet.migrated",
        "fleet.router_self_ms_per_tick",
        "fleet.replayed_scenes_per_recover",
    ] {
        v.insert(name, 0.0);
    }

    out.notes.push(format!(
        "ladder: {} snapshots x (1 discarded + {} timed) calls per layer, median; R counters from one traced episode of {} measured steps; host/modeled = {:.1}x",
        tr.snapshots.len(),
        input.plan.ladder_reps,
        tr.reports.len(),
        host_ms * 1e-3 / ep.modeled_s.max(1e-300),
    ));
    out.metrics = v;
    Some(out)
}
