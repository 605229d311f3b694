//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, each with unit and direction. `BENCHMARK.json` is
//! generated from these tables (`bench --manifest`) and a test keeps the
//! two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which time axis an end-to-end number lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Wall-clock of this simulator on this machine — the only thing
    /// actually measured.
    Host,
    /// `Device::modeled_seconds()` under the K40/K20 profiles:
    /// deterministic, unvalidated against real hardware.
    Modeled,
}

impl Axis {
    /// Column label in printed tables.
    pub fn word(self) -> &'static str {
        match self {
            Axis::Host => "host",
            Axis::Modeled => "modeled",
        }
    }
}

/// One end-to-end metric: what a user of the stack would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name in `BENCHMARK.json` and every output.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Time axis.
    pub axis: Axis,
    /// What it measures, on solo workloads / on `fleet_churn`.
    pub what: &'static str,
}

/// The end-to-end metrics, every one reported by every workload.
/// Throughput and modeled time are per *time step* everywhere (a measured
/// step of the solo pipeline; one step of one scene in the fleet); the
/// timed calls are `step()` and `tick()`. Operations counted as attempted
/// and failed are measured steps, and submitted scenes on `fleet_churn`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        axis: Axis::Host,
        what: "pipeline/router construction + warm-up steps/ticks (median over episodes; scene generation excluded)",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        axis: Axis::Host,
        what: "time steps per host second: measured steps over step() time / time steps of completed scenes over submit()+tick() time",
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        axis: Axis::Host,
        what: "median host ms per step() / per FleetRouter::tick()",
    },
    EndToEnd {
        name: "op_ms_tail",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        axis: Axis::Host,
        what: "host ms per step()/tick() at the highest percentile with >= 10 samples beyond it in a minimum-length run (fixed per workload)",
    },
    EndToEnd {
        name: "modeled_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.05,
        axis: Axis::Modeled,
        what: "modeled device microseconds per time step: per measured step / summed over devices and recovery epochs per time step of completed scenes",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        axis: Axis::Host,
        what: "VmHWM of the benchmark process (one workload per process), read after the minimum number of episodes",
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// *L*: the layer ladder — a public layer call replayed on captured
    /// state on a separate device and timed from outside.
    Ladder,
    /// *R*: a counter read from the real traced run; repeats exactly for
    /// one seed and is compared for equality by `bench --compare`.
    Run,
    /// Host-time figure derived from the real traced run (not exact).
    RunHost,
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name, prefixed by its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Where the number comes from.
    pub source: Source,
}

const fn l(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Ladder,
    }
}

const fn r(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Run,
    }
}

const fn h(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::RunHost,
    }
}

use Better::{Higher as Hi, Lower as Lo};

/// The per-layer metrics, every one reported by every workload's traced
/// run (a layer a workload bypasses reports its ladder numbers on the
/// workload's representative scene and zero for its run counters).
pub const PER_LAYER: &[PerLayer] = &[
    // -- harness ---------------------------------------------------------
    h("trace_overhead_frac", "frac", Lo),
    l("workloads.gen_ms", "ms", Lo),
    // -- simt ------------------------------------------------------------
    l("simt.launch_overhead_us", "us", Lo),
    l("simt.scan_ms", "ms", Lo),
    l("simt.sort_pairs_ms", "ms", Lo),
    l("simt.segreduce_ms", "ms", Lo),
    r("simt.launches_per_op", "count", Lo),
    h("simt.host_us_per_launch", "us", Lo),
    r("simt.trace_records", "count", Lo),
    r("simt.divergent_group_frac", "frac", Lo),
    r("simt.gmem_tx_per_op", "count", Lo),
    // -- sparse ----------------------------------------------------------
    l("sparse.hsbcsr_build_ms", "ms", Lo),
    l("sparse.refill_ms", "ms", Lo),
    l("sparse.spmv_ms", "ms", Lo),
    l("sparse.spmv_modeled_us", "us", Lo),
    l("sparse.spmv_bytes_computed", "B", Lo),
    r("sparse.format_refills", "count", Hi),
    r("sparse.format_rebuilds", "count", Lo),
    // -- solver ----------------------------------------------------------
    l("solver.bj_build_ms", "ms", Lo),
    l("solver.pcg_ms", "ms", Lo),
    l("solver.pcg_iters", "count", Lo),
    l("solver.pcg_host_ms_per_iter", "ms", Lo),
    l("solver.pcg_modeled_us_per_iter", "us", Lo),
    l("solver.launches_per_iter", "count", Lo),
    r("solver.pcg_iters_per_op", "count", Lo),
    r("solver.solves_per_op", "count", Lo),
    r("solver.fallback_solves", "count", Lo),
    r("solver.warm_starts", "count", Hi),
    r("solver.modeled_share", "frac", Lo),
    // -- core.contact ----------------------------------------------------
    l("contact.geom_soa_ms", "ms", Lo),
    l("contact.broad_ms", "ms", Lo),
    l("contact.narrow_ms", "ms", Lo),
    l("contact.transfer_ms", "ms", Lo),
    l("contact.init_ms", "ms", Lo),
    r("contact.pairs", "count", Lo),
    r("contact.contacts", "count", Lo),
    r("contact.broad_cache_hit_frac", "frac", Hi),
    r("contact.order_resorts", "count", Lo),
    r("contact.modeled_share", "frac", Lo),
    // -- core.stiffness --------------------------------------------------
    l("stiffness.diag_ms", "ms", Lo),
    l("stiffness.block_soa_ms", "ms", Lo),
    r("stiffness.modeled_share", "frac", Lo),
    // -- core.assembly ---------------------------------------------------
    l("assembly.nondiag_ms", "ms", Lo),
    l("assembly.nondiag_modeled_us", "us", Lo),
    l("assembly.nondiag_launches", "count", Lo),
    r("assembly.spliced", "count", Hi),
    r("assembly.recomputed", "count", Lo),
    r("assembly.plan_hits", "count", Hi),
    r("assembly.plan_rebuilds", "count", Lo),
    r("assembly.modeled_share", "frac", Lo),
    // -- core.openclose --------------------------------------------------
    l("openclose.update_ms", "ms", Lo),
    r("openclose.iters_per_op", "count", Lo),
    r("openclose.unconverged_frac", "frac", Lo),
    // -- core.interpenetration, core.update ------------------------------
    l("interp.check_ms", "ms", Lo),
    r("interp.modeled_share", "frac", Lo),
    l("update.ms", "ms", Lo),
    r("update.modeled_share", "frac", Lo),
    // -- core.pipeline.gpu (step engine) ---------------------------------
    r("step.retries", "count", Lo),
    r("step.dt_floor_frac", "frac", Lo),
    r("step.sim_time_us", "us", Hi),
    h("step.sim_us_per_host_s", "us/s", Hi),
    h("step.first_step_ms", "ms", Lo),
    h("step.unattributed_frac", "frac", Lo),
    // -- core.pipeline.batch ---------------------------------------------
    l("batch.host_speedup_vs_solo", "x", Hi),
    l("batch.modeled_speedup_vs_solo", "x", Hi),
    l("batch.launch_reduction", "x", Hi),
    l("batch.step_ms", "ms", Lo),
    // -- core.pipeline.ingest (scheduler + checkpoint codec) -------------
    l("ingest.tick_ms", "ms", Lo),
    l("ingest.submit_us", "us", Lo),
    l("codec.encode_us", "us", Lo),
    l("codec.decode_us", "us", Lo),
    l("codec.bytes_per_scene", "B", Lo),
    r("ingest.admit_wait_ticks_p50", "ticks", Lo),
    r("ingest.admit_wait_ticks_p95", "ticks", Lo),
    r("ingest.queue_len_max", "count", Lo),
    r("ingest.compactions", "count", Lo),
    // -- core.pipeline.wal -----------------------------------------------
    l("wal.append_us", "us", Lo),
    l("wal.sync_ms_p50", "ms", Lo),
    l("wal.replay_ms", "ms", Lo),
    l("wal.record_spans_ms", "ms", Lo),
    r("wal.records_per_scene", "count", Lo),
    r("wal.bytes_per_scene", "B", Lo),
    r("wal.syncs_per_tick", "count", Lo),
    r("wal.rotations", "count", Lo),
    r("wal.pruned", "count", Hi),
    r("wal.modeled_share", "frac", Lo),
    // -- core.pipeline.fleet ---------------------------------------------
    h("fleet.scenes_per_s", "1/s", Hi),
    r("fleet.modeled_us_per_scene", "us", Lo),
    h("fleet.recover_ms_p50", "ms", Lo),
    h("fleet.submit_ms_p50", "ms", Lo),
    h("fleet.submit_ms_p99", "ms", Lo),
    r("fleet.rebalanced", "count", Lo),
    r("fleet.migrated", "count", Lo),
    h("fleet.router_self_ms_per_tick", "ms", Lo),
    r("fleet.replayed_scenes_per_recover", "count", Lo),
];

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name accepted by `--workload`.
    pub name: &'static str,
    /// One line: why it was chosen and what it stresses or bypasses.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "slope_static",
        why: "paper case 1: 421-block jointed slope, static, contact-dense; non-diagonal assembly and PCG carry the modeled time; the serving layers (fleet, WAL, ingest, batch) are bypassed",
    },
    Workload {
        name: "rockfall_dynamic",
        why: "paper case 2: 400 rocks, dynamic; many small kernels, so simt per-launch host cost, open-close churn and PCG iteration count dominate; the serving layers are bypassed",
    },
    Workload {
        name: "scatter_sparse",
        why: "5001-block sparse field on the grid+cache broad phase: cost follows block count (diag build, block-Jacobi, vector ops, SoA rebuild), not contacts; off-diagonal sparse work is bypassed",
    },
    Workload {
        name: "fleet_churn",
        why: "serving path: open-loop churn into FleetRouter over K40+2xK20 with a WAL, crash-recovered every 25 ticks; tiny scenes, so fleet/WAL/ingest/batch do the work and numerical kernels are bypassed",
    },
];

/// Seconds one contract run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// Whether `name` is made only of the characters the contract allows and
/// is at most 64 long, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}
