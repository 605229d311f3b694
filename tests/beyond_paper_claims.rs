//! Budgets and shape claims of the layers built on top of the paper's
//! pipeline, checked beside `paper_claims.rs` on the same axis: modeled
//! device seconds and trace counters, which are deterministic. Each claim
//! first asserts the condition that arms it (migrations happened, warps
//! really mix classes), so none can pass by running at a size where it
//! has nothing to check. Host-axis numbers for
//! the same layers come from `benchmark/`.
//!
//! The two claims that need thousands of blocks are `#[ignore]`d and run
//! in release by CI: `cargo test --release --test beyond_paper_claims --
//! --include-ignored --skip wal_cost_is_at_most`. The skipped one is the
//! WAL budget, `#[ignore]`d because it is not met today.

use dda_harness::experiments::{
    case1_matrix_stiff, fleet_churn_config, run_fleet_churn, wal_overhead_pct, WAL_BUDGET_PCT,
};
use dda_repro::core::contact::{
    detect_broad_gpu, BroadPhaseMode, Contact, ContactOrder, ContactWorkspace, GeomSoa,
};
use dda_repro::core::pipeline::{system_fingerprint, FleetRouter, GpuPipeline};
use dda_repro::core::AssemblyReuse;
use dda_repro::simt::{Device, DeviceProfile};
use dda_repro::solver::precond::BlockJacobi;
use dda_repro::solver::{pcg_fused, pcg_fused_mixed, PcgOptions, PcgWorkspace};
use dda_repro::sparse::{Hsbcsr, Hsbcsr32};
use dda_repro::workloads::{rockfall_case, scatter_case, RockfallConfig, ScatterConfig};

/// The harness binaries' default workload seed.
const SEED: u64 = 20170529;

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

/// Drives the `multigpu` exhibit's churn stream of 2-rock scenes, with
/// `hot_key_permille` of them forced onto one locality key, into a
/// WAL-journaled fleet for `window` ticks and drains it.
fn churned_fleet(
    tag: &str,
    profiles: &[DeviceProfile],
    hot_key_permille: usize,
    rebalance: bool,
    window: u64,
) -> FleetRouter {
    let churn = fleet_churn_config(2, hot_key_permille);
    run_fleet_churn(tag, profiles, churn, SEED, rebalance, window).0
}

/// Durability must ride along, not tax the pipeline: the journal's modeled
/// cost stays within [`WAL_BUDGET_PCT`] of the aggregate modeled step time
/// on fleets of one, two and four K40s and on a K40 + K20 + serial-Xeon
/// mix. Not met today: the budget held when recorded (4.1 % on one K40,
/// EXPERIMENTS.md §VI), the modeled step has since become several times
/// cheaper under an unchanged journal, and this window now reads 8.48 % /
/// 6.15 % / 5.05 % / 6.05 %. The assertion stays as stated until the
/// journal cost or the budget is revisited (ROADMAP item 2).
#[test]
#[ignore = "not met: WAL costs 8.5 % of modeled step time on one K40 (ROADMAP item 2)"]
fn wal_cost_is_at_most_five_percent_of_aggregate_step_time() {
    let k40 = DeviceProfile::tesla_k40;
    let fleets = [
        ("1x K40", vec![k40()]),
        ("2x K40", vec![k40(); 2]),
        ("4x K40", vec![k40(); 4]),
        (
            "K40+K20+serial",
            vec![
                k40(),
                DeviceProfile::tesla_k20(),
                DeviceProfile::xeon_e5620_serial(),
            ],
        ),
    ];
    let shares = fleets.map(|(label, fleet)| {
        let r = churned_fleet(&format!("wal-{label}"), &fleet, 0, true, 16);
        assert!(r.stats().completed > 0 && r.wal_stats().syncs > 0);
        (label, wal_overhead_pct(&r))
    });
    assert!(
        shares.iter().all(|(_, pct)| *pct <= WAL_BUDGET_PCT),
        "WAL cost as % of aggregate modeled step time, budget {WAL_BUDGET_PCT}%: {shares:.2?}"
    );
}

/// Exactly-once live migration must be cheap enough to use under load: on
/// a skewed stream (80 % of scenes on one locality key, one K40 against
/// two K20s) the intent/commit records cost at most 1 % of the aggregate
/// modeled step time, and the rebalanced run completes the same scenes.
#[test]
fn migration_records_cost_at_most_one_percent_of_aggregate_step_time() {
    const BUDGET_PCT: f64 = 1.0;
    let (k40, k20) = (DeviceProfile::tesla_k40(), DeviceProfile::tesla_k20());
    let fleet = [k40, k20.clone(), k20];
    let fixed = churned_fleet("placement-static", &fleet, 800, false, 24);
    let live = churned_fleet("placement-live", &fleet, 800, true, 24);
    assert_eq!(fixed.stats().rebalanced, 0);
    assert!(
        live.stats().rebalanced >= 1,
        "the skewed stream must trigger live migrations"
    );
    assert_eq!(fixed.outcomes(), live.outcomes());
    let pct = 100.0 * live.stats().migration_wal_seconds / live.fleet_aggregate_seconds();
    assert!(
        pct > 0.0 && pct <= BUDGET_PCT,
        "migration records cost {pct:.3}% of aggregate modeled step time, budget {BUDGET_PCT}%"
    );
}

/// The contact-stream kernels the class-ordering cache schedules.
/// `nondiag.compute` belongs to the Fig 4 oracle: only under
/// `AssemblyReuse::Recompute` does the schedule reach assembly.
const SCHEDULED_KERNELS: [&str; 4] = [
    "narrow.count",
    "narrow.emit",
    "transfer.apply",
    "nondiag.compute",
];

fn divergent_groups(pipe: &GpuPipeline) -> u64 {
    let by_kernel = pipe.device().trace().by_kernel();
    SCHEDULED_KERNELS
        .iter()
        .filter_map(|k| by_kernel.get(*k))
        .map(|(stats, _)| stats.divergent_branch_groups)
        .sum()
}

/// Whether any 32-lane warp of the discovery-order stream holds more than
/// one `(category, kind)` class — without that a permutation has nothing
/// to regroup.
fn has_mixed_warps(contacts: &[Contact]) -> bool {
    let class = |c: &Contact| (c.category(), c.kind as u8);
    contacts
        .chunks(32)
        .any(|warp| warp.iter().any(|c| class(c) != class(&warp[0])))
}

/// `ContactOrder::ClassSorted` strictly cuts the divergent branch groups of
/// the scheduled kernels once the contact stream spans two warps that mix
/// classes; 32 rocks is the smallest rockfall that does (67 contacts). It
/// buys that with scattered loads — the modeled step does not get faster
/// (EXPERIMENTS.md, class-sorted scheduling) — so only the divergence
/// count is claimed.
#[test]
fn class_sorting_cuts_divergent_branch_groups_where_warps_mix_classes() {
    let (sys, params) = rockfall_case(&RockfallConfig::default().with_rocks(32));
    let params = params.with_assembly_reuse(AssemblyReuse::Recompute);
    let mut settle = GpuPipeline::new(sys, params, k40());
    settle.step(); // the rocks land: a real contact population exists
    let landed = settle.scene_state();
    let measure = |order: ContactOrder| {
        let mut state = landed.clone();
        state.params.contact_order = order;
        let mut pipe = GpuPipeline::from_state(state, k40());
        pipe.step(); // warm: format build and the first re-sort
        let before = divergent_groups(&pipe);
        pipe.run(3);
        (divergent_groups(&pipe) - before, pipe)
    };
    let (discovery, disc) = measure(ContactOrder::Discovery);
    let (class_sorted, sorted) = measure(ContactOrder::ClassSorted);
    assert!(
        disc.contacts().len() >= 64 && has_mixed_warps(disc.contacts()),
        "{} contacts: sorting has nothing to regroup",
        disc.contacts().len()
    );
    assert_eq!(disc.contacts().len(), sorted.contacts().len());
    assert_eq!(
        system_fingerprint(&disc.sys),
        system_fingerprint(&sorted.sys),
        "scheduling is a processing order, never physics"
    );
    assert!(
        class_sorted < discovery,
        "divergent branch groups: discovery {discovery}, class-sorted {class_sorted}"
    );
}

/// The cached uniform grid beats the O(n²) all-pairs sweep on the
/// scattered field (O(1) neighbours per block), and wins harder as n
/// grows — both on the call that bins at `range + slack` and builds the
/// candidate set, and on a steady-state hit that only re-filters it. At
/// 200 blocks the building call still loses to all-pairs (its sort and
/// scan do not amortise); 3 200 is the recorded size from which it wins.
#[test]
#[ignore = "3 200-block all-pairs sweep: run in release by the CI claims step"]
fn grid_broad_phase_beats_all_pairs_and_wins_harder_as_n_grows() {
    // Modeled seconds of one broad-phase call per mode: the first call
    // under `GridCached` builds, the third is a hit; all-pairs is timed on
    // the same third call.
    let probe = |n: usize| {
        let (sys, params) = scatter_case(&ScatterConfig {
            seed: SEED,
            ..ScatterConfig::default().with_rocks(n)
        });
        let soa = GeomSoa::build(&sys);
        [BroadPhaseMode::AllPairs, BroadPhaseMode::GridCached].map(|mode| {
            let dev = k40();
            let mut ws = ContactWorkspace::new();
            let (range, slack) = (params.contact_range, params.broad_slack);
            let mut detect = || {
                detect_broad_gpu(&dev, &soa, mode, range, slack, &mut ws);
                dev.modeled_seconds()
            };
            let first = detect();
            let warm = detect();
            (first, detect() - warm)
        })
    };
    let speedups = |n: usize| {
        let [(_, all_pairs), (build, hit)] = probe(n);
        (all_pairs / build, all_pairs / hit)
    };
    let (build_small, hit_small) = speedups(200);
    let (build_large, hit_large) = speedups(3200);
    assert!(
        build_large > 1.0 && hit_large > 1.0,
        "at 3 200 blocks: build {build_large:.2}×, hit {hit_large:.2}×"
    );
    assert!(
        build_large > build_small && hit_large > hit_small,
        "speed-up must grow with n: build {build_small:.2}× → {build_large:.2}×, \
         hit {hit_small:.2}× → {hit_large:.2}×"
    );
}

/// `SolverPrecision::Mixed` is a bandwidth win that needs iterations to
/// amortise its fp64 refinement passes: on the stiff case-1 operator
/// (penalty contrast 1e6, 4 800 blocks) one cold Block-Jacobi solve models
/// at least 1.3× faster than pure fp64. Smaller or better-conditioned
/// systems lose (1.21× at 3 200 blocks, 0.66× at 800 well-conditioned).
#[test]
#[ignore = "4 800-block operator: run in release by the CI claims step"]
fn mixed_precision_models_1_3x_on_the_stiff_4800_block_operator() {
    let m = case1_matrix_stiff(4800, 2, SEED, 1e6);
    let h = Hsbcsr::from_sym(&m);
    let mut h32 = Hsbcsr32::new();
    h32.refill_from(&h);
    let b: Vec<f64> = (0..m.dim())
        .map(|i| ((i % 23) as f64) * 0.13 - 1.1)
        .collect();
    let x0 = vec![0.0; m.dim()];
    let opts = PcgOptions::default();
    // Modeled seconds of one solve, construction excluded.
    let solve = |mixed: bool| {
        let dev = k40();
        let bj = BlockJacobi::new(&dev, &h);
        let mut ws = PcgWorkspace::new();
        let built = dev.modeled_seconds();
        let r = if mixed {
            pcg_fused_mixed(&dev, &h, &h32, &b, &x0, &bj, opts, &mut ws)
        } else {
            pcg_fused(&dev, &h, &b, &x0, &bj, opts, &mut ws)
        };
        assert!(
            r.converged && r.iterations >= 20,
            "{} iterations",
            r.iterations
        );
        dev.modeled_seconds() - built
    };
    let speedup = solve(false) / solve(true);
    assert!(
        speedup >= 1.3,
        "mixed precision models {speedup:.3}× equation solving, floor 1.3×"
    );
}
