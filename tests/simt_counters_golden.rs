//! Golden ledger of every simulated statistic the device records, phase by
//! phase.
//!
//! Every launch record carries the pipeline phase that issued it ([`Phase`],
//! the six modules of Tables II–III). Per golden run the ledger keeps the
//! digest of the final state (block state, `x_prev`, every step's solver
//! counters), the record count, and per phase one digest of the records
//! issued under it, record by record: name, every counter, modeled seconds.
//! A batch region never spans two phases, so batches are digested the same
//! way. No launch may be untagged, and no digest may depend on the opt level
//! (CI runs this suite in debug and `--release`).
//!
//! Every run but `shipped/*` (the path users run: default assembly,
//! warm-started re-solves) is pinned to the bitwise warm-start oracle
//! `SolverWarmStart::PrevStep`; the Fig 4 runs also to
//! `AssemblyReuse::Recompute`. The `default/*` runs are held to that oracle
//! at run time: same scenes side by side, every step's state and every
//! (phase, kernel) row outside `nondiag_building` equal. The `engine/*` runs
//! are the scenes whose fingerprints `tests/step_engine.rs` holds. State
//! digests and record counts carry over from the constants this ledger
//! replaced; the phase rows were captured on the commit that tagged launches
//! with their phase, where all of those constants still passed.
//!
//! Re-capturing: a change that claims to move nothing moves no row. A
//! bitwise performance change moves only the phase rows (and, if it adds or
//! removes launches, the record counts) of the phases whose kernels it
//! changes. The suite prints the per-kernel table of every phase that moved,
//! then every moved row as it now reads. Check that those are exactly the
//! (run, phase) rows the change claims, paste the printed lines over them
//! and name them in the commit. A moved state digest, or a row of a phase
//! the change does not touch, is a finding, not a re-capture.

mod engine_scenes;

use dda_repro::core::contact::BroadPhaseMode;
use dda_repro::core::pipeline::{
    system_fingerprint, GpuPipeline, Phase, PrecondKind, SceneBatch, SceneState, StepReport,
};
use dda_repro::core::{AssemblyReuse, BlockSystem, DdaParams, SolverWarmStart};
use dda_repro::simt::{Device, DeviceProfile, DeviceTrace, KernelStats};
use dda_repro::solver::SolverPrecision;
use dda_repro::workloads::{
    rockfall_case, scatter_case, slope_case, RockfallConfig, ScatterConfig, SlopeConfig,
};

const STEPS: usize = 8;

/// `(run, final-state digest, launch records)` of every golden run.
#[rustfmt::skip]
const RUNS: [(&str, u64, usize); 21] = [
    ("solo/slope", 0x5460d3339a279b08, 13308),
    ("solo/rockfall", 0x983c222c68080d0a, 1061),
    ("solo/scatter", 0x3a4c13915604f5e0, 1075),
    ("batch", 0x21e518eb5dc00225, 10594),
    ("mixed/bj-rockfall", 0x33e01540d5c1d381, 1346),
    ("mixed/bj-slope", 0x00c144d5fe61267c, 13680),
    ("mixed/ssor-rockfall", 0x24fc7238207ad762, 1947),
    ("mixed/batch", 0x6a57cf1a201d64ca, 12496),
    ("default/slope", 0x5460d3339a279b08, 4400),
    ("default/rockfall", 0x983c222c68080d0a, 594),
    ("default/scatter", 0x3a4c13915604f5e0, 431),
    ("default/batch", 0x21e518eb5dc00225, 4254),
    ("shipped/slope", 0xd22770f0ad42c037, 3204),
    ("shipped/rockfall", 0xdb6624899052fd4a, 591),
    ("shipped/scatter", 0x9592357908560a83, 431),
    ("engine/stack-resting", 0x0b89cf53ba3313a8, 679),
    ("engine/stack-dropped", 0xee5e8ef0486d90e9, 922),
    ("engine/stack-offset", 0x20e949ece0bb1fbe, 688),
    ("engine/rockfall", 0x30da2245dc921f41, 2057),
    ("engine/scatter", 0xd8b4acaef17069e9, 1907),
    ("engine/batch", 0x6df0ee9b7ba71fa3, 3461),
];

/// `(run, phase, digest of the run's records under that phase)`.
#[rustfmt::skip]
const LEDGER: [(&str, &str, u64); 126] = [
    ("solo/slope", "contact_detection", 0xa3a8ea095d820516),
    ("solo/slope", "diag_building", 0x1eb09a30241c30e9),
    ("solo/slope", "nondiag_building", 0x46af8b12650817ef),
    ("solo/slope", "solving", 0x300a65b10dfa15d6),
    ("solo/slope", "interpenetration", 0x8db4ac41bc023767),
    ("solo/slope", "updating", 0xded62577871edcd5),
    ("solo/rockfall", "contact_detection", 0x7a0a2ec21f675d88),
    ("solo/rockfall", "diag_building", 0x6fe18c05efa0d605),
    ("solo/rockfall", "nondiag_building", 0xe2a1833305e4a1b1),
    ("solo/rockfall", "solving", 0x5c8c9e88f1d83ee0),
    ("solo/rockfall", "interpenetration", 0x40c4cbfef41ec206),
    ("solo/rockfall", "updating", 0x2a3c57c5e91a6f3d),
    ("solo/scatter", "contact_detection", 0x22ad1fdd58d174e1),
    ("solo/scatter", "diag_building", 0xabac37aec3fae065),
    ("solo/scatter", "nondiag_building", 0x448d9fca56974c78),
    ("solo/scatter", "solving", 0xdc74fdfc6e5a1230),
    ("solo/scatter", "interpenetration", 0x8357b645f4314be0),
    ("solo/scatter", "updating", 0xa914465861504b72),
    ("batch", "contact_detection", 0x024db4cb04f9b078),
    ("batch", "diag_building", 0x47ff95140425c61a),
    ("batch", "nondiag_building", 0x467683c0e34b500e),
    ("batch", "solving", 0xa59d544f4ac38760),
    ("batch", "interpenetration", 0x900b656acd0c8bc7),
    ("batch", "updating", 0x90b19a843d76f76d),
    ("mixed/bj-rockfall", "contact_detection", 0x7a0a2ec21f675d88),
    ("mixed/bj-rockfall", "diag_building", 0x6fe18c05efa0d605),
    ("mixed/bj-rockfall", "nondiag_building", 0xe2a1833305e4a1b1),
    ("mixed/bj-rockfall", "solving", 0x6b412e08535de80d),
    ("mixed/bj-rockfall", "interpenetration", 0x40c4cbfef41ec206),
    ("mixed/bj-rockfall", "updating", 0x2a3c57c5e91a6f3d),
    ("mixed/bj-slope", "contact_detection", 0xa3a8ea095d820516),
    ("mixed/bj-slope", "diag_building", 0xe9bd0531a46c9f26),
    ("mixed/bj-slope", "nondiag_building", 0xee9ad98a99a79731),
    ("mixed/bj-slope", "solving", 0x780d614f9faf3a95),
    ("mixed/bj-slope", "interpenetration", 0x9593ea43086f8944),
    ("mixed/bj-slope", "updating", 0xded62577871edcd5),
    ("mixed/ssor-rockfall", "contact_detection", 0x7a0a2ec21f675d88),
    ("mixed/ssor-rockfall", "diag_building", 0x6fe18c05efa0d605),
    ("mixed/ssor-rockfall", "nondiag_building", 0xe2a1833305e4a1b1),
    ("mixed/ssor-rockfall", "solving", 0xa99d9552a5af71ac),
    ("mixed/ssor-rockfall", "interpenetration", 0x40c4cbfef41ec206),
    ("mixed/ssor-rockfall", "updating", 0x2a3c57c5e91a6f3d),
    ("mixed/batch", "contact_detection", 0x024db4cb04f9b078),
    ("mixed/batch", "diag_building", 0x47ff95140425c61a),
    ("mixed/batch", "nondiag_building", 0x0ccd623839337f1d),
    ("mixed/batch", "solving", 0xbd1479586d8bbfd3),
    ("mixed/batch", "interpenetration", 0x061a348eb3d9c69b),
    ("mixed/batch", "updating", 0x90b19a843d76f76d),
    ("default/slope", "contact_detection", 0xa3a8ea095d820516),
    ("default/slope", "diag_building", 0x1eb09a30241c30e9),
    ("default/slope", "nondiag_building", 0x6f374f5e1018ed3a),
    ("default/slope", "solving", 0x300a65b10dfa15d6),
    ("default/slope", "interpenetration", 0x8db4ac41bc023767),
    ("default/slope", "updating", 0xded62577871edcd5),
    ("default/rockfall", "contact_detection", 0x7a0a2ec21f675d88),
    ("default/rockfall", "diag_building", 0x6fe18c05efa0d605),
    ("default/rockfall", "nondiag_building", 0x273649ad3ae9bc96),
    ("default/rockfall", "solving", 0x5c8c9e88f1d83ee0),
    ("default/rockfall", "interpenetration", 0x40c4cbfef41ec206),
    ("default/rockfall", "updating", 0x2a3c57c5e91a6f3d),
    ("default/scatter", "contact_detection", 0x22ad1fdd58d174e1),
    ("default/scatter", "diag_building", 0xabac37aec3fae065),
    ("default/scatter", "nondiag_building", 0xee334e05ee4e83ab),
    ("default/scatter", "solving", 0xdc74fdfc6e5a1230),
    ("default/scatter", "interpenetration", 0x8357b645f4314be0),
    ("default/scatter", "updating", 0xa914465861504b72),
    ("default/batch", "contact_detection", 0x024db4cb04f9b078),
    ("default/batch", "diag_building", 0x47ff95140425c61a),
    ("default/batch", "nondiag_building", 0x4b7844f6654f7622),
    ("default/batch", "solving", 0xa59d544f4ac38760),
    ("default/batch", "interpenetration", 0x900b656acd0c8bc7),
    ("default/batch", "updating", 0x90b19a843d76f76d),
    ("shipped/slope", "contact_detection", 0xa3a8ea095d820516),
    ("shipped/slope", "diag_building", 0xe9bd0531a46c9f26),
    ("shipped/slope", "nondiag_building", 0x753a371eb5852519),
    ("shipped/slope", "solving", 0x2558f954828d4f25),
    ("shipped/slope", "interpenetration", 0xd119f855d19dcbe0),
    ("shipped/slope", "updating", 0xded62577871edcd5),
    ("shipped/rockfall", "contact_detection", 0x7a0a2ec21f675d88),
    ("shipped/rockfall", "diag_building", 0x6fe18c05efa0d605),
    ("shipped/rockfall", "nondiag_building", 0x273649ad3ae9bc96),
    ("shipped/rockfall", "solving", 0x27442fd6b061b174),
    ("shipped/rockfall", "interpenetration", 0x40c4cbfef41ec206),
    ("shipped/rockfall", "updating", 0x2a3c57c5e91a6f3d),
    ("shipped/scatter", "contact_detection", 0x22ad1fdd58d174e1),
    ("shipped/scatter", "diag_building", 0xabac37aec3fae065),
    ("shipped/scatter", "nondiag_building", 0xee334e05ee4e83ab),
    ("shipped/scatter", "solving", 0xdc74fdfc6e5a1230),
    ("shipped/scatter", "interpenetration", 0x8357b645f4314be0),
    ("shipped/scatter", "updating", 0xa914465861504b72),
    ("engine/stack-resting", "contact_detection", 0xdd2e11f9678c3a93),
    ("engine/stack-resting", "diag_building", 0x31f04e0e3ac9f445),
    ("engine/stack-resting", "nondiag_building", 0x00ea7dae5f2b44c5),
    ("engine/stack-resting", "solving", 0xbdcb9d23ee549172),
    ("engine/stack-resting", "interpenetration", 0x64265e2152fe22dd),
    ("engine/stack-resting", "updating", 0x7a9b55784b9c7cb9),
    ("engine/stack-dropped", "contact_detection", 0xdd2e11f9678c3a93),
    ("engine/stack-dropped", "diag_building", 0x31f04e0e3ac9f445),
    ("engine/stack-dropped", "nondiag_building", 0x92937e55cc57d065),
    ("engine/stack-dropped", "solving", 0x03c48bef48842e97),
    ("engine/stack-dropped", "interpenetration", 0x64265e2152fe22dd),
    ("engine/stack-dropped", "updating", 0x7a9b55784b9c7cb9),
    ("engine/stack-offset", "contact_detection", 0xdd2e11f9678c3a93),
    ("engine/stack-offset", "diag_building", 0x31f04e0e3ac9f445),
    ("engine/stack-offset", "nondiag_building", 0x00ea7dae5f2b44c5),
    ("engine/stack-offset", "solving", 0x588da6e474b5a635),
    ("engine/stack-offset", "interpenetration", 0x64265e2152fe22dd),
    ("engine/stack-offset", "updating", 0x7a9b55784b9c7cb9),
    ("engine/rockfall", "contact_detection", 0xb0e332a00e6e07ab),
    ("engine/rockfall", "diag_building", 0xac20d7ce5605592d),
    ("engine/rockfall", "nondiag_building", 0x22770997852c0e8c),
    ("engine/rockfall", "solving", 0x71b2645376f695fa),
    ("engine/rockfall", "interpenetration", 0xc5a381fadaff5a8b),
    ("engine/rockfall", "updating", 0xab667fa3379dd8f5),
    ("engine/scatter", "contact_detection", 0xd4c06fe2051b65d1),
    ("engine/scatter", "diag_building", 0x92c72c26122afddd),
    ("engine/scatter", "nondiag_building", 0x631e0c2a4d4bb815),
    ("engine/scatter", "solving", 0xb03abb22b22ebd48),
    ("engine/scatter", "interpenetration", 0x22c203e5985be981),
    ("engine/scatter", "updating", 0x66c026cd215629b5),
    ("engine/batch", "contact_detection", 0xb713a365e9087a51),
    ("engine/batch", "diag_building", 0x07cfa1e42df77e81),
    ("engine/batch", "nondiag_building", 0x69fccd2c70b0bb32),
    ("engine/batch", "solving", 0x82c1eb9065d3958b),
    ("engine/batch", "interpenetration", 0xc1a9317394407615),
    ("engine/batch", "updating", 0x930a6891e1e5c8d9),
];

/// A finished golden run.
struct Run {
    name: &'static str,
    state: u64,
    trace: DeviceTrace,
}

/// Holds `runs` to their [`RUNS`] and [`LEDGER`] rows. On a mismatch it
/// prints the per-kernel table of every phase that moved, then fails with
/// every moved row as it now reads.
fn assert_ledger(runs: &[Run]) {
    let mut moved = Vec::new();
    for run in runs {
        let untagged = run.trace.records.iter().filter(|r| r.phase.is_empty());
        assert_eq!(untagged.count(), 0, "{}: untagged launches", run.name);
        let (name, state, len) = (run.name, run.state, run.trace.len());
        if !RUNS.contains(&(name, state, len)) {
            moved.push(format!("    ({name:?}, {state:#018x}, {len}),"));
        }
        for phase in Phase::ALL.map(Phase::tag) {
            let digest = digest(&run.trace, phase);
            if !LEDGER.contains(&(name, phase, digest)) {
                eprintln!("{}", phase_table(run, phase));
                moved.push(format!("    ({name:?}, {phase:?}, {digest:#018x}),"));
            }
        }
    }
    assert!(moved.is_empty(), "moved rows:\n{}", moved.join("\n"));
}

/// The per-kernel totals of `run`'s records under `phase`.
fn phase_table(run: &Run, phase: &str) -> String {
    let mut out = format!("{} / {phase}:\n", run.name);
    let rows = run.trace.by_phase_kernel().into_iter();
    for ((_, kernel), (stats, seconds)) in rows.filter(|((p, _), _)| *p == phase) {
        out += &format!("  {kernel:<32} {:>11.3} us  {stats}\n", seconds * 1e6);
    }
    out
}

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the records issued under `phase`, in order: each one's
/// name, every `KernelStats` field (through its `Debug` form, so a new
/// counter is covered too) and `seconds.to_bits()`.
fn digest(trace: &DeviceTrace, phase: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for r in trace.records.iter().filter(|r| r.phase == phase) {
        let record = format!("{} {:?} {:#x}", r.name, r.stats, r.seconds.to_bits());
        fnv1a(&mut h, record.as_bytes());
    }
    h
}

/// Per scene the final block state, `x_prev` and the solver counters of
/// every step.
fn digest_state(scenes: &[(&BlockSystem, Vec<f64>, Vec<&StepReport>)]) -> u64 {
    let mut h = FNV_OFFSET;
    for (sys, x_prev, reports) in scenes {
        fnv1a(&mut h, &system_fingerprint(sys).to_le_bytes());
        for x in x_prev {
            fnv1a(&mut h, &x.to_bits().to_le_bytes());
        }
        for r in reports {
            for v in [
                r.oc_iterations,
                r.retries,
                r.pcg_iterations,
                r.last_solve_iterations,
            ] {
                fnv1a(&mut h, &(v as u64).to_le_bytes());
            }
        }
    }
    h
}

/// The golden run `name` of a solo pipeline after `reports`.
fn solo_run(name: &'static str, pipe: &GpuPipeline, reports: &[StepReport]) -> Run {
    let x_prev = pipe.scene_state().x_prev;
    Run {
        name,
        state: digest_state(&[(&pipe.sys, x_prev, reports.iter().collect())]),
        trace: pipe.device().trace(),
    }
}

/// The golden run `name` of a batch after `reports[step][scene]`.
fn batch_run(name: &'static str, batch: &SceneBatch, reports: &[Vec<StepReport>]) -> Run {
    let scenes: Vec<_> = (0..reports[0].len())
        .map(|k| {
            (
                batch.sys(k).expect("live scene"),
                batch.scene_state(k).expect("live scene").x_prev,
                reports.iter().map(|step| &step[k]).collect(),
            )
        })
        .collect();
    Run {
        name,
        state: digest_state(&scenes),
        trace: batch.device().trace(),
    }
}

/// Pins a scene to the Fig 4 oracle and to the bitwise warm-start oracle
/// (every solve starts from the previous step's solution).
fn fig4((sys, params): (BlockSystem, DdaParams)) -> (BlockSystem, DdaParams) {
    let params = params
        .with_assembly_reuse(AssemblyReuse::Recompute)
        .with_warm_start(SolverWarmStart::PrevStep);
    (sys, params)
}

/// The solo slope, rockfall and scatter scenes as their generators ship
/// them.
fn solo_generators() -> Vec<(BlockSystem, DdaParams)> {
    let (sys, params) = scatter_case(&ScatterConfig::default().with_rocks(420));
    assert_eq!(params.broad_phase, BroadPhaseMode::GridCached);
    vec![
        slope_case(&SlopeConfig::default().with_target_blocks(60)),
        rockfall_case(&RockfallConfig::default().with_rocks(40)),
        (sys, params),
    ]
}

fn solo_scenes() -> Vec<(BlockSystem, DdaParams)> {
    solo_generators().into_iter().map(fig4).collect()
}

#[test]
fn solo_traces_match_the_parent_commit() {
    let runs: Vec<_> = ["solo/slope", "solo/rockfall", "solo/scatter"]
        .into_iter()
        .zip(solo_scenes())
        .map(|(name, (sys, params))| {
            let mut pipe = GpuPipeline::new(sys, params, k40());
            let reports = pipe.run(STEPS);
            solo_run(name, &pipe, &reports)
        })
        .collect();
    // More than 64 warps in one launch is past both dispatch cut-offs, so
    // the per-thread partial counters and their merge are under the digest.
    let widest = runs
        .iter()
        .flat_map(|r| &r.trace.records)
        .map(|r| r.stats.warps);
    let widest = widest.max().unwrap();
    assert!(widest > 64, "no launch took the pool path ({widest} warps)");
    assert_ledger(&runs);
}

fn batch_scenes() -> Vec<(BlockSystem, DdaParams)> {
    (0..8)
        .map(|k| match k % 3 {
            0 => rockfall_case(&RockfallConfig::default().with_rocks(6 + k)),
            1 => scatter_case(&ScatterConfig::default().with_rocks(20 + 4 * k)),
            _ => slope_case(&SlopeConfig::default().with_target_blocks(12 + k)),
        })
        .map(fig4)
        .collect()
}

#[test]
fn batch_trace_matches_the_parent_commit() {
    let mut batch = SceneBatch::new(k40(), batch_scenes());
    let reports = batch.run(STEPS);
    assert_ledger(&[batch_run("batch", &batch, &reports)]);
}

#[test]
fn mixed_solo_traces_match_the_parent_commit() {
    let rockfall = || fig4(rockfall_case(&RockfallConfig::default().with_rocks(40)));
    let slope = fig4(slope_case(&SlopeConfig::default().with_target_blocks(60)));
    let runs: Vec<_> = [
        ("mixed/bj-rockfall", rockfall(), PrecondKind::BlockJacobi),
        ("mixed/bj-slope", slope, PrecondKind::BlockJacobi),
        ("mixed/ssor-rockfall", rockfall(), PrecondKind::SsorAi),
    ]
    .into_iter()
    .map(|(name, (sys, params), precond)| {
        let params = params
            .with_precision(SolverPrecision::Mixed)
            .with_precond(precond);
        let mut pipe = GpuPipeline::new(sys, params, k40());
        let reports = pipe.run(STEPS);
        // The fp32 inner loop ran: the three-launch iteration on
        // Block-Jacobi, the fp64 bridge on SSOR-AI.
        let by = pipe.device().trace().by_kernel();
        let inner = match precond {
            PrecondKind::SsorAi => "pcg.fused.axpy2norm.f32",
            _ => "pcg.fused.update.f32",
        };
        assert!(by.contains_key(inner), "{inner} never ran");
        assert_eq!(
            by.contains_key("vec.promote"),
            precond == PrecondKind::SsorAi
        );
        solo_run(name, &pipe, &reports)
    })
    .collect();
    assert_ledger(&runs);
}

#[test]
fn mixed_batch_trace_matches_the_parent_commit() {
    let scenes: Vec<_> = batch_scenes()
        .into_iter()
        .map(|(sys, params)| (sys, params.with_precision(SolverPrecision::Mixed)))
        .collect();
    let mut batch = SceneBatch::new(k40(), scenes);
    let reports = batch.run(STEPS);
    let run = batch_run("mixed/batch", &batch, &reports);
    assert!(run.trace.by_kernel().contains_key("pcg.fused.update.f32"));
    assert_ledger(&[run]);
}

/// The scene on the default assembly path, its solves still on the bitwise
/// warm-start oracle.
fn shipped((sys, params): (BlockSystem, DdaParams)) -> (BlockSystem, DdaParams) {
    let params = params
        .with_assembly_reuse(AssemblyReuse::default())
        .with_warm_start(SolverWarmStart::PrevStep);
    assert_eq!(params.assembly_reuse, AssemblyReuse::Incremental);
    (sys, params)
}

/// What a step reports that the assembly path must not move.
fn report_key(r: &StepReport) -> (usize, usize, usize, usize, usize, [usize; 6]) {
    (
        r.n_contacts,
        r.n_upper,
        r.oc_iterations,
        r.pcg_iterations,
        r.retries,
        r.categories,
    )
}

/// Every bit of a scene a wrong assembly would move: block state, the PCG
/// seed, and the contact set with its open–close and transfer history.
fn state_bits(st: &SceneState) -> Vec<u64> {
    let mut bits = vec![system_fingerprint(&st.sys)];
    bits.extend(st.x_prev.iter().map(|x| x.to_bits()));
    for c in &st.contacts {
        bits.extend([c.key(), c.state as u64, u64::from(c.flips)]);
        bits.extend([c.normal_disp, c.shear_disp, c.edge_ratio, c.slide_dir].map(f64::to_bits));
    }
    bits
}

/// Per-(phase, kernel) totals of every launch outside non-diagonal
/// building: the rows the two assembly paths have in common.
fn shared_rows(trace: &DeviceTrace) -> Vec<((&str, &str), KernelStats, u64)> {
    trace
        .by_phase_kernel()
        .into_iter()
        .filter(|((phase, _), _)| *phase != Phase::NondiagBuilding.tag())
        .map(|(key, (stats, seconds))| (key, stats, seconds.to_bits()))
        .collect()
}

#[test]
fn default_assembly_matches_the_fig4_oracle_solo() {
    let names = ["default/slope", "default/rockfall", "default/scatter"];
    let runs: Vec<_> = solo_scenes()
        .into_iter()
        .zip(names)
        .enumerate()
        .map(|(k, (scene, name))| {
            let (sys, params) = shipped(scene.clone());
            let mut oracle = GpuPipeline::new(scene.0, scene.1, k40());
            let mut pipe = GpuPipeline::new(sys, params, k40());
            let mut reports = Vec::new();
            for step in 0..STEPS {
                let (ro, rs) = (oracle.step(), pipe.step());
                assert_eq!(report_key(&ro), report_key(&rs), "scene {k} step {step}");
                reports.push(rs);
                assert_eq!(
                    state_bits(&oracle.scene_state()),
                    state_bits(&pipe.scene_state()),
                    "scene {k} step {step}"
                );
            }
            // The solver, contact, open–close and update launches must not
            // notice which path assembled their inputs.
            let trace = pipe.device().trace();
            assert_eq!(
                shared_rows(&oracle.device().trace()),
                shared_rows(&trace),
                "scene {k}"
            );
            let by = trace.by_kernel();
            assert!(by.contains_key("assembly.gather") && !by.contains_key("nondiag.compute"));
            solo_run(name, &pipe, &reports)
        })
        .collect();
    assert_ledger(&runs);
}

#[test]
fn default_assembly_matches_the_fig4_oracle_in_a_batch() {
    let mut oracle = SceneBatch::new(k40(), batch_scenes());
    let mut batch = SceneBatch::new(k40(), batch_scenes().into_iter().map(shipped).collect());
    let mut reports = Vec::new();
    for step in 0..STEPS {
        let (ro, rs) = (oracle.step(), batch.step());
        for k in 0..ro.len() {
            assert_eq!(
                report_key(&ro[k]),
                report_key(&rs[k]),
                "scene {k} step {step}"
            );
            assert_eq!(
                state_bits(&oracle.scene_state(k).expect("live scene")),
                state_bits(&batch.scene_state(k).expect("live scene")),
                "scene {k} step {step}"
            );
        }
        reports.push(rs);
    }
    assert_eq!(
        shared_rows(&oracle.device().trace()),
        shared_rows(&batch.device().trace())
    );
    assert_ledger(&[batch_run("default/batch", &batch, &reports)]);
}

#[test]
fn shipped_solo_traces_match_the_parent_commit() {
    let runs: Vec<_> = ["shipped/slope", "shipped/rockfall", "shipped/scatter"]
        .into_iter()
        .zip(solo_generators())
        .map(|(name, (sys, params))| {
            assert_eq!(params.assembly_reuse, AssemblyReuse::Incremental);
            assert_eq!(params.warm_start, SolverWarmStart::PrevIterate);
            let mut pipe = GpuPipeline::new(sys, params, k40());
            let reports = pipe.run(STEPS);
            let warm_starts: usize = reports.iter().map(|r| r.warm_starts).sum();
            assert!(warm_starts > 0, "no re-solve warm-started");
            solo_run(name, &pipe, &reports)
        })
        .collect();
    assert_ledger(&runs);
}

#[test]
fn engine_scenes_match_the_ledger() {
    let names = [
        "engine/stack-resting",
        "engine/stack-dropped",
        "engine/stack-offset",
        "engine/rockfall",
        "engine/scatter",
    ];
    let mut runs: Vec<_> = names
        .into_iter()
        .zip(engine_scenes::scenes())
        .map(|(name, (sys, params))| {
            let mut pipe = GpuPipeline::new(sys, params, k40());
            let reports = pipe.run(engine_scenes::STEPS);
            solo_run(name, &pipe, &reports)
        })
        .collect();
    let mut batch = SceneBatch::new(k40(), engine_scenes::scenes());
    let reports = batch.run(engine_scenes::STEPS);
    runs.push(batch_run("engine/batch", &batch, &reports));
    assert_ledger(&runs);
}
