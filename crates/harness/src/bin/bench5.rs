//! BENCH_5 generator: cell-binned broad phase with displacement-bounded
//! pair caching.
//!
//! Sweeps the scattered sparse rock field (`dda_workloads::scatter_case`,
//! O(1) contacts per block) across block counts and measures the three
//! broad-phase modes — the all-pairs reference, the uniform-grid binning
//! pass, and the grid behind the displacement-bounded candidate cache —
//! two ways each:
//!
//! * **probe** — the broad phase in isolation on a frozen geometry
//!   snapshot: modeled device seconds and host wall seconds per
//!   invocation, with pair-list parity asserted across modes;
//! * **step** — one full GPU pipeline time step end to end, with the
//!   final trajectory asserted bit-identical across modes (the broad
//!   phase may only change *when* work happens, never *what* the
//!   physics computes).
//!
//! Two structural checks ride along: on each of the three drivers
//! (serial, device, batched) the mode must be invisible to the physics
//! bit for bit — and the batched driver must keep reproducing the solo
//! device driver exactly while still collapsing identical grid-mode
//! scenes to merged per-phase launches.
//!
//! Writes `BENCH_5.json` into the current directory and prints it.
//!
//! Usage: `bench5 [--steps N] [--seed N] [--sizes a,b,c,d]`

use std::time::Instant;

use dda_core::contact::{detect_broad_gpu, BroadPhaseMode, ContactWorkspace, GeomSoa};
use dda_core::pipeline::{CpuPipeline, GpuPipeline, SceneBatch};
use dda_core::{BlockSystem, DdaParams};
use dda_harness::Args;
use dda_simt::{Device, DeviceProfile};
use dda_workloads::{scatter_case, ScatterConfig};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

/// Probe result: (modeled s/call, wall s/call, pair list).
type Probe = (f64, f64, Vec<(u32, u32)>);
/// Step result: (modeled s, wall s, contact s, centroid bits, cache stats).
type StepStats = (f64, f64, f64, Vec<u64>, (u64, u64));

const MODES: [(BroadPhaseMode, &str); 3] = [
    (BroadPhaseMode::AllPairs, "all_pairs"),
    (BroadPhaseMode::Grid, "grid"),
    (BroadPhaseMode::GridCached, "grid_cached"),
];

fn field(n: usize, seed: u64) -> (BlockSystem, DdaParams) {
    scatter_case(&ScatterConfig {
        seed,
        ..ScatterConfig::default().with_rocks(n)
    })
}

/// Isolated broad-phase probe on a frozen geometry snapshot: steady-state
/// modeled and wall seconds per invocation for one mode, plus the pair
/// list it produced (for cross-mode parity).
fn probe_mode(sys: &BlockSystem, params: &DdaParams, mode: BroadPhaseMode, reps: u32) -> Probe {
    let dev = k40();
    let soa = GeomSoa::build(sys);
    let mut ws = ContactWorkspace::new();
    let (range, slack) = (params.contact_range, params.broad_slack);
    // Warm twice: the cached mode's first call builds the candidate set,
    // so the measured loop sees the steady-state (hit) path.
    for _ in 0..2 {
        detect_broad_gpu(&dev, &soa, mode, range, slack, &mut ws);
    }
    let pairs = ws.pairs.clone();
    dev.reset_trace();
    let t = Instant::now();
    for _ in 0..reps {
        detect_broad_gpu(&dev, &soa, mode, range, slack, &mut ws);
    }
    let wall = t.elapsed().as_secs_f64() / reps as f64;
    let modeled = dev.modeled_seconds() / reps as f64;
    assert_eq!(ws.pairs, pairs, "probe reps must be stable");
    (modeled, wall, pairs)
}

/// One full-pipeline run in one mode: per-step modeled seconds, wall
/// seconds, contact-phase modeled seconds (after a warm-up step), the
/// final centroid bit pattern, and the broad-phase cache counters.
fn step_mode(
    sys: &BlockSystem,
    params: &DdaParams,
    mode: BroadPhaseMode,
    steps: usize,
) -> StepStats {
    let mut p = params.clone();
    p.broad_phase = mode;
    let mut pipe = GpuPipeline::new(sys.clone(), p, k40());
    pipe.step(); // warm: format build + (cached mode) candidate build
    let m0 = pipe.device().modeled_seconds();
    let c0 = pipe.times.contact_detection;
    let t = Instant::now();
    pipe.run(steps);
    let wall = t.elapsed().as_secs_f64() / steps.max(1) as f64;
    let modeled = (pipe.device().modeled_seconds() - m0) / steps.max(1) as f64;
    let contact = (pipe.times.contact_detection - c0) / steps.max(1) as f64;
    let bits = centroid_bits(&pipe.sys);
    (modeled, wall, contact, bits, pipe.broad_cache_stats())
}

fn centroid_bits(sys: &BlockSystem) -> Vec<u64> {
    sys.blocks
        .iter()
        .flat_map(|b| {
            let c = b.centroid();
            [c.x.to_bits(), c.y.to_bits()]
        })
        .collect()
}

fn main() {
    let a = Args::parse_with(&["--sizes"], 0, 0, 3);
    let argv: Vec<String> = std::env::args().collect();
    let sizes: Vec<usize> = argv
        .iter()
        .position(|s| s == "--sizes")
        .and_then(|p| argv.get(p + 1))
        .map(|v| v.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| vec![200, 800, 3200, 10000]);
    eprintln!(
        "bench5: sizes={sizes:?} steps={} seed={} (K40 model)",
        a.steps, a.seed
    );

    let mut size_json = Vec::new();
    let mut grid_speedups = Vec::new();
    let mut cached_speedups = Vec::new();
    for &n in &sizes {
        let (sys, params) = field(n, a.seed);
        let reps = if n >= 3200 { 3 } else { 10 };

        // ---- Probe: broad phase in isolation, pair parity across modes.
        let probes: Vec<Probe> = MODES
            .iter()
            .map(|&(mode, _)| probe_mode(&sys, &params, mode, reps))
            .collect();
        for (i, p) in probes.iter().enumerate().skip(1) {
            assert_eq!(
                p.2, probes[0].2,
                "mode {} pair list diverged from all-pairs at n={n}",
                MODES[i].1
            );
        }
        let n_pairs = probes[0].2.len();
        let grid_speedup = probes[0].0 / probes[1].0;
        let cached_speedup = probes[0].0 / probes[2].0;
        grid_speedups.push(grid_speedup);
        cached_speedups.push(cached_speedup);
        eprintln!(
            "  n={n}: {n_pairs} pairs | probe modeled all-pairs {:.3e} s, grid {:.3e} s \
             ({grid_speedup:.2}x), cached {:.3e} s ({cached_speedup:.2}x)",
            probes[0].0, probes[1].0, probes[2].0
        );

        // ---- End-to-end: one pipeline step per mode, trajectories must
        // agree bit for bit.
        let steps: Vec<StepStats> = MODES
            .iter()
            .map(|&(mode, _)| step_mode(&sys, &params, mode, a.steps))
            .collect();
        for (i, s) in steps.iter().enumerate().skip(1) {
            assert_eq!(
                s.3, steps[0].3,
                "mode {} trajectory diverged from all-pairs at n={n}",
                MODES[i].1
            );
        }
        let (hits, rebuilds) = steps[2].4;
        eprintln!(
            "  n={n}: step modeled all-pairs {:.3e} s, grid {:.3e} s, cached {:.3e} s \
             | cache {hits} hits / {rebuilds} rebuilds | bitwise ok",
            steps[0].0, steps[1].0, steps[2].0
        );

        let mode_json = |i: usize| {
            format!(
                "{{ \"probe_modeled_s\": {:.6e}, \"probe_wall_s\": {:.6e}, \
                 \"step_modeled_s\": {:.6e}, \"step_wall_s\": {:.6e}, \"step_contact_s\": {:.6e} }}",
                probes[i].0, probes[i].1, steps[i].0, steps[i].1, steps[i].2
            )
        };
        size_json.push(format!(
            "    {{ \"blocks\": {n}, \"pairs\": {n_pairs},\n      \
             \"all_pairs\": {},\n      \"grid\": {},\n      \"grid_cached\": {},\n      \
             \"probe_modeled_speedup\": {{ \"grid\": {grid_speedup:.3}, \"grid_cached\": {cached_speedup:.3} }},\n      \
             \"cache\": {{ \"hits\": {hits}, \"rebuilds\": {rebuilds} }},\n      \
             \"bitwise_identical_modes\": true }}",
            mode_json(0),
            mode_json(1),
            mode_json(2),
        ));
    }

    // The point of the grid: it must win where all-pairs is quadratic, and
    // win harder as n grows. (Small sizes may go either way — the grid
    // pays sort/scan overhead a 200-block sweep doesn't amortise.)
    let top = sizes.len() - 1;
    if sizes[top] >= 3200 {
        assert!(
            grid_speedups[top] > 1.0 && cached_speedups[top] > 1.0,
            "grid must beat all-pairs at n={}: grid {:.2}x cached {:.2}x",
            sizes[top],
            grid_speedups[top],
            cached_speedups[top]
        );
        assert!(
            grid_speedups[top] > grid_speedups[0],
            "speedup must grow with n: {grid_speedups:?}"
        );
    }

    // ---- Driver parity: on each of the three drivers, the broad-phase
    // mode must be invisible to the physics (bit-identical trajectories
    // across modes), and the batched driver must still reproduce the solo
    // device driver bit for bit. Serial vs device agree to reduction-order
    // noise only (their solver schedules differ), mode or no mode.
    let parity_n = sizes[sizes.len() / 2].min(800);
    let (sys, params) = field(parity_n, a.seed);
    let driver_steps = (a.steps + 1).max(2);
    let run_drivers = |mode: BroadPhaseMode| -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let mut p = params.clone();
        p.broad_phase = mode;
        let mut cpu = CpuPipeline::new(sys.clone(), p.clone());
        let mut gpu = GpuPipeline::new(sys.clone(), p.clone(), k40());
        let mut batch = SceneBatch::new(k40(), vec![(sys.clone(), p)]);
        cpu.run(driver_steps);
        gpu.run(driver_steps);
        batch.run(driver_steps);
        (
            centroid_bits(&cpu.sys),
            centroid_bits(&gpu.sys),
            centroid_bits(&batch.scene_state(0).expect("scene 0 live").sys),
        )
    };
    let runs: Vec<_> = MODES.iter().map(|&(mode, _)| run_drivers(mode)).collect();
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            r.0, runs[0].0,
            "cpu driver: mode {} perturbed physics",
            MODES[i].1
        );
        assert_eq!(
            r.1, runs[0].1,
            "gpu driver: mode {} perturbed physics",
            MODES[i].1
        );
        assert_eq!(
            r.2, runs[0].2,
            "batch driver: mode {} perturbed physics",
            MODES[i].1
        );
    }
    for (i, r) in runs.iter().enumerate() {
        assert_eq!(
            r.1, r.2,
            "batch diverged from solo gpu under mode {}",
            MODES[i].1
        );
        let drift =
            r.0.chunks(2)
                .zip(r.1.chunks(2))
                .map(|(c, g)| {
                    let dx = f64::from_bits(c[0]) - f64::from_bits(g[0]);
                    let dy = f64::from_bits(c[1]) - f64::from_bits(g[1]);
                    (dx * dx + dy * dy).sqrt()
                })
                .fold(0.0f64, f64::max);
        assert!(
            drift < 1e-6,
            "cpu vs gpu drift {drift} under mode {}",
            MODES[i].1
        );
    }
    eprintln!(
        "  driver parity at n={parity_n}: modes bit-identical on cpu, gpu, and batch; \
         batch == solo gpu bit for bit"
    );

    // ---- Batch merging: identical grid-mode scenes must still collapse
    // to one merged launch per phase.
    let fleet = 4;
    let mut merged = SceneBatch::new(k40(), (0..fleet).map(|_| field(parity_n, a.seed)).collect());
    merged.run(2);
    let (l_in, l_out) = merged.last_step_launches();
    assert!(
        (l_out as f64) < (l_in as f64) / (fleet as f64 - 1.0),
        "grid-mode scenes must merge: {l_in} -> {l_out} for {fleet} scenes"
    );
    eprintln!("  batch merge: {l_in} -> {l_out} launches for {fleet} identical scenes");

    let json = format!(
        "{{\n  \"bench\": \"cell_binned_broad_phase\",\n  \"device\": \"tesla_k40_model\",\n  \
         \"workload\": \"scatter_field\",\n  \
         \"config\": {{ \"sizes\": {sizes:?}, \"steps\": {}, \"seed\": {} }},\n  \
         \"units\": \"probe = broad phase alone per invocation; step = full pipeline step; seconds\",\n  \
         \"sizes\": [\n{}\n  ],\n  \
         \"driver_parity\": {{ \"blocks\": {parity_n}, \"steps\": {driver_steps}, \"modes_bit_identical_per_driver\": true, \"batch_matches_solo_gpu_bitwise\": true }},\n  \
         \"batch_merge\": {{ \"scenes\": {fleet}, \"launches_unmerged\": {l_in}, \"launches_merged\": {l_out} }}\n}}\n",
        a.steps,
        a.seed,
        size_json.join(",\n"),
    );

    print!("{json}");
    std::fs::write("BENCH_5.json", &json).expect("write BENCH_5.json");
    eprintln!("wrote BENCH_5.json");
}
