//! BENCH_2 generator: batched multi-scene throughput vs a serial scene
//! loop.
//!
//! N distinct small rockfall scenes (the [`dda_workloads::fleet`] spread)
//! are stepped two ways on the Tesla K40 model:
//!
//! * **serial loop** — each scene in its own `GpuPipeline`, stepped one
//!   after another: N× the launches, each at a small scene's occupancy;
//! * **batched** — all scenes in one [`SceneBatch`]: every pipeline phase
//!   merges the scenes' matching kernels into one modeled launch with
//!   summed occupancy, with per-scene convergence masks dropping finished
//!   scenes out.
//!
//! Per-scene trajectories are verified **bit-identical** between the two
//! runs; the report records modeled scene-steps/second both ways, the
//! launch counts per step, and the resulting speed-up.
//!
//! Writes `BENCH_2.json` into the current directory and prints it.
//!
//! Usage: `bench2 [--scenes N] [--rocks N] [--steps N]`

use std::time::Instant;

use dda_core::pipeline::{GpuPipeline, SceneBatch};
use dda_harness::Args;
use dda_simt::{Device, DeviceProfile};
use dda_workloads::{rockfall_fleet, FleetConfig};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

fn main() {
    let a = Args::parse_with(&["--scenes"], 0, 10, 6);
    // `--scenes` is this benchmark's own flag: Args lets it through unread.
    let argv: Vec<String> = std::env::args().collect();
    let scenes = argv
        .iter()
        .position(|s| s == "--scenes")
        .and_then(|p| argv.get(p + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(8usize);
    eprintln!(
        "bench2: scenes={scenes} rocks={} steps={} (K40 model)",
        a.rocks, a.steps
    );

    let cfg = FleetConfig::default()
        .with_scenes(scenes)
        .with_rocks(a.rocks);

    // ---- Serial loop baseline: one pipeline per scene, stepped in turn.
    let mut solos: Vec<GpuPipeline> = rockfall_fleet(&cfg)
        .into_iter()
        .map(|(sys, params)| GpuPipeline::new(sys, params, k40()))
        .collect();
    let t = Instant::now();
    for _ in 0..a.steps {
        for pipe in solos.iter_mut() {
            pipe.step();
        }
    }
    let serial_wall = t.elapsed().as_secs_f64();
    let serial_modeled: f64 = solos.iter().map(|p| p.device().modeled_seconds()).sum();
    let serial_launches: u64 = solos
        .iter()
        .map(|p| {
            p.device()
                .trace()
                .records
                .iter()
                .map(|r| r.stats.launches)
                .sum::<u64>()
        })
        .sum();

    // ---- Batched: every scene on one device, phases merged.
    let mut batch = SceneBatch::new(k40(), rockfall_fleet(&cfg));
    let t = Instant::now();
    let mut launches_in_total = 0u64;
    let mut launches_out_total = 0u64;
    for _ in 0..a.steps {
        batch.step();
        let (li, lo) = batch.last_step_launches();
        launches_in_total += li;
        launches_out_total += lo;
    }
    let batch_wall = t.elapsed().as_secs_f64();
    let batch_modeled = batch.device().modeled_seconds();

    // ---- Equivalence: the batch must reproduce the solo trajectories bit
    // for bit — batching is a scheduling change, not a physics change.
    let mut bit_identical = true;
    for (i, solo) in solos.iter().enumerate() {
        let bsys = batch.sys(i).expect("live scene");
        for (bs, bb) in solo.sys.blocks.iter().zip(&bsys.blocks) {
            let (cs, cb) = (bs.centroid(), bb.centroid());
            if cs.x.to_bits() != cb.x.to_bits() || cs.y.to_bits() != cb.y.to_bits() {
                bit_identical = false;
            }
            for dof in 0..6 {
                if bs.velocity[dof].to_bits() != bb.velocity[dof].to_bits() {
                    bit_identical = false;
                }
            }
        }
    }

    let scene_steps = (scenes * a.steps) as f64;
    let serial_rate = scene_steps / serial_modeled;
    let batch_rate = scene_steps / batch_modeled;
    let speedup = serial_modeled / batch_modeled;
    let serial_lps = serial_launches as f64 / a.steps as f64;
    let batch_lps = launches_out_total as f64 / a.steps as f64;

    eprintln!(
        "  serial: {serial_modeled:.6e} s modeled, {serial_lps:.0} launches/step \
         | batched: {batch_modeled:.6e} s modeled, {batch_lps:.0} launches/step \
         | speedup {speedup:.2}x | bit_identical={bit_identical}"
    );

    let json = format!(
        "{{\n  \"bench\": \"batched_multi_scene_runtime\",\n  \"device\": \"tesla_k40_model\",\n  \
         \"config\": {{ \"scenes\": {scenes}, \"rocks\": {}, \"steps\": {} }},\n  \
         \"units\": \"modeled_s = total modeled device seconds; scene_steps_per_modeled_s = scenes*steps / modeled_s; launches_per_step averaged over the run\",\n  \
         \"serial_loop\": {{ \"modeled_s\": {serial_modeled:.6e}, \"wall_s\": {serial_wall:.6e}, \"scene_steps_per_modeled_s\": {serial_rate:.3}, \"launches_per_step\": {serial_lps:.1} }},\n  \
         \"batched\": {{ \"modeled_s\": {batch_modeled:.6e}, \"wall_s\": {batch_wall:.6e}, \"scene_steps_per_modeled_s\": {batch_rate:.3}, \"launches_per_step\": {batch_lps:.1}, \"launches_in_per_step\": {:.1} }},\n  \
         \"modeled_speedup\": {speedup:.3},\n  \
         \"launch_reduction\": {:.3},\n  \
         \"bit_identical\": {bit_identical}\n}}\n",
        a.rocks,
        a.steps,
        launches_in_total as f64 / a.steps as f64,
        serial_lps / batch_lps.max(1e-12),
    );

    print!("{json}");
    std::fs::write("BENCH_2.json", &json).expect("write BENCH_2.json");
    eprintln!("wrote BENCH_2.json");
    assert!(
        bit_identical,
        "batched trajectories diverged from the serial loop"
    );
}
