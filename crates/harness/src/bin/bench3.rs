//! BENCH_3 generator: fault-isolation recovery overhead on a scene fleet.
//!
//! An N-scene rockfall fleet (the [`dda_workloads::fleet`] spread) runs
//! twice on the Tesla K40 model:
//!
//! * **baseline** — every scene healthy;
//! * **poisoned** — the deterministic injector corrupts one scene's
//!   assembled right-hand side with NaN at every step, driving it through
//!   the `Running → Degraded → Quarantined` lifecycle.
//!
//! The report records the isolation contract (survivor trajectories
//! bit-identical to the baseline), the quarantine latency in steps, the
//! modeled-time recovery overhead the fleet paid for the poisoned scene's
//! failed attempts, and the preconditioner fallback ladder's per-rung
//! solve-time deltas (what one rung of degradation costs a solo pipeline).
//!
//! Writes `BENCH_3.json` into the current directory and prints it.
//! Requires the `fault-inject` feature.
//!
//! Usage: `bench3 [--scenes N] [--rocks N] [--steps N]`

use std::time::Instant;

use dda_core::pipeline::{GpuPipeline, PrecondKind, SceneBatch, SlotState};
use dda_harness::Args;
use dda_simt::{Device, DeviceProfile, Fault};
use dda_workloads::{rockfall_fleet, FleetConfig};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

fn main() {
    let a = Args::parse_with(&["--scenes"], 0, 4, 8);
    let argv: Vec<String> = std::env::args().collect();
    let scenes = argv
        .iter()
        .position(|s| s == "--scenes")
        .and_then(|p| argv.get(p + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(8usize);
    let poison = scenes / 2;
    eprintln!(
        "bench3: scenes={scenes} rocks={} steps={} poisoned_scene={poison} (K40 model)",
        a.rocks, a.steps
    );

    let cfg = FleetConfig::default()
        .with_scenes(scenes)
        .with_rocks(a.rocks);

    // ---- Baseline: healthy fleet.
    let mut baseline = SceneBatch::new(k40(), rockfall_fleet(&cfg));
    let t = Instant::now();
    baseline.run(a.steps);
    let base_wall = t.elapsed().as_secs_f64();
    let base_modeled = baseline.device().modeled_seconds();

    // ---- Poisoned: one scene's RHS is NaN-corrupted every step.
    let dev = k40();
    dev.arm_fault(poison, Fault::NanRhs, usize::MAX);
    let mut poisoned = SceneBatch::new(dev, rockfall_fleet(&cfg));
    let t = Instant::now();
    poisoned.run(a.steps);
    let poison_wall = t.elapsed().as_secs_f64();
    let poison_modeled = poisoned.device().modeled_seconds();

    let h = poisoned.health(poison);
    let quarantined = h.state == SlotState::Quarantined;
    let latency_steps = h.quarantined_at_step.unwrap_or(0);
    let faults_observed = h.total_faults;

    // ---- Isolation contract: survivors bitwise match the baseline.
    let mut survivors_bit_identical = true;
    for i in 0..scenes {
        if i == poison {
            continue;
        }
        let (bsys, psys) = (
            baseline.sys(i).expect("live scene"),
            poisoned.sys(i).expect("live scene"),
        );
        for (bb, bp) in bsys.blocks.iter().zip(&psys.blocks) {
            let (cb, cp) = (bb.centroid(), bp.centroid());
            if cb.x.to_bits() != cp.x.to_bits() || cb.y.to_bits() != cp.y.to_bits() {
                survivors_bit_identical = false;
            }
            for dof in 0..6 {
                if bb.velocity[dof].to_bits() != bp.velocity[dof].to_bits() {
                    survivors_bit_identical = false;
                }
            }
        }
    }

    // Recovery overhead: extra modeled device time the fleet paid for the
    // poisoned scene's failed attempts before quarantine froze it. (After
    // quarantine the poisoned fleet is *cheaper* — one fewer scene steps —
    // so the delta can go negative on long runs.)
    let overhead_modeled = poison_modeled - base_modeled;
    let overhead_pct = 100.0 * overhead_modeled / base_modeled;

    // ---- Fallback-ladder solve-time deltas: what each rung of graceful
    // degradation costs a solo pipeline on the same scene, relative to the
    // recommended Block-Jacobi configuration.
    let ladder = [
        (PrecondKind::Ilu0, "ILU0"),
        (PrecondKind::SsorAi, "SSOR-AI"),
        (PrecondKind::BlockJacobi, "BlockJacobi"),
        (PrecondKind::Jacobi, "Jacobi"),
    ];
    let (sys, params) = rockfall_fleet(&cfg.clone().with_scenes(1))
        .pop()
        .expect("fleet is non-empty");
    let mut rung_solving = Vec::new();
    for (kind, name) in ladder {
        let mut pipe = GpuPipeline::new(sys.clone(), params.clone(), k40()).with_precond(kind);
        pipe.run(a.steps.min(4));
        rung_solving.push((name, pipe.times.solving));
    }
    let bj_solving = rung_solving
        .iter()
        .find(|(n, _)| *n == "BlockJacobi")
        .map(|(_, s)| *s)
        .unwrap_or(1.0);
    let ladder_json: Vec<String> = rung_solving
        .iter()
        .map(|(name, s)| {
            format!(
                "{{ \"precond\": \"{name}\", \"solving_modeled_s\": {s:.6e}, \"vs_block_jacobi\": {:.3} }}",
                s / bj_solving
            )
        })
        .collect();

    eprintln!(
        "  baseline {base_modeled:.6e} s | poisoned {poison_modeled:.6e} s \
         | overhead {overhead_pct:+.2}% | quarantined={quarantined} at step {latency_steps} \
         | survivors bit_identical={survivors_bit_identical}"
    );

    let json = format!(
        "{{\n  \"bench\": \"fault_isolated_scene_lifecycle\",\n  \"device\": \"tesla_k40_model\",\n  \
         \"config\": {{ \"scenes\": {scenes}, \"rocks\": {}, \"steps\": {}, \"poisoned_scene\": {poison}, \"fault\": \"NanRhs\", \"retry_budget\": {} }},\n  \
         \"units\": \"modeled_s = total modeled device seconds; quarantine_latency_steps = batch steps from first fault to quarantine\",\n  \
         \"baseline\": {{ \"modeled_s\": {base_modeled:.6e}, \"wall_s\": {base_wall:.6e} }},\n  \
         \"poisoned\": {{ \"modeled_s\": {poison_modeled:.6e}, \"wall_s\": {poison_wall:.6e}, \"quarantined\": {quarantined}, \"quarantine_latency_steps\": {latency_steps}, \"faults_observed\": {faults_observed} }},\n  \
         \"recovery_overhead\": {{ \"modeled_s\": {overhead_modeled:.6e}, \"pct_of_baseline\": {overhead_pct:.3} }},\n  \
         \"survivors_bit_identical\": {survivors_bit_identical},\n  \
         \"fallback_ladder\": [\n    {}\n  ]\n}}\n",
        a.rocks,
        a.steps,
        poisoned.policy().retry_budget,
        ladder_json.join(",\n    "),
    );

    print!("{json}");
    std::fs::write("BENCH_3.json", &json).expect("write BENCH_3.json");
    eprintln!("wrote BENCH_3.json");
    assert!(quarantined, "poisoned scene failed to quarantine");
    assert!(
        survivors_bit_identical,
        "survivor trajectories diverged from the baseline"
    );
}
