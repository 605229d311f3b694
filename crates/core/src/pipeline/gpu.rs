//! The GPU-resident pipeline (Fig 2).
//!
//! Every module executes as simulated kernels on the device passed in
//! (Tesla K20/K40 profiles for the paper's tables). "The entire DDA
//! pipeline … is restructured according to the GPU architecture to
//! minimize data transmissions between the host and device": here the
//! contact set, stiffness system, and solver state stay in device
//! buffers across modules; only scalar controls (iteration counts,
//! convergence flags, Δt decisions) cross back, as in the paper.
//!
//! [`GpuPipeline`] is the one-scene shell over the step engine
//! (`pipeline/engine.rs`): it owns the scene and the device, and turns a
//! scene fault into an `Err`.

use super::batch::SceneState;
use super::engine::{step_scenes, SceneCore};
use super::health::{SceneHealth, StepError};
use super::StepReport;
use crate::contact::Contact;
use dda_simt::Device;

// The policy enum lives with the preconditioners; re-exported here because
// the pipeline API has always been its home.
pub use dda_solver::PrecondKind;

/// The GPU DDA driver. Dereferences to its scene, so `pipe.sys`,
/// `pipe.params` (analysis controls) and `pipe.times` (accumulated modeled
/// device seconds per module) are plain field accesses.
pub struct GpuPipeline {
    scene: SceneCore,
    dev: Device,
}

impl std::ops::Deref for GpuPipeline {
    type Target = SceneCore;
    fn deref(&self) -> &SceneCore {
        &self.scene
    }
}

impl std::ops::DerefMut for GpuPipeline {
    fn deref_mut(&mut self) -> &mut SceneCore {
        &mut self.scene
    }
}

impl GpuPipeline {
    /// Creates a pipeline on `dev` (typically a Tesla K20/K40 profile).
    pub fn new(sys: crate::BlockSystem, params: crate::DdaParams, dev: Device) -> GpuPipeline {
        GpuPipeline {
            scene: SceneCore::new(sys, params),
            dev,
        }
    }

    /// Selects the solver preconditioner (the starting rung of the
    /// degradation ladder; shorthand for setting
    /// [`DdaParams::precond`](crate::params::DdaParams::precond)).
    pub fn with_precond(mut self, p: PrecondKind) -> GpuPipeline {
        self.params.precond = p;
        self
    }

    /// The device (for trace inspection).
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// A clone of the pipeline's full resumable state — the capture half
    /// of solo-pipeline checkpointing. The health field is a fresh
    /// running record (solo pipelines keep no lifecycle machine). Must be
    /// taken at a step boundary to be resumable. Derived solver caches
    /// are deliberately excluded: they rebuild deterministically and only
    /// shift modeled *time* attribution, never trajectory values.
    pub fn scene_state(&self) -> SceneState {
        self.scene.state(SceneHealth::new_running())
    }

    /// Rebuilds a pipeline on `dev` from a captured state — the restore
    /// half. Continuing the restored pipeline reproduces the original's
    /// trajectory bit for bit.
    pub fn from_state(st: SceneState, dev: Device) -> GpuPipeline {
        GpuPipeline {
            scene: SceneCore::from_state(st).0,
            dev,
        }
    }

    /// Current contact set.
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// Solver-cache diagnostics: `(value_refills, full_rebuilds)` of the
    /// HSBCSR format across all solves so far.
    pub fn format_cache_stats(&self) -> (usize, usize) {
        (self.cache.refills, self.cache.rebuilds)
    }

    /// Broad-phase cache diagnostics: `(hits, rebuilds)` of the
    /// displacement-bounded candidate cache (both zero unless
    /// [`crate::contact::BroadPhaseMode::GridCached`] is selected).
    pub fn broad_cache_stats(&self) -> (u64, u64) {
        (self.ws.cache.hits, self.ws.cache.rebuilds)
    }

    /// Assembly-cache diagnostics: lifetime reuse counters (all zero
    /// under [`AssemblyReuse::Recompute`](crate::AssemblyReuse::Recompute)).
    pub fn assembly_cache_stats(&self) -> crate::assembly_cache::AssemblyStats {
        self.acache.stats()
    }

    /// Always `(0, 0, 0)`: the class-sorted scheduler whose `(resorts,
    /// reuses, switches)` this reported is gone. Kept only because
    /// `benchmark/` still reads it; goes with ROADMAP item 4.
    pub fn contact_order_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// Lifetime count of solves that had to leave the configured
    /// preconditioner rung (degradation-ladder activations).
    pub fn fallback_solves(&self) -> usize {
        self.fallback_solves
    }

    /// Advances one time step, reporting scene-health faults as structured
    /// errors instead of panicking. On `Err` nothing of the step was
    /// committed — system, contact set and warm start are as they were (Δt
    /// keeps any reductions the step's retries took) — so the caller can
    /// retry with a smaller Δt or give the scene up.
    pub fn try_step(&mut self) -> Result<StepReport, StepError> {
        // A solo scene has no health policy: any finite displacement is
        // left to Δt control, and every accepted attempt commits.
        let mut step = step_scenes(
            &self.dev,
            &mut [Some(&mut self.scene)],
            f64::INFINITY,
            |_, _| Ok(()),
        );
        step.results.pop().flatten().expect("the one scene stepped")
    }

    /// Advances one time step, panicking on a scene-health fault (the
    /// historical contract; healthy scenes never hit it).
    pub fn step(&mut self) -> StepReport {
        self.try_step()
            .unwrap_or_else(|e| panic!("GPU pipeline step failed: {e}"))
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: usize) -> Vec<StepReport> {
        (0..n).map(|_| self.step()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::material::{BlockMaterial, JointMaterial};
    use crate::params::DdaParams;
    use crate::pipeline::CpuPipeline;
    use crate::system::BlockSystem;
    use dda_geom::Polygon;
    use dda_simt::DeviceProfile;

    fn stack() -> (BlockSystem, DdaParams) {
        let sys = BlockSystem::new(
            vec![
                Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed(),
                Block::new(Polygon::rect(-0.5, 0.0, 0.5, 1.0), 0),
            ],
            BlockMaterial::rock(),
            JointMaterial::frictional(35.0),
        );
        let params = DdaParams::for_model(1.0, 5e9).static_analysis();
        (sys, params)
    }

    fn k40() -> Device {
        Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
    }

    #[test]
    fn gpu_pipeline_matches_cpu_trajectory() {
        let (sys, params) = stack();
        let mut cpu = CpuPipeline::new(sys.clone(), params.clone());
        let mut gpu = GpuPipeline::new(sys, params, k40());
        for step in 0..3 {
            let rc = cpu.step();
            let rg = gpu.step();
            assert_eq!(rc.n_contacts, rg.n_contacts, "step {step}");
            assert_eq!(rc.oc_iterations, rg.oc_iterations, "step {step}");
            for (bc, bg) in cpu.sys.blocks.iter().zip(&gpu.sys.blocks) {
                let dc = bc.centroid();
                let dg = bg.centroid();
                assert!(
                    dc.dist(dg) < 1e-7,
                    "step {step}: centroids diverged {dc:?} vs {dg:?}"
                );
            }
        }
    }

    #[test]
    fn block_stays_on_floor() {
        let (sys, params) = stack();
        let y0 = sys.blocks[1].centroid().y;
        let mut gpu = GpuPipeline::new(sys, params, k40());
        for _ in 0..5 {
            gpu.step();
        }
        assert!((gpu.sys.blocks[1].centroid().y - y0).abs() < 5e-4);
        assert!(gpu.sys.total_interpenetration() < 1e-4);
    }

    #[test]
    fn module_times_accumulate_on_device() {
        let (sys, params) = stack();
        let mut gpu = GpuPipeline::new(sys, params, k40());
        gpu.step();
        let t = gpu.times;
        assert!(t.contact_detection > 0.0);
        assert!(t.diag_building > 0.0);
        assert!(t.nondiag_building > 0.0);
        assert!(t.solving > 0.0);
        assert!(t.interpenetration > 0.0);
        assert!(t.updating > 0.0);
        // The device trace total equals the sum of module charges.
        assert!((gpu.device().modeled_seconds() - t.total()).abs() < 1e-9 * t.total().max(1e-12));
    }

    #[test]
    fn solver_cache_refills_when_pattern_stable() {
        let (sys, params) = stack();
        let mut gpu = GpuPipeline::new(sys, params, k40());
        for _ in 0..3 {
            gpu.step();
        }
        let (refills, rebuilds) = gpu.format_cache_stats();
        assert!(rebuilds >= 1, "first solve must build the format");
        assert!(
            refills > 0,
            "stable contact pattern must reuse the format \
             (refills={refills}, rebuilds={rebuilds})"
        );
    }

    #[test]
    fn all_preconditioners_run_the_pipeline() {
        for pk in [
            PrecondKind::None,
            PrecondKind::BlockJacobi,
            PrecondKind::SsorAi,
            PrecondKind::Ilu0,
            PrecondKind::Jacobi,
            PrecondKind::HubSchur,
        ] {
            let (sys, params) = stack();
            let mut gpu = GpuPipeline::new(sys, params, k40()).with_precond(pk);
            let r = gpu.step();
            assert!(r.oc_converged, "{pk:?} failed to converge: {r:?}");
            assert_eq!(r.fallback_rung, pk, "healthy step stays on {pk:?}");
        }
    }

    #[test]
    fn dt_holds_at_floor_on_gpu_too() {
        // Same regression as the CPU pipeline: dirty steps at the Δt floor
        // must not recover Δt. Every solve restarts from the previous step's
        // solution and stops after two PCG iterations, so the loop never
        // settles; warm-started re-solves would pile the iterations up and
        // converge it, and so would the hub rung, which solves this
        // block-on-a-fixed-floor scene exactly in one iteration.
        let (sys, mut params) = stack();
        params.pcg.tol = 1e-30;
        params.pcg.max_iters = 2;
        params.warm_start = crate::params::SolverWarmStart::PrevStep;
        params.precond = PrecondKind::BlockJacobi;
        let mut gpu = GpuPipeline::new(sys, params, k40());
        for _ in 0..6 {
            let r = gpu.step();
            assert!(!r.oc_converged);
        }
        assert_eq!(gpu.params.dt, gpu.params.dt_min);
        for _ in 0..3 {
            let r = gpu.step();
            assert_eq!(
                gpu.params.dt, gpu.params.dt_min,
                "Δt thrashed off the floor"
            );
            assert_eq!(r.retries, 0, "floor oscillation wastes retries");
        }
    }
}
