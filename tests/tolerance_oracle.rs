//! The solver tier: a tolerance oracle for solver changes that cannot be
//! bitwise.
//!
//! Every other oracle in this repository compares bits. A change to how a
//! PCG solve starts, or to how precisely it runs, moves the last bits of
//! every solution by design, so it is held here instead, by tolerance. The
//! oracle is `SolverWarmStart::PrevStep`: every solve starts from the
//! previous step's accepted solution. The candidate is the default,
//! `SolverWarmStart::PrevIterate`: an open–close re-solve starts from the
//! previous iterate of the same step.
//!
//! The two step in lockstep on the smoke-size scenes of the benchmark's
//! three solo workloads, for [`STEPS`] steps. Before every step the
//! candidate is restored from the oracle's committed [`SceneState`], so each
//! step is judged on its own and differences never compound. The step is
//! run through a [`GpuPipeline`] and through one [`SceneBatch`] slot.
//! [`compare`] accepts the candidate's step only if
//!
//! - `oc_iterations`, `retries`, `oc_converged`, `n_contacts` and
//!   `categories` equal the oracle's;
//! - every committed contact has the oracle's key and is open or closed
//!   exactly where the oracle's is;
//! - at most [`SHEAR_SLACK`] of the contacts commit the other one of lock
//!   and slide (see below);
//! - the accepted solution obeys `‖x − x_oracle‖ ≤ C·tol·‖x_oracle‖`, with
//!   `tol` the oracle's PCG tolerance ([`C`]).
//!
//! The candidate must also spend fewer PCG iterations than the oracle on
//! each scene: that is what it is for. A candidate whose PCG tolerance is
//! a hundred times looser must be rejected, or the bound holds nothing.
//!
//! Lock ↔ slide is not held to equality because the oracle does not decide
//! it to within its own tolerance. On the slope every contact sits at a
//! normal penetration of 1e-19 to 1e-11 m, and the loop ends at its freeze
//! (four open–close iterations every step), so which closed contacts lock
//! and which slide follows the last bits of the iterate. Re-running the
//! oracle's own steps at a hundredfold *tighter* tolerance moves 0–26 of
//! 746 lock/slide states per step, on the 23 of 24 steps whose open/closed
//! vectors agree; the candidate moves 0–24. Rockfall and scatter commit
//! identical lock/slide states. The candidate's open/closed vector, step
//! outcome and categories equal the oracle's on every step of every scene.
//! [`the_oracle_does_not_resolve_lock_and_slide_on_the_slope`] keeps that
//! measurement: when it fails, the slope decides lock and slide, and the
//! slack can go.

use dda_repro::core::pipeline::{GpuPipeline, SceneBatch, SceneState, StepReport};
use dda_repro::core::{BlockSystem, DdaParams, SolverWarmStart};
use dda_repro::simt::{Device, DeviceProfile};
use dda_repro::workloads::{
    rockfall_case, scatter_case, slope_case, RockfallConfig, ScatterConfig, SlopeConfig,
};

/// Steps per scene. Rockfall's first twelve steps leave the candidate one
/// PCG iteration *above* the oracle (its three-iteration loops gain one or
/// lose one); over 24 it saves 5 %.
const STEPS: usize = 24;

/// The solution bound, in units of `tol·‖x_oracle‖`. The candidate's
/// largest measured ratio is 55 (slope); rockfall's is 0.42 and scatter's
/// 1.2e-3. The hundredfold looser candidate reaches 4.4e4 on the slope and
/// 605 on scatter. On rockfall it stays at 47: there `‖x‖` is mostly free
/// flight, which both solves get right, so the bound cannot see the
/// loosening — the contact-bearing scenes are where it bites.
const C: f64 = 200.0;

/// Largest share of contacts that may commit the other one of lock and
/// slide. Measured: at most 24 of 746 (3.2 %) for the candidate, 26 of 746
/// (3.5 %) for the oracle re-run at a hundredfold tighter tolerance.
const SHEAR_SLACK: f64 = 0.05;

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

/// The benchmark's smoke-size slope: the one small geometry whose
/// open–close loop converges (target 60 blocks, generator seed 3).
fn slope() -> (BlockSystem, DdaParams) {
    slope_case(&SlopeConfig {
        target_blocks: 60,
        seed: 3,
        ..SlopeConfig::default()
    })
}

fn rockfall() -> (BlockSystem, DdaParams) {
    rockfall_case(&RockfallConfig::default().with_rocks(40))
}

fn scatter() -> (BlockSystem, DdaParams) {
    scatter_case(&ScatterConfig::default().with_rocks(300))
}

/// The warm start under test: the one users run.
fn candidate(p: &mut DdaParams) {
    p.warm_start = SolverWarmStart::default();
    assert_eq!(p.warm_start, SolverWarmStart::PrevIterate);
}

/// What one step leaves behind: its report and the committed state.
struct Sample {
    report: StepReport,
    state: SceneState,
}

/// The two shells over the step engine.
#[derive(Debug, Clone, Copy)]
enum Shell {
    Solo,
    BatchSlot,
}

impl Shell {
    /// Steps a scene restored from `st` once, on a fresh device.
    fn step(self, st: SceneState) -> Sample {
        match self {
            Shell::Solo => {
                let mut pipe = GpuPipeline::from_state(st, k40());
                let report = pipe.step();
                Sample {
                    report,
                    state: pipe.scene_state(),
                }
            }
            Shell::BatchSlot => {
                let mut batch = SceneBatch::empty(k40());
                let k = batch.admit_state(st);
                let report = batch.step().swap_remove(k);
                Sample {
                    report,
                    state: batch.scene_state(k).expect("the slot stepped"),
                }
            }
        }
    }
}

fn norm(v: impl Iterator<Item = f64>) -> f64 {
    v.map(|x| x * x).sum::<f64>().sqrt()
}

/// Every committed contact's key and whether it is closed.
fn open_close(st: &SceneState) -> Vec<(u64, bool)> {
    st.contacts
        .iter()
        .map(|c| (c.key(), c.state.closed()))
        .collect()
}

/// Contacts (by position) committed in different states. Where the
/// open/closed vectors agree, these are lock/slide differences.
fn state_mismatches(a: &SceneState, b: &SceneState) -> usize {
    a.contacts
        .iter()
        .zip(&b.contacts)
        .filter(|(x, y)| x.state != y.state)
        .count()
}

/// The tier's verdict on one step. `Ok` carries
/// `‖x − x_oracle‖ / (tol·‖x_oracle‖)` for a tolerance-equivalent
/// candidate; `Err` names the first difference that rejects it.
fn compare(oracle: &Sample, cand: &Sample) -> Result<f64, String> {
    let outcome = |r: &StepReport| {
        (
            r.oc_iterations,
            r.retries,
            r.oc_converged,
            r.n_contacts,
            r.categories,
        )
    };
    let (o, c) = (outcome(&oracle.report), outcome(&cand.report));
    if o != c {
        return Err(format!("step outcome: oracle {o:?}, candidate {c:?}"));
    }
    if open_close(&oracle.state) != open_close(&cand.state) {
        return Err("committed open/closed states differ".into());
    }
    let shear = state_mismatches(&oracle.state, &cand.state);
    if shear as f64 > SHEAR_SLACK * oracle.state.contacts.len() as f64 {
        return Err(format!(
            "{shear} contacts commit the other of lock and slide"
        ));
    }
    let (x, xo) = (&cand.state.x_prev, &oracle.state.x_prev);
    let diff = norm(x.iter().zip(xo).map(|(a, b)| a - b));
    if diff == 0.0 {
        return Ok(0.0);
    }
    let ratio = diff / (oracle.state.params.pcg.tol * norm(xo.iter().copied()));
    if ratio <= C {
        Ok(ratio)
    } else {
        Err(format!("‖x − x_oracle‖ = {ratio:.3e}·tol·‖x_oracle‖"))
    }
}

/// What one candidate run of one scene came to, on one shell.
#[derive(Default)]
struct Verdict {
    /// The first rejected step and why, if any.
    rejected: Option<String>,
    /// Largest accepted solution ratio (see [`compare`]).
    max_ratio: f64,
    /// Most lock/slide differences on one step, over the steps whose
    /// open/closed vectors agree.
    max_shear: usize,
    /// Steps whose open/closed vectors agree.
    shear_steps: usize,
    oracle_pcg: usize,
    cand_pcg: usize,
    warm_starts: usize,
}

/// Runs the oracle [`STEPS`] steps and judges the candidate `apply` makes
/// of a copy of the oracle's committed state before every step, on each of
/// `shells`. A rejected candidate is still stepped to the end, so every
/// tally covers all the steps.
fn judge(
    (sys, params): (BlockSystem, DdaParams),
    apply: impl Fn(&mut DdaParams),
    shells: &[Shell],
) -> Vec<(Shell, Verdict)> {
    let params = params.with_warm_start(SolverWarmStart::PrevStep);
    let mut oracle = GpuPipeline::new(sys, params, k40());
    let mut verdicts: Vec<_> = shells.iter().map(|&s| (s, Verdict::default())).collect();
    for step in 0..STEPS {
        let mut st = oracle.scene_state();
        apply(&mut st.params);
        let report = oracle.step();
        let reference = Sample {
            report,
            state: oracle.scene_state(),
        };
        for (shell, v) in &mut verdicts {
            let cand = shell.step(st.clone());
            v.oracle_pcg += reference.report.pcg_iterations;
            v.cand_pcg += cand.report.pcg_iterations;
            v.warm_starts += cand.report.warm_starts;
            if open_close(&reference.state) == open_close(&cand.state) {
                v.shear_steps += 1;
                v.max_shear = v
                    .max_shear
                    .max(state_mismatches(&reference.state, &cand.state));
            }
            match compare(&reference, &cand) {
                Ok(ratio) => v.max_ratio = v.max_ratio.max(ratio),
                Err(why) => {
                    v.rejected.get_or_insert(format!("step {step}: {why}"));
                }
            }
        }
    }
    verdicts
}

/// The tier accepts the candidate on `scene`, and the candidate saves PCG
/// iterations there.
fn accepts_the_candidate(name: &str, scene: (BlockSystem, DdaParams)) {
    for (shell, v) in judge(scene, candidate, &[Shell::Solo, Shell::BatchSlot]) {
        assert_eq!(v.rejected, None, "{name} {shell:?}");
        assert!(
            v.warm_starts > 0,
            "{name} {shell:?}: no re-solve warm-started"
        );
        assert!(
            v.cand_pcg < v.oracle_pcg,
            "{name} {shell:?}: PCG iterations {} -> {}",
            v.oracle_pcg,
            v.cand_pcg
        );
    }
}

#[test]
fn slope_accepts_the_candidate() {
    accepts_the_candidate("slope", slope());
}

#[test]
fn rockfall_accepts_the_candidate() {
    accepts_the_candidate("rockfall", rockfall());
}

#[test]
fn scatter_accepts_the_candidate() {
    accepts_the_candidate("scatter", scatter());
}

#[test]
fn a_hundredfold_looser_tolerance_is_rejected() {
    for (name, scene) in [("slope", slope()), ("scatter", scatter())] {
        let looser = |p: &mut DdaParams| {
            candidate(p);
            p.pcg.tol *= 100.0;
        };
        for (shell, v) in judge(scene, looser, &[Shell::Solo]) {
            assert!(
                v.rejected.is_some(),
                "{name} {shell:?}: a tol × 100 candidate passed (largest ratio {:.3e})",
                v.max_ratio
            );
        }
    }
}

/// The oracle re-solved at a hundredfold tighter tolerance, on all
/// [`STEPS`] slope steps. Measured: the open/closed vectors agree on 23 of
/// 24 steps (one contact differs at step 0), and on those steps 0–26 of 746
/// contacts commit the other one of lock and slide.
#[test]
fn the_oracle_does_not_resolve_lock_and_slide_on_the_slope() {
    let v = &judge(slope(), |p| p.pcg.tol /= 100.0, &[Shell::Solo])[0].1;
    assert!(
        v.shear_steps + 1 >= STEPS,
        "open/closed differs on {} of {STEPS} steps: lock/slide is not measured",
        STEPS - v.shear_steps
    );
    assert!(
        v.max_shear > 0,
        "the oracle's lock/slide states now hold at a tighter tolerance: \
         hold the candidate to them exactly and drop SHEAR_SLACK"
    );
}
