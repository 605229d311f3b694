//! Broad-phase cache slack accounting under mid-window retries.
//!
//! The displacement-bounded pair cache stays valid while accumulated
//! per-step motion fits inside the slack margin. The subtle case audited
//! here: a step that *retries* (open–close fails → Δt is cut → the
//! attempt re-runs) mid-cache-window. Retries re-solve from the same
//! committed geometry — no attempt moves a vertex until the commit phase
//! — and `note_motion` charges the slack ledger exactly once per
//! committed step, with the *accepted* attempt's maximum displacement
//! (the report field is overwritten per attempt, so the final value
//! belongs to the attempt that actually committed). If the accounting
//! ever charged a rejected attempt's larger displacement, or skipped the
//! charge on a retried step, the cache could go stale and silently drop
//! candidate pairs.
//!
//! The regression pins the contract end to end: a deterministically
//! injected open–close pin (`Fault::OcPin`) forces a real Δt-cut retry
//! several steps into a warm cache window, and the cached run must stay
//! **bitwise identical** — contacts and trajectory — to an `AllPairs`
//! oracle run with the same fault armed. A missed pair cannot hide: it
//! would change the contact stream, the assembled system, and the
//! committed geometry.

use dda_repro::core::contact::BroadPhaseMode;
use dda_repro::core::pipeline::SceneBatch;
use dda_repro::core::{BlockSystem, DdaParams};
use dda_repro::simt::{Device, DeviceProfile, Fault};
use dda_repro::workloads::{rockfall_case, RockfallConfig};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40()).with_conflict_checking(true)
}

fn scene(mode: BroadPhaseMode) -> (BlockSystem, DdaParams) {
    let mut cfg = RockfallConfig::default().with_rocks(8);
    cfg.initial_speed = 2.0;
    let (sys, params) = rockfall_case(&cfg);
    (sys, params.with_broad_phase(mode))
}

/// Bitwise snapshot of scene 0's trajectory state.
fn snapshot(batch: &SceneBatch) -> Vec<u64> {
    let mut bits = Vec::new();
    for b in &batch.sys(0).expect("scene runs").blocks {
        let c = b.centroid();
        bits.push(c.x.to_bits());
        bits.push(c.y.to_bits());
        for dof in 0..6 {
            bits.push(b.velocity[dof].to_bits());
        }
    }
    for c in batch.contacts(0).expect("scene runs") {
        bits.push(c.key());
        bits.push(c.state as u64);
        bits.push(c.normal_disp.to_bits());
    }
    bits
}

/// Runs one scene for `warm` clean steps, then arms an open–close pin
/// that defeats every iteration of the next step's first attempt (forcing
/// a Δt-cut retry), then runs `tail` more steps. Returns per-step
/// snapshots plus the faulted step's retry count.
fn faulted_run(mode: BroadPhaseMode, warm: usize, tail: usize) -> (Vec<Vec<u64>>, usize) {
    let mut batch = SceneBatch::new(k40(), vec![scene(mode)]);
    let mut snaps = Vec::new();
    for _ in 0..warm {
        batch.step();
        snaps.push(snapshot(&batch));
    }
    // Pin open–close for exactly one attempt's worth of iterations: the
    // first attempt burns its whole budget and is rejected, the retry
    // (smaller Δt, zero remaining firings) converges and commits.
    let oc_budget = batch.params(0).expect("scene runs").oc_max_iters;
    batch.device().arm_fault(0, Fault::OcPin, oc_budget);
    let r = batch.step();
    let retries = r[0].retries;
    snaps.push(snapshot(&batch));
    for _ in 0..tail {
        batch.step();
        snaps.push(snapshot(&batch));
    }
    (snaps, retries)
}

#[test]
fn retry_mid_cache_window_never_drops_a_pair() {
    const WARM: usize = 4; // cache built on step 1, window warm by here
    const TAIL: usize = 5; // stale-cache damage would surface downstream

    let (oracle, oracle_retries) = faulted_run(BroadPhaseMode::AllPairs, WARM, TAIL);
    let (cached, cached_retries) = faulted_run(BroadPhaseMode::GridCached, WARM, TAIL);

    assert!(
        oracle_retries >= 1,
        "the pinned open–close iteration must force a real retry"
    );
    assert_eq!(
        oracle_retries, cached_retries,
        "both runs must retry identically for the comparison to bite"
    );
    for (step, (a, b)) in oracle.iter().zip(&cached).enumerate() {
        assert_eq!(
            a, b,
            "step {step}: cached run diverged from the AllPairs oracle — \
             the slack ledger mishandled the retried step"
        );
    }
}

#[test]
fn retry_step_charges_slack_once_and_keeps_the_cache_warm() {
    // White-box companion: the cache must actually be exercised (hits
    // accumulate across the window) and the retried step must not force a
    // spurious rebuild — retries never move geometry, so the candidate
    // set stays valid.
    let mut batch = SceneBatch::new(k40(), vec![scene(BroadPhaseMode::GridCached)]);
    batch.run(4);
    let (hits_before, rebuilds_before) = batch.broad_cache_stats(0).expect("scene runs");
    assert!(hits_before > 0, "warm window must reuse the cache");

    let oc_budget = batch.params(0).expect("scene runs").oc_max_iters;
    batch.device().arm_fault(0, Fault::OcPin, oc_budget);
    let r = batch.step();
    assert!(r[0].retries >= 1, "pin must force a retry");

    let (_, rebuilds_after) = batch.broad_cache_stats(0).expect("scene runs");
    assert!(
        rebuilds_after <= rebuilds_before + 1,
        "a retried step charges motion once — it must not thrash rebuilds \
         (before={rebuilds_before}, after={rebuilds_after})"
    );
    // The scene stays healthy and keeps stepping on the cache.
    batch.run(3);
    let (hits_final, _) = batch.broad_cache_stats(0).expect("scene runs");
    assert!(
        hits_final > hits_before,
        "cache must keep serving after the retry"
    );
}
