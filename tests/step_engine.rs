//! Golden pin for the GPU step engine.
//!
//! The fingerprints below were captured on the commit *before* `GpuPipeline`
//! and `SceneBatch` were moved onto one step loop, when the two were separate
//! implementations held together by bitwise parity tests. What they agreed on
//! — each scene's state after 12 steps, solo and as slot *k* of a five-scene
//! batch — is the oracle now that one loop is left, and has never been
//! re-captured. The launches of both shapes are pinned phase by phase in the
//! `engine/*` rows of the ledger in `tests/simt_counters_golden.rs`.

mod engine_scenes;

use dda_repro::core::pipeline::{system_fingerprint, GpuPipeline, SceneBatch};
use dda_repro::simt::{Device, DeviceProfile};
use engine_scenes::{scenes, STEPS};

/// State fingerprint per scene, in `scenes()` order.
const GOLDEN: [u64; 5] = [
    0x6ccfb76de07ea35a,
    0xed262c73ad1cde44,
    0x7fefc3184db920f7,
    0x3dff7b8053f9040e,
    0xc5476e9c6eda9566,
];

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

#[test]
fn solo_pipeline_reproduces_the_pinned_trajectories() {
    let got: Vec<u64> = scenes()
        .into_iter()
        .map(|(sys, params)| {
            let mut pipe = GpuPipeline::new(sys, params, k40());
            pipe.run(STEPS);
            system_fingerprint(&pipe.sys)
        })
        .collect();
    assert_eq!(got, GOLDEN, "got {got:#018x?}");
}

#[test]
fn batch_slots_reproduce_the_pinned_trajectories() {
    let mut batch = SceneBatch::new(k40(), scenes());
    batch.run(STEPS);
    let got: Vec<u64> = (0..GOLDEN.len())
        .map(|k| system_fingerprint(batch.sys(k).expect("live scene")))
        .collect();
    assert_eq!(got, GOLDEN, "got {got:#018x?}");
}
