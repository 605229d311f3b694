//! Fuzz-style hardening proof for the checkpoint text codec.
//!
//! A checkpoint read back from disk — or out of the fleet WAL — may be
//! truncated by a torn write or damaged by bit rot. The codec's contract
//! is that *no* input makes it panic or allocate unboundedly: damage
//! surfaces as a structured [`CheckpointError`], never a crash. These
//! tests prove the contract mechanically: every byte-prefix truncation of
//! a real checkpoint must error, every single-bit flip must decode
//! without panicking, and a hostile element count (`u64::MAX`) must be
//! rejected without attempting the allocation it advertises.

use dda_repro::core::contact::{BroadPhaseMode, Contact, ContactKind, ContactOrder, ContactState};
use dda_repro::core::pipeline::{
    BatchScheduler, CheckpointError, FleetCheckpoint, FleetScene, IngestConfig, ModuleTimes,
    SceneBatch, SceneCheckpoint, SceneHealth, SceneState, SceneSubmission, SlotState, StepError,
    WalConfig, WalOutcome, WalRecordKind, WalReplay, WalWriter,
};
use dda_repro::core::system::PointLoad;
use dda_repro::core::{
    AssemblyReuse, Block, BlockMaterial, BlockSystem, DdaParams, JointMaterial, Priority,
    SolverWarmStart,
};
use dda_repro::geom::{Polygon, Vec2};
use dda_repro::simt::{Device, DeviceProfile};
use dda_repro::solver::{PcgOptions, PrecondError, PrecondKind, SolveError, SolverPrecision};

fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

/// A falling block over fixed ground: contacts form within a few steps,
/// so the encoded text exercises the full codec (contacts, warm start,
/// health) rather than just geometry.
fn scene() -> (BlockSystem, DdaParams) {
    let mut params = DdaParams::for_model(1.0, 5e9).with_precond(PrecondKind::BlockJacobi);
    params.dt = 0.002;
    params.dt_max = 0.002;
    let sys = BlockSystem::new(
        vec![
            Block::new(Polygon::rect(-5.0, -1.0, 5.0, 0.0), 0).fixed(),
            Block::new(Polygon::rect(-0.5, 0.005, 0.5, 1.005), 0),
        ],
        BlockMaterial::rock(),
        JointMaterial::frictional(35.0),
    );
    (sys, params)
}

/// A real scene checkpoint with contact history.
fn scene_checkpoint_text() -> String {
    let mut batch = SceneBatch::new(k40(), vec![scene()]);
    batch.run(3);
    let st = batch.scene_state(0).expect("live scene");
    assert!(!st.contacts.is_empty(), "codec must see contacts");
    SceneCheckpoint {
        state: st,
        taken_at_step: 3,
    }
    .encode()
}

/// A fleet checkpoint holding both a running and a queued scene.
fn fleet_checkpoint_text() -> String {
    let cfg = IngestConfig {
        max_slots: 1, // force the second submission to stay queued
        ..IngestConfig::default()
    };
    let mut s = BatchScheduler::new(k40(), cfg);
    let (sys_a, params_a) = scene();
    let (sys_b, params_b) = scene();
    s.try_submit(SceneSubmission::new(sys_a, params_a, 50))
        .unwrap();
    s.try_submit(SceneSubmission::new(sys_b, params_b, 50))
        .unwrap();
    for _ in 0..3 {
        s.tick();
    }
    let ck = s.checkpoint_fleet();
    assert_eq!(ck.scenes.len(), 2);
    assert!(ck.scenes.iter().any(|f| f.queued));
    assert!(ck.scenes.iter().any(|f| !f.queued));
    ck.encode()
}

#[test]
fn every_byte_truncation_of_a_scene_checkpoint_errors() {
    let text = scene_checkpoint_text();
    assert!(
        SceneCheckpoint::decode(&text).is_ok(),
        "intact text decodes"
    );
    // The encoding ends with single-character health counters and has no
    // trailing whitespace, so *every* strict prefix is damaged: either a
    // token is missing outright or the final token is cut mid-character.
    for cut in 0..text.len() {
        let prefix = &text[..cut];
        assert!(
            SceneCheckpoint::decode(prefix).is_err(),
            "prefix of {cut}/{} bytes decoded successfully",
            text.len()
        );
    }
}

#[test]
fn every_byte_truncation_of_a_fleet_checkpoint_errors() {
    let text = fleet_checkpoint_text();
    assert!(
        FleetCheckpoint::decode(&text).is_ok(),
        "intact text decodes"
    );
    for cut in 0..text.len() {
        let prefix = &text[..cut];
        assert!(
            FleetCheckpoint::decode(prefix).is_err(),
            "prefix of {cut}/{} bytes decoded successfully",
            text.len()
        );
    }
}

#[test]
fn bit_flips_never_panic() {
    let text = scene_checkpoint_text();
    let bytes = text.as_bytes();
    // Flip a low and a high bit at every position. A flip may still
    // decode (the text codec carries no checksum — the WAL layer adds
    // CRC framing for that); the contract here is only that the decoder
    // survives arbitrary damage with a Result, not a panic.
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x20u8] {
            let mut damaged = bytes.to_vec();
            damaged[i] ^= mask;
            if let Ok(s) = std::str::from_utf8(&damaged) {
                let _ = SceneCheckpoint::decode(s);
                let _ = FleetCheckpoint::decode(s);
            }
        }
    }
}

#[test]
fn hostile_element_counts_are_rejected_without_allocation() {
    // A checkpoint whose block count claims u64::MAX. A naive decoder
    // pre-reserving what the count advertises would abort the process on
    // allocation overflow before ever noticing the stream is empty.
    for text in [
        "ddack1 0 18446744073709551615",
        "ddafleet1 0 18446744073709551615",
        // Same, but with a count that fits in memory terms yet exceeds
        // any plausible input (16 billion blocks).
        "ddack1 0 16000000000",
    ] {
        if text.starts_with("ddack1") {
            assert!(SceneCheckpoint::decode(text).is_err());
        } else {
            assert!(FleetCheckpoint::decode(text).is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-format golden
// ---------------------------------------------------------------------------

/// A NaN whose payload a lossy codec would drop or canonicalise.
const NAN_PAYLOAD: u64 = 0x7ff8_dead_beef_0001;

/// Every `StepError` the codec knows, with every solver and
/// preconditioner payload.
const STEP_ERRORS: [StepError; 14] = [
    StepError::NonFiniteRhs { oc_iteration: 2 },
    StepError::NonFiniteSolution { oc_iteration: 1 },
    StepError::NonFiniteGaps { oc_iteration: 3 },
    StepError::Diverged {
        max_displacement: 1.5e9,
    },
    StepError::SolverBreakdown {
        error: SolveError::IndefiniteOperator {
            pq: -2.5,
            iteration: 7,
        },
    },
    StepError::SolverBreakdown {
        error: SolveError::NonFinite { iteration: 4 },
    },
    StepError::SolverBreakdown {
        error: SolveError::SingularPreconditioner { block: 9 },
    },
    StepError::PreconditionerFailed {
        error: PrecondError::ZeroPivot {
            row: 3,
            pivot: -0.0,
        },
    },
    StepError::PreconditionerFailed {
        error: PrecondError::MissingDiagonal { row: 5 },
    },
    StepError::PreconditionerFailed {
        error: PrecondError::SingularBlock { block: 2 },
    },
    StepError::PreconditionerFailed {
        error: PrecondError::ZeroDiagonal { row: 8 },
    },
    StepError::PreconditionerFailed {
        error: PrecondError::ZeroPivot {
            row: 6,
            pivot: f64::INFINITY,
        },
    },
    StepError::OcStalled { streak: 11 },
    StepError::Internal { what: "golden" },
];

/// Scene `k` of the golden, built field by field without stepping, so a
/// change to the physics can never move it. Across `k = 0..15` it visits
/// every variant of every enum inside a `SceneState`, `None` and `Some`
/// for both optional health fields, a NaN payload and `-0.0`.
fn golden_state(k: usize) -> SceneState {
    const PRECONDS: [PrecondKind; 6] = [
        PrecondKind::None,
        PrecondKind::BlockJacobi,
        PrecondKind::SsorAi,
        PrecondKind::Ilu0,
        PrecondKind::Jacobi,
        PrecondKind::BlockJacobi,
    ];
    const BROAD: [BroadPhaseMode; 3] = [
        BroadPhaseMode::AllPairs,
        BroadPhaseMode::AllPairs,
        BroadPhaseMode::GridCached,
    ];
    const SLOTS: [SlotState; 4] = [
        SlotState::Running,
        SlotState::Degraded,
        SlotState::Quarantined,
        SlotState::Retired,
    ];
    const KINDS: [ContactKind; 3] = [ContactKind::Ve, ContactKind::Vv1, ContactKind::Vv2];
    const STATES: [ContactState; 3] = [ContactState::Open, ContactState::Slide, ContactState::Lock];
    let kf = k as f64;
    let nan = f64::from_bits(NAN_PAYLOAD);
    let ground = Block::new(Polygon::rect(-5.0, -1.0, 5.0, -0.0), 0).fixed();
    let mut rock = Block::new(
        Polygon::new(vec![
            Vec2::new(-0.5, 0.0),
            Vec2::new(0.5, 0.0),
            Vec2::new(0.25 + 0.01 * kf, 0.75),
            Vec2::new(-0.25, 1.0),
        ]),
        1,
    );
    rock.velocity = [0.1 * kf, -0.0, nan, -2.5e-3, 1e-300, -kf];
    rock.stress = [1e6 + kf, -0.0, 3.25];
    let sys = BlockSystem {
        blocks: vec![ground, rock],
        block_materials: vec![
            BlockMaterial {
                density: 2600.0,
                young: 5e9,
                poisson: 0.25,
                body_force: [0.0, -9.81],
            },
            BlockMaterial {
                density: 2000.0 + kf,
                young: 1e8,
                poisson: 0.3,
                body_force: [-0.0, -9.81],
            },
        ],
        joint_materials: vec![JointMaterial {
            friction_angle_deg: 35.0,
            cohesion: 0.0,
            tensile_strength: 1e3 * kf,
        }],
        point_loads: vec![PointLoad {
            block: 1,
            point: Vec2::new(0.0, 0.5),
            force: Vec2::new(-0.0, -1e4 * kf),
        }],
    };
    let params = DdaParams {
        dt: 1e-3 / (kf + 1.0),
        dt_max: 1e-3,
        dt_min: 1e-7,
        max_displacement: 0.01,
        penalty: 5e10,
        shear_ratio: 1.0,
        oc_max_iters: 6 + k,
        contact_range: 0.025,
        touch_tol: 0.2,
        pcg: PcgOptions {
            tol: 1e-8,
            max_iters: 300 + k,
        },
        precond: PRECONDS[k % 6],
        precision: [SolverPrecision::Full, SolverPrecision::Mixed][k % 2],
        dynamics: (k % 2) as f64,
        fixity_factor: 10.0,
        broad_phase: BROAD[k % 3],
        broad_slack: 0.08,
        contact_order: [ContactOrder::Discovery, ContactOrder::ClassSorted][(k + 1) % 2],
        assembly_reuse: [AssemblyReuse::Recompute, AssemblyReuse::Incremental][k % 2],
        warm_start: [SolverWarmStart::PrevStep, SolverWarmStart::PrevIterate][(k + 1) % 2],
    };
    let contacts = (0..3u32)
        .map(|c| {
            let ci = c as usize;
            Contact {
                i: 1,
                j: 0,
                vertex: c,
                edge: (c + 1) % 4,
                vertex2: if ci == 0 { u32::MAX } else { c },
                kind: KINDS[ci],
                state: STATES[ci],
                prev_step_state: STATES[(ci + 1) % 3],
                prev_iter_state: STATES[(ci + 2) % 3],
                normal_disp: if ci == 0 { -0.0 } else { -1e-5 * kf },
                shear_disp: if ci == 1 { nan } else { 2e-6 },
                edge_ratio: 0.25 * c as f64,
                slide_dir: c as f64 - 1.0,
                flips: c + k as u32,
            }
        })
        .collect();
    let mut x_prev: Vec<f64> = (0..12)
        .map(|i| (i as f64 - 5.5) * 1e-3 * (kf + 1.0))
        .collect();
    x_prev[0] = -0.0;
    x_prev[1] = nan;
    SceneState {
        sys,
        params,
        contacts,
        x_prev,
        times: ModuleTimes {
            contact_detection: 1e-3 * kf,
            diag_building: 2e-4,
            nondiag_building: -0.0,
            solving: 5e-3 + kf,
            interpenetration: 7e-5,
            updating: 1e-6,
        },
        health: SceneHealth {
            state: SLOTS[k % 4],
            consecutive_failures: k % 3,
            steps_committed: 100 + k as u64,
            oc_stall_streak: k % 5,
            fallback_solves: k,
            total_faults: 2 * k,
            last_error: k.checked_sub(1).map(|e| STEP_ERRORS[e]),
            quarantined_at_step: (k % 2 == 1).then_some(40 + k as u64),
        },
    }
}

/// A fleet scene around `state`, obtained through the public scheduler
/// API (submit, then lift back out of the queue) so its scheduling
/// envelope is whatever the scheduler itself records.
fn golden_fleet_scene(
    state: SceneState,
    priority: Priority,
    deadline: Option<u64>,
    queued: bool,
) -> FleetScene {
    let mut sched = BatchScheduler::new(k40(), IngestConfig::default());
    let mut sub =
        SceneSubmission::new(state.sys.clone(), state.params.clone(), 9).with_priority(priority);
    if let Some(d) = deadline {
        sub = sub.with_deadline(d);
    }
    let ticket = sched.try_submit(sub).expect("empty queue has room");
    let mut fs = sched.extract_scene(ticket).expect("scene is queued");
    fs.state = state;
    fs.queued = queued;
    fs
}

/// FNV-1a over the text's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The checkpoint text of every payload this repository writes, pinned as
/// the parent of the table-driven codec wrote it, so WAL directories and
/// checkpoints from before the refactor keep replaying. Never re-captured
/// to follow a change of format.
///
/// Re-captured once, for states 5, 11 and 12, the combined scene digest
/// and the scene record (built from state 5): those states held the
/// two-level block-AMG rung (`PrecondKind` tag 5) and its singular-coarse
/// error (`PrecondError` tag 4), variants that no longer exist, so their
/// slots now hold live variants instead. The other twelve states and the
/// fleet checkpoint were byte-identical to the parent's.
///
/// Re-captured a second time, for states 1, 4, 7, 10 and 13, the combined
/// scene digest and the fleet checkpoint (which embeds state 13): those
/// states selected the uncached grid broad phase (`BroadPhaseMode` tag 1),
/// which no longer exists, so `BROAD[1]` now holds `AllPairs`. The scene
/// record and the other ten states are byte-identical to the parent's.
#[test]
fn wire_format_matches_the_parent_commit() {
    // Scene checkpoints: fifteen hand-built states.
    let scene_texts: Vec<String> = (0..15)
        .map(|k| {
            SceneCheckpoint {
                state: golden_state(k),
                taken_at_step: 1000 + k as u64,
            }
            .encode()
        })
        .collect();
    for text in &scene_texts {
        let back = SceneCheckpoint::decode(text).expect("golden scene decodes");
        assert_eq!(&back.encode(), text, "scene checkpoint re-encodes exactly");
    }
    // Per state, so a change that must move one state's bytes can be
    // shown to move only that state's.
    let per_state: Vec<(u64, usize)> = scene_texts.iter().map(|t| (fnv1a(t), t.len())).collect();
    assert_eq!(
        per_state,
        [
            (0x89a3_58a1_25b8_f2b9, 1_724),
            (0xc8ce_752a_e691_ea1c, 1_731),
            (0x4db6_75d5_73a6_3542, 1_728),
            (0x72e2_2fcc_e6cd_089c, 1_731),
            (0xc7cc_2ab6_2b5b_f09f, 1_744),
            (0x4439_da27_fc93_d1ff, 1_752),
            (0xdb3c_a245_6089_fbe2, 1_732),
            (0x53b6_1d5f_5692_5231, 1_735),
            (0x9409_615a_0177_3794, 1_750),
            (0xf2d5_d6d0_a8e1_5835, 1_737),
            (0x65fd_0c7e_c16b_0c1b, 1_736),
            (0x262d_f273_a7e5_1b9e, 1_739),
            (0x6ecb_4651_87d0_fad7, 1_753),
            (0x8eb0_cf22_ca4a_143b, 1_738),
            (0x6793_b48c_fec0_0470, 1_732),
        ],
        "(FNV-1a, bytes) of scene checkpoint k, k = 0..15"
    );
    let scenes = scene_texts.join("\n");

    // A fleet checkpoint holding queued and running scenes, every
    // priority, with and without a deadline.
    let fleet = FleetCheckpoint {
        taken_at_step: 31,
        scenes: vec![
            golden_fleet_scene(golden_state(3), Priority::High, Some(77), true),
            golden_fleet_scene(golden_state(8), Priority::Normal, None, false),
            golden_fleet_scene(golden_state(13), Priority::Low, None, true),
        ],
    }
    .encode();
    let back = FleetCheckpoint::decode(&fleet).expect("golden fleet decodes");
    assert_eq!(back.encode(), fleet, "fleet checkpoint re-encodes exactly");

    // The three WAL payload kinds. A scene record (Submit, Snap,
    // MigrateCommit) is a one-scene fleet checkpoint ...
    let record = FleetCheckpoint {
        taken_at_step: 12,
        scenes: vec![golden_fleet_scene(
            golden_state(5),
            Priority::Normal,
            Some(40),
            true,
        )],
    }
    .encode();
    // ... a terminal record is the outcome tag and a hex fingerprint ...
    let outcomes = [
        WalOutcome::Completed.encode(0x0123_4567_89ab_cdef),
        WalOutcome::Refused.encode(0xdead_beef),
        WalOutcome::Shed.encode(0),
    ];
    assert_eq!(
        outcomes,
        [
            "0 0123456789abcdef",
            "1 00000000deadbeef",
            "2 0000000000000000"
        ]
    );

    let digests = [
        ("scene checkpoints", fnv1a(&scenes), scenes.len()),
        ("fleet checkpoint", fnv1a(&fleet), fleet.len()),
        ("scene record", fnv1a(&record), record.len()),
    ];
    assert_eq!(
        digests,
        [
            ("scene checkpoints", 0x2a65_d872_c665_9f72, 26_076),
            ("fleet checkpoint", 0xb139_3662_d4ef_2e67, 5_233),
            ("scene record", 0x61b7_cbe9_8ac8_651f, 1_768),
        ],
        "(name, FNV-1a, bytes) of the wire text"
    );

    // ... and a migrate intent carries the source device as decimal text.
    // Replay of a log holding all three, written byte for byte as the
    // parent wrote them, must reconstruct the same fleet state.
    let dir = std::env::temp_dir().join(format!("dda-wire-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = WalWriter::create(WalConfig::new(&dir)).expect("fresh log");
    w.append(WalRecordKind::Submit, 7, 0, 0, record.as_bytes())
        .unwrap();
    w.append(WalRecordKind::MigrateIntent, 7, 2, 1, b"1")
        .unwrap();
    w.append(WalRecordKind::Terminal, 8, 1, 3, outcomes[1].as_bytes())
        .unwrap();
    w.sync().unwrap();
    let replay = WalReplay::load(&dir).expect("golden log replays");
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(replay.records, 3);
    assert_eq!(replay.rolled_forward, 1, "the intent rolls scene 7 forward");
    let live = &replay.live[&7];
    assert_eq!((live.device, live.epoch, live.taken_at), (2, 1, 12));
    let replayed = FleetCheckpoint {
        taken_at_step: live.taken_at,
        scenes: vec![live.scene.clone()],
    }
    .encode();
    assert_eq!(replayed, record, "the replayed scene re-encodes exactly");
    let end = &replay.terminal[&8];
    assert_eq!(
        (end.outcome, end.fingerprint, end.epoch),
        (WalOutcome::Refused, 0xdead_beef, 3)
    );
}

// ---------------------------------------------------------------------------
// Checkpoints that decode but could never step
// ---------------------------------------------------------------------------

/// Asserts that `st` is refused as `Malformed` both as a scene checkpoint
/// and inside a fleet checkpoint, instead of decoding into a scene whose
/// first step would panic.
fn assert_unsteppable_rejected(st: SceneState) {
    let fleet = FleetCheckpoint {
        taken_at_step: 1,
        scenes: vec![golden_fleet_scene(st.clone(), Priority::Normal, None, true)],
    }
    .encode();
    let scene = SceneCheckpoint {
        state: st,
        taken_at_step: 1,
    }
    .encode();
    assert!(
        matches!(
            SceneCheckpoint::decode(&scene),
            Err(CheckpointError::Malformed { .. })
        ),
        "scene checkpoint decoded: {:?}",
        SceneCheckpoint::decode(&scene).err()
    );
    assert!(matches!(
        FleetCheckpoint::decode(&fleet),
        Err(CheckpointError::Malformed { .. })
    ));
}

#[test]
fn block_material_past_the_material_table_is_malformed() {
    let mut st = golden_state(0);
    st.sys.blocks[1].material = st.sys.block_materials.len() as u32;
    assert_unsteppable_rejected(st);
}

#[test]
fn warm_start_not_six_per_block_is_malformed() {
    let mut st = golden_state(0);
    st.x_prev.pop();
    assert_unsteppable_rejected(st);
}

#[test]
fn point_load_on_a_missing_block_is_malformed() {
    let mut st = golden_state(0);
    st.sys.point_loads[0].block = st.sys.blocks.len() as u32;
    assert_unsteppable_rejected(st);
}

#[test]
fn empty_joint_material_table_is_malformed() {
    let mut st = golden_state(0);
    st.sys.joint_materials.clear();
    assert_unsteppable_rejected(st);
}

#[test]
fn u32_ids_past_u32_max_are_malformed() {
    // Each tweak moves exactly one u32 token of the encoding; writing that
    // token back as its base value plus 2^32 must be refused, not wrapped
    // silently to the base value.
    let base = golden_state(1);
    let encode = |st: &SceneState| {
        SceneCheckpoint {
            state: st.clone(),
            taken_at_step: 0,
        }
        .encode()
    };
    let text = encode(&base);
    type Tweak = fn(&mut SceneState);
    let tweaks: [(&str, Tweak); 8] = [
        ("block material", |s| s.sys.blocks[1].material = 0),
        ("point-load block", |s| s.sys.point_loads[0].block = 0),
        ("contact block i", |s| s.contacts[1].i = 0),
        ("contact block j", |s| s.contacts[1].j = 1),
        ("contact vertex", |s| s.contacts[1].vertex = 0),
        ("contact edge", |s| s.contacts[1].edge = 0),
        ("contact vertex2", |s| s.contacts[1].vertex2 = 0),
        ("contact flips", |s| s.contacts[1].flips = 0),
    ];
    for (field, tweak) in tweaks {
        let mut moved = base.clone();
        tweak(&mut moved);
        let moved = encode(&moved);
        let mut toks: Vec<&str> = text.split(' ').collect();
        let at: Vec<usize> = toks
            .iter()
            .zip(moved.split(' '))
            .enumerate()
            .filter(|(_, (a, b))| *a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(at.len(), 1, "{field}: the tweak moves one token");
        let wrapped = (toks[at[0]].parse::<u64>().unwrap() + (1u64 << 32)).to_string();
        toks[at[0]] = &wrapped;
        assert!(
            matches!(
                SceneCheckpoint::decode(&toks.join(" ")),
                Err(CheckpointError::Malformed { .. })
            ),
            "{field} past u32::MAX decoded"
        );
    }
}
