//! The checkpoint wire format, written once.
//!
//! A scene crosses a process boundary only as text: a [`SceneCheckpoint`],
//! a [`FleetCheckpoint`], or one of the three payloads the fleet WAL
//! journals — a one-scene fleet checkpoint (Submit, Snap and MigrateCommit
//! records), a terminal outcome, and a migrate intent's source device.
//! All of them are encoded and decoded in this module and nowhere else.
//!
//! The format is whitespace-separated tokens: unsigned integers in
//! decimal, every `f64` as the 16-hex-digit pattern of its bits (so NaN
//! payloads and signed zeros survive and a restored scene continues bit
//! for bit), `bool` and the presence of an `Option` as `0`/`1`, a sequence
//! as its length and then its elements. Each type's fields are listed
//! exactly once, in wire order, in the tables below, and both directions
//! are generated from that list with exhaustive destructuring and struct
//! literals: a field added to `DdaParams`, `Contact` or `SceneHealth` does
//! not compile until it has a place on the wire.
//!
//! Enum tags are written out in one table per enum instead of being taken
//! from the discriminant with `as u64`, so reordering or inserting a
//! variant can never silently renumber the format existing WAL
//! directories were written in.
//!
//! Decoding never panics and never allocates ahead of its input: damage
//! surfaces as a [`CheckpointError`]. So does a text that parses but
//! describes a scene the step would index out of bounds — a block material
//! or point-load block past its table, a warm start that is not six
//! entries per block, an empty joint-material table.

use std::fmt::{Display, Write as _};

use dda_geom::{Polygon, Vec2};
use dda_solver::{PcgOptions, PrecondError, PrecondKind, SolveError, SolverPrecision};

use crate::block::Block;
use crate::contact::{BroadPhaseMode, Contact, ContactKind, ContactOrder, ContactState};
use crate::material::{BlockMaterial, JointMaterial};
use crate::params::{AssemblyReuse, DdaParams, SolverWarmStart};
use crate::system::{BlockSystem, PointLoad};

use super::batch::SceneState;
use super::health::{SceneHealth, SlotState, StepError};
use super::ingest::{Envelope, FleetScene, Priority};
use super::wal::WalOutcome;
use super::ModuleTimes;

/// Format magic opening a serialized [`SceneCheckpoint`].
pub(super) const SCENE_MAGIC: &str = "ddack1";
/// Format magic opening a serialized [`FleetCheckpoint`].
const FLEET_MAGIC: &str = "ddafleet1";

/// Diagnostic placeholder restored in place of a [`StepError::Internal`]
/// message, whose `&'static str` cannot survive serialization.
pub(super) const RESTORED_INTERNAL: &str =
    "internal fault (diagnostic lost across checkpoint restore)";

/// Failure decoding a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The token stream ended before the structure was complete.
    Truncated,
    /// The stream does not open with the expected format magic.
    BadMagic {
        /// The magic word this decoder expected.
        expected: &'static str,
    },
    /// A token failed to parse, carried an out-of-range value, or the
    /// decoded scene could not be stepped.
    Malformed {
        /// What the decoder was trying to read.
        what: &'static str,
    },
}

impl Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic { expected } => {
                write!(f, "not a checkpoint: expected magic {expected:?}")
            }
            CheckpointError::Malformed { what } => {
                write!(f, "malformed checkpoint: bad {what}")
            }
        }
    }
}

fn malformed(what: &'static str) -> CheckpointError {
    CheckpointError::Malformed { what }
}

/// Whitespace-separated token writer.
#[derive(Default)]
struct Enc {
    out: String,
}

impl Enc {
    fn word(&mut self, w: impl Display) {
        if !self.out.is_empty() {
            self.out.push(' ');
        }
        write!(self.out, "{w}").expect("writing to a String cannot fail");
    }

    fn hex(&mut self, bits: u64) {
        self.word(format_args!("{bits:016x}"));
    }
}

/// Bounded pre-reservation for a decoded element count. A corrupt or
/// hostile count (e.g. `u64::MAX`) must never translate directly into an
/// allocation — `Vec::with_capacity` aborts the process on overflow, which
/// would turn a malformed checkpoint into a crash instead of a decode
/// error. Reserving at most this much up front keeps memory proportional
/// to the *actual* input: each decoded element consumes at least one
/// token, so growth beyond the cap is bounded by the text length, and a
/// lying count runs out of tokens and fails with `Truncated`.
fn cap_alloc(n: usize) -> usize {
    n.min(4096)
}

/// Token reader matching [`Enc`].
struct Dec<'a> {
    toks: std::str::SplitWhitespace<'a>,
}

impl<'a> Dec<'a> {
    fn new(text: &'a str) -> Dec<'a> {
        Dec {
            toks: text.split_whitespace(),
        }
    }

    fn magic(&mut self, magic: &'static str) -> Result<(), CheckpointError> {
        match self.toks.next() {
            Some(w) if w == magic => Ok(()),
            Some(_) => Err(CheckpointError::BadMagic { expected: magic }),
            None => Err(CheckpointError::Truncated),
        }
    }

    fn tok(&mut self) -> Result<&'a str, CheckpointError> {
        self.toks.next().ok_or(CheckpointError::Truncated)
    }

    fn u(&mut self) -> Result<u64, CheckpointError> {
        self.tok()?
            .parse()
            .map_err(|_| malformed("unsigned integer"))
    }

    fn hex(&mut self) -> Result<u64, CheckpointError> {
        let t = self.tok()?;
        if t.len() != 16 {
            return Err(malformed("16-hex-digit word"));
        }
        u64::from_str_radix(t, 16).map_err(|_| malformed("16-hex-digit word"))
    }

    fn finish(mut self) -> Result<(), CheckpointError> {
        match self.toks.next() {
            Some(_) => Err(malformed("trailing tokens")),
            None => Ok(()),
        }
    }
}

/// A value with a place on the wire: `put` writes its tokens, `get` reads
/// them back. Every composite impl is generated from one field or variant
/// list, so the two directions cannot drift apart.
trait Wire: Sized {
    fn put(&self, e: &mut Enc);
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError>;
}

impl Wire for u64 {
    fn put(&self, e: &mut Enc) {
        e.word(self);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        d.u()
    }
}

/// Counts (`usize`) and block, material, vertex and edge ids (`u32`): a
/// value past the type's range is refused, never wrapped.
macro_rules! wire_narrow_uints {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, e: &mut Enc) {
                e.word(self);
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
                $ty::try_from(d.u()?).map_err(|_| malformed(concat!(stringify!($ty), " range")))
            }
        }
    )*};
}

wire_narrow_uints!(usize, u32);

impl Wire for bool {
    fn put(&self, e: &mut Enc) {
        e.word(u8::from(*self));
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        match d.u()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(malformed("flag")),
        }
    }
}

impl Wire for f64 {
    fn put(&self, e: &mut Enc) {
        e.hex(self.to_bits());
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        d.hex().map(f64::from_bits)
    }
}

/// A `&'static str` diagnostic cannot cross the wire: nothing is written,
/// and a fixed placeholder is read back in its place.
impl Wire for &'static str {
    fn put(&self, _: &mut Enc) {}
    fn get(_: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        Ok(RESTORED_INTERNAL)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, e: &mut Enc) {
        self.is_some().put(e);
        if let Some(v) = self {
            v.put(e);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        bool::get(d)?.then(|| T::get(d)).transpose()
    }
}

fn put_all<T: Wire>(e: &mut Enc, items: &[T]) {
    items.len().put(e);
    for x in items {
        x.put(e);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, e: &mut Enc) {
        put_all(e, self);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let n = usize::get(d)?;
        let mut v = Vec::with_capacity(cap_alloc(n));
        for _ in 0..n {
            v.push(T::get(d)?);
        }
        Ok(v)
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn put(&self, e: &mut Enc) {
        for x in self {
            x.put(e);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let mut a = [T::default(); N];
        for x in &mut a {
            *x = T::get(d)?;
        }
        Ok(a)
    }
}

impl Wire for Polygon {
    fn put(&self, e: &mut Enc) {
        put_all(e, self.vertices());
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let vs = Vec::<Vec2>::get(d)?;
        if vs.len() < 3 {
            return Err(malformed("polygon with fewer than 3 vertices"));
        }
        // `Polygon::new` keeps already-CCW vertices untouched.
        Ok(Polygon::new(vs))
    }
}

/// The one hand-written composite: a block also caches geometry derived
/// from its polygon, which is not on the wire. `Block::new` recomputes it
/// with the code that produced it, so reconstruction is bitwise.
impl Wire for Block {
    fn put(&self, e: &mut Enc) {
        self.poly.put(e);
        self.material.put(e);
        self.velocity.put(e);
        self.stress.put(e);
        self.fixed.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let mut b = Block::new(Polygon::get(d)?, u32::get(d)?);
        b.velocity = Wire::get(d)?;
        b.stress = Wire::get(d)?;
        b.fixed = Wire::get(d)?;
        Ok(b)
    }
}

/// Generates [`Wire`] for each struct from its field list, in wire order.
/// `=> check` runs `check` on every decoded value.
macro_rules! wire_structs {
    ($($ty:ident { $($field:ident),* $(,)? } $(=> $check:ident)?)*) => {$(
        impl Wire for $ty {
            fn put(&self, e: &mut Enc) {
                let $ty { $($field),* } = self;
                $($field.put(e);)*
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
                let v = $ty { $($field: Wire::get(d)?),* };
                $($check(&v)?;)?
                Ok(v)
            }
        }
    )*};
}

wire_structs! {
    Vec2 { x, y }
    BlockMaterial { density, young, poisson, body_force }
    JointMaterial { friction_angle_deg, cohesion, tensile_strength }
    PointLoad { block, point, force }
    BlockSystem { blocks, block_materials, joint_materials, point_loads }
    PcgOptions { tol, max_iters }
    DdaParams {
        dt, dt_max, dt_min, max_displacement, penalty, shear_ratio, oc_max_iters,
        contact_range, touch_tol, pcg, dynamics, fixity_factor, broad_phase, broad_slack,
        precond, precision, contact_order, assembly_reuse, warm_start,
    }
    Contact {
        i, j, vertex, edge, vertex2, kind, state, prev_step_state, prev_iter_state,
        normal_disp, shear_disp, edge_ratio, slide_dir, flips,
    }
    ModuleTimes {
        contact_detection, diag_building, nondiag_building, solving, interpenetration, updating,
    }
    SceneHealth {
        state, consecutive_failures, steps_committed, oc_stall_streak, fallback_solves,
        total_faults, last_error, quarantined_at_step,
    }
    SceneState { sys, params, contacts, x_prev, times, health } => steppable
    Envelope { run_steps, priority, requeued, deadline }
    FleetScene { envelope, queued, state }
    SceneCheckpoint { taken_at_step, state }
    FleetCheckpoint { taken_at_step, scenes }
}

/// Invariants the step indexes by without checking. A scene that broke
/// one would decode cleanly and then panic on its first step, so decoding
/// refuses it instead.
fn steppable(st: &SceneState) -> Result<(), CheckpointError> {
    let sys = &st.sys;
    if sys.joint_materials.is_empty() {
        Err(malformed("joint-material table (empty)"))
    } else if sys
        .blocks
        .iter()
        .any(|b| b.material as usize >= sys.block_materials.len())
    {
        Err(malformed("block material index"))
    } else if sys
        .point_loads
        .iter()
        .any(|l| l.block as usize >= sys.blocks.len())
    {
        Err(malformed("point-load block index"))
    } else if st.x_prev.len() != 6 * sys.blocks.len() {
        Err(malformed("warm-start length"))
    } else {
        Ok(())
    }
}

/// Every enum on the wire, each variant with its tag and, for payload
/// variants, its fields in wire order — the one place a variant meets its
/// number. Handed to `$then`, so the codec below and the tag-table test
/// read the same tables.
macro_rules! enum_tables {
    ($then:ident) => {
        $then! {
            // Retired, never reused: `BroadPhaseMode` 1 (the deleted
            // uncached grid), `PrecondKind` 5 and `PrecondError` 4 (the
            // deleted AMG2 rung and its singular-coarse error) decode as
            // malformed.
            BroadPhaseMode { AllPairs = 0, GridCached = 2 }
            PrecondKind { None = 0, BlockJacobi = 1, SsorAi = 2, Ilu0 = 3, Jacobi = 4 }
            SolverPrecision { Full = 0, Mixed = 1 }
            ContactOrder { Discovery = 0, ClassSorted = 1 }
            AssemblyReuse { Recompute = 0, Incremental = 1 }
            SolverWarmStart { PrevStep = 0, PrevIterate = 1 }
            SlotState { Running = 0, Degraded = 1, Quarantined = 2, Retired = 3 }
            ContactState { Open = 0, Slide = 1, Lock = 2 }
            ContactKind { Ve = 0, Vv1 = 1, Vv2 = 2 }
            Priority { High = 0, Normal = 1, Low = 2 }
            WalOutcome { Completed = 0, Refused = 1, Shed = 2 }
            StepError {
                NonFiniteRhs = 1 { oc_iteration },
                NonFiniteSolution = 2 { oc_iteration },
                NonFiniteGaps = 3 { oc_iteration },
                Diverged = 4 { max_displacement },
                SolverBreakdown = 5 { error },
                PreconditionerFailed = 6 { error },
                OcStalled = 7 { streak },
                // Decodes to `RESTORED_INTERNAL` (see `&'static str` above).
                Internal = 8 { what },
            }
            SolveError {
                IndefiniteOperator = 0 { pq, iteration },
                NonFinite = 1 { iteration },
                SingularPreconditioner = 2 { block },
            }
            PrecondError {
                ZeroPivot = 0 { row, pivot },
                MissingDiagonal = 1 { row },
                SingularBlock = 2 { block },
                ZeroDiagonal = 3 { row },
            }
        }
    };
}

macro_rules! wire_enums {
    ($($ty:ident {
        $($variant:ident = $tag:literal $({ $($field:ident),* $(,)? })?),* $(,)?
    })*) => {$(
        impl Wire for $ty {
            fn put(&self, e: &mut Enc) {
                match self {
                    $($ty::$variant { $($($field),*)? } => {
                        let tag: u64 = $tag;
                        tag.put(e);
                        $($($field.put(e);)*)?
                    })*
                }
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
                Ok(match d.u()? {
                    $($tag => $ty::$variant { $($($field: Wire::get(d)?),*)? },)*
                    _ => return Err(malformed(concat!(stringify!($ty), " tag"))),
                })
            }
        }
    )*};
}

enum_tables!(wire_enums);

fn write_text(magic: Option<&str>, body: impl FnOnce(&mut Enc)) -> String {
    let mut e = Enc::default();
    if let Some(magic) = magic {
        e.word(magic);
    }
    body(&mut e);
    e.out
}

fn read_text<T>(
    text: &str,
    magic: Option<&'static str>,
    body: impl FnOnce(&mut Dec<'_>) -> Result<T, CheckpointError>,
) -> Result<T, CheckpointError> {
    let mut d = Dec::new(text);
    if let Some(magic) = magic {
        d.magic(magic)?;
    }
    let v = body(&mut d)?;
    d.finish()?;
    Ok(v)
}

/// A serializable snapshot of one scene, taken at a step boundary.
///
/// Holds the scene's complete resumable [`SceneState`]; re-admitting the
/// decoded state (via [`SceneBatch::admit_state`]) continues the
/// trajectory bit-identically to never having checkpointed. The one lossy
/// field is the `&'static str` inside [`StepError::Internal`], which
/// decodes to a fixed placeholder message.
///
/// [`SceneBatch::admit_state`]: super::SceneBatch::admit_state
#[derive(Debug, Clone)]
pub struct SceneCheckpoint {
    /// The captured scene state.
    pub state: SceneState,
    /// Scheduler tick (or batch step index) at which the snapshot was
    /// taken; diagnostic only.
    pub taken_at_step: u64,
}

impl SceneCheckpoint {
    /// Serializes the checkpoint to the whitespace-token text format.
    pub fn encode(&self) -> String {
        write_text(Some(SCENE_MAGIC), |e| self.put(e))
    }

    /// Decodes a checkpoint produced by [`SceneCheckpoint::encode`].
    pub fn decode(text: &str) -> Result<SceneCheckpoint, CheckpointError> {
        read_text(text, Some(SCENE_MAGIC), SceneCheckpoint::get)
    }
}

/// A serializable snapshot of a [`BatchScheduler`]'s entire in-flight
/// fleet — live slots and queued submissions — from which a killed
/// process can rehydrate via [`BatchScheduler::restore`].
///
/// [`BatchScheduler`]: super::BatchScheduler
/// [`BatchScheduler::restore`]: super::BatchScheduler::restore
#[derive(Debug, Clone)]
pub struct FleetCheckpoint {
    /// Scheduler tick at which the snapshot was taken; restore resumes
    /// the clock from here.
    pub taken_at_step: u64,
    /// Every in-flight scene (running, degraded, or queued).
    pub scenes: Vec<FleetScene>,
}

impl FleetCheckpoint {
    /// Serializes the fleet checkpoint to the whitespace-token format.
    pub fn encode(&self) -> String {
        write_text(Some(FLEET_MAGIC), |e| self.put(e))
    }

    /// Decodes a fleet checkpoint produced by [`FleetCheckpoint::encode`].
    pub fn decode(text: &str) -> Result<FleetCheckpoint, CheckpointError> {
        read_text(text, Some(FLEET_MAGIC), FleetCheckpoint::get)
    }
}

// ---------------------------------------------------------------------------
// WAL payloads
// ---------------------------------------------------------------------------

/// The payload of a Submit, Snap or MigrateCommit record: exactly the
/// text of a one-scene [`FleetCheckpoint`], written from a borrow so
/// journaling never clones the scene.
pub(crate) fn encode_scene_record(taken_at_step: u64, scene: &FleetScene) -> String {
    write_text(Some(FLEET_MAGIC), |e| {
        taken_at_step.put(e);
        put_all(e, std::slice::from_ref(scene));
    })
}

/// Decodes a scene-record payload into `(taken_at_step, scene)`; any
/// scene count but one is malformed.
pub(crate) fn decode_scene_record(text: &str) -> Result<(u64, FleetScene), CheckpointError> {
    let FleetCheckpoint {
        taken_at_step,
        mut scenes,
    } = FleetCheckpoint::decode(text)?;
    match (scenes.pop(), scenes.is_empty()) {
        (Some(scene), true) => Ok((taken_at_step, scene)),
        _ => Err(malformed("scene count of a scene record")),
    }
}

/// The payload of a MigrateIntent record: the source device.
pub(crate) fn encode_intent(src: u32) -> String {
    write_text(None, |e| src.put(e))
}

/// Decodes a MigrateIntent payload into the source device.
pub(crate) fn decode_intent(text: &str) -> Result<u32, CheckpointError> {
    read_text(text, None, u32::get)
}

impl WalOutcome {
    /// Encodes an outcome and the final state's fingerprint as a
    /// terminal-record payload.
    pub fn encode(self, fingerprint: u64) -> String {
        write_text(None, |e| {
            self.put(e);
            e.hex(fingerprint);
        })
    }

    /// Decodes a terminal-record payload.
    pub fn decode(text: &str) -> Option<(WalOutcome, u64)> {
        read_text(text, None, |d| Ok((WalOutcome::get(d)?, d.hex()?))).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SceneBatch;
    use dda_simt::{Device, DeviceProfile};

    fn k40() -> Device {
        Device::new(DeviceProfile::tesla_k40())
    }

    /// A falling block over fixed ground: contacts form after a few
    /// steps, so checkpoints exercise the contact/warm-start codec.
    fn scene() -> (BlockSystem, DdaParams) {
        let mut params = DdaParams::for_model(1.0, 5e9);
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

    /// Decodes `tag` followed by zero-valued fields as a `T` and returns
    /// the tag its encoding opens with. A run of `0000000000000000` reads
    /// as the zero of every field kind — `0`, `false`, `0.0`, and tag 0 of
    /// a nested payload enum — so payload variants round-trip too.
    fn round_trip<T: Wire>(tag: u64) -> Result<u64, CheckpointError> {
        let text = format!("{tag}{}", " 0000000000000000".repeat(4));
        let value = T::get(&mut Dec::new(&text))?;
        let encoded = write_text(None, |e| value.put(e));
        let again = read_text(&encoded, None, T::get)?;
        assert_eq!(write_text(None, |e| again.put(e)), encoded);
        Ok(encoded.split(' ').next().unwrap().parse().unwrap())
    }

    /// One enum's tag table, as `enum_tables!` states it.
    struct Table {
        name: &'static str,
        tags: Vec<u64>,
        round_trip: fn(u64) -> Result<u64, CheckpointError>,
    }

    macro_rules! tables {
        ($($ty:ident {
            $($variant:ident = $tag:literal $({ $($field:ident),* $(,)? })?),* $(,)?
        })*) => {
            vec![$(Table {
                name: stringify!($ty),
                tags: vec![$($tag),*],
                round_trip: round_trip::<$ty>,
            }),*]
        };
    }

    /// Tags of deleted variants, as the comment in `enum_tables!` lists
    /// them. A retired tag mid-table is past no table's last tag, so each
    /// is probed by name.
    const RETIRED: [(&str, u64); 3] = [
        ("BroadPhaseMode", 1),
        ("PrecondKind", 5),
        ("PrecondError", 4),
    ];

    #[test]
    fn every_enum_table_round_trips_and_rejects_unknown_tags() {
        let tables = enum_tables!(tables);
        assert_eq!(tables.len(), 14, "eleven fieldless and three payload enums");
        for (name, _) in RETIRED {
            assert!(tables.iter().any(|t| t.name == name), "{name} has a table");
        }
        for t in tables {
            let mut distinct = t.tags.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(
                distinct.len(),
                t.tags.len(),
                "{}: tags are distinct",
                t.name
            );
            for &tag in &t.tags {
                assert_eq!((t.round_trip)(tag), Ok(tag), "{} tag {tag}", t.name);
            }
            let past_last = t.tags.iter().max().expect("a table has variants") + 1;
            let retired = RETIRED.iter().filter(|(name, _)| *name == t.name);
            for bad in retired.map(|&(_, tag)| tag).chain([past_last, u64::MAX]) {
                match (t.round_trip)(bad) {
                    Err(CheckpointError::Malformed { what }) => {
                        assert!(what.contains(t.name), "{}: {what}", t.name)
                    }
                    other => panic!("{} tag {bad} decoded: {other:?}", t.name),
                }
            }
        }
    }

    #[test]
    fn scene_record_is_a_one_scene_fleet_checkpoint() {
        let mut batch = SceneBatch::new(k40(), vec![scene()]);
        batch.run(2);
        let fs = FleetScene {
            state: batch.scene_state(0).expect("live scene"),
            envelope: Envelope {
                run_steps: 9,
                priority: Priority::Low,
                requeued: true,
                deadline: Some(4),
            },
            queued: true,
        };
        let record = encode_scene_record(7, &fs);
        let fleet = FleetCheckpoint {
            taken_at_step: 7,
            scenes: vec![fs.clone(), fs],
        };
        assert_eq!(
            record,
            FleetCheckpoint {
                taken_at_step: 7,
                scenes: vec![fleet.scenes[0].clone()],
            }
            .encode()
        );
        let (taken_at, back) = decode_scene_record(&record).expect("record decodes");
        assert_eq!(taken_at, 7);
        assert_eq!(encode_scene_record(taken_at, &back), record);
        // Any other scene count is not a scene record.
        for scenes in [vec![], fleet.scenes.clone()] {
            let text = FleetCheckpoint {
                taken_at_step: 7,
                scenes,
            }
            .encode();
            assert!(matches!(
                decode_scene_record(&text),
                Err(CheckpointError::Malformed { .. })
            ));
        }
    }

    #[test]
    fn intent_payload_is_the_source_device_in_decimal() {
        assert_eq!(encode_intent(3), "3");
        assert_eq!(decode_intent("3"), Ok(3));
        assert_eq!(decode_intent(""), Err(CheckpointError::Truncated));
        for bad in ["4294967296", "3 4", "x"] {
            assert!(matches!(
                decode_intent(bad),
                Err(CheckpointError::Malformed { .. })
            ));
        }
    }
}
