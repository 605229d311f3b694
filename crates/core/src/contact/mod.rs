//! Contact detection (§III-B): broad phase, narrow phase with VE/VV1/VV2
//! classification, contact transfer, and contact initialization.
//!
//! The GPU pipeline (Fig 2) restructures this module around *data
//! classification*: the narrow phase's distance judgment splits candidates
//! into vertex–edge (VE) and vertex–vertex (VV); the angle judgment
//! abandons non-facing candidates and splits VV into VV1 (parallel edges)
//! and VV2; each class then runs uniform kernels, removing the branch
//! divergence a monolithic kernel would pay (measured by experiment D1).

pub mod broad;
pub mod grid;
pub mod init;
pub mod narrow;
pub mod order;
pub mod soa;
pub mod transfer;
pub mod types;

pub use broad::{broad_phase_gpu, broad_phase_gpu_ws, broad_phase_serial, broad_phase_serial_ws};
pub use grid::{
    cached_broad_phase_gpu, detect_broad_gpu, BroadPhaseCache, BroadPhaseMode, ContactWorkspace,
};
pub use init::{init_contacts_classified, init_contacts_monolithic};
pub use narrow::{narrow_phase_gpu, narrow_phase_gpu_scheduled, narrow_phase_serial};
pub use order::{ContactOrder, ContactOrderCache};
pub use soa::GeomSoa;
pub use transfer::{
    transfer_contacts_gpu, transfer_contacts_gpu_scheduled, transfer_contacts_serial,
};
pub use types::{Contact, ContactKind, ContactState};
