//! The preconditioner candidates of §IV-A.
//!
//! "The preconditioners of DDA on the GPU prefer the low cost in
//! construction and implementation even if their performance is also
//! usually low." Three candidates are compared in Table I:
//!
//! | | construction | apply | convergence |
//! |---|---|---|---|
//! | [`BlockJacobi`] | trivial (6×6 inverses) | one block-diagonal product | slowest |
//! | [`SsorAi`] | trivial (reuses the block inverses) | two triangular SpMVs | middle |
//! | [`Ilu0`] | expensive factorization | two level-scheduled solves | fastest |
//! | [`HubSchur`] (beyond the paper) | Block-Jacobi's, plus one launch (`W`, `S`, dense Cholesky of `S`) | two launches (`y` and `S x_H = t`; back-substitution fused with `r·z`) | exact on an arrow matrix: one iteration |
//!
//! ILU wins the iteration count (the paper: 93 vs 141 vs 275) and still
//! loses the total time by an order of magnitude because the triangular
//! solves and the factorization dominate.
//!
//! The shipped default is [`HubSchur`]: Block-Jacobi on the free blocks,
//! with the scene's few fixed blocks (the hub every rockfall contact
//! touches) solved exactly by block elimination. Where the pattern couples
//! no block to the hub it is Block-Jacobi, launch for launch.

mod block_jacobi;
mod hub_schur;
mod identity;
mod ilu0;
mod jacobi;
mod ssor_ai;

pub use block_jacobi::BlockJacobi;
pub use hub_schur::{HubSchur, HUB_CAP};
pub use identity::Identity;
pub use ilu0::Ilu0;
pub use jacobi::Jacobi;
pub use ssor_ai::SsorAi;

use crate::vecops::dot_partials_into;
use dda_simt::Device;
use serde::{Deserialize, Serialize};

/// Preconditioner selection for the equation-solving module: the paper's
/// Table I candidates, plain CG, the scalar-Jacobi last rung and the
/// shipped default, Block-Jacobi with the fixed-block hub solved exactly
/// ([`HubSchur`]). This is
/// the *policy* enum the pipeline stores in its parameters and reports —
/// the constructed preconditioners themselves implement
/// [`Preconditioner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PrecondKind {
    /// Plain CG.
    None,
    /// Block-Jacobi (the paper's recommendation together with SSOR).
    BlockJacobi,
    /// SSOR approximate inverse.
    SsorAi,
    /// ILU(0) with level-scheduled triangular solves.
    Ilu0,
    /// Scalar-diagonal Jacobi — the last rung of the degradation ladder.
    Jacobi,
    /// Block-Jacobi with the scene's fixed blocks (at most [`HUB_CAP`])
    /// eliminated exactly through their Schur complement; plain
    /// Block-Jacobi where the pattern couples nothing to them.
    #[default]
    HubSchur,
}

impl PrecondKind {
    /// Short rung name used in step reports and benchmark records.
    pub fn name(self) -> &'static str {
        match self {
            PrecondKind::None => "none",
            PrecondKind::BlockJacobi => "BJ",
            PrecondKind::SsorAi => "SSOR-AI",
            PrecondKind::Ilu0 => "ILU0",
            PrecondKind::Jacobi => "Jacobi",
            PrecondKind::HubSchur => "BJ+hub",
        }
    }

    /// The degradation ladder rooted at `self`: on construction failure or
    /// solver breakdown the pipeline descends ILU0 → SSOR-AI → Block-Jacobi
    /// → Jacobi, each rung cheaper and harder to break than the one above
    /// (Jacobi only needs a nonzero scalar diagonal). The hub rung descends
    /// straight to Jacobi, as Block-Jacobi does: its factorization starts
    /// with Block-Jacobi's. Plain CG has no rungs to descend to — a
    /// breakdown there is the operator's fault, not the preconditioner's.
    pub fn ladder(self) -> &'static [PrecondKind] {
        match self {
            PrecondKind::None => &[PrecondKind::None],
            PrecondKind::Ilu0 => &[
                PrecondKind::Ilu0,
                PrecondKind::SsorAi,
                PrecondKind::BlockJacobi,
                PrecondKind::Jacobi,
            ],
            PrecondKind::SsorAi => &[
                PrecondKind::SsorAi,
                PrecondKind::BlockJacobi,
                PrecondKind::Jacobi,
            ],
            PrecondKind::BlockJacobi => &[PrecondKind::BlockJacobi, PrecondKind::Jacobi],
            PrecondKind::Jacobi => &[PrecondKind::Jacobi],
            PrecondKind::HubSchur => &[PrecondKind::HubSchur, PrecondKind::Jacobi],
        }
    }
}

/// Structured construction failure: the matrix handed to a preconditioner
/// cannot be factored. These feed the pipeline's degradation ladder
/// (ILU0 → SSOR-AI → Block-Jacobi → Jacobi): a rung that fails to
/// construct is skipped instead of panicking mid-solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrecondError {
    /// A pivot was zero, nearly zero (relative to the largest diagonal
    /// entry), or non-finite during ILU(0) factorization, or not positive
    /// in the Cholesky factorization of [`HubSchur`]'s hub Schur
    /// complement.
    ZeroPivot {
        /// Scalar row of the offending pivot.
        row: usize,
        /// The pivot value encountered.
        pivot: f64,
    },
    /// A structurally required diagonal entry is absent from the pattern.
    MissingDiagonal {
        /// Scalar row with no stored diagonal.
        row: usize,
    },
    /// A 6×6 diagonal sub-matrix is singular or non-finite (Block-Jacobi
    /// and SSOR-AI construction).
    SingularBlock {
        /// Index of the offending block row.
        block: usize,
    },
    /// A scalar diagonal entry is zero or non-finite (point Jacobi).
    ZeroDiagonal {
        /// Scalar row of the offending entry.
        row: usize,
    },
}

impl core::fmt::Display for PrecondError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PrecondError::ZeroPivot { row, pivot } => {
                write!(f, "zero or non-finite pivot {pivot} at row {row}")
            }
            PrecondError::MissingDiagonal { row } => {
                write!(f, "diagonal entry missing at row {row}")
            }
            PrecondError::SingularBlock { block } => {
                write!(f, "singular diagonal sub-matrix {block}")
            }
            PrecondError::ZeroDiagonal { row } => {
                write!(f, "zero or non-finite diagonal at scalar row {row}")
            }
        }
    }
}

/// Application interface: `z = M⁻¹ r` on the device.
pub trait Preconditioner {
    /// Short name used in reports ("BJ", "SSOR", "ILU").
    fn name(&self) -> &'static str;
    /// Applies the preconditioner.
    fn apply(&self, dev: &Device, r: &[f64]) -> Vec<f64>;
    /// `z = M⁻¹ r` with one `r·z` partial per tile in `rz_partials`, the
    /// fused PCG's bridged step. Returns `r·z` when the apply also reduced
    /// the partials on the device; `None` (the default, which follows
    /// [`Preconditioner::apply`] with a `vec.dot.partial` launch) leaves
    /// the reduction to the caller.
    fn apply_rz(
        &self,
        dev: &Device,
        r: &[f64],
        z: &mut Vec<f64>,
        rz_partials: &mut Vec<f64>,
    ) -> Option<f64> {
        let out = self.apply(dev, r);
        z.clear();
        z.extend_from_slice(&out);
        dot_partials_into(dev, r, z, rz_partials);
        None
    }
    /// Flat row-major 6×6 block-diagonal inverses (36 scalars per block
    /// row) when [`Preconditioner::apply`] is exactly the block-diagonal
    /// product `z = D⁻¹ r` — the hook that lets the fused PCG compute `z`
    /// inside its reduction kernel instead of a separate apply launch.
    /// `None` (the default) sends the fused solver down its fallback path.
    fn block_diag_inv(&self) -> Option<&[f64]> {
        None
    }
    /// True when apply is the identity (`z = r`), which the fused PCG also
    /// folds into its reduction kernel.
    fn is_identity(&self) -> bool {
        false
    }
}
