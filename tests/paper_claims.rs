//! Scale-reduced checks of the paper's headline claims, via the harness
//! experiment runners (the binaries run the same code at full scale; see
//! `EXPERIMENTS.md` for the full-scale numbers).

use dda_harness::experiments::{
    divergence_study, preconditioner_study, run_case1, run_case2, smem_study, spmv_study,
};

/// Workload size for the claim tests: large enough for the architectural
/// effects, small enough for a debug-mode test run.
const N: usize = 150;

#[test]
fn table1_preconditioner_ordering() {
    let rows = preconditioner_study(N, 2, 9);
    let (bj, ssor, ilu) = (&rows[0], &rows[1], &rows[2]);
    // Convergence-rate ordering (paper: 93 ≤ 141 ≤ 275).
    assert!(ilu.avg_iterations <= ssor.avg_iterations + 1e-9);
    assert!(ssor.avg_iterations <= bj.avg_iterations + 1e-9);
    // Cost ordering: BJ construction cheapest, ILU most expensive
    // (paper: 0.059 ms / 0.208 ms / 31.465 ms).
    assert!(bj.construct_s <= ssor.construct_s * 1.5);
    assert!(ssor.construct_s < ilu.construct_s);
    // The headline: ILU loses end-to-end despite converging fastest.
    assert!(ilu.total_solve_s > bj.total_solve_s);
}

#[test]
fn fig10_spmv_and_tss_shape() {
    // HSBCSR's one-thread-per-sub-matrix stage 1 needs enough sub-matrices
    // to occupy the device; the crossover against the warp-per-row CSR
    // kernel sits near ~1000 blocks (see EXPERIMENTS.md), so the claim is
    // checked above it.
    let s = spmv_study(1200, 3);
    // HSBCSR wins against every full-matrix baseline (paper: 2.8× vs
    // cuSPARSE at full scale).
    assert!(
        s.t_hsbcsr < s.t_csr_vector,
        "{} vs {}",
        s.t_hsbcsr,
        s.t_csr_vector
    );
    assert!(s.t_hsbcsr < s.t_csr_scalar);
    assert!(s.t_hsbcsr < s.t_bcsr);
    // TSS costs many SpMVs (paper: ~11×).
    assert!(
        s.t_tss > 5.0 * s.t_csr_vector,
        "TSS {} vs {}",
        s.t_tss,
        s.t_csr_vector
    );
}

#[test]
fn table2_case1_module_shape() {
    let cs = run_case1(400, 2, 7);
    let s40 = cs.cpu.speedup_over(&cs.k40);
    // Every module accelerates at this scale.
    assert!(s40.contact_detection > 1.0, "{s40:?}");
    assert!(s40.solving > 1.0, "{s40:?}");
    assert!(s40.nondiag_building > 1.0, "{s40:?}");
    // Contact detection speeds up far more than non-diagonal building —
    // the Table-II signature (117.69× vs 4.38× in the paper).
    assert!(
        s40.contact_detection > 3.0 * s40.nondiag_building,
        "{s40:?}"
    );
    // Non-diagonal building is the weakest module, as in the paper.
    let rows = s40.rows();
    let min_mod = rows
        .iter()
        .filter(|(_, v)| *v > 0.0)
        .map(|&(n, v)| (n, v))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    assert_eq!(min_mod.0, "Non-diagonal Matrix Building", "{s40:?}");
    // K40 beats K20 (paper: 48.72× vs 41.94×).
    assert!(cs.k40.total() < cs.k20.total());
}

#[test]
fn table3_case2_smaller_speedup_than_case1() {
    // The paper's cross-case claim: the small dynamic case speeds up far
    // less than the large static one (6.26× vs 48.72×).
    let c1 = run_case1(400, 2, 7);
    let c2 = run_case2(60, 4);
    let s1 = c1.cpu.total() / c1.k40.total();
    let s2 = c2.cpu.total() / c2.k40.total();
    assert!(
        s1 > 1.5 * s2,
        "case 1 ({s1:.1}×) must outpace case 2 ({s2:.1}×)"
    );
    // The tables above read the pinned Fig 4 stream, whose case-2 assembly
    // is slower than serial at this scale; the shipped path (plan per
    // contact list + gather) must not be.
    let shipped = c2.cpu.nondiag_building / c2.k40_default.nondiag_building;
    assert!(
        shipped >= 1.0,
        "default-path non-diagonal building is {shipped:.2}× serial on case 2"
    );
    assert!(c2.k40_default.nondiag_building < c2.k40.nondiag_building);
}

#[test]
fn divergence_classification_claim() {
    let d = divergence_study(800, 11);
    // Classified kernels are divergence-free; the monolithic baseline is
    // not (paper: −11.18 % divergence, −20.576 µs).
    assert!(d.mono_divergence > 0.0);
    assert_eq!(d.class_divergence, 0.0);
}

#[test]
fn fig89_bank_conflict_claim() {
    let s = smem_study(400, 13);
    // "Minimum bank conflicts": the proposed scheme measures zero replays.
    assert_eq!(s.proposed_replays, 0);
    assert!(s.naive_replays > 0);
    assert!(s.proposed_s <= s.naive_s);
}
