//! The layer ladder: each public layer call of one time step, replayed
//! on captured state on a **separate** device and timed from outside
//! (one discarded repetition, then the median of the timed ones). The
//! ladder is how per-layer host time is obtained without spans inside the
//! program; in-program spans are a later change.
//!
//! The first snapshot also feeds the output checks: device SpMV against
//! the serial symmetric product, PCG's true residual, the device broad
//! phase against the serial sweep, and device assembly against serial
//! assembly.

use crate::inputs::k40;
use crate::stats::median;
use dda_core::assembly::{assemble_contacts_gpu, assemble_serial};
use dda_core::contact::{
    broad_phase_serial, detect_broad_gpu, init_contacts_classified, narrow_phase_gpu_scheduled,
    transfer_contacts_gpu_scheduled, ContactWorkspace, GeomSoa,
};
use dda_core::interpenetration::{check_gpu, BranchScheme};
use dda_core::openclose::open_close_gpu;
use dda_core::pipeline::SceneState;
use dda_core::stiffness::perblock::{build_diag_gpu, BlockSoa};
use dda_core::update::update_system;
use dda_simt::primitives::{scan_exclusive_u32, segment_starts, segmented_sum_f64, sort_pairs_u64};
use dda_simt::serial::CpuCounter;
use dda_simt::Device;
use dda_solver::{pcg_fused, BlockJacobi, PcgWorkspace};
use dda_sparse::spmv::{spmv_hsbcsr_into, SpmvWorkspace, Stage1Smem};
use dda_sparse::{Hsbcsr, SymBlockMatrix};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Named values produced by a ladder or a run.
pub type Values = BTreeMap<&'static str, f64>;

/// What one timed ladder call cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallCost {
    /// Median host milliseconds per call.
    pub host_ms: f64,
    /// Modeled device microseconds per call.
    pub modeled_us: f64,
    /// Launch records per call.
    pub launches: f64,
}

/// Runs `f` once discarded and `reps` times timed on `dev`, which must be
/// used by nothing else: its trace is cleared around every call to read
/// the call's modeled time and launch count.
pub fn timed<T>(dev: &Device, reps: usize, mut f: impl FnMut() -> T) -> (CallCost, T) {
    let mut out = black_box(f());
    let mut ms = Vec::with_capacity(reps);
    let mut cost = CallCost::default();
    for _ in 0..reps.max(1) {
        dev.reset_trace();
        let t = Instant::now();
        out = black_box(f());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        let tr = dev.take_trace();
        cost.modeled_us = tr.total_seconds() * 1e6;
        cost.launches = tr.total_stats().launches as f64;
    }
    cost.host_ms = median(&ms);
    (cost, out)
}

/// `x <= limit`, false for a NaN — so a check that produced no number
/// fails instead of passing.
fn within(x: f64, limit: f64) -> bool {
    x <= limit
}

fn rel_max_diff(a: &[f64], b: &[f64]) -> f64 {
    let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
    a.iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
        / scale
}

fn matrix_rel_diff(a: &SymBlockMatrix, b: &SymBlockMatrix) -> f64 {
    if a.diag.len() != b.diag.len() || a.upper.len() != b.upper.len() {
        return f64::INFINITY;
    }
    let mut scale = 0.0f64;
    let mut diff = 0.0f64;
    let mut eat = |x: f64, y: f64| {
        scale = scale.max(y.abs());
        diff = diff.max((x - y).abs());
    };
    for (da, db) in a.diag.iter().zip(&b.diag) {
        for r in 0..6 {
            for c in 0..6 {
                eat(da.0[r][c], db.0[r][c]);
            }
        }
    }
    for ((ra, ca, ua), (rb, cb, ub)) in a.upper.iter().zip(&b.upper) {
        if ra != rb || ca != cb {
            return f64::INFINITY;
        }
        for r in 0..6 {
            for c in 0..6 {
                eat(ua.0[r][c], ub.0[r][c]);
            }
        }
    }
    diff / scale.max(1e-300)
}

/// One snapshot's ladder row; `check` additionally runs the output
/// checks and appends a line to `failures` for each that does not hold.
fn ladder_row(st: &SceneState, reps: usize, check: bool, failures: &mut Vec<String>) -> Values {
    let dev = k40();
    let dev = &dev;
    let sys = &st.sys;
    let p = &st.params;
    let mut v = Values::new();

    // ---- core.contact ----------------------------------------------------
    let (c, gsoa) = timed(dev, reps, || GeomSoa::build(sys));
    v.insert("contact.geom_soa_ms", c.host_ms);
    // One workspace across repetitions: under GridCached the discarded
    // call bins the grid and the timed ones take the cache-hit path, the
    // steady state of a step.
    let mut ws = ContactWorkspace::new();
    let (c, ()) = timed(dev, reps, || {
        detect_broad_gpu(
            dev,
            &gsoa,
            p.broad_phase,
            p.contact_range,
            p.broad_slack,
            &mut ws,
        )
    });
    v.insert("contact.broad_ms", c.host_ms);
    let (c, found) = timed(dev, reps, || {
        narrow_phase_gpu_scheduled(dev, &gsoa, &ws.pairs, p.contact_range, None)
    });
    v.insert("contact.narrow_ms", c.host_ms);
    let mut transferred = found.clone();
    let (c, _) = timed(dev, reps, || {
        transferred.clone_from(&found);
        transfer_contacts_gpu_scheduled(dev, &st.contacts, &mut transferred, None)
    });
    v.insert("contact.transfer_ms", c.host_ms);
    let touch = p.touch_tol * p.max_displacement;
    let mut contacts = transferred.clone();
    let (c, ()) = timed(dev, reps, || {
        contacts.clone_from(&transferred);
        init_contacts_classified(dev, &gsoa, &mut contacts, touch)
    });
    v.insert("contact.init_ms", c.host_ms);

    // ---- core.stiffness --------------------------------------------------
    let (c, bsoa) = timed(dev, reps, || BlockSoa::build(sys));
    v.insert("stiffness.block_soa_ms", c.host_ms);
    let (c, (diag, rhs0)) = timed(dev, reps, || build_diag_gpu(dev, sys, &bsoa, p));
    v.insert("stiffness.diag_ms", c.host_ms);

    // ---- core.assembly ---------------------------------------------------
    let (c, asm) = timed(dev, reps, || {
        assemble_contacts_gpu(dev, sys, &gsoa, &contacts, p, diag.clone(), rhs0.clone())
    });
    v.insert("assembly.nondiag_ms", c.host_ms);
    v.insert("assembly.nondiag_modeled_us", c.modeled_us);
    v.insert("assembly.nondiag_launches", c.launches);

    // ---- sparse ----------------------------------------------------------
    let (c, mut h) = timed(dev, reps, || Hsbcsr::from_sym(&asm.matrix));
    v.insert("sparse.hsbcsr_build_ms", c.host_ms);
    let (c, _) = timed(dev, reps, || h.refill_values(&asm.matrix));
    v.insert("sparse.refill_ms", c.host_ms);
    let n = 6 * sys.len();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let mut y = vec![0.0f64; n];
    let mut sws = SpmvWorkspace::new();
    let (c, ()) = timed(dev, reps, || {
        spmv_hsbcsr_into(dev, &h, &x, Stage1Smem::Proposed, &mut sws, &mut y)
    });
    v.insert("sparse.spmv_ms", c.host_ms);
    v.insert("sparse.spmv_modeled_us", c.modeled_us);
    // Computed from array sizes (values, indices, x read, y written), not
    // measured: cache misses are invisible here.
    let index_bytes =
        8 * h.rc.len() + 4 * (h.row_up_i.len() + h.row_low_i.len() + h.row_low_p.len());
    v.insert(
        "sparse.spmv_bytes_computed",
        (h.data_bytes() + index_bytes + 16 * n) as f64,
    );

    // ---- solver ----------------------------------------------------------
    let (c, bj) = timed(dev, reps, || BlockJacobi::try_new(dev, &h));
    v.insert("solver.bj_build_ms", c.host_ms);
    let mut pws = PcgWorkspace::new();
    let (pcg_cost, res) = match &bj {
        Ok(bj) => {
            let (c, res) = timed(dev, reps, || {
                pcg_fused(dev, &h, &asm.rhs, &st.x_prev, bj, p.pcg, &mut pws)
            });
            (c, Some(res))
        }
        Err(e) => {
            failures.push(format!("ladder: block-Jacobi construction failed: {e:?}"));
            (CallCost::default(), None)
        }
    };
    let iters = res.as_ref().map_or(0, |r| r.iterations) as f64;
    v.insert("solver.pcg_ms", pcg_cost.host_ms);
    v.insert("solver.pcg_iters", iters);
    v.insert(
        "solver.pcg_host_ms_per_iter",
        pcg_cost.host_ms / iters.max(1.0),
    );
    v.insert(
        "solver.pcg_modeled_us_per_iter",
        pcg_cost.modeled_us / iters.max(1.0),
    );
    v.insert(
        "solver.launches_per_iter",
        pcg_cost.launches / iters.max(1.0),
    );
    let d = res
        .as_ref()
        .map_or_else(|| st.x_prev.clone(), |r| r.x.clone());

    // ---- core.interpenetration, core.openclose, core.update --------------
    let (c, gaps) = timed(dev, reps, || {
        check_gpu(
            dev,
            &gsoa,
            sys,
            &contacts,
            &d,
            p.penalty,
            p.shear_ratio,
            BranchScheme::Restructured,
        )
    });
    v.insert("interp.check_ms", c.host_ms);
    let open_tol = 1e-6 * p.max_displacement;
    let mut oc_contacts = contacts.clone();
    let (c, _) = timed(dev, reps, || {
        oc_contacts.clone_from(&contacts);
        open_close_gpu(dev, &mut oc_contacts, &gaps, open_tol, false)
    });
    v.insert("openclose.update_ms", c.host_ms);
    let mut up_sys = sys.clone();
    let (c, ()) = timed(dev, reps, || {
        up_sys.clone_from(sys);
        oc_contacts.clone_from(&contacts);
        update_system(
            &mut up_sys,
            &d,
            &mut oc_contacts,
            &gaps,
            p,
            &mut CpuCounter::new(),
        )
    });
    v.insert("update.ms", c.host_ms);

    // ---- simt primitives at the contribution-stream length ---------------
    // Fig 4's keyed stream holds three sub-matrix slots per contact.
    let len = (3 * contacts.len()).max(32);
    let flags: Vec<u32> = (0..len).map(|i| (i % 3 == 0) as u32).collect();
    let (c, _) = timed(dev, reps, || scan_exclusive_u32(dev, &flags));
    v.insert("simt.scan_ms", c.host_ms);
    let keys: Vec<u64> = (0..len as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40)
        .collect();
    let payload: Vec<u32> = (0..len as u32).collect();
    let (c, (sorted, _)) = timed(dev, reps, || sort_pairs_u64(dev, &keys, &payload));
    v.insert("simt.sort_pairs_ms", c.host_ms);
    let vals = vec![1.0f64; len];
    let (starts, _) = segment_starts(dev, &sorted);
    let (c, _) = timed(dev, reps, || segmented_sum_f64(dev, &vals, &starts));
    v.insert("simt.segreduce_ms", c.host_ms);

    // R counters the snapshot carries.
    v.insert("contact.pairs", ws.pairs.len() as f64);

    if check {
        // Device SpMV against the serial symmetric product.
        let y_ref = asm.matrix.mul_vec(&x);
        let e = rel_max_diff(&y, &y_ref);
        if !within(e, 1e-12) {
            failures.push(format!(
                "spmv_hsbcsr_into vs SymBlockMatrix::mul_vec: rel {e:e} > 1e-12"
            ));
        }
        // PCG: true residual of a solve that reports convergence.
        if let Some(res) = &res {
            if res.converged {
                let ax = asm.matrix.mul_vec(&res.x);
                let rn = ax
                    .iter()
                    .zip(&asm.rhs)
                    .map(|(a, b)| (b - a) * (b - a))
                    .sum::<f64>()
                    .sqrt();
                let bn = asm.rhs.iter().map(|b| b * b).sum::<f64>().sqrt();
                if !within(rn, 10.0 * p.pcg.tol * bn.max(1e-300)) {
                    failures.push(format!(
                        "pcg_fused true residual {rn:e} > 10 x tol x |b| = {:e}",
                        10.0 * p.pcg.tol * bn
                    ));
                }
            }
        }
        // Device broad phase against the serial all-pairs sweep.
        let mut serial_pairs = broad_phase_serial(sys, p.contact_range, &mut CpuCounter::new());
        let mut dev_pairs = ws.pairs.clone();
        serial_pairs.sort_unstable();
        dev_pairs.sort_unstable();
        if serial_pairs != dev_pairs {
            failures.push(format!(
                "detect_broad_gpu found {} pairs, broad_phase_serial {}",
                dev_pairs.len(),
                serial_pairs.len()
            ));
        }
        // Device assembly against serial assembly.
        let ser = assemble_serial(sys, &contacts, p, &mut CpuCounter::new());
        let em = matrix_rel_diff(&asm.matrix, &ser.matrix);
        let er = rel_max_diff(&asm.rhs, &ser.rhs);
        if !(within(em, 1e-10) && within(er, 1e-10)) {
            failures.push(format!(
                "assemble_contacts_gpu vs assemble_serial: matrix rel {em:e}, rhs rel {er:e} > 1e-10"
            ));
        }
    }
    v
}

/// Runs the ladder on every snapshot and reports, per metric, the median
/// over snapshots. Output-check failures (first snapshot) are appended to
/// `failures`.
pub fn core_ladder(states: &[SceneState], reps: usize, failures: &mut Vec<String>) -> Values {
    let rows: Vec<Values> = states
        .iter()
        .enumerate()
        .map(|(i, st)| ladder_row(st, reps, i == 0, failures))
        .collect();
    let mut out = Values::new();
    if let Some(first) = rows.first() {
        for &k in first.keys() {
            let col: Vec<f64> = rows.iter().filter_map(|r| r.get(k).copied()).collect();
            out.insert(k, median(&col));
        }
    }
    out
}

/// Host microseconds of one empty 32-thread launch: what `Device::launch`
/// and `Device::record` cost before any kernel work.
pub fn launch_overhead_us() -> f64 {
    const REPS: usize = 10_000;
    let dev = k40();
    for _ in 0..100 {
        dev.launch("bench.empty", 32, |_| {});
    }
    dev.reset_trace();
    let t = Instant::now();
    for _ in 0..REPS {
        dev.launch("bench.empty", 32, |_| {});
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    black_box(dev.take_trace().len());
    us
}
