//! `bench --compare A.json B.json`: B against base A.

use crate::json::Json;
use crate::spec::{Better, Source, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use std::fmt::Write as _;

/// Verdict for one end-to-end metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the runs
    /// overlap: neither "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges runs `b` against base runs `a` of one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let is_better = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let spread = iqr_share(a).max(iqr_share(b));
    if spread > bound {
        let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&x| a.iter().all(|&y| f(x, y)));
        if all(&|x, y| is_better(x, y)) {
            Verdict::Ok
        } else if worse_by > bound && all(&|x, y| is_better(y, x)) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn numbers(v: Option<&Json>) -> Vec<f64> {
    v.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// The comparison report and whether any metric regressed. `Err` when
/// the two files cannot be compared at all (different labels or sizes).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let label = |j: &Json| {
        j.get("label")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    if label(a) != label(b) {
        return Err(format!(
            "labels differ ({} vs {}): results under different parameter sets or sizes are never compared",
            label(a),
            label(b)
        ));
    }
    let mut out = String::new();
    let comparable = |j: &Json| j.get("comparable").and_then(Json::as_bool).unwrap_or(false);
    if !(comparable(a) && comparable(b)) {
        let _ = writeln!(
            out,
            "warning: label {:?} is not a contract-size run; for harness checks only",
            label(a)
        );
    }
    let mut regressed = false;
    let empty: &[(String, Json)] = &[];
    let wa = a.get("workloads").and_then(Json::as_obj).unwrap_or(empty);
    for (name, ra) in wa {
        let Some(rb) = b.get("workloads").and_then(|w| w.get(name)) else {
            let _ = writeln!(out, "{name}: missing from B");
            regressed = true;
            continue;
        };
        let _ = writeln!(out, "== {name}");
        let _ = writeln!(
            out,
            "  {:<20} {:>14} {:>14} {:>9}  {:<6} verdict",
            "metric", "A (base)", "B", "B/A", "bound"
        );
        for m in END_TO_END {
            let va = numbers(ra.get("end_to_end").and_then(|e| e.get(m.name)));
            let vb = numbers(rb.get("end_to_end").and_then(|e| e.get(m.name)));
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(out, "  {:<20} missing", m.name);
                regressed = true;
                continue;
            }
            let verdict = judge(&va, &vb, m.better, m.bound);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "  {:<20} {:>14.6} {:>14.6} {:>9.4}  {:<6} {} ({} {}, n={}/{})",
                m.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                format!("{}%", m.bound * 100.0),
                verdict.word(),
                m.better.word(),
                m.unit,
                va.len(),
                vb.len()
            );
        }
        // Counts must repeat exactly between two runs of one commit and
        // seed; a difference is listed, never averaged away.
        let mut listed = Vec::new();
        let mut exact = |key: &str, va: Vec<f64>, vb: Vec<f64>| {
            let same = va
                .first()
                .zip(vb.first())
                .is_some_and(|(x, y)| (x - y).abs() <= 1e-12 * x.abs().max(y.abs()));
            if !same {
                listed.push(format!("{key}: {:?} vs {:?}", va.first(), vb.first()));
            }
        };
        exact(
            "ops_failed",
            numbers(ra.get("ops_failed")),
            numbers(rb.get("ops_failed")),
        );
        for m in PER_LAYER.iter().filter(|m| m.source == Source::Run) {
            exact(
                m.name,
                numbers(ra.get("per_layer").and_then(|e| e.get(m.name))),
                numbers(rb.get("per_layer").and_then(|e| e.get(m.name))),
            );
        }
        if listed.is_empty() {
            let _ = writeln!(out, "  ops_failed and every R counter identical");
        } else {
            let _ = writeln!(out, "  counters that differ ({}):", listed.len());
            for l in listed {
                let _ = writeln!(out, "    {l}");
            }
        }
    }
    let _ = writeln!(
        out,
        "{}",
        if regressed {
            "RESULT: regressed"
        } else {
            "RESULT: no regression"
        }
    );
    Ok((out, regressed))
}
