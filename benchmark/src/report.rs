//! Printed reports, the result file, and the `BENCHMARK.json` manifest.

use crate::json::Json;
use crate::outcome::RunOutcome;
use crate::spec::{Source, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// Prints one run's metrics by name, with unit, axis and sample count.
pub fn print_run(workload: &str, traced: bool, out: &RunOutcome) {
    println!(
        "== {workload} ({}) — ops {} failed {} correct {}",
        if traced {
            "traced run: per-layer"
        } else {
            "untraced run: end-to-end"
        },
        out.attempted,
        out.failed,
        out.correct
    );
    let samples = |name: &str| {
        out.samples
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(String::new(), |(_, n)| format!("n={n}"))
    };
    let value = |name: &str| out.metrics.get(name).copied().unwrap_or(f64::NAN);
    if traced {
        for m in PER_LAYER {
            let src = match m.source {
                Source::Ladder => "L ladder",
                Source::Run => "R counter",
                Source::RunHost => "R host",
            };
            println!(
                "  {:<36} {:>16.6} {:<6} {src}",
                m.name,
                value(m.name),
                m.unit
            );
        }
    } else {
        for m in END_TO_END {
            println!(
                "  {:<20} {:>16.6} {:<5} {:<8} {}",
                m.name,
                value(m.name),
                m.unit,
                m.axis.word(),
                samples(m.name)
            );
        }
    }
    for n in &out.notes {
        println!("  note: {n}");
    }
}

/// The `BENCHMARK.json` document, generated from the spec tables.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--bin",
        "bench",
        "--",
    ];
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(command.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths".into(), Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(w.name)),
                            ("why".into(), Json::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(m.name)),
                            ("unit".into(), Json::str(m.unit)),
                            ("better".into(), Json::str(m.better.word())),
                            ("bound".into(), Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(m.name)),
                            ("unit".into(), Json::str(m.unit)),
                            ("better".into(), Json::str(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One workload's entry in a result file: both runs of every repetition.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Untraced runs, one per repetition.
    pub untraced: Vec<RunOutcome>,
    /// Traced runs, one per repetition.
    pub traced: Vec<RunOutcome>,
}

fn series(runs: &[RunOutcome], names: &[&str]) -> Json {
    Json::Obj(
        names
            .iter()
            .map(|&n| {
                (
                    n.to_string(),
                    Json::Arr(
                        runs.iter()
                            .map(|r| Json::Num(r.metrics.get(n).copied().unwrap_or(f64::NAN)))
                            .collect(),
                    ),
                )
            })
            .collect(),
    )
}

/// The result file: per workload and metric the value of every
/// repetition, so `--compare` can judge spread as well as medians.
pub fn result_file(
    label: &str,
    comparable: bool,
    seed: u64,
    seconds: f64,
    results: &[WorkloadResult],
) -> Json {
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("schema".into(), Json::str("dda-benchmark/1")),
        ("label".into(), Json::str(label)),
        ("comparable".into(), Json::Bool(comparable)),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("available_parallelism".into(), Json::Num(nproc as f64)),
        (
            "axes".into(),
            Json::str(
                "host = wall-clock of this simulator on this machine (measured); modeled = Device::modeled_seconds() under the K40/K20 profiles (deterministic; unvalidated against real hardware, so no accuracy figure is given)",
            ),
        ),
        (
            "workloads".into(),
            Json::Obj(
                results
                    .iter()
                    .map(|w| {
                        let ops = |runs: &[RunOutcome], f: &dyn Fn(&RunOutcome) -> f64| {
                            Json::Arr(runs.iter().map(|r| Json::Num(f(r))).collect())
                        };
                        (
                            w.name.clone(),
                            Json::Obj(vec![
                                ("ops".into(), ops(&w.untraced, &|r| r.attempted as f64)),
                                ("ops_failed".into(), ops(&w.untraced, &|r| r.failed as f64)),
                                (
                                    "correct".into(),
                                    Json::Bool(
                                        w.untraced.iter().chain(&w.traced).all(|r| r.correct),
                                    ),
                                ),
                                ("end_to_end".into(), series(&w.untraced, &e2e)),
                                ("per_layer".into(), series(&w.traced, &layer)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}
