//! `bench` — the one command.
//!
//! * `bench` — every workload, each in its own child process, untraced
//!   then traced; prints every metric and writes the result file.
//! * `bench --workload W --seed N --seconds S --trace 0|1` — one run of
//!   one workload in this process; the last stdout line is the result
//!   object `BENCHMARK.json`'s contract describes.
//! * `bench --smoke` — all workloads at ≈ 1/20 size (not comparable).
//! * `bench --compare A.json B.json` — B against base A; exit 1 on a
//!   regression.
//! * `bench --params oracle|fast` — knob override (not comparable).
//! * `bench --manifest` — prints `BENCHMARK.json`.

use dda_benchmark::inputs::{Knobs, RunOptions, Size};
use dda_benchmark::json::Json;
use dda_benchmark::outcome::RunOutcome;
use dda_benchmark::report::{manifest, print_run, result_file, WorkloadResult};
use dda_benchmark::spec::{RUN_SECONDS, WORKLOADS};
use dda_benchmark::{compare, run_workload, DEFAULT_SEED};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: bench [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
[--smoke] [--params shipped|oracle|fast] [--measured STEPS] [--runs K] [--out FILE] \
| --compare A.json B.json | --manifest";

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    trace: Option<bool>,
    seed: u64,
    seconds: Option<f64>,
    size: Size,
    knobs: Knobs,
    measured: Option<usize>,
    runs: usize,
    out: String,
    compare: Option<(String, String)>,
    manifest: bool,
}

/// Strict parser: an unknown flag or an unparsable value is an error.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        trace: None,
        seed: DEFAULT_SEED,
        seconds: None,
        size: Size::Full,
        knobs: Knobs::Shipped,
        measured: None,
        runs: 1,
        out: "benchmark/target/bench-results.json".into(),
        compare: None,
        manifest: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                cli.workload = Some(w);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--smoke" => cli.size = Size::Smoke,
            "--params" => {
                cli.knobs = match value()?.as_str() {
                    "shipped" => Knobs::Shipped,
                    "oracle" => Knobs::Oracle,
                    "fast" => Knobs::Fast,
                    other => return Err(format!("unknown --params {other:?}")),
                }
            }
            "--measured" => {
                let m: usize = value()?.parse().map_err(|e| format!("--measured: {e}"))?;
                if !(1..=100_000).contains(&m) {
                    return Err("--measured must be in 1..=100000".into());
                }
                cli.measured = Some(m);
            }
            "--runs" => {
                cli.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&cli.runs) {
                    return Err("--runs must be in 1..=100".into());
                }
            }
            "--out" => cli.out = value()?,
            "--compare" => cli.compare = Some((value()?, value()?)),
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.workload.is_some() != cli.trace.is_some() {
        return Err("--workload and --trace go together".into());
    }
    Ok(cli)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Rebuilds a `RunOutcome` from a child's contract line.
fn outcome_from(line: &Json, traced: bool) -> Option<RunOutcome> {
    let names: Vec<&'static str> = if traced {
        dda_benchmark::spec::PER_LAYER
            .iter()
            .map(|m| m.name)
            .collect()
    } else {
        dda_benchmark::spec::END_TO_END
            .iter()
            .map(|m| m.name)
            .collect()
    };
    let mut out = RunOutcome {
        correct: line.get("correct")?.as_bool()?,
        attempted: line.get("attempted")?.as_f64()? as u64,
        failed: line.get("failed")?.as_f64()? as u64,
        ..RunOutcome::default()
    };
    let metrics = line.get("metrics")?;
    for name in names {
        out.metrics
            .insert(name, metrics.get(name)?.get("value")?.as_f64()?);
    }
    Some(out)
}

/// Runs one workload run in a child process of this same binary, so peak
/// memory is per run and the `simt` thread pool starts cold. The child's
/// report passes through; its last stdout line is parsed.
fn run_child(cli: &Cli, workload: &str, traced: bool, seconds: f64) -> Result<RunOutcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if traced { "1" } else { "0" },
    ])
    .args(["--seed", &cli.seed.to_string()])
    .args(["--seconds", &seconds.to_string()])
    .args(["--params", cli.knobs.label()]);
    if cli.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    if let Some(m) = cli.measured {
        cmd.args(["--measured", &m.to_string()]);
    }
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let output = child.wait_with_output().map_err(|e| format!("wait: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{l}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {traced}) exited with {}",
            output.status
        ));
    }
    Json::parse(last)
        .ok()
        .and_then(|j| outcome_from(&j, traced))
        .ok_or_else(|| format!("{workload} (trace {traced}): no result line"))
}

fn run_all(cli: &Cli) -> Result<bool, String> {
    let seconds = cli.seconds.unwrap_or(if cli.size == Size::Smoke {
        0.2
    } else {
        RUN_SECONDS as f64
    });
    let comparable = cli.size == Size::Full && cli.measured.is_none();
    let label = match (cli.size, cli.measured) {
        (Size::Smoke, _) => format!("{}-smoke", cli.knobs.label()),
        (_, Some(m)) => format!("{}-measured{m}", cli.knobs.label()),
        _ => cli.knobs.label().to_string(),
    };
    println!(
        "bench: label {label}{}, seed {}, {seconds} s per run, {} repetition(s), available_parallelism {}",
        if comparable { "" } else { " (NOT comparable with contract-size results)" },
        cli.seed,
        cli.runs,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("axes: host = wall-clock of this simulator (measured); modeled = Device::modeled_seconds() under the K40/K20 profiles (deterministic; the model is unvalidated against real hardware, so no accuracy figure is given)");
    let mut results = Vec::new();
    let mut all_ok = true;
    for w in WORKLOADS {
        let mut res = WorkloadResult {
            name: w.name.to_string(),
            ..WorkloadResult::default()
        };
        for _ in 0..cli.runs {
            for traced in [false, true] {
                let out = run_child(cli, w.name, traced, seconds)?;
                all_ok &= out.correct;
                if traced {
                    res.traced.push(out);
                } else {
                    res.untraced.push(out);
                }
            }
        }
        results.push(res);
    }
    let doc = result_file(&label, comparable, cli.seed, seconds, &results);
    if let Some(dir) = std::path::Path::new(&cli.out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&cli.out, doc.render_pretty()).map_err(|e| format!("{}: {e}", cli.out))?;
    println!("wrote {}", cli.out);
    for r in &results {
        let failed: u64 = r.untraced.iter().map(|o| o.failed).sum();
        let ops: u64 = r.untraced.iter().map(|o| o.attempted).sum();
        println!("{:<18} ops {ops:>6} ops_failed {failed:>5}", r.name);
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.manifest {
        print!("{}", manifest().render_pretty());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &cli.compare {
        return match read_json(a)
            .and_then(|a| Ok((a, read_json(b)?)))
            .and_then(|(a, b)| compare::compare(&a, &b))
        {
            Ok((report, regressed)) => {
                print!("{report}");
                ExitCode::from(regressed as u8)
            }
            Err(e) => {
                eprintln!("bench --compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let (Some(workload), Some(traced)) = (&cli.workload, cli.trace) {
        let opts = RunOptions {
            seed: cli.seed,
            seconds: cli.seconds.unwrap_or(RUN_SECONDS as f64),
            size: cli.size,
            knobs: cli.knobs,
            measured: cli.measured,
        };
        let Some(mut out) = run_workload(workload, traced, &opts) else {
            eprintln!("bench: unknown workload {workload:?}");
            return ExitCode::from(2);
        };
        let line = out.contract_json(traced);
        print_run(workload, traced, &out);
        println!("{}", line.render());
        // A failed output check fails the command.
        return ExitCode::from(!out.correct as u8);
    }
    match run_all(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench: an output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(1)
        }
    }
}
