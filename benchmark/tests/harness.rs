//! Tests of the harness itself: the statistics rules, the JSON reader
//! and writer, name validation, seed determinism of every workload's
//! generator, trace attribution, the comparison verdicts, and that a
//! smoke run produces every metric `BENCHMARK.json` names.

use dda_benchmark::compare::{compare, judge, Verdict};
use dda_benchmark::fleet::module_seconds;
use dda_benchmark::inputs::{fleet_traffic, input_fingerprint, k40, solo_input, Knobs, Size};
use dda_benchmark::json::Json;
use dda_benchmark::report::manifest;
use dda_benchmark::spec::{valid_name, Better, END_TO_END, PER_LAYER, WORKLOADS};
use dda_benchmark::stats::{iqr_share, median, percentile, tail_percentile};
use dda_core::pipeline::fleet::system_fingerprint;
use dda_core::pipeline::GpuPipeline;
use std::path::Path;
use std::process::Command;

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    // (samples, highest ladder percentile with >= 10 beyond)
    for (n, want) in [
        (10, 50.0),
        (39, 50.0),
        (40, 75.0),
        (48, 75.0),
        (50, 80.0),
        (60, 80.0),
        (99, 80.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (450, 95.0),
        (900, 95.0),
        (1000, 99.0),
    ] {
        assert_eq!(tail_percentile(n), want, "n = {n}");
        let beyond = n - (want as usize * n).div_ceil(100);
        assert!(want == 50.0 || beyond >= 10, "n = {n}: {beyond} beyond");
    }
}

#[test]
fn order_statistics() {
    let v = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(median(&v), 3.0);
    assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    assert_eq!(percentile(&v, 50.0), 3.0);
    assert_eq!(percentile(&v, 80.0), 4.0);
    assert_eq!(percentile(&v, 100.0), 5.0);
    assert!(median(&[]).is_nan());
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((iqr_share(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    assert_eq!(iqr_share(&[7.0]), 0.0);
}

#[test]
fn json_round_trips() {
    let doc = Json::Obj(vec![
        (
            "name".into(),
            Json::str("a \"quoted\"\\ line\nbreak\ttab µ"),
        ),
        ("pi".into(), Json::Num(std::f64::consts::PI)),
        ("tiny".into(), Json::Num(1.2345678901234567e-300)),
        ("neg".into(), Json::Num(-0.1)),
        ("n".into(), Json::Num(20170529.0)),
        ("ok".into(), Json::Bool(true)),
        ("none".into(), Json::Null),
        (
            "list".into(),
            Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![]), Json::Obj(vec![])]),
        ),
    ]);
    for text in [doc.render(), doc.render_pretty()] {
        assert_eq!(Json::parse(&text).expect(&text), doc, "{text}");
    }
    // Every digit survives.
    let x = 0.1 + 0.2;
    assert_eq!(
        Json::parse(&Json::Num(x).render()).unwrap().as_f64(),
        Some(x)
    );
    // Non-finite numbers cannot be written as numbers.
    assert_eq!(Json::Num(f64::NAN).render(), "null");
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
    }
    let deep = "[".repeat(100) + &"]".repeat(100);
    assert!(Json::parse(&deep).is_err(), "nesting is bounded");
}

#[test]
fn names_are_valid_and_unique() {
    for good in [
        "setup_s",
        "op_ms_p50",
        "simt.launches_per_op",
        "a-b.c_9",
        "9lives",
    ] {
        assert!(valid_name(good), "{good}");
    }
    let long = "x".repeat(65);
    for bad in [
        "",
        "has space",
        "slash/no",
        "_lead",
        ".lead",
        "µs",
        long.as_str(),
    ] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(WORKLOADS.iter().map(|w| w.name));
    for n in names {
        assert!(valid_name(n), "{n}");
        assert!(seen.insert(n), "{n} is used twice");
    }
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
}

#[test]
fn generators_are_deterministic_in_the_seed() {
    for w in WORKLOADS.iter().filter(|w| w.name != "fleet_churn") {
        let fp = |seed| {
            let i = solo_input(w.name, seed, Size::Smoke, Knobs::Shipped).expect(w.name);
            input_fingerprint(&i.sys, &i.params)
        };
        assert_eq!(fp(11), fp(11), "{}: same seed, same input", w.name);
        assert_ne!(fp(11), fp(12), "{}: another seed, another input", w.name);
    }
    let stream = |seed| {
        let mut t = fleet_traffic(seed);
        let mut h = 0u64;
        for now in 0..6 {
            for s in t.arrivals(now) {
                h = h.rotate_left(7)
                    ^ system_fingerprint(&s.submission.sys)
                    ^ s.locality
                    ^ s.submission.run_steps;
            }
        }
        h
    };
    assert_eq!(stream(11), stream(11));
    assert_ne!(stream(11), stream(12));
    assert!(solo_input("no_such_workload", 1, Size::Smoke, Knobs::Shipped).is_none());
}

#[test]
fn renumbering_keeps_the_scene_and_moves_the_blocks() {
    let a = solo_input("rockfall_dynamic", 1, Size::Smoke, Knobs::Shipped).unwrap();
    let b = solo_input("rockfall_dynamic", 2, Size::Smoke, Knobs::Shipped).unwrap();
    assert_eq!(a.sys.len(), b.sys.len());
    let area = |s: &dda_core::BlockSystem| {
        let mut v: Vec<u64> = s.blocks.iter().map(|b| b.area().to_bits()).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(area(&a.sys), area(&b.sys), "same blocks, another order");
}

#[test]
fn trace_attribution_reproduces_phase_times() {
    let input = solo_input("rockfall_dynamic", 3, Size::Smoke, Knobs::Shipped).unwrap();
    let mut pipe = GpuPipeline::new(input.sys, input.params, k40());
    for _ in 0..8 {
        pipe.step();
    }
    let by_trace = module_seconds(&pipe.device().trace());
    let t = pipe.times;
    let by_report = [
        t.contact_detection,
        t.diag_building,
        t.nondiag_building,
        t.solving,
        t.interpenetration,
        t.updating,
    ];
    for (m, (a, b)) in by_trace.iter().zip(by_report).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * b.max(1e-12),
            "module {m}: {a} vs {b}"
        );
    }
}

#[test]
fn verdicts_follow_the_rule() {
    let base = [100.0, 101.0, 99.0, 100.5, 99.5];
    let shift = |by: f64| base.map(|x| x * by);
    assert_eq!(judge(&base, &shift(1.05), Better::Lower, 0.10), Verdict::Ok);
    assert_eq!(
        judge(&base, &shift(1.20), Better::Lower, 0.10),
        Verdict::Regressed
    );
    assert_eq!(judge(&base, &shift(0.80), Better::Lower, 0.10), Verdict::Ok);
    assert_eq!(
        judge(&base, &shift(0.80), Better::Higher, 0.10),
        Verdict::Regressed
    );
    // Spread wider than the bound and overlapping runs: unresolved.
    let noisy = [80.0, 120.0, 95.0, 130.0, 70.0];
    assert_eq!(
        judge(
            &noisy,
            &[90.0, 125.0, 100.0, 75.0, 110.0],
            Better::Lower,
            0.10
        ),
        Verdict::Unresolved
    );
    // ...unless every run of the change beats every run of the parent.
    assert_eq!(
        judge(&noisy, &[60.0, 65.0, 50.0], Better::Lower, 0.10),
        Verdict::Ok
    );
    assert_eq!(
        judge(&noisy, &[200.0, 260.0, 210.0], Better::Lower, 0.10),
        Verdict::Regressed
    );
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo")
}

#[test]
fn manifest_matches_benchmark_json() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        doc,
        manifest(),
        "regenerate with `bench --manifest > BENCHMARK.json`"
    );
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let setup = doc
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"));
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

#[test]
fn smoke_produces_every_metric_and_compares_clean() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-results.json");
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .current_dir(repo_root())
        .args(["--smoke", "--seed", "5", "--out"])
        .arg(&out)
        .status()
        .expect("bench runs");
    assert!(
        status.success(),
        "bench --smoke must pass its own output checks"
    );
    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("result file parses");
    assert_eq!(doc.get("comparable").and_then(Json::as_bool), Some(false));
    for w in WORKLOADS {
        let r = doc
            .get("workloads")
            .and_then(|x| x.get(w.name))
            .expect(w.name);
        assert_eq!(
            r.get("correct").and_then(Json::as_bool),
            Some(true),
            "{}",
            w.name
        );
        assert_eq!(
            r.get("ops_failed").unwrap().as_arr().unwrap()[0].as_f64(),
            Some(0.0),
            "{}",
            w.name
        );
        let section = |key: &str, names: Vec<&str>| {
            for n in names {
                let v = r.get(key).and_then(|s| s.get(n)).and_then(Json::as_arr);
                let v = v.unwrap_or_else(|| panic!("{}: {key}.{n} missing", w.name));
                assert!(
                    v[0].as_f64().is_some_and(f64::is_finite),
                    "{}: {n} = {:?}",
                    w.name,
                    v[0]
                );
            }
        };
        section("end_to_end", END_TO_END.iter().map(|m| m.name).collect());
        section("per_layer", PER_LAYER.iter().map(|m| m.name).collect());
        for m in END_TO_END {
            let v = r
                .get("end_to_end")
                .unwrap()
                .get(m.name)
                .unwrap()
                .as_arr()
                .unwrap()[0]
                .as_f64();
            assert!(v.unwrap() > 0.0, "{}: {} must never be 0", w.name, m.name);
        }
    }
    // A result compared with itself shows no regression and no counter
    // differences.
    let (report, regressed) = compare(&doc, &doc).expect("same label");
    assert!(!regressed, "{report}");
    assert!(!report.contains("counters that differ"), "{report}");
    // The scratch directories are gone.
    assert!(!repo_root().join("benchmark/target/bench-scratch").exists());
}
