//! Smoke size of the benchmark: tiny terrains and the fewest whole
//! cycles each workload's percentiles allow, once per workload with
//! tracing off and once with it on. Checks that every metric declared in
//! `BENCHMARK.json` is emitted with its declared unit, and that the
//! output checks ran and passed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("{other:?} is not an object"),
        }
    }
}

/// A small recursive-descent JSON reader, enough for the benchmark's
/// own files and output lines.
fn parse(text: &str) -> Json {
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn string(b: &[u8], i: &mut usize) -> String {
        assert_eq!(b[*i], b'"');
        *i += 1;
        let mut out = String::new();
        while b[*i] != b'"' {
            if b[*i] == b'\\' {
                *i += 1;
                match b[*i] {
                    b'u' => {
                        let hex = std::str::from_utf8(&b[*i + 1..*i + 5]).unwrap();
                        out.push(char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap());
                        *i += 4;
                    }
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    c => out.push(c as char),
                }
                *i += 1;
            } else {
                let start = *i;
                while b[*i] != b'"' && b[*i] != b'\\' {
                    *i += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*i]).unwrap());
            }
        }
        *i += 1;
        out
    }
    fn value(b: &[u8], i: &mut usize) -> Json {
        ws(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut m = BTreeMap::new();
                ws(b, i);
                if b[*i] == b'}' {
                    *i += 1;
                    return Json::Obj(m);
                }
                loop {
                    ws(b, i);
                    let k = string(b, i);
                    ws(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    assert!(m.insert(k.clone(), value(b, i)).is_none(), "duplicate key {k}");
                    ws(b, i);
                    *i += 1;
                    if b[*i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut a = Vec::new();
                ws(b, i);
                if b[*i] == b']' {
                    *i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(value(b, i));
                    ws(b, i);
                    *i += 1;
                    if b[*i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => Json::Str(string(b, i)),
            b't' => {
                *i += 4;
                Json::Bool(true)
            }
            b'f' => {
                *i += 5;
                Json::Bool(false)
            }
            b'n' => {
                *i += 4;
                Json::Null
            }
            _ => {
                let start = *i;
                while *i < b.len()
                    && (b[*i] == b'-'
                        || b[*i] == b'+'
                        || b[*i] == b'.'
                        || b[*i] == b'e'
                        || b[*i] == b'E'
                        || b[*i].is_ascii_digit())
                {
                    *i += 1;
                }
                Json::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
            }
        }
    }
    let b = text.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i);
    ws(b, &mut i);
    assert_eq!(i, b.len(), "trailing text after JSON value");
    v
}

fn declared() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark"))
}

/// Runs one smoke-size run; returns the host record and the result.
fn smoke_run(workload: &str, trace: bool) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_hsr-perf"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run hsr-perf");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: expected a host record and a result:\n{stdout}");
    (parse(lines[lines.len() - 2]).get("host").clone(), parse(lines[lines.len() - 1]))
}

/// The per-layer metrics a workload's traced run reaches: every one must
/// have samples and a non-zero value there. A name ending in `.` stands
/// for every metric of that layer.
fn layers_called(workload: &str) -> &'static [&'static str] {
    match workload {
        "views-local" => &["hsr-core.", "hsr-pram.", "hsr-pstruct.", "hsr-geometry."],
        "serve-views" => &[
            "serde_json.",
            "hsr-serve.residual_ms",
            "hsr-core.evaluate_ms",
        ],
        "ingest-tiled" => &[
            "ingest_mib_s",
            "cold_query_ms_p50",
            "hsr-serve.upload_ms_per_chunk",
            "hsr-catalog.",
            "hsr-tile.",
        ],
        other => panic!("no layer list for workload {other}"),
    }
}

fn check(workload: &str, trace: bool, metrics: &[Json]) {
    let (host, result) = smoke_run(workload, trace);
    let keys: Vec<&str> = result.obj().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}: outputs failed their checks"
    );
    assert_eq!(result.get("failed").num(), 0.0);
    let attempted = result.get("attempted").num();
    assert!(attempted >= 1.0);
    // Every op was checked.
    assert_eq!(host.get("checks").num(), attempted, "{workload}: ops without an output check");
    assert_eq!(host.get("workload").str(), workload);
    let emitted = result.get("metrics").obj();
    assert_eq!(emitted.len(), metrics.len(), "{workload} trace={trace}: {:?}", emitted.keys());
    for m in metrics {
        let name = m.get("name").str();
        let got = emitted
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
        assert_eq!(got.get("unit").str(), m.get("unit").str(), "{workload}: unit of {name}");
        let value = got.get("value").num();
        assert!(value.is_finite());
        // End-to-end metrics are compared as ratios between runs.
        assert!(trace || value > 0.0, "{workload}: {name} reads {value}");
        let called = layers_called(workload)
            .iter()
            .any(|l| name == *l || (l.ends_with('.') && name.starts_with(l)));
        if trace && called {
            let samples = host.get("samples").get(name).num();
            assert!(samples > 0.0, "{workload}: no {name} samples");
            assert!(value != 0.0, "{workload}: {name} reads 0 over {samples} samples");
        }
    }
    if trace {
        // Every layer list names something this benchmark declares.
        for l in layers_called(workload) {
            assert!(
                metrics.iter().any(|m| m.get("name").str().starts_with(l)),
                "{workload}: {l} matches no declared metric"
            );
        }
    }
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit_and_outputs_are_checked() {
    let bench = declared();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["views-local", "serve-views", "ingest-tiled"]);
    for w in &workloads {
        check(w, false, bench.get("end_to_end").arr());
        check(w, true, bench.get("per_layer").arr());
    }
}

#[test]
fn malformed_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "views-local",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "views-local",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "views-local"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hsr-perf"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("run hsr-perf");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
