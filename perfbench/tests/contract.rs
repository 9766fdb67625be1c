//! The benchmark's own contract: a short run of every workload emits every
//! metric `BENCHMARK.json` names, with its unit, passes its output checks,
//! and the ledger's residuals are the differences of their named terms.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// A minimal JSON value: enough for `BENCHMARK.json` and the result line.
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
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(self.s[self.i], b, "expected {:?} at {}", b as char, self.i);
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not expected");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                while self.peek() != b'}' {
                    let k = self.string();
                    self.eat(b':');
                    assert!(
                        m.insert(k.clone(), self.value()).is_none(),
                        "duplicate key {k}"
                    );
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut a = Vec::new();
                while self.peek() != b']' {
                    a.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(a)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).unwrap() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n}"))),
                }
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap())
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Run the benchmark binary and parse its last output line.
fn run(workload: &str, seconds: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Json::parse(stdout.lines().last().unwrap());
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload} checks failed:\n{stdout}"
    );
    assert_eq!(result.get("failed").num(), 0.0, "{stdout}");
    assert!(result.get("attempted").num() >= 1.0);
    result
}

/// The metrics of `result` are exactly those `BENCHMARK.json` declares in
/// `list`, with the same units; returns name → value.
fn metrics(result: &Json, list: &str) -> BTreeMap<String, f64> {
    let Json::Obj(m) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let emitted: Vec<(String, String)> = m
        .iter()
        .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
        .collect();
    let mut want = declared(list);
    want.sort();
    assert_eq!(
        emitted, want,
        "emitted metrics differ from BENCHMARK.json {list}"
    );
    m.iter()
        .map(|(k, v)| (k.clone(), v.get("value").num()))
        .collect()
}

fn check_workload(workload: &str, seconds: u64) {
    let e2e = metrics(&run(workload, seconds, false), "end_to_end");
    for (name, v) in &e2e {
        assert!(v.is_finite() && *v > 0.0, "{workload}: {name} = {v}");
    }
    let l = metrics(&run(workload, seconds, true), "per_layer");
    let wire =
        l["wire.get.p50_us"] - l["engine.get_ns"] / 1e3 - l["protocol.get.roundtrip_ns"] / 1e3;
    assert!((l["wire.residual_us"] - wire).abs() < 1e-9, "wire residual");
    let coord = if l["coordinator.get.count"] > 0.0 {
        l["coordinator.get.p50_us"] - l["wire.get.p50_us"] - l["chash.lookup_ns"] / 1e3
    } else {
        0.0
    };
    assert!(
        (l["coordinator.residual_us"] - coord).abs() < 1e-9,
        "coordinator residual"
    );
    for name in [
        "wire.get.p50_us",
        "engine.get_ns",
        "protocol.get.roundtrip_ns",
        "chash.lookup_ns",
        "reactor.cpu_s",
        "process.cpu_s",
    ] {
        assert!(l[name] > 0.0, "{workload}: {name} not measured");
    }
}

#[test]
fn elastic_live_emits_every_metric_and_passes_its_checks() {
    check_workload("elastic_live", 4);
}

#[test]
fn write_growth_emits_every_metric_and_passes_its_checks() {
    check_workload("write_growth", 4);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty() || !String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
