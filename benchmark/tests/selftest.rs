//! Self-test of the benchmark: every workload at the shortest length and
//! the default seed, untraced and traced. Every metric `BENCHMARK.json`
//! names must be present, finite and carry a unit, and nothing may fail.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A parsed JSON value (just enough JSON for the benchmark's own files).
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
            Json::Obj(map) => map.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value();
        parser.skip_ws();
        assert_eq!(parser.at, parser.bytes.len(), "trailing data in {text:?}");
        value
    }

    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_ws();
        assert_eq!(
            self.bytes.get(self.at),
            Some(&byte),
            "expected {:?}",
            byte as char
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        *self.bytes.get(self.at).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let key = self.string();
                        self.eat(b':');
                        map.insert(key, self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b'}');
                Json::Obj(map)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() != b']' {
                    loop {
                        items.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("utf-8");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|e| panic!("number {text:?}: {e}")),
                )
            }
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Json {
        assert!(
            self.bytes[self.at..].starts_with(word.as_bytes()),
            "expected {word}"
        );
        self.at += word.len();
        value
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let byte = self.bytes[self.at];
            self.at += 1;
            match byte {
                b'"' => return out,
                b'\\' => {
                    let escaped = self.bytes[self.at];
                    self.at += 1;
                    out.push(match escaped {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences whole.
                    let start = self.at - 1;
                    let len = match byte {
                        0xf0..=0xff => 4,
                        0xe0..=0xef => 3,
                        0xc0..=0xdf => 2,
                        _ => 1,
                    };
                    self.at = start + len;
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.at]).expect("utf-8"));
                }
            }
        }
    }
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repository root")
}

fn benchmark_json() -> Json {
    let path = repo_root().join("BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
}

fn names(spec: &Json, list: &str) -> Vec<(String, String)> {
    match spec.get(list) {
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                let name = m.get("name").str().expect("metric name").to_string();
                let unit = m.get("unit").str().unwrap_or("").to_string();
                (name, unit)
            })
            .collect(),
        other => panic!("{list} is not a list: {other:?}"),
    }
}

/// Runs one workload at the shortest length and returns its result line.
fn run(workload: &str, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_vaem-benchmark"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "2012", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{stdout}",
        output.status
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Parser::parse(last);
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}:\n{stdout}"
    );
    assert_eq!(
        result.get("failed").num(),
        Some(0.0),
        "{workload}:\n{stdout}"
    );
    assert!(result.get("attempted").num().unwrap_or(0.0) >= 1.0);
    result
}

fn assert_metrics(workload: &str, result: &Json, expected: &[(String, String)]) {
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    for (name, unit) in expected {
        let metric = &metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        let value = metric.get("value").num();
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
        assert_eq!(
            metric.get("unit").str(),
            Some(unit.as_str()),
            "{workload}: {name} unit"
        );
        assert!(!unit.is_empty(), "{workload}: {name} has no unit");
    }
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .get(name)
        .get("value")
        .num()
        .unwrap_or(f64::NAN)
}

#[test]
fn every_workload_reports_every_metric_and_fails_nothing() {
    let spec = benchmark_json();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let Json::Arr(workloads) = spec.get("workloads") else {
        panic!("workloads is not a list");
    };
    for workload in workloads {
        let name = workload.get("name").str().expect("workload name");
        assert_metrics(name, &run(name, false), &end_to_end);
        let traced = run(name, true);
        assert_metrics(name, &traced, &per_layer);
        assert_eq!(value(&traced, "fail_ratio"), 0.0, "{name}");
    }
}

#[test]
fn json_parser_reads_the_result_line_shape() {
    let parsed = Parser::parse(
        r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a.b": {"value": 1.5e-3, "unit": "ms"}}, "x": [null, false]}"#,
    );
    assert_eq!(parsed.get("attempted").num(), Some(3.0));
    assert_eq!(
        parsed.get("metrics").get("a.b").get("value").num(),
        Some(1.5e-3)
    );
    assert_eq!(
        parsed.get("x"),
        &Json::Arr(vec![Json::Null, Json::Bool(false)])
    );
}
