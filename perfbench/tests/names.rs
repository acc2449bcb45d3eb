//! The metric names and units the command prints match `BENCHMARK.json`
//! exactly, and so do the workload names.

use edgebol_perfbench::report::{catalogue, RunResult, END_TO_END, PER_LAYER};
use edgebol_perfbench::workload::Workload;
use std::collections::BTreeMap;

/// A JSON value, enough of it to read `BENCHMARK.json` and result lines.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no key {key}")).1
            }
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected {:?} at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else { panic!("object key must be a string") };
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(fields),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in
                    [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
                {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `name → unit` of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let Json::Arr(items) = benchmark_json().get(list).clone() else { panic!("{list} is a list") };
    items
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

/// `name → unit` of the metrics a run prints, read back from the line it
/// renders.
fn printed(trace: bool) -> BTreeMap<String, String> {
    let result = RunResult {
        correct: true,
        attempted: 1,
        failed: 0,
        values: catalogue(trace).iter().map(|m| (m.name, 1.5)).collect(),
    };
    let line = Parser::parse(&result.render(catalogue(trace)).expect("complete catalogue"));
    let Json::Obj(metrics) = line.get("metrics").clone() else { panic!("metrics is an object") };
    metrics.iter().map(|(name, m)| (name.clone(), m.get("unit").str().to_string())).collect()
}

#[test]
fn printed_end_to_end_metrics_match_benchmark_json() {
    assert_eq!(printed(false), declared("end_to_end"));
    assert_eq!(END_TO_END.len(), declared("end_to_end").len(), "no duplicate names");
}

#[test]
fn printed_per_layer_metrics_match_benchmark_json() {
    assert_eq!(printed(true), declared("per_layer"));
    assert_eq!(PER_LAYER.len(), declared("per_layer").len(), "no duplicate names");
}

#[test]
fn directions_match_benchmark_json() {
    for (list, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let Json::Arr(items) = benchmark_json().get(list).clone() else { panic!() };
        for (item, spec) in items.iter().zip(specs) {
            assert_eq!(item.get("name").str(), spec.name, "{list} order");
            assert_eq!(item.get("better").str(), spec.better, "{} direction", spec.name);
        }
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let Json::Arr(items) = benchmark_json().get("workloads").clone() else { panic!() };
    let names: Vec<&str> = items.iter().map(|w| w.get("name").str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn render_refuses_missing_duplicate_and_non_finite_metrics() {
    let full: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
    let render = |values: Vec<(&'static str, f64)>| {
        RunResult { correct: true, attempted: 1, failed: 0, values }.render(END_TO_END)
    };
    assert!(render(full.clone()).is_ok());
    assert!(render(full[1..].to_vec()).is_err(), "missing");
    let mut dup = full.clone();
    dup.push(full[0]);
    assert!(render(dup).is_err(), "duplicated");
    let mut nan = full.clone();
    nan[0].1 = f64::NAN;
    assert!(render(nan).is_err(), "non-finite");
    let mut unknown = full;
    unknown.push(("core.step_ms", 1.0));
    assert!(render(unknown).is_err(), "per-layer metric in an end-to-end line");
}
