//! The benchmark's own tests, on same-shape miniatures of each workload.
//!
//! Simulations touch process-wide state (the observability switch, the
//! global event counter), so every test that runs one holds `SERIAL`.

use std::sync::Mutex;

use perfbench::spans::Probe;
use perfbench::workloads::{self, Params, Workload};
use perfbench::{run, END_TO_END, PER_LAYER};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn each_workload_reproduces_its_digest_twice() {
    let _g = serial();
    for w in Workload::ALL {
        let params = Params::debug(w);
        let a = workloads::pass(&params, 7, &mut Probe::new(false));
        let b = workloads::pass(&params, 7, &mut Probe::new(false));
        assert!(a.problems.is_empty(), "{}: {:?}", w.name(), a.problems);
        assert_eq!(a.digest, b.digest, "{} digest did not repeat", w.name());
    }
}

#[test]
fn metro_digest_is_the_same_on_one_and_two_workers() {
    let _g = serial();
    let Params::Metro {
        rows,
        cols,
        senders,
        horizon_ms,
        ..
    } = Params::debug(Workload::Metro)
    else {
        unreachable!("the metro workload has metro params")
    };
    let digest = |workers| {
        let params = Params::Metro {
            rows,
            cols,
            senders,
            horizon_ms,
            workers,
        };
        workloads::pass(&params, 3, &mut Probe::new(false)).digest
    };
    assert_eq!(digest(1), digest(2));
}

#[test]
fn output_parses_and_reports_every_metric() {
    let _g = serial();
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(w, &Params::debug(w), 5, 0.0, trace);
            let line = parse(&out.result_line());
            let keys: Vec<&str> = line.object().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("correct"),
                &Json::Bool(true),
                "{}: {}",
                w.name(),
                out.provenance
            );
            assert_eq!(line.get("failed").number(), 0.0);
            assert!(line.get("attempted").number() >= 1.0);
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let metrics = line.get("metrics").object();
            assert_eq!(metrics.len(), table.len());
            for ((name, m), &(want, unit)) in metrics.iter().zip(table) {
                assert_eq!(name, want);
                let fields: Vec<&str> = m.object().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(fields, ["value", "unit"]);
                assert!(m.get("value").number().is_finite());
                assert_eq!(m.get("unit"), &Json::Str(unit.to_string()));
            }
            parse(&out.provenance);
            if trace {
                // Self times plus the remainder account for the whole
                // traced wall time.
                let value = |n: &str| {
                    metrics
                        .iter()
                        .find(|(k, _)| k == n)
                        .unwrap()
                        .1
                        .get("value")
                        .number()
                };
                let parts: f64 = PER_LAYER
                    .iter()
                    .filter(|(n, _)| n.ends_with(".self_s") || *n == "untimed_s")
                    .map(|(n, _)| value(n))
                    .sum();
                assert!((parts - value("traced.wall_s")).abs() < 1e-6);
            }
        }
    }
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name}"
        );
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit}"
        );
        assert!(seen.insert(*name), "metric {name} listed twice");
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = perfbench::host::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text);
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        doc.get(key)
            .array()
            .iter()
            .map(|e| {
                let unit = e
                    .object()
                    .iter()
                    .find(|(k, _)| k == "unit")
                    .map(|(_, u)| u.string());
                (e.get("name").string(), unit)
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    let workloads: Vec<(String, Option<String>)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), None))
        .collect();
    assert_eq!(names("workloads"), workloads);
    assert_eq!(names("end_to_end"), table(&END_TO_END));
    assert_eq!(names("per_layer"), table(&PER_LAYER));
}

/// Just enough JSON to check the benchmark's own output.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn object(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn array(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn get(&self, key: &str) -> &Json {
        let found = self.object().iter().find(|(k, _)| k == key);
        &found.unwrap_or_else(|| panic!("missing key {key}")).1
    }

    fn number(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    fn string(&self) -> String {
        match self {
            Json::Str(s) => s.clone(),
            other => panic!("expected a string, got {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing input after JSON value");
    v
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) {
    skip_ws(b, pos);
    assert_eq!(
        b.get(*pos),
        Some(&c),
        "expected '{}' at byte {}",
        c as char,
        *pos
    );
    *pos += 1;
}

fn value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b'}' {
                *pos += 1;
                return Json::Obj(fields);
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(key) = value(b, pos) else {
                    panic!("object keys are strings")
                };
                expect(b, pos, b':');
                fields.push((key, value(b, pos)));
                skip_ws(b, pos);
                *pos += 1;
                match b[*pos - 1] {
                    b',' => continue,
                    b'}' => return Json::Obj(fields),
                    c => panic!("unexpected '{}' in object", c as char),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b']' {
                *pos += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(value(b, pos));
                skip_ws(b, pos);
                *pos += 1;
                match b[*pos - 1] {
                    b',' => continue,
                    b']' => return Json::Arr(items),
                    c => panic!("unexpected '{}' in array", c as char),
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut s = String::new();
            loop {
                let c = b[*pos];
                *pos += 1;
                match c {
                    b'"' => return Json::Str(s),
                    b'\\' => {
                        let e = b[*pos];
                        *pos += 1;
                        match e {
                            b'u' => {
                                let hex = std::str::from_utf8(&b[*pos..*pos + 4]).unwrap();
                                s.push(
                                    char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                                );
                                *pos += 4;
                            }
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            other => s.push(other as char),
                        }
                    }
                    _ => {
                        // Copy the whole UTF-8 sequence starting here.
                        let start = *pos - 1;
                        let len = match c {
                            0xF0.. => 4,
                            0xE0.. => 3,
                            0xC0.. => 2,
                            _ => 1,
                        };
                        s.push_str(std::str::from_utf8(&b[start..start + len]).unwrap());
                        *pos = start + len;
                    }
                }
            }
        }
        b't' | b'f' | b'n' => {
            for (word, v) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if b[*pos..].starts_with(word.as_bytes()) {
                    *pos += word.len();
                    return v;
                }
            }
            panic!("bad literal at byte {}", *pos)
        }
        _ => {
            let start = *pos;
            while *pos < b.len() && (b[*pos].is_ascii_digit() || b"+-.eE".contains(&b[*pos])) {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).unwrap();
            Json::Num(
                text.parse()
                    .unwrap_or_else(|_| panic!("bad number '{text}'")),
            )
        }
    }
}
