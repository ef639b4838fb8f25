//! Runs `perfbench --smoke` (every workload at reduced sizes, timed and
//! traced) and checks that each run verifies and prints exactly the
//! metrics `BENCHMARK.json` declares, with their units.

use rtx_obs::json::{parse, Json};
use std::process::Command;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(bench: &Json, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Json::items)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric in one printed result.
fn printed(result: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("result without metrics");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::str).expect("unit");
            assert!(
                matches!(m.get("value"), Some(Json::Num(_))),
                "{name} has no value"
            );
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn smoke_mode_verifies_and_prints_the_declared_metrics() {
    let manifest = env!("CARGO_MANIFEST_DIR");
    let bench = std::fs::read_to_string(format!("{manifest}/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let bench = parse(&bench).expect("BENCHMARK.json parses");
    let end_to_end = sorted(declared(&bench, "end_to_end"));
    let per_layer = sorted(declared(&bench, "per_layer"));

    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.arg("--smoke");
    for (k, _) in std::env::vars() {
        if k.starts_with("RTX_") {
            cmd.env_remove(k);
        }
    }
    let out = cmd.output().expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke mode failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut runs = 0;
    let mut mode = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("# smoke ") {
            mode = Some(rest.ends_with("trace=1"));
            continue;
        }
        if !line.starts_with('{') {
            continue;
        }
        let result = parse(line).expect("result line parses");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{line}");
        let Some(traced) = mode.take() else {
            continue; // the closing summary line
        };
        let want = if traced { &per_layer } else { &end_to_end };
        assert_eq!(&sorted(printed(&result)), want, "{line}");
        runs += 1;
    }
    assert_eq!(runs, 8, "four workloads, timed and traced");
}
