//! Bench regression guard: diff a fresh `RTX_BENCH_JSON` run against
//! the committed `BENCH_baseline.json`.
//!
//! The report is **informational** — a shared CI container is far too
//! noisy to fail a build on wall-clock ratios — but it makes drift
//! visible per bench group: each group gets the geometric mean of its
//! per-record `fresh / baseline` ratios of the outlier-robust medians,
//! plus the worst single regression inside the group. Run it with:
//!
//! ```text
//! RTX_BENCH_JSON=/tmp/fresh.json cargo bench
//! cargo run -p rtx-bench --bin bench_diff -- /tmp/fresh.json
//! ```

use crate::Table;
use rtx_obs::json::{self, Json};
use std::collections::BTreeMap;

/// One record of a `RTX_BENCH_JSON` file (a subset of the criterion
/// stand-in's `BenchRecord`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchEntry {
    /// Full benchmark label (`group/function/param`).
    pub name: String,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: u128,
    /// Minimum wall time per iteration, nanoseconds.
    pub min_ns: u128,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: u128,
    /// Median absolute deviation, nanoseconds.
    pub mad_ns: u128,
}

impl BenchEntry {
    /// The group prefix of the label (up to the first `/`).
    pub fn group(&self) -> &str {
        self.name.split('/').next().unwrap_or(&self.name)
    }
}

/// Parse the JSON array emitted by the criterion stand-in, through
/// [`rtx_obs::json::parse`]. Every record needs a string `name` and
/// unsigned integer `mean_ns`, `min_ns`, `median_ns` and `mad_ns`;
/// other fields are ignored.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchEntry>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let records = doc
        .items()
        .ok_or_else(|| "expected a top-level JSON array".to_string())?;
    records
        .iter()
        .map(|r| {
            let name = r
                .get("name")
                .and_then(Json::str)
                .ok_or_else(|| "record without a name".to_string())?;
            let required = |k: &str| match r.get(k) {
                None => Err(format!("record `{name}` missing `{k}`")),
                Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u128),
                Some(v) => Err(format!("record `{name}`: `{k}` is not a count: {v:?}")),
            };
            Ok(BenchEntry {
                name: name.to_string(),
                mean_ns: required("mean_ns")?,
                min_ns: required("min_ns")?,
                median_ns: required("median_ns")?,
                mad_ns: required("mad_ns")?,
            })
        })
        .collect()
}

/// Per-group comparison of a fresh run against a baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupDiff {
    /// Bench group (label prefix).
    pub group: String,
    /// Records present in both runs.
    pub matched: usize,
    /// Geometric mean of the per-record `fresh / baseline` ratios.
    pub geomean_ratio: f64,
    /// The worst (largest) single ratio and its record label.
    pub worst: (String, f64),
}

/// Compare two record sets and produce per-group ratios. Records
/// appearing on only one side are counted but not compared.
pub fn diff_groups(baseline: &[BenchEntry], fresh: &[BenchEntry]) -> Vec<GroupDiff> {
    let base: BTreeMap<&str, &BenchEntry> = baseline.iter().map(|e| (e.name.as_str(), e)).collect();
    let mut groups: BTreeMap<&str, Vec<(&str, f64)>> = BTreeMap::new();
    for f in fresh {
        let Some(b) = base.get(f.name.as_str()) else {
            continue;
        };
        let ratio = f.median_ns.max(1) as f64 / b.median_ns.max(1) as f64;
        groups.entry(f.group()).or_default().push((&f.name, ratio));
    }
    groups
        .into_iter()
        .map(|(g, ratios)| {
            let log_sum: f64 = ratios.iter().map(|(_, r)| r.ln()).sum();
            let geomean = (log_sum / ratios.len() as f64).exp();
            let worst = ratios
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("nonempty group");
            GroupDiff {
                group: g.to_string(),
                matched: ratios.len(),
                geomean_ratio: geomean,
                worst: (worst.0.to_string(), worst.1),
            }
        })
        .collect()
}

/// Render the informational report (ratios > 1 are slower than the
/// baseline).
pub fn render_report(baseline: &[BenchEntry], fresh: &[BenchEntry]) -> String {
    let diffs = diff_groups(baseline, fresh);
    let mut t = Table::new(&[
        ("group", 24),
        ("matched", 7),
        ("geomean fresh/base", 18),
        ("worst record", 30),
        ("worst ratio", 11),
    ]);
    for d in &diffs {
        t.row(&[
            d.group.clone(),
            d.matched.to_string(),
            format!("{:.3}×", d.geomean_ratio),
            d.worst.0.clone(),
            format!("{:.3}×", d.worst.1),
        ]);
    }
    let matched: usize = diffs.iter().map(|d| d.matched).sum();
    let mut out = t.render();
    out.push_str(&format!(
        "{} record(s) matched across {} group(s); {} fresh / {} baseline records total.\n\
         Informational only — compare runs recorded on the same host.\n",
        matched,
        diffs.len(),
        fresh.len(),
        baseline.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, median: u128) -> String {
        format!(
            "{{\"name\": \"{name}\", \"iters\": 10, \"mean_ns\": {}, \"min_ns\": {}, \"median_ns\": {median}, \"mad_ns\": 1}}",
            median + 5,
            median - 1
        )
    }

    #[test]
    fn parses_the_standin_format() {
        let text = format!("[\n{},\n{}\n]\n", entry("g/a/1", 100), entry("g/b/2", 200));
        let parsed = parse_bench_json(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "g/a/1");
        assert_eq!(parsed[0].group(), "g");
        assert_eq!(parsed[0].median_ns, 100);
        assert_eq!(parsed[1].mad_ns, 1);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_bench_json("not json").is_err());
        assert!(parse_bench_json("[{\"iters\": 1, \"mean_ns\": 2, \"min_ns\": 1}]").is_err());
        assert!(parse_bench_json("[{\"name\": \"x\", \"mean_ns\": oops}]").is_err());
        // a record without a median is rejected, not compared by its mean
        let no_median = "[{\"name\": \"g/a\", \"mean_ns\": 42, \"min_ns\": 40, \"mad_ns\": 1}]";
        assert!(parse_bench_json(no_median).is_err());
    }

    #[test]
    fn escaped_quotes_in_names_survive() {
        let text =
            "[{\"name\": \"g/say \\\"hi\\\"\", \"iters\": 1, \"mean_ns\": 5, \"min_ns\": 5, \
                    \"median_ns\": 5, \"mad_ns\": 0}]";
        let parsed = parse_bench_json(text).unwrap();
        assert_eq!(parsed[0].name, "g/say \"hi\"");
        // braces and commas inside a label do not end the record
        let text = "[{\"name\": \"g/set {a,b}\", \"mean_ns\": 5, \"min_ns\": 4, \
                    \"median_ns\": 5, \"mad_ns\": 0},\n\
                    {\"name\": \"g/b\", \"mean_ns\": 7, \"min_ns\": 6, \
                    \"median_ns\": 7, \"mad_ns\": 0}]";
        let parsed = parse_bench_json(text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "g/set {a,b}");
        assert_eq!(parsed[0].min_ns, 4);
        assert_eq!(parsed[1].mean_ns, 7);
    }

    #[test]
    fn group_ratios_are_geometric_means() {
        let base = vec![
            BenchEntry {
                name: "g/a".into(),
                mean_ns: 0,
                min_ns: 0,
                median_ns: 100,
                mad_ns: 0,
            },
            BenchEntry {
                name: "g/b".into(),
                mean_ns: 0,
                min_ns: 0,
                median_ns: 100,
                mad_ns: 0,
            },
            BenchEntry {
                name: "h/only-in-base".into(),
                mean_ns: 10,
                min_ns: 10,
                median_ns: 10,
                mad_ns: 0,
            },
        ];
        let fresh = vec![
            BenchEntry {
                name: "g/a".into(),
                mean_ns: 0,
                min_ns: 0,
                median_ns: 400,
                mad_ns: 0,
            },
            BenchEntry {
                name: "g/b".into(),
                mean_ns: 0,
                min_ns: 0,
                median_ns: 25,
                mad_ns: 0,
            },
        ];
        let diffs = diff_groups(&base, &fresh);
        assert_eq!(diffs.len(), 1);
        let g = &diffs[0];
        assert_eq!(g.group, "g");
        assert_eq!(g.matched, 2);
        // ratios 4.0 and 0.25 → geomean exactly 1.0
        assert!((g.geomean_ratio - 1.0).abs() < 1e-9);
        assert_eq!(g.worst.0, "g/a");
        assert!((g.worst.1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn report_renders_and_counts() {
        let base = parse_bench_json(&format!("[{}]", entry("g/a/1", 100))).unwrap();
        let fresh = parse_bench_json(&format!("[{}]", entry("g/a/1", 150))).unwrap();
        let report = render_report(&base, &fresh);
        assert!(report.contains("1.500×"));
        assert!(report.contains("Informational only"));
    }
}
