//! Bench regression guard: diff a fresh `RTX_BENCH_JSON` run against
//! the committed `BENCH_baseline.json`.
//!
//! The report is **informational** — a shared CI container is far too
//! noisy to fail a build on wall-clock ratios — but it makes drift
//! visible per bench group: each group gets the geometric mean of its
//! per-record `fresh / baseline` ratios (over the outlier-robust median
//! when both sides record one, else the mean), plus the worst single
//! regression inside the group. Run it with:
//!
//! ```text
//! RTX_BENCH_JSON=/tmp/fresh.json cargo bench
//! cargo run -p rtx-bench --bin bench_diff -- /tmp/fresh.json
//! ```

use crate::Table;
use rtx_obs::json::{self, Json};
use std::collections::BTreeMap;

/// One record of a `RTX_BENCH_JSON` file (a subset of the criterion
/// stand-in's `BenchRecord`; `median_ns`/`mad_ns` are absent in
/// baselines recorded before the stand-in learned medians).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchEntry {
    /// Full benchmark label (`group/function/param`).
    pub name: String,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: u128,
    /// Minimum wall time per iteration, nanoseconds.
    pub min_ns: u128,
    /// Median wall time per iteration, when recorded.
    pub median_ns: Option<u128>,
    /// Median absolute deviation, when recorded.
    pub mad_ns: Option<u128>,
}

impl BenchEntry {
    /// The group prefix of the label (up to the first `/`).
    pub fn group(&self) -> &str {
        self.name.split('/').next().unwrap_or(&self.name)
    }
}

/// Parse the JSON array emitted by the criterion stand-in, through
/// [`rtx_obs::json::parse`]. Every record needs a string `name` and
/// unsigned integer `mean_ns` and `min_ns`; `median_ns` and `mad_ns`
/// are optional, and other fields are ignored.
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
            let field = |k: &str| -> Result<Option<u128>, String> {
                match r.get(k) {
                    None => Ok(None),
                    Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u128)),
                    Some(v) => Err(format!("record `{name}`: `{k}` is not a count: {v:?}")),
                }
            };
            let required =
                |k: &str| field(k)?.ok_or_else(|| format!("record `{name}` missing `{k}`"));
            Ok(BenchEntry {
                name: name.to_string(),
                mean_ns: required("mean_ns")?,
                min_ns: required("min_ns")?,
                median_ns: field("median_ns")?,
                mad_ns: field("mad_ns")?,
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

/// The comparable central times of a baseline/fresh record pair: the
/// medians when **both** sides recorded one, else both means — never a
/// mean against a median (their outlier behavior differs, so a mixed
/// ratio would manufacture phantom speedups or mask regressions when
/// comparing against a pre-median baseline).
fn paired_ns(b: &BenchEntry, f: &BenchEntry) -> (u128, u128) {
    match (b.median_ns, f.median_ns) {
        (Some(bm), Some(fm)) => (bm, fm),
        _ => (b.mean_ns, f.mean_ns),
    }
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
        let (bns, fns) = paired_ns(b, f);
        let ratio = fns.max(1) as f64 / bns.max(1) as f64;
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
        assert_eq!(parsed[0].median_ns, Some(100));
        assert_eq!(parsed[1].mad_ns, Some(1));
    }

    #[test]
    fn parses_legacy_records_without_median() {
        let text = "[\n  {\"name\": \"g/a\", \"iters\": 10, \"mean_ns\": 42, \"min_ns\": 40}\n]";
        let parsed = parse_bench_json(text).unwrap();
        assert_eq!(parsed[0].median_ns, None);
        assert_eq!(parsed[0].mean_ns, 42);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_bench_json("not json").is_err());
        assert!(parse_bench_json("[{\"iters\": 1, \"mean_ns\": 2, \"min_ns\": 1}]").is_err());
        assert!(parse_bench_json("[{\"name\": \"x\", \"mean_ns\": oops}]").is_err());
    }

    #[test]
    fn escaped_quotes_in_names_survive() {
        let text =
            "[{\"name\": \"g/say \\\"hi\\\"\", \"iters\": 1, \"mean_ns\": 5, \"min_ns\": 5}]";
        let parsed = parse_bench_json(text).unwrap();
        assert_eq!(parsed[0].name, "g/say \"hi\"");
        // braces and commas inside a label do not end the record
        let text = "[{\"name\": \"g/set {a,b}\", \"mean_ns\": 5, \"min_ns\": 4},\n\
                    {\"name\": \"g/b\", \"mean_ns\": 7, \"min_ns\": 6}]";
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
                median_ns: Some(100),
                mad_ns: None,
            },
            BenchEntry {
                name: "g/b".into(),
                mean_ns: 0,
                min_ns: 0,
                median_ns: Some(100),
                mad_ns: None,
            },
            BenchEntry {
                name: "h/only-in-base".into(),
                mean_ns: 10,
                min_ns: 10,
                median_ns: None,
                mad_ns: None,
            },
        ];
        let fresh = vec![
            BenchEntry {
                name: "g/a".into(),
                mean_ns: 0,
                min_ns: 0,
                median_ns: Some(400),
                mad_ns: None,
            },
            BenchEntry {
                name: "g/b".into(),
                mean_ns: 0,
                min_ns: 0,
                median_ns: Some(25),
                mad_ns: None,
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
    fn mixed_median_availability_compares_means_on_both_sides() {
        // Legacy baseline (mean only, outlier-inflated) vs fresh record
        // with a median: the ratio must pair mean with mean, not mean
        // with median (which would report a phantom speedup).
        let base = vec![BenchEntry {
            name: "g/a".into(),
            mean_ns: 150,
            min_ns: 90,
            median_ns: None,
            mad_ns: None,
        }];
        let fresh = vec![BenchEntry {
            name: "g/a".into(),
            mean_ns: 150,
            min_ns: 90,
            median_ns: Some(100),
            mad_ns: Some(2),
        }];
        let diffs = diff_groups(&base, &fresh);
        assert!((diffs[0].geomean_ratio - 1.0).abs() < 1e-9, "{diffs:?}");
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
