//! Validate emitted observability JSON against the in-repo schemas
//! (`spk_obs.run_report.v1` / `spk_obs.trace.v1` /
//! `spk_obs.metrics.v1`), or compare two sets of benchmark run reports.
//! CI runs this instead of depending on jq.
//!
//! Usage:
//! * `obs-check <file.json> [more.json ...]` exits non-zero if any file
//!   fails validation.
//! * `obs-check compare BENCHMARK.json --parent A.json [..] --change B.json [..]`
//!   prints, per benchmark and `end_to_end` metric, the parent and change
//!   medians and the signed gain (positive is better, by the metric's
//!   `better` direction). It exits 1 if a metric is worse than its
//!   `bound` or the change's median `summary.fail_frac` is above the
//!   parent's, and 2 on a usage error (malformed file, missing metric).

use spk_obs::Json;

const COMPARE_USAGE: &str =
    "usage: obs-check compare BENCHMARK.json --parent A.json [..] --change B.json [..]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let code = match compare_files(&args[1..]) {
            Ok(cmp) => {
                print!("{}", cmp.table);
                for b in &cmp.breaches {
                    eprintln!("FAIL: {b}");
                }
                i32::from(!cmp.breaches.is_empty())
            }
            Err(e) => {
                eprintln!("obs-check compare: {e}\n{COMPARE_USAGE}");
                2
            }
        };
        std::process::exit(code);
    }
    let paths = args;
    if paths.is_empty() {
        eprintln!("usage: obs-check <file.json> [more.json ...]\n       {COMPARE_USAGE}");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| format!("read failed: {e}"))
            .and_then(|text| spk_obs::schema::validate_str(&text));
        match outcome {
            Ok(kind) => println!("ok: {path} ({kind})"),
            Err(e) => {
                eprintln!("FAIL: {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The outcome of a comparison: a printable table and one line per
/// breached bound (empty when the change passes).
struct Comparison {
    table: String,
    breaches: Vec<String>,
}

/// Parses the `compare` arguments, reads every file, and compares.
fn compare_files(args: &[String]) -> Result<Comparison, String> {
    let (bench, rest) = args.split_first().ok_or("missing BENCHMARK.json")?;
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side = None;
    for arg in rest {
        match arg.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            path => side
                .as_deref_mut()
                .ok_or_else(|| format!("'{path}' comes before --parent/--change"))?
                .push(read_json(path)?),
        }
    }
    compare(&read_json(bench)?, &parent, &change)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))
}

/// The benchmark a (validated) run report belongs to.
fn bench_name(report: &Json) -> &str {
    report
        .get("bench")
        .and_then(Json::as_str)
        .unwrap_or_default()
}

fn metric(report: &Json, name: &str) -> Result<f64, String> {
    report
        .get("results")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .find(|row| row.get("metric").and_then(Json::as_str) == Some(name))
        .and_then(|row| row.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{}: missing metric '{name}'", bench_name(report)))
}

fn fail_frac(report: &Json) -> Result<f64, String> {
    report
        .get("summary")
        .and_then(|s| s.get("fail_frac"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{}: missing summary.fail_frac", bench_name(report)))
}

/// The median of `f` over the reports of benchmark `bench`.
fn median_of(
    reports: &[Json],
    bench: &str,
    f: impl Fn(&Json) -> Result<f64, String>,
) -> Result<f64, String> {
    let mut v: Vec<f64> = reports
        .iter()
        .filter(|r| bench_name(r) == bench)
        .map(f)
        .collect::<Result<_, _>>()?;
    if v.is_empty() {
        return Err(format!("{bench}: reports on only one side"));
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Ok(match v.len() % 2 {
        0 => (v[mid - 1] + v[mid]) / 2.0,
        _ => v[mid],
    })
}

/// Compares the change's reports with the parent's, per benchmark name,
/// on every `end_to_end` metric of `bench` (a parsed `BENCHMARK.json`).
fn compare(bench: &Json, parent: &[Json], change: &[Json]) -> Result<Comparison, String> {
    let bounds = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no 'end_to_end' list")?;
    let mut names: Vec<&str> = Vec::new();
    for report in parent.iter().chain(change) {
        if spk_obs::schema::validate_json(report)? != spk_obs::schema::Kind::RunReport {
            return Err("not a run report".into());
        }
        if !names.contains(&bench_name(report)) {
            names.push(bench_name(report));
        }
    }
    if names.is_empty() {
        return Err("no reports given".into());
    }
    let mut table = format!(
        "{:<28} {:<14} {:>14} {:>14} {:>9} {:>6}\n",
        "bench", "metric", "parent", "change", "gain", "bound"
    );
    let mut breaches = Vec::new();
    for name in names {
        for row in bounds {
            let field = |key| {
                row.get(key)
                    .ok_or_else(|| format!("end_to_end entry lacks '{key}'"))
            };
            let metric_name = field("name")?.as_str().ok_or("bad metric name")?;
            let bound = field("bound")?.as_f64().ok_or("bad bound")?;
            let higher_is_better = match field("better")?.as_str() {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("{metric_name}: 'better' must be lower or higher")),
            };
            let pm = median_of(parent, name, |r| metric(r, metric_name))?;
            let cm = median_of(change, name, |r| metric(r, metric_name))?;
            let rel = if pm == cm { 0.0 } else { (cm - pm) / pm.abs() };
            let gain = if higher_is_better { rel } else { -rel };
            table += &format!(
                "{name:<28} {metric_name:<14} {pm:>14.6e} {cm:>14.6e} {:>+8.1}% {:>5.0}%\n",
                gain * 100.0,
                bound * 100.0
            );
            if gain < -bound {
                breaches.push(format!(
                    "{name} {metric_name}: {:+.1}% is worse than the {:.0}% bound",
                    gain * 100.0,
                    bound * 100.0
                ));
            }
        }
        let pf = median_of(parent, name, fail_frac)?;
        let cf = median_of(change, name, fail_frac)?;
        if cf > pf {
            breaches.push(format!("{name}: median fail_frac rose from {pf} to {cf}"));
        }
    }
    Ok(Comparison { table, breaches })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Json {
        Json::parse(
            r#"{"end_to_end": [
                {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
                {"name": "nnz_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
            ]}"#,
        )
        .unwrap()
    }

    fn report(p50: f64, rate: Option<f64>, fail_frac: f64) -> Json {
        let mut r = spk_obs::RunReport::new("perfbench.toy");
        r.threads(1)
            .result(
                spk_obs::Row::new()
                    .with("metric", "op_p50_s")
                    .with("value", p50),
            )
            .summary("fail_frac", fail_frac);
        if let Some(rate) = rate {
            r.result(
                spk_obs::Row::new()
                    .with("metric", "nnz_per_s")
                    .with("value", rate),
            );
        }
        r.to_json()
    }

    #[test]
    fn within_bounds_passes() {
        let parent = [report(1.0, Some(100.0), 0.0), report(1.2, Some(90.0), 0.0)];
        let change = [report(1.2, Some(95.0), 0.0), report(1.3, Some(80.0), 0.0)];
        let cmp = compare(&bench(), &parent, &change).unwrap();
        assert!(cmp.breaches.is_empty(), "{:?}", cmp.breaches);
        // Medians: p50 1.1 → 1.25 s (13.6% slower), rate 95 → 87.5.
        assert!(cmp.table.contains("-13.6%"), "{}", cmp.table);
        assert!(cmp.table.contains("-7.9%"), "{}", cmp.table);
    }

    #[test]
    fn each_kind_of_regression_breaches() {
        let parent = [report(1.0, Some(100.0), 0.0)];
        for (change, what) in [
            (report(1.3, Some(100.0), 0.0), "op_p50_s: -30.0%"),
            (report(0.5, Some(70.0), 0.0), "nnz_per_s: -30.0%"),
            (report(1.0, Some(100.0), 0.1), "fail_frac rose"),
        ] {
            let cmp = compare(&bench(), &parent, &[change]).unwrap();
            assert_eq!(cmp.breaches.len(), 1, "{what}: {:?}", cmp.breaches);
            assert!(cmp.breaches[0].contains(what), "{:?}", cmp.breaches);
        }
    }

    #[test]
    fn missing_metric_or_side_is_a_usage_error() {
        let parent = [report(1.0, Some(100.0), 0.0)];
        let err = compare(&bench(), &parent, &[report(1.0, None, 0.0)]);
        assert!(err.err().unwrap().contains("missing metric 'nnz_per_s'"));
        let mut other = spk_obs::RunReport::new("perfbench.other");
        other.threads(1);
        let err = compare(&bench(), &parent, &[other.to_json()]);
        assert!(err.err().unwrap().contains("only one side"));
        assert!(compare(&Json::parse("{}").unwrap(), &parent, &parent).is_err());
    }
}
