//! `e2e compare <base.json> <new.json>`: the tolerance gate.
//!
//! For every workload × end-to-end metric present in both result files
//! (and each workload's `rounds`), print base, new, their ratio and PASS or
//! WORSE against the metric's bound.  Exit status is non-zero if anything is
//! WORSE or a workload is missing from the new file.

use crate::json::Json;
use crate::metrics::{Better, Spec, END_TO_END, EXACT};

/// How one metric moved between two runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Pass,
    Worse,
}

/// Judge `new` against `base` for `spec`.  Metrics in [`EXACT`] must be
/// equal; the rest may worsen by at most `spec.bound` of the base value.
/// `setup_s` is too short for a share alone to be meaningful, so it also
/// passes while it is within 0.1 s of the base.
pub fn judge(spec: &Spec, base: f64, new: f64) -> Verdict {
    let worse_by = match spec.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    let allowed = if EXACT.contains(&spec.name) {
        0.0
    } else if spec.name == "setup_s" {
        (spec.bound * base.abs()).max(0.1)
    } else {
        spec.bound * base.abs()
    };
    if worse_by <= allowed {
        Verdict::Pass
    } else {
        Verdict::Worse
    }
}

/// `rounds` is a field of the report itself, not of its `end_to_end`
/// section (see [`EXACT`]); it is compared all the same.
const ROUNDS: Spec = Spec {
    name: "rounds",
    unit: "count",
    better: Better::Lower,
    bound: 0.0,
};

/// The value of `metric` for `workload` in a results document.
fn value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    let report = doc.get("workloads")?.get(workload)?;
    if metric == ROUNDS.name {
        return report.get(metric)?.as_f64();
    }
    report
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Compare two results documents; returns the report and whether every
/// comparison passed.
pub fn compare(base: &Json, new: &Json) -> (String, bool) {
    let mut report = format!(
        "{:<16} {:<14} {:>14} {:>14} {:>8}  verdict\n",
        "workload", "metric", "base", "new", "ratio"
    );
    let mut all_pass = true;
    let workloads = base.get("workloads").and_then(Json::as_obj).unwrap_or(&[]);
    if workloads.is_empty() {
        return ("the base file lists no workloads\n".to_string(), false);
    }
    for (workload, _) in workloads {
        for spec in [ROUNDS].iter().chain(&END_TO_END) {
            let Some(base_value) = value(base, workload, spec.name) else {
                continue;
            };
            let Some(new_value) = value(new, workload, spec.name) else {
                report += &format!(
                    "{workload:<16} {:<14} missing from the new file  WORSE\n",
                    spec.name
                );
                all_pass = false;
                continue;
            };
            let verdict = judge(spec, base_value, new_value);
            all_pass &= verdict == Verdict::Pass;
            report += &format!(
                "{workload:<16} {:<14} {base_value:>14.4} {new_value:>14.4} {:>8.4}  {}\n",
                spec.name,
                new_value / base_value,
                match verdict {
                    Verdict::Pass => "PASS",
                    Verdict::Worse => "WORSE",
                },
            );
        }
    }
    (report, all_pass)
}

/// The `compare` subcommand.
pub fn run(base_path: &str, new_path: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, all_pass) = compare(&load(base_path)?, &load(new_path)?);
    print!("{report}");
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(run_ms_p50: f64, mitems_per_s: f64, rounds: f64, setup_s: f64) -> Json {
        let metric =
            |value: f64| Json::obj([("value", Json::Num(value)), ("unit", Json::str("-"))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "conn-local",
                Json::obj([
                    ("rounds", Json::Num(rounds)),
                    (
                        "end_to_end",
                        Json::obj([
                            ("run_ms_p50", metric(run_ms_p50)),
                            ("mitems_per_s", metric(mitems_per_s)),
                            ("setup_s", metric(setup_s)),
                        ]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn a_regression_just_past_the_bound_is_flagged_and_one_just_inside_passes() {
        // run_ms_p50 may worsen by 25 %: 200 ms → 250 ms.
        let base = results(200.0, 1.0, 8.0, 1.0);
        let (report, pass) = compare(&base, &results(252.0, 1.0, 8.0, 1.0));
        assert!(!pass, "{report}");
        assert!(
            report.contains("run_ms_p50") && report.contains("WORSE"),
            "{report}"
        );
        let (report, pass) = compare(&base, &results(248.0, 1.0, 8.0, 1.0));
        assert!(pass, "{report}");
        // Getting better is never WORSE, however far.
        assert!(compare(&base, &results(100.0, 2.0, 8.0, 0.2)).1);
    }

    #[test]
    fn higher_is_better_metrics_are_judged_the_other_way_round() {
        let base = results(200.0, 1.0, 8.0, 1.0);
        assert!(!compare(&base, &results(200.0, 0.74, 8.0, 1.0)).1);
        assert!(compare(&base, &results(200.0, 0.76, 8.0, 1.0)).1);
    }

    #[test]
    fn counts_must_match_exactly_and_short_setups_get_a_floor() {
        let base = results(200.0, 1.0, 8.0, 0.2);
        assert!(!compare(&base, &results(200.0, 1.0, 9.0, 0.2)).1);
        assert!(compare(&base, &results(200.0, 1.0, 7.0, 0.2)).1);
        // +0.09 s on a 0.2 s set-up is +45 % but inside the 0.1 s floor.
        assert!(compare(&base, &results(200.0, 1.0, 8.0, 0.29)).1);
        assert!(!compare(&base, &results(200.0, 1.0, 8.0, 0.31)).1);
    }

    #[test]
    fn missing_workloads_or_metrics_fail_the_gate() {
        let base = results(200.0, 1.0, 8.0, 1.0);
        assert!(!compare(&base, &Json::obj([("workloads", Json::Obj(vec![]))])).1);
        assert!(!compare(&Json::Obj(vec![]), &base).1);
    }
}
