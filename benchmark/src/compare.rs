//! `compare BASE CANDIDATE`: holds two sets of runs against the bounds in
//! `BENCHMARK.json`. Each file is JSON lines as this benchmark appends them
//! to `results/history.jsonl`; only untraced runs count. Every pairing of
//! workload and end-to-end metric gets one row and one verdict.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is no worse than the base's by more than the
    /// bound.
    Pass,
    Fail,
    /// A side has fewer than two runs, or its runs spread wider than the
    /// bound: the data cannot tell a regression of that size from noise.
    Unresolved,
}

/// How much worse the candidate's median is, as a share of the base's
/// (negative when it is better).
pub fn worsening(base: &[f64], candidate: &[f64], higher_is_better: bool) -> f64 {
    let (b, c) = (stats::median(base), stats::median(candidate));
    if b == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (b - c) / b.abs()
    } else {
        (c - b) / b.abs()
    }
}

pub fn verdict(base: &[f64], candidate: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    match (stats::spread(base), stats::spread(candidate)) {
        (Some(b), Some(c)) if b.max(c) <= bound => {
            if worsening(base, candidate, higher_is_better) > bound {
                Verdict::Fail
            } else {
                Verdict::Pass
            }
        }
        _ => Verdict::Unresolved,
    }
}

/// workload → metric → one value per untraced run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        if run.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a run without a workload"))?;
        let metrics = run
            .get("metrics")
            .ok_or_else(|| format!("{path}: a run without metrics"))?;
        for (name, value) in metrics.fields() {
            if let Some(v) = value.as_f64() {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// Prints the table; `Ok(true)` when no row failed.
pub fn run(base_path: &str, candidate_path: &str, declaration: &Json) -> Result<bool, String> {
    let (base, candidate) = (read_runs(base_path)?, read_runs(candidate_path)?);
    let mut all_pass = true;
    println!(
        "{:<12} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "candidate", "worse", "spread", "bound"
    );
    for (workload, base_metrics) in &base {
        for metric in declaration
            .get("end_to_end")
            .map_or(&[][..], Json::as_array)
        {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or_default();
            let name = field("name");
            let higher = field("better") == "higher";
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let b = base_metrics.get(name).map_or(&[][..], Vec::as_slice);
            let c = candidate
                .get(workload)
                .and_then(|m| m.get(name))
                .map_or(&[][..], Vec::as_slice);
            let v = verdict(b, c, higher, bound);
            all_pass &= v != Verdict::Fail;
            let spread = stats::spread(b)
                .unwrap_or(f64::NAN)
                .max(stats::spread(c).unwrap_or(f64::NAN));
            println!(
                "{workload:<12} {name:<16} {:>12.4} {:>12.4} {:>7.1}% {:>6.1}% {:>6.1}%  {v:?}",
                stats::median(b),
                stats::median(c),
                100.0 * worsening(b, c, higher),
                100.0 * spread,
                100.0 * bound,
            );
        }
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs around `center`, the quartiles about `half_spread` apart.
    fn runs(center: f64, half_spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + half_spread * (i as f64 - 4.5) / 2.75))
            .collect()
    }

    #[test]
    fn within_bound_passes() {
        let base = runs(100.0, 0.01);
        assert_eq!(verdict(&base, &runs(97.0, 0.01), true, 0.05), Verdict::Pass);
        assert_eq!(
            verdict(&base, &runs(103.0, 0.01), false, 0.05),
            Verdict::Pass
        );
        // Better by any amount passes.
        assert_eq!(
            verdict(&base, &runs(200.0, 0.01), true, 0.05),
            Verdict::Pass
        );
        assert_eq!(
            verdict(&base, &runs(50.0, 0.01), false, 0.05),
            Verdict::Pass
        );
    }

    #[test]
    fn beyond_bound_fails() {
        let base = runs(100.0, 0.01);
        assert_eq!(verdict(&base, &runs(90.0, 0.01), true, 0.05), Verdict::Fail);
        assert_eq!(
            verdict(&base, &runs(110.0, 0.01), false, 0.05),
            Verdict::Fail
        );
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        let base = runs(100.0, 0.01);
        assert_eq!(
            verdict(&base, &runs(90.0, 0.10), true, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&runs(100.0, 0.10), &base, true, 0.05),
            Verdict::Unresolved
        );
        // One run a side has no spread to judge by.
        assert_eq!(verdict(&[100.0], &[50.0], true, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn worsening_has_the_metric_s_direction() {
        assert!((worsening(&[100.0], &[90.0], true) - 0.10).abs() < 1e-12);
        assert!((worsening(&[100.0], &[90.0], false) + 0.10).abs() < 1e-12);
    }
}
