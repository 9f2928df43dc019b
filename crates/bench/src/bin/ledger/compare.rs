//! `ledger compare BASE.json NEW.json`: one row per workload ×
//! end-to-end metric with both reported values, the ratio and its
//! base, the bound, and a verdict. A metric is `regressed` when NEW's
//! value is worse than BASE's by more than the bound; otherwise
//! `unresolved` when either side's own spread (the distance between
//! the quartiles of its samples, as a share of its value) is wider
//! than the bound, so "no change" cannot be told from noise; otherwise
//! `ok`.

use crate::batch::Res;
use crate::json::Json;
use crate::spec::{self, Better, MetricSpec};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reported value and interquartile spread of one metric.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub iqr_share: f64,
}

/// Share of `base` by which `new` is worse, in the metric's direction
/// (negative: better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

pub fn verdict(m: &MetricSpec, base: Side, new: Side) -> Verdict {
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    if worse_by(m.better, base.value, new.value) > bound {
        Verdict::Regressed
    } else if base.iqr_share > bound || new.iqr_share > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn side(run: &Json, metric: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(metric)?;
    let num = |key: &str| m.get(key).and_then(Json::as_f64);
    let value = num("value")?;
    let iqr_share = if value == 0.0 { 0.0 } else { (num("q3")? - num("q1")?) / value.abs() };
    Some(Side { value, iqr_share })
}

fn load(path: &Path) -> Res<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The untraced run of `workload` in a result document.
fn untraced<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("runs")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("traced") == Some(&Json::Bool(false))
    })
}

/// The comparison table and whether any row regressed.
pub fn table(base: &Json, new: &Json) -> Res<(String, bool)> {
    let mut out = format!(
        "{:<18} {:<14} {:>16} {:>16} {:>8} {:>6}  {}\n",
        "workload", "metric", "base", "new", "new/base", "bound", "verdict"
    );
    let mut regressed = false;
    let mut rows = 0;
    for w in &spec::WORKLOADS {
        let (Some(b), Some(n)) = (untraced(base, w.name), untraced(new, w.name)) else { continue };
        for m in &spec::END_TO_END {
            let b = side(b, m.name)
                .ok_or_else(|| format!("BASE has no `{}` for {}", m.name, w.name))?;
            let n =
                side(n, m.name).ok_or_else(|| format!("NEW has no `{}` for {}", m.name, w.name))?;
            let v = verdict(m, b, n);
            regressed |= v == Verdict::Regressed;
            rows += 1;
            out.push_str(&format!(
                "{:<18} {:<14} {:>16.4} {:>16.4} {:>8.4} {:>5.0}%  {}\n",
                w.name,
                m.name,
                b.value,
                n.value,
                n.value / b.value,
                m.bound.unwrap_or(0.0) * 100.0,
                v.as_str()
            ));
        }
    }
    if rows == 0 {
        return Err("the two documents share no untraced workload run".to_string());
    }
    Ok((out, regressed))
}

pub fn run(base: &Path, new: &Path) -> Res<bool> {
    let (text, regressed) = table(&load(base)?, &load(new)?)?;
    print!("{text}");
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(items_per_s: f64, q1: f64, q3: f64) -> Json {
        let metric = |v: f64, q1: f64, q3: f64| {
            Json::obj([("value", Json::Num(v)), ("q1", Json::Num(q1)), ("q3", Json::Num(q3))])
        };
        let metrics = spec::END_TO_END.iter().map(|m| {
            let v = if m.name == "items_per_s_best" {
                metric(items_per_s, q1, q3)
            } else {
                metric(10.0, 10.0, 10.0)
            };
            (m.name, v)
        });
        Json::obj([(
            "runs",
            Json::Arr(vec![Json::obj([
                ("workload", Json::str("serve_live")),
                ("traced", Json::Bool(false)),
                ("metrics", Json::obj(metrics)),
            ])]),
        )])
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(Better::Lower, 100.0, 120.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 100.0, 130.0) < 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = doc(1000.0, 990.0, 1010.0);
        let (text, regressed) = table(&base, &doc(950.0, 940.0, 960.0)).unwrap();
        assert!(!regressed, "{text}");
        assert!(
            text.lines().filter(|l| l.ends_with(" ok")).count() == spec::END_TO_END.len(),
            "{text}"
        );
        assert!(text.contains("0.9500"), "ratio printed with its base beside it: {text}");

        let (text, regressed) = table(&base, &doc(700.0, 690.0, 710.0)).unwrap();
        assert!(regressed);
        assert!(text.contains("regressed"), "{text}");

        // Within the bound, but one side's quartiles are further apart
        // than the bound: cannot be called unchanged.
        let (text, regressed) = table(&base, &doc(980.0, 700.0, 1200.0)).unwrap();
        assert!(!regressed);
        assert!(text.contains("unresolved"), "{text}");

        assert!(table(&base, &Json::obj([("runs", Json::Arr(vec![]))])).is_err());
    }
}
