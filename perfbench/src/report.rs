//! Statistics, the one-line JSON result, the results file and compare
//! mode.

use serde::Value;

pub fn median(values: &mut [f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads read the same here
/// as in any external check.
pub fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (values[0], values[0], values[0]),
        _ => {}
    }
    let q = |j: usize| {
        // Position j·(n+1)/4 (1-based), interpolated.
        let m = j * (n + 1);
        let (i, rem) = (m / 4, m % 4);
        let lo = values[i.clamp(1, n) - 1];
        let hi = values[(i + 1).clamp(1, n) - 1];
        lo + (hi - lo) * rem as f64 / 4.0
    };
    let mid = if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    };
    (q(1), mid, q(3))
}

/// Interquartile range over the median.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let (q1, m, q3) = quartiles(&mut v);
    (q3 - q1) / m.abs()
}

/// Compact single-line JSON.
pub fn to_json(v: &Value) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) if !x.is_finite() => out.push_str("null"),
        Value::Num(x) => out.push_str(&format!("{x}")),
        Value::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(&Value::Str(k.clone()), out);
                out.push(':');
                write(item, out);
            }
            out.push('}');
        }
    }
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(x: f64) -> Value {
    Value::Num(x)
}

pub fn s(x: impl Into<String>) -> Value {
    Value::Str(x.into())
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.get(key)
}

fn as_str(v: Option<&Value>) -> Option<&str> {
    match v? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_num(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Num(x) => Some(*x),
        _ => None,
    }
}

/// One metric's series from a results file: values of `metric` for
/// `workload` in runs with tracing `trace`, in file order.
fn series(runs: &[Value], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| as_str(field(r, "workload")) == Some(workload))
        .filter(|r| matches!(field(r, "trace"), Some(Value::Bool(t)) if *t == trace))
        .filter_map(|r| as_num(field(r, "metrics")?.get(metric)?.get("value")))
        .collect()
}

pub fn read_runs(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str::<Value>(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    TooFewPairs,
    Gain,
    Regression,
    Unresolved,
    NoChange,
}

/// The choosing-metrics §8 rule on paired runs (pair i = parent run i,
/// change run i): a gain needs ≥ 9/10 pair wins and a median gap wider
/// than the parent's interquartile range; a worsening beyond `bound` ×
/// the parent median is a regression; a spread wider than the bound
/// leaves the metric unresolved unless every change run beats every
/// parent run.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    higher_better: bool,
    bound: Option<f64>,
) -> (Verdict, usize, usize) {
    let n = parent.len().min(change.len());
    let better = |c: f64, p: f64| if higher_better { c > p } else { c < p };
    let wins = (0..n).filter(|&i| better(change[i], parent[i])).count();
    if n < 10 {
        return (Verdict::TooFewPairs, wins, n);
    }
    let (p, c) = (&parent[..n], &change[..n]);
    let mut pv = p.to_vec();
    let mut cv = c.to_vec();
    let (pq1, pm, pq3) = quartiles(&mut pv);
    let (_, cm, _) = quartiles(&mut cv);
    let worse_by = if higher_better {
        (pm - cm) / pm.abs()
    } else {
        (cm - pm) / pm.abs()
    };
    let all_better = c.iter().all(|&x| p.iter().all(|&y| better(x, y)));
    let verdict = if 10 * wins >= 9 * n && (cm - pm).abs() > pq3 - pq1 && better(cm, pm) {
        Verdict::Gain
    } else if bound.is_some_and(|b| spread(p) > b || spread(c) > b) && !all_better {
        Verdict::Unresolved
    } else if bound.is_some_and(|b| worse_by > b) {
        Verdict::Regression
    } else {
        Verdict::NoChange
    };
    (verdict, wins, n)
}

/// Compare mode: one row per workload and metric.
pub fn compare(parent_path: &str, change_path: &str, bench: &Value) -> Result<String, String> {
    let parent = read_runs(parent_path)?;
    let change = read_runs(change_path)?;
    let list = |key: &str| -> Vec<Value> {
        match bench.get(key) {
            Some(Value::Array(items)) => items.clone(),
            _ => Vec::new(),
        }
    };
    let mut out = String::from(
        "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins/pairs\tverdict\n",
    );
    for w in list("workloads") {
        let Some(wname) = as_str(w.get("name")) else {
            continue;
        };
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            for m in list(key) {
                let Some(name) = as_str(m.get("name")) else {
                    continue;
                };
                let higher = as_str(m.get("better")) == Some("higher");
                let bound = as_num(m.get("bound"));
                let p = series(&parent, wname, trace, name);
                let c = series(&change, wname, trace, name);
                if p.is_empty() && c.is_empty() {
                    continue;
                }
                let (v, wins, n) = verdict(&p, &c, higher, bound);
                let q = |x: &[f64]| {
                    let mut v = x.to_vec();
                    let (a, b, c) = quartiles(&mut v);
                    format!("{b:.4} [{a:.4}, {c:.4}]")
                };
                out.push_str(&format!(
                    "{wname}\t{name}\t{}\t{}\t{wins}/{n}\t{v:?}\n",
                    q(&p),
                    q(&c)
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    fn around(center: f64, wiggle: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + wiggle * ((i * 7 % 10) as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn compare_rule_needs_ten_pairs_and_nine_wins() {
        let parent = around(100.0, 1.0);
        let faster = around(110.0, 1.0);
        assert_eq!(
            verdict(&parent[..9], &faster[..9], true, Some(0.05)).0,
            Verdict::TooFewPairs
        );
        assert_eq!(verdict(&parent, &faster, true, Some(0.05)).0, Verdict::Gain);
        // Eight wins of ten is not a gain.
        let mut mixed = faster.clone();
        mixed[0] = 90.0;
        mixed[1] = 90.0;
        assert_ne!(verdict(&parent, &mixed, true, Some(0.05)).0, Verdict::Gain);
    }

    #[test]
    fn compare_rule_flags_regressions_and_unresolved_spreads() {
        let parent = around(100.0, 1.0);
        assert_eq!(
            verdict(&parent, &around(80.0, 1.0), true, Some(0.1)).0,
            Verdict::Regression
        );
        assert_eq!(
            verdict(&parent, &around(99.5, 1.0), true, Some(0.1)).0,
            Verdict::NoChange
        );
        // Lower-is-better metrics flip the direction.
        assert_eq!(
            verdict(&parent, &around(120.0, 1.0), false, Some(0.1)).0,
            Verdict::Regression
        );
        // A spread wider than the bound cannot be called unchanged.
        let noisy = around(100.0, 40.0);
        assert_eq!(
            verdict(&parent, &noisy, true, Some(0.1)).0,
            Verdict::Unresolved
        );
    }
}
