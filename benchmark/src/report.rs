//! Metrics as values, the result line, the run artifacts and `compare`.

use std::fmt::Write as _;
use std::path::Path;

use orpheus_observe::json::{escape, JsonValue};

use crate::stats::{median, quartile_spread};
use crate::Res;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (1 for a count or a ratio of two values).
    pub n: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, n: usize) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n,
        }
    }
}

/// A metric the benchmark declares in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Regression bound as a share of the base value; `None` per layer.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness checks itself against.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn field<'a>(value: &'a JsonValue, key: &str) -> Res<&'a JsonValue> {
    value
        .get(key)
        .ok_or_else(|| format!("missing key {key:?}").into())
}

fn text(value: &JsonValue, key: &str) -> Res<String> {
    Ok(field(value, key)?
        .as_str()
        .ok_or_else(|| format!("{key:?} is not a string"))?
        .to_string())
}

fn list<'a>(value: &'a JsonValue, key: &str) -> Res<&'a [JsonValue]> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| format!("{key:?} is not an array").into())
}

fn number(value: &JsonValue, key: &str) -> Res<f64> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number").into())
}

impl Spec {
    pub fn read(path: &Path) -> Res<Spec> {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = JsonValue::parse(&raw)?;
        let declared = |key: &str| -> Res<Vec<Declared>> {
            list(&doc, key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        higher_is_better: text(m, "better")? == "higher",
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: number(&doc, "run_seconds")? as u64,
            workloads: list(&doc, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Res<_>>()?,
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    }
}

/// A finite number with all its digits (Rust prints the shortest decimal
/// that reads back to the same `f64`).
fn num(value: f64) -> Res<String> {
    if value.is_finite() {
        Ok(value.to_string())
    } else {
        Err(format!("non-finite metric value {value}").into())
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Res<String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(&m.name),
            num(m.value)?,
            escape(&m.unit)
        )?;
    }
    out.push_str("}}");
    Ok(out)
}

fn metrics_json(metrics: &[Metric]) -> Res<String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
            escape(&m.name),
            num(m.value)?,
            escape(&m.unit),
            m.n
        )?;
    }
    out.push('}');
    Ok(out)
}

/// One child run, as the child writes it for the parent to fold into the
/// `BENCH_<sha>.json` artifact: metrics with their sample counts, the raw
/// nanosecond samples, and (traced pass) header fields and the layer table.
#[derive(Debug, Default)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub samples_ns: Vec<u64>,
    /// Preformatted JSON members (`"key": value`) of the header.
    pub header: Vec<(String, String)>,
    /// Preformatted JSON array of the per-layer table rows.
    pub layer_table: Option<String>,
}

impl RunRecord {
    pub fn to_json(&self) -> Res<String> {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
            escape(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)?
        );
        if !self.header.is_empty() {
            let members: Vec<String> = self
                .header
                .iter()
                .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
                .collect();
            write!(out, ", \"header\": {{{}}}", members.join(", "))?;
        }
        if let Some(table) = &self.layer_table {
            write!(out, ", \"layers\": {table}")?;
        }
        let samples: Vec<String> = self.samples_ns.iter().map(u64::to_string).collect();
        write!(out, ", \"samples_ns\": [{}]}}", samples.join(","))?;
        Ok(out)
    }
}

pub fn quoted(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Every value of `(workload, metric)` over the untraced runs of an artifact.
fn values_of(doc: &JsonValue, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|run| run.get("workload").and_then(JsonValue::as_str) == Some(workload))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regress,
    WithinBound,
    Improve,
    /// The base's own runs spread wider than the bound: no call either way.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regress => "regress",
            Verdict::WithinBound => "within bound",
            Verdict::Improve => "improve",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Spread between repeated runs, as a share of their median: the distance
/// between the quartiles, or between the two values when there are only two.
pub fn spread(values: &[f64]) -> f64 {
    match values {
        [] | [_] => 0.0,
        [a, b] => (a - b).abs() / median(values),
        _ => quartile_spread(values),
    }
}

/// How much worse `new` is than `base`, as a share of `base` (negative when
/// it is better).
pub fn worsening(base: f64, new: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    }
}

pub fn verdict(base: &[f64], new: &[f64], metric: &Declared) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    if spread(base) > bound {
        return Verdict::Unresolved;
    }
    let worse = worsening(median(base), median(new), metric.higher_is_better);
    if worse > bound {
        Verdict::Regress
    } else if -worse > bound {
        Verdict::Improve
    } else {
        Verdict::WithinBound
    }
}

/// `compare A.json B.json`: one verdict per (end-to-end metric, workload),
/// every ratio printed with its base. Returns whether anything regressed.
pub fn compare(spec: &Spec, base_path: &Path, new_path: &Path) -> Res<bool> {
    let read = |path: &Path| -> Res<JsonValue> {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(JsonValue::parse(&raw)?)
    };
    let (base_doc, new_doc) = (read(base_path)?, read(new_path)?);
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "base median", "new median", "new/base", "spread", "bound"
    );
    let mut regressed = false;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let base = values_of(&base_doc, workload, &metric.name);
            let new = values_of(&new_doc, workload, &metric.name);
            if base.is_empty() || new.is_empty() {
                println!("{workload:<22} {:<18} missing in one artifact", metric.name);
                regressed = true;
                continue;
            }
            let call = verdict(&base, &new, metric);
            regressed |= call == Verdict::Regress;
            let (b, n) = (median(&base), median(&new));
            println!(
                "{workload:<22} {:<18} {:>14} {:>14} {:>9.4} {:>7.2}% {:>5.1}%  {} \
                 ({:+.2}% of base {b:.4} {}, {} is better, n={}/{})",
                metric.name,
                format!("{b:.4}"),
                format!("{n:.4}"),
                n / b,
                spread(&base) * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                call.label(),
                (n / b - 1.0) * 100.0,
                metric.unit,
                if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                base.len(),
                new.len(),
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "latency_p50_ms".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let m = lower(0.05);
        assert_eq!(
            verdict(&[10.0, 10.1], &[10.2, 10.3], &m),
            Verdict::WithinBound
        );
        assert_eq!(verdict(&[10.0, 10.1], &[11.0, 11.1], &m), Verdict::Regress);
        assert_eq!(verdict(&[10.0, 10.1], &[9.0, 9.1], &m), Verdict::Improve);
        assert_eq!(
            verdict(&[10.0, 11.0], &[12.0, 12.0], &m),
            Verdict::Unresolved
        );
        let mut higher = lower(0.05);
        higher.higher_is_better = true;
        assert_eq!(verdict(&[100.0], &[90.0], &higher), Verdict::Regress);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(10, 0, &[Metric::new("setup_s", 0.5, "s", 5)]).unwrap();
        let doc = JsonValue::parse(&line).unwrap();
        let JsonValue::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
    }
}
