//! The measurement ledger: sample statistics, the metric report printed
//! at the end of a run, and the span arithmetic that turns the server's
//! JSONL traces into per-stage self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The metrics one run reports, by name, each with its unit.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Records `name = value unit`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Records a distribution's median and 99th percentile as
    /// `name.p50` / `name.p99`.
    pub fn set_dist(&mut self, name: &str, xs: &[f64], unit: &'static str) {
        self.set(format!("{name}.p50"), median(xs), unit);
        self.set(format!("{name}.p99"), quantile(xs, 0.99), unit);
    }

    /// Copies the metrics `names` from `other`.
    pub fn copy_from(&mut self, other: &Report, names: &[&str]) {
        for &name in names {
            if let Some(&m) = other.metrics.get(name) {
                self.metrics.insert(name.to_string(), m);
            }
        }
    }

    /// Copies every metric of `other` that this report does not hold yet.
    pub fn fill_from(&mut self, other: &Report) {
        for (name, &m) in &other.metrics {
            self.metrics.entry(name.clone()).or_insert(m);
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// One span of a server trace, in microseconds from the request's start.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<String>,
    pub start_us: u64,
    pub end_us: u64,
}

/// One retained request trace (a line of the `GetTraces` JSONL dump).
#[derive(Debug, Clone)]
pub struct Trace {
    pub id: u64,
    pub kind: String,
    pub total_us: u64,
    pub spans: Vec<Span>,
}

/// The text after `"key":` in `s`, if present.
fn after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    s.find(&pat).map(|i| s[i + pat.len()..].trim_start())
}

fn num_field(s: &str, key: &str) -> Option<u64> {
    let rest = after(s, key)?;
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn str_field(s: &str, key: &str) -> Option<String> {
    let rest = after(s, key)?.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Parses one JSONL trace line; `None` if it does not have the shape
/// the server documents.
pub fn parse_trace(line: &str) -> Option<Trace> {
    let (head, spans) = line.split_once("\"spans\":[")?;
    let spans = spans
        .split("{\"name\":")
        .skip(1)
        .map(|chunk| {
            let chunk = format!("{{\"name\":{chunk}");
            Some(Span {
                name: str_field(&chunk, "name")?,
                parent: str_field(&chunk, "parent"),
                start_us: num_field(&chunk, "start_us")?,
                end_us: num_field(&chunk, "end_us")?,
            })
        })
        .collect::<Option<Vec<Span>>>()?;
    Some(Trace {
        id: num_field(head, "id")?,
        kind: str_field(head, "kind")?,
        total_us: num_field(head, "total_us")?,
        spans,
    })
}

/// A numeric field of the server's flat `GetStats` JSON object.
pub fn stat(json: &str, key: &str) -> Option<f64> {
    let rest = after(json, key)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Microseconds of `[start, end)` covered by the union of `children`.
fn covered(start: u64, end: u64, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_us.max(start), c.end_us.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span in `t`, summed per span name: the span's
/// duration minus the part of it its child spans cover. The implicit
/// `request` root covers the whole request.
pub fn self_times(t: &Trace) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for s in &t.spans {
        let kids: Vec<&Span> =
            t.spans.iter().filter(|c| c.parent.as_deref() == Some(s.name.as_str())).collect();
        let own = (s.end_us - s.start_us).saturating_sub(covered(s.start_us, s.end_us, &kids));
        *out.entry(s.name.clone()).or_insert(0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"trace_id\":\"00ab\",\"id\":7,\"kind\":\"solve\",\"keep\":\"head\",\
        \"error\":false,\"shard\":1,\"total_us\":100,\"spans\":[\
        {\"name\":\"request\",\"parent\":null,\"start_us\":0,\"end_us\":100},\
        {\"name\":\"decode\",\"parent\":\"request\",\"start_us\":0,\"end_us\":10},\
        {\"name\":\"solve\",\"parent\":\"request\",\"start_us\":20,\"end_us\":80},\
        {\"name\":\"solve/partition\",\"parent\":\"solve\",\"start_us\":20,\"end_us\":50},\
        {\"name\":\"flush\",\"parent\":\"request\",\"start_us\":90,\"end_us\":95}]}";

    #[test]
    fn parses_and_attributes() {
        let t = parse_trace(LINE).expect("well-formed line");
        assert_eq!((t.id, t.kind.as_str(), t.total_us, t.spans.len()), (7, "solve", 100, 5));
        let st = self_times(&t);
        assert_eq!(st["request"], 100 - 10 - 60 - 5);
        assert_eq!(st["solve"], 30);
        assert_eq!(st["solve/partition"], 30);
        assert_eq!(st["decode"], 10);
    }

    #[test]
    fn quantiles_and_stats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(stat("{\"hits\": 4, \"misses\": 6}", "misses"), Some(6.0));
    }
}
