//! Output checks shared by the workloads.
//!
//! Reports are compared in their canonical JSON encoding after clearing the
//! two fields that legitimately differ between runs of the same spec: the
//! wall-clock `wall_seconds` and the `template_cache` telemetry. Equal
//! encodings mean bit-identical numbers (the encoder prints every `f64` with
//! round-trip precision).

use engine::json::Value;
use engine::{CacheOutcome, RunReport};
use std::collections::BTreeMap;

/// Canonical encoding of `report` without its run-dependent fields.
pub fn normalized(report: &RunReport) -> String {
    let mut r = report.clone();
    r.wall_seconds = 0.0;
    r.template_cache = None;
    r.to_json()
}

/// Survival curve sanity: S(0) = 1 when the grid starts at 0, values in
/// [0, 1], non-increasing.
pub fn survival_shape(report: &RunReport) -> Result<(), String> {
    let Some(curve) = &report.survival else {
        return Ok(());
    };
    let mut prev = f64::INFINITY;
    for &(t, ref est) in curve {
        let s = est.value;
        if !(0.0..=1.0).contains(&s) {
            return Err(format!("survival {s} at t={t} outside [0, 1]"));
        }
        if t == 0.0 && s != 1.0 {
            return Err(format!("S(0) = {s}, expected 1"));
        }
        if s > prev {
            return Err(format!("survival rises to {s} at t={t}"));
        }
        prev = s;
    }
    Ok(())
}

/// `got` must equal the reference encoding `want`.
pub fn same(got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "output differs from the reference\n  got  {got}\n  want {want}"
        ))
    }
}

/// Deterministic work counters of one report, for drift checks across
/// passes and thread counts.
pub fn work_counters(report: &RunReport, outcome: Option<CacheOutcome>) -> Vec<u64> {
    vec![
        report.transient.as_ref().map_or(0, |t| t.matvecs),
        report.state_count.unwrap_or(0) as u64,
        report.edge_count.unwrap_or(0) as u64,
        report.replications.unwrap_or(0),
        report.censored.unwrap_or(0),
        outcome.map_or(0, |o| o as u64 + 1),
    ]
}

/// Compare the per-request work counters of two passes.
pub fn drift(a_label: &str, a: &[Vec<u64>], b_label: &str, b: &[Vec<u64>]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!(
            "work counters drift: {a_label} has {} requests, {b_label} {}",
            a.len(),
            b.len()
        ));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            return Err(format!(
                "work counters drift on request {i}: {a_label} {x:?} vs {b_label} {y:?}"
            ));
        }
    }
    Ok(())
}

/// Committed reference answers: request key → canonical encoding.
pub fn load_reference(text: &str) -> Result<BTreeMap<String, String>, String> {
    let v = Value::parse(text).map_err(|e| e.to_string())?;
    let Value::Obj(map) = v.field("answers").map_err(|e| e.to_string())? else {
        return Err("reference `answers` is not an object".into());
    };
    map.iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.as_str().map_err(|e| e.to_string())?.to_string(),
            ))
        })
        .collect()
}

/// Encode reference answers for committing.
pub fn encode_reference(about: &str, answers: &BTreeMap<String, String>) -> String {
    let answers = answers
        .iter()
        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("about".to_string(), Value::Str(about.to_string()));
    doc.insert("answers".to_string(), Value::Obj(answers));
    Value::Obj(doc).encode() + "\n"
}
