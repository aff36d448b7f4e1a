//! The metric catalog. `BENCHMARK.json` at the repository root is the one
//! place that names workloads, metrics, units, directions and bounds; it is
//! compiled in, so the binary and the file cannot disagree.

use std::collections::BTreeMap;
use texid_distrib::json::{parse, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One catalogued metric.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parsed catalog.
pub struct Catalog {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn specs(v: &Json, key: &str) -> Vec<MetricSpec> {
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without `{k}`"))
            .to_string()
    };
    v.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no `{key}` array"))
        .iter()
        .map(|m| MetricSpec {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: field(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

impl Catalog {
    /// Parse the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    /// Panics when the file is malformed — a broken build, not a run-time
    /// condition.
    pub fn load() -> Catalog {
        let v = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Catalog {
            run_seconds: v
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds"),
            workloads: v
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("workloads")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("workload name")
                        .to_string()
                })
                .collect(),
            end_to_end: specs(&v, "end_to_end"),
            per_layer: specs(&v, "per_layer"),
        }
    }
}

/// Metric values a run collected, by catalogued name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn values(&self) -> &BTreeMap<String, f64> {
        &self.0
    }

    /// The `metrics` object of the result line: exactly the metrics of
    /// `wanted`, each with its catalogued unit.
    ///
    /// # Errors
    /// Names a metric the run did not produce, produced without a catalog
    /// entry, or produced as a non-finite number.
    pub fn to_json(&self, wanted: &[MetricSpec]) -> Result<Json, String> {
        if let Some(stray) = self.0.keys().find(|k| wanted.iter().all(|m| m.name != **k)) {
            return Err(format!("metric `{stray}` is not in BENCHMARK.json"));
        }
        let mut out = BTreeMap::new();
        for m in wanted {
            let value = *self
                .0
                .get(&m.name)
                .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
            if !value.is_finite() {
                return Err(format!("metric `{}` is {value}", m.name));
            }
            out.insert(
                m.name.clone(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(m.unit.clone())),
                ]),
            );
        }
        Ok(Json::Obj(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_meets_the_contract() {
        let c = Catalog::load();
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
        let setup = c
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        let ok_name = |s: &str, max: usize, extra: &str| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || extra.contains(ch))
        };
        let mut names: Vec<&str> = c.workloads.iter().map(String::as_str).collect();
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            names.push(&m.name);
            assert!(ok_name(&m.unit, 16, "_/%.-"), "unit {:?}", m.unit);
        }
        for m in &c.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        for n in &names {
            assert!(
                ok_name(n, 64, "_.-") && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "name {n:?}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        // Every workload the binary knows is catalogued, and vice versa.
        let known: Vec<&str> = crate::workload::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(c.workloads, known);
    }
}
