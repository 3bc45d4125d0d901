//! What `BENCHMARK.json` lists: the file itself, compiled in, is the
//! only table of metric names, units, directions and bounds.

use std::sync::OnceLock;

use crate::json::{self, Json};

/// A metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// The name results are reported under.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// End-to-end metrics only: the share of the baseline by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the program reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Listed {
    /// `run_seconds`: the default `--seconds`.
    pub run_seconds: f64,
    /// The gated metrics, the same on every workload.
    pub end_to_end: Vec<MetricDef>,
    /// The per-layer metrics of the traced run. A metric that does not
    /// apply to a workload (no sockets, no storage) reads 0 there.
    pub per_layer: Vec<MetricDef>,
}

impl Listed {
    /// Reads the metric lists of a parsed `BENCHMARK.json`.
    pub fn from_json(file: &Json) -> Result<Listed, String> {
        let section = |key: &str| -> Result<Vec<MetricDef>, String> {
            let metrics = file.get(key).and_then(Json::as_arr).ok_or(format!("no {key} list"))?;
            metrics
                .iter()
                .map(|m| {
                    let text = |field: &str| {
                        m.get(field).and_then(Json::as_str).ok_or(format!("{key}: no {field}"))
                    };
                    Ok(MetricDef {
                        name: text("name")?.to_string(),
                        unit: text("unit")?.to_string(),
                        lower_is_better: text("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Listed {
            run_seconds: file.get("run_seconds").and_then(Json::as_f64).ok_or("no run_seconds")?,
            end_to_end: section("end_to_end")?,
            per_layer: section("per_layer")?,
        })
    }

    /// Whether `name` is a listed per-layer metric.
    pub fn is_per_layer(&self, name: &str) -> bool {
        self.per_layer.iter().any(|m| m.name == name)
    }
}

/// The `BENCHMARK.json` this program was built from.
pub fn listed() -> &'static Listed {
    static LISTED: OnceLock<Listed> = OnceLock::new();
    LISTED.get_or_init(|| {
        json::parse(include_str!("../../BENCHMARK.json"))
            .and_then(|file| Listed::from_json(&file))
            .expect("BENCHMARK.json at the repo root lists the metrics")
    })
}
