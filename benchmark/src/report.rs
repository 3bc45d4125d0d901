//! From part reports to named metrics: the pooling rules, the printed
//! report, `results.json`, and the `compare` and `validate`
//! subcommands.

use std::fmt::Write as _;

use crate::harness::{over_kinds, p50_ms, pool, PartReport, Round};
use crate::json::Json;
use crate::metrics::{listed, Listed, MetricDef};
use crate::stats::percentile;

/// One workload's run: the gated parts (fresh processes) and,
/// separately, the traced part.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// The gated run's parts; empty when only the traced run was asked for.
    pub parts: Vec<PartReport>,
    /// The traced run's single part.
    pub traced: Option<PartReport>,
}

impl WorkloadResult {
    fn all_parts(&self) -> impl Iterator<Item = &PartReport> {
        self.parts.iter().chain(&self.traced)
    }

    /// Ops started in timed rounds.
    pub fn attempted(&self) -> u64 {
        self.all_parts().map(|p| p.attempted).sum()
    }

    /// Ops that errored, were refused or answered wrongly (a wrong
    /// answer is a failed op).
    pub fn failed(&self) -> u64 {
        self.all_parts().map(|p| p.failed + p.wrong).sum()
    }

    /// Wrong answers alone, including post-run checks such as an
    /// acknowledged row lost by the truncated-WAL reopen.
    pub fn wrong(&self) -> u64 {
        self.all_parts().map(|p| p.wrong).sum()
    }

    /// `true` iff nothing failed and nothing answered wrongly.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.all_parts().next().is_some()
    }

    /// Client threads of the gated run.
    fn threads(&self) -> usize {
        self.parts.iter().map(|p| p.rounds.len()).min().unwrap_or(0)
    }

    /// The gated run's timed work, each round taken from the part that
    /// got through it quickest.
    ///
    /// The parts of a run are repetitions of the same work: round `r` of
    /// client thread `t` runs the same ops over the same state in every
    /// part. Other tenants of the host only ever add time, for seconds
    /// at a stretch, so of three repetitions of a round the quickest is
    /// nearest the program's own speed. A cost the program itself pays
    /// in a round, it pays in every repetition, and it stays in. Rounds
    /// that not every part reached are left out.
    fn quietest_rounds(&self) -> Round {
        let mut quietest: Vec<&Round> = Vec::new();
        for t in 0..self.threads() {
            let rounds = self.parts.iter().map(|p| p.rounds[t].len()).min().unwrap_or(0);
            for r in 0..rounds {
                let repetitions = self.parts.iter().map(|p| &p.rounds[t][r]);
                quietest.extend(repetitions.min_by(|a, b| a.seconds.total_cmp(&b.seconds)));
            }
        }
        pool(quietest)
    }

    /// The end-to-end metrics of the gated run.
    pub fn end_to_end(&self) -> Vec<(&'static MetricDef, f64)> {
        if self.parts.is_empty() {
            return Vec::new();
        }
        let parts = || self.parts.iter();
        let timed = self.quietest_rounds();
        let value = |name: &str| match name {
            // Set-up is the same work in every part too, and takes the
            // same rule as a round: the part that got through it quickest.
            "setup_s" => parts().map(|p| p.setup_s).fold(f64::INFINITY, f64::min),
            "ops_per_s" => timed.ops_per_s(self.threads()),
            "p50_ms" => p50_ms(&timed.samples),
            "peak_rss_mb" => parts().map(|p| p.peak_rss_mb).fold(0.0, f64::max),
            other => panic!("BENCHMARK.json lists {other}, which the gated run does not measure"),
        };
        listed().end_to_end.iter().map(|def| (def, value(&def.name))).collect()
    }

    /// The per-layer metrics of the traced part; 0 where a layer does
    /// not take part in this workload.
    pub fn per_layer(&self) -> Vec<(&'static MetricDef, f64)> {
        let Some(traced) = &self.traced else { return Vec::new() };
        let value = |def: &MetricDef| traced.layers.get(&def.name).copied().unwrap_or(0.0);
        listed().per_layer.iter().map(|def| (def, value(def))).collect()
    }

    /// Every reported metric as `{name: {value, unit}}`.
    fn metrics_json(&self) -> Json {
        Json::obj(self.end_to_end().into_iter().chain(self.per_layer()).map(|(def, v)| {
            (&def.name, Json::obj([("value", Json::Num(v)), ("unit", Json::str(&def.unit))]))
        }))
    }

    /// The line the benchmark contract asks for.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted().max(1) as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("metrics", self.metrics_json()),
        ])
    }

    /// This workload's entry in `results.json`.
    pub fn to_json(&self) -> Json {
        let timed = self.quietest_rounds();
        let all = pool(self.parts.iter().flat_map(|p| p.rounds.iter().flatten())).samples;
        let first = self.all_parts().next();
        let exact = |p: &PartReport| Json::obj(p.exact.iter().map(|(k, v)| (k, Json::Num(*v))));
        let part_json = |p: &PartReport| {
            Json::obj([
                ("part", Json::Num(p.part as f64)),
                ("traced", Json::Bool(p.traced)),
                ("setup_s", Json::Num(p.setup_s)),
                ("peak_rss_mb", Json::Num(p.peak_rss_mb)),
                ("cpu_loop_ms_before", Json::Num(p.canary_before_ms)),
                ("cpu_loop_ms_after", Json::Num(p.canary_after_ms)),
                ("disturbed", Json::Bool(p.disturbed)),
                ("exact", exact(p)),
            ])
        };
        Json::obj([
            ("name", Json::str(&self.workload)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted() as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("wrong", Json::Num(self.wrong() as f64)),
            ("p50_samples", Json::Num(timed.correct() as f64)),
            ("seconds", Json::Num(timed.seconds / self.threads().max(1) as f64)),
            ("tail_p95_ms", Json::Num(over_kinds(&all, |s| percentile(s, 0.95)))),
            ("tail_p99_ms", Json::Num(over_kinds(&all, |s| percentile(s, 0.99)))),
            ("disturbed_parts", Json::Num(self.all_parts().filter(|p| p.disturbed).count() as f64)),
            ("env", first.and_then(|p| p.env.as_ref()).map_or(Json::Null, |e| e.to_json())),
            (
                "notes",
                Json::obj(
                    first.iter().flat_map(|p| p.notes.iter()).map(|(k, v)| (k, Json::str(v))),
                ),
            ),
            ("metrics", self.metrics_json()),
            ("parts", Json::Arr(self.all_parts().map(part_json).collect())),
        ])
    }

    /// The printed report: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let json = self.to_json();
        let field = |name: &str| json.get(name).map_or(String::new(), Json::to_string);
        let _ = writeln!(
            out,
            "{}: attempted {} failed {} wrong {} samples {} seconds {:.2} disturbed parts {}",
            self.workload,
            field("attempted"),
            field("failed"),
            field("wrong"),
            field("p50_samples"),
            json.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
            field("disturbed_parts"),
        );
        for (def, value) in self.end_to_end().into_iter().chain(self.per_layer()) {
            let _ = writeln!(out, "  {:<34} {value:>14.4} {}", def.name, def.unit);
        }
        if !self.parts.is_empty() {
            for (label, field) in [("tail p95", "tail_p95_ms"), ("tail p99", "tail_p99_ms")] {
                let value = json.get(field).and_then(Json::as_f64).unwrap_or(0.0);
                let _ = writeln!(out, "  {label:<34} {value:>14.4} ms (reported, not gated)");
            }
        }
        for part in self.all_parts() {
            let _ = writeln!(
                out,
                "  part {}{}: cpu_loop_ms {:.2} -> {:.2}{}",
                part.part,
                if part.traced { " (traced)" } else { "" },
                part.canary_before_ms,
                part.canary_after_ms,
                if part.disturbed { "  DISTURBED" } else { "" },
            );
        }
        if let Some(part) = self.all_parts().next() {
            for (key, note) in &part.notes {
                let _ = writeln!(out, "  {key}: {note}");
            }
            if let Some(env) = &part.env {
                let _ =
                    writeln!(out, "  nproc {}, kernel {}, {}", env.nproc, env.kernel, env.rustc);
            }
        }
        out
    }
}

/// `results.json` for one invocation of `run`.
pub fn results_json(seed: u64, seconds: f64, results: &[WorkloadResult]) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("workloads", Json::Arr(results.iter().map(WorkloadResult::to_json).collect())),
    ])
}

/// `(workload, metric) → (value, unit)` of a `results.json`.
fn metrics_of(results: &Json) -> Result<Vec<(String, String, f64, String)>, String> {
    let workloads = results.get("workloads").and_then(Json::as_arr).ok_or("no workloads array")?;
    let mut out = Vec::new();
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        let metrics = w.get("metrics").and_then(Json::as_obj).ok_or("workload without metrics")?;
        for (metric, body) in metrics {
            let value = body.get("value").and_then(Json::as_f64).ok_or("metric without value")?;
            let unit = body.get("unit").and_then(Json::as_str).ok_or("metric without unit")?;
            out.push((name.to_string(), metric.clone(), value, unit.to_string()));
        }
    }
    Ok(out)
}

/// The `compare A.json B.json` table: per workload × metric, A, B,
/// B ÷ A, the bound, and a verdict. Returns the table and whether any
/// gated metric got worse by more than its bound.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let (a, b) = (metrics_of(a)?, metrics_of(b)?);
    let mut out = format!(
        "{:<18} {:<32} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut regressed = false;
    for (workload, metric, va, unit) in &a {
        let Some((_, _, vb, _)) = b.iter().find(|(w, m, _, _)| w == workload && m == metric) else {
            let _ = writeln!(out, "{workload:<18} {metric:<32} {va:>14.4} {:>14}", "missing");
            continue;
        };
        let ratio = vb / va;
        let gated = listed().end_to_end.iter().find(|def| def.name == *metric);
        let (bound, verdict) = match gated.and_then(|def| Some((def, def.bound?))) {
            None if unit == "count" && va != vb => ("-".to_string(), "differs (exact count)"),
            None => ("-".to_string(), "reported"),
            Some((def, bound)) => {
                // "Worse by more than the bound" is relative to A in
                // the metric's own direction.
                let worse_by = if def.lower_is_better { ratio - 1.0 } else { 1.0 - ratio };
                let verdict = if worse_by > bound {
                    regressed = true;
                    "WORSE"
                } else if worse_by < -bound {
                    "better"
                } else {
                    "within bound"
                };
                (format!("{bound:.2}"), verdict)
            }
        };
        let _ = writeln!(
            out,
            "{workload:<18} {metric:<32} {va:>14.4} {vb:>14.4} {ratio:>8.3} {bound:>6}  {verdict} [{unit}]"
        );
    }
    Ok((out, regressed))
}

/// Checks a `results.json` against `BENCHMARK.json`: the same
/// workloads, every listed metric present with the listed unit, and no
/// unlisted metric. Returns the list of problems (empty = valid).
pub fn validate(results: &Json, benchmark: &Json) -> Result<Vec<String>, String> {
    let file = Listed::from_json(benchmark)?;
    let listed: Vec<(&str, &str)> =
        file.end_to_end.iter().chain(&file.per_layer).map(|m| (&*m.name, &*m.unit)).collect();
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let reported = metrics_of(results)?;
    let mut problems = Vec::new();
    for workload in &workloads {
        if !reported.iter().any(|(w, _, _, _)| w == workload) {
            problems.push(format!("workload {workload} is listed but was not run"));
            continue;
        }
        for (name, unit) in &listed {
            match reported.iter().find(|(w, m, _, _)| w == workload && m == name) {
                None => problems.push(format!("{workload}: listed metric {name} is missing")),
                Some((_, _, _, got)) if got != unit => {
                    problems.push(format!("{workload}: {name} has unit {got}, listed as {unit}"));
                }
                Some(_) => {}
            }
        }
    }
    for (workload, metric, _, _) in &reported {
        if !workloads.contains(&workload.as_str()) {
            problems.push(format!("workload {workload} was run but is not listed"));
        } else if !listed.iter().any(|(name, _)| name == metric) {
            problems.push(format!("{workload}: reported metric {metric} is not listed"));
        }
    }
    problems.dedup();
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(ops_per_s: f64, p50_ms: f64, reply_bytes: f64) -> Json {
        let metric = |value: f64, unit: &str| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("tcp_point_read")),
                (
                    "metrics",
                    Json::obj([
                        ("ops_per_s", metric(ops_per_s, "1/s")),
                        ("p50_ms", metric(p50_ms, "ms")),
                        ("server.reply_bytes", metric(reply_bytes, "count")),
                    ]),
                ),
            ])]),
        )])
    }

    /// A one-thread part whose rounds each ran one op of `ms` milliseconds.
    fn part(round_ms: &[f64]) -> PartReport {
        let round = |ms: &f64| Round {
            seconds: ms / 1e3,
            samples: [("op".to_string(), vec![*ms])].into_iter().collect(),
        };
        PartReport { rounds: vec![round_ms.iter().map(round).collect()], ..PartReport::default() }
    }

    #[test]
    fn each_round_is_taken_from_the_part_that_ran_it_quickest() {
        let run = WorkloadResult {
            workload: "w".into(),
            // The third part never reached round 2, so nobody's counts.
            parts: vec![part(&[10.0, 40.0, 5.0]), part(&[20.0, 20.0, 5.0]), part(&[30.0, 30.0])],
            traced: None,
        };
        let timed = run.quietest_rounds();
        assert_eq!(timed.samples["op"], [10.0, 20.0]);
        assert!((timed.seconds - 0.030).abs() < 1e-12);
        assert!((timed.ops_per_s(1) - 2.0 / 0.030).abs() < 1e-9);
        // A stall every part meets in the same round stays in.
        let stall = WorkloadResult {
            workload: "w".into(),
            parts: vec![part(&[10.0, 90.0]), part(&[11.0, 95.0]), part(&[12.0, 99.0])],
            traced: None,
        };
        assert_eq!(stall.quietest_rounds().samples["op"], [10.0, 90.0]);
    }

    #[test]
    fn set_up_is_taken_from_the_part_that_got_through_it_quickest() {
        let with_setup = |setup_s: f64| PartReport { setup_s, ..part(&[10.0]) };
        let run = WorkloadResult {
            workload: "w".into(),
            parts: vec![with_setup(1.3), with_setup(0.9), with_setup(1.1)],
            traced: None,
        };
        let setup = run.end_to_end().into_iter().find(|(def, _)| def.name == "setup_s");
        assert_eq!(setup.map(|(_, value)| value), Some(0.9));
    }

    #[test]
    fn compare_judges_each_gated_metric_in_its_own_direction() {
        let a = results(100.0, 10.0, 33.0);
        // Throughput 5 % down and latency 5 % up: both within the bound.
        let (table, regressed) = compare(&a, &results(95.0, 10.5, 33.0)).unwrap();
        assert!(!regressed, "{table}");
        assert_eq!(table.matches("within bound").count(), 2, "{table}");
        // Throughput 30 % down is worse; latency 30 % down is better.
        let (table, regressed) = compare(&a, &results(70.0, 7.0, 34.0)).unwrap();
        assert!(regressed);
        assert!(table.contains("WORSE") && table.contains("better"), "{table}");
        assert!(table.contains("differs (exact count)"), "{table}");
    }
}
