//! The benchmark's own guarantees: inputs are a pure function of the
//! seed, exact counts repeat exactly, a wrong answer fails the run, and
//! `validate` catches a results file that strays from `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sqlsem_benchmark::harness::{run_part_with, PartReport, PartSpec, Scale};
use sqlsem_benchmark::json;
use sqlsem_benchmark::metrics::listed;
use sqlsem_benchmark::report::{self, WorkloadResult};
use sqlsem_benchmark::workloads::tcp_point_read::{self, TcpPointRead};
use sqlsem_benchmark::workloads::validation_sweep::Corpus;
use sqlsem_benchmark::workloads::Workload;

/// A miniature part: every round runs at least once, nothing is shared
/// between tests (each gets its own scratch directory and port).
fn tiny(test: &str, seed: u64, traced: bool) -> PartSpec {
    let out_dir: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(test);
    std::fs::create_dir_all(&out_dir).unwrap();
    PartSpec { seed, seconds: 0.05, traced, part: 0, out_dir, scale: Scale::Tiny }
}

fn run(workload: Workload, spec: &PartSpec) -> PartReport {
    let report = workload.run_part(spec, Instant::now());
    assert_eq!((report.failed, report.wrong), (0, 0), "{} must run clean", report.workload);
    report
}

#[test]
fn same_seed_same_inputs_different_seed_different_inputs() {
    for client in 0..2 {
        let a = tcp_point_read::statement_stream(7, client, Scale::Tiny);
        assert_eq!(a, tcp_point_read::statement_stream(7, client, Scale::Tiny));
        assert_ne!(a, tcp_point_read::statement_stream(8, client, Scale::Tiny));
    }
    let corpus = Corpus::generate(7, 60).fingerprint();
    assert_eq!(corpus, Corpus::generate(7, 60).fingerprint());
    assert_ne!(corpus, Corpus::generate(8, 60).fingerprint());
}

#[test]
fn tcp_point_read_counts_repeat_exactly() {
    let spec = tiny("tcp-exact", 11, false);
    let (a, b) = (run(Workload::TcpPointRead, &spec), run(Workload::TcpPointRead, &spec));
    assert_eq!(a.exact, b.exact);
    assert_eq!(a.notes, b.notes);
    assert_eq!(a.exact["warmup.ops"], 40.0, "2 clients x 20 ops per round");
    assert!(a.exact["warmup.reply_bytes"] > 0.0);
    let other = run(Workload::TcpPointRead, &tiny("tcp-exact", 12, false));
    assert_ne!(a.notes["statement_stream_fnv1a"], other.notes["statement_stream_fnv1a"]);
}

#[test]
fn durable_mixed_counts_repeat_exactly_and_every_acknowledged_row_survives() {
    let spec = tiny("durable-exact", 11, false);
    let (a, b) = (run(Workload::DurableMixed, &spec), run(Workload::DurableMixed, &spec));
    assert_eq!(a.exact, b.exact);
    assert_eq!(a.exact["lost_rows"], 0.0);
    assert!(a.exact["acknowledged_rows"] >= 160.0, "warm-up alone: 2 connections x 80 rows");
    assert!(a.exact["storage.wal_bytes_per_row"] > 0.0);
    assert!(a.exact["storage.disk_bytes_per_row"] > 0.0);
}

#[test]
fn validation_sweep_counts_repeat_exactly_and_see_error_agreement() {
    let spec = tiny("validation-exact", 11, false);
    let (a, b) = (run(Workload::ValidationSweep, &spec), run(Workload::ValidationSweep, &spec));
    assert_eq!(a.exact, b.exact);
    assert_eq!(a.notes, b.notes);
    assert!(a.exact["validation.agree_error_share"] > 0.0);
    assert_eq!(a.exact["warmup.comparisons"], 360.0, "2 clients x 2 rounds x 10 cases x 9");
}

#[test]
fn traced_parts_report_layers_that_discriminate() {
    let tcp = run(Workload::TcpPointRead, &tiny("tcp-traced", 5, true));
    let scan = run(Workload::AnalyticScan, &tiny("scan-traced", 5, true));
    for layers in [&tcp.layers, &scan.layers] {
        for name in ["parser.parse_us", "engine.optimize_us", "engine.exec_us", "tail.samples"] {
            assert!(layers[name] > 0.0, "{name}");
        }
    }
    assert!(tcp.layers["server.wire_us"] > 0.0);
    assert!(!scan.layers.contains_key("server.wire_us"), "no sockets in analytic_scan");
    assert!(!tcp.layers.contains_key("storage.fsync_us"), "no storage in tcp_point_read");
    for shape in ["group", "join", "topk", "not_in", "outer", "filter"] {
        assert!(scan.layers[&format!("engine.q_{shape}_ms")] > 0.0, "{shape}");
    }
    // Every layer name a part reports is one `BENCHMARK.json` lists.
    for name in tcp.layers.keys().chain(scan.layers.keys()) {
        assert!(listed().is_per_layer(name), "unlisted {name}");
    }
    let trace = tiny("tcp-traced", 5, true).out_dir.join("trace-tcp_point_read.json");
    let spans = json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
    assert!(spans.as_arr().unwrap().iter().any(|thread| !thread.as_arr().unwrap().is_empty()));
}

#[test]
fn a_wrong_expected_row_fails_the_run() {
    fn off_by_one(seed: u64, k: u64) -> (i64, Option<i64>) {
        let (b, c) = tcp_point_read::generated_row(seed, k);
        (b + 1, c)
    }
    let spec = tiny("tcp-wrong", 3, false);
    let part = run_part_with(&spec, Instant::now(), |spec, _| {
        TcpPointRead::with_formula(spec, off_by_one)
    });
    assert!(part.wrong > 0);
    assert_eq!(part.pooled().correct(), 0, "a wrong answer gives no latency sample");
    let result =
        WorkloadResult { workload: part.workload.clone(), parts: vec![part], traced: None };
    // `run` exits non-zero unless every workload is correct.
    assert!(!result.correct());
    let line = result.contract_line();
    assert_eq!(line.get("correct").and_then(json::Json::as_bool), Some(false));
    assert!(line.get("failed").and_then(json::Json::as_f64).unwrap() > 0.0);
}

#[test]
fn results_validate_against_benchmark_json_unless_a_metric_is_missing_or_unlisted() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let file = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let metric = |name: &str, unit: &str| {
        (
            name.to_string(),
            json::Json::obj([("value", json::Json::Num(1.0)), ("unit", json::Json::str(unit))]),
        )
    };
    let all: Vec<_> = listed()
        .end_to_end
        .iter()
        .chain(&listed().per_layer)
        .map(|m| metric(&m.name, &m.unit))
        .collect();
    let results = |metrics: Vec<(String, json::Json)>| {
        let workload = |name: &&str| {
            json::Json::obj([
                ("name", json::Json::str(*name)),
                ("metrics", json::Json::Obj(metrics.clone())),
            ])
        };
        json::Json::obj([("workloads", json::Json::Arr(workloads.iter().map(workload).collect()))])
    };
    assert_eq!(report::validate(&results(all.clone()), &file).unwrap(), Vec::<String>::new());
    assert_eq!(report::validate(&results(all[1..].to_vec()), &file).unwrap().len(), 4);
    let mut extra = all.clone();
    extra.push(metric("made.up_us", "us"));
    assert_eq!(report::validate(&results(extra), &file).unwrap().len(), 4);
}
