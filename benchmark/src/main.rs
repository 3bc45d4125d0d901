//! `sqlsem-benchmark run | compare | validate` — see `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use sqlsem_benchmark::harness::{PartReport, PartSpec, Scale, DEFAULT_SEED};
use sqlsem_benchmark::json::{self, Json};
use sqlsem_benchmark::metrics::listed;
use sqlsem_benchmark::report::{self, WorkloadResult};
use sqlsem_benchmark::workloads::Workload;

/// Fresh processes per gated workload run; each gets a third of
/// `--seconds` and repeats the same rounds, so that the report can take
/// every round from the process that got through it quickest. Three
/// processes also draw three hash seeds, heap layouts and timer phases.
const PARTS: usize = 3;

const USAGE: &str = "usage:
  sqlsem-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
      --trace 0 (default)  the gated run: 3 fresh processes per workload, end-to-end metrics
      --trace 1            the traced run: 1 process per workload, per-layer metrics
      --trace              both
  sqlsem-benchmark compare A.json B.json
  sqlsem-benchmark validate results.json BENCHMARK.json";

/// Which runs `run` makes.
#[derive(Clone, Copy, PartialEq)]
enum Trace {
    Gated,
    Traced,
    Both,
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    part: usize,
    out_dir: PathBuf,
}

/// Parses the flags of `run` and `part`. Unknown flags are errors: a
/// typo must not silently run the default.
fn parse_flags(flags: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: listed().run_seconds,
        trace: Trace::Gated,
        part: 0,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = flags.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            args.trace = match it.next_if(|v| *v == "0" || *v == "1").map(String::as_str) {
                Some("0") => Trace::Gated,
                Some("1") => Trace::Traced,
                _ => Trace::Both,
            };
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                args.workloads = vec![Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--part" => args.part = value.parse().map_err(|_| bad("a whole number"))?,
            "--out" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Runs one part in a child process and reads its report (the last
/// line of its standard output).
fn spawn_part(
    workload: Workload,
    args: &Args,
    part: usize,
    seconds: f64,
    traced: bool,
) -> Result<PartReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .arg("part")
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--part", &part.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start part {part} of {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("part {part} of {} ended with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("part printed nothing")?;
    PartReport::from_json(&json::parse(line)?)
}

fn run(flags: &[String]) -> Result<ExitCode, String> {
    let args = parse_flags(flags)?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let part_seconds = args.seconds / PARTS as f64;
    let mut results = Vec::new();
    for &workload in &args.workloads {
        let mut result = WorkloadResult { workload: workload.name().into(), ..Default::default() };
        if args.trace != Trace::Traced {
            for part in 0..PARTS {
                result.parts.push(spawn_part(workload, &args, part, part_seconds, false)?);
            }
        }
        if args.trace != Trace::Gated {
            result.traced = Some(spawn_part(workload, &args, PARTS, part_seconds, true)?);
        }
        print!("{}", result.render());
        results.push(result);
    }
    let path = args.out_dir.join("results.json");
    let results_json = report::results_json(args.seed, args.seconds, &results);
    std::fs::write(&path, results_json.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    // Last, one line per workload: the result object the driver reads.
    for result in &results {
        println!("{}", result.contract_line());
    }
    Ok(if results.iter().all(WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn part(flags: &[String], process_start: Instant) -> Result<ExitCode, String> {
    let args = parse_flags(flags)?;
    let [workload] = args.workloads[..] else { return Err("part needs --workload".into()) };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let spec = PartSpec {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace == Trace::Traced,
        part: args.part,
        out_dir: args.out_dir,
        scale: Scale::Full,
    };
    println!("{}", workload.run_part(&spec, process_start).to_json());
    Ok(ExitCode::SUCCESS)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let (table, regressed) = report::compare(&read_json(a)?, &read_json(b)?)?;
    print!("{table}");
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn validate(results: &str, benchmark: &str) -> Result<ExitCode, String> {
    let problems = report::validate(&read_json(results)?, &read_json(benchmark)?)?;
    for problem in &problems {
        eprintln!("validate: {problem}");
    }
    println!("validate: {} problem(s)", problems.len());
    Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, flags)) if cmd == "run" => run(flags),
        Some((cmd, flags)) if cmd == "part" => part(flags, process_start),
        Some((cmd, [a, b])) if cmd == "compare" => compare(a, b),
        Some((cmd, [results, benchmark])) if cmd == "validate" => validate(results, benchmark),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
