//! The part runner shared by all workloads.
//!
//! A *part* is one process's share of a workload run: canary → set-up
//! (fixture, connections, reference results, one untimed warm-up round)
//! → timed rounds → canary → post-run checks. Load is closed-loop: each
//! client thread sends its next op only after the previous reply, and
//! finishes the round it is in when the budget runs out. In a traced
//! part odd rounds record spans and even rounds do not, so both halves
//! see the same state and the same drift.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::listed;
use crate::stats::{geomean, median, midmean, percentile};
use crate::sysinfo::{self, Environment};
use crate::trace::{self, Span, Tracer};

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 2017;

/// Fixture sizes: the recorded benchmark, or a miniature the crate's
/// own tests can run in a debug build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is recorded at.
    Full,
    /// A few hundred rows; for tests only.
    Tiny,
}

/// What one part process is asked to do.
#[derive(Clone, Debug)]
pub struct PartSpec {
    /// Seed of every generated input.
    pub seed: u64,
    /// Budget of the timed section, in seconds.
    pub seconds: f64,
    /// Record spans and run the layer probes.
    pub traced: bool,
    /// Index of this part within its run (names scratch directories).
    pub part: usize,
    /// Where scratch stores and trace files go.
    pub out_dir: PathBuf,
    /// Fixture sizes.
    pub scale: Scale,
}

impl PartSpec {
    /// How many ops the traced part's layer probes replay: 200 at the
    /// recorded run length (a 7 s part), proportionally fewer for a
    /// shorter smoke run, never under 20.
    pub fn probe_samples(&self) -> usize {
        ((200.0 * self.seconds / 7.0).round() as usize).clamp(20, 200)
    }
}

/// When a client thread stops starting new rounds.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Once this much time has passed since the start barrier.
    Deadline(Duration),
    /// After this many rounds (a count-bounded workload).
    Rounds(usize),
}

/// What one client thread observed over a set of rounds.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Time spent inside rounds.
    pub elapsed: Duration,
    /// Ops started.
    pub attempted: u64,
    /// Ops that errored or were refused.
    pub failed: u64,
    /// Ops that completed with a wrong answer.
    pub wrong: u64,
    /// Latency samples (ms) of correct ops, by op kind.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Workload-specific event counts.
    pub counts: BTreeMap<&'static str, u64>,
}

/// How many wrong answers are explained on stderr before going quiet.
const WRONG_REPORTS: u64 = 5;

impl Tally {
    /// Records a correct op and its latency.
    pub fn ok(&mut self, kind: &'static str, latency: Duration) {
        self.attempted += 1;
        self.samples.entry(kind).or_default().push(latency.as_secs_f64() * 1e3);
    }

    /// Records an op that errored. It contributes no latency sample.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= WRONG_REPORTS {
            eprintln!("benchmark: FAILED op: {why}");
        }
    }

    /// Records an op that answered wrongly. It contributes no latency
    /// sample.
    pub fn wrong(&mut self, why: impl std::fmt::Display) {
        self.attempted += 1;
        self.wrong += 1;
        if self.wrong <= WRONG_REPORTS {
            eprintln!("benchmark: WRONG answer: {why}");
        }
    }

    /// Adds `n` to a named counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Ops that completed correctly.
    pub fn correct(&self) -> u64 {
        self.attempted - self.failed - self.wrong
    }

    /// Folds another thread's (or round's) tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.elapsed += other.elapsed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for (kind, samples) in &other.samples {
            self.samples.entry(kind).or_default().extend(samples);
        }
        for (name, n) in &other.counts {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Correct ops per second, as [`Round::ops_per_s`] counts them.
    pub fn ops_per_s(&self, threads: usize) -> f64 {
        threads as f64 * self.correct() as f64 / self.elapsed.as_secs_f64()
    }
}

/// A latency statistic over op kinds: the geometric mean of the
/// per-kind values of `stat`, so every kind weighs the same however
/// often it ran (with a single kind, that kind's value).
pub fn over_kinds<K>(samples: &BTreeMap<K, Vec<f64>>, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per_kind: Vec<f64> = samples.values().filter(|s| !s.is_empty()).map(|s| stat(s)).collect();
    geomean(&per_kind)
}

/// `p50_ms`: the middle per-op latency, every op kind weighing the same.
/// The middle is the interquartile mean on every workload: as robust to
/// tails as the median, and where latencies sit on a coarse lattice
/// (`tcp_point_read` replies land on the kernel's 4 ms timer ticks) it
/// does not jump a whole tick when two neighbouring values trade a few
/// samples.
pub fn p50_ms<K>(samples: &BTreeMap<K, Vec<f64>>) -> f64 {
    over_kinds(samples, midmean)
}

/// One closed-loop load generator; runs on its own thread.
pub trait Client: Send {
    /// Runs round `r`: a fixed, seeded sequence of ops, each timed from
    /// outside the call into the system and checked against a predicted
    /// answer.
    fn round(&mut self, r: usize, tracer: &mut Tracer, tally: &mut Tally);
}

/// A workload's state for one part.
pub trait Fixture: Sized {
    /// The per-thread load generator.
    type Client: Client;

    /// The workload's name in `BENCHMARK.json`.
    const NAME: &'static str;

    /// Builds the fixture, connects the clients and computes reference
    /// results. Errors found here (a reference mismatch) are returned in
    /// the tally as wrong answers.
    fn set_up(spec: &PartSpec, tally: &mut Tally) -> Self;

    /// The connected clients, one per load thread.
    fn clients_mut(&mut self) -> &mut [Self::Client];

    /// When the timed section ends.
    fn stop(&self, spec: &PartSpec) -> Stop;

    /// Traced parts only, after the timed section and before
    /// [`Fixture::finish`]: replays a seeded sample of ops layer by
    /// layer through the public functions, recording spans, and may set
    /// metrics that are not span medians directly.
    fn probes(&mut self, spec: &PartSpec, tracer: &mut Tracer, report: &mut PartReport);

    /// Post-run checks and exact counts (after every client is done).
    fn finish(&mut self, _report: &mut PartReport, _tally: &mut Tally) {}

    /// Traced parts only: metrics computed from other metrics, given
    /// the span medians and the end-to-end p50 (µs).
    fn derive(_layers: &mut BTreeMap<String, f64>, _p50_us: f64) {}

    /// The layers that make up one op, as `(metric, times per op)`:
    /// their p50s (µs) are summed for `trace.unaccounted_share`.
    const ACCOUNTED: &'static [(&'static str, f64)];

    /// How many op kinds rotate through `op_id` (`op_id % KINDS` is the
    /// kind); span medians are taken per kind and combined like
    /// `p50_ms`.
    const KINDS: u64 = 1;

    /// Untimed warm-up rounds per client at the end of set-up.
    const WARM_UP_ROUNDS: usize = 1;

    /// The in-process session call this workload's statements go
    /// through — the denominator of `engine.exec_share`.
    const SESSION_CALL: &'static str = "session.execute_us";
}

/// One untraced timed round of one client thread.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Round {
    /// Time inside the round.
    pub seconds: f64,
    /// Latency samples (ms) of the round's correct ops, by kind.
    pub samples: BTreeMap<String, Vec<f64>>,
}

/// Latency samples by kind, and the time inside, of `rounds` together.
pub fn pool<'a>(rounds: impl IntoIterator<Item = &'a Round>) -> Round {
    let mut pooled = Round::default();
    for round in rounds {
        pooled.seconds += round.seconds;
        for (kind, samples) in &round.samples {
            pooled.samples.entry(kind.clone()).or_default().extend(samples);
        }
    }
    pooled
}

impl Round {
    /// Correct ops.
    pub fn correct(&self) -> u64 {
        self.samples.values().map(|s| s.len() as u64).sum()
    }

    /// Correct ops per second when `self` pools the rounds of `threads`
    /// client threads: `threads × correct ÷ Σ thread time` (ops ÷ wall
    /// when the threads' rounds coincide, and unaffected by one thread
    /// finishing its last round a little after another).
    pub fn ops_per_s(&self, threads: usize) -> f64 {
        threads as f64 * self.correct() as f64 / self.seconds
    }
}

/// Everything one part reports to the parent process.
#[derive(Clone, Debug, Default)]
pub struct PartReport {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Part index.
    pub part: usize,
    /// Whether this was the traced part.
    pub traced: bool,
    /// Process start → first timed op.
    pub setup_s: f64,
    /// Ops started in untraced timed rounds.
    pub attempted: u64,
    /// Ops that errored (anywhere, including set-up and warm-up).
    pub failed: u64,
    /// Wrong answers (anywhere, including set-up and post-run checks).
    pub wrong: u64,
    /// The untraced timed rounds of each client thread, in order. A
    /// round of a given thread and index is the same work in every
    /// part of a run.
    pub rounds: Vec<Vec<Round>>,
    /// Counts that must repeat exactly for a given seed and run length.
    pub exact: BTreeMap<String, f64>,
    /// Free-text facts (flush policy, stream fingerprints).
    pub notes: BTreeMap<String, String>,
    /// Traced parts: per-layer metric values by `BENCHMARK.json` name.
    pub layers: BTreeMap<String, f64>,
    /// `VmHWM` at part exit.
    pub peak_rss_mb: f64,
    /// Canary before the timed section.
    pub canary_before_ms: f64,
    /// Canary after the timed section.
    pub canary_after_ms: f64,
    /// The two canaries differ by more than a tenth.
    pub disturbed: bool,
    /// Machine and toolchain.
    pub env: Option<Environment>,
}

impl PartReport {
    /// All untraced timed rounds together.
    pub fn pooled(&self) -> Round {
        pool(self.rounds.iter().flatten())
    }

    /// The JSON a part prints as its last line.
    pub fn to_json(&self) -> Json {
        let map = |m: &BTreeMap<String, f64>| Json::obj(m.iter().map(|(k, v)| (k, Json::Num(*v))));
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("part", Json::Num(self.part as f64)),
            ("traced", Json::Bool(self.traced)),
            ("setup_s", Json::Num(self.setup_s)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("wrong", Json::Num(self.wrong as f64)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("canary_before_ms", Json::Num(self.canary_before_ms)),
            ("canary_after_ms", Json::Num(self.canary_after_ms)),
            ("disturbed", Json::Bool(self.disturbed)),
            ("env", self.env.as_ref().map_or(Json::Null, Environment::to_json)),
            ("exact", map(&self.exact)),
            ("notes", Json::obj(self.notes.iter().map(|(k, v)| (k, Json::str(v))))),
            ("layers", map(&self.layers)),
            (
                "rounds",
                Json::Arr(
                    self.rounds
                        .iter()
                        .map(|thread| {
                            let round = |r: &Round| {
                                let samples = r.samples.iter().map(|(k, v)| (k, Json::nums(v)));
                                Json::obj([
                                    ("seconds", Json::Num(r.seconds)),
                                    ("samples", Json::obj(samples)),
                                ])
                            };
                            Json::Arr(thread.iter().map(round).collect())
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads back [`PartReport::to_json`].
    pub fn from_json(json: &Json) -> Result<PartReport, String> {
        let num = |key: &str| {
            json.get(key).and_then(Json::as_f64).ok_or_else(|| format!("part report lacks {key}"))
        };
        let map = |key: &str| -> Result<BTreeMap<String, f64>, String> {
            let members = json.get(key).and_then(Json::as_obj).ok_or(format!("no {key}"))?;
            Ok(members.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect())
        };
        let env = json.get("env").and_then(|e| {
            Some(Environment {
                nproc: e.get("nproc")?.as_f64()? as usize,
                kernel: e.get("kernel")?.as_str()?.to_string(),
                rustc: e.get("rustc")?.as_str()?.to_string(),
            })
        });
        let round = |r: &Json| -> Option<Round> {
            let samples = r.get("samples")?.as_obj()?.iter().map(|(kind, values)| {
                let values = values.as_arr().unwrap_or_default();
                (kind.clone(), values.iter().filter_map(Json::as_f64).collect())
            });
            Some(Round { seconds: r.get("seconds")?.as_f64()?, samples: samples.collect() })
        };
        let rounds = json
            .get("rounds")
            .and_then(Json::as_arr)
            .ok_or("part report lacks rounds")?
            .iter()
            .map(|thread| thread.as_arr().unwrap_or_default().iter().filter_map(round).collect())
            .collect();
        let notes = json
            .get("notes")
            .and_then(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect();
        Ok(PartReport {
            workload: json.get("workload").and_then(Json::as_str).ok_or("no workload")?.to_string(),
            seed: num("seed")? as u64,
            part: num("part")? as usize,
            traced: json.get("traced").and_then(Json::as_bool).unwrap_or(false),
            setup_s: num("setup_s")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            wrong: num("wrong")? as u64,
            rounds,
            exact: map("exact")?,
            notes,
            layers: map("layers")?,
            peak_rss_mb: num("peak_rss_mb")?,
            canary_before_ms: num("canary_before_ms")?,
            canary_after_ms: num("canary_after_ms")?,
            disturbed: json.get("disturbed").and_then(Json::as_bool).unwrap_or(false),
            env,
        })
    }
}

/// One thread's rounds in order, each with whether it recorded spans.
type Rounds = Vec<(bool, Tally)>;

/// What every client thread did in a timed section: its rounds and
/// its spans.
struct Driven {
    rounds: Vec<Rounds>,
    spans: Vec<Vec<Span>>,
}

impl Driven {
    /// Each thread's untraced rounds, in order.
    fn untraced_rounds(&self) -> Vec<Vec<Round>> {
        let round = |tally: &Tally| Round {
            seconds: tally.elapsed.as_secs_f64(),
            samples: tally.samples.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        };
        self.rounds
            .iter()
            .map(|thread| thread.iter().filter(|(t, _)| !*t).map(|(_, r)| round(r)).collect())
            .collect()
    }

    /// All traced (or untraced) rounds of all threads, merged.
    fn total(&self, traced: bool) -> Tally {
        let mut total = Tally::default();
        for (_, round) in self.rounds.iter().flatten().filter(|(t, _)| *t == traced) {
            total.merge(round);
        }
        total
    }
}

/// Runs every client on its own thread from a common start barrier
/// until `stop`. With `alternate`, odd rounds are traced.
fn drive<C: Client>(clients: &mut [C], stop: Stop, epoch: Instant, alternate: bool) -> Driven {
    let barrier = Barrier::new(clients.len());
    let per_thread: Vec<(Rounds, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch, false);
                    let mut rounds = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    for r in 0.. {
                        let done = match stop {
                            Stop::Deadline(budget) => start.elapsed() >= budget,
                            Stop::Rounds(n) => r >= n,
                        };
                        if done {
                            break;
                        }
                        let tracing = alternate && r % 2 == 1;
                        tracer.set_enabled(tracing);
                        let mut tally = Tally::default();
                        let round_start = Instant::now();
                        client.round(r, &mut tracer, &mut tally);
                        tally.elapsed = round_start.elapsed();
                        rounds.push((tracing, tally));
                    }
                    (rounds, tracer.into_spans())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let (rounds, spans) = per_thread.into_iter().unzip();
    Driven { rounds, spans }
}

/// Median self time (µs) per span name, combined over `kinds` op kinds
/// the way `p50_ms` is (geometric mean of per-kind medians).
fn span_medians(threads: &[Vec<Span>], kinds: u64) -> BTreeMap<String, f64> {
    let mut by_name_kind: BTreeMap<(&'static str, u64), Vec<f64>> = BTreeMap::new();
    for spans in threads {
        for (span, self_us) in spans.iter().zip(trace::self_times_us(spans)) {
            by_name_kind.entry((span.name, span.op_id % kinds)).or_default().push(self_us);
        }
    }
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), samples) in &by_name_kind {
        per_name.entry(name).or_default().push(median(samples));
    }
    per_name.into_iter().map(|(name, medians)| (format!("{name}_us"), geomean(&medians))).collect()
}

/// Runs one part of workload `F` in this process.
///
/// `process_start` is when the process began, so that `setup_s` covers
/// everything a fresh process pays before its first timed op.
pub fn run_part<F: Fixture>(spec: &PartSpec, process_start: Instant) -> PartReport {
    run_part_with(spec, process_start, F::set_up)
}

/// [`run_part`] with the fixture built by `set_up` — the seam through
/// which the crate's tests plant a wrong expected answer.
pub fn run_part_with<F: Fixture>(
    spec: &PartSpec,
    process_start: Instant,
    set_up: impl FnOnce(&PartSpec, &mut Tally) -> F,
) -> PartReport {
    let mut report = PartReport {
        workload: F::NAME.to_string(),
        seed: spec.seed,
        part: spec.part,
        traced: spec.traced,
        ..PartReport::default()
    };
    let mut checks = Tally::default();
    let mut fixture = set_up(spec, &mut checks);
    let warm_up =
        drive(fixture.clients_mut(), Stop::Rounds(F::WARM_UP_ROUNDS), process_start, false)
            .total(false);
    report.setup_s = process_start.elapsed().as_secs_f64();

    // The canary brackets the timed section but is not part of set-up:
    // it measures the machine, not the program.
    report.canary_before_ms = sysinfo::cpu_loop_ms();
    let stop = fixture.stop(spec);
    let driven = drive(fixture.clients_mut(), stop, process_start, spec.traced);
    report.canary_after_ms = sysinfo::cpu_loop_ms();
    report.disturbed = sysinfo::disturbed(report.canary_before_ms, report.canary_after_ms);

    let (untraced, traced) = (driven.total(false), driven.total(true));
    report.attempted = untraced.attempted;
    report.rounds = driven.untraced_rounds();
    let clients = report.rounds.len();
    // The warm-up is the same work on every run, so its counters are
    // exact counts.
    for (name, n) in &warm_up.counts {
        report.exact.insert(format!("warmup.{name}"), *n as f64);
    }
    report.exact.insert("warmup.ops".to_string(), warm_up.attempted as f64);

    let mut threads = driven.spans;
    if spec.traced {
        let mut tracer = Tracer::new(process_start, true);
        fixture.probes(spec, &mut tracer, &mut report);
        threads.push(tracer.into_spans());
    }
    fixture.finish(&mut report, &mut checks);

    if spec.traced {
        // Spans that are harness structure (`op`, `replay`) rather than
        // a layer have no metric of their name.
        for (name, value) in span_medians(&threads, F::KINDS) {
            if listed().is_per_layer(&name) {
                report.layers.entry(name).or_insert(value);
            }
        }
        let samples = report.pooled().samples;
        let p50_us = p50_ms(&samples) * 1e3;
        let untraced_rate = untraced.ops_per_s(clients);
        let traced_rate = traced.ops_per_s(clients);
        let layers = &mut report.layers;
        F::derive(layers, p50_us);
        if let (Some(exec), Some(call)) =
            (layers.get("engine.exec_us"), layers.get(F::SESSION_CALL))
        {
            layers.insert("engine.exec_share".into(), exec / call);
        }
        layers.insert("tail.p95_ms".into(), over_kinds(&samples, |s| percentile(s, 0.95)));
        layers.insert("tail.p99_ms".into(), over_kinds(&samples, |s| percentile(s, 0.99)));
        layers.insert("tail.samples".into(), untraced.correct() as f64);
        layers.insert("trace.overhead_share".into(), 1.0 - traced_rate / untraced_rate);
        let accounted: f64 = F::ACCOUNTED
            .iter()
            .map(|(name, times)| times * layers.get(*name).copied().unwrap_or(0.0))
            .sum();
        layers.insert("trace.unaccounted_share".into(), 1.0 - accounted / p50_us);
        let path = spec.out_dir.join(format!("trace-{}.json", F::NAME));
        if let Err(e) = std::fs::write(&path, trace::to_json(&threads).to_string()) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }

    for t in [&warm_up, &untraced, &traced, &checks] {
        report.failed += t.failed;
        report.wrong += t.wrong;
    }
    drop(fixture);
    report.peak_rss_mb = sysinfo::peak_rss_mb();
    // Last, so that spawning `rustc --version` is in no measurement.
    report.env = Some(Environment::detect());
    report
}
