//! `validation_sweep`: the paper's §4 experiment as the gauntlet runs
//! it — each generated case checked in 3 dialects × 3 logic modes, the
//! spec interpreter as reference and the session's default backend,
//! driven through printed SQL, as candidate. The many-tiny-statements
//! regime: tables of at most 8 rows, so per-statement fixed cost is
//! everything and data volume is nothing.

use std::sync::Arc;
use std::time::Instant;

use sqlsem_algebra::{is_data_manipulation, translate, RaEvaluator};
use sqlsem_core::{Database, Dialect, Evaluator, LogicMode, Query, Schema};
use sqlsem_generator::paper_schema;
use sqlsem_parser::to_sql;
use sqlsem_session::Session;
use sqlsem_twovl::{to_two_valued, EqInterpretation};
use sqlsem_validation::{
    compare_with_order, iteration_case, ordered_comparison, session_outcome, OrderedComparison,
    ValidationConfig, Verdict,
};

use crate::gen::{fnv1a, FNV_OFFSET};
use crate::harness::{Client, Fixture, PartReport, PartSpec, Scale, Stop, Tally};
use crate::layers::replay_query;
use crate::trace::Tracer;

/// Comparisons per case: 3 dialects × 3 logic modes.
pub const COMBINATIONS: u64 = 9;

/// Client threads (= cores of the recording machine); each sweeps its
/// own share of the corpus.
const CLIENTS: usize = 2;

/// `(cases per client, cases per round)`. Case cost is heavy-tailed
/// (mean ≈ 2.5 × median) and a run's throughput is the mean over the
/// cases the seed drew: 6,000 are what one part gets through about
/// once. Every part sweeps them in the same order, so that a round is
/// the same cases in every part. A client's rounds are odd in number,
/// so that the alternating traced and untraced rounds of a traced part
/// both come to see every case.
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (3_000, 200),
        Scale::Tiny => (50, 10),
    }
}

/// One generated case, with everything set-up can precompute.
pub struct Case {
    query: Query,
    db: Database,
    order: Option<OrderedComparison>,
    /// The query printed in each dialect's syntax, in `Dialect::ALL` order.
    sql: Vec<String>,
}

/// The seeded corpus: `ValidationConfig::quick` shapes and data over
/// the paper's schema, all three logic modes.
pub struct Corpus {
    schema: Schema,
    config: ValidationConfig,
    cases: Vec<Case>,
}

impl Corpus {
    /// Generates the first `cases` cases of the corpus of `seed`
    /// and prints each in all three dialects.
    pub fn generate(seed: u64, cases: usize) -> Corpus {
        let schema = paper_schema();
        let config = ValidationConfig::quick(cases, seed).with_logics(LogicMode::ALL);
        let cases = (0..cases)
            .map(|i| {
                let (query, db) = iteration_case(&schema, &config, i);
                let order = ordered_comparison(&query, &schema);
                let sql = Dialect::ALL.iter().map(|d| to_sql(&query, *d)).collect();
                Case { query, db, order, sql }
            })
            .collect();
        Corpus { schema, config, cases }
    }

    /// FNV-1a over every printed statement and every table of every
    /// case: equal seeds give equal corpora, byte for byte.
    pub fn fingerprint(&self) -> u64 {
        self.cases.iter().fold(FNV_OFFSET, |h, case| {
            let h = case.sql.iter().fold(h, |h, sql| fnv1a(fnv1a(h, sql.as_bytes()), b"\n"));
            self.schema.iter().fold(h, |h, (table, _)| {
                let rendered = case.db.table(table).map(|t| t.to_string()).unwrap_or_default();
                fnv1a(h, rendered.as_bytes())
            })
        })
    }
}

/// A thread sweeping its share of the corpus, round by round.
pub struct SweepClient {
    corpus: Arc<Corpus>,
    /// This client's cases within the corpus.
    share: std::ops::Range<usize>,
    round_cases: usize,
    /// Disagreeing comparisons over every round.
    disagreements: u64,
}

impl Client for SweepClient {
    fn round(&mut self, r: usize, tracer: &mut Tracer, tally: &mut Tally) {
        let rounds = self.share.len() / self.round_cases;
        let start = self.share.start + (r % rounds) * self.round_cases;
        let range = start..start + self.round_cases;
        for (index, case) in self.corpus.cases[range.clone()].iter().enumerate() {
            let op_id = (range.start + index) as u64;
            let op = tracer.begin("op", op_id);
            let start = Instant::now();

            let span = tracer.begin("validation.session", op_id);
            let mut session = Session::builder().with_database(case.db.clone()).build();
            tracer.end(span);
            let (mut agree_errors, mut disagreements) = (0u64, 0u64);
            for (dialect, sql) in Dialect::ALL.iter().zip(&case.sql) {
                session.set_dialect(*dialect);
                for logic in LogicMode::ALL {
                    session.set_logic(logic);
                    let span = tracer.begin("core.spec_eval", op_id);
                    let reference = Evaluator::new(session.database())
                        .with_dialect(*dialect)
                        .with_logic(logic)
                        .eval(&case.query);
                    tracer.end(span);
                    let span = tracer.begin("session.execute", op_id);
                    let candidate = session_outcome(&mut session, sql);
                    tracer.end(span);
                    let span = tracer.begin("validation.compare", op_id);
                    let verdict = compare_with_order(&reference, &candidate, case.order.as_ref());
                    tracer.end(span);
                    match verdict {
                        Verdict::AgreeResult => {}
                        Verdict::AgreeError => agree_errors += 1,
                        Verdict::Disagree(detail) => {
                            disagreements += 1;
                            eprintln!("benchmark: case {op_id} [{dialect}, {logic}]: {detail}");
                        }
                    }
                }
            }

            let latency = start.elapsed();
            tracer.end(op);
            tally.count("agree_errors", agree_errors);
            tally.count("comparisons", COMBINATIONS);
            self.disagreements += disagreements;
            if disagreements == 0 {
                tally.ok("case", latency);
            } else {
                tally.wrong(format!(
                    "case {op_id}: {disagreements} disagreement(s)\n{}",
                    case.sql[0]
                ));
            }
        }
    }
}

/// The `validation_sweep` fixture.
pub struct ValidationSweep {
    clients: Vec<SweepClient>,
}

impl Fixture for ValidationSweep {
    type Client = SweepClient;
    const NAME: &'static str = "validation_sweep";
    const ACCOUNTED: &'static [(&'static str, f64)] = &[
        ("validation.session_us", 1.0),
        ("core.spec_eval_us", COMBINATIONS as f64),
        ("session.execute_us", COMBINATIONS as f64),
        ("validation.compare_us", COMBINATIONS as f64),
    ];
    // Two rounds per client: with one, set-up is barely half a second.
    const WARM_UP_ROUNDS: usize = 2;

    fn set_up(spec: &PartSpec, _tally: &mut Tally) -> Self {
        let (share, round_cases) = sizes(spec.scale);
        let corpus = Arc::new(Corpus::generate(spec.seed, CLIENTS * share));
        let clients = (0..CLIENTS)
            .map(|c| SweepClient {
                corpus: corpus.clone(),
                share: c * share..(c + 1) * share,
                round_cases,
                disagreements: 0,
            })
            .collect();
        ValidationSweep { clients }
    }

    fn clients_mut(&mut self) -> &mut [SweepClient] {
        &mut self.clients
    }

    fn stop(&self, spec: &PartSpec) -> Stop {
        Stop::Deadline(std::time::Duration::from_secs_f64(spec.seconds))
    }

    fn finish(&mut self, report: &mut PartReport, tally: &mut Tally) {
        let corpus = &self.clients[0].corpus;
        report.notes.insert("corpus_fnv1a".into(), format!("{:016x}", corpus.fingerprint()));
        // The sweep must exercise error agreement (the ambiguous-star
        // cases of §4), not merely never disagree.
        let errors = report.exact.get("warmup.agree_errors").copied().unwrap_or(0.0);
        let comparisons = report.exact.get("warmup.comparisons").copied().unwrap_or(0.0);
        if errors == 0.0 {
            tally.wrong("the warm-up round saw no error agreement");
        }
        let share = errors / comparisons.max(1.0);
        report.exact.insert("validation.agree_error_share".into(), share);
        report.layers.insert("validation.agree_error_share".into(), share);
        let disagreements: u64 = self.clients.iter().map(|c| c.disagreements).sum();
        report.layers.insert("validation.disagreements".into(), disagreements as f64);
    }

    fn probes(&mut self, spec: &PartSpec, tracer: &mut Tracer, _report: &mut PartReport) {
        let samples = spec.probe_samples();
        let corpus = &self.clients[0].corpus;
        let stride = (corpus.cases.len() / samples).max(1);
        for (n, index) in (0..corpus.cases.len()).step_by(stride).enumerate() {
            let case = &corpus.cases[index];
            let op_id = index as u64;

            let span = tracer.begin("generator.case", op_id);
            std::hint::black_box(iteration_case(&corpus.schema, &corpus.config, index));
            tracer.end(span);

            // One of the nine combinations per sampled case, rotating.
            let dialect = Dialect::ALL[n % Dialect::ALL.len()];
            let mut session = Session::builder().with_database(case.db.clone()).build();
            session.set_dialect(dialect);
            session.set_logic(LogicMode::ALL[(n / 3) % LogicMode::ALL.len()]);
            let sql = &case.sql[n % Dialect::ALL.len()];
            replay_query(tracer, op_id, &session, &case.db, sql);

            // The §5 and §6 applications, on the cases they are defined for.
            if is_data_manipulation(&case.query).is_ok() {
                let span = tracer.begin("algebra.translate", op_id);
                let ra = translate(&case.query, &corpus.schema);
                tracer.end(span);
                if let Ok(ra) = ra {
                    let span = tracer.begin("algebra.eval", op_id);
                    let _ = std::hint::black_box(RaEvaluator::new(&case.db).eval(&ra));
                    tracer.end(span);
                }
                let span = tracer.begin("twovl.translate", op_id);
                std::hint::black_box(to_two_valued(&case.query, EqInterpretation::Conflate));
                tracer.end(span);
            }
        }
    }
}
