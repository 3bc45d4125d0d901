//! The §4 validation experiment: randomly generated queries over random
//! databases, evaluated by the formal semantics and by an independent
//! engine, compared under the correctness criterion.
//!
//! For each iteration the harness derives a fresh deterministic RNG,
//! generates a query and a database instance, and for each configured
//! dialect compares `⟦Q⟧_D` as computed by [`sqlsem_core::Evaluator`]
//! (the formal semantics, adjusted to the dialect) against the query's
//! SQL text executed through a [`Session`] configured with the
//! candidate [`Backend`] (by default the optimized engine — the
//! stand-in for PostgreSQL/Oracle). Driving the candidate through the
//! session exercises the whole public pipeline — print, parse,
//! annotate, compile, optimize, execute — on every comparison. The
//! paper runs this for 100,000 queries and reports that "the results
//! were always the same", including matching ambiguity errors on
//! Oracle.

use std::fmt;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sqlsem_core::{Database, Dialect, EvalError, Evaluator, LogicMode, Query, Schema};
use sqlsem_engine::Backend;
use sqlsem_generator::{random_database, DataGenConfig, QueryGenConfig, QueryGenerator};
use sqlsem_session::Session;

use crate::compare::{compare_with_order, ordered_comparison, Outcome, Verdict};

/// Configuration of a validation run.
#[derive(Clone, Debug)]
pub struct ValidationConfig {
    /// Number of query/database pairs to generate.
    pub queries: usize,
    /// Master seed; iteration `i` uses a deterministic derivation of it.
    pub seed: u64,
    /// Query shape parameters.
    pub query_config: QueryGenConfig,
    /// Database generation parameters.
    pub data_config: DataGenConfig,
    /// Dialects to validate (each compares semantics-vs-engine adjusted
    /// to that dialect).
    pub dialects: Vec<Dialect>,
    /// Logic modes to validate under (§6); each dialect's tallies
    /// aggregate over all of them. The paper's experiment uses 3VL only.
    pub logics: Vec<LogicMode>,
    /// Which backend plays the candidate role (the formal semantics is
    /// always the reference). The default, the optimized engine, is the
    /// paper's setup: spec vs independent implementation.
    pub backend: Backend,
    /// Batch granularity for [`Backend::VectorizedEngine`] candidates
    /// (`None` keeps the engine default). Ignored by other backends;
    /// sweeps vary it to fuzz chunk boundaries.
    pub batch_size: Option<usize>,
    /// Worker-thread count for the vectorized executor's parallel
    /// stages (`None` keeps the engine default of auto; `Some(1)` pins
    /// the sequential path). Ignored by the row backends; sweeps vary
    /// it to fuzz morsel scheduling.
    pub threads: Option<usize>,
    /// How many disagreement samples to retain in the report.
    pub keep_samples: usize,
    /// Additionally check that printing and re-compiling each query
    /// reproduces it exactly (exercises the parser on random queries).
    pub check_roundtrip: bool,
}

impl Default for ValidationConfig {
    /// The [`ValidationConfig::quick`] configuration at 200 queries — a
    /// sensible base to chain `with_*` adjustments onto.
    fn default() -> Self {
        ValidationConfig::quick(200, 0xC0FFEE)
    }
}

impl ValidationConfig {
    /// The paper's configuration, scaled by `queries`: TPC-H-calibrated
    /// shapes, row cap 50. (The paper ran 100,000 queries.)
    pub fn paper(queries: usize, seed: u64) -> Self {
        ValidationConfig {
            queries,
            seed,
            query_config: QueryGenConfig::tpch_calibrated(),
            data_config: DataGenConfig::paper(),
            dialects: vec![Dialect::PostgreSql, Dialect::Oracle],
            logics: vec![LogicMode::ThreeValued],
            backend: Backend::OptimizedEngine,
            batch_size: None,
            threads: None,
            keep_samples: 5,
            check_roundtrip: false,
        }
    }

    /// A fast configuration for in-tree tests: small shapes, small
    /// tables, all dialects, round-trip checking on.
    pub fn quick(queries: usize, seed: u64) -> Self {
        ValidationConfig {
            queries,
            seed,
            query_config: QueryGenConfig::small(),
            data_config: DataGenConfig::small(),
            dialects: Dialect::ALL.to_vec(),
            logics: vec![LogicMode::ThreeValued],
            backend: Backend::OptimizedEngine,
            batch_size: None,
            threads: None,
            keep_samples: 5,
            check_roundtrip: true,
        }
    }

    // -- builder-style adjustments (consistent with `SessionBuilder`) ------

    /// Sets the number of query/database pairs.
    #[must_use]
    pub fn with_queries(mut self, queries: usize) -> Self {
        self.queries = queries;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the query shape parameters.
    #[must_use]
    pub fn with_query_config(mut self, query_config: QueryGenConfig) -> Self {
        self.query_config = query_config;
        self
    }

    /// Sets the database generation parameters.
    #[must_use]
    pub fn with_data_config(mut self, data_config: DataGenConfig) -> Self {
        self.data_config = data_config;
        self
    }

    /// Sets the dialects to validate.
    #[must_use]
    pub fn with_dialects(mut self, dialects: impl IntoIterator<Item = Dialect>) -> Self {
        self.dialects = dialects.into_iter().collect();
        self
    }

    /// Sets the logic modes to validate under.
    #[must_use]
    pub fn with_logics(mut self, logics: impl IntoIterator<Item = LogicMode>) -> Self {
        self.logics = logics.into_iter().collect();
        self
    }

    /// Sets the candidate backend.
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the vectorized candidate's batch granularity.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size);
        self
    }

    /// Sets the vectorized candidate's worker-thread count (`0` = auto,
    /// `1` = sequential).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Enables or disables the parser round-trip check.
    #[must_use]
    pub fn with_roundtrip(mut self, check_roundtrip: bool) -> Self {
        self.check_roundtrip = check_roundtrip;
        self
    }
}

/// Agreement tallies for one dialect.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DialectStats {
    /// Runs where both sides produced coinciding tables.
    pub agree_results: usize,
    /// Runs where both sides raised errors of the same character (the
    /// Oracle ambiguous-`*` cases of §4).
    pub agree_errors: usize,
    /// Runs where the sides disagreed.
    pub disagreements: usize,
}

impl DialectStats {
    /// Total runs tallied.
    pub fn total(&self) -> usize {
        self.agree_results + self.agree_errors + self.disagreements
    }
}

/// A retained disagreement, for debugging.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// Which iteration produced it.
    pub iteration: usize,
    /// Which dialect.
    pub dialect: Dialect,
    /// The query, printed in the dialect's syntax.
    pub sql: String,
    /// How the outcomes differed.
    pub detail: String,
}

/// The outcome of a validation run.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// Number of query/database pairs generated.
    pub queries: usize,
    /// Per-dialect tallies, in the order configured.
    pub per_dialect: Vec<(Dialect, DialectStats)>,
    /// Retained disagreement samples.
    pub samples: Vec<Disagreement>,
    /// Parser round-trip failures (when enabled).
    pub roundtrip_failures: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl ValidationReport {
    /// `true` iff every comparison agreed (the paper's headline result).
    pub fn all_agree(&self) -> bool {
        self.roundtrip_failures == 0 && self.per_dialect.iter().all(|(_, s)| s.disagreements == 0)
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "validated {} random queries in {:.2?} ({} dialect comparisons)",
            self.queries,
            self.elapsed,
            self.per_dialect.iter().map(|(_, s)| s.total()).sum::<usize>()
        )?;
        for (dialect, stats) in &self.per_dialect {
            writeln!(
                f,
                "  {dialect:<12} agree: {:>8}   agree-on-error: {:>6}   disagree: {:>4}",
                stats.agree_results, stats.agree_errors, stats.disagreements
            )?;
        }
        if self.roundtrip_failures > 0 {
            writeln!(f, "  parser round-trip failures: {}", self.roundtrip_failures)?;
        }
        for s in &self.samples {
            writeln!(f, "  DISAGREEMENT #{} [{}]: {}", s.iteration, s.dialect, s.detail)?;
            writeln!(f, "    {}", s.sql)?;
        }
        write!(
            f,
            "verdict: {}",
            if self.all_agree() { "ALWAYS AGREED (paper: same)" } else { "DISAGREEMENTS FOUND" }
        )
    }
}

/// Derives the per-iteration RNG. SplitMix64 over the master seed keeps
/// iterations independent and reproducible individually.
pub fn iteration_rng(seed: u64, iteration: usize) -> StdRng {
    let mut z = seed.wrapping_add((iteration as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Generates the query/database pair for one iteration.
pub fn iteration_case(
    schema: &Schema,
    config: &ValidationConfig,
    iteration: usize,
) -> (Query, Database) {
    let mut rng = iteration_rng(config.seed, iteration);
    let gen = QueryGenerator::new(schema, config.query_config.clone());
    let query = gen.generate(&mut rng);
    let db = random_database(schema, &config.data_config, &mut rng);
    (query, db)
}

/// Executes `sql` through the given [`Session`], reducing the
/// session's single error type back to the [`EvalError`] the §4
/// criterion compares on. Session failures that carry no evaluation
/// error (a parse or annotation failure on printed SQL — a pipeline
/// bug by construction) surface as [`EvalError::Malformed`], which no
/// reference outcome produces, so they always count as disagreements.
///
/// The session is taken by reference so sweeps can build one session
/// per database and retarget it with
/// [`Session::set_dialect`]/[`Session::set_logic`] between
/// comparisons, instead of cloning the database for every dialect ×
/// logic × backend combination.
pub fn session_outcome(session: &mut Session, sql: &str) -> Outcome {
    match session.execute(sql) {
        Ok(result) => match result.into_rows() {
            Some(table) => Ok(table),
            None => Err(EvalError::malformed("statement did not produce rows")),
        },
        Err(e) => Err(e
            .eval_error()
            .cloned()
            .unwrap_or_else(|| EvalError::malformed(format!("session pipeline failure: {e}")))),
    }
}

/// A candidate session over `db` for one sweep: the database is moved
/// in (no clone), and the caller retargets dialect/logic per
/// comparison. `batch_size` sets the vectorized backend's batch
/// granularity and `threads` its morsel worker count (`None` keeps the
/// engine defaults; the row backends ignore both).
pub fn candidate_session(
    db: Database,
    backend: Backend,
    batch_size: Option<usize>,
    threads: Option<usize>,
) -> Session {
    let mut builder = Session::builder().with_database(db).with_backend(backend);
    if let Some(n) = batch_size {
        builder = builder.with_batch_size(n);
    }
    if let Some(n) = threads {
        builder = builder.with_threads(n);
    }
    builder.build()
}

/// Runs the §4 validation experiment: formal semantics vs the candidate
/// backend driven end to end through the [`Session`] API.
pub fn run_validation(schema: &Schema, config: &ValidationConfig) -> ValidationReport {
    let start = Instant::now();
    let mut per_dialect: Vec<(Dialect, DialectStats)> =
        config.dialects.iter().map(|d| (*d, DialectStats::default())).collect();
    let mut samples = Vec::new();
    let mut roundtrip_failures = 0usize;

    for i in 0..config.queries {
        let (query, db) = iteration_case(schema, config, i);
        // Ordered queries are compared as lists (prefix-equality under
        // ties); everything else under the plain §4 bag criterion.
        let order = ordered_comparison(&query, schema);

        if config.check_roundtrip {
            let text = sqlsem_parser::to_sql(&query, Dialect::Standard);
            match sqlsem_parser::compile(&text, schema) {
                Ok(back) if back == query => {}
                _ => roundtrip_failures += 1,
            }
        }

        // One session per iteration (the database moves in; query
        // execution never mutates it), retargeted per combination.
        let mut session = candidate_session(db, config.backend, config.batch_size, config.threads);
        for (dialect, stats) in per_dialect.iter_mut() {
            let sql = sqlsem_parser::to_sql(&query, *dialect);
            session.set_dialect(*dialect);
            for logic in &config.logics {
                session.set_logic(*logic);
                let reference = Evaluator::new(session.database())
                    .with_dialect(*dialect)
                    .with_logic(*logic)
                    .eval(&query);
                let candidate = session_outcome(&mut session, &sql);
                match compare_with_order(&reference, &candidate, order.as_ref()) {
                    Verdict::AgreeResult => stats.agree_results += 1,
                    Verdict::AgreeError => stats.agree_errors += 1,
                    Verdict::Disagree(detail) => {
                        stats.disagreements += 1;
                        if samples.len() < config.keep_samples {
                            samples.push(Disagreement {
                                iteration: i,
                                dialect: *dialect,
                                sql: sqlsem_parser::to_sql(&query, *dialect),
                                detail,
                            });
                        }
                    }
                }
            }
        }
    }

    ValidationReport {
        queries: config.queries,
        per_dialect,
        samples,
        roundtrip_failures,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlsem_generator::paper_schema;

    #[test]
    fn small_validation_run_always_agrees() {
        // A scaled-down §4: 150 random queries over the paper schema,
        // all three dialects. The paper's result — always agree — must
        // hold here too.
        let schema = paper_schema();
        let config = ValidationConfig::quick(150, 0xC0FFEE);
        let report = run_validation(&schema, &config);
        assert!(report.all_agree(), "{report}");
        // The run must actually exercise error agreement now and then
        // (ambiguous stars on Standard/Oracle).
        let oracle = report
            .per_dialect
            .iter()
            .find(|(d, _)| *d == Dialect::Oracle)
            .map(|(_, s)| s.clone())
            .unwrap();
        assert_eq!(oracle.total(), 150);
    }

    #[test]
    fn iteration_rng_is_stable_and_independent() {
        let a1 = iteration_rng(1, 0);
        let a2 = iteration_rng(1, 0);
        // Same seed+iteration → same stream.
        let mut x1 = a1;
        let mut x2 = a2;
        use rand::Rng;
        assert_eq!(x1.gen::<u64>(), x2.gen::<u64>());
        // Different iterations → different streams (overwhelmingly).
        let mut y = iteration_rng(1, 1);
        assert_ne!(x1.gen::<u64>(), y.gen::<u64>());
    }

    #[test]
    fn default_and_builders_compose() {
        let config = ValidationConfig::default()
            .with_queries(25)
            .with_seed(9)
            .with_dialects([Dialect::Oracle])
            .with_logics(LogicMode::ALL)
            .with_backend(Backend::NaiveEngine)
            .with_roundtrip(false);
        assert_eq!(config.queries, 25);
        assert_eq!(config.seed, 9);
        assert_eq!(config.dialects, vec![Dialect::Oracle]);
        assert_eq!(config.logics.len(), 3);
        assert_eq!(config.backend, Backend::NaiveEngine);
        assert!(!config.check_roundtrip);
        let report = run_validation(&paper_schema(), &config);
        assert!(report.all_agree(), "{report}");
    }

    #[test]
    fn every_backend_agrees_through_the_session() {
        // The same 40 cases, candidate swapped across all five
        // backends — including the spec interpreter itself, which
        // checks the print→parse→annotate→execute pipeline is the
        // identity on semantics.
        let schema = paper_schema();
        for backend in Backend::ALL {
            let config = ValidationConfig::quick(40, 0xBEEF).with_backend(backend);
            let report = run_validation(&schema, &config);
            assert!(report.all_agree(), "backend {backend}:\n{report}");
        }
    }

    #[test]
    fn report_renders() {
        let schema = paper_schema();
        let config = ValidationConfig::quick(5, 7);
        let report = run_validation(&schema, &config);
        let text = report.to_string();
        assert!(text.contains("validated 5 random queries"), "{text}");
        assert!(text.contains("verdict:"), "{text}");
    }
}
