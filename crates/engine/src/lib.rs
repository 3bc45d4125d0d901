//! # sqlsem-engine
//!
//! An independent, RDBMS-style implementation of basic SQL, standing in
//! for the PostgreSQL and Oracle instances the paper validates its
//! semantics against (§4).
//!
//! The paper's validation is *differential*: the formal semantics is
//! trusted because an independent implementation — a real database —
//! always produces the same answers on 100,000 random queries. Real
//! RDBMSs are not available to this reproduction, so this crate plays
//! their role. To make the comparison meaningful, the engine shares no
//! evaluation code with the denotational interpreter in `sqlsem-core`:
//!
//! * names are resolved **once, at compile time**, to positional
//!   `(depth, index)` references — not looked up in per-row environments;
//! * queries run as **physical plans** (scan → product → filter →
//!   project → distinct / set-op) over row vectors;
//! * set operations use hash-count algorithms rather than the core
//!   crate's list subtraction;
//! * ambiguous and unbound references are **compile-time errors**, as in
//!   the real systems (Example 2's behaviour on Oracle).
//!
//! Per-dialect behaviour matches §4: [`Dialect::PostgreSql`] gives `*`
//! the compositional semantics, [`Dialect::Oracle`] (and
//! [`Dialect::Standard`]) expand `*` and reject ambiguous expansions
//! outside `EXISTS`.
//!
//! ```
//! use sqlsem_core::{table, Database, Dialect, Schema, Value};
//! use sqlsem_engine::Engine;
//! use sqlsem_parser::compile;
//!
//! let schema = Schema::builder().table("R", ["A"]).table("S", ["A"]).build().unwrap();
//! let mut db = Database::new(schema.clone());
//! db.replace_table("R", table! { ["A"]; [1], [Value::Null] }).unwrap();
//! db.replace_table("S", table! { ["A"]; [Value::Null] }).unwrap();
//!
//! let q = compile("SELECT DISTINCT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)", &schema)
//!     .unwrap();
//! let out = Engine::new(&db).execute(&q).unwrap();
//! assert!(out.is_empty()); // same verdict as the formal semantics
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
pub mod backend;
pub mod batch;
pub mod compile;
pub mod exec;
pub mod explain;
pub mod optimize;
pub mod plan;
pub mod vexec;

use sqlsem_core::{Database, Dialect, EvalError, LogicMode, PredicateRegistry, Query, Table};

pub use backend::Backend;
pub use batch::{Batch, Column, TruthVec, DEFAULT_BATCH_SIZE};
pub use compile::compile as compile_plan;
pub use exec::Executor;
pub use explain::{explain, explain_vectorized};
pub use optimize::optimize;
pub use plan::{Expr, JoinKey, Plan, Pred, Prepared};
pub use vexec::VecExecutor;

/// The adaptive dispatcher's row-count cutover: plans whose largest
/// referenced base table holds fewer rows than this run on the row
/// engine (batch setup overhead dominates small inputs — the
/// per-backend timings behind the number are recorded in
/// `EXPERIMENTS.md`); everything at or above it runs vectorized.
pub const ADAPTIVE_ROW_CUTOFF: usize = 256;

/// The engine facade: a database plus dialect/logic configuration,
/// mirroring [`sqlsem_core::Evaluator`]'s interface so the validation
/// harness can drive both uniformly.
#[derive(Clone, Debug)]
pub struct Engine<'a> {
    db: &'a Database,
    dialect: Dialect,
    logic: LogicMode,
    preds: PredicateRegistry,
    optimize: bool,
    vectorized: bool,
    adaptive: bool,
    batch_size: usize,
    threads: usize,
}

impl<'a> Engine<'a> {
    /// An engine with Standard dialect, three-valued logic and the
    /// optimizer enabled (row-at-a-time execution; see
    /// [`Engine::with_vectorized`] for the columnar executor and
    /// [`Engine::with_adaptive`] for per-query dispatch between the two).
    pub fn new(db: &'a Database) -> Self {
        Engine {
            db,
            dialect: Dialect::Standard,
            logic: LogicMode::ThreeValued,
            preds: PredicateRegistry::new(),
            optimize: true,
            vectorized: false,
            adaptive: false,
            batch_size: DEFAULT_BATCH_SIZE,
            threads: 0,
        }
    }

    /// Selects the dialect (§4 adjustments).
    #[must_use]
    pub fn with_dialect(mut self, dialect: Dialect) -> Self {
        self.dialect = dialect;
        self
    }

    /// Selects the logic mode (§6).
    #[must_use]
    pub fn with_logic(mut self, logic: LogicMode) -> Self {
        self.logic = logic;
        self
    }

    /// Provides user predicates.
    #[must_use]
    pub fn with_predicates(mut self, preds: PredicateRegistry) -> Self {
        self.preds = preds;
        self
    }

    /// Enables or disables the optimizing pass ([`optimize()`](optimize::optimize)): predicate
    /// pushdown, hash equi-joins, subquery caching and `EXISTS` early
    /// exit. On by default; turning it off gives the structurally naive
    /// plan, which is the baseline the optimizer is differentially
    /// validated against.
    #[must_use]
    pub fn with_optimizations(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }

    /// Selects batch-at-a-time execution through the columnar executor
    /// ([`VecExecutor`]) instead of the row-at-a-time [`Executor`]. Off
    /// by default. The plans are identical — only the execution strategy
    /// changes, and the vectorized path is differentially validated to
    /// coincide with the row engine on rows, multiplicities and error
    /// verdicts.
    #[must_use]
    pub fn with_vectorized(mut self, vectorized: bool) -> Self {
        self.vectorized = vectorized;
        self
    }

    /// Selects *adaptive* dispatch: each query runs through the
    /// vectorized executor when its largest referenced base table has at
    /// least [`ADAPTIVE_ROW_CUTOFF`] rows, and through the row engine
    /// below that (where per-query batch setup costs more than it
    /// saves). Off by default; takes precedence over
    /// [`Engine::with_vectorized`] only in the sense that the row engine
    /// may be chosen even when `vectorized` is unset.
    #[must_use]
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Sets the vectorized executor's batch granularity (rows per
    /// columnar batch; clamped to at least 1). Only observable through
    /// timing — every batch size computes the same results.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Sets the vectorized executor's morsel worker count: `0` (the
    /// default) means one worker per available CPU, `1` pins every stage
    /// to the calling thread. Only observable through timing — morsel
    /// results are stitched back in input order.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The dialect in effect.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// `true` when queries run through the vectorized executor.
    pub fn vectorized(&self) -> bool {
        self.vectorized
    }

    /// `true` when queries dispatch adaptively between the row engine
    /// and the vectorized executor.
    pub fn adaptive(&self) -> bool {
        self.adaptive
    }

    /// The vectorized executor's batch granularity.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The vectorized executor's morsel worker count (`0` = one per CPU).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Compiles a query to a physical plan without running it (optimized
    /// unless [`Engine::with_optimizations`] turned the pass off).
    pub fn prepare(&self, query: &Query) -> Result<Prepared, EvalError> {
        let prepared = compile::compile(query, self.db, self.dialect)?;
        Ok(if self.optimize { optimize::optimize(prepared, self.db) } else { prepared })
    }

    /// `EXPLAIN`: the compiled plan as an indented operator tree, with
    /// positional references rendered as `#depth.index` and optimizer
    /// decisions (hash joins, pushed filters, subquery caching and early
    /// exit) visible as operators and annotations. Under
    /// [`Engine::with_vectorized`] each batch-driven operator is
    /// additionally annotated `[vectorized, batch=N]` (or
    /// `[vectorized, guarded rows, batch=N]` for guarded fallbacks);
    /// under [`Engine::with_adaptive`] a `dispatch:` header records
    /// which engine this query would run on and why.
    pub fn explain(&self, query: &Query) -> Result<String, EvalError> {
        let prepared = self.prepare(query)?;
        Ok(self.explain_prepared(&prepared))
    }

    /// Renders an already-compiled plan (see [`Engine::explain`]),
    /// applying the same vectorized/adaptive presentation rules.
    pub fn explain_prepared(&self, prepared: &Prepared) -> String {
        if self.adaptive {
            if self.dispatch_vectorized(prepared) {
                format!("dispatch: [adaptive: vectorized, batch={}]\n", self.batch_size)
                    + &explain::explain_vectorized(prepared, self.db, self.batch_size)
            } else {
                format!("dispatch: [adaptive: row, n<{ADAPTIVE_ROW_CUTOFF}]\n")
                    + &explain::explain(prepared)
            }
        } else if self.vectorized {
            explain::explain_vectorized(prepared, self.db, self.batch_size)
        } else {
            explain::explain(prepared)
        }
    }

    /// The adaptive dispatch decision for one plan: vectorize iff the
    /// largest base table the main plan tree scans meets the calibrated
    /// cutoff. (Subplans inside predicates always run in the row engine,
    /// so they don't weigh in.)
    fn dispatch_vectorized(&self, prepared: &Prepared) -> bool {
        plan_scan_rows(&prepared.plan, self.db) >= ADAPTIVE_ROW_CUTOFF
    }

    /// Compiles and executes a closed query.
    pub fn execute(&self, query: &Query) -> Result<Table, EvalError> {
        let prepared = self.prepare(query)?;
        self.execute_prepared(&prepared)
    }

    /// Executes an already-compiled plan (from [`Engine::prepare`]),
    /// skipping the compile+optimize work — the execution half of a
    /// prepared statement.
    pub fn execute_prepared(&self, prepared: &Prepared) -> Result<Table, EvalError> {
        let vectorized = self.vectorized || (self.adaptive && self.dispatch_vectorized(prepared));
        let rows = if vectorized {
            let mut exec = VecExecutor::new(self.db, self.logic, &self.preds, self.batch_size)
                .with_threads(self.threads);
            exec.run(&prepared.plan)?
        } else {
            let mut exec = Executor::new(self.db, self.logic, &self.preds);
            exec.run(&prepared.plan)?
        };
        Table::with_rows(prepared.columns.clone(), rows)
    }
}

/// The adaptive dispatcher's cardinality estimate: the largest row
/// count among the base tables the main plan tree — [`Plan::inputs`]
/// only, not the subplans inside predicates — reads (unknown tables
/// count 0: execution will raise before engine choice matters; an index
/// scan counts like its whole table so dispatch stays conservative).
fn plan_scan_rows(plan: &Plan, db: &Database) -> usize {
    let own = plan.base_table().and_then(|t| db.stored_table(t)).map_or(0, |t| t.len());
    plan.inputs().map(|p| plan_scan_rows(p, db)).fold(own, usize::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlsem_core::{table, Evaluator, Schema, Value};
    use sqlsem_parser::compile as sql;

    /// A handful of handwritten queries where engine and denotational
    /// semantics must agree bit-for-bit (the §4 criterion). The large
    /// randomised version of this test lives in `sqlsem-validation`.
    #[test]
    fn engine_agrees_with_denotational_semantics_on_handwritten_queries() {
        let schema = Schema::builder().table("R", ["A", "B"]).table("S", ["A"]).build().unwrap();
        let mut db = Database::new(schema.clone());
        db.replace_table(
            "R",
            table! { ["A", "B"]; [1, 2], [1, 2], [Value::Null, 3], [4, Value::Null] },
        )
        .unwrap();
        db.replace_table("S", table! { ["A"]; [1], [Value::Null], [4] }).unwrap();

        let queries = [
            "SELECT A, B FROM R",
            "SELECT DISTINCT A FROM R",
            "SELECT R.B AS x FROM R WHERE R.A = 1 OR R.B IS NULL",
            "SELECT * FROM R, S WHERE R.A = S.A",
            "SELECT A FROM S WHERE A IN (SELECT A FROM R)",
            "SELECT A FROM S WHERE A NOT IN (SELECT A FROM R)",
            "SELECT A FROM S WHERE EXISTS (SELECT * FROM R WHERE R.A = S.A)",
            "SELECT A FROM S WHERE NOT EXISTS (SELECT * FROM R WHERE R.A = S.A)",
            "SELECT A FROM S UNION ALL SELECT B AS A FROM R",
            "SELECT A FROM S UNION SELECT A FROM R",
            "SELECT A FROM S INTERSECT ALL SELECT A FROM R",
            "SELECT A FROM S EXCEPT SELECT A FROM R",
            "SELECT A FROM S EXCEPT ALL SELECT A FROM R",
            "SELECT T.A FROM (SELECT A FROM R WHERE R.B IS NOT NULL) AS T",
            "SELECT x.A FROM R x, R y WHERE x.A = y.A",
            "SELECT DISTINCT x.A FROM R x WHERE (x.A, x.B) IN (SELECT A, B FROM R)",
            // The aggregation fragment.
            "SELECT COUNT(*) AS n FROM R",
            "SELECT R.A AS k, COUNT(*) AS n, COUNT(R.B) AS m FROM R GROUP BY R.A",
            "SELECT R.A AS k, SUM(R.B) AS s, AVG(R.B) AS a, MIN(R.B) AS lo, MAX(R.B) AS hi \
             FROM R GROUP BY R.A",
            "SELECT R.A AS k FROM R GROUP BY R.A HAVING COUNT(*) > 1",
            "SELECT COUNT(DISTINCT R.A) AS u, SUM(DISTINCT R.A) AS sd FROM R",
            "SELECT R.A AS k, COUNT(*) AS n FROM R GROUP BY R.A \
             HAVING EXISTS (SELECT * FROM S WHERE S.A = R.A)",
            "SELECT DISTINCT R.A AS k FROM R GROUP BY R.A, R.B HAVING MAX(R.B) IS NOT NULL",
            "SELECT T.n AS n FROM (SELECT R.A AS k, COUNT(*) AS n FROM R GROUP BY R.A) AS T \
             WHERE T.n > 1",
            "SELECT A FROM S WHERE A IN (SELECT R.A FROM R GROUP BY R.A HAVING COUNT(*) > 1)",
            // The outer-join and combinator fragment.
            "SELECT * FROM R LEFT JOIN S ON R.A = S.A",
            "SELECT * FROM R RIGHT OUTER JOIN S ON R.A = S.A",
            "SELECT * FROM R FULL JOIN S ON R.A = S.A",
            "SELECT * FROM R LEFT JOIN S ON R.A < S.A",
            "SELECT x.B FROM R x LEFT JOIN R y ON x.A = y.A AND y.B IS NOT NULL",
            "SELECT S.A FROM S LEFT JOIN R ON EXISTS (SELECT * FROM R z WHERE z.A = S.A)",
            "SELECT CASE WHEN R.A = 1 THEN R.B ELSE R.A END AS c FROM R",
            "SELECT CASE WHEN R.A IS NULL THEN 0 END AS c FROM R",
            "SELECT COALESCE(R.B, R.A, 7) AS c FROM R",
            "SELECT NULLIF(R.A, 1) AS n FROM R",
            "SELECT R.A FROM R WHERE COALESCE(R.B, 0) > 1",
            "SELECT R.A AS k, COUNT(COALESCE(R.B, R.A)) AS n FROM R GROUP BY R.A",
        ];
        for text in queries {
            let q = sql(text, &schema).unwrap();
            for dialect in Dialect::ALL {
                let reference = Evaluator::new(&db).with_dialect(dialect).eval(&q);
                let mine = Engine::new(&db).with_dialect(dialect).execute(&q);
                match (reference, mine) {
                    (Ok(a), Ok(b)) => {
                        assert!(
                            a.coincides(&b),
                            "{text} [{dialect}]:\nsemantics:\n{a}\nengine:\n{b}"
                        );
                    }
                    (Err(e1), Err(e2)) => {
                        assert_eq!(e1.is_ambiguity(), e2.is_ambiguity(), "{text} [{dialect}]");
                    }
                    (a, b) => panic!("{text} [{dialect}]: verdicts differ: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn ambiguity_timing_matches_each_dialects_semantics() {
        // On Oracle the ambiguous-star query errors even over an empty
        // database (compile-time, like the real system). On Standard the
        // error is evaluation-time, so the empty instance succeeds and a
        // populated one errors — exactly like the denotational semantics.
        let schema = Schema::builder().table("R", ["A"]).build().unwrap();
        let empty = Database::new(schema.clone());
        let q = sql("SELECT * FROM (SELECT R.A, R.A FROM R) AS T", &schema).unwrap();
        assert!(Engine::new(&empty)
            .with_dialect(Dialect::Oracle)
            .execute(&q)
            .unwrap_err()
            .is_ambiguity());
        assert!(Engine::new(&empty).execute(&q).unwrap().is_empty());
        assert!(Engine::new(&empty).with_dialect(Dialect::PostgreSql).execute(&q).is_ok());

        let mut populated = Database::new(schema.clone());
        populated.replace_table("R", table! { ["A"]; [1] }).unwrap();
        assert!(Engine::new(&populated).execute(&q).unwrap_err().is_ambiguity());
    }

    #[test]
    fn ordered_queries_produce_the_specification_list_exactly() {
        // The list layer is compared as a *list*: same rows in the same
        // positions, not just the same bag.
        let schema = Schema::builder().table("R", ["A", "B"]).build().unwrap();
        let mut db = Database::new(schema.clone());
        db.replace_table(
            "R",
            table! { ["A", "B"]; [2, 10], [1, 20], [2, 30], [Value::Null, 40], [1, 50] },
        )
        .unwrap();
        let queries = [
            "SELECT R.A AS a, R.B AS b FROM R ORDER BY a",
            "SELECT R.A AS a, R.B AS b FROM R ORDER BY a DESC NULLS FIRST, b DESC",
            "SELECT R.A AS a, R.B AS b FROM R ORDER BY a NULLS FIRST LIMIT 3",
            "SELECT R.A AS a, R.B AS b FROM R ORDER BY b DESC LIMIT 2 OFFSET 1",
            "SELECT R.A AS a, R.B AS b FROM R ORDER BY a OFFSET 4",
            "SELECT R.A AS a, R.B AS b FROM R ORDER BY a OFFSET 99",
            "SELECT R.A AS a FROM R LIMIT 0",
            "SELECT DISTINCT R.A AS a FROM R ORDER BY a LIMIT 2",
            "SELECT R.A AS k, COUNT(*) AS n FROM R GROUP BY R.A ORDER BY n DESC, k LIMIT 2",
        ];
        for text in queries {
            let q = sql(text, &schema).unwrap();
            for dialect in Dialect::ALL {
                let spec = Evaluator::new(&db).with_dialect(dialect).eval(&q).unwrap();
                for (optimized, vectorized) in [(false, false), (true, false), (true, true)] {
                    let mine = Engine::new(&db)
                        .with_dialect(dialect)
                        .with_optimizations(optimized)
                        .with_vectorized(vectorized)
                        .with_batch_size(3)
                        .execute(&q)
                        .unwrap();
                    let a: Vec<_> = spec.rows().collect();
                    let b: Vec<_> = mine.rows().collect();
                    assert_eq!(
                        a, b,
                        "{text} [{dialect}, optimized={optimized}, vectorized={vectorized}]"
                    );
                }
            }
        }
    }

    #[test]
    fn order_key_resolution_errors_match_the_dialect_timing() {
        let schema = Schema::builder().table("R", ["A"]).build().unwrap();
        let db = Database::new(schema.clone());
        // Unknown key: static dialects reject at compile time, the
        // Standard defers — but a top-level sort always runs, so the
        // error surfaces even over an empty table (as in the spec).
        let q = sql("SELECT R.A AS a FROM R ORDER BY nope", &schema).unwrap();
        for dialect in Dialect::ALL {
            let spec = Evaluator::new(&db).with_dialect(dialect).eval(&q).unwrap_err();
            let mine = Engine::new(&db).with_dialect(dialect).execute(&q).unwrap_err();
            assert_eq!(spec.is_ambiguity(), mine.is_ambiguity(), "{dialect}: {spec} vs {mine}");
        }
        // Ambiguous key (repeated output name): classified as ambiguity.
        let q = sql("SELECT R.A AS x, R.A AS x FROM R ORDER BY x", &schema).unwrap();
        for dialect in Dialect::ALL {
            let mine = Engine::new(&db).with_dialect(dialect).execute(&q).unwrap_err();
            assert!(mine.is_ambiguity(), "{dialect}: {mine}");
        }
        // …but inside a never-evaluated subquery, the Standard dialect
        // raises nothing, exactly like the semantics.
        let q = sql(
            "SELECT R.A AS a FROM R WHERE EXISTS (SELECT R.A AS a FROM R ORDER BY nope)",
            &schema,
        )
        .unwrap();
        let spec = Evaluator::new(&db).eval(&q).unwrap();
        let mine = Engine::new(&db).execute(&q).unwrap();
        assert!(spec.coincides(&mine));
        assert!(Engine::new(&db).with_dialect(Dialect::Oracle).execute(&q).is_err());
    }

    #[test]
    fn explain_shows_the_top_k_rewrite() {
        let schema = Schema::builder().table("R", ["A", "B"]).build().unwrap();
        let db = Database::new(schema.clone());
        let q = sql("SELECT R.A AS a FROM R ORDER BY a DESC LIMIT 5 OFFSET 2", &schema).unwrap();
        let optimized = Engine::new(&db).explain(&q).unwrap();
        assert!(optimized.contains("TopK k=5 offset=2"), "{optimized}");
        assert!(optimized.contains("DESC"), "{optimized}");
        assert!(!optimized.contains("Sort"), "{optimized}");
        // The naive plan keeps the Sort/Limit pair.
        let naive = {
            let prepared = compile_plan(&q, &db, Dialect::Standard).unwrap();
            explain(&prepared)
        };
        assert!(naive.contains("Sort keys=["), "{naive}");
        assert!(naive.contains("Limit n=5 offset=2"), "{naive}");
    }

    #[test]
    fn adaptive_dispatch_cuts_over_exactly_at_the_calibrated_row_count() {
        // The dispatch rule is `rows >= ADAPTIVE_ROW_CUTOFF`: one row
        // below the cutoff stays on the row engine, the cutoff itself
        // and one above it vectorize. Pinning the boundary keeps the
        // calibrated constant from silently drifting off-by-one.
        let schema = Schema::builder().table("T", ["A"]).build().unwrap();
        let q = sql("SELECT A FROM T WHERE A > 0", &schema).unwrap();
        for (rows, vectorized) in [
            (ADAPTIVE_ROW_CUTOFF - 1, false),
            (ADAPTIVE_ROW_CUTOFF, true),
            (ADAPTIVE_ROW_CUTOFF + 1, true),
        ] {
            let mut db = Database::new(schema.clone());
            let data: Vec<_> = (0..rows as i64).map(|i| sqlsem_core::row![i]).collect();
            db.replace_table("T", Table::with_rows(vec!["A".into()], data).unwrap()).unwrap();
            let engine = Engine::new(&db).with_adaptive(true);
            let plan = engine.explain(&q).unwrap();
            if vectorized {
                assert!(plan.starts_with("dispatch: [adaptive: vectorized"), "{rows}: {plan}");
            } else {
                assert!(plan.starts_with("dispatch: [adaptive: row"), "{rows}: {plan}");
            }
            // The dispatch decision only picks an executor; results are
            // identical on both sides of the boundary.
            let out = engine.execute(&q).unwrap();
            assert_eq!(out.len(), rows.saturating_sub(1));
        }
    }

    #[test]
    fn prepare_exposes_the_plan() {
        let schema = Schema::builder().table("R", ["A"]).build().unwrap();
        let db = Database::new(schema.clone());
        let q = sql("SELECT A FROM R WHERE A = 1", &schema).unwrap();
        let prepared = Engine::new(&db).prepare(&q).unwrap();
        assert_eq!(prepared.columns, vec![sqlsem_core::Name::new("A")]);
        assert!(matches!(prepared.plan, Plan::Project { .. }));
    }
}
