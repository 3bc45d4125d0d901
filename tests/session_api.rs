//! Integration suite for the unified `Session` API: DDL/DML round
//! trips, the pure-SQL script across every dialect × logic × backend
//! combination, prepared-statement reuse, the single error type, and a
//! differential sweep asserting that all four backends coincide when
//! driven through sessions — including on error verdicts.

use sqlsem::{table, Backend, Dialect, LogicMode, Session, SqlsemError, StatementResult, Value};
use sqlsem_validation::{
    candidate_session, compare, iteration_case, session_outcome, ValidationConfig, Verdict,
};

// ---------------------------------------------------------------------------
// DDL / INSERT round trips
// ---------------------------------------------------------------------------

#[test]
fn ddl_and_insert_round_trip() {
    let mut s = Session::new();
    assert!(s.schema().is_empty());

    let created = s.execute("CREATE TABLE R (A, B)").unwrap();
    assert_eq!(created.tag(), "CREATE TABLE");
    assert_eq!(s.schema().attributes("R").unwrap().len(), 2);

    let inserted = s.execute("INSERT INTO R VALUES (1, 'x'), (2, NULL)").unwrap();
    assert_eq!(inserted.tag(), "INSERT 0 2");

    let out = s.execute("SELECT A, B FROM R").unwrap();
    assert!(out.rows().unwrap().coincides(&table! { ["A", "B"]; [1, "x"], [2, Value::Null] }));

    let dropped = s.execute("DROP TABLE R").unwrap();
    assert_eq!(dropped, StatementResult::Dropped("R".into()));
    assert!(s.schema().is_empty());
}

#[test]
fn insert_with_column_list_reorders_and_null_fills() {
    let mut s = Session::new();
    s.execute("CREATE TABLE R (A, B, C)").unwrap();
    // Columns out of order; C never mentioned → NULL.
    s.execute("INSERT INTO R (B, A) VALUES (2, 1)").unwrap();
    let out = s.execute("SELECT A, B, C FROM R").unwrap();
    assert!(out.rows().unwrap().coincides(&table! { ["A", "B", "C"]; [1, 2, Value::Null] }));
}

#[test]
fn insert_appends_rather_than_replacing() {
    let mut s = Session::new();
    s.run_script("CREATE TABLE R (A); INSERT INTO R VALUES (1)").unwrap();
    s.execute("INSERT INTO R VALUES (1), (2)").unwrap();
    let out = s.execute("SELECT A FROM R").unwrap();
    assert!(out.rows().unwrap().coincides(&table! { ["A"]; [1], [1], [2] }));
}

#[test]
fn ddl_and_dml_errors_are_reported_through_the_single_type() {
    let mut s = Session::new();
    s.execute("CREATE TABLE R (A)").unwrap();

    // Every pipeline stage funnels into SqlsemError.
    let parse = s.execute("SELEKT A FROM R").unwrap_err();
    assert!(matches!(parse, SqlsemError::Parse { .. }), "{parse:?}");
    let annotate = s.execute("SELECT missing FROM R").unwrap_err();
    assert!(matches!(annotate, SqlsemError::Annotate { .. }), "{annotate:?}");
    let schema = s.execute("CREATE TABLE R (X)").unwrap_err();
    assert!(matches!(schema, SqlsemError::Schema { .. }), "{schema:?}");
    let eval = s.execute("INSERT INTO R VALUES (1, 2)").unwrap_err();
    assert!(matches!(eval, SqlsemError::Eval { .. }), "{eval:?}");

    // And each implements std::error::Error with a source.
    let err: &dyn std::error::Error = &eval;
    assert!(err.source().is_some());

    // Statement-level DML checks.
    assert!(s.execute("INSERT INTO missing VALUES (1)").is_err());
    assert!(s.execute("INSERT INTO R (nope) VALUES (1)").is_err());
    assert!(s.execute("INSERT INTO R (A, A) VALUES (1, 1)").is_err());
    assert!(s.execute("DROP TABLE missing").is_err());
    // Failed statements must not have half-applied.
    assert_eq!(s.database().total_rows(), 0);
}

#[test]
fn script_errors_carry_the_offending_statement_span() {
    let mut s = Session::new();
    let script = "CREATE TABLE R (A); INSERT INTO R VALUES (1); SELECT nope FROM R";
    let err = s.run_script(script).unwrap_err();
    assert_eq!(err.statement(), Some("SELECT nope FROM R"));
    // Statements before the failure stay executed (no transactionality).
    assert_eq!(s.database().total_rows(), 1);
    // The rendered message names both the error and the statement.
    let text = err.to_string();
    assert!(text.contains("nope"), "{text}");
    assert!(text.contains("SELECT nope FROM R"), "{text}");
}

#[test]
fn duplicate_column_names_are_rejected_before_anything_applies() {
    let mut s = Session::new();
    // A repeated column in CREATE TABLE is a parse-stage error (caught
    // with a span pointing at the second occurrence) and never reaches
    // the schema.
    let err = s.execute("CREATE TABLE T (A, B, A)").unwrap_err();
    assert!(matches!(err, SqlsemError::Parse { .. }), "{err:?}");
    assert!(err.to_string().contains("duplicate column A"), "{err}");
    assert!(s.schema().is_empty());
    // Type annotations don't make the names distinct.
    let err = s.execute("CREATE TABLE T (id INT, id TEXT)").unwrap_err();
    assert!(err.to_string().contains("duplicate column id"), "{err}");
    // A repeated INSERT target column is rejected the same way, with no
    // half-applied rows.
    s.execute("CREATE TABLE R (A, B)").unwrap();
    let err = s.execute("INSERT INTO R (A, A) VALUES (1, 2)").unwrap_err();
    assert!(matches!(err, SqlsemError::Parse { .. }), "{err:?}");
    assert!(err.to_string().contains("duplicate column A"), "{err}");
    assert_eq!(s.database().total_rows(), 0);
}

// ---------------------------------------------------------------------------
// The acceptance script: 3 dialects × 3 logic modes × 3 backends
// ---------------------------------------------------------------------------

/// A pure-SQL script — CREATE TABLE → INSERT → SELECT with grouping and
/// a subquery → EXPLAIN → Example 1's `NOT IN` over a `NULL` — phrased
/// in the given dialect's syntax.
fn acceptance_script(dialect: Dialect) -> String {
    let except = dialect.except_keyword();
    format!(
        "CREATE TABLE Emp (id, name, dept);
         CREATE TABLE Dept (id, budget);
         INSERT INTO Emp VALUES (1, 'ada', 10), (2, 'grace', 20), (3, 'edsger', NULL);
         INSERT INTO Dept (id, budget) VALUES (10, 1000), (20, NULL);
         SELECT Emp.dept AS d, COUNT(*) AS n FROM Emp
             WHERE Emp.dept IN (SELECT Dept.id FROM Dept)
             GROUP BY Emp.dept
             HAVING COUNT(*) > 0;
         SELECT Emp.id FROM Emp {except} SELECT Dept.id FROM Dept;
         EXPLAIN SELECT DISTINCT Emp.name FROM Emp
             WHERE EXISTS (SELECT * FROM Dept WHERE Dept.id = Emp.dept);
         SELECT DISTINCT Emp.dept AS d FROM Emp
             WHERE Emp.dept NOT IN (SELECT Dept.budget FROM Dept)"
    )
}

#[test]
fn pure_sql_script_runs_in_every_dialect_logic_backend_combination() {
    for dialect in Dialect::ALL {
        for logic in LogicMode::ALL {
            for backend in Backend::ALL {
                let mut s = Session::builder()
                    .with_dialect(dialect)
                    .with_logic(logic)
                    .with_backend(backend)
                    .build();
                let results = s
                    .run_script(&acceptance_script(dialect))
                    .unwrap_or_else(|e| panic!("{dialect}/{logic}/{backend}: {e}"));
                assert_eq!(results.len(), 8);
                let label = format!("{dialect}/{logic}/{backend}");
                // Grouped query: edsger's NULL dept never qualifies, in
                // any logic mode, so two groups of one remain.
                let grouped = results[4].rows().unwrap();
                assert!(
                    grouped.coincides(&table! { ["d", "n"]; [10, 1], [20, 1] }),
                    "{label}:\n{grouped}"
                );
                // Difference: {1,2,3} − {10,20}.
                let diff = results[5].rows().unwrap();
                assert!(diff.coincides(&table! { ["id"]; [1], [2], [3] }), "{label}:\n{diff}");
                // EXPLAIN renders some plan.
                let plan = results[6].plan().unwrap();
                match backend {
                    Backend::SpecInterpreter => {
                        assert!(plan.contains("SpecInterpreter"), "{label}:\n{plan}")
                    }
                    _ => assert!(plan.contains("Scan"), "{label}:\n{plan}"),
                }
                // Example 1: the NULL budget poisons NOT IN under 3VL
                // (no rows at all); the two-valued readings let the
                // non-matching depts through, and differ on whether
                // NULL = NULL excludes edsger's NULL dept.
                let not_in = results[7].rows().unwrap();
                let expected = match logic {
                    LogicMode::ThreeValued => table! { ["d"] },
                    LogicMode::TwoValuedConflate => table! { ["d"]; [10], [20], [Value::Null] },
                    LogicMode::TwoValuedSyntacticEq => table! { ["d"]; [10], [20] },
                };
                assert!(not_in.coincides(&expected), "{label}:\n{not_in}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------------

#[test]
fn prepared_statement_reuse_equals_recompile() {
    for backend in Backend::ALL {
        let mut s = Session::builder().with_backend(backend).build();
        s.run_script(
            "CREATE TABLE R (A, B);
             INSERT INTO R VALUES (1, 2), (1, NULL), (3, 4)",
        )
        .unwrap();
        let sql = "SELECT R.A AS k, COUNT(R.B) AS n FROM R GROUP BY R.A";
        let mut prepared = s.prepare(sql).unwrap();
        let once = s.execute_prepared(&mut prepared).unwrap();
        let twice = s.execute_prepared(&mut prepared).unwrap();
        let fresh = s.execute(sql).unwrap();
        assert_eq!(once, twice, "{backend}");
        assert_eq!(once, fresh, "{backend}");
    }
}

#[test]
fn prepared_statements_survive_ddl_and_see_new_data() {
    let mut s = Session::new();
    s.run_script("CREATE TABLE R (A); INSERT INTO R VALUES (1)").unwrap();
    let mut count = s.prepare("SELECT COUNT(*) AS n FROM R").unwrap();
    let before = s.execute_prepared(&mut count).unwrap();
    assert!(before.rows().unwrap().coincides(&table! { ["n"]; [1] }));

    // Schema change bumps the epoch; the handle transparently
    // re-prepares and reflects both the new table and the new rows.
    s.execute("CREATE TABLE S (B)").unwrap();
    s.execute("INSERT INTO R VALUES (2), (3)").unwrap();
    let after = s.execute_prepared(&mut count).unwrap();
    assert!(after.rows().unwrap().coincides(&table! { ["n"]; [3] }));

    // A prepared statement whose table is dropped errors cleanly.
    s.execute("DROP TABLE R").unwrap();
    assert!(s.execute_prepared(&mut count).is_err());
}

#[test]
fn prepared_plans_do_not_outlive_the_data_that_justified_them() {
    // The optimizer's totality proofs read the stored values: with only
    // integers in R.A, `R.A < 5` is provably error-free and an index
    // range scan may serve it. One string later the comparison raises,
    // and a plan cached before the INSERT must not keep answering — on
    // every backend the prepared verdict is the fresh verdict, whether
    // the connection made its database or joined an existing one.
    let script = "CREATE TABLE R (A); INSERT INTO R VALUES (1), (2), (9); \
                  CREATE INDEX r_a ON R (A);";
    let sql = "SELECT R.A FROM R WHERE R.A < 5";
    for backend in Backend::ALL {
        let shared = sqlsem::session::SharedDatabase::in_memory();
        let connections = [
            ("fresh", Session::builder().with_backend(backend).build()),
            ("shared", Session::builder().with_backend(backend).with_shared(&shared).build()),
        ];
        for (kind, mut s) in connections {
            s.run_script(script).unwrap();
            let mut stmt = s.prepare(sql).unwrap();
            let before = s.execute_prepared(&mut stmt).unwrap();
            assert_eq!(before.tag(), "SELECT 2", "{kind} [{backend}]");
            s.execute("INSERT INTO R VALUES ('x')").unwrap();
            let prepared = s.execute_prepared(&mut stmt);
            let fresh = s.execute(sql);
            assert!(fresh.is_err(), "{kind} [{backend}]: {fresh:?}");
            assert_eq!(
                prepared.as_ref().map_err(ToString::to_string),
                fresh.as_ref().map_err(ToString::to_string),
                "{kind} [{backend}]"
            );
        }
    }
}

#[test]
fn prepared_statements_do_not_leak_across_sessions() {
    // Two sessions whose epoch counters coincide but whose schemas
    // transpose R's columns: a handle prepared on A must re-prepare on
    // B (not silently run A's positional plan against B's layout).
    let mut a = Session::new();
    a.run_script("CREATE TABLE R (A, B); INSERT INTO R VALUES (1, 2)").unwrap();
    let mut b = Session::new();
    b.run_script("CREATE TABLE R (B, A); INSERT INTO R VALUES (1, 2)").unwrap();

    let mut stmt = a.prepare("SELECT R.B FROM R").unwrap();
    let on_a = a.execute_prepared(&mut stmt).unwrap();
    assert!(on_a.rows().unwrap().coincides(&table! { ["B"]; [2] }));
    let on_b = b.execute_prepared(&mut stmt).unwrap();
    assert!(on_b.rows().unwrap().coincides(&table! { ["B"]; [1] }), "{on_b}");

    // A forked session gets a fresh identity too: diverging DDL on the
    // fork must not be hidden by a coinciding epoch.
    let mut c = a.fork();
    c.execute("DROP TABLE R").unwrap();
    c.execute("CREATE TABLE R (B)").unwrap();
    c.execute("INSERT INTO R VALUES (9)").unwrap();
    let mut stmt_a = a.prepare("SELECT R.B FROM R").unwrap();
    let on_c = c.execute_prepared(&mut stmt_a).unwrap();
    assert!(on_c.rows().unwrap().coincides(&table! { ["B"]; [9] }), "{on_c}");
}

#[test]
fn clone_is_one_more_caller_and_fork_is_the_only_copy() {
    let count = |s: &mut Session| s.execute("SELECT COUNT(*) AS n FROM R").unwrap().to_string();
    let schema = sqlsem::Schema::builder().table("R", ["A"]).build().unwrap();
    let builder = Session::builder().with_database(sqlsem::Database::new(schema));

    // A `with_database` connection and its clone are two callers of one
    // database: each sees the other's writes.
    let mut original = builder.clone().build();
    let mut cloned = original.clone();
    original.execute("INSERT INTO R VALUES (1)").unwrap();
    assert_eq!(count(&mut cloned), count(&mut original));
    cloned.execute("INSERT INTO R VALUES (2)").unwrap();
    let out = original.execute("SELECT R.A FROM R").unwrap();
    assert!(out.rows().unwrap().coincides(&table! { ["A"]; [1], [2] }), "{out}");

    // A pinned snapshot holds one caller's reads while the other inserts.
    original.pin_snapshot();
    let (pinned, version) = (count(&mut original), original.snapshot_version());
    cloned.execute("INSERT INTO R VALUES (3)").unwrap();
    assert_eq!(count(&mut original), pinned);
    assert_eq!(original.snapshot_version(), version);
    original.unpin_snapshot();
    assert_eq!(count(&mut original), count(&mut cloned));
    assert!(original.snapshot_version() > version);

    // `fork` is the one divergent copy.
    let mut forked = original.fork();
    forked.run_script("INSERT INTO R VALUES (4); CREATE TABLE ONLY_IN_FORK (X)").unwrap();
    let out = forked.execute("SELECT R.A FROM R").unwrap();
    assert!(out.rows().unwrap().coincides(&table! { ["A"]; [1], [2], [3], [4] }), "{out}");
    let out = original.execute("SELECT R.A FROM R").unwrap();
    assert!(out.rows().unwrap().coincides(&table! { ["A"]; [1], [2], [3] }), "{out}");
    assert!(original.execute("SELECT * FROM ONLY_IN_FORK").is_err());

    // Two builds from one builder are two databases, not two callers.
    let (mut first, mut second) = (builder.clone().build(), builder.build());
    first.execute("INSERT INTO R VALUES (5)").unwrap();
    let out = second.execute("SELECT R.A FROM R").unwrap();
    assert!(out.rows().unwrap().is_empty(), "{out}");
}

#[test]
fn prepared_explain_and_ddl_statements_work() {
    let mut s = Session::new();
    s.run_script("CREATE TABLE R (A); INSERT INTO R VALUES (1)").unwrap();
    let mut explain = s.prepare("EXPLAIN SELECT A FROM R WHERE A = 1").unwrap();
    let plan = s.execute_prepared(&mut explain).unwrap();
    assert!(plan.plan().unwrap().contains("Scan"), "{plan}");
    // DDL can be prepared too; it simply re-executes.
    let mut insert = s.prepare("INSERT INTO R VALUES (9)").unwrap();
    s.execute_prepared(&mut insert).unwrap();
    s.execute_prepared(&mut insert).unwrap();
    let out = s.execute("SELECT A FROM R").unwrap();
    assert!(out.rows().unwrap().coincides(&table! { ["A"]; [1], [9], [9] }));
}

// ---------------------------------------------------------------------------
// Differential sweep: the five backends coincide through the Session API
// ---------------------------------------------------------------------------

#[test]
fn backends_coincide_on_generated_queries_including_error_verdicts() {
    // 150 generated query/database pairs (the §4 shapes, aggregates
    // included), each printed to SQL and executed through sessions over
    // all five backends, all dialects × logic modes. The spec
    // interpreter is the baseline; agreement must include the error
    // verdict (Ok-vs-Err and the ambiguity character).
    let schema = sqlsem_generator::paper_schema();
    let config = ValidationConfig::quick(150, 0x5E551011);
    let mut error_agreements = 0usize;
    for i in 0..config.queries {
        let (query, db) = iteration_case(&schema, &config, i);
        // One session per backend per case, retargeted across the nine
        // dialect × logic combinations.
        let mut spec_session = candidate_session(db.clone(), Backend::SpecInterpreter, None, None);
        let mut engines = [
            (Backend::NaiveEngine, candidate_session(db.clone(), Backend::NaiveEngine, None, None)),
            (
                Backend::OptimizedEngine,
                candidate_session(db.clone(), Backend::OptimizedEngine, None, None),
            ),
            // Batch size 3 keeps the columnar executor crossing chunk
            // boundaries on these small instances; two morsel workers
            // exercise the parallel stitching path.
            (
                Backend::VectorizedEngine,
                candidate_session(db.clone(), Backend::VectorizedEngine, Some(3), Some(2)),
            ),
            // The adaptive dispatcher must coincide on both sides of its
            // cutover (these small instances land on the row engine).
            (Backend::Adaptive, candidate_session(db, Backend::Adaptive, Some(3), Some(2))),
        ];
        for dialect in Dialect::ALL {
            let sql = sqlsem::to_sql(&query, dialect);
            for logic in LogicMode::ALL {
                spec_session.set_dialect(dialect);
                spec_session.set_logic(logic);
                let spec = session_outcome(&mut spec_session, &sql);
                for (backend, session) in engines.iter_mut() {
                    session.set_dialect(dialect);
                    session.set_logic(logic);
                    let candidate = session_outcome(session, &sql);
                    match compare(&spec, &candidate) {
                        Verdict::AgreeResult => {}
                        Verdict::AgreeError => error_agreements += 1,
                        Verdict::Disagree(detail) => {
                            panic!("#{i} [{dialect}/{logic}/{backend}] {detail}\n  {sql}")
                        }
                    }
                }
            }
        }
    }
    // The sweep must actually exercise agreeing-on-error cases
    // (ambiguous stars), or the error-verdict half of the claim is
    // vacuous.
    assert!(error_agreements > 0, "no error-agreement cases generated");
}
