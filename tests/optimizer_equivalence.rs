//! Property tests for the engine's optimizing pass: for every generated
//! query/database pair, `execute` with optimizations **coincides** with
//! the naive execution — same column names in the same order, same rows
//! with the same multiplicities, and the same error verdict — across all
//! dialects and logic modes. This is the §4 correctness criterion turned
//! inward: the naive engine plays the specification, the optimized
//! engine plays the system under test.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sqlsem::core::LogicMode;
use sqlsem::engine::Engine;
use sqlsem::{Dialect, Schema};
use sqlsem_generator::{
    paper_schema, random_database, DataGenConfig, QueryGenConfig, QueryGenerator,
};
use sqlsem_validation::{compare_with_order, ordered_comparison, Verdict};

/// Runs one query under every dialect × logic mode, asserting the
/// optimized outcome coincides with the naive one — as a *list*
/// (prefix-equality under ties) when the query is ordered, as a bag
/// otherwise.
fn assert_coincides(query: &sqlsem::core::Query, db: &sqlsem::core::Database, label: &str) {
    let order = ordered_comparison(query, db.schema());
    for dialect in Dialect::ALL {
        for logic in LogicMode::ALL {
            let naive = Engine::new(db)
                .with_dialect(dialect)
                .with_logic(logic)
                .with_optimizations(false)
                .execute(query);
            let optimized = Engine::new(db).with_dialect(dialect).with_logic(logic).execute(query);
            if let Verdict::Disagree(detail) =
                compare_with_order(&naive, &optimized, order.as_ref())
            {
                panic!(
                    "{label} [{dialect} / {logic:?}]: {detail}\n  query: {}\n  naive: {naive:?}\n  optimized: {optimized:?}",
                    sqlsem::to_sql(query, dialect)
                );
            }
        }
    }
}

#[test]
fn generated_workloads_coincide() {
    // Random queries in the §4 shape — nulls, duplicates, correlated and
    // uncorrelated subqueries, set operations and ambiguous stars all
    // arise from the generator's knobs.
    let schema = paper_schema();
    let gen = QueryGenerator::new(&schema, QueryGenConfig::small());
    for i in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(0x0b71_0000 + i);
        let q = gen.generate(&mut rng);
        let db = random_database(&schema, &DataGenConfig::small(), &mut rng);
        assert_coincides(&q, &db, &format!("case {i}"));
    }
}

#[test]
fn subquery_heavy_workloads_coincide() {
    // Crank the subquery and correlation knobs so caching and early-exit
    // eligibility decisions get dense coverage.
    let schema = paper_schema();
    let config = QueryGenConfig {
        subquery_cond_prob: 0.8,
        correlated_prob: 0.6,
        from_subquery_prob: 0.4,
        null_const_prob: 0.25,
        ..QueryGenConfig::small()
    };
    let gen = QueryGenerator::new(&schema, config);
    for i in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x0b72_0000 + i);
        let q = gen.generate(&mut rng);
        let db = random_database(&schema, &DataGenConfig::small(), &mut rng);
        assert_coincides(&q, &db, &format!("subquery case {i}"));
    }
}

#[test]
fn null_pitfalls_and_handwritten_shapes_coincide() {
    use sqlsem::core::{table, Value};
    let schema = Schema::builder().table("R", ["A", "B"]).table("S", ["A"]).build().unwrap();
    let mut db = sqlsem::core::Database::new(schema.clone());
    // Duplicates and nulls on both sides.
    db.replace_table(
        "R",
        table! { ["A", "B"]; [1, 2], [1, 2], [Value::Null, 3], [4, Value::Null], [4, 5] },
    )
    .unwrap();
    db.replace_table("S", table! { ["A"]; [1], [1], [Value::Null], [4] }).unwrap();
    let cases = [
        // Example 1's three inequivalent shapes.
        "SELECT DISTINCT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)",
        "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE S.A = R.A)",
        "SELECT A FROM R EXCEPT SELECT A FROM S",
        // Example 2's ambiguous star (errors on Standard/Oracle).
        "SELECT * FROM (SELECT R.A, R.A FROM R) AS T",
        // Equi-joins with null keys, both flavours of equality.
        "SELECT * FROM R x, S y WHERE x.A = y.A",
        "SELECT * FROM R x, S y WHERE x.A IS NOT DISTINCT FROM y.A",
        "SELECT x.B FROM R x, R y, S z WHERE x.A = y.A AND y.A = z.A AND x.B = 2",
        // Pushdown around residual predicates.
        "SELECT x.A FROM R x, S y WHERE x.A = 1 AND y.A > 0 AND x.B <> y.A",
        // Uncorrelated and correlated subqueries, negated and not.
        "SELECT A FROM S WHERE A IN (SELECT A FROM R WHERE B IS NOT NULL)",
        "SELECT A FROM S WHERE EXISTS (SELECT * FROM R WHERE R.A = S.A AND R.B = 2)",
        "SELECT A FROM S WHERE NOT EXISTS (SELECT * FROM R, S t WHERE R.A = t.A)",
        "SELECT DISTINCT x.A FROM R x WHERE (x.A, x.B) IN (SELECT A, B FROM R)",
        // All set operations over duplicated data.
        "SELECT A FROM R UNION ALL SELECT A FROM S",
        "SELECT A FROM R UNION SELECT A FROM S",
        "SELECT A FROM R INTERSECT ALL SELECT A FROM S",
        "SELECT A FROM R INTERSECT SELECT A FROM S",
        "SELECT A FROM R EXCEPT ALL SELECT A FROM S",
        // A shape that must *not* optimize (possible type error) still
        // coincides — including its error verdict.
        "SELECT x.A FROM R x, S y WHERE x.A = y.A AND x.B LIKE 'x%'",
    ];
    for sql in cases {
        let q = sqlsem::compile(sql, &schema).unwrap();
        assert_coincides(&q, &db, sql);
    }
}

#[test]
fn empty_inputs_keep_deferred_errors_deferred() {
    // Under the Standard dialect an ambiguous star is an
    // *evaluation-time* error: it must not fire when no row reaches it.
    // Pushdown must not change that (the ambiguous projection sits above
    // the filtered product, and the pushed filter empties it).
    let schema = Schema::builder().table("R", ["A"]).table("S", ["A"]).build().unwrap();
    let mut db = sqlsem::core::Database::new(schema.clone());
    db.replace_table("R", sqlsem::core::table! { ["A"]; [1] }).unwrap();
    // S stays empty: the product is empty however the plan is shaped.
    let q = sqlsem::compile(
        "SELECT * FROM (SELECT x.A, x.A FROM R x, S y WHERE x.A = y.A) AS T",
        &schema,
    )
    .unwrap();
    assert_coincides(&q, &db, "deferred ambiguity over empty join");
    assert!(Engine::new(&db).execute(&q).unwrap().is_empty());
}

#[test]
fn user_predicates_anywhere_in_a_subplan_block_caching() {
    // A user predicate is an opaque host function, so *how often* it is
    // called is observable. An uncorrelated subquery that invokes one
    // must therefore re-run per outer row on every backend, exactly as
    // the specification evaluates it — wherever in the subquery the
    // predicate sits, not just in its WHERE.
    use sqlsem::core::PredicateRegistry;
    use sqlsem::session::{Backend, Session};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let positions = [
        ("WHERE", "SELECT S.A FROM S WHERE tick(S.A)"),
        ("CASE select item", "SELECT CASE WHEN tick(S.A) THEN S.A ELSE S.A END AS A FROM S"),
        ("HAVING", "SELECT S.A FROM S GROUP BY S.A HAVING tick(S.A)"),
        (
            "CASE over a grouping key",
            "SELECT CASE WHEN tick(S.A) THEN S.A ELSE S.A END AS A FROM S GROUP BY S.A",
        ),
    ];
    for (position, subquery) in positions {
        let sql = format!("SELECT R.A FROM R WHERE R.A IN ({subquery})");
        let mut counts = Vec::new();
        for backend in [
            Backend::SpecInterpreter,
            Backend::NaiveEngine,
            Backend::OptimizedEngine,
            Backend::VectorizedEngine,
        ] {
            let calls = Arc::new(AtomicUsize::new(0));
            let mut preds = PredicateRegistry::new();
            let counter = Arc::clone(&calls);
            preds.register("tick", 1, move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            });
            let mut session =
                Session::builder().with_backend(backend).with_predicates(preds).build();
            session
                .run_script(
                    "CREATE TABLE R (A); CREATE TABLE S (A); \
                     INSERT INTO R VALUES (1), (2), (3); INSERT INTO S VALUES (1), (2);",
                )
                .unwrap();
            let out = session.execute(&sql).unwrap();
            assert_eq!(out.rows().unwrap().len(), 2, "{position} [{backend}]");
            counts.push((backend, calls.load(Ordering::Relaxed)));
        }
        // 3 outer rows × 2 inner rows (two groups, for the grouped ones).
        assert!(counts.iter().all(|(_, n)| *n == 6), "tick in {position}: calls {counts:?}");
    }
}
