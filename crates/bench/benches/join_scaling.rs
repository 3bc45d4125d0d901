//! Criterion microbenchmarks of the optimizer's three scale escapes, at
//! sizes small enough for the bench harness: hash join vs naive product,
//! cached vs re-executed uncorrelated subqueries, and early-exit vs
//! materializing `EXISTS`. Compile-checked in CI; the repo's
//! performance baseline is `benchmark/`, not this file.

use std::time::Duration;

use criterion::measurement::Measurement;
use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};

use sqlsem_core::{Database, Row, Schema, Table, Value};
use sqlsem_engine::Engine;

fn configure<M: Measurement>(group: &mut BenchmarkGroup<'_, M>) {
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    group.sample_size(20);
}

fn schema() -> Schema {
    Schema::builder().table("R", ["A", "B"]).table("S", ["A", "C"]).build().unwrap()
}

fn instance(schema: &Schema, n: usize) -> Database {
    let mut db = Database::new(schema.clone());
    let rows = |payload: i64| -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64), Value::Int(i as i64 * payload)]))
            .collect()
    };
    db.replace_table("R", Table::with_rows(vec!["A".into(), "B".into()], rows(2)).unwrap())
        .unwrap();
    db.replace_table("S", Table::with_rows(vec!["A".into(), "C".into()], rows(3)).unwrap())
        .unwrap();
    db
}

fn bench_case(c: &mut Criterion, group_name: &str, sql: &str, sizes: &[usize]) {
    let schema = schema();
    let q = sqlsem_parser::compile(sql, &schema).unwrap();
    let mut group = c.benchmark_group(group_name);
    configure(&mut group);
    for &n in sizes {
        let db = instance(&schema, n);
        group.bench_with_input(BenchmarkId::new("naive", n), &q, |b, q| {
            let engine = Engine::new(&db).with_optimizations(false);
            b.iter(|| engine.execute(q).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("optimized", n), &q, |b, q| {
            let engine = Engine::new(&db);
            b.iter(|| engine.execute(q).unwrap());
        });
    }
    group.finish();
}

fn bench_hash_join(c: &mut Criterion) {
    bench_case(c, "join_scaling", "SELECT R.B, S.C FROM R, S WHERE R.A = S.A", &[50, 150, 450]);
}

fn bench_subquery_cache(c: &mut Criterion) {
    bench_case(
        c,
        "uncorrelated_in",
        "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S WHERE S.C > 10)",
        &[50, 150, 450],
    );
}

fn bench_exists_early_exit(c: &mut Criterion) {
    bench_case(
        c,
        "exists_early_exit",
        "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S x, S y WHERE x.A = R.A)",
        &[20, 60],
    );
}

fn bench_top_k(c: &mut Criterion) {
    // Naive: full stable sort + slice. Optimized: bounded-heap TopK.
    bench_case(
        c,
        "top_k",
        "SELECT R.A AS a, R.B AS b FROM R ORDER BY b DESC, a LIMIT 10",
        &[50, 150, 450],
    );
}

criterion_group!(
    benches,
    bench_hash_join,
    bench_subquery_cache,
    bench_exists_early_exit,
    bench_top_k
);
criterion_main!(benches);
