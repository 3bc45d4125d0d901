//! Layer-by-layer replay of one query through the public functions the
//! session calls internally, each call under its own span.

use sqlsem_core::{Database, PredicateRegistry, Table};
use sqlsem_engine::{compile_plan, optimize, Backend, Engine, Executor};
use sqlsem_parser::{annotate_statement, parse_statement, to_sql, Statement};
use sqlsem_session::{Connection, StatementResult};

use crate::trace::Tracer;

/// The engine a [`Connection`] would build for its configuration —
/// `Connection::engine` is private, so this mirrors it from the public
/// getters. Kept next to the replay so a change of the session's wiring
/// shows up as `trace.unaccounted_share` moving.
pub fn engine_like<'a>(conn: &Connection, db: &'a Database) -> Engine<'a> {
    let backend = conn.backend();
    Engine::new(db)
        .with_dialect(conn.dialect())
        .with_logic(conn.logic())
        .with_optimizations(backend != Backend::NaiveEngine)
        .with_vectorized(backend == Backend::VectorizedEngine)
        .with_adaptive(backend == Backend::Adaptive)
        .with_batch_size(conn.batch_size())
        .with_threads(conn.threads())
}

/// Replays `sql` the way `conn` would execute it over `db`, one span
/// per layer under a `replay` span: parse → annotate → compile →
/// optimize → execute → render, plus the dialect printer. Returns the
/// result table, or `None` when a stage refuses the statement (the
/// remaining stages are then skipped, as they are in the session).
pub fn replay_query(
    tracer: &mut Tracer,
    op_id: u64,
    conn: &Connection,
    db: &Database,
    sql: &str,
) -> Option<Table> {
    let replay = tracer.begin("replay", op_id);
    let table = (|| {
        let span = tracer.begin("parser.parse", op_id);
        let surface = parse_statement(sql);
        tracer.end(span);
        let surface = surface.ok()?;

        let span = tracer.begin("parser.annotate", op_id);
        let statement = annotate_statement(&surface, db.schema());
        tracer.end(span);
        let Statement::Query(query) = statement.ok()? else { return None };

        let span = tracer.begin("parser.print", op_id);
        std::hint::black_box(to_sql(&query, conn.dialect()));
        tracer.end(span);

        let span = tracer.begin("engine.compile", op_id);
        let compiled = compile_plan(&query, db, conn.dialect());
        tracer.end(span);
        let compiled = compiled.ok()?;

        let span = tracer.begin("engine.optimize", op_id);
        let prepared = optimize(compiled, db);
        tracer.end(span);

        let engine = engine_like(conn, db);
        let span = tracer.begin("engine.exec", op_id);
        let table = engine.execute_prepared(&prepared);
        tracer.end(span);
        let table = table.ok()?;

        let span = tracer.begin("session.render", op_id);
        let result = StatementResult::Rows(table);
        std::hint::black_box(result.to_string());
        tracer.end(span);
        result.into_rows()
    })();
    tracer.end(replay);
    table
}

/// `engine.rows_produced_per_result` over `statements`: intermediate
/// rows the row executor's `Product`/`HashJoin` operators emit, per row
/// returned (an empty result counts as one) — the "rows examined per
/// result" ratio. Statements a stage refuses are skipped.
pub fn rows_produced_per_result<S: AsRef<str>>(
    conn: &Connection,
    db: &Database,
    statements: impl IntoIterator<Item = S>,
) -> f64 {
    let preds = PredicateRegistry::new();
    let (mut produced, mut returned) = (0usize, 0usize);
    for sql in statements {
        let counted = (|| {
            let surface = parse_statement(sql.as_ref()).ok()?;
            let Statement::Query(query) = annotate_statement(&surface, db.schema()).ok()? else {
                return None;
            };
            let prepared = optimize(compile_plan(&query, db, conn.dialect()).ok()?, db);
            let mut executor = Executor::new(db, conn.logic(), &preds);
            let rows = executor.run(&prepared.plan).ok()?;
            Some((executor.rows_produced(), rows.len()))
        })();
        if let Some((p, n)) = counted {
            produced += p;
            returned += n.max(1);
        }
    }
    produced as f64 / returned.max(1) as f64
}
