//! The concurrent differential gauntlet: N writer threads × M reader
//! threads hammering one [`SharedDatabase`], under every dialect ×
//! logic combination, with every interleaving-visible behaviour held to
//! the §4 coincidence criterion.
//!
//! Three invariants are checked, per combination:
//!
//! * **Snapshot coincidence** — each reader pins a snapshot and runs a
//!   fixed set of null-sensitive queries through its `Connection`
//!   (candidate backend), comparing against the denotational
//!   interpreter evaluated on the *same* snapshot value. Any
//!   disagreement means concurrency leaked into the semantics.
//! * **Snapshot atomicity** — writers only ever append to the shared
//!   table `R` in pairs (one two-row `INSERT` = one commit-queue op),
//!   so `COUNT(*)` on any snapshot must be even; an odd count would
//!   mean a reader observed a partially applied op.
//! * **Serial-replay equality** — the shared database records its
//!   commit log; after all threads join, replaying the log over an
//!   empty database must reproduce the final snapshot exactly. The
//!   committed order *is* the serial order (single-writer semantics),
//!   so concurrency added nothing that a serial execution could not.
//!
//! Writers also assert read-your-writes (their own private table holds
//! exactly the rows they wrote) and that a statement rejected by the
//! commit queue (insert into a missing table) surfaces as a typed error
//! naming the table.
//!
//! ```text
//! cargo run --release -p sqlsem-bench --bin concurrent_gauntlet -- \
//!     --writers 4 --readers 4 --rounds 24
//! ```
//!
//! Exit status is non-zero on any disagreement or invariant violation.

use std::sync::atomic::{AtomicUsize, Ordering};

use sqlsem_bench::Args;
use sqlsem_core::{Database, Dialect, Evaluator, LogicMode, Query, Schema, Value};
use sqlsem_engine::Backend;
use sqlsem_session::{Connection, SessionBuilder, SharedDatabase};
use sqlsem_validation::{compare_with_order, ordered_comparison, session_outcome, Verdict};

/// The reader workload: null-sensitive shapes over the shared tables
/// `R(A)` and `S(A)` — Example 1's anti-joins, outer-join padding, and
/// an aggregate — everything the dialects and logic modes disagree on.
const READ_QUERIES: &[&str] = &[
    "SELECT DISTINCT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)",
    "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE S.A = R.A)",
    "SELECT A FROM R EXCEPT SELECT A FROM S",
    "SELECT * FROM R LEFT JOIN S ON R.A = S.A",
    "SELECT COALESCE(S.A, R.A, 0) AS c FROM R LEFT JOIN S ON R.A < S.A",
    "SELECT COUNT(*) AS n, COUNT(R.A) AS m FROM R",
];

/// The parity probe: `R` only ever grows by two-row inserts, so every
/// snapshot must show an even count.
const PARITY_QUERY: &str = "SELECT COUNT(*) AS n FROM R";

fn connect(shared: &SharedDatabase, d: Dialect, l: LogicMode, backend: Backend) -> Connection {
    SessionBuilder::new()
        .with_shared(shared)
        .with_dialect(d)
        .with_logic(l)
        .with_backend(backend)
        .build()
}

/// One writer: a private table it fully owns (read-your-writes), paired
/// appends to the shared `R`, odd single appends to `S`, DDL through
/// the queue, and one deliberately rejected statement.
fn writer(
    shared: &SharedDatabase,
    combo: (Dialect, LogicMode),
    backend: Backend,
    w: usize,
    rounds: usize,
) {
    let mut conn = connect(shared, combo.0, combo.1, backend);
    let table = format!("W{w}");
    conn.execute(&format!("CREATE TABLE {table} (A, B)")).expect("private CREATE TABLE");
    for i in 0..rounds {
        // The atomicity invariant: R only grows in pairs.
        conn.execute(&format!("INSERT INTO R VALUES ({i}), (NULL)")).expect("paired insert");
        conn.execute(&format!("INSERT INTO {table} VALUES ({i}, {w})")).expect("private insert");
        if i % 8 == 3 {
            conn.execute(&format!("INSERT INTO S VALUES ({})", i % 5)).expect("S insert");
        }
    }
    conn.execute(&format!("CREATE INDEX {table}_idx ON {table} (A)")).expect("CREATE INDEX");
    // A rejected op surfaces as a typed error and must not poison the
    // queue.
    let err = conn.execute("INSERT INTO NO_SUCH_TABLE VALUES (1)").expect_err("must be rejected");
    assert!(err.to_string().contains("NO_SUCH_TABLE"), "unexpected rejection: {err}");
    // Read-your-writes: the writer's next statement observes every one
    // of its own committed appends (no other thread touches W{w}).
    let out = conn.execute(&format!("SELECT COUNT(*) AS n FROM {table}")).expect("count");
    let n = out.rows().and_then(|t| t.rows().next().and_then(|r| r.get(0).cloned()));
    assert_eq!(n, Some(Value::Int(rounds as i64)), "writer {w} lost its own writes");
}

/// One reader: pin a snapshot, run the workload through the session
/// (candidate backend) and the denotational interpreter on the same
/// snapshot value, compare under the §4 criterion, check parity, unpin,
/// repeat.
#[allow(clippy::too_many_arguments)]
fn reader(
    shared: &SharedDatabase,
    combo: (Dialect, LogicMode),
    backend: Backend,
    queries: &[(String, Query)],
    rounds: usize,
    disagreements: &AtomicUsize,
) -> Vec<String> {
    let (dialect, logic) = combo;
    let mut conn = connect(shared, dialect, logic, backend);
    let mut samples = Vec::new();
    for _ in 0..rounds {
        conn.pin_snapshot();
        for (sql, query) in queries {
            let candidate = session_outcome(&mut conn, sql);
            let spec =
                Evaluator::new(conn.database()).with_dialect(dialect).with_logic(logic).eval(query);
            let order = ordered_comparison(query, conn.schema());
            if let Verdict::Disagree(detail) = compare_with_order(&spec, &candidate, order.as_ref())
            {
                disagreements.fetch_add(1, Ordering::Relaxed);
                if samples.len() < 3 {
                    samples.push(format!(
                        "[{dialect} / {logic:?} @ v{}] {detail}\n    {sql}",
                        conn.snapshot_version()
                    ));
                }
            }
        }
        // Atomicity: paired inserts can never be seen half-applied.
        let out = conn.execute(PARITY_QUERY).expect("parity probe");
        let n = out.rows().and_then(|t| t.rows().next().and_then(|r| r.get(0).cloned()));
        match n {
            Some(Value::Int(n)) if n % 2 == 0 => {}
            other => {
                disagreements.fetch_add(1, Ordering::Relaxed);
                samples.push(format!(
                    "[{dialect} / {logic:?}] snapshot v{} observed a partial batch: \
                     COUNT(*) on R = {other:?}",
                    conn.snapshot_version()
                ));
            }
        }
        conn.unpin_snapshot();
    }
    samples
}

fn main() {
    let mut args = Args::from_env();
    let writers: usize = args.value("--writers", 4);
    let readers: usize = args.value("--readers", 4);
    let rounds: usize = args.value("--rounds", 24);
    let backend: Backend = args.value("--backend", Backend::Adaptive);
    args.finish();

    let schema = Schema::builder().table("R", ["A"]).table("S", ["A"]).build().unwrap();
    let queries: Vec<(String, Query)> = READ_QUERIES
        .iter()
        .map(|sql| (sql.to_string(), sqlsem_parser::compile(sql, &schema).unwrap()))
        .collect();

    let combos: Vec<(Dialect, LogicMode)> = Dialect::ALL
        .into_iter()
        .flat_map(|d| LogicMode::ALL.into_iter().map(move |l| (d, l)))
        .collect();

    let start = std::time::Instant::now();
    let mut total_disagreements = 0usize;
    println!(
        "concurrent gauntlet: {writers} writers x {readers} readers, {rounds} rounds, \
         backend {backend}\n"
    );
    for combo in combos {
        let (dialect, logic) = combo;
        let shared = SharedDatabase::in_memory();
        shared.record_commit_log();
        let mut setup = connect(&shared, dialect, logic, backend);
        setup
            .run_script("CREATE TABLE R (A); CREATE TABLE S (A); INSERT INTO S VALUES (NULL), (1)")
            .expect("setup script");

        let disagreements = AtomicUsize::new(0);
        let queries_sql: Vec<(String, Query)> =
            queries.iter().map(|(_, q)| (sqlsem_parser::to_sql(q, dialect), q.clone())).collect();
        let samples: Vec<String> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..writers {
                let shared = &shared;
                handles.push(scope.spawn(move || {
                    writer(shared, combo, backend, w, rounds);
                    Vec::new()
                }));
            }
            for _ in 0..readers {
                let shared = &shared;
                let queries_sql = &queries_sql;
                let disagreements = &disagreements;
                handles.push(scope.spawn(move || {
                    reader(shared, combo, backend, queries_sql, rounds, disagreements)
                }));
            }
            handles.into_iter().flat_map(|h| h.join().expect("gauntlet thread")).collect()
        });

        // Serial-replay equality: the recorded commit order, replayed
        // over an empty database, reproduces the final snapshot.
        let log = shared.commit_log();
        let mut replayed = Database::new(Schema::default());
        for op in &log {
            op.apply(&mut replayed).expect("commit log replays");
        }
        let final_snapshot = shared.snapshot();
        assert_eq!(
            &replayed,
            final_snapshot.as_ref(),
            "[{dialect} / {logic:?}] serial replay of {} committed ops diverged",
            log.len()
        );

        let d = disagreements.load(Ordering::Relaxed);
        total_disagreements += d;
        println!(
            "  {:<12} {:<22} committed ops: {:>5}   final version: {:>5}   disagree: {:>3}",
            dialect.to_string(),
            format!("{logic:?}"),
            log.len(),
            shared.version(),
            d
        );
        for s in &samples {
            println!("  DISAGREEMENT {s}");
        }
    }

    println!(
        "\nverdict ({:.2?}): {}",
        start.elapsed(),
        if total_disagreements == 0 {
            "0 disagreements — concurrency is invisible under the coincidence criterion"
        } else {
            "DISAGREEMENTS FOUND"
        }
    );
    if total_disagreements > 0 {
        std::process::exit(1);
    }
}
