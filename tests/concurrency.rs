//! Interleaving-free invariants of the [`SharedDatabase`] MVCC core:
//! whatever the thread schedule, (1) the final state equals a serial
//! replay of the commit log, (2) no snapshot ever observes a partially
//! applied commit-queue op, (3) prepared statements transparently
//! re-prepare when *other* connections move the database forward, and
//! (4) a connection's own committed writes are visible to its next
//! statement. The invariants are scheduling-independent by
//! construction, so the tests assert exact outcomes, not
//! probabilities — a loom-style discipline without a model checker.

use std::sync::atomic::{AtomicUsize, Ordering};

use sqlsem::storage::fresh_temp_dir;
use sqlsem::{SharedDatabase, Value};

/// Pulls the single integer out of a one-row, one-column result.
fn scalar(result: &sqlsem::StatementResult) -> i64 {
    let table = result.rows().expect("a query result");
    assert_eq!(table.len(), 1, "expected one row: {table}");
    match table.rows().next().and_then(|r| r.get(0)) {
        Some(Value::Int(n)) => *n,
        other => panic!("expected an integer scalar, got {other:?}"),
    }
}

#[test]
fn final_state_equals_serial_replay_of_the_commit_log() {
    let shared = SharedDatabase::in_memory();
    shared.record_commit_log();
    shared.connect().execute("CREATE TABLE R (A)").unwrap();

    let writers = 4;
    let rounds = 16;
    std::thread::scope(|scope| {
        for w in 0..writers {
            let shared = &shared;
            scope.spawn(move || {
                let mut conn = shared.connect();
                let table = format!("T{w}");
                conn.execute(&format!("CREATE TABLE {table} (A)")).unwrap();
                for i in 0..rounds {
                    conn.execute(&format!("INSERT INTO R VALUES ({i})")).unwrap();
                    conn.execute(&format!("INSERT INTO {table} VALUES ({i})")).unwrap();
                }
            });
        }
    });

    // The committed order is a serial order: replaying it over an empty
    // database reproduces the final snapshot exactly — schema, rows,
    // row order, indexes.
    let mut replayed = sqlsem::Database::new(sqlsem::Schema::default());
    for op in shared.commit_log() {
        op.apply(&mut replayed).expect("commit log replays");
    }
    assert_eq!(&replayed, shared.snapshot().as_ref());
    // Every op committed: 1 setup + per writer (1 DDL + 2*rounds).
    assert_eq!(shared.commit_log().len(), 1 + writers * (1 + 2 * rounds));
}

#[test]
fn snapshots_never_observe_a_partially_applied_op() {
    let shared = SharedDatabase::in_memory();
    shared.connect().execute("CREATE TABLE R (A)").unwrap();
    let odd_observations = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let shared = &shared;
            scope.spawn(move || {
                let mut conn = shared.connect();
                for i in 0..24 {
                    // One op, two rows: must become visible atomically.
                    conn.execute(&format!("INSERT INTO R VALUES ({i}), (NULL)")).unwrap();
                }
            });
        }
        for _ in 0..3 {
            let shared = &shared;
            let odd_observations = &odd_observations;
            scope.spawn(move || {
                let mut conn = shared.connect();
                for _ in 0..48 {
                    let n = scalar(&conn.execute("SELECT COUNT(*) AS n FROM R").unwrap());
                    if n % 2 != 0 {
                        odd_observations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert_eq!(odd_observations.load(Ordering::Relaxed), 0, "a reader saw half an INSERT");
    let mut conn = shared.connect();
    assert_eq!(scalar(&conn.execute("SELECT COUNT(*) AS n FROM R").unwrap()), 3 * 24 * 2);
}

#[test]
fn prepared_statements_reprepare_when_other_connections_commit() {
    let shared = SharedDatabase::in_memory();
    let mut a = shared.connect();
    let mut b = shared.connect();
    a.execute("CREATE TABLE R (A)").unwrap();
    let mut count = a.prepare("SELECT COUNT(*) AS n FROM R").unwrap();
    assert_eq!(scalar(&a.execute_prepared(&mut count).unwrap()), 0);

    // A commit from a *different* connection must invalidate the cached
    // plan (the optimizer's proofs are data-seeded, so even a plain
    // INSERT elsewhere can change the valid plan space).
    b.execute("INSERT INTO R VALUES (1), (2), (3)").unwrap();
    assert_eq!(scalar(&a.execute_prepared(&mut count).unwrap()), 3);

    // DDL from the other connection too: the handle re-prepares against
    // the new schema rather than erroring or running a stale plan.
    b.execute("CREATE INDEX r_idx ON R (A)").unwrap();
    b.execute("INSERT INTO R VALUES (4)").unwrap();
    assert_eq!(scalar(&a.execute_prepared(&mut count).unwrap()), 4);
}

#[test]
fn a_connections_own_writes_are_visible_to_its_next_statement() {
    let shared = SharedDatabase::in_memory();
    let mut conn = shared.connect();
    conn.execute("CREATE TABLE R (A)").unwrap();
    for i in 0..10 {
        // The commit queue publishes the new snapshot *before*
        // delivering the writer's result, so this read can never miss
        // the write — under any concurrent load.
        conn.execute(&format!("INSERT INTO R VALUES ({i})")).unwrap();
        assert_eq!(scalar(&conn.execute("SELECT COUNT(*) AS n FROM R").unwrap()), i + 1);
    }
}

#[test]
fn pinned_snapshots_hold_reads_stable_while_others_commit() {
    let shared = SharedDatabase::in_memory();
    let mut reader = shared.connect();
    let mut writer = shared.connect();
    writer.run_script("CREATE TABLE R (A); INSERT INTO R VALUES (1)").unwrap();

    reader.pin_snapshot();
    let pinned_version = reader.snapshot_version();
    assert_eq!(scalar(&reader.execute("SELECT COUNT(*) AS n FROM R").unwrap()), 1);
    writer.execute("INSERT INTO R VALUES (2), (3)").unwrap();
    // Still the pinned value, same version.
    assert_eq!(scalar(&reader.execute("SELECT COUNT(*) AS n FROM R").unwrap()), 1);
    assert_eq!(reader.snapshot_version(), pinned_version);
    reader.unpin_snapshot();
    assert_eq!(scalar(&reader.execute("SELECT COUNT(*) AS n FROM R").unwrap()), 3);
    assert!(reader.snapshot_version() > pinned_version);
}

#[test]
fn concurrent_writes_to_a_durable_shared_database_survive_reopen() {
    let dir = fresh_temp_dir("shared_durable");
    {
        let shared = SharedDatabase::open(&dir).unwrap();
        assert!(shared.is_durable());
        shared.connect().execute("CREATE TABLE R (A, B)").unwrap();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let shared = &shared;
                scope.spawn(move || {
                    let mut conn = shared.connect();
                    for i in 0..8 {
                        conn.execute(&format!("INSERT INTO R VALUES ({w}, {i})")).unwrap();
                    }
                });
            }
        });
        // No checkpoint: recovery must come from the WAL alone.
    }
    let reopened = SharedDatabase::open(&dir).unwrap();
    let mut conn = reopened.connect();
    assert_eq!(scalar(&conn.execute("SELECT COUNT(*) AS n FROM R").unwrap()), 32);
    // And the recovered database keeps committing.
    conn.execute("INSERT INTO R VALUES (9, 9)").unwrap();
    assert_eq!(scalar(&conn.execute("SELECT COUNT(*) AS n FROM R").unwrap()), 33);
    drop(conn);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clone_of_a_shared_connection_is_a_new_connection_over_the_same_database() {
    let shared = SharedDatabase::in_memory();
    let mut original = shared.connect();
    original.run_script("CREATE TABLE R (A); INSERT INTO R VALUES (1)").unwrap();

    let mut cloned = original.clone();
    // Writes through the clone are visible to the original and vice
    // versa — clone means "one more caller", not "divergent copy".
    cloned.execute("INSERT INTO R VALUES (2)").unwrap();
    assert_eq!(scalar(&original.execute("SELECT COUNT(*) AS n FROM R").unwrap()), 2);
    original.execute("INSERT INTO R VALUES (3)").unwrap();
    assert_eq!(scalar(&cloned.execute("SELECT COUNT(*) AS n FROM R").unwrap()), 3);

    // `fork` detaches a divergent copy of the current snapshot, over a
    // database of its own.
    let mut forked = original.fork();
    assert_eq!((forked.shared_database().version(), original.shared_database().version()), (0, 4));
    forked.execute("INSERT INTO R VALUES (4)").unwrap();
    assert_eq!(scalar(&forked.execute("SELECT COUNT(*) AS n FROM R").unwrap()), 4);
    assert_eq!(scalar(&original.execute("SELECT COUNT(*) AS n FROM R").unwrap()), 3);
}
