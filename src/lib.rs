//! # sqlsem
//!
//! An executable formal semantics of basic SQL — a from-scratch Rust
//! reproduction of Paolo Guagliardo and Leonid Libkin, *A Formal
//! Semantics of SQL Queries, Its Validation, and Applications*,
//! PVLDB 11(1), 2017.
//!
//! ## The `Session` API
//!
//! The headline entry point is [`Session`]: a stateful object that owns
//! a database and speaks SQL text end to end — DDL, DML, queries and
//! `EXPLAIN` — under a configurable dialect (§4), logic mode (§6) and
//! execution [`Backend`], returning a single result type and a single
//! error type ([`SqlsemError`]):
//!
//! ```
//! use sqlsem::Session;
//!
//! let mut session = Session::new();
//! session.execute("CREATE TABLE R (A)").unwrap();
//! session.execute("CREATE TABLE S (A)").unwrap();
//! session.execute("INSERT INTO R VALUES (1), (NULL)").unwrap();
//! session.execute("INSERT INTO S VALUES (NULL)").unwrap();
//!
//! // Example 1 from the paper: under 3VL the NOT IN never succeeds.
//! let out = session
//!     .execute("SELECT DISTINCT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)")
//!     .unwrap();
//! assert!(out.rows().unwrap().is_empty());
//! ```
//!
//! Sessions are configured via [`Session::builder`] — any of the three
//! dialects × three logic modes × four backends — and support
//! [`Session::prepare`]d statements that cache the compile+optimize
//! work across executions:
//!
//! ```
//! use sqlsem::{Backend, Dialect, Session};
//!
//! let mut session = Session::builder()
//!     .with_dialect(Dialect::PostgreSql)
//!     .with_backend(Backend::OptimizedEngine)
//!     .build();
//! session.run_script("CREATE TABLE R (A, B); INSERT INTO R VALUES (1, 2), (1, NULL)").unwrap();
//!
//! let mut stmt = session.prepare("SELECT R.A AS k, COUNT(*) AS n FROM R GROUP BY R.A").unwrap();
//! let first = session.execute_prepared(&mut stmt).unwrap();
//! let again = session.execute_prepared(&mut stmt).unwrap(); // cached plan
//! assert_eq!(first, again);
//! ```
//!
//! ## Concurrency: `SharedDatabase` and `Connection`
//!
//! `Session` is an alias for [`Connection`], which can also be opened
//! over a [`SharedDatabase`] — a versioned, concurrently shared
//! database where readers take lock-free snapshots and writers
//! serialize through a group-commit queue:
//!
//! ```
//! use sqlsem::SharedDatabase;
//!
//! let shared = SharedDatabase::in_memory();
//! let mut writer = shared.connect();
//! let mut reader = shared.connect();
//! writer.run_script("CREATE TABLE R (A); INSERT INTO R VALUES (1), (2)").unwrap();
//! let out = reader.execute("SELECT COUNT(*) AS n FROM R").unwrap();
//! assert_eq!(out.rows().unwrap().len(), 1);
//! ```
//!
//! The [`server`] module serves such a database over TCP, one thread
//! and one `Connection` per client.
//!
//! ## Advanced: direct crate access
//!
//! The layers behind `Session` remain public, for consumers that work
//! with annotated ASTs, the denotational evaluator, or the translations
//! directly:
//!
//! * [`core`] — data model, annotated AST, environments, 3VL, and the
//!   denotational semantics `⟦·⟧_{D,η,x}` of Figures 1–7;
//! * [`parser`] — surface SQL: lexer, parser, the §2 annotation pass,
//!   statements, and dialect-aware printers;
//! * [`engine`] — an independent volcano-style engine standing in for
//!   the PostgreSQL/Oracle validation oracles of §4;
//! * [`storage`] — the durable storage engine: paged checkpoint files,
//!   a checksummed write-ahead log with crash recovery — the store
//!   behind [`SessionBuilder::with_storage`] and [`SharedDatabase::open`];
//! * [`algebra`] — bag relational algebra, SQL-RA, and the provably
//!   correct SQL → RA translation of §5 (Theorem 1);
//! * [`twovl`] — the Figure 10 translations eliminating three-valued
//!   logic (§6, Theorem 2);
//! * [`generator`] — TPC-H-calibrated random query and data generation;
//! * [`validation`] — the §4 differential validation harness;
//! * [`session`] — the [`Session`] machinery itself, including the
//!   [`SharedDatabase`] MVCC cell behind concurrent [`Connection`]s;
//! * [`server`] — the TCP front end multiplexing remote clients over
//!   one shared database.
//!
//! The pre-`Session` wire-it-yourself flow still works, and is the
//! right tool when a consumer needs to hold the intermediate artifacts
//! (schemas, annotated queries, plans) rather than run SQL:
//!
//! ```
//! use sqlsem::{compile, table, Database, Evaluator, Schema, Value};
//!
//! // Example 1 from the paper: R = {1, NULL}, S = {NULL}.
//! let schema = Schema::builder().table("R", ["A"]).table("S", ["A"]).build().unwrap();
//! let mut db = Database::new(schema.clone());
//! db.replace_table("R", table! { ["A"]; [1], [Value::Null] }).unwrap();
//! db.replace_table("S", table! { ["A"]; [Value::Null] }).unwrap();
//!
//! let q = compile("SELECT DISTINCT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)", &schema)
//!     .unwrap();
//! assert!(Evaluator::new(&db).eval(&q).unwrap().is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sqlsem_algebra as algebra;
pub use sqlsem_core as core;
pub use sqlsem_engine as engine;
pub use sqlsem_generator as generator;
pub use sqlsem_parser as parser;
pub use sqlsem_server as server;
pub use sqlsem_session as session;
pub use sqlsem_storage as storage;
pub use sqlsem_twovl as twovl;
pub use sqlsem_validation as validation;

pub use sqlsem_core::{
    row, table, AggFunc, Aggregate, CmpOp, Condition, Database, Dialect, Env, EvalError, Evaluator,
    FromItem, FullName, LogicMode, Name, PredicateRegistry, Query, Row, Schema, SelectList,
    SelectQuery, SetOp, Span, Table, Term, Truth, Value,
};
pub use sqlsem_parser::{
    compile, compile_statement, parse_query, parse_statement, statement_to_sql, to_sql,
    to_sql_pretty, Statement,
};
pub use sqlsem_session::{
    Backend, Connection, PreparedStatement, Session, SessionBuilder, SharedDatabase, SqlsemError,
    StatementResult,
};
