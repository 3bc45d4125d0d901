//! `analytic_scan`: six prepared analytic shapes over one owned
//! in-process connection. All time is engine execution (kernels,
//! morsels, sink); parse, optimize, wire and storage do nothing here.

use std::time::Instant;

use sqlsem_core::{Evaluator, Table};
use sqlsem_session::{Backend, Connection, PreparedStatement, Session};

use crate::gen;
use crate::harness::{Client, Fixture, PartReport, PartSpec, Scale, Stop, Tally};
use crate::layers::{replay_query, rows_produced_per_result};
use crate::stats::midmean;
use crate::trace::Tracer;

/// One analytic shape: its name (the op kind), its SQL, and whether
/// the result is compared as a list (`ORDER BY`) or as a bag.
pub struct Shape {
    /// Op kind and suffix of `engine.q_<name>_ms`.
    pub name: &'static str,
    /// The statement, prepared once in set-up.
    pub sql: &'static str,
    /// Compare row order too.
    pub ordered: bool,
}

/// The six shapes, in the order a round runs them. Predicates are sized
/// so that no shape takes more than 40 % of a round.
pub const SHAPES: [Shape; 6] = [
    Shape {
        name: "group",
        sql: "SELECT R.B AS b, COUNT(*) AS n, SUM(R.C) AS s FROM R GROUP BY R.B",
        ordered: false,
    },
    Shape {
        name: "join",
        sql: "SELECT R.A AS a, R.B AS b, S.D AS d FROM R, S WHERE R.A = S.A AND S.D < 10",
        ordered: false,
    },
    Shape {
        name: "topk",
        sql: "SELECT R.A AS a, R.B AS b, R.C AS c FROM R WHERE R.B < 500 \
              ORDER BY c DESC, a LIMIT 100",
        ordered: true,
    },
    // The paper's Example 1 shape: NOT IN with NULLs on the left (R.C)
    // under 3VL. The subquery filters its own NULLs out, so the answer
    // is not trivially empty; it returns 36 rows under every seed.
    Shape {
        name: "not_in",
        sql: "SELECT R.A AS a FROM R WHERE R.B < 20 AND R.C NOT IN \
              (SELECT S.D FROM S WHERE S.A < 160 AND S.D IS NOT NULL)",
        ordered: false,
    },
    // Both sides are filtered before the join: the row engine that
    // computes the expected result runs outer joins as nested loops.
    Shape {
        name: "outer",
        sql: "SELECT T.a AS a, T.b AS b, U.d AS d \
              FROM (SELECT R.A AS a, R.B AS b FROM R WHERE R.B < 10) AS T \
              LEFT JOIN (SELECT S.A AS a, S.D AS d FROM S WHERE S.D < 10) AS U ON T.a = U.a",
        ordered: false,
    },
    Shape {
        name: "filter",
        sql: "SELECT COUNT(*) AS n FROM R WHERE R.C IS NULL OR R.B < 10",
        ordered: false,
    },
];

/// `(R rows, S rows)` of the timed fixture and of the down-scaled copy
/// the spec interpreter checks.
fn sizes(scale: Scale) -> ((u64, u64), (u64, u64)) {
    match scale {
        Scale::Full => ((100_000, 25_000), (1_000, 250)),
        Scale::Tiny => ((1_200, 300), (200, 50)),
    }
}

fn same(ordered: bool, got: &Table, want: &Table) -> bool {
    got.columns() == want.columns()
        && if ordered { got.rows().eq(want.rows()) } else { got.multiset_eq(want) }
}

/// The single connection, its prepared shapes and their expected
/// results.
pub struct ScanClient {
    conn: Connection,
    prepared: Vec<PreparedStatement>,
    expected: Vec<Table>,
}

impl Client for ScanClient {
    fn round(&mut self, r: usize, tracer: &mut Tracer, tally: &mut Tally) {
        for (i, shape) in SHAPES.iter().enumerate() {
            let op_id = (r * SHAPES.len() + i) as u64;
            let op = tracer.begin("op", op_id);
            let call = tracer.begin("session.prepared", op_id);
            let start = Instant::now();
            let result = self.conn.execute_prepared(&mut self.prepared[i]);
            let latency = start.elapsed();
            tracer.end(call);
            match result.as_ref().map(|r| r.rows()) {
                Ok(Some(rows)) if same(shape.ordered, rows, &self.expected[i]) => {
                    tally.ok(shape.name, latency);
                }
                Ok(_) => tally.wrong(format!("{} differs from the row engine", shape.name)),
                Err(e) => tally.fail(format!("{}: {e}", shape.name)),
            }
            tracer.end(op);
        }
    }
}

/// The `analytic_scan` fixture.
pub struct AnalyticScan {
    clients: Vec<ScanClient>,
}

impl Fixture for AnalyticScan {
    type Client = ScanClient;
    const NAME: &'static str = "analytic_scan";
    const KINDS: u64 = SHAPES.len() as u64;
    const SESSION_CALL: &'static str = "session.prepared_us";
    const ACCOUNTED: &'static [(&'static str, f64)] = &[("engine.exec_us", 1.0)];

    fn set_up(spec: &PartSpec, tally: &mut Tally) -> Self {
        let ((r, s), (small_r, small_s)) = sizes(spec.scale);
        let db = gen::scan_database(spec.seed, r, s);

        // Expected results: the optimized row engine over the same data.
        let mut reference = Session::builder()
            .with_database(db.clone())
            .with_backend(Backend::OptimizedEngine)
            .build();
        let expected: Vec<Table> = SHAPES
            .iter()
            .map(|shape| {
                let out = reference.execute(shape.sql).expect("row engine runs every shape");
                out.into_rows().expect("every shape is a query")
            })
            .collect();
        drop(reference);

        // And on a down-scaled copy, the executable specification itself.
        let small = gen::scan_database(spec.seed, small_r, small_s);
        let mut candidate = Session::builder().with_database(small.clone()).build();
        for shape in &SHAPES {
            let query = sqlsem_parser::compile(shape.sql, small.schema()).expect("shape compiles");
            let spec_rows = Evaluator::new(&small).eval(&query).expect("spec evaluates");
            let got = candidate.execute(shape.sql).expect("default backend runs every shape");
            match got.rows() {
                Some(rows) if same(shape.ordered, rows, &spec_rows) => {}
                _ => tally.wrong(format!("{} differs from the spec interpreter", shape.name)),
            }
        }

        let conn = Session::builder().with_database(db).build();
        let prepared =
            SHAPES.iter().map(|s| conn.prepare(s.sql).expect("shape prepares")).collect();
        AnalyticScan { clients: vec![ScanClient { conn, prepared, expected }] }
    }

    fn clients_mut(&mut self) -> &mut [ScanClient] {
        &mut self.clients
    }

    fn stop(&self, spec: &PartSpec) -> Stop {
        Stop::Deadline(std::time::Duration::from_secs_f64(spec.seconds))
    }

    fn probes(&mut self, spec: &PartSpec, tracer: &mut Tracer, report: &mut PartReport) {
        // Six statements only, so the sample is repeats of each (34 × 6
        // = 204 layer-by-layer replays at full length), the first five
        // of each also executed unprepared.
        let (replays, executes) = (spec.probe_samples().div_ceil(SHAPES.len()), 5);
        let conn = &mut self.clients[0].conn;
        let db = conn.database().clone();
        let timed = report.pooled().samples;
        for (i, shape) in SHAPES.iter().enumerate() {
            for rep in 0..replays {
                let op_id = (rep * SHAPES.len() + i) as u64;
                replay_query(tracer, op_id, conn, &db, shape.sql);
                if rep < executes {
                    let span = tracer.begin("session.execute", op_id);
                    conn.execute(shape.sql).expect("shape executes unprepared");
                    tracer.end(span);
                }
            }
            if let Some(samples) = timed.get(shape.name) {
                report.layers.insert(format!("engine.q_{}_ms", shape.name), midmean(samples));
            }
        }
        let per_result = rows_produced_per_result(conn, &db, SHAPES.iter().map(|s| s.sql));
        report.layers.insert("engine.rows_produced_per_result".into(), per_result);
    }
}
