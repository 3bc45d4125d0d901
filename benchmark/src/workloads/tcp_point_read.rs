//! `tcp_point_read`: the latency a server client sees for an unprepared
//! indexed point lookup — wire + parse + annotate + compile + optimize +
//! execute + render — against an in-memory shared database.

use std::collections::BTreeMap;
use std::time::Instant;

use sqlsem_server::{Client as WireClient, Server, ServerBuilder};
use sqlsem_session::SharedDatabase;

use crate::gen::{self, fnv1a, FNV_OFFSET};
use crate::harness::{Client, Fixture, PartReport, PartSpec, Scale, Stop, Tally};
use crate::layers::{replay_query, rows_produced_per_result};
use crate::trace::Tracer;

/// Ops per client per round.
pub const ROUND_OPS: usize = 20;

/// Rounds' worth of keys generated per client; the stream is cyclic, so
/// a run only revisits a key once the system is ~25× faster than at
/// recording time.
const STREAM_ROUNDS: usize = 100;

/// Client threads and connections (= cores of the recording machine).
const CLIENTS: usize = 2;

/// Predicts the reply to a point read: `(B, C)` of the row with `A = k`.
pub type RowFormula = fn(seed: u64, k: u64) -> (i64, Option<i64>);

/// The generator's own formula — what a correct server must answer.
pub fn generated_row(seed: u64, k: u64) -> (i64, Option<i64>) {
    let (_, b, c) = gen::r_row(seed, k);
    (b, c)
}

fn rows(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 20_000,
        Scale::Tiny => 400,
    }
}

/// The statement stream of client `c`, in the order it is sent.
pub fn statement_stream(seed: u64, client: u64, scale: Scale) -> Vec<String> {
    gen::key_stream(seed, client, STREAM_ROUNDS * ROUND_OPS, rows(scale))
        .into_iter()
        .map(gen::point_read_sql)
        .collect()
}

/// One TCP connection replaying its key stream.
pub struct TcpClient {
    wire: WireClient,
    keys: Vec<u64>,
    seed: u64,
    expect: RowFormula,
    id: u64,
}

/// Parses a psql-style one-row reply block into `(b, c)`, independently
/// of the renderer: header `b | c`, a rule, one data line, `(1 row)`.
fn parse_reply(reply: &str) -> Option<(i64, Option<i64>)> {
    let mut lines = reply.lines();
    let header: Vec<&str> = lines.next()?.split('|').map(str::trim).collect();
    if header != ["b", "c"] {
        return None;
    }
    lines.next()?;
    let cells: Vec<&str> = lines.next()?.split('|').map(str::trim).collect();
    if lines.next()? != "(1 row)" || lines.next().is_some() || cells.len() != 2 {
        return None;
    }
    let c = if cells[1] == "NULL" { None } else { Some(cells[1].parse().ok()?) };
    Some((cells[0].parse().ok()?, c))
}

impl Client for TcpClient {
    fn round(&mut self, r: usize, tracer: &mut Tracer, tally: &mut Tally) {
        for i in 0..ROUND_OPS {
            let at = r * ROUND_OPS + i;
            let k = self.keys[at % self.keys.len()];
            let sql = gen::point_read_sql(k);
            let op_id = self.id << 32 | at as u64;
            let op = tracer.begin("op", op_id);
            let send = tracer.begin("server.send", op_id);
            let start = Instant::now();
            let reply = self.wire.send(&sql);
            let latency = start.elapsed();
            tracer.end(send);
            match reply {
                Err(e) => tally.fail(format!("{sql}: {e}")),
                Ok(reply) => {
                    tally.count("reply_bytes", reply.len() as u64);
                    if parse_reply(&reply) == Some((self.expect)(self.seed, k)) {
                        tally.ok("point_read", latency);
                    } else {
                        tally.wrong(format!("{sql} answered {reply:?}"));
                    }
                }
            }
            tracer.end(op);
        }
    }
}

/// The running server and its connected clients.
pub struct TcpPointRead {
    // Before `server`, so the connections close first and the server's
    // per-client threads see EOF instead of waiting out a read timeout
    // when its `Drop` joins them.
    clients: Vec<TcpClient>,
    server: Server,
    stream_fingerprint: u64,
}

impl TcpPointRead {
    /// Like [`Fixture::set_up`], but checking replies against `expect`
    /// (the tests pass a deliberately wrong formula).
    pub fn with_formula(spec: &PartSpec, expect: RowFormula) -> TcpPointRead {
        let n = rows(spec.scale);
        let shared = SharedDatabase::new(gen::point_read_database(spec.seed, n));
        let mut ddl = shared.connect();
        ddl.execute("CREATE INDEX r_a_idx ON R (A)").expect("index on R.A");
        let server = ServerBuilder::new()
            .with_shared(&shared)
            .bind("127.0.0.1:0")
            .expect("bind an ephemeral loopback port");
        let clients = (0..CLIENTS as u64)
            .map(|id| TcpClient {
                wire: WireClient::connect(server.local_addr()).expect("connect to own server"),
                keys: gen::key_stream(spec.seed, id, STREAM_ROUNDS * ROUND_OPS, n),
                seed: spec.seed,
                expect,
                id,
            })
            .collect();
        let stream_fingerprint = (0..CLIENTS as u64).fold(FNV_OFFSET, |h, c| {
            statement_stream(spec.seed, c, spec.scale)
                .iter()
                .fold(h, |h, sql| fnv1a(fnv1a(h, sql.as_bytes()), b"\n"))
        });
        TcpPointRead { clients, server, stream_fingerprint }
    }
}

impl Fixture for TcpPointRead {
    type Client = TcpClient;
    const NAME: &'static str = "tcp_point_read";
    const ACCOUNTED: &'static [(&'static str, f64)] = &[
        ("server.wire_us", 1.0),
        ("parser.parse_us", 1.0),
        ("parser.annotate_us", 1.0),
        ("engine.compile_us", 1.0),
        ("engine.optimize_us", 1.0),
        ("engine.exec_us", 1.0),
    ];

    fn set_up(spec: &PartSpec, _tally: &mut Tally) -> Self {
        TcpPointRead::with_formula(spec, generated_row)
    }

    fn clients_mut(&mut self) -> &mut [TcpClient] {
        &mut self.clients
    }

    fn stop(&self, spec: &PartSpec) -> Stop {
        Stop::Deadline(std::time::Duration::from_secs_f64(spec.seconds))
    }

    fn finish(&mut self, report: &mut PartReport, _tally: &mut Tally) {
        let fingerprint = format!("{:016x}", self.stream_fingerprint);
        report.notes.insert("statement_stream_fnv1a".into(), fingerprint);
    }

    fn probes(&mut self, spec: &PartSpec, tracer: &mut Tracer, report: &mut PartReport) {
        let samples = spec.probe_samples();
        let server = &self.server;
        let addr = server.local_addr();
        let keys = gen::key_stream(spec.seed, 99, samples, rows(spec.scale));

        // The wire alone: a blank line is answered with an empty block
        // without touching the session.
        let wire = &mut self.clients[0].wire;
        for i in 0..samples as u64 {
            let span = tracer.begin("server.rtt_empty", i);
            wire.send("").expect("blank-line round trip");
            tracer.end(span);
        }
        for i in 0..(samples as u64 / 20).max(5) {
            let span = tracer.begin("server.connect", i);
            let client = WireClient::connect(addr).expect("probe connection");
            tracer.end(span);
            drop(client);
        }

        // The same statements without the wire, unprepared and prepared.
        let mut conn = server.shared().connect();
        let db = server.shared().snapshot();
        for (i, k) in keys.iter().enumerate() {
            let sql = gen::point_read_sql(*k);
            let span = tracer.begin("session.execute", i as u64);
            conn.execute(&sql).expect("probe statement executes");
            tracer.end(span);

            let mut prepared = conn.prepare(&sql).expect("probe statement prepares");
            let span = tracer.begin("session.prepared", i as u64);
            conn.execute_prepared(&mut prepared).expect("prepared probe executes");
            tracer.end(span);

            replay_query(tracer, i as u64, &conn, &db, &sql);
        }
        let statements = keys.iter().map(|k| gen::point_read_sql(*k));
        let per_result = rows_produced_per_result(&conn, &db, statements);
        report.layers.insert("engine.rows_produced_per_result".into(), per_result);
        let bytes = report.exact.get("warmup.reply_bytes").copied().unwrap_or(0.0);
        let replies = report.exact.get("warmup.ops").copied().unwrap_or(1.0);
        report.layers.insert("server.reply_bytes".into(), bytes / replies);
    }

    fn derive(layers: &mut BTreeMap<String, f64>, p50_us: f64) {
        // What the same statements cost beyond an in-process execute:
        // socket, line framing, server thread wake-up and rendering.
        if let Some(execute) = layers.get("session.execute_us") {
            layers.insert("server.wire_us".into(), p50_us - execute);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_parser_reads_values_and_nulls_and_rejects_other_shapes() {
        assert_eq!(parse_reply(" b   | c\n-----+----\n 415 | 7\n(1 row)"), Some((415, Some(7))));
        assert_eq!(parse_reply(" b | c\n---+------\n 3 | NULL\n(1 row)"), Some((3, None)));
        assert_eq!(parse_reply(" b | c\n---+---\n(0 rows)"), None);
        assert_eq!(parse_reply(" b | c\n---+---\n 1 | 2\n 1 | 2\n(2 rows)"), None);
        assert_eq!(parse_reply("error: no such table"), None);
    }
}
