//! `durable_mixed`: one-row `INSERT` (acknowledged after the
//! group-commit fsync) plus a read-back of that row, timed together, on
//! a durable shared database — the only workload that crosses commit
//! queue → apply → WAL → fsync → publish, with reads beside the writes
//! on the same table and index. Two connections on two threads, so a
//! commit batch can hold two writers.
//!
//! Count-bounded: table growth, WAL bytes and every count repeat
//! exactly. After the timed ops the part reopens a copy of the store,
//! cut back to the bytes that were flushed when the last write was
//! acknowledged, and checks every acknowledged row is there once.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sqlsem_core::{Database, Name, Row, Value};
use sqlsem_session::{Connection, SharedDatabase, StatementResult};
use sqlsem_storage::{Storage, WalOp};

use crate::gen;
use crate::harness::{Client, Fixture, PartReport, PartSpec, Scale, Stop, Tally};
use crate::layers::{replay_query, rows_produced_per_result};
use crate::trace::Tracer;

/// Ops per round. Rounds only set how finely a traced
/// part alternates between recording spans and not.
pub const ROUND_OPS: u64 = 10;

/// Ops per connection per second of budget: the count is fixed by the
/// run length, not by how fast the ops complete (two connections did
/// 190/s together at recording time, so a 7 s part is 630 ops each).
const OPS_PER_SECOND: f64 = 90.0;

/// Connections, each on its own thread (= cores of the recording
/// machine). Keys interleave by connection id.
const WRITERS: u64 = 2;

/// The id the preloaded rows carry in `C`.
const LOADER: u64 = 9;

/// What the code under test does on commit; printed with the results.
pub const FLUSH_POLICY: &str = "fdatasync of the WAL once per commit batch, before any writer in \
     the batch is acknowledged; checkpoint when the WAL passes 1 MiB (not reached in a part)";

fn preload_rows(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 20_000,
        Scale::Tiny => 300,
    }
}

/// One connection writing and reading back its own keys.
pub struct DurableClient {
    conn: Option<Connection>,
    id: u64,
    seed: u64,
    first_key: u64,
    next: u64,
    acknowledged: Vec<u64>,
}

impl DurableClient {
    /// Connects writer `id`, whose keys start after the preloaded ones.
    fn connect(shared: &SharedDatabase, id: u64, seed: u64, first_key: u64) -> DurableClient {
        let conn = Some(shared.connect());
        DurableClient { conn, id, seed, first_key, next: 0, acknowledged: Vec::new() }
    }

    /// The next key of this connection's own sequence.
    fn next_key(&mut self) -> u64 {
        let k = self.first_key + self.next * WRITERS + self.id;
        self.next += 1;
        k
    }

    /// INSERTs this connection's next `count` rows one statement at a
    /// time, each under a `session.commit_solo` span.
    fn insert_burst(&mut self, count: u64, tracer: &mut Tracer) {
        for _ in 0..count {
            let k = self.next_key();
            let insert = gen::w_insert_sql(self.seed, k, self.id);
            let conn = self.conn.as_mut().expect("connection lives until finish");
            let span = tracer.begin("session.commit_solo", k);
            let wrote = conn.execute(&insert);
            tracer.end(span);
            if matches!(wrote, Ok(StatementResult::Inserted { rows: 1, .. })) {
                self.acknowledged.push(k);
            }
        }
    }
}

impl Client for DurableClient {
    fn round(&mut self, _r: usize, tracer: &mut Tracer, tally: &mut Tally) {
        for _ in 0..ROUND_OPS {
            let k = self.next_key();
            let conn = self.conn.as_mut().expect("connection lives until finish");
            let insert = gen::w_insert_sql(self.seed, k, self.id);
            let select = gen::w_select_sql(k);
            let op = tracer.begin("op", k);
            let start = Instant::now();
            let span = tracer.begin("session.write", k);
            let wrote = conn.execute(&insert);
            tracer.end(span);
            let span = tracer.begin("session.read", k);
            let read = conn.execute(&select);
            tracer.end(span);
            let latency = start.elapsed();
            tracer.end(op);

            if matches!(wrote, Ok(StatementResult::Inserted { rows: 1, .. })) {
                self.acknowledged.push(k);
            }
            let want = w_row(self.seed, k, self.id);
            match (wrote, read) {
                (Err(e), _) | (_, Err(e)) => tally.fail(format!("key {k}: {e}")),
                (Ok(_), Ok(out)) => match out.rows() {
                    Some(t) if t.len() == 1 && t.rows().next() == Some(&want) => {
                        tally.ok("write_read", latency);
                    }
                    _ => tally.wrong(format!("key {k} read back as {out}")),
                },
            }
        }
    }
}

/// The durable store, its connections, and what set-up measured.
pub struct DurableMixed {
    dir: PathBuf,
    shared: Option<SharedDatabase>,
    clients: Vec<DurableClient>,
    seed: u64,
    preload: u64,
    checkpoint_ms: f64,
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

fn w_row(seed: u64, k: u64, conn: u64) -> Row {
    Row::new(vec![
        Value::Int(k as i64),
        Value::Int(conn as i64),
        Value::str(gen::w_payload(seed, k)),
    ])
}

impl Fixture for DurableMixed {
    type Client = DurableClient;
    const NAME: &'static str = "durable_mixed";
    const SESSION_CALL: &'static str = "session.read_us";
    const ACCOUNTED: &'static [(&'static str, f64)] = &[
        ("storage.log_us", 1.0),
        ("storage.fsync_us", 1.0),
        ("core.append_us", 1.0),
        ("core.db_clone_us", 1.0),
        ("parser.parse_us", 1.0),
        ("parser.annotate_us", 1.0),
        ("engine.compile_us", 1.0),
        ("engine.optimize_us", 1.0),
        ("engine.exec_us", 1.0),
    ];
    // 80 acknowledged writes per connection: enough work that set-up
    // time is most of a second, not a handful of milliseconds.
    const WARM_UP_ROUNDS: usize = 8;

    fn set_up(spec: &PartSpec, _tally: &mut Tally) -> Self {
        let dir = spec.out_dir.join(format!("durable-{}-{}", spec.seed, spec.part));
        // A leftover from an interrupted run would be recovered instead
        // of the fresh fixture.
        let _ = fs::remove_dir_all(&dir);
        let shared = SharedDatabase::open(&dir).expect("open a fresh durable store");
        let preload = preload_rows(spec.scale);
        let mut loader = shared.connect();
        loader.execute("CREATE TABLE W (K, C, P)").expect("create W");
        for chunk in (0..preload).collect::<Vec<_>>().chunks(1_000) {
            let rows: Vec<String> = chunk
                .iter()
                .map(|k| format!("({k}, {LOADER}, '{}')", gen::w_payload(spec.seed, *k)))
                .collect();
            loader.execute(&format!("INSERT INTO W VALUES {}", rows.join(", "))).expect("preload");
        }
        loader.execute("CREATE INDEX w_k_idx ON W (K)").expect("index on W.K");
        let start = Instant::now();
        loader.checkpoint().expect("checkpoint the preloaded store");
        let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
        drop(loader);

        let clients = (0..WRITERS)
            .map(|id| DurableClient::connect(&shared, id, spec.seed, preload))
            .collect();
        DurableMixed { dir, shared: Some(shared), clients, seed: spec.seed, preload, checkpoint_ms }
    }

    fn clients_mut(&mut self) -> &mut [DurableClient] {
        &mut self.clients
    }

    fn stop(&self, spec: &PartSpec) -> Stop {
        let ops = spec.seconds * OPS_PER_SECOND;
        Stop::Rounds(((ops / ROUND_OPS as f64).round() as usize).max(1))
    }

    fn finish(&mut self, report: &mut PartReport, tally: &mut Tally) {
        report.notes.insert("flush_policy".into(), FLUSH_POLICY.into());

        // Every acknowledged write was fsynced before its reply, so the
        // WAL as long as it is now is what a crash would leave at least.
        let wal_len = file_len(&self.dir.join("wal.log"));
        let disk_len = wal_len + file_len(&self.dir.join("checkpoint.db"));
        let acknowledged: Vec<(u64, u64)> = self
            .clients
            .iter()
            .flat_map(|c| c.acknowledged.iter().map(move |k| (*k, c.id)))
            .collect();
        for client in &mut self.clients {
            client.conn = None;
        }
        self.shared = None;

        // Reopen a copy cut back to exactly those bytes: anything the OS
        // still held unflushed is discarded by the test itself. In a
        // traced part a second copy with an empty WAL times the
        // checkpoint load alone; the difference, per logged op, is the
        // replay rate.
        let reopen = |wal_bytes: u64| {
            let copy = self.dir.with_extension("reopen");
            let _ = fs::remove_dir_all(&copy);
            fs::create_dir_all(&copy).expect("create the reopen directory");
            for name in ["wal.log", "checkpoint.db"] {
                fs::copy(self.dir.join(name), copy.join(name)).expect("copy the store");
            }
            let wal = fs::OpenOptions::new().write(true).open(copy.join("wal.log"));
            let wal = wal.expect("open the copied WAL");
            wal.set_len(wal_bytes).and_then(|()| wal.sync_all()).expect("truncate the copied WAL");
            drop(wal);
            let start = Instant::now();
            let db = Storage::open(&copy).map(|(_, db)| db);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let _ = fs::remove_dir_all(&copy);
            (db, ms)
        };
        let (recovered, recover_ms) = reopen(wal_len);
        let checkpoint_load_ms = if report.traced { reopen(0).1 } else { 0.0 };

        let lost = match recovered {
            Err(e) => {
                eprintln!("benchmark: reopen failed: {e}");
                acknowledged.len()
            }
            Ok(db) => {
                let mut seen: HashMap<&Row, u64> = HashMap::new();
                let w = db.stored_table("W");
                for row in w.iter().flat_map(|w| w.rows()) {
                    *seen.entry(row).or_default() += 1;
                }
                let rows = w.map_or(0, |w| w.len()) as u64;
                if rows != self.preload + acknowledged.len() as u64 {
                    tally.wrong(format!("recovered {rows} rows, expected preload + acknowledged"));
                }
                acknowledged
                    .iter()
                    .filter(|(k, conn)| seen.get(&w_row(self.seed, *k, *conn)) != Some(&1))
                    .count()
            }
        };
        for _ in 0..lost {
            tally.wrong("an acknowledged row is missing (or doubled) after reopen");
        }

        let written = acknowledged.len().max(1) as f64;
        let wal_per_row = wal_len as f64 / written;
        let disk_per_row = disk_len as f64 / (self.preload as f64 + written);
        report.exact.insert("acknowledged_rows".into(), acknowledged.len() as f64);
        report.exact.insert("lost_rows".into(), lost as f64);
        report.exact.insert("storage.wal_bytes_per_row".into(), wal_per_row);
        report.exact.insert("storage.disk_bytes_per_row".into(), disk_per_row);
        let replay_us = (recover_ms - checkpoint_load_ms).max(0.0) * 1e3 / written;
        for (name, value) in [
            ("storage.wal_bytes_per_row", wal_per_row),
            ("storage.disk_bytes_per_row", disk_per_row),
            ("storage.checkpoint_ms", self.checkpoint_ms),
            ("storage.recover_ms", recover_ms),
            ("storage.replay_us_per_op", replay_us),
        ] {
            report.layers.insert(name.into(), value);
        }
    }

    fn probes(&mut self, spec: &PartSpec, tracer: &mut Tracer, report: &mut PartReport) {
        let samples = spec.probe_samples() as u64;
        let shared = self.shared.as_ref().expect("probes run before finish");

        // INSERTs alone, back to back: first one writer, then both at
        // once. Their rates give `session.group_gain` (base: the solo
        // rate) — what the commit queue's batching buys a second writer.
        let burst = samples / 2;
        let start = Instant::now();
        self.clients[0].insert_burst(burst, tracer);
        let solo_rate = burst as f64 / start.elapsed().as_secs_f64();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for client in &mut self.clients {
                scope.spawn(|| client.insert_burst(burst, &mut Tracer::off()));
            }
        });
        let pair_rate = (WRITERS * burst) as f64 / start.elapsed().as_secs_f64();
        report.layers.insert("session.group_gain".into(), pair_rate / solo_rate);

        // The write path below the session, one layer per span, on a
        // scratch store at the fixture's size: log → fsync → apply →
        // publish. `published` plays the live snapshot that forces the
        // copy-on-write, as the shared database's readers do.
        let mut master: Database = (*shared.snapshot()).clone();
        let table_rows = master.stored_table("W").map_or(0, |w| w.len()) as u64;
        let scratch = self.dir.with_extension("probe");
        let _ = fs::remove_dir_all(&scratch);
        let (mut storage, _) = Storage::open(&scratch).expect("open the probe store");
        let mut published = master.clone();
        for i in 0..samples {
            let k = 10_000_000 + i;
            let op = WalOp::Append { table: Name::new("W"), rows: vec![w_row(self.seed, k, 0)] };
            let span = tracer.begin("storage.log", k);
            storage.log(&op).expect("log to the probe store");
            tracer.end(span);
            let span = tracer.begin("storage.fsync", k);
            storage.commit().expect("fsync the probe store");
            tracer.end(span);
            let span = tracer.begin("core.append", k);
            master.append_rows("W", [w_row(self.seed, k, 0)]).expect("append to W");
            tracer.end(span);
            let span = tracer.begin("core.db_clone", k);
            published = master.clone();
            tracer.end(span);
        }
        drop(published);
        drop(storage);
        let _ = fs::remove_dir_all(&scratch);

        // The read half, layer by layer, over the same table.
        let conn = Connection::builder().with_database(master).build();
        let db = conn.database();
        let keys = gen::key_stream(self.seed, 98, samples as usize, table_rows);
        for (i, k) in keys.iter().enumerate() {
            replay_query(tracer, i as u64, &conn, db, &gen::w_select_sql(*k));
        }
        let statements = keys.iter().map(|k| gen::w_select_sql(*k));
        let per_result = rows_produced_per_result(&conn, db, statements);
        report.layers.insert("engine.rows_produced_per_result".into(), per_result);
    }
}

impl Drop for DurableMixed {
    fn drop(&mut self) {
        self.clients.clear();
        self.shared = None;
        let _ = fs::remove_dir_all(&self.dir);
    }
}
