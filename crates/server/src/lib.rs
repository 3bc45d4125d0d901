//! A thread-per-connection TCP front end over a
//! [`SharedDatabase`]: many concurrent clients, one database, the §4
//! discipline intact.
//!
//! The server is deliberately plain `std::net` — one OS thread per
//! client, blocking I/O with short read timeouts so shutdown stays
//! responsive — because the interesting machinery lives below it: every
//! client gets its own [`Connection`] over
//! the shared cell, so reads run lock-free on immutable snapshots and
//! writes serialize through the group-commit queue
//! (see [`sqlsem_session::SharedDatabase`]).
//!
//! ## Wire protocol
//!
//! Line-oriented, human-readable, `nc`-friendly:
//!
//! * The server greets each new client with one *response block*.
//! * The client sends **one statement per line** (a trailing `;` is
//!   tolerated). Lines starting with `\` are session meta commands —
//!   the set [`Connection::meta_command`] interprets, the same one the
//!   REPL speaks: `\d` (schema and indexes; over a durable database
//!   also each table's pages and rows in the last checkpoint and the WAL
//!   bytes logged since),
//!   `\dialect standard|postgresql|oracle`,
//!   `\logic 3vl|2vl|2vl-syntactic-eq`,
//!   `\backend spec|naive|optimized|vectorized|adaptive`,
//!   `\batchsize N`, `\threads N`, `\q` (disconnect) — plus the
//!   server's own `\stats` (snapshot version and this connection's
//!   statement counts). Each client picks its own configuration without
//!   affecting anyone else. A line is capped at 1 MiB: a client that
//!   sends more without a newline gets one error block and is
//!   disconnected.
//! * Every line is answered with exactly one response block: zero or
//!   more non-empty payload lines followed by one **empty line** (the
//!   block terminator). Query results render as psql-style tables with
//!   a `(n rows)` footer, DDL/DML as command tags (`CREATE TABLE`,
//!   `INSERT 0 2`…), errors as the session's rendering — parse errors
//!   include the caret line pointing into the offending SQL. A payload
//!   line that would be empty is sent as a single space so it can never
//!   be mistaken for the terminator.
//!
//! ```text
//! $ nc 127.0.0.1 5433
//! sqlsem server — dialect standard, logic 3vl, backend adaptive
//!
//! CREATE TABLE R (A)
//! CREATE TABLE
//!
//! INSERT INTO R VALUES (1), (NULL)
//! INSERT 0 2
//!
//! SELECT COUNT(A) AS n FROM R
//!  n
//! ---
//!  1
//! (1 row)
//!
//! ```
//!
//! ## Isolation guarantees
//!
//! Each statement evaluates against one immutable snapshot — a client
//! never observes a partially applied commit batch, and after its own
//! write returns, its next statement observes that write
//! (read-your-writes; the queue publishes before delivering). The
//! committed order is a single serial order; replaying it over the
//! initial database reproduces the final state bit for bit, which is
//! what the concurrent gauntlet verifies across all nine dialect ×
//! logic combinations.
//!
//! [`Connection`]: sqlsem_session::Connection
//! [`Connection::meta_command`]: sqlsem_session::Connection::meta_command

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sqlsem_core::{Dialect, LogicMode};
use sqlsem_session::{Backend, SessionBuilder, SharedDatabase};

/// How long blocking reads and the accept loop wait before re-checking
/// the shutdown flag. Bounds how stale a shutdown request can go
/// unnoticed.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// The longest statement line (newline included) a client may send;
/// past it the client gets one error block and is disconnected.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Configures and binds a [`Server`].
#[derive(Clone, Debug, Default)]
pub struct ServerBuilder {
    shared: Option<SharedDatabase>,
    dialect: Dialect,
    logic: LogicMode,
    backend: Backend,
}

impl ServerBuilder {
    /// Starts from the defaults: a fresh in-memory [`SharedDatabase`],
    /// Standard dialect, 3VL, adaptive backend.
    pub fn new() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// Serves an existing shared database (possibly durable, possibly
    /// already connected to in-process) instead of a fresh one.
    pub fn with_shared(mut self, shared: &SharedDatabase) -> ServerBuilder {
        self.shared = Some(shared.clone());
        self
    }

    /// The dialect new client sessions start in (clients can switch
    /// with `\dialect`).
    pub fn with_dialect(mut self, dialect: Dialect) -> ServerBuilder {
        self.dialect = dialect;
        self
    }

    /// The logic mode new client sessions start in.
    pub fn with_logic(mut self, logic: LogicMode) -> ServerBuilder {
        self.logic = logic;
        self
    }

    /// The execution backend new client sessions start with.
    pub fn with_backend(mut self, backend: Backend) -> ServerBuilder {
        self.backend = backend;
        self
    }

    /// Binds the listener and starts the accept loop on a background
    /// thread. `addr` may be `"127.0.0.1:0"` to let the OS pick a free
    /// port — read it back with [`Server::local_addr`].
    pub fn bind(self, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // Non-blocking accept so the loop can poll the shutdown flag;
        // accepted streams are switched back to blocking (with a read
        // timeout) before they are handed to their thread.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = self.shared.unwrap_or_default();
        let template =
            SessionTemplate { dialect: self.dialect, logic: self.logic, backend: self.backend };
        let stop = Arc::new(AtomicBool::new(false));
        let workers = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = shared.clone();
            let stop = Arc::clone(&stop);
            let workers = Arc::clone(&workers);
            std::thread::Builder::new()
                .name("sqlsem-accept".into())
                .spawn(move || accept_loop(listener, shared, template, stop, workers))?
        };
        Ok(Server { addr, shared, stop, accept: Some(accept), workers })
    }
}

/// The per-client session configuration a server stamps on new
/// connections.
#[derive(Clone, Copy, Debug)]
struct SessionTemplate {
    dialect: Dialect,
    logic: LogicMode,
    backend: Backend,
}

/// A running server: a listener thread plus one thread per connected
/// client, all serving the same [`SharedDatabase`]. Dropping the server
/// shuts it down gracefully (stops accepting, lets every in-flight
/// statement finish, joins all threads).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: SharedDatabase,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds with the default configuration — see [`ServerBuilder`] to
    /// pick the database or the session defaults.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Server> {
        ServerBuilder::new().bind(addr)
    }

    /// The address the server actually listens on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared database being served — in-process callers can
    /// connect to it directly, bypassing TCP, and observe the same
    /// committed state the network clients do.
    pub fn shared(&self) -> &SharedDatabase {
        &self.shared
    }

    /// Blocks until the server is shut down (for a foreground binary:
    /// forever, until the process is killed).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Graceful shutdown: stop accepting, signal every client thread
    /// (each notices within the read-timeout poll interval, finishing
    /// any statement it is mid-way through first), and join them all.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker registry lock"));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accepts until shut down; every accepted stream gets its own thread
/// and its own [`sqlsem_session::Connection`] over the shared database.
fn accept_loop(
    listener: TcpListener,
    shared: SharedDatabase,
    template: SessionTemplate,
    stop: Arc<AtomicBool>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_client = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                let stop = Arc::clone(&stop);
                let spawned = std::thread::Builder::new()
                    .name(format!("sqlsem-client-{next_client}"))
                    .spawn(move || {
                        let _ = serve_client(stream, &shared, template, &stop);
                    });
                next_client += 1;
                if let Ok(handle) = spawned {
                    workers.lock().expect("worker registry lock").push(handle);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_INTERVAL),
            // Transient accept failures (connection reset mid-handshake)
            // must not kill the listener.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Writes one response block: every payload line (an empty one is sent
/// as a single space, so the terminator stays unambiguous) followed by
/// the empty terminator line.
fn write_block(out: &mut impl Write, payload: &str) -> io::Result<()> {
    for line in payload.lines() {
        out.write_all(if line.is_empty() { b" " } else { line.as_bytes() })?;
        out.write_all(b"\n")?;
    }
    out.write_all(b"\n")?;
    out.flush()
}

/// The per-client loop: read one line, answer one block, until EOF,
/// `\q`, or server shutdown.
fn serve_client(
    stream: TcpStream,
    shared: &SharedDatabase,
    template: SessionTemplate,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut session = SessionBuilder::new()
        .with_shared(shared)
        .with_dialect(template.dialect)
        .with_logic(template.logic)
        .with_backend(template.backend)
        .build();
    write_block(
        &mut out,
        &format!(
            "sqlsem server — dialect {}, logic {}, backend {}",
            session.dialect(),
            session.logic(),
            session.backend()
        ),
    )?;
    let mut statements = 0usize;
    let mut rows_affected = 0usize;
    let mut line = String::new();
    loop {
        // A timed-out read may leave a partial line in the buffer
        // (`read_line` keeps everything it read so far), so the buffer
        // is only cleared after a complete line is handled, and capped.
        if line.len() >= MAX_LINE_BYTES {
            let refusal =
                format!("statement line exceeds {MAX_LINE_BYTES} bytes; closing the connection");
            write_block(&mut out, &refusal)?;
            // Closing with unread input resets the connection, which can
            // destroy the refusal unread: half-close, drain a bounded tail.
            out.shutdown(Shutdown::Write)?;
            let _ = io::copy(&mut reader.take(MAX_LINE_BYTES as u64), &mut io::sink());
            return Ok(());
        }
        let budget = (MAX_LINE_BYTES - line.len()) as u64;
        match reader.by_ref().take(budget).read_line(&mut line) {
            Ok(0) => return Ok(()), // client hung up
            Ok(_) if line.ends_with('\n') => {}
            Ok(_) => continue, // the cap (checked above) or EOF follows
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return write_block(&mut out, "server shutting down");
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let text = line.trim().trim_end_matches(';').trim_end().to_string();
        line.clear();
        if text.is_empty() {
            write_block(&mut out, "")?;
        } else if let Some(meta) = text.strip_prefix('\\') {
            // `\stats` is the server's own; everything else belongs to
            // the interpreter shared with the REPL (`None` = disconnect).
            let reply = if meta.split_whitespace().next() == Some("stats") {
                Some(format!(
                    "version {} — {statements} statements, {rows_affected} rows affected \
                     on this connection",
                    session.snapshot_version()
                ))
            } else {
                session.meta_command(meta)
            };
            match reply {
                Some(reply) => write_block(&mut out, &reply)?,
                None => {
                    let bye = format!(
                        "bye ({statements} statement{}, {rows_affected} row{} affected)",
                        if statements == 1 { "" } else { "s" },
                        if rows_affected == 1 { "" } else { "s" },
                    );
                    return write_block(&mut out, &bye);
                }
            }
        } else {
            match session.execute(&text) {
                Ok(result) => {
                    statements += 1;
                    rows_affected += result.rows_affected();
                    write_block(&mut out, &result.to_string())?;
                }
                Err(e) => write_block(&mut out, &e.to_string())?,
            }
        }
    }
}

/// A blocking client for the wire protocol: sends one statement per
/// line, reads one blank-line-terminated response block per statement.
/// This is what the REPL's `--connect` mode and the CI smoke test
/// drive.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    out: TcpStream,
    greeting: String,
}

impl Client {
    /// Connects and consumes the server's greeting block.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        let reader = BufReader::new(out.try_clone()?);
        let mut client = Client { reader, out, greeting: String::new() };
        client.greeting = client.read_block()?;
        Ok(client)
    }

    /// The server's greeting (dialect/logic/backend banner).
    pub fn greeting(&self) -> &str {
        &self.greeting
    }

    /// Sends one statement (or `\…` meta command) and returns the
    /// response block's payload. Embedded newlines in the statement are
    /// flattened to spaces — the protocol is strictly one line per
    /// statement.
    pub fn send(&mut self, statement: &str) -> io::Result<String> {
        let flat: String =
            statement.chars().map(|c| if c == '\n' || c == '\r' { ' ' } else { c }).collect();
        self.out.write_all(flat.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        self.read_block()
    }

    /// Reads payload lines up to (and swallowing) the empty terminator.
    fn read_block(&mut self) -> io::Result<String> {
        let mut block = String::new();
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection mid-block",
                ));
            }
            let content = line.trim_end_matches(['\n', '\r']);
            if content.is_empty() {
                return Ok(block);
            }
            if !block.is_empty() {
                block.push('\n');
            }
            block.push_str(content);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind_local() -> Server {
        Server::bind("127.0.0.1:0").expect("bind an ephemeral port")
    }

    #[test]
    fn tagged_responses_over_the_wire() {
        let server = bind_local();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(client.greeting().starts_with("sqlsem server"), "{}", client.greeting());
        assert_eq!(client.send("CREATE TABLE R (A)").unwrap(), "CREATE TABLE");
        assert_eq!(client.send("INSERT INTO R VALUES (1), (NULL);").unwrap(), "INSERT 0 2");
        let rows = client.send("SELECT COUNT(A) AS n FROM R").unwrap();
        assert!(rows.contains("(1 row)"), "{rows}");
        let bye = client.send("\\q").unwrap();
        assert_eq!(bye, "bye (3 statements, 2 rows affected)");
        server.shutdown();
    }

    #[test]
    fn two_clients_share_one_database() {
        let server = bind_local();
        let mut a = Client::connect(server.local_addr()).unwrap();
        let mut b = Client::connect(server.local_addr()).unwrap();
        a.send("CREATE TABLE T (X)").unwrap();
        a.send("INSERT INTO T VALUES (7)").unwrap();
        // b observes a's committed writes; in-process connections to the
        // same shared database observe them too.
        let out = b.send("SELECT T.X FROM T").unwrap();
        assert!(out.contains('7'), "{out}");
        let mut direct = server.shared().connect();
        let rows = direct.execute("SELECT T.X FROM T").unwrap();
        assert_eq!(rows.rows().unwrap().len(), 1);
        server.shutdown();
    }

    #[test]
    fn errors_render_with_carets_and_do_not_kill_the_connection() {
        let server = bind_local();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let err = client.send("SELECT FROM WHERE").unwrap();
        assert!(err.contains("parse error"), "{err}");
        assert!(err.contains('^'), "{err}");
        assert_eq!(client.send("CREATE TABLE R (A)").unwrap(), "CREATE TABLE");
        server.shutdown();
    }

    #[test]
    fn meta_commands_configure_the_session_per_client() {
        let server = bind_local();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.send("\\dialect oracle").unwrap(), "dialect: oracle");
        assert_eq!(client.send("\\logic 2vl").unwrap(), "logic: 2vl");
        assert_eq!(client.send("\\backend optimized").unwrap(), "backend: optimized");
        // Another client still sees the server defaults.
        let other = Client::connect(server.local_addr()).unwrap();
        assert!(other.greeting().contains("dialect standard"), "{}", other.greeting());
        server.shutdown();
    }

    #[test]
    fn storage_is_not_a_backend_over_the_wire() {
        let server = bind_local();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.send("CREATE TABLE R (A)").unwrap();
        assert_eq!(client.send("\\backend vectorized").unwrap(), "backend: vectorized");
        let err = client.send("\\backend persistent").unwrap();
        assert!(err.starts_with("unknown backend \"persistent\""), "{err}");
        // The error and the help line list the same spellings: `Backend::ALL`.
        let help = client.send("\\help").unwrap();
        for b in Backend::ALL {
            assert!(err.contains(&b.to_string()), "{err}");
            assert!(help.contains(&b.to_string()), "{help}");
        }
        // The rejected switch left the session on the vectorized engine.
        let plan = client.send("EXPLAIN SELECT R.A FROM R").unwrap();
        assert!(plan.contains("[vectorized"), "{plan}");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_all_client_threads() {
        let server = bind_local();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.send("CREATE TABLE R (A)").unwrap();
        // Shutdown with the client still connected: the worker notices
        // the flag within the poll interval, announces the shutdown,
        // and exits — `shutdown` returning at all is the assertion
        // (it joins the accept loop and every worker).
        server.shutdown();
        let farewell = client.read_block().unwrap();
        assert_eq!(farewell, "server shutting down");
    }
}
