//! A tiny line-oriented SQL REPL over [`Session`]: reads `;`-terminated
//! statements from stdin, prints result tables, plans and errors.
//! Result rows print in the list order the semantics assigns — ordered
//! (`ORDER BY`) results are never re-sorted for display.
//!
//! Interactive use:
//!
//! ```text
//! cargo run --example repl
//! sql> CREATE TABLE R (A);
//! CREATE TABLE
//! sql> INSERT INTO R VALUES (1), (NULL);
//! INSERT 0 2
//! sql> SELECT COUNT(A) AS n FROM R;
//!  n
//! ---
//!  1
//! (1 row)
//! ```
//!
//! Non-interactive use (how CI smokes it):
//!
//! ```text
//! cargo run --example repl <<'SQL'
//! CREATE TABLE R (A);
//! INSERT INTO R VALUES (1), (NULL);
//! EXPLAIN SELECT DISTINCT R.A FROM R;
//! SQL
//! ```
//!
//! Meta commands are the ones `Session::meta_command` interprets — the
//! same set `sqlsem-server` speaks: `\d` (schema and indexes; with
//! `--storage DIR` also each table's on-disk page and row counts),
//! `\dialect standard|postgresql|oracle`,
//! `\logic 3vl|2vl|2vl-syntactic-eq` (the paper's §6 modes),
//! `\backend spec|naive|optimized|vectorized|adaptive`,
//! `\batchsize N` (the vectorized backend's rows-per-batch),
//! `\threads N` (morsel workers for the vectorized executor; 0 = auto),
//! `\q` quits. (`\stats` exists on server connections only.)
//!
//! With `--storage DIR` the session opens a durable store in `DIR`
//! (replaying its WAL if a previous run crashed); every DDL and
//! `INSERT` is logged and fsynced before it reports success, so
//! `CREATE TABLE`/`INSERT`/`CREATE INDEX` survive a kill and a
//! reopen of the same directory.
//!
//! With `--connect ADDR` the REPL is a **network client** instead: no
//! local database — every statement (and every `\…` meta command) is
//! sent to a running `sqlsem-server` over its line protocol and the
//! response block is printed verbatim. Multiple clients pointed at the
//! same server share one database with snapshot-isolated reads.

use std::io::{self, BufRead, IsTerminal, Write};

use sqlsem::server::Client;
use sqlsem::Session;

/// The statements of the accumulated input, split at every `;` that
/// sits *outside* a single-quoted string literal — or `None` while the
/// input does not yet end in such a `;` and more lines are needed.
/// Checking the raw line for a trailing `;` (as this REPL once did)
/// submits half a statement whenever a string literal spans lines and
/// the first line happens to end in `;`. The scan toggles on each `'`,
/// which also handles the `''` escape: in a literal, `''` toggles out
/// and straight back in, leaving the state open — exactly the lexer's
/// reading.
fn statements(buffer: &str) -> Option<Vec<String>> {
    let mut statements = Vec::new();
    let mut current = String::new();
    let (mut in_string, mut terminated) = (false, false);
    for c in buffer.chars() {
        if c == ';' && !in_string {
            if !current.trim().is_empty() {
                statements.push(current.trim().to_string());
            }
            current.clear();
            terminated = true;
        } else {
            in_string ^= c == '\'';
            current.push(c);
        }
    }
    (terminated && current.trim().is_empty()).then_some(statements)
}

/// Handles a `\…` meta command; returns `false` when the REPL should
/// quit. The interpreter is the session's; the REPL's own share is `\d`
/// over a durable store, which adds each table's on-disk footprint.
fn meta_command(session: &mut Session, command: &str) -> bool {
    let footprint = command.split_whitespace().next() == Some("d") && session.storage().is_some();
    // Checkpoint first so the reported pages/rows reflect the current
    // database rather than whatever the last WAL compaction captured.
    if footprint {
        if let Err(e) = session.checkpoint() {
            println!("{e}");
        }
    }
    let Some(reply) = session.meta_command(command) else { return false };
    println!("{reply}");
    if let (true, Some(storage)) = (footprint, session.storage()) {
        println!("Storage ({}):", storage.dir().display());
        for (table, _) in session.schema().iter() {
            let stats = storage.table_stats(table.as_ref()).unwrap_or_default();
            println!("  {table}: {} pages, {} rows on disk", stats.pages, stats.rows);
        }
    }
    true
}

/// The read loop both modes share. A `\…` line (outside a statement) and
/// every complete `;`-terminated buffer — statements may span lines — is
/// handed to `submit`, which returns `false` to end the session.
fn read_loop(mut submit: impl FnMut(&str) -> bool) {
    let stdin = io::stdin();
    let interactive = stdin.is_terminal();
    let mut buffer = String::new();
    let prompt = |buffer: &str| {
        if interactive {
            print!("{}", if buffer.is_empty() { "sql> " } else { "  -> " });
            io::stdout().flush().ok();
        }
    };
    prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = line.expect("stdin is readable");
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if !submit(trimmed) {
                return;
            }
            prompt(&buffer);
            continue;
        }
        if !interactive && !trimmed.is_empty() {
            println!("sql> {trimmed}");
        }
        buffer.push_str(&line);
        buffer.push('\n');
        // Keep reading until the statement is terminated — a `;` inside
        // an open string literal does not count.
        if statements(&buffer).is_none() {
            prompt(&buffer);
            continue;
        }
        if !submit(&buffer) {
            return;
        }
        buffer.clear();
        prompt(&buffer);
    }
}

/// The REPL's client mode: forward every statement and meta command to
/// a `sqlsem-server`, print each response block. Ends on `\q`, EOF, or
/// a dropped connection.
fn client_mode(mut client: Client) {
    println!("{}", client.greeting());
    read_loop(|input| {
        // The protocol is one statement per line: `A; B` is two sends.
        let lines = if input.starts_with('\\') {
            vec![input.to_string()]
        } else {
            statements(input).unwrap_or_default()
        };
        for line in lines {
            match client.send(&line) {
                Ok(reply) => println!("{reply}"),
                Err(e) => {
                    eprintln!("connection lost: {e}");
                    return false;
                }
            }
        }
        input != "\\q"
    });
}

fn main() {
    // `--storage DIR` attaches a durable store; `--connect ADDR` turns
    // the REPL into a network client of a running sqlsem-server.
    let mut args = std::env::args().skip(1);
    let mut session = match args.next().as_deref() {
        None => Session::new(),
        Some("--connect") => {
            let addr = args.next().unwrap_or_else(|| {
                eprintln!("usage: repl [--storage DIR | --connect ADDR]");
                std::process::exit(2);
            });
            match Client::connect(&addr) {
                Ok(client) => return client_mode(client),
                Err(e) => {
                    eprintln!("cannot connect to {addr}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("--storage") => {
            let dir = args.next().unwrap_or_else(|| {
                eprintln!("usage: repl [--storage DIR | --connect ADDR]");
                std::process::exit(2);
            });
            match Session::builder().with_storage(&dir).try_build() {
                Ok(session) => {
                    println!("storage: {dir}");
                    session
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        Some(other) => {
            eprintln!("unknown argument {other:?}; usage: repl [--storage DIR | --connect ADDR]");
            std::process::exit(2);
        }
    };
    if io::stdin().is_terminal() {
        println!(
            "sqlsem REPL — dialect {}, logic {}, backend {}. \\q to quit.",
            session.dialect(),
            session.logic(),
            session.backend()
        );
    }
    read_loop(|input| {
        if let Some(command) = input.strip_prefix('\\') {
            return meta_command(&mut session, command);
        }
        match session.run_script(input) {
            Ok(results) => {
                for result in results {
                    println!("{result}");
                }
            }
            Err(e) => println!("{e}"),
        }
        true
    });
}
