//! The `sqlsem-server` binary: serves a [`SharedDatabase`] over TCP.
//!
//! ```text
//! sqlsem-server [--listen ADDR] [--storage DIR]
//!               [--dialect standard|postgresql|oracle]
//!               [--logic 3vl|2vl|2vl-syntactic-eq]
//!               [--backend spec|naive|optimized|vectorized|adaptive]
//! ```
//!
//! Connected clients configure their own session with the `\…` meta
//! commands of `Connection::meta_command` — `\d`, `\dialect`, `\logic`,
//! `\backend`, `\batchsize`, `\threads`, `\q`, the same set the example
//! REPL speaks — plus the server's `\stats`.
//!
//! `--listen` defaults to `127.0.0.1:5433` (`:0` picks a free port —
//! the chosen address is printed on startup). With `--storage DIR` the
//! database is durable: the directory is recovered on startup and every
//! commit batch is fsynced to its WAL before any writer in the batch is
//! acknowledged.

use sqlsem_server::ServerBuilder;
use sqlsem_session::SharedDatabase;

/// Rejects the command line: the problem (a value's own parse error
/// lists the accepted spellings), then the synopsis.
fn usage(problem: String) -> ! {
    eprintln!(
        "{problem}\nusage: sqlsem-server [--listen ADDR] [--storage DIR] \
         [--dialect DIALECT] [--logic LOGIC] [--backend BACKEND]"
    );
    std::process::exit(2);
}

fn main() {
    let mut listen = "127.0.0.1:5433".to_string();
    let mut storage: Option<String> = None;
    let mut builder = ServerBuilder::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage(format!("{flag} needs a value")) };
        // The flags take the spellings the `\dialect`/`\logic`/`\backend`
        // meta commands take: each type's `FromStr`.
        match flag.as_str() {
            "--listen" => listen = value,
            "--storage" => storage = Some(value),
            "--dialect" => {
                builder = builder.with_dialect(value.parse().unwrap_or_else(|e| usage(e)))
            }
            "--logic" => builder = builder.with_logic(value.parse().unwrap_or_else(|e| usage(e))),
            "--backend" => {
                builder = builder.with_backend(value.parse().unwrap_or_else(|e| usage(e)))
            }
            _ => usage(format!("unknown flag {flag}")),
        }
    }
    let shared = match &storage {
        Some(dir) => match SharedDatabase::open(dir) {
            Ok(shared) => {
                println!("storage: {dir}");
                shared
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        },
        None => SharedDatabase::in_memory(),
    };
    match builder.with_shared(&shared).bind(&listen) {
        Ok(server) => {
            println!("listening on {}", server.local_addr());
            server.wait();
        }
        Err(e) => {
            eprintln!("cannot listen on {listen}: {e}");
            std::process::exit(1);
        }
    }
}
