//! Wire-level tests of `sqlsem-server` against its public API: the
//! `\d` reply over a durable database, and the bound on a statement
//! line.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use sqlsem_server::{Client, Server, ServerBuilder};
use sqlsem_session::SharedDatabase;

#[test]
fn describe_over_a_durable_database_shows_the_storage_footprint() {
    let dir = std::env::temp_dir().join(format!("sqlsem-server-describe-{}", std::process::id()));
    let shared = SharedDatabase::open(&dir).unwrap();
    let server = ServerBuilder::new().with_shared(&shared).bind("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.send("CREATE TABLE R (A)").unwrap();
    client.send("INSERT INTO R VALUES (1), (2)").unwrap();
    let wal_bytes = |reply: &str| -> u64 {
        let line = reply.lines().find_map(|l| l.strip_prefix("  WAL: ")).expect(reply);
        line.strip_suffix(" bytes since the last checkpoint").expect(reply).parse().unwrap()
    };
    // Nothing checkpointed yet — and `\d` must not checkpoint either.
    for _ in 0..2 {
        let reply = client.send("\\d").unwrap();
        assert!(reply.starts_with(&format!("R(A)\nStorage ({}):", dir.display())), "{reply}");
        assert!(reply.contains("\n  R: 0 pages, 0 rows in the last checkpoint"), "{reply}");
        assert!(wal_bytes(&reply) > 0, "{reply}");
    }
    shared.checkpoint().unwrap();
    let reply = client.send("\\d").unwrap();
    assert!(reply.contains("\n  R: 1 pages, 2 rows in the last checkpoint"), "{reply}");
    assert_eq!(wal_bytes(&reply), 0, "{reply}");
    server.shutdown();
    drop(shared);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads one response block: payload lines up to the empty terminator.
fn read_block(reader: &mut impl BufRead) -> io::Result<String> {
    let mut block = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        match line.trim_end() {
            "" => return Ok(block.join("\n")),
            payload => block.push(payload.to_string()),
        }
    }
}

#[test]
fn an_overlong_line_is_refused_and_the_server_keeps_serving() {
    let server = Server::bind("127.0.0.1:0").unwrap();
    let mut out = TcpStream::connect(server.local_addr()).unwrap();
    // Time-outs turn a server that never answers into a failure, not a
    // hang.
    out.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    out.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(out.try_clone().unwrap());
    assert!(read_block(&mut reader).unwrap().starts_with("sqlsem server"));
    let chunk = vec![b'x'; 64 << 10];
    for _ in 0..32 {
        // 2 MiB without a newline; the server stops reading at the cap
        // and hangs up, so the rest may fail to send.
        if out.write_all(&chunk).is_err() {
            break;
        }
    }
    let refusal = read_block(&mut reader).unwrap();
    assert!(refusal.starts_with("statement line exceeds 1048576 bytes"), "{refusal}");
    assert!(read_block(&mut reader).is_err(), "the connection is closed");
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert_eq!(fresh.send("CREATE TABLE R (A)").unwrap(), "CREATE TABLE");
    server.shutdown();
}
