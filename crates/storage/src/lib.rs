//! # sqlsem-storage
//!
//! Durable storage for the sqlsem semantics stack: a paged single-file
//! table store ([`checkpoint`]) fronted by an append-only, checksummed
//! write-ahead log ([`wal`]) with group fsync and replay-on-open crash
//! recovery.
//!
//! A durable database lives in one directory:
//!
//! ```text
//! <dir>/checkpoint.db    paged snapshot (schema + catalogs + slotted data pages)
//! <dir>/wal.log          [len][crc32][payload] records appended since the snapshot
//! ```
//!
//! [`Storage::open`] loads the checkpoint (if any), replays every intact
//! WAL record past it, truncates the damaged tail left by a crash, and
//! hands back the recovered [`Database`]. Mutations go through
//! [`Storage::log`] (buffered append) + [`Storage::commit`] (one
//! `fdatasync` per statement batch — group commit); [`Storage::checkpoint`]
//! atomically rewrites the snapshot and empties the log.
//!
//! The storage layer deliberately knows nothing about queries: it
//! persists exactly the state the in-memory [`Database`] holds, and
//! `optimizer_gauntlet --backend persistent` validates the round trip by
//! running the §4 comparison (Guagliardo & Libkin) over databases that
//! went through the disk first.
//!
//! ```
//! use sqlsem_core::{table, Name, Row, Value};
//! use sqlsem_storage::{Storage, WalOp};
//!
//! let dir = sqlsem_storage::fresh_temp_dir("doc");
//! let (mut storage, mut db) = Storage::open(&dir).unwrap();
//! let op = WalOp::CreateTable { name: Name::new("R"), columns: vec![Name::new("A")] };
//! op.apply(&mut db).unwrap();
//! storage.log(&op).unwrap();
//! let op = WalOp::Append { table: Name::new("R"), rows: vec![Row::new(vec![Value::Int(1)])] };
//! op.apply(&mut db).unwrap();
//! storage.log(&op).unwrap();
//! storage.commit().unwrap(); // one fsync for the whole batch
//!
//! // Reopening recovers the same database from disk.
//! let (_, recovered) = Storage::open(&dir).unwrap();
//! assert_eq!(recovered, db);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod wal;

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use sqlsem_core::{Database, Name};

pub use checkpoint::TableStats;
pub use error::{ApplyError, StorageError};
pub use wal::WalOp;

/// WAL size (bytes) past which [`Storage::maybe_checkpoint`] folds the
/// log into a fresh checkpoint.
pub const DEFAULT_CHECKPOINT_THRESHOLD: u64 = 1 << 20;

/// A handle on one durable database directory: the open WAL file plus
/// the bookkeeping recovery produced.
#[derive(Debug)]
pub struct Storage {
    dir: PathBuf,
    wal: File,
    wal_len: u64,
    next_lsn: u64,
    dirty: bool,
    stats: BTreeMap<Name, TableStats>,
}

impl Storage {
    /// Opens (creating if needed) the durable database at `dir` and
    /// recovers its last committed state: load the checkpoint, replay
    /// every intact WAL record past it, truncate the crash-damaged tail.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Storage, Database), StorageError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let (mut db, checkpoint_lsn, stats) = match checkpoint::read(&dir.join("checkpoint.db"))? {
            Some((db, lsn, stats)) => (db, lsn, stats),
            None => {
                let schema =
                    sqlsem_core::Schema::builder().build().expect("empty schema is always valid");
                (Database::new(schema), 0, BTreeMap::new())
            }
        };

        let wal_path = dir.join("wal.log");
        let mut wal = OpenOptions::new().read(true).append(true).create(true).open(&wal_path)?;
        let mut bytes = Vec::new();
        wal.read_to_end(&mut bytes)?;
        let scan = wal::scan(&bytes);
        let mut next_lsn = checkpoint_lsn + 1;
        for (lsn, op) in &scan.records {
            // Records at or below the checkpoint LSN are already folded
            // into the snapshot (possible if a crash hit between the
            // checkpoint rename and the WAL truncation).
            if *lsn <= checkpoint_lsn {
                continue;
            }
            op.apply(&mut db)?;
            next_lsn = lsn + 1;
        }
        if scan.intact_len < bytes.len() as u64 {
            // Drop the torn tail so post-recovery appends start clean.
            wal.set_len(scan.intact_len)?;
            wal.sync_data()?;
        }
        let storage = Storage { dir, wal, wal_len: scan.intact_len, next_lsn, dirty: false, stats };
        Ok((storage, db))
    }

    /// Appends one operation to the WAL (buffered in the OS page cache;
    /// call [`Storage::commit`] to make the batch durable). Returns the
    /// record's LSN.
    pub fn log(&mut self, op: &WalOp) -> Result<u64, StorageError> {
        let lsn = self.next_lsn;
        let mut record = Vec::with_capacity(64);
        wal::encode_record(&mut record, lsn, op);
        self.wal.write_all(&record)?;
        self.wal_len += record.len() as u64;
        self.next_lsn += 1;
        self.dirty = true;
        Ok(lsn)
    }

    /// Makes every record logged since the last commit durable with a
    /// single `fdatasync` — the group-commit point.
    pub fn commit(&mut self) -> Result<(), StorageError> {
        if self.dirty {
            self.wal.sync_data()?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Atomically rewrites the checkpoint to `db`'s current state and
    /// empties the WAL. Safe at any point: a crash before the rename
    /// keeps the old snapshot + full log, after it the new snapshot
    /// subsumes the log (replay skips LSNs the snapshot covers).
    pub fn checkpoint(&mut self, db: &Database) -> Result<(), StorageError> {
        self.commit()?;
        let lsn = self.next_lsn - 1;
        self.stats = checkpoint::write(&self.dir.join("checkpoint.db"), db, lsn)?;
        self.wal.set_len(0)?;
        self.wal.sync_data()?;
        self.wal_len = 0;
        Ok(())
    }

    /// Checkpoints only once the WAL has outgrown `threshold` bytes.
    pub fn maybe_checkpoint(&mut self, db: &Database, threshold: u64) -> Result<(), StorageError> {
        if self.wal_len > threshold {
            self.checkpoint(db)?;
        }
        Ok(())
    }

    /// The durable directory this handle manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// The next LSN a logged record will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// A table's page/row footprint in the last written checkpoint
    /// (rows appended since then live only in the WAL until the next
    /// [`Storage::checkpoint`]).
    pub fn table_stats(&self, table: &str) -> Option<TableStats> {
        self.stats.get(table).copied()
    }

    /// Logs the complete current state of `db` (tables, contents,
    /// indexes) as one WAL batch and commits it — the bulk-load path
    /// that makes an in-memory database durable.
    pub fn save_all(&mut self, db: &Database) -> Result<(), StorageError> {
        for (name, attrs) in db.schema().iter() {
            self.log(&WalOp::CreateTable { name: name.clone(), columns: attrs.to_vec() })?;
            if let Some(t) = db.stored_table(name.as_str()) {
                self.log(&WalOp::Replace {
                    table: name.clone(),
                    rows: t.rows().cloned().collect(),
                })?;
            }
        }
        for index in db.indexes() {
            let def = index.def();
            self.log(&WalOp::CreateIndex {
                name: def.name.clone(),
                table: def.table.clone(),
                columns: def.columns.clone(),
            })?;
        }
        self.commit()
    }
}

/// Creates a fresh, unique scratch directory under the system temp dir —
/// the offline stand-in for the `tempfile` crate, shared by the
/// gauntlet's storage round trip and the tests.
pub fn fresh_temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sqlsem-{tag}-{}-{n}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir creation");
    dir
}

/// Writes `bytes` to `path` truncating — tiny helper for tests and
/// tools that fabricate crash states.
pub fn overwrite_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlsem_core::{Row, Value};

    fn create_r(storage: &mut Storage, db: &mut Database) {
        let op = WalOp::CreateTable {
            name: Name::new("R"),
            columns: vec![Name::new("A"), Name::new("B")],
        };
        op.apply(db).unwrap();
        storage.log(&op).unwrap();
    }

    fn append_r(storage: &mut Storage, db: &mut Database, lo: i64, hi: i64) {
        let rows: Vec<Row> =
            (lo..hi).map(|i| Row::new(vec![Value::Int(i), Value::str(format!("v{i}"))])).collect();
        let op = WalOp::Append { table: Name::new("R"), rows };
        op.apply(db).unwrap();
        storage.log(&op).unwrap();
    }

    #[test]
    fn log_commit_reopen_recovers_state() {
        let dir = fresh_temp_dir("reopen");
        let (mut storage, mut db) = Storage::open(&dir).unwrap();
        create_r(&mut storage, &mut db);
        append_r(&mut storage, &mut db, 0, 10);
        storage.commit().unwrap();

        let (s2, recovered) = Storage::open(&dir).unwrap();
        assert_eq!(recovered, db);
        assert_eq!(s2.next_lsn(), storage.next_lsn());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_empties_wal_and_survives_reopen() {
        let dir = fresh_temp_dir("ckpt");
        let (mut storage, mut db) = Storage::open(&dir).unwrap();
        create_r(&mut storage, &mut db);
        append_r(&mut storage, &mut db, 0, 100);
        let op = WalOp::CreateIndex {
            name: Name::new("r_a_idx"),
            table: Name::new("R"),
            columns: vec![Name::new("A")],
        };
        op.apply(&mut db).unwrap();
        storage.log(&op).unwrap();
        storage.checkpoint(&db).unwrap();
        assert_eq!(storage.wal_len(), 0);
        assert_eq!(storage.table_stats("R").unwrap().rows, 100);

        // Post-checkpoint appends land in the WAL only; both layers
        // must combine on reopen.
        append_r(&mut storage, &mut db, 100, 120);
        storage.commit().unwrap();
        let (s2, recovered) = Storage::open(&dir).unwrap();
        assert_eq!(recovered, db);
        assert_eq!(recovered.index("r_a_idx").unwrap().entries(), 120);
        assert_eq!(s2.table_stats("R").unwrap().rows, 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_all_round_trips_an_in_memory_database() {
        let schema = sqlsem_core::Schema::builder().table("T", ["X"]).build().unwrap();
        let mut db = Database::new(schema);
        db.append_rows("T", [Row::new(vec![Value::Int(7)])]).unwrap();
        db.create_index("t_x_idx", "T", ["X"]).unwrap();

        let dir = fresh_temp_dir("saveall");
        let (mut storage, _) = Storage::open(&dir).unwrap();
        storage.save_all(&db).unwrap();
        let (_, recovered) = Storage::open(&dir).unwrap();
        assert_eq!(recovered, db);
        fs::remove_dir_all(&dir).unwrap();
    }
}
