//! The shared-database MVCC cell and its commit queue.
//!
//! A [`SharedDatabase`] multiplexes many concurrent
//! [`Connection`](crate::Connection)s over one database by exploiting
//! the stack's value-oriented semantics: a *snapshot* is just an
//! `Arc<Database>` — an immutable value readers evaluate against
//! lock-free — and publishing a new one is a pointer swap. Stored
//! tables are themselves `Arc`-shared copy-on-write
//! (see [`sqlsem_core::Database`]), so producing the next version
//! deep-copies only the tables the batch touched.
//!
//! Writes are serialized through a **commit queue** with group commit:
//!
//! 1. A writer encodes its statement as one [`WalOp`], pushes it onto
//!    the pending queue, and tries to become the *leader* by taking the
//!    committer lock (blocking — while a leader drains, followers park
//!    right here, which is what forms the batch).
//! 2. The leader drains the entire pending queue against the private
//!    master copy, appends each successful op to the write-ahead log,
//!    issues **one** `fdatasync` for the whole batch (the amortized
//!    group-commit point of PR 9's WAL), and publishes a single new
//!    snapshot.
//! 3. Results are delivered only *after* the publish, so a writer that
//!    returns always observes its own write in the next snapshot it
//!    takes (read-your-writes).
//!
//! The serialization makes the §4 discipline checkable under
//! concurrency: the committed order *is* the serial order, an optional
//! commit log records it, and replaying the log over the initial
//! database must reproduce the final snapshot bit for bit — which is
//! exactly what the concurrent gauntlet and the `concurrency`
//! integration tests assert.

use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

use sqlsem_core::Database;
use sqlsem_storage::{ApplyError, Storage, WalOp, DEFAULT_CHECKPOINT_THRESHOLD};

use crate::{Connection, SqlsemError};

/// A typed failure of one queued operation, produced on the committer
/// thread and mapped back to a [`SqlsemError`] (with the statement's
/// SQL and span) by the connection that submitted it.
#[derive(Debug)]
pub(crate) enum CommitError {
    /// The database rejected the operation ([`WalOp::apply`]'s verdict).
    Apply(ApplyError),
    /// The WAL append or group fsync failed.
    Storage(String),
}

impl CommitError {
    /// Attaches the statement's SQL text and span, producing the
    /// [`SqlsemError`] the statement raises.
    pub(crate) fn into_sqlsem(self, sql: &str, span: sqlsem_core::Span) -> SqlsemError {
        match self {
            CommitError::Apply(ApplyError::Schema(e)) => SqlsemError::schema(e, sql, span),
            CommitError::Apply(ApplyError::Eval(e)) => SqlsemError::eval(e, sql, span),
            CommitError::Storage(message) => SqlsemError::Storage { message },
        }
    }
}

/// One queued write: the operation plus a slot the leader fills with
/// the outcome. Followers poll the slot between attempts to take the
/// committer lock — no condvar is needed, because a follower that
/// blocks on the committer mutex is woken exactly when the current
/// leader (who owns its request) releases it.
#[derive(Debug)]
struct CommitRequest {
    op: WalOp,
    done: Mutex<Option<Result<u64, CommitError>>>,
}

/// The single-writer side of the cell: the master copy every op
/// applies to, the WAL sink, and the optional commit log.
#[derive(Debug)]
struct Committer {
    master: Database,
    version: u64,
    storage: Option<Storage>,
    log: Option<Vec<WalOp>>,
}

#[derive(Debug)]
struct SharedInner {
    /// The published snapshot and its version. Readers hold the read
    /// lock only long enough to clone the `Arc`.
    published: RwLock<(Arc<Database>, u64)>,
    /// Writes waiting for a leader to drain them.
    pending: Mutex<Vec<Arc<CommitRequest>>>,
    /// The committer lock — whoever holds it is the leader.
    committer: Mutex<Committer>,
}

/// A versioned, concurrently shared database: readers take lock-free
/// [`Arc<Database>`] snapshots, writers serialize through a group-commit
/// queue. Cloning the handle is cheap and connects another caller to
/// the *same* database.
///
/// ```
/// use sqlsem_session::SharedDatabase;
///
/// let shared = SharedDatabase::in_memory();
/// let mut a = shared.connect();
/// let mut b = shared.connect();
/// a.execute("CREATE TABLE R (X)").unwrap();
/// a.execute("INSERT INTO R VALUES (1), (2)").unwrap();
/// // b sees a's committed writes at its next statement.
/// let n = b.execute("SELECT COUNT(*) AS n FROM R").unwrap();
/// assert_eq!(n.rows().unwrap().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SharedDatabase {
    inner: Arc<SharedInner>,
}

impl Default for SharedDatabase {
    fn default() -> Self {
        SharedDatabase::in_memory()
    }
}

impl SharedDatabase {
    /// An in-memory shared database over an initially empty schema.
    pub fn in_memory() -> SharedDatabase {
        SharedDatabase::new(Database::new(sqlsem_core::Schema::default()))
    }

    /// Wraps an existing database (schema and data) as version 0 of an
    /// in-memory shared database.
    pub fn new(db: Database) -> SharedDatabase {
        SharedDatabase::with_parts(db, None)
    }

    /// Opens (creating if needed) the durable database at `dir` and
    /// shares its recovered state: every committed batch is WAL-logged
    /// and fsynced before any writer in it is acknowledged, and
    /// reopening the directory recovers the last committed state —
    /// checkpoint plus WAL replay, torn tail truncated. A directory that
    /// cannot be opened or recovered is a [`SqlsemError::Storage`].
    ///
    /// ```no_run
    /// use sqlsem_session::SharedDatabase;
    ///
    /// let dir = std::env::temp_dir().join("sqlsem-quickstart");
    /// let mut s = SharedDatabase::open(&dir).unwrap().connect();
    /// s.execute("CREATE TABLE R (A)").unwrap();
    /// s.execute("INSERT INTO R VALUES (1), (2)").unwrap();
    /// s.execute("CREATE INDEX r_a_idx ON R (A)").unwrap();
    /// drop(s); // or crash —
    /// let mut s = SharedDatabase::open(&dir).unwrap().connect();
    /// let n = s.execute("SELECT COUNT(*) AS n FROM R WHERE R.A = 1").unwrap();
    /// assert_eq!(n.rows().unwrap().len(), 1); // recovered, index and all
    /// ```
    pub fn open(dir: impl AsRef<Path>) -> Result<SharedDatabase, SqlsemError> {
        let (storage, db) =
            Storage::open(dir).map_err(|e| SqlsemError::Storage { message: e.to_string() })?;
        Ok(SharedDatabase::with_parts(db, Some(storage)))
    }

    fn with_parts(db: Database, storage: Option<Storage>) -> SharedDatabase {
        let inner = SharedInner {
            published: RwLock::new((Arc::new(db.clone()), 0)),
            pending: Mutex::new(Vec::new()),
            committer: Mutex::new(Committer { master: db, version: 0, storage, log: None }),
        };
        SharedDatabase { inner: Arc::new(inner) }
    }

    /// A new [`Connection`] over this database with the default
    /// configuration — use
    /// [`Session::builder().with_shared(..)`](crate::SessionBuilder::with_shared)
    /// to pick a dialect, logic mode, or backend.
    pub fn connect(&self) -> Connection {
        crate::SessionBuilder::new().with_shared(self).build()
    }

    /// The current snapshot — an immutable value; holding it pins
    /// nothing and blocks no writer.
    pub fn snapshot(&self) -> Arc<Database> {
        self.snapshot_versioned().0
    }

    /// The current snapshot together with its version (bumped once per
    /// committed batch).
    pub fn snapshot_versioned(&self) -> (Arc<Database>, u64) {
        let guard = self.inner.published.read().expect("published snapshot lock");
        (Arc::clone(&guard.0), guard.1)
    }

    /// The current snapshot version without taking the snapshot.
    pub fn version(&self) -> u64 {
        self.inner.published.read().expect("published snapshot lock").1
    }

    /// Starts recording every successfully committed [`WalOp`] in
    /// order. Off by default (a long-running server must not accumulate
    /// its whole history); the differential harnesses switch it on to
    /// verify that serial replay of the commit log reproduces the final
    /// snapshot.
    pub fn record_commit_log(&self) {
        let mut committer = self.inner.committer.lock().expect("committer lock");
        if committer.log.is_none() {
            committer.log = Some(Vec::new());
        }
    }

    /// The operations committed since [`SharedDatabase::record_commit_log`],
    /// in commit order. Empty when recording is off.
    pub fn commit_log(&self) -> Vec<WalOp> {
        let committer = self.inner.committer.lock().expect("committer lock");
        committer.log.clone().unwrap_or_default()
    }

    /// Forces a checkpoint of the durable store (folding the WAL into
    /// the paged checkpoint file). A no-op for in-memory databases.
    pub fn checkpoint(&self) -> Result<(), SqlsemError> {
        let mut committer = self.inner.committer.lock().expect("committer lock");
        let Committer { master, storage, .. } = &mut *committer;
        match storage.as_mut() {
            Some(s) => {
                s.checkpoint(master).map_err(|e| SqlsemError::Storage { message: e.to_string() })
            }
            None => Ok(()),
        }
    }

    /// `true` when the shared database is backed by durable storage.
    pub fn is_durable(&self) -> bool {
        self.read_storage(|_| ()).is_some()
    }

    /// Reads the durable store under the committer lock (`None` for an
    /// in-memory database) — how `\d` reports the on-disk footprint
    /// without checkpointing.
    pub(crate) fn read_storage<R>(&self, read: impl FnOnce(&Storage) -> R) -> Option<R> {
        self.inner.committer.lock().expect("committer lock").storage.as_ref().map(read)
    }

    /// Submits one operation to the commit queue and blocks until a
    /// leader (possibly this caller) has committed or rejected it.
    /// Returns the version of the snapshot that includes the write.
    pub(crate) fn commit(&self, op: WalOp) -> Result<u64, CommitError> {
        let req = Arc::new(CommitRequest { op, done: Mutex::new(None) });
        self.inner.pending.lock().expect("pending queue lock").push(Arc::clone(&req));
        loop {
            if let Some(result) = req.done.lock().expect("request slot lock").take() {
                return result;
            }
            // Block until the current leader finishes; whoever gets the
            // lock first drains everything queued meanwhile — including
            // this request, if no earlier leader already took it.
            let mut committer = self.inner.committer.lock().expect("committer lock");
            if let Some(result) = req.done.lock().expect("request slot lock").take() {
                return result;
            }
            self.drain(&mut committer);
            // The request was pushed before the lock was taken, so the
            // drain above processed it; the next iteration returns.
        }
    }

    /// Leader path: applies every pending op to the master copy, group
    /// fsyncs the WAL once, publishes one new snapshot, then delivers
    /// the results (publish-before-deliver gives read-your-writes).
    fn drain(&self, committer: &mut Committer) {
        let batch: Vec<Arc<CommitRequest>> =
            std::mem::take(&mut *self.inner.pending.lock().expect("pending queue lock"));
        if batch.is_empty() {
            return;
        }
        let mut results: Vec<Result<(), CommitError>> = Vec::with_capacity(batch.len());
        let mut logged = false;
        let mut applied = false;
        for req in &batch {
            let mut result = req.op.apply(&mut committer.master).map_err(CommitError::Apply);
            if result.is_ok() {
                applied = true;
                if let Some(storage) = committer.storage.as_mut() {
                    match storage.log(&req.op) {
                        Ok(_) => logged = true,
                        Err(e) => result = Err(CommitError::Storage(e.to_string())),
                    }
                }
            }
            if result.is_ok() {
                if let Some(log) = committer.log.as_mut() {
                    log.push(req.op.clone());
                }
            }
            results.push(result);
        }
        if logged {
            let storage = committer.storage.as_mut().expect("logged implies storage");
            if let Err(e) = storage.commit() {
                // The fsync failed: no writer in the batch may be told
                // its write is durable. The in-memory master keeps the
                // batch (it applied); recovery decides what survived.
                let message = e.to_string();
                for r in results.iter_mut().filter(|r| r.is_ok()) {
                    *r = Err(CommitError::Storage(message.clone()));
                }
            } else {
                // Compaction failures don't undo the durable commit;
                // the next batch retries the checkpoint.
                let _ = storage.maybe_checkpoint(&committer.master, DEFAULT_CHECKPOINT_THRESHOLD);
            }
        }
        if applied {
            committer.version += 1;
            let snapshot = Arc::new(committer.master.clone());
            *self.inner.published.write().expect("published snapshot lock") =
                (snapshot, committer.version);
        }
        let version = committer.version;
        for (req, result) in batch.iter().zip(results) {
            *req.done.lock().expect("request slot lock") = Some(result.map(|()| version));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlsem_core::Name;

    #[test]
    fn snapshots_are_immutable_values() {
        let shared = SharedDatabase::in_memory();
        let before = shared.snapshot();
        shared
            .commit(WalOp::CreateTable { name: Name::new("R"), columns: vec![Name::new("A")] })
            .unwrap();
        assert!(!before.schema().contains("R"));
        assert!(shared.snapshot().schema().contains("R"));
        assert_eq!(shared.version(), 1);
    }

    #[test]
    fn failed_ops_do_not_bump_the_version_or_the_log() {
        let shared = SharedDatabase::in_memory();
        shared.record_commit_log();
        let err = shared.commit(WalOp::DropTable { name: Name::new("missing") }).unwrap_err();
        assert!(matches!(
            err,
            CommitError::Apply(ApplyError::Schema(sqlsem_core::SchemaError::UnknownTable(_)))
        ));
        assert_eq!(shared.version(), 0);
        assert!(shared.commit_log().is_empty());
    }

    #[test]
    fn commit_log_records_the_serial_order() {
        let shared = SharedDatabase::in_memory();
        shared.record_commit_log();
        let ops = [
            WalOp::CreateTable { name: Name::new("R"), columns: vec![Name::new("A")] },
            WalOp::Append {
                table: Name::new("R"),
                rows: vec![sqlsem_core::Row::new(vec![sqlsem_core::Value::Int(1)])],
            },
        ];
        for op in &ops {
            shared.commit(op.clone()).unwrap();
        }
        assert_eq!(shared.commit_log(), ops.to_vec());
        // Replay over a fresh database reproduces the snapshot.
        let mut replayed = Database::new(sqlsem_core::Schema::default());
        for op in shared.commit_log() {
            op.apply(&mut replayed).unwrap();
        }
        assert_eq!(&replayed, shared.snapshot().as_ref());
    }
}
