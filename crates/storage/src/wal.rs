//! The append-only write-ahead log.
//!
//! Every mutation of a durable database is first serialized as one WAL
//! record and appended to `wal.log`:
//!
//! ```text
//! [len: u32][crc32: u32][payload: len bytes]
//! payload = [lsn: u64][op tag: u8][op body]
//! ```
//!
//! `crc32` covers the payload. Recovery reads records front to back and
//! **stops at the first record that is truncated or fails its checksum**
//! — that prefix is exactly the set of writes that reached the disk
//! before a crash, so replaying it reproduces the last durable state.
//! Durability is batched: callers append any number of records and then
//! issue one [`crate::Storage::commit`] (a single `fdatasync`) per
//! statement batch — the classic group-commit trade.

use sqlsem_core::{Database, EvalError, Name, Row, Table};

use crate::codec::{crc32, put_row, put_str, put_u32, put_u64, Reader};
use crate::error::{ApplyError, StorageError};

/// One logical mutation, as recorded in the WAL.
///
/// Index *contents* are never logged — they are derived state, rebuilt
/// by [`WalOp::apply`]ing the record stream (a `CreateIndex` record builds over
/// whatever rows precede it, exactly as the original execution did).
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// `CREATE TABLE name (columns…)`.
    CreateTable {
        /// The new table's name.
        name: Name,
        /// Its attribute names, in declaration order.
        columns: Vec<Name>,
    },
    /// `DROP TABLE name` (also drops the table's indexes, as
    /// [`Database::drop_table`] does).
    DropTable {
        /// The dropped table.
        name: Name,
    },
    /// Rows appended to an existing table (`INSERT`).
    Append {
        /// The target table.
        table: Name,
        /// The appended rows, in insertion order.
        rows: Vec<Row>,
    },
    /// Wholesale replacement of a table's contents (`DELETE` +
    /// reload-style maintenance; maps to [`Database::replace_table`]).
    Replace {
        /// The target table.
        table: Name,
        /// The complete new contents.
        rows: Vec<Row>,
    },
    /// `CREATE INDEX name ON table (columns…)`.
    CreateIndex {
        /// The new index's name.
        name: Name,
        /// The indexed table.
        table: Name,
        /// The key columns, most significant first.
        columns: Vec<Name>,
    },
    /// `DROP INDEX name`.
    DropIndex {
        /// The dropped index.
        name: Name,
    },
}

fn put_names(buf: &mut Vec<u8>, names: &[Name]) {
    put_u32(buf, names.len() as u32);
    for n in names {
        put_str(buf, n.as_str());
    }
}

fn read_names(r: &mut Reader<'_>) -> Result<Vec<Name>, StorageError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        out.push(Name::new(r.str()?));
    }
    Ok(out)
}

fn put_rows(buf: &mut Vec<u8>, rows: &[Row]) {
    put_u32(buf, rows.len() as u32);
    for row in rows {
        put_row(buf, row);
    }
}

fn read_rows(r: &mut Reader<'_>) -> Result<Vec<Row>, StorageError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(r.row()?);
    }
    Ok(out)
}

impl WalOp {
    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            WalOp::CreateTable { name, columns } => {
                buf.push(0);
                put_str(buf, name.as_str());
                put_names(buf, columns);
            }
            WalOp::DropTable { name } => {
                buf.push(1);
                put_str(buf, name.as_str());
            }
            WalOp::Append { table, rows } => {
                buf.push(2);
                put_str(buf, table.as_str());
                put_rows(buf, rows);
            }
            WalOp::Replace { table, rows } => {
                buf.push(3);
                put_str(buf, table.as_str());
                put_rows(buf, rows);
            }
            WalOp::CreateIndex { name, table, columns } => {
                buf.push(4);
                put_str(buf, name.as_str());
                put_str(buf, table.as_str());
                put_names(buf, columns);
            }
            WalOp::DropIndex { name } => {
                buf.push(5);
                put_str(buf, name.as_str());
            }
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<WalOp, StorageError> {
        match r.u8()? {
            0 => Ok(WalOp::CreateTable { name: Name::new(r.str()?), columns: read_names(r)? }),
            1 => Ok(WalOp::DropTable { name: Name::new(r.str()?) }),
            2 => Ok(WalOp::Append { table: Name::new(r.str()?), rows: read_rows(r)? }),
            3 => Ok(WalOp::Replace { table: Name::new(r.str()?), rows: read_rows(r)? }),
            4 => Ok(WalOp::CreateIndex {
                name: Name::new(r.str()?),
                table: Name::new(r.str()?),
                columns: read_names(r)?,
            }),
            5 => Ok(WalOp::DropIndex { name: Name::new(r.str()?) }),
            t => Err(StorageError::Corrupt(format!("unknown WAL op tag {t}"))),
        }
    }

    /// Applies this operation to `db`. Owned connections, the shared
    /// commit queue and WAL replay all mutate through this one function,
    /// so recovery and live execution cannot drift apart — in effect or
    /// in error verdict.
    pub fn apply(&self, db: &mut Database) -> Result<(), ApplyError> {
        match self {
            WalOp::CreateTable { name, columns } => {
                db.create_table(name.clone(), columns.iter().cloned())?
            }
            WalOp::DropTable { name } => db.drop_table(name.as_str())?,
            WalOp::Append { table, rows } => {
                db.append_rows(table.clone(), rows.iter().cloned())?;
            }
            WalOp::Replace { table, rows } => {
                let Some(columns) = db.schema().attributes(table.as_str()).map(<[_]>::to_vec)
                else {
                    return Err(EvalError::UnknownTable(table.clone()).into());
                };
                db.replace_table(table.clone(), Table::with_rows(columns, rows.clone())?)?
            }
            WalOp::CreateIndex { name, table, columns } => {
                db.create_index(name.clone(), table.clone(), columns.iter().cloned())?
            }
            WalOp::DropIndex { name } => db.drop_index(name.as_str())?,
        }
        Ok(())
    }
}

/// Serializes one record (`[len][crc][lsn + op]`) into `out`.
pub fn encode_record(out: &mut Vec<u8>, lsn: u64, op: &WalOp) {
    let mut payload = Vec::with_capacity(64);
    put_u64(&mut payload, lsn);
    op.encode_body(&mut payload);
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
}

/// The outcome of scanning the log: every intact record in order, plus
/// the byte offset of the first damaged or missing one (the recovery
/// truncation point).
pub struct WalScan {
    /// `(lsn, op)` for each record that passed framing and checksum.
    pub records: Vec<(u64, WalOp)>,
    /// Offset of the first byte past the intact prefix.
    pub intact_len: u64,
}

/// Scans raw log bytes front to back, stopping at the first truncated or
/// checksum-corrupt record. Damage is not an error — it marks the crash
/// point.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if bytes.len() - pos < 8 {
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if bytes.len() - pos - 8 < len {
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break;
        }
        let mut r = Reader::new(payload);
        let Ok(lsn) = r.u64() else { break };
        let Ok(op) = WalOp::decode_body(&mut r) else { break };
        records.push((lsn, op));
        pos += 8 + len;
    }
    WalScan { records, intact_len: pos as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlsem_core::Value;

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::CreateTable { name: Name::new("T"), columns: vec![Name::new("A")] },
            WalOp::Append {
                table: Name::new("T"),
                rows: vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Null])],
            },
            WalOp::CreateIndex {
                name: Name::new("t_a_idx"),
                table: Name::new("T"),
                columns: vec![Name::new("A")],
            },
            WalOp::Replace { table: Name::new("T"), rows: vec![Row::new(vec![Value::str("x")])] },
            WalOp::DropIndex { name: Name::new("t_a_idx") },
            WalOp::DropTable { name: Name::new("T") },
        ]
    }

    #[test]
    fn records_round_trip_through_scan() {
        let mut log = Vec::new();
        for (i, op) in ops().iter().enumerate() {
            encode_record(&mut log, i as u64 + 1, op);
        }
        let scan = scan(&log);
        assert_eq!(scan.intact_len, log.len() as u64);
        assert_eq!(scan.records.len(), ops().len());
        for ((lsn, got), (i, want)) in scan.records.iter().zip(ops().iter().enumerate()) {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn scan_stops_at_flipped_byte() {
        let mut log = Vec::new();
        for (i, op) in ops().iter().enumerate() {
            encode_record(&mut log, i as u64 + 1, op);
        }
        // Corrupt one payload byte inside the second record.
        let first_len = 8 + u32::from_le_bytes(log[0..4].try_into().unwrap()) as usize;
        log[first_len + 12] ^= 0xFF;
        let scan = scan(&log);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.intact_len, first_len as u64);
    }

    #[test]
    fn replaying_ops_reproduces_the_mutations() {
        let mut db = Database::new(sqlsem_core::Schema::builder().build().unwrap());
        for op in &ops()[..4] {
            op.apply(&mut db).unwrap();
        }
        let t = db.stored_table("T").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows().next().unwrap().values(), &[Value::str("x")]);
        // The index was rebuilt by the Replace maintenance path.
        assert_eq!(db.index("t_a_idx").unwrap().entries(), 1);
        for op in &ops()[4..] {
            op.apply(&mut db).unwrap();
        }
        assert!(db.stored_table("T").is_none());
        assert!(db.index("t_a_idx").is_none());
    }

    #[test]
    fn a_rejected_op_keeps_its_typed_verdict() {
        let mut db = Database::new(sqlsem_core::Schema::default());
        let op = WalOp::Replace { table: Name::new("missing"), rows: Vec::new() };
        let err = op.apply(&mut db).unwrap_err();
        assert!(
            matches!(&err, ApplyError::Eval(EvalError::UnknownTable(t)) if t.as_str() == "missing")
        );
        // Recovery folds the same verdict into a replay failure.
        assert!(matches!(StorageError::from(err), StorageError::Replay(_)));
    }
}
