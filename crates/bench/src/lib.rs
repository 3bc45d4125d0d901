//! # sqlsem-bench
//!
//! Experiment binaries reproducing the paper's evaluation. Each binary regenerates one paper artifact; see
//! `EXPERIMENTS.md` at the repository root for the index and the
//! paper-vs-measured record.
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `fig1_truth_tables` | Figure 1 — the 3VL truth tables |
//! | `ex1_difference` | Example 1 — Q1/Q2/Q3 inequivalence under nulls, plus their §5 RA translations |
//! | `ex2_star_ambiguity` | Example 2 — `SELECT *` ambiguity per dialect |
//! | `tpch_calibration` | §4 — TPC-H shape statistics and derived generator parameters |
//! | `sec4_validation` | §4 — the randomised differential validation |
//! | `sec5_ra_equivalence` | §5 / Theorem 1 — SQL ≡ RA on random queries |
//! | `sec6_twovl` | §6 / Theorem 2 — 3VL ≡ 2VL on random queries |
//! | `optimizer_gauntlet` | beyond the paper — optimized engine vs spec interpreter vs naive engine, all `LogicMode` × dialect combinations |
//! | `concurrent_gauntlet` | beyond the paper — N writers × M readers over one `SharedDatabase`: snapshot reads vs the spec interpreter, serial replay of the commit log, all combinations |
//!
//! Performance is measured by the repo benchmark (`benchmark/`, see
//! `benchmark/README.md`) and nowhere else.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::str::FromStr;

use sqlsem_core::Database;
use sqlsem_storage::{Storage, StorageError};

/// Strict `--flag value` argument parsing for the experiment binaries
/// (kept dependency-free on purpose). Each lookup consumes what it
/// matched; [`Args::finish`] — called before any work starts — then
/// rejects an unparsable value or whatever no lookup consumed, so a
/// typo ends the run with exit status 2 instead of silently running
/// the defaults.
pub struct Args {
    rest: Vec<String>,
    accepted: Vec<String>,
    problem: Option<String>,
}

impl Args {
    /// The process's command line.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1))
    }

    /// An explicit argument list (what the tests drive).
    pub fn new(args: impl IntoIterator<Item = String>) -> Args {
        Args { rest: args.into_iter().collect(), accepted: Vec::new(), problem: None }
    }

    /// The value following `name`, or `default` when the flag is
    /// absent. A missing or unparsable value is held for
    /// [`Args::finish`], which can then print every accepted flag.
    pub fn value<T: FromStr>(&mut self, name: &str, default: T) -> T
    where
        T::Err: fmt::Display,
    {
        self.accepted.push(format!("{name} <value>"));
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return default;
        };
        let taken: Vec<String> = self.rest.drain(i..self.rest.len().min(i + 2)).collect();
        let parsed = match taken.get(1) {
            None => Err(format!("{name} needs a value")),
            Some(value) => value.parse().map_err(|e| format!("{name} {value}: {e}")),
        };
        parsed.unwrap_or_else(|problem| {
            self.problem.get_or_insert(problem);
            default
        })
    }

    /// `true` iff the bare flag is present.
    pub fn flag(&mut self, name: &str) -> bool {
        self.accepted.push(name.to_string());
        let found = self.rest.iter().position(|a| a == name);
        found.map(|i| self.rest.remove(i)).is_some()
    }

    /// The first bad value, else the first argument no lookup consumed.
    pub fn try_finish(&self) -> Result<(), String> {
        let leftover = self.rest.first().map(|a| format!("unrecognised argument {a}"));
        self.problem.clone().or(leftover).map_or(Ok(()), Err)
    }

    /// [`Args::try_finish`], exiting with status 2 on a problem.
    pub fn finish(self) {
        if let Err(problem) = self.try_finish() {
            self.reject(&problem);
        }
    }

    /// Prints the problem and the accepted flags, then exits with the
    /// usage-error status.
    pub fn reject(&self, problem: &str) -> ! {
        eprintln!("{problem}\naccepted flags: {}", self.accepted.join("  "));
        std::process::exit(2)
    }
}

/// Pushes `db` through the durable storage engine and back: writes it
/// to a throwaway on-disk store (WAL batch + fsync), reopens the store
/// to recover it, asserts the recovery is **exact**, deletes the store,
/// and finally gives every table a secondary index on its first column
/// so generated point/range predicates actually take the index paths.
///
/// This is the fixture behind `optimizer_gauntlet --backend persistent`:
/// "the database went through the disk" is a property of the database
/// argument, so the sweep compares the spec interpreter against the
/// optimized engine over the *same* recovered, indexed database.
/// Storage failures panic — they are infrastructure faults, not
/// semantics results the §4 criterion could compare on.
pub fn persistent_database(db: &Database) -> Database {
    let dir = sqlsem_storage::fresh_temp_dir("gauntlet");
    let round_trip = (|| -> Result<Database, StorageError> {
        let (mut storage, _) = Storage::open(&dir)?;
        storage.save_all(db)?;
        drop(storage);
        let (_, recovered) = Storage::open(&dir)?;
        Ok(recovered)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let mut recovered = round_trip.expect("persistent fixture: storage round trip");
    assert_eq!(&recovered, db, "persistent fixture: recovery must be exact");
    let firsts: Vec<(String, String)> = recovered
        .schema()
        .iter()
        .filter_map(|(t, attrs)| Some((t.to_string(), attrs.first()?.to_string())))
        .collect();
    for (i, (table, col)) in firsts.into_iter().enumerate() {
        // Index names must be distinct; column names may repeat
        // across tables, so the position disambiguates.
        recovered
            .create_index(format!("gauntlet_{i}_{col}_idx"), table.as_str(), [col.as_str()])
            .expect("persistent fixture: index creation");
    }
    recovered
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlsem_core::{table, Evaluator, Schema, Value};
    use sqlsem_session::Session;

    fn args(line: &str) -> Args {
        Args::new(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arg_returns_default_when_absent() {
        let mut a = args("--queries 50 --paper --seed 9");
        assert_eq!(a.value("--not-passed", 7usize), 7);
        assert!(!a.flag("--not-passed-either"));
        assert_eq!(a.value("--queries", 2_000usize), 50);
        assert!(a.flag("--paper"));
        assert_eq!(a.value("--seed", 1u64), 9);
        assert_eq!(a.try_finish(), Ok(()));
    }

    #[test]
    fn unparsable_values_are_rejected() {
        let mut a = args("--queries many --seed 9");
        a.value("--queries", 7usize);
        assert_eq!(a.value("--seed", 1u64), 9);
        let problem = a.try_finish().unwrap_err();
        assert!(problem.starts_with("--queries many: "), "{problem}");
        let mut a = args("--seed 9 --queries");
        a.value("--queries", 7usize);
        assert_eq!(a.try_finish(), Err("--queries needs a value".into()));
    }

    #[test]
    fn unrecognised_flags_are_rejected() {
        let mut a = args("--queries 50 --bogus 1");
        assert_eq!(a.value("--queries", 7usize), 50);
        assert_eq!(a.try_finish(), Err("unrecognised argument --bogus".into()));
    }

    #[test]
    fn persistent_backend_round_trips_and_uses_indexes() {
        // Example 1's pitfall database, through the disk and back.
        let schema = Schema::builder().table("R", ["A"]).table("S", ["A"]).build().unwrap();
        let mut db = Database::new(schema);
        db.replace_table("R", table! { ["A"]; [1], [Value::Null] }).unwrap();
        db.replace_table("S", table! { ["A"]; [Value::Null] }).unwrap();
        let mut session = Session::builder()
            .with_database(persistent_database(&db))
            .with_backend(sqlsem_session::Backend::OptimizedEngine)
            .build();
        assert_eq!(session.database().indexes().len(), 2);

        let not_in = "SELECT DISTINCT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)";
        assert!(session.execute(not_in).unwrap().rows().unwrap().is_empty());
        // A point predicate on an indexed first column really plans an
        // IndexScan, and agrees with the spec interpreter bit for bit.
        let point = "SELECT R.A FROM R WHERE R.A = 1";
        let plan = session.execute(&format!("EXPLAIN {point}")).unwrap();
        assert!(plan.plan().unwrap().contains("IndexScan"), "{plan}");
        let query = sqlsem_parser::compile(point, session.schema()).unwrap();
        let spec = Evaluator::new(&db).eval(&query).unwrap();
        assert_eq!(session.execute(point).unwrap().rows(), Some(&spec));
    }
}
