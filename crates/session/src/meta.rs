//! The `\…` meta commands: the one interpreter behind every front end
//! (the example REPL and `sqlsem-server` both call it), so a command
//! means the same thing — same spellings, same replies — wherever it is
//! typed.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

use sqlsem_core::{Dialect, LogicMode};

use crate::{Backend, Connection};

/// `a|b|c`: the accepted spellings of a setting, for the help line.
fn spellings<T: Display>(all: &[T]) -> String {
    all.iter().map(T::to_string).collect::<Vec<_>>().join("|")
}

impl Connection {
    /// Interprets one `\…` meta command (without its backslash) and
    /// returns the reply to show; `None` means the user asked to quit.
    ///
    /// | command | effect |
    /// |---|---|
    /// | `d` | the schema, the indexes and, when durable, the on-disk footprint |
    /// | `dialect standard\|postgresql\|oracle` | [`Connection::set_dialect`] |
    /// | `logic 3vl\|2vl\|2vl-syntactic-eq` | [`Connection::set_logic`] |
    /// | `backend spec\|naive\|optimized\|vectorized\|adaptive` | [`Connection::set_backend`] |
    /// | `batchsize N` | [`Connection::set_batch_size`] (`N` > 0) |
    /// | `threads N` | [`Connection::set_threads`] (0 = one per core) |
    /// | `q` | quit |
    ///
    /// Anything else — `help`, a typo, a command missing its argument —
    /// answers with the help line, whose spellings are
    /// generated from `Dialect::ALL`, `LogicMode::ALL` and
    /// [`Backend::ALL`]. A front end may handle further commands of its
    /// own before delegating here (`sqlsem-server` answers `\stats`).
    pub fn meta_command(&mut self, command: &str) -> Option<String> {
        /// Parses `arg` and applies it, replying `label: value` or the
        /// parse error.
        fn switch<T: FromStr<Err = String> + Display>(
            label: &str,
            arg: &str,
            set: impl FnOnce(T),
        ) -> String {
            match arg.parse::<T>() {
                Ok(value) => {
                    let reply = format!("{label}: {value}");
                    set(value);
                    reply
                }
                Err(e) => e,
            }
        }

        let mut words = command.split_whitespace();
        Some(match (words.next(), words.next()) {
            (Some("q"), _) => return None,
            (Some("d"), _) => self.describe(),
            (Some("dialect"), Some(arg)) => {
                switch("dialect", arg, |d: Dialect| self.set_dialect(d))
            }
            (Some("logic"), Some(arg)) => switch("logic", arg, |l: LogicMode| self.set_logic(l)),
            (Some("backend"), Some(arg)) => {
                switch("backend", arg, |b: Backend| self.set_backend(b))
            }
            (Some("batchsize"), Some(arg)) => match arg.parse::<usize>() {
                Ok(n) if n > 0 => {
                    self.set_batch_size(n);
                    format!("batch size: {n}")
                }
                _ => format!("unknown batch size {arg:?}: expected a positive integer"),
            },
            (Some("threads"), Some(arg)) => match arg.parse::<usize>() {
                Ok(n) => {
                    self.set_threads(n);
                    format!("threads: {}", if n == 0 { "auto".to_string() } else { n.to_string() })
                }
                Err(_) => format!("unknown thread count {arg:?}: expected an integer (0 = auto)"),
            },
            _ => format!(
                "meta commands: \\d (schema, indexes, storage)  \\dialect <{}>  \\logic <{}>  \
                 \\backend <{}>  \\batchsize <rows>  \\threads <n>  \
                 \\stats (server connections)  \\q (quit)",
                spellings(&Dialect::ALL),
                spellings(&LogicMode::ALL),
                spellings(&Backend::ALL),
            ),
        })
    }

    /// `\d`: the schema, then the index definitions, then — over a
    /// durable database — each table's pages and rows in the last
    /// checkpoint and the WAL bytes logged since. Read-only: it never
    /// checkpoints, since any server client may send it.
    fn describe(&self) -> String {
        let schema = self.schema();
        let mut out =
            if schema.is_empty() { "(no tables)".to_string() } else { schema.to_string() };
        let indexes = self.database().indexes();
        if !indexes.is_empty() {
            out.push_str("\nIndexes:");
            for index in indexes {
                let def = index.def();
                let cols: Vec<String> = def.columns.iter().map(|c| c.to_string()).collect();
                let _ = write!(out, "\n  {} ON {} ({})", def.name, def.table, cols.join(", "));
            }
        }
        self.shared_database().read_storage(|storage| {
            let _ = write!(out, "\nStorage ({}):", storage.dir().display());
            for (table, _) in schema.iter() {
                let stats = storage.table_stats(table.as_str()).unwrap_or_default();
                let _ = write!(
                    out,
                    "\n  {table}: {} pages, {} rows in the last checkpoint",
                    stats.pages, stats.rows
                );
            }
            let _ = write!(out, "\n  WAL: {} bytes since the last checkpoint", storage.wal_len());
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switches_reply_with_the_new_setting_and_apply_it() {
        let mut c = Connection::new();
        assert_eq!(c.meta_command("dialect postgres").unwrap(), "dialect: postgresql");
        assert_eq!(c.meta_command("logic 2vl-syntactic-eq").unwrap(), "logic: 2vl-syntactic-eq");
        assert_eq!(c.meta_command("backend spec").unwrap(), "backend: spec");
        assert_eq!(c.meta_command("batchsize 7").unwrap(), "batch size: 7");
        assert_eq!(c.meta_command("threads 0").unwrap(), "threads: auto");
        assert_eq!(c.dialect(), Dialect::PostgreSql);
        assert_eq!(c.logic(), LogicMode::TwoValuedSyntacticEq);
        assert_eq!(c.backend(), Backend::SpecInterpreter);
        assert_eq!((c.batch_size(), c.threads()), (7, 0));
        assert!(c.meta_command("q").is_none());
    }

    #[test]
    fn rejections_change_nothing_and_the_help_lists_every_spelling() {
        let mut c = Connection::new();
        let err = c.meta_command("logic 4vl").unwrap();
        assert!(err.starts_with("unknown logic \"4vl\""), "{err}");
        assert!(c.meta_command("batchsize 0").unwrap().starts_with("unknown batch size"));
        assert_eq!(
            (c.logic(), c.batch_size()),
            (LogicMode::ThreeValued, crate::DEFAULT_BATCH_SIZE)
        );
        let help = c.meta_command("help").unwrap();
        assert_eq!(help, c.meta_command("dialect").unwrap(), "a missing argument shows the help");
        let all = [spellings(&Dialect::ALL), spellings(&LogicMode::ALL), spellings(&Backend::ALL)];
        assert!(all.iter().all(|s| help.contains(s)), "{help}");
    }

    #[test]
    fn describe_lists_tables_then_indexes() {
        let mut c = Connection::new();
        assert_eq!(c.meta_command("d").unwrap(), "(no tables)");
        c.run_script("CREATE TABLE R (A, B); CREATE INDEX r_a ON R (A)").unwrap();
        assert_eq!(c.meta_command("d").unwrap(), "R(A, B)\nIndexes:\n  r_a ON R (A)");
    }
}
