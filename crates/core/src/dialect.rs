//! Dialect and logic-mode switches for the semantics (§4 and §6).
//!
//! The paper's experimental validation requires "minor adjustments" of the
//! Standard semantics so that it captures precisely what a concrete system
//! implements (§4). The two systems the paper validates against are
//! PostgreSQL and Oracle; their documented deviations are encoded in
//! [`Dialect`].
//!
//! Independently of the dialect, §6 studies evaluating the same queries
//! under a *two-valued* logic, with two possible interpretations of the
//! equality predicate; [`LogicMode`] selects among the three resulting
//! semantics.

use std::fmt;
use std::str::FromStr;

/// Which concrete system's behaviour the semantics is adjusted to (§4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Dialect {
    /// The semantics of Figures 4–7, straight from the Standard: `SELECT *`
    /// is context-dependent (the Boolean switch `x`), and ambiguous
    /// references surface as errors when the environment is consulted.
    #[default]
    Standard,
    /// PostgreSQL's adjustment: *compositional* star semantics. A
    /// `SELECT *` block returns the `FROM`–`WHERE` rows directly in every
    /// context, so the Boolean switch disappears and a star over a table
    /// with repeated column names is not an error (Example 2).
    /// Explicitly written ambiguous references are still rejected, as
    /// PostgreSQL rejects them when analysing the query.
    PostgreSql,
    /// Oracle's adjustment: Standard star semantics, but ambiguity is
    /// detected *statically*, the way Oracle rejects Example 2's first
    /// query at compile time even when no row would ever be produced.
    /// (Oracle also spells `EXCEPT` as `MINUS`; that is surface syntax,
    /// handled by the parser and printer, not by the evaluator.)
    Oracle,
}

impl Dialect {
    /// All dialects, for exhaustive validation runs.
    pub const ALL: [Dialect; 3] = [Dialect::Standard, Dialect::PostgreSql, Dialect::Oracle];

    /// `true` iff `SELECT *` is compositional (PostgreSQL): the star block
    /// returns the `FROM`–`WHERE` result unchanged regardless of context.
    pub fn star_is_compositional(self) -> bool {
        matches!(self, Dialect::PostgreSql)
    }

    /// `true` iff the dialect performs a static ambiguity check before
    /// evaluating (how the real RDBMSs behave at compile time).
    pub fn checks_ambiguity_statically(self) -> bool {
        matches!(self, Dialect::PostgreSql | Dialect::Oracle)
    }

    /// The keyword this dialect uses for bag difference.
    pub fn except_keyword(self) -> &'static str {
        match self {
            Dialect::Oracle => "MINUS",
            Dialect::Standard | Dialect::PostgreSql => "EXCEPT",
        }
    }
}

impl fmt::Display for Dialect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dialect::Standard => "standard",
            Dialect::PostgreSql => "postgresql",
            Dialect::Oracle => "oracle",
        })
    }
}

impl FromStr for Dialect {
    type Err = String;

    /// The inverse of `Display`, case-insensitively, plus the `postgres`
    /// shorthand — the spelling every front end (`\dialect`,
    /// `--dialect`) accepts.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("postgres") {
            return Ok(Dialect::PostgreSql);
        }
        from_spelling("dialect", s, &Dialect::ALL)
    }
}

/// The member of `all` that displays as `s` (case-insensitively), or a
/// rejection message listing all of them.
fn from_spelling<T: Copy + fmt::Display>(what: &str, s: &str, all: &[T]) -> Result<T, String> {
    let lower = s.to_ascii_lowercase();
    all.iter().copied().find(|v| v.to_string() == lower).ok_or_else(|| {
        let expected: Vec<String> = all.iter().map(T::to_string).collect();
        format!("unknown {what} {s:?}: expected one of {}", expected.join(", "))
    })
}

/// Which logic conditions are evaluated under (§6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LogicMode {
    /// SQL's three-valued Kleene logic (Figures 1 and 6) — the Standard
    /// behaviour.
    #[default]
    ThreeValued,
    /// The two-valued semantics `⟦·⟧₂ᵥ` obtained by conflating `f` and
    /// `u` at every predicate: `P(t̄)` is `t` iff `P` holds on all-non-null
    /// arguments, and `f` otherwise (§6, first interpretation).
    TwoValuedConflate,
    /// The two-valued semantics in which the equality predicate is
    /// interpreted as *syntactic* equality `≐` of Definition 2
    /// (`NULL ≐ NULL` is `t`), while every other predicate conflates as in
    /// [`LogicMode::TwoValuedConflate`] (§6, second interpretation).
    TwoValuedSyntacticEq,
}

impl LogicMode {
    /// All logic modes.
    pub const ALL: [LogicMode; 3] =
        [LogicMode::ThreeValued, LogicMode::TwoValuedConflate, LogicMode::TwoValuedSyntacticEq];

    /// `true` for the two §6 modes.
    pub fn is_two_valued(self) -> bool {
        !matches!(self, LogicMode::ThreeValued)
    }
}

impl fmt::Display for LogicMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LogicMode::ThreeValued => "3vl",
            LogicMode::TwoValuedConflate => "2vl",
            LogicMode::TwoValuedSyntacticEq => "2vl-syntactic-eq",
        })
    }
}

impl FromStr for LogicMode {
    type Err = String;

    /// The inverse of `Display`, case-insensitively: `3vl`, `2vl` or
    /// `2vl-syntactic-eq`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        from_spelling("logic", s, &LogicMode::ALL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_compositionality() {
        assert!(!Dialect::Standard.star_is_compositional());
        assert!(Dialect::PostgreSql.star_is_compositional());
        assert!(!Dialect::Oracle.star_is_compositional());
    }

    #[test]
    fn static_checks() {
        assert!(!Dialect::Standard.checks_ambiguity_statically());
        assert!(Dialect::PostgreSql.checks_ambiguity_statically());
        assert!(Dialect::Oracle.checks_ambiguity_statically());
    }

    #[test]
    fn oracle_spells_minus() {
        assert_eq!(Dialect::Oracle.except_keyword(), "MINUS");
        assert_eq!(Dialect::Standard.except_keyword(), "EXCEPT");
    }

    #[test]
    fn logic_mode_classification() {
        assert!(!LogicMode::ThreeValued.is_two_valued());
        assert!(LogicMode::TwoValuedConflate.is_two_valued());
        assert!(LogicMode::TwoValuedSyntacticEq.is_two_valued());
    }

    #[test]
    fn displays_are_stable() {
        assert_eq!(Dialect::PostgreSql.to_string(), "postgresql");
        assert_eq!(LogicMode::TwoValuedSyntacticEq.to_string(), "2vl-syntactic-eq");
    }

    #[test]
    fn parsing_inverts_display() {
        for d in Dialect::ALL {
            assert_eq!(d.to_string().parse(), Ok(d));
            assert_eq!(d.to_string().to_uppercase().parse(), Ok(d));
        }
        for l in LogicMode::ALL {
            assert_eq!(l.to_string().parse(), Ok(l));
        }
        assert_eq!("postgres".parse(), Ok(Dialect::PostgreSql));
        let err = "mysql".parse::<Dialect>().unwrap_err();
        assert_eq!(err, "unknown dialect \"mysql\": expected one of standard, postgresql, oracle");
        let err = "4vl".parse::<LogicMode>().unwrap_err();
        assert_eq!(err, "unknown logic \"4vl\": expected one of 3vl, 2vl, 2vl-syntactic-eq");
    }
}
