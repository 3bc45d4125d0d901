//! The one name for "who evaluates a query".
//!
//! The paper's whole point is that a single formal semantics stands
//! behind many consumers. The workspace has five evaluators — the
//! denotational spec interpreter ([`sqlsem_core::Evaluator`]), the
//! engine with its optimizer disabled, the engine with it enabled, the
//! engine driving its plans through the columnar batch executor, and
//! the adaptive dispatcher choosing between the last two per query —
//! and the [`Backend`] enum names them, so the `Session` API, the §4
//! harness and the optimizer gauntlet select an evaluation strategy by
//! value. The mapping from a `Backend` to a configured evaluator lives
//! in one place, `sqlsem-session`'s `Connection`.

use std::fmt;
use std::str::FromStr;

/// Which evaluation strategy a session (or harness) runs queries with.
///
/// All five implement the same semantics — the optimizer gauntlet's
/// standing result is that they are indistinguishable under the paper's
/// coincidence criterion — but they differ in pedigree and speed:
///
/// * [`Backend::SpecInterpreter`] is the executable specification
///   (Figures 4–7, environments and all), naive by design;
/// * [`Backend::NaiveEngine`] is the independent positional-plan engine
///   with its optimizer off — the §4 oracle stand-in;
/// * [`Backend::OptimizedEngine`] adds predicate pushdown, hash
///   equi-joins, subquery caching and `EXISTS` early exit;
/// * [`Backend::VectorizedEngine`] runs the optimized plans
///   batch-at-a-time through the columnar executor
///   ([`crate::vexec::VecExecutor`]);
/// * [`Backend::Adaptive`] (the default) dispatches per query: the
///   vectorized executor over big inputs, the row engine below the
///   calibrated [`crate::ADAPTIVE_ROW_CUTOFF`], where batch setup
///   overhead dominates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The denotational interpreter `⟦·⟧` of `sqlsem-core`.
    SpecInterpreter,
    /// The physical-plan engine, optimizations off.
    NaiveEngine,
    /// The physical-plan engine, optimizations on.
    OptimizedEngine,
    /// The physical-plan engine with optimizations on, executed
    /// batch-at-a-time over columnar batches.
    VectorizedEngine,
    /// Per-query dispatch between the optimized row engine and the
    /// vectorized executor, by estimated input size (the default).
    #[default]
    Adaptive,
}

impl Backend {
    /// All backends, for exhaustive differential sweeps.
    pub const ALL: [Backend; 5] = [
        Backend::SpecInterpreter,
        Backend::NaiveEngine,
        Backend::OptimizedEngine,
        Backend::VectorizedEngine,
        Backend::Adaptive,
    ];
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::SpecInterpreter => "spec",
            Backend::NaiveEngine => "naive",
            Backend::OptimizedEngine => "optimized",
            Backend::VectorizedEngine => "vectorized",
            Backend::Adaptive => "adaptive",
        })
    }
}

impl FromStr for Backend {
    type Err = String;

    /// Parses the `--backend` spelling used by the experiment binaries:
    /// `spec`, `naive`, `optimized`, `vectorized` or `adaptive`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "spec" | "spec-interpreter" | "interpreter" => Ok(Backend::SpecInterpreter),
            "naive" | "naive-engine" => Ok(Backend::NaiveEngine),
            "optimized" | "optimized-engine" | "engine" => Ok(Backend::OptimizedEngine),
            "vectorized" | "vectorized-engine" | "vec" => Ok(Backend::VectorizedEngine),
            "adaptive" | "auto" => Ok(Backend::Adaptive),
            other => Err(format!(
                "unknown backend {other:?}: expected one of {}",
                Backend::ALL.map(|b| b.to_string()).join(", ")
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("spec".parse::<Backend>().unwrap(), Backend::SpecInterpreter);
        assert_eq!("NAIVE".parse::<Backend>().unwrap(), Backend::NaiveEngine);
        assert_eq!("optimized".parse::<Backend>().unwrap(), Backend::OptimizedEngine);
        assert_eq!("vectorized".parse::<Backend>().unwrap(), Backend::VectorizedEngine);
        assert_eq!("vec".parse::<Backend>().unwrap(), Backend::VectorizedEngine);
        assert_eq!("adaptive".parse::<Backend>().unwrap(), Backend::Adaptive);
        assert_eq!("auto".parse::<Backend>().unwrap(), Backend::Adaptive);
        assert!("postgres".parse::<Backend>().is_err());
        for b in Backend::ALL {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        assert_eq!(Backend::default(), Backend::Adaptive);
    }

    #[test]
    fn storage_is_not_a_backend() {
        // "The database went through the disk" is a property of the
        // database argument, not an evaluator.
        for spelling in ["persistent", "storage", "durable"] {
            let err = spelling.parse::<Backend>().unwrap_err();
            assert!(err.ends_with("spec, naive, optimized, vectorized, adaptive"), "{err}");
        }
    }

    #[test]
    fn all_lists_every_variant() {
        // No wildcard arm: a new variant fails to compile here — list
        // it in `Backend::ALL` at the position it is given.
        for (i, b) in Backend::ALL.into_iter().enumerate() {
            let position = match b {
                Backend::SpecInterpreter => 0,
                Backend::NaiveEngine => 1,
                Backend::OptimizedEngine => 2,
                Backend::VectorizedEngine => 3,
                Backend::Adaptive => 4,
            };
            assert_eq!(position, i);
        }
    }
}
