//! Static analyses that gate the optimizer.
//!
//! Every rewrite in [`crate::optimize`] must be invisible under the §4
//! coincidence criterion, and that criterion counts *error behaviour*:
//! an optimized plan that errors where the naive plan returns rows (or
//! vice versa) is a disagreement. Reordering or eliding predicate
//! evaluations can do exactly that — a pushed-down conjunct runs on
//! input rows the naive plan never reached (another product input was
//! empty), and a pushed filter can empty the product so a later
//! error-raising conjunct never runs. The analyses here make the
//! rewrites safe:
//!
//! * **Totality** ([`pred_total`], [`plan_total`]): proves a predicate or
//!   subplan can never raise a runtime error, using a conservative
//!   per-column type analysis seeded from the actual database instance
//!   (the engine compiles against a concrete `Database`, so column types
//!   are known). Only totally error-free filters are split, pushed, or
//!   turned into hash joins, and only totally error-free `EXISTS`
//!   subplans may stop early.
//! * **Correlation depth** ([`plan_is_correlated`]): decides whether a
//!   subplan reads any frame of the correlation stack outside itself. An
//!   uncorrelated subplan produces the same rows on every execution, so
//!   its result can be cached across outer rows.
//! * **Determinism** ([`plan_has_user_pred`]): user predicates are opaque
//!   host functions; plans invoking them are never cached or reordered.
//!
//! Totality computes something per operator and is written out by hand.
//! The other two ask about *every* predicate and expression position of
//! a plan — a select-list `CASE` branch as much as a `WHERE` — so they
//! are closures over [`Plan::walk`]: complete by construction, not by
//! keeping a list of `match` arms complete.

use sqlsem_core::{AggFunc, Database, Value};

use crate::plan::{AggSpec, Expr, Plan, Pred, SortKey, Term};

/// A conservative set of runtime types a column (or expression) may take,
/// as a bitmask over `NULL`/`BOOL`/`INT`/`STR`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TypeSet(u8);

impl TypeSet {
    const NULL: u8 = 1;
    const BOOL: u8 = 2;
    const INT: u8 = 4;
    const STR: u8 = 8;

    /// No values at all (e.g. a column of an empty table).
    pub(crate) const EMPTY: TypeSet = TypeSet(0);
    /// All types: the conservative "don't know" answer.
    pub(crate) const ALL: TypeSet = TypeSet(0b1111);

    fn of_value(v: &Value) -> TypeSet {
        TypeSet(match v {
            Value::Null => TypeSet::NULL,
            Value::Bool(_) => TypeSet::BOOL,
            Value::Int(_) => TypeSet::INT,
            Value::Str(_) => TypeSet::STR,
        })
    }

    fn union(self, other: TypeSet) -> TypeSet {
        TypeSet(self.0 | other.0)
    }

    /// The set with `NULL` removed — the types that participate in typed
    /// comparisons (`NULL` short-circuits to *unknown* before any type
    /// check in [`Value::sql_cmp`]).
    pub(crate) fn non_null(self) -> TypeSet {
        TypeSet(self.0 & !TypeSet::NULL)
    }

    fn is_empty(self) -> bool {
        self.0 == 0
    }

    pub(crate) fn count(self) -> u32 {
        self.0.count_ones()
    }

    fn is_subset(self, of: u8) -> bool {
        self.0 & !of == 0
    }
}

/// The compile-time image of the runtime correlation stack: one frame of
/// column type sets per enclosing block, innermost last.
pub(crate) type TypeFrames = Vec<Vec<TypeSet>>;

/// Runs `f` with `frame` pushed as the innermost frame.
pub(crate) fn with_frame<R>(
    frames: &mut TypeFrames,
    frame: Vec<TypeSet>,
    f: impl FnOnce(&mut TypeFrames) -> R,
) -> R {
    frames.push(frame);
    let result = f(frames);
    frames.pop();
    result
}

/// The types each expression may take under `frames` (error-capable
/// expressions conservatively take any).
fn exprs_types(exprs: &[Expr], frames: &TypeFrames) -> Vec<TypeSet> {
    exprs.iter().map(|e| expr_types(e, frames).unwrap_or(TypeSet::ALL)).collect()
}

/// Per-column type sets of the rows `plan` produces, under the given
/// outer frames (correlated references resolve against `frames`).
pub(crate) fn col_types(plan: &Plan, frames: &mut TypeFrames, db: &Database) -> Vec<TypeSet> {
    match plan {
        Plan::Project { input, exprs } => {
            let inner = col_types(input, frames, db);
            with_frame(frames, inner, |frames| exprs_types(exprs, frames))
        }
        // Union rows come from both sides; intersect/except output rows
        // are drawn from the left operand.
        Plan::SetOp { op: sqlsem_core::SetOp::Union, left, right, .. } => {
            let l = col_types(left, frames, db);
            let r = col_types(right, frames, db);
            l.iter().zip(r.iter()).map(|(a, b)| a.union(*b)).collect()
        }
        Plan::SetOp { left, .. } => col_types(left, frames, db),
        // An outer join null-pads the dangling side's counterpart: every
        // column of a padded side may additionally be NULL.
        Plan::OuterJoin { kind, left, right, .. } => {
            let mut l = col_types(left, frames, db);
            let mut r = col_types(right, frames, db);
            if kind.keeps_right() {
                for c in &mut l {
                    *c = c.union(TypeSet(TypeSet::NULL));
                }
            }
            if kind.keeps_left() {
                for c in &mut r {
                    *c = c.union(TypeSet(TypeSet::NULL));
                }
            }
            l.extend(r);
            l
        }
        Plan::GroupAggregate { input, keys, aggs, output, .. } => {
            let group = group_frame_types(input, keys, aggs, frames, db);
            with_frame(frames, group, |frames| exprs_types(output, frames))
        }
        // Every other operator lays its inputs' columns side by side
        // (one input: passes them through), then those of the base table
        // it reads. Index lookups produce a subset of the stored rows, so
        // the whole table's column types are a sound (conservative) answer.
        _ => {
            let mut cols: Vec<TypeSet> =
                plan.inputs().flat_map(|p| col_types(p, frames, db)).collect();
            if let Some(Ok(t)) = plan.base_table().map(|t| db.table(t)) {
                let inputs = cols.len();
                cols.resize(inputs + t.arity(), TypeSet::EMPTY);
                let stored = &mut cols[inputs..];
                for row in t.rows() {
                    for (c, v) in stored.iter_mut().zip(row.iter()) {
                        *c = c.union(TypeSet::of_value(v));
                    }
                }
            }
            cols
        }
    }
}

/// The per-column type sets of a [`Plan::GroupAggregate`]'s group frame
/// `keys ++ aggs`, under the given outer frames.
pub(crate) fn group_frame_types(
    input: &Plan,
    keys: &[Expr],
    aggs: &[AggSpec],
    frames: &mut TypeFrames,
    db: &Database,
) -> Vec<TypeSet> {
    let inner = col_types(input, frames, db);
    with_frame(frames, inner, |frames| {
        let mut group = exprs_types(keys, frames);
        group.extend(aggs.iter().map(|spec| agg_result_types(spec, frames)));
        group
    })
}

/// The type set an aggregate's per-group result may take. `COUNT` is
/// always an integer; `SUM`/`AVG` are integer-or-`NULL` (`NULL` for the
/// empty or all-`NULL` group); `MIN`/`MAX` take the argument's non-null
/// types plus `NULL`.
fn agg_result_types(spec: &AggSpec, frames: &TypeFrames) -> TypeSet {
    match spec.func {
        AggFunc::Count => TypeSet(TypeSet::INT),
        AggFunc::Sum | AggFunc::Avg => TypeSet(TypeSet::INT | TypeSet::NULL),
        AggFunc::Min | AggFunc::Max => {
            let arg = spec.arg.as_ref().and_then(|e| expr_types(e, frames)).unwrap_or(TypeSet::ALL);
            TypeSet(arg.non_null().0 | TypeSet::NULL)
        }
    }
}

/// `true` iff computing this aggregate can never raise a runtime error,
/// for inputs consistent with the frames (`frames.last()` must be the
/// input-row frame). `SUM`/`AVG` are conservatively non-total: integer
/// overflow is a (deterministic) runtime error the type analysis cannot
/// bound.
pub(crate) fn agg_total(spec: &AggSpec, frames: &TypeFrames) -> bool {
    match &spec.arg {
        None => spec.func == AggFunc::Count,
        Some(arg) => {
            let Some(types) = expr_types(arg, frames) else { return false };
            match spec.func {
                AggFunc::Count => true,
                AggFunc::Sum | AggFunc::Avg => false,
                // MIN/MAX compare the argument's non-null values with
                // each other: total iff they all share one type.
                AggFunc::Min | AggFunc::Max => types.non_null().count() <= 1,
            }
        }
    }
}

/// Type sets an expression may evaluate to; `None` marks an expression
/// that can raise (a deferred resolution error).
pub(crate) fn expr_types(expr: &Expr, frames: &TypeFrames) -> Option<TypeSet> {
    match expr {
        Expr::Const(v) => Some(TypeSet::of_value(v)),
        Expr::Deferred(_) => None,
        Expr::Col { depth, index } => Some(
            frames
                .len()
                .checked_sub(1 + depth)
                .and_then(|i| frames.get(i))
                .and_then(|f| f.get(*index))
                .copied()
                .unwrap_or(TypeSet::ALL),
        ),
        // Conservatively error-capable: CASE branch predicates and the
        // NULLIF comparison can raise type errors (and may run subplans),
        // and COALESCE's laziness makes its error behaviour depend on
        // the data. None of the totality-gated rewrites apply to them.
        Expr::Case { .. } | Expr::Coalesce(_) | Expr::Nullif(..) => None,
    }
}

/// `true` iff a comparison between values drawn from `l` and `r` can
/// never hit [`Value::sql_cmp`]'s type-mismatch error: one side is
/// always `NULL` (unknown short-circuits first), or both sides share a
/// single non-null type.
fn cmp_total(l: TypeSet, r: TypeSet) -> bool {
    let (l, r) = (l.non_null(), r.non_null());
    l.is_empty() || r.is_empty() || (l.union(r).count() == 1)
}

/// `true` iff evaluating `pred` can never raise a runtime error, for any
/// row consistent with the type frames. `frames.last()` must be the
/// frame the predicate's depth-0 references resolve against.
pub(crate) fn pred_total(pred: &Pred, frames: &mut TypeFrames, db: &Database) -> bool {
    match pred {
        Pred::True | Pred::False => true,
        Pred::Cmp { left, op: _, right } => {
            match (expr_types(left, frames), expr_types(right, frames)) {
                (Some(l), Some(r)) => cmp_total(l, r),
                _ => false,
            }
        }
        Pred::Like { term, pattern, .. } => {
            match (expr_types(term, frames), expr_types(pattern, frames)) {
                (Some(t), Some(p)) => {
                    let (t, p) = (t.non_null(), p.non_null());
                    t.is_empty()
                        || p.is_empty()
                        || (t.is_subset(TypeSet::STR) && p.is_subset(TypeSet::STR))
                }
                _ => false,
            }
        }
        // User predicates are opaque host functions returning `Result`.
        Pred::User { .. } => false,
        Pred::IsNull { expr, .. } => expr_types(expr, frames).is_some(),
        Pred::IsDistinct { left, right, .. } => {
            expr_types(left, frames).is_some() && expr_types(right, frames).is_some()
        }
        Pred::In { exprs, plan, .. } => {
            let Some(tuple) =
                exprs.iter().map(|e| expr_types(e, frames)).collect::<Option<Vec<_>>>()
            else {
                return false;
            };
            if !plan_total(plan, frames, db) {
                return false;
            }
            // The per-row membership test compares the tuple against the
            // subquery's columns with `=` — those comparisons must be
            // total too.
            let sub = col_types(plan, frames, db);
            tuple.len() == sub.len() && tuple.iter().zip(sub.iter()).all(|(a, b)| cmp_total(*a, *b))
        }
        Pred::Exists { plan, .. } => plan_total(plan, frames, db),
        Pred::And(a, b) | Pred::Or(a, b) => pred_total(a, frames, db) && pred_total(b, frames, db),
        Pred::Not(p) => pred_total(p, frames, db),
    }
}

/// `true` iff evaluating the sort keys over `input`'s rows can never
/// raise: every key resolves (no deferred errors) and reads a
/// single-typed column, so neither the comparison nor the key type
/// discipline can fire.
pub(crate) fn sort_keys_total(
    input: &Plan,
    keys: &[SortKey],
    frames: &mut TypeFrames,
    db: &Database,
) -> bool {
    let types = col_types(input, frames, db);
    with_frame(frames, types, |frames| {
        keys.iter().all(|k| expr_types(&k.expr, frames).is_some_and(|t| t.non_null().count() <= 1))
    })
}

/// `true` iff executing `plan` can never raise a runtime error (no
/// deferred resolution failures, no type-mismatch comparisons, no user
/// predicates), under the given outer type frames: its inputs are total,
/// and so are its own terms under the frame the operator pushes for them.
pub(crate) fn plan_total(plan: &Plan, frames: &mut TypeFrames, db: &Database) -> bool {
    if !plan.inputs().all(|p| plan_total(p, frames, db)) {
        return false;
    }
    match plan {
        // No terms. Join keys are plain column references (total by
        // construction), and an index lookup evaluates nothing per row —
        // it can only select a subset of the stored rows.
        Plan::Scan { .. }
        | Plan::Product { .. }
        | Plan::Distinct { .. }
        | Plan::SetOp { .. }
        | Plan::Limit { .. }
        | Plan::HashJoin { .. }
        | Plan::IndexScan { .. }
        | Plan::IndexJoin { .. } => true,
        Plan::Filter { input, pred } => {
            let types = col_types(input, frames, db);
            with_frame(frames, types, |frames| pred_total(pred, frames, db))
        }
        Plan::Project { input, exprs } => {
            let types = col_types(input, frames, db);
            with_frame(frames, types, |frames| {
                exprs.iter().all(|e| expr_types(e, frames).is_some())
            })
        }
        // The padded output types are a superset of the candidate rows
        // ON actually sees, so they are safe as the joined-row frame.
        Plan::OuterJoin { on, .. } => {
            let types = col_types(plan, frames, db);
            with_frame(frames, types, |frames| pred_total(on, frames, db))
        }
        Plan::Sort { input, keys, .. } | Plan::TopK { input, keys, .. } => {
            sort_keys_total(input, keys, frames, db)
        }
        Plan::GroupAggregate { input, keys, aggs, having, output } => {
            let inner = col_types(input, frames, db);
            let per_row = with_frame(frames, inner, |frames| {
                keys.iter().all(|e| expr_types(e, frames).is_some())
                    && aggs.iter().all(|spec| agg_total(spec, frames))
            });
            per_row && {
                let group = group_frame_types(input, keys, aggs, frames, db);
                with_frame(frames, group, |frames| {
                    having.as_ref().is_none_or(|p| pred_total(p, frames, db))
                        && output.iter().all(|e| expr_types(e, frames).is_some())
                })
            }
        }
    }
}

/// `true` iff the subplan reads any correlation frame outside itself:
/// some column reference reaches past every frame pushed within the
/// subplan at its position (see [`Plan::walk`] for the count).
pub(crate) fn plan_is_correlated(plan: &Plan) -> bool {
    let mut escapes = false;
    plan.walk(0, &mut |term, frames| {
        escapes |= matches!(term, Term::Expr(Expr::Col { depth, .. }) if *depth >= frames);
    });
    escapes
}

/// `true` iff the plan invokes any user predicate (an opaque, possibly
/// non-deterministic host function) in any position — a filter, a `CASE`
/// branch of a select item, a grouping key, a nested subplan: such plans
/// are never cached.
pub(crate) fn plan_has_user_pred(plan: &Plan) -> bool {
    let mut found = false;
    plan.walk(0, &mut |term, _| found |= matches!(term, Term::Pred(Pred::User { .. })));
    found
}
