//! Physical plans: the engine's compiled representation of queries.
//!
//! Unlike the denotational evaluator — which interprets the AST directly
//! and resolves full names against *environments* at every step — the
//! engine compiles each query block into a tree of plan operators whose
//! column references are **positional**: a reference is a pair
//! `(depth, index)` meaning "column `index` of the row being produced
//! `depth` blocks up the correlation stack". All name resolution happens
//! once, at plan time, exactly like an RDBMS binds names when compiling a
//! statement. This makes the engine a structurally independent
//! implementation, which is what gives the §4 differential validation its
//! force.
//!
//! One plan tree serves two executors: the row-at-a-time
//! [`Executor`](crate::exec::Executor) interprets every operator
//! tuple-by-tuple, while the vectorized
//! [`VecExecutor`](crate::vexec::VecExecutor) executes `Scan`,
//! `Filter`, `Project`, `HashJoin` and `GroupAggregate` over columnar
//! batches (kernel or guarded per-row, as decided by
//! `route_batches` in `crate::optimize`) and the
//! order-sensitive operators on materialized rows. The positional,
//! flat-expression discipline here is what makes the columnar kernels
//! possible at all: a `Col { depth: 0, index }` *is* a column of the
//! batch, with no name resolution left to do per value.
//!
//! ## The shape of the IR, stated once
//!
//! Every rewrite and analysis depends on one structural fact: *which
//! parts of a plan node are evaluated under one more correlation frame*.
//! This module is its only home. `Plan::inputs` lists a node's child
//! plans (nothing is pushed around them); `each_term!` lists its own
//! predicates and expressions — each evaluated under exactly one more
//! frame, with the reason per operator; `each_pred_child!` and
//! `each_expr_child!` say that predicates, the `CASE`/`COALESCE`/`NULLIF`
//! combinators and `IN`/`EXISTS` subplans push nothing. Two walks are
//! built on them: `Plan::walk`, read-only, reports every predicate and
//! expression node with its frame count; `Plan::cols_mut` hands out
//! every column reference for rewriting. Whatever needs to look
//! *through* a plan — correlation, determinism, the columns a conjunct
//! reads, re-indexing a pushed conjunct, `EXPLAIN`'s subplan listing —
//! is a closure over one of the two. What is still written out per
//! variant computes something per operator instead (column types and
//! totality in `crate::analysis`, `route_batches`, rendering, the
//! executors), so a new variant is threaded through the macros here and
//! then only through code that has something to say about it.

use sqlsem_core::ast::JoinKind;
use sqlsem_core::{AggFunc, CmpOp, EvalError, Name, Value};

/// A compiled scalar expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal constant (or `NULL`).
    Const(Value),
    /// A positional column reference: column `index` of the frame `depth`
    /// levels up the correlation stack (0 = the current block's row).
    Col {
        /// How many blocks up the correlation stack.
        depth: usize,
        /// Column position within that frame.
        index: usize,
    },
    /// A searched `CASE`: the first branch whose predicate is *true*
    /// (under the active logic mode) yields its expression; otherwise the
    /// `ELSE` expression, or `NULL` when it is absent. Branch predicates
    /// are full [`Pred`]s and may contain subplans, which is why an
    /// expression containing a `Case` is evaluated through the same
    /// mutable executor state as predicates.
    Case {
        /// `WHEN p THEN e` branches, in source order.
        branches: Vec<(Pred, Expr)>,
        /// The `ELSE` expression, `None` when omitted (yields `NULL`).
        else_: Option<Box<Expr>>,
    },
    /// `COALESCE(e₁, …, eₙ)`: the first non-`NULL` operand, evaluated
    /// lazily left to right — operands after the first non-`NULL` one are
    /// not evaluated, so their errors are not raised.
    Coalesce(Vec<Expr>),
    /// `NULLIF(e₁, e₂)`: `NULL` when `e₁ = e₂` is *true* under the active
    /// logic mode, otherwise `e₁`. Both operands are always evaluated,
    /// and the comparison can raise a type error.
    Nullif(Box<Expr>, Box<Expr>),
    /// A reference that failed to resolve under the *Standard* dialect.
    /// The Figures 4–7 semantics surfaces ambiguous/unbound references
    /// only when the environment is consulted, so for that dialect the
    /// engine defers the error to evaluation time: the query succeeds if
    /// the expression is never reached (e.g. the table is empty). The
    /// PostgreSQL/Oracle dialects reject at compile time instead.
    Deferred(sqlsem_core::EvalError),
}

/// A compiled condition.
#[derive(Clone, Debug, PartialEq)]
pub enum Pred {
    /// `TRUE`
    True,
    /// `FALSE`
    False,
    /// `e₁ op e₂`
    Cmp {
        /// Left expression.
        left: Expr,
        /// Operator.
        op: CmpOp,
        /// Right expression.
        right: Expr,
    },
    /// `e [NOT] LIKE p`
    Like {
        /// Matched expression.
        term: Expr,
        /// Pattern expression.
        pattern: Expr,
        /// `NOT LIKE`?
        negated: bool,
    },
    /// A user predicate from the registry.
    User {
        /// Registered name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `e IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: Expr,
        /// Negated?
        negated: bool,
    },
    /// `e₁ IS [NOT] DISTINCT FROM e₂` — syntactic (in)equality.
    IsDistinct {
        /// Left expression.
        left: Expr,
        /// Right expression.
        right: Expr,
        /// `true` for `IS NOT DISTINCT FROM`.
        negated: bool,
    },
    /// `ē [NOT] IN (subplan)`
    In {
        /// The tuple of expressions.
        exprs: Vec<Expr>,
        /// The compiled subquery.
        plan: Box<Plan>,
        /// Negated?
        negated: bool,
        /// Cache slot for the materialized subquery rows, assigned by the
        /// optimizer when the subplan is uncorrelated and deterministic
        /// (so it executes once per query rather than once per outer row).
        /// `None` in naive plans.
        cache: Option<usize>,
    },
    /// `EXISTS (subplan)`
    Exists {
        /// The compiled subquery.
        plan: Box<Plan>,
        /// When `true`, execution may stop after the first produced row
        /// instead of materializing the whole subquery. Set by the
        /// optimizer only when the subplan is provably error-free, so
        /// skipping later rows cannot suppress a runtime error the naive
        /// execution would raise.
        early_exit: bool,
        /// Cache slot for the subquery's non-emptiness verdict (same
        /// eligibility rules as [`Pred::In::cache`]).
        cache: Option<usize>,
    },
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

/// A plan operator. Every operator produces a bag of rows.
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// Scan a base table.
    Scan {
        /// The base table name.
        table: Name,
    },
    /// N-ary Cartesian product (the `FROM` clause of one block).
    Product {
        /// The inputs, in clause order.
        inputs: Vec<Plan>,
    },
    /// Keep rows satisfying the predicate. Evaluating the predicate
    /// pushes the candidate row onto the correlation stack, so `depth 0`
    /// references inside it (and inside its subplans) see that row.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate.
        pred: Pred,
    },
    /// Map each input row through the expressions. Like `Filter`, pushes
    /// the input row while evaluating.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output expressions, one per output column.
        exprs: Vec<Expr>,
    },
    /// Duplicate elimination `ε`.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// A set operation between two subplans.
    SetOp {
        /// Which operation.
        op: sqlsem_core::SetOp,
        /// Bag (`ALL`) flavour?
        all: bool,
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Hash-based grouping and aggregation (the `GROUP BY`/`HAVING`
    /// fragment). Input rows are bucketed by the (null-safe) `keys`
    /// tuple; each bucket accumulates every aggregate of `aggs`
    /// incrementally; then, per group, `having` is evaluated (if
    /// present) and `output` projects the result row — both against the
    /// *group frame* `keys ++ aggs`, which is pushed on the correlation
    /// stack in place of the input-row frame.
    ///
    /// With empty `keys` the operator computes the implicit single
    /// group: exactly one group exists even over an empty input, which
    /// is how `COUNT(*)` over an empty table yields `0`.
    GroupAggregate {
        /// Input plan (the `FROM`–`WHERE` part of the block).
        input: Box<Plan>,
        /// Grouping key expressions, evaluated per input row.
        keys: Vec<Expr>,
        /// The block's aggregates (select list + having, deduplicated).
        aggs: Vec<AggSpec>,
        /// The `HAVING` predicate, evaluated per group against the group
        /// frame; `None` when the clause is absent.
        having: Option<Pred>,
        /// Output expressions, one per output column, against the group
        /// frame.
        output: Vec<Expr>,
    },
    /// An outer join `left JOIN right ON on` (one `FROM`-clause join
    /// tree node). Produces, in the canonical order of the semantics:
    /// for each left row (in order) its joining right rows (in order),
    /// with a null-padded row inline when a kept left row has no
    /// counterpart; then the dangling right rows (in order), null-padded
    /// on the left, when the kind keeps the right side. A row is
    /// *dangling* iff `on` is **true** for no counterpart — an *unknown*
    /// verdict neither joins the pair nor blocks the padding. The output
    /// row layout is `left ++ right`. Evaluating `on` pushes the
    /// candidate joined row onto the correlation stack, exactly like
    /// [`Plan::Filter`] does.
    OuterJoin {
        /// Which sides keep dangling rows.
        kind: JoinKind,
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// The `ON` condition, over the joined row at depth 0.
        on: Pred,
    },
    /// Hash equi-join: the rows of `left × right` whose key columns join,
    /// produced by building a hash table on `right` and probing it with
    /// `left`. Introduced by the optimizer for equality conjuncts that
    /// span two inputs of a [`Plan::Product`]; the output row layout is
    /// `left ++ right`, identical to the product it replaces.
    HashJoin {
        /// Left (probe) input.
        left: Box<Plan>,
        /// Right (build) input.
        right: Box<Plan>,
        /// The join keys, all of which must match for a pair to join.
        keys: Vec<JoinKey>,
    },
    /// Full stable sort: the list layer's `ORDER BY`, compiled over the
    /// block's output (above projection and `Distinct`). Tied rows keep
    /// the input's production order.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys, outermost first.
        keys: Vec<SortKey>,
    },
    /// `OFFSET`/`LIMIT` on an ordered (or bare) list: skip `offset`
    /// rows, keep at most `limit`.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// `LIMIT n`; `None` when only an `OFFSET` was written.
        limit: Option<u64>,
        /// `OFFSET m` (0 when absent).
        offset: u64,
    },
    /// The optimizer's rewrite of `Sort` + `Limit k`: a bounded
    /// binary-heap top-k that keeps at most `offset + limit` rows in
    /// memory while streaming its input, then drops the first `offset`.
    /// Computes exactly the same list as the pair it replaces. The
    /// rewrite is gated on the sort keys being provably total
    /// (resolvable, single-typed): the streaming top-k interleaves key
    /// evaluation with input production, so an error-capable key could
    /// otherwise fire before the input's own error and flip the error
    /// character.
    TopK {
        /// Input plan (streamed through a cursor).
        input: Box<Plan>,
        /// Sort keys, outermost first.
        keys: Vec<SortKey>,
        /// `LIMIT n`.
        limit: u64,
        /// `OFFSET m` (0 when absent).
        offset: u64,
    },
    /// The optimizer's rewrite of `Filter` over `Scan` when a secondary
    /// index covers the filtered columns: read only the matching row ids
    /// out of the index instead of testing every stored row. Posting
    /// lists are kept in ascending row-id order, so the operator emits
    /// rows in *insertion order* — byte-identical to the filtered heap
    /// scan it replaces, never in index-key order. The rewrite is gated
    /// on the consumed comparisons being provably total (single-typed
    /// column, matching constant, unpoisoned index), so index lookup can
    /// never silently skip a row whose evaluation would have raised.
    IndexScan {
        /// The scanned base table.
        table: Name,
        /// The chosen index.
        index: Name,
        /// The index's key column names in key order, carried so
        /// `EXPLAIN` can print the lookup without schema access.
        keys: Vec<Name>,
        /// How matching row ids are selected from the index.
        op: IndexOp,
    },
    /// Index nested-loop equi-join: [`Plan::HashJoin`] with the build
    /// side replaced by point lookups into a base table's index. Probes
    /// the left rows in order; each probe's postings come back in
    /// ascending row-id (= insertion) order, so the output is exactly
    /// the hash join's. Match rule is syntactic value identity on both
    /// paths, so null/`IS NOT DISTINCT FROM` handling carries over
    /// unchanged.
    IndexJoin {
        /// Left (probe) input.
        left: Box<Plan>,
        /// The right side: a base table reached through its index.
        table: Name,
        /// The index probed once per left row; its key columns are
        /// exactly the `right` positions of `keys`.
        index: Name,
        /// The join keys (`left` = probe column in the left rows,
        /// `right` = column position in the indexed table).
        keys: Vec<JoinKey>,
    },
}

/// How a [`Plan::IndexScan`] selects row ids from its index.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexOp {
    /// Equality on the full key tuple, values in index key order — the
    /// rewrite of one `=` conjunct per key column. Constants are
    /// non-`NULL` by construction (a `col = NULL` comparison is never
    /// *true*, and the rewrite leaves it alone).
    Point(Vec<Value>),
    /// The rewrite of equality conjuncts pinning a leading *prefix* of
    /// the key columns plus one ordered comparison `col op value` on
    /// the next key column (`a = 1 AND b > 5` on an index over
    /// `(a, b)`; an empty prefix is a plain range on the first column).
    /// Kept as the original operator so `EXPLAIN` can print the source
    /// predicate; the executor hands it to
    /// [`sqlsem_core::Index::prefix_range`], which exploits the
    /// NULLS-last key order (`NULL` keys rank above every constant
    /// within the prefix region, so iteration stops there, exactly like
    /// the comparison's *unknown* verdict).
    Range {
        /// Non-`NULL` constants equality-pinning the leading key
        /// columns; the ranged column is the one at `prefix.len()`.
        prefix: Vec<Value>,
        /// The comparison operator (`<`, `<=`, `>`, `>=`).
        op: CmpOp,
        /// The non-`NULL` constant bound.
        value: Value,
    },
}

/// One compiled `ORDER BY` key of a [`Plan::Sort`]/[`Plan::TopK`]: an
/// expression over the block's output row (depth 0) plus direction and
/// `NULL` placement. Under the Standard dialect an unresolved key is an
/// [`Expr::Deferred`], raised when the sort operator first runs —
/// mirroring the semantics, which resolves keys whenever the block is
/// evaluated, even over an empty bag.
#[derive(Clone, Debug, PartialEq)]
pub struct SortKey {
    /// The key expression (a depth-0 output column, or deferred).
    pub expr: Expr,
    /// `DESC`?
    pub desc: bool,
    /// Effective `NULL` placement (the NULLS-last default applied).
    pub nulls_first: bool,
}

/// One compiled aggregate of a [`Plan::GroupAggregate`].
#[derive(Clone, Debug, PartialEq)]
pub struct AggSpec {
    /// Which function.
    pub func: AggFunc,
    /// `true` for `F(DISTINCT t)`.
    pub distinct: bool,
    /// The argument, evaluated per input row; `None` is `COUNT(*)`.
    pub arg: Option<Expr>,
}

/// One equality column pair of a [`Plan::HashJoin`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinKey {
    /// Column position in the left input's rows.
    pub left: usize,
    /// Column position in the right input's rows.
    pub right: usize,
    /// `true` for keys compiled from `IS NOT DISTINCT FROM`: the match is
    /// syntactic, so `NULL` joins with `NULL`. Plain `=` keys (`false`)
    /// never match on `NULL` under three-valued logic.
    pub null_safe: bool,
}

impl Plan {
    /// Number of columns this plan produces. Plans are always built with
    /// consistent arities by the compiler, so this is total.
    pub fn arity(&self, db: &sqlsem_core::Database) -> usize {
        match self {
            Plan::Project { exprs, .. } => exprs.len(),
            Plan::GroupAggregate { output, .. } => output.len(),
            Plan::SetOp { left, .. } => left.arity(db),
            // Every other operator lays its inputs' columns side by side
            // (one input: passes them through), then those of the base
            // table it reads.
            _ => {
                let stored = self.base_table().and_then(|t| db.schema().attributes(t));
                self.inputs().map(|p| p.arity(db)).sum::<usize>() + stored.map_or(0, |a| a.len())
            }
        }
    }

    /// Like [`Plan::arity`], but additionally verifies that the plan is
    /// internally arity-consistent (both set-operation operands produce
    /// the same number of columns). The compiler only builds consistent
    /// plans, so this exists for hand-constructed ones: it lets the
    /// executor validate a subplan's arity *once*, up front, instead of
    /// sniffing each produced row — which made error behaviour depend on
    /// row order.
    pub fn arity_checked(&self, db: &sqlsem_core::Database) -> Result<usize, EvalError> {
        // An operator that fixes its own arity (a projection, say) must
        // still sit on consistent inputs for the guarantee to hold below it.
        for input in self.inputs() {
            input.arity_checked(db)?;
        }
        if let Plan::SetOp { left, right, .. } = self {
            let (left, right) = (left.arity(db), right.arity(db));
            if left != right {
                return Err(EvalError::ArityMismatch { context: "set operation", left, right });
            }
        }
        Ok(self.arity(db))
    }
}

/// A predicate or expression node, as the read-only walk reports it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Term<'a> {
    Pred(&'a Pred),
    Expr(&'a Expr),
}

/// **The correlation-frame rule.** Runs `$body` once per *term* of the
/// operator `$plan` — the predicates and expressions the operator itself
/// evaluates, as opposed to its input plans — with `$t` bound to the
/// term and `$under` to the number of frames it is evaluated under.
/// That number is always `$frames + 1`: every operator that evaluates
/// anything first pushes exactly one row onto the correlation stack,
/// and nothing is pushed around an operator's inputs.
///
/// `$plan` may be a `&Plan` or a `&mut Plan`; the bindings follow, which
/// is how one statement of the rule serves both walks.
macro_rules! each_term {
    ($plan:expr, $frames:expr => |$t:ident, $under:ident| $body:expr) => {{
        let $under = $frames + 1;
        match $plan {
            // Inputs only. Join keys are column positions in the inputs'
            // rows and index operands are constants — neither is a term,
            // neither reads the correlation stack.
            Plan::Scan { .. }
            | Plan::Product { .. }
            | Plan::Distinct { .. }
            | Plan::SetOp { .. }
            | Plan::Limit { .. }
            | Plan::HashJoin { .. }
            | Plan::IndexScan { .. }
            | Plan::IndexJoin { .. } => {}
            // The candidate row (for a join: the candidate joined row)
            // is pushed while the condition is evaluated.
            Plan::Filter { pred: $t, .. } | Plan::OuterJoin { on: $t, .. } => $body,
            // The input row is pushed while it is mapped.
            Plan::Project { exprs, .. } => {
                for $t in exprs {
                    $body
                }
            }
            // Keys are read off the block's output row, pushed like a
            // projection's input row.
            Plan::Sort { keys, .. } | Plan::TopK { keys, .. } => {
                for SortKey { expr: $t, .. } in keys {
                    $body
                }
            }
            // Keys and aggregate arguments see the input row; `having`
            // and `output` see the group frame `keys ++ aggs`, pushed *in
            // place of* the input row — one frame either way.
            Plan::GroupAggregate { keys, aggs, having, output, .. } => {
                for $t in keys {
                    $body
                }
                for AggSpec { arg, .. } in aggs {
                    if let Some($t) = arg {
                        $body
                    }
                }
                if let Some($t) = having {
                    $body
                }
                for $t in output {
                    $body
                }
            }
        }
    }};
}

/// Runs `$body` once per child of the predicate `$pred` (`&` or `&mut`),
/// with `$c` bound to it: operand expressions, sub-predicates, and the
/// subplan of `IN`/`EXISTS`. All of them sit under the predicate's own
/// frame count — in particular a subplan *starts* there: running it
/// pushes nothing until one of its operators evaluates a term.
macro_rules! each_pred_child {
    ($pred:expr, |$c:ident| $body:expr) => {
        match $pred {
            Pred::True | Pred::False => {}
            Pred::Cmp { left, right, .. } | Pred::IsDistinct { left, right, .. } => {
                for $c in [left, right] {
                    $body
                }
            }
            Pred::Like { term, pattern, .. } => {
                for $c in [term, pattern] {
                    $body
                }
            }
            Pred::User { args, .. } => {
                for $c in args {
                    $body
                }
            }
            Pred::IsNull { expr: $c, .. } => $body,
            Pred::In { exprs, plan, .. } => {
                for $c in exprs {
                    $body
                }
                let $c = plan;
                $body
            }
            Pred::Exists { plan: $c, .. } => $body,
            Pred::Not($c) => $body,
            Pred::And(a, b) | Pred::Or(a, b) => {
                for $c in [a, b] {
                    $body
                }
            }
        }
    };
}

/// Runs `$body` once per child of the expression `$expr` (`&` or
/// `&mut`), with `$c` bound to it. The combinators evaluate in place —
/// `CASE` branch predicates, `COALESCE` and `NULLIF` operands all see
/// the same stack as the expression itself; nothing is pushed.
macro_rules! each_expr_child {
    ($expr:expr, |$c:ident| $body:expr) => {
        match $expr {
            Expr::Const(_) | Expr::Col { .. } | Expr::Deferred(_) => {}
            Expr::Case { branches, else_ } => {
                for (when, then) in branches {
                    let $c = when;
                    $body;
                    let $c = then;
                    $body
                }
                if let Some($c) = else_ {
                    $body
                }
            }
            Expr::Coalesce(exprs) => {
                for $c in exprs {
                    $body
                }
            }
            Expr::Nullif(a, b) => {
                for $c in [a, b] {
                    $body
                }
            }
        }
    };
}

/// The input plans of `$plan` as two slices (`&` or `&mut`, per
/// `$one`/`$ref`) to be chained: operators have a list of inputs, one,
/// or a left and a right.
macro_rules! plan_inputs {
    ($plan:expr, $one:path, $($ref:tt)+) => {
        match $plan {
            Plan::Scan { .. } | Plan::IndexScan { .. } => Default::default(),
            Plan::Product { inputs } => (inputs, Default::default()),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct { input }
            | Plan::GroupAggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::TopK { input, .. }
            | Plan::IndexJoin { left: input, .. } => ($one($($ref)+ **input), Default::default()),
            Plan::SetOp { left, right, .. }
            | Plan::HashJoin { left, right, .. }
            | Plan::OuterJoin { left, right, .. } => {
                ($one($($ref)+ **left), $one($($ref)+ **right))
            }
        }
    };
}

impl Plan {
    /// The operator's input plans, in output-layout order. Subplans
    /// inside predicates are *not* inputs — they are reached through
    /// the operator's terms (see [`Plan::walk`]).
    pub(crate) fn inputs(&self) -> impl Iterator<Item = &Plan> {
        let (some, more): (&[Plan], &[Plan]) = plan_inputs!(self, std::slice::from_ref, &);
        some.iter().chain(more)
    }

    /// [`Plan::inputs`], mutably.
    pub(crate) fn inputs_mut(&mut self) -> impl Iterator<Item = &mut Plan> {
        let (some, more): (&mut [Plan], &mut [Plan]) =
            plan_inputs!(self, std::slice::from_mut, &mut);
        some.iter_mut().chain(more)
    }

    /// The base table whose stored rows the operator reads directly.
    pub(crate) fn base_table(&self) -> Option<&Name> {
        match self {
            Plan::Scan { table }
            | Plan::IndexScan { table, .. }
            | Plan::IndexJoin { table, .. } => Some(table),
            _ => None,
        }
    }

    /// The read-only walk: reports every predicate and expression node
    /// of the plan — inputs first, then the operator's own terms,
    /// descending through `IN`/`EXISTS` into subplans — together with
    /// the number of correlation frames pushed between the walk's root
    /// (which counts `frames`) and that node. So a `Col { depth, .. }`
    /// reported with `n` frames is bound inside the walked tree iff
    /// `depth < n`, and otherwise reads frame `depth - n` of the stack
    /// as it stood at the root: `depth == n` is the row that was
    /// innermost when the walk started.
    pub(crate) fn walk<'a, F: FnMut(Term<'a>, usize)>(&'a self, frames: usize, f: &mut F) {
        for input in self.inputs() {
            input.walk(frames, f);
        }
        self.walk_terms(frames, f);
    }

    /// [`Plan::walk`] over the operator's own terms only, not its inputs.
    pub(crate) fn walk_terms<'a, F: FnMut(Term<'a>, usize)>(&'a self, frames: usize, f: &mut F) {
        each_term!(self, frames => |t, under| t.walk(under, f));
    }

    /// The mutable walk: hands every [`Expr::Col`] node of the plan to
    /// `f` (which may rewrite or replace it) with the same frame count
    /// [`Plan::walk`] reports for it.
    pub(crate) fn cols_mut<F: FnMut(&mut Expr, usize)>(&mut self, frames: usize, f: &mut F) {
        for input in self.inputs_mut() {
            input.cols_mut(frames, f);
        }
        each_term!(self, frames => |t, under| t.cols_mut(under, f));
    }
}

impl Pred {
    /// [`Plan::walk`] from a predicate evaluated under `frames` frames.
    pub(crate) fn walk<'a, F: FnMut(Term<'a>, usize)>(&'a self, frames: usize, f: &mut F) {
        f(Term::Pred(self), frames);
        each_pred_child!(self, |c| c.walk(frames, f));
    }

    /// [`Plan::cols_mut`] from a predicate evaluated under `frames` frames.
    pub(crate) fn cols_mut<F: FnMut(&mut Expr, usize)>(&mut self, frames: usize, f: &mut F) {
        each_pred_child!(self, |c| c.cols_mut(frames, f));
    }
}

impl Expr {
    /// [`Plan::walk`] from an expression evaluated under `frames` frames.
    pub(crate) fn walk<'a, F: FnMut(Term<'a>, usize)>(&'a self, frames: usize, f: &mut F) {
        f(Term::Expr(self), frames);
        each_expr_child!(self, |c| c.walk(frames, f));
    }

    /// [`Plan::cols_mut`] from an expression evaluated under `frames`
    /// frames.
    pub(crate) fn cols_mut<F: FnMut(&mut Expr, usize)>(&mut self, frames: usize, f: &mut F) {
        if let Expr::Col { .. } = self {
            return f(self, frames);
        }
        each_expr_child!(self, |c| c.cols_mut(frames, f));
    }
}

/// A fully compiled query: the root plan plus its output column names.
#[derive(Clone, Debug, PartialEq)]
pub struct Prepared {
    /// The root operator.
    pub plan: Plan,
    /// Output column names, in order (possibly repeated).
    pub columns: Vec<Name>,
    /// Number of subquery cache slots the optimizer allocated (0 for
    /// naive plans); the executor sizes its cache accordingly.
    pub cache_slots: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A marker: a column reference no real frame could bind, whose
    /// index names the term position under test.
    fn mark(k: usize) -> Expr {
        Expr::Col { depth: 99, index: k }
    }

    fn mark_pred(k: usize) -> Pred {
        Pred::IsNull { expr: mark(k), negated: false }
    }

    fn scan() -> Box<Plan> {
        Box::new(Plan::Scan { table: "R".into() })
    }

    fn filter(k: usize) -> Box<Plan> {
        Box::new(Plan::Filter { input: scan(), pred: mark_pred(k) })
    }

    /// The frame count both walks report for markers `0..n` of `plan`,
    /// walked from 0.
    fn frames_of(plan: &Plan) -> Vec<usize> {
        let mut seen = Vec::new();
        plan.walk(0, &mut |term, frames| {
            if let Term::Expr(Expr::Col { depth: 99, index }) = term {
                seen.push((*index, frames));
            }
        });
        let mut seen_mut = Vec::new();
        plan.clone().cols_mut(0, &mut |col, frames| {
            if let Expr::Col { depth: 99, index } = col {
                seen_mut.push((*index, frames));
            }
        });
        assert_eq!(seen, seen_mut, "the two walks disagree on {plan:?}");
        seen.sort_unstable();
        assert!(seen.iter().map(|(k, _)| *k).eq(0..seen.len()), "markers lost: {seen:?}");
        seen.into_iter().map(|(_, frames)| frames).collect()
    }

    #[test]
    fn the_walks_report_the_frame_count_of_every_term_position() {
        let key = JoinKey { left: 0, right: 0, null_safe: false };
        let sort_key = |k| SortKey { expr: mark(k), desc: false, nulls_first: false };
        let agg = |arg| AggSpec { func: AggFunc::Min, distinct: false, arg };
        // Filter[1] m0 IN (Project[2] m1 over Filter[2] EXISTS (Filter[3] m2)),
        // the IN itself sitting in a CASE branch of a comparison.
        let exists = Pred::Exists { plan: filter(2), early_exit: false, cache: None };
        let sub = Plan::Project {
            input: Box::new(Plan::Filter { input: scan(), pred: exists }),
            exprs: vec![mark(1)],
        };
        let site =
            Pred::In { exprs: vec![mark(0)], plan: Box::new(sub), negated: true, cache: None };
        let case = Expr::Case { branches: vec![(site, Expr::Const(Value::Null))], else_: None };
        let nested =
            Pred::Not(Box::new(Pred::IsNull { expr: Expr::Coalesce(vec![case]), negated: false }));
        let cases = [
            // Every term of every operator sees exactly one more frame…
            (*filter(0), vec![1]),
            (
                Plan::OuterJoin {
                    kind: JoinKind::Left,
                    left: scan(),
                    right: scan(),
                    on: mark_pred(0),
                },
                vec![1],
            ),
            (Plan::Project { input: scan(), exprs: vec![mark(0), mark(1)] }, vec![1, 1]),
            (Plan::Sort { input: scan(), keys: vec![sort_key(0)] }, vec![1]),
            (Plan::TopK { input: scan(), keys: vec![sort_key(0)], limit: 1, offset: 0 }, vec![1]),
            (
                Plan::GroupAggregate {
                    input: scan(),
                    keys: vec![mark(0)],
                    aggs: vec![agg(None), agg(Some(mark(1)))],
                    having: Some(mark_pred(2)),
                    output: vec![mark(3)],
                },
                vec![1; 4],
            ),
            // …operators without terms pass their inputs through at the
            // same count…
            (Plan::Product { inputs: vec![*filter(0), *filter(1)] }, vec![1, 1]),
            (Plan::HashJoin { left: filter(0), right: filter(1), keys: vec![key] }, vec![1, 1]),
            (
                Plan::SetOp {
                    op: sqlsem_core::SetOp::Union,
                    all: true,
                    left: filter(0),
                    right: filter(1),
                },
                vec![1, 1],
            ),
            (
                Plan::IndexJoin {
                    left: filter(0),
                    table: "R".into(),
                    index: "i".into(),
                    keys: vec![key],
                },
                vec![1],
            ),
            (Plan::Distinct { input: filter(0) }, vec![1]),
            (Plan::Limit { input: filter(0), limit: None, offset: 0 }, vec![1]),
            // …the combinators push nothing…
            (
                Plan::Project {
                    input: scan(),
                    exprs: vec![
                        Expr::Case {
                            branches: vec![(mark_pred(0), mark(1))],
                            else_: Some(Box::new(mark(2))),
                        },
                        Expr::Coalesce(vec![mark(3), mark(4)]),
                        Expr::Nullif(Box::new(mark(5)), Box::new(mark(6))),
                    ],
                },
                vec![1; 7],
            ),
            // …and a subplan starts at its predicate's count.
            (Plan::Filter { input: scan(), pred: nested }, vec![1, 2, 3]),
        ];
        for (plan, expected) in cases {
            assert_eq!(frames_of(&plan), expected, "{plan:?}");
        }
    }

    /// Every plan of a closed query — as compiled and as optimized — is
    /// closed: no column reference reaches past the frames the plan
    /// itself pushes. If the frame rule under-counted any position, a
    /// reference bound there would be reported as escaping the root.
    #[test]
    fn plans_of_closed_queries_are_closed() {
        use crate::analysis::plan_is_correlated;
        use rand::{rngs::StdRng, SeedableRng};
        use sqlsem_generator::{
            paper_schema, random_database, DataGenConfig, QueryGenConfig, QueryGenerator,
        };
        let schema = paper_schema();
        let subquery_heavy = QueryGenConfig {
            subquery_cond_prob: 0.8,
            correlated_prob: 0.6,
            aggregate_prob: 0.5,
            combinator_prob: 0.3,
            ..QueryGenConfig::small()
        };
        let configs = [QueryGenConfig::small(), QueryGenConfig::outer_join_heavy(), subquery_heavy];
        let mut plans = 0;
        for (c, config) in configs.into_iter().enumerate() {
            let gen = QueryGenerator::new(&schema, config);
            for i in 0..150u64 {
                let mut rng = StdRng::seed_from_u64(0x91a7_0000 + 1000 * c as u64 + i);
                let query = gen.generate(&mut rng);
                let db = random_database(&schema, &DataGenConfig::small(), &mut rng);
                for dialect in sqlsem_core::Dialect::ALL {
                    let Ok(naive) = crate::compile::compile(&query, &db, dialect) else { continue };
                    assert!(!plan_is_correlated(&naive.plan), "{:?}", naive.plan);
                    let optimized = crate::optimize::optimize(naive, &db);
                    assert!(!plan_is_correlated(&optimized.plan), "{:?}", optimized.plan);
                    plans += 2;
                }
            }
        }
        assert!(plans > 1000, "only {plans} plans compiled");
    }
}
