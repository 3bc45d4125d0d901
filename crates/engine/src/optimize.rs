//! The optimizing pass: naive plan → pushed-down, hash-joined, cached plan.
//!
//! The compiler ([`crate::compile`]) emits a structurally naive plan —
//! one `Product` per `FROM` clause with the whole `WHERE` in a single
//! `Filter` on top, and subquery predicates that re-execute their
//! subplans per outer row. This pass rewrites that plan into something an
//! RDBMS would run, while staying *invisible* under the §4 coincidence
//! criterion (same rows, same multiplicities, same error verdicts):
//!
//! 1. **Conjunct splitting + predicate pushdown.** A `Filter` over a
//!    `Product` is split into its top-level conjuncts; each conjunct
//!    whose depth-0 column references fall inside a single product input
//!    is pushed down to a `Filter` directly over that input (references
//!    are re-indexed, including those reaching the product row from
//!    inside nested subqueries).
//! 2. **Hash equi-joins.** Conjuncts of the form `col = col` (or the
//!    null-safe `col IS NOT DISTINCT FROM col`) spanning two different
//!    inputs become [`Plan::HashJoin`] keys; the product is rebuilt as a
//!    left-deep chain of hash joins (and residual cross products), in the
//!    original input order so the row layout is unchanged.
//! 3. **Subquery caching.** `IN`/`EXISTS` subplans that are uncorrelated
//!    (no references escaping the subplan) and deterministic (no user
//!    predicates) get a cache slot: they run once per query instead of
//!    once per candidate row.
//! 4. **`EXISTS` early exit.** Provably error-free `EXISTS` subplans are
//!    marked so the executor may stop after the first produced row
//!    instead of materializing the subquery.
//!
//! Steps 1, 2 and 4 change *when* (or whether) predicate sites get
//! evaluated, which is observable through runtime errors — so they only
//! apply where `crate::analysis` proves every affected conjunct and
//! subplan total. Step 3 only changes *how often* a deterministic subplan
//! runs, so it applies independently of totality. The differential
//! gauntlet (`optimizer_gauntlet`) and the `optimizer_equivalence`
//! property suite hold this pass to the coincidence criterion on
//! thousands of generated queries.

use sqlsem_core::{CmpOp, Database};

use crate::analysis::{
    agg_total, col_types, expr_types, group_frame_types, plan_has_user_pred, plan_is_correlated,
    plan_total, pred_total, sort_keys_total, TypeFrames, TypeSet,
};
use crate::plan::{AggSpec, Expr, IndexOp, JoinKey, Plan, Pred, Prepared, Term};

/// Optimizes a compiled plan. The result computes the same function as
/// the input — same rows, same multiplicities, same error verdicts —
/// under every dialect and logic mode.
pub fn optimize(prepared: Prepared, db: &Database) -> Prepared {
    let mut opt = Optimizer { db, frames: Vec::new(), slots: 0 };
    let plan = opt.plan(prepared.plan);
    Prepared { plan, columns: prepared.columns, cache_slots: opt.slots }
}

/// How the vectorized executor ([`crate::vexec`]) runs one operator:
/// `Kernel` evaluates whole batches speculatively (including rows an
/// earlier filter deselected), `Guarded` evaluates per *selected* row
/// through the embedded row executor so the first error raised is
/// identical to the row engine's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BatchMode {
    /// Speculative whole-batch evaluation — proven error-free.
    Kernel,
    /// Per-selected-row evaluation through the row executor.
    Guarded,
}

/// The batch-routing verdicts for one plan: which `Filter`, `Project`,
/// `GroupAggregate`, `Sort` and `TopK` nodes the vectorized executor
/// may run as speculative kernels, keyed by node address (stable while the
/// borrowed plan is alive — the same device as the executor's per-site
/// `IN` arity check).
pub(crate) struct BatchRoutes {
    modes: std::collections::HashMap<usize, BatchMode>,
}

impl BatchRoutes {
    /// The mode routed for `node`; unknown nodes are conservatively
    /// guarded.
    pub(crate) fn mode(&self, node: &Plan) -> BatchMode {
        let addr = node as *const Plan as usize;
        self.modes.get(&addr).copied().unwrap_or(BatchMode::Guarded)
    }
}

/// Routing analysis for the vectorized executor. Walks every node the
/// batch executor itself drives (subplans inside predicates always run
/// in the row engine and need no routing) and decides, per operator,
/// whether a speculative whole-batch kernel is sound:
///
/// * a `Filter` kernels iff its predicate is pure comparison /
///   null-test / boolean structure (no subqueries, no user predicates,
///   no deferred errors, depth-0 references only) **and**
///   [`pred_total`] proves it error-free for the input's column types —
///   so evaluating even deselected rows cannot raise an error the row
///   engine would not;
/// * a `Project` kernels iff every expression is a constant, a deferred
///   error, or a depth-0 column — a pure gather/broadcast (the executor
///   raises a deferred error iff at least one row is selected, exactly
///   like the row engine);
/// * a `GroupAggregate` kernels iff its keys and aggregate arguments
///   are constants or depth-0 columns (deferred errors fall back, so
///   error order stays the row engine's);
/// * a `Sort`/`TopK` kernels iff every key is a constant or depth-0
///   column *and* provably single-typed, so columnar key extraction
///   plus the shared [`sqlsem_core::order::key_ordering`] rule needs no
///   per-row type discipline.
pub(crate) fn route_batches(plan: &Plan, db: &Database) -> BatchRoutes {
    let mut routes = BatchRoutes { modes: std::collections::HashMap::new() };
    route_node(plan, db, &mut routes);
    routes
}

fn route_node(plan: &Plan, db: &Database, routes: &mut BatchRoutes) {
    for input in plan.inputs() {
        route_node(input, db, routes);
    }
    let kernel = match plan {
        Plan::Filter { input, pred } => {
            kernel_pred(pred, input.arity(db)) && {
                let types = col_types(input, &mut Vec::new(), db);
                pred_total(pred, &mut vec![types], db)
            }
        }
        Plan::Project { input, exprs } => {
            let arity = input.arity(db);
            exprs.iter().all(|e| matches!(e, Expr::Deferred(_)) || kernel_expr(e, arity))
        }
        Plan::GroupAggregate { input, keys, aggs, .. } => {
            let arity = input.arity(db);
            keys.iter().all(|e| kernel_expr(e, arity))
                && aggs.iter().all(|s| s.arg.as_ref().is_none_or(|e| kernel_expr(e, arity)))
        }
        // A `Sort`/`TopK` kernels iff every key is a constant or a
        // depth-0 column **and** the type analysis proves key comparison
        // total (one non-null type per key — the `rewrite_limit` gate):
        // then columnar key extraction with no per-row type discipline
        // raises exactly the row engine's (non-)errors.
        Plan::Sort { input, keys } | Plan::TopK { input, keys, .. } => {
            let arity = input.arity(db);
            keys.iter().all(|k| kernel_expr(&k.expr, arity))
                && sort_keys_total(input, keys, &mut Vec::new(), db)
        }
        // An outer join kernels as a hash join with matched-row
        // bookkeeping iff its ON is a single in-range equi-comparison
        // that spans the two sides **and** the comparison is provably
        // total for the inputs' column types: the hash path never
        // evaluates the comparison value-by-value, so an error-capable
        // one (mixed-type columns) must take the nested-loop fallback.
        Plan::OuterJoin { left, right, on, .. } => {
            outer_equi_shape(on, left.arity(db), right.arity(db)).is_some() && {
                let mut types = col_types(left, &mut Vec::new(), db);
                types.extend(col_types(right, &mut Vec::new(), db));
                pred_total(on, &mut vec![types], db)
            }
        }
        // Nothing to decide: scans, products, joins, set operations and
        // slicing run one way only, and index operators have no batch
        // kernels (the row executor runs them and the batches are
        // chunked from its output).
        _ => return,
    };
    let mode = if kernel { BatchMode::Kernel } else { BatchMode::Guarded };
    routes.modes.insert(plan as *const Plan as usize, mode);
}

/// Matches an outer join's ON of the shape `#0.l = #0.r` where `l` falls
/// in the left input and `r` in the right (either written order),
/// returning the key positions *local to each side*. Only this shape may
/// take the vectorized hash path.
pub(crate) fn outer_equi_shape(
    on: &Pred,
    left_arity: usize,
    right_arity: usize,
) -> Option<JoinKey> {
    let Pred::Cmp {
        left: Expr::Col { depth: 0, index: a },
        op: CmpOp::Eq,
        right: Expr::Col { depth: 0, index: b },
    } = on
    else {
        return None;
    };
    let (l, r) = if a < b { (*a, *b) } else { (*b, *a) };
    (l < left_arity && (left_arity..left_arity + right_arity).contains(&r)).then(|| JoinKey {
        left: l,
        right: r - left_arity,
        null_safe: false,
    })
}

/// Structural half of the filter-kernel gate: only predicates built
/// from batch-evaluable pieces qualify. Subqueries and user predicates
/// never kernel (`IN` in particular stops comparing once its
/// accumulator is true, so a speculative evaluation could raise errors
/// the row engine skips).
fn kernel_pred(pred: &Pred, arity: usize) -> bool {
    let mut kernel = true;
    pred.walk(0, &mut |term, _| {
        kernel &= match term {
            Term::Pred(Pred::User { .. } | Pred::In { .. } | Pred::Exists { .. }) => false,
            Term::Pred(_) => true,
            Term::Expr(e) => kernel_expr(e, arity),
        }
    });
    kernel
}

/// `true` for expressions a kernel can evaluate over a batch: constants
/// (broadcast) and in-range depth-0 columns (gather). Combinators never
/// kernel — their branching and laziness are row-at-a-time semantics.
fn kernel_expr(expr: &Expr, arity: usize) -> bool {
    match expr {
        Expr::Const(_) => true,
        Expr::Col { depth: 0, index } => *index < arity,
        Expr::Col { .. }
        | Expr::Deferred(_)
        | Expr::Case { .. }
        | Expr::Coalesce(_)
        | Expr::Nullif(..) => false,
    }
}

struct Optimizer<'a> {
    db: &'a Database,
    /// Compile-time type frames mirroring the runtime correlation stack.
    frames: TypeFrames,
    /// Next free subquery cache slot.
    slots: usize,
}

impl Optimizer<'_> {
    /// Runs `f` with `frame` pushed as the innermost type frame.
    fn under<R>(&mut self, frame: Vec<TypeSet>, f: impl FnOnce(&mut Self) -> R) -> R {
        self.frames.push(frame);
        let result = f(self);
        self.frames.pop();
        result
    }

    fn plan(&mut self, mut plan: Plan) -> Plan {
        // Inputs first, under the frames already in place: no operator
        // pushes a frame around its inputs.
        for input in plan.inputs_mut() {
            let taken = std::mem::replace(input, Plan::Product { inputs: Vec::new() });
            *input = self.plan(taken);
        }
        match plan {
            // The join itself stays put (its canonical row order is the
            // operator's contract), but ON subqueries get the usual
            // treatment — cache slots and early exit — under the
            // joined-row frame.
            Plan::OuterJoin { kind, left, right, on } => {
                let mut types = col_types(&left, &mut self.frames, self.db);
                types.extend(col_types(&right, &mut self.frames, self.db));
                let on = self.under(types, |opt| opt.pred(on));
                Plan::OuterJoin { kind, left, right, on }
            }
            Plan::Filter { input, pred } => {
                // Annotate the predicate's subqueries (and optimize their
                // plans) under the filter's own frame.
                let input_types = col_types(&input, &mut self.frames, self.db);
                let pred = self.under(input_types, |opt| opt.pred(pred));
                match *input {
                    Plan::Product { inputs } => self.reorder(inputs, pred),
                    input => self.index_filter(input, pred),
                }
            }
            Plan::GroupAggregate { input, keys, aggs, having, output } => {
                // Optimize HAVING subqueries under the group frame, the
                // frame their depth-0 references resolve against.
                let having = having.map(|pred| {
                    let group = group_frame_types(&input, &keys, &aggs, &mut self.frames, self.db);
                    self.under(group, |opt| opt.pred(pred))
                });
                self.push_having(*input, keys, aggs, having, output)
            }
            Plan::Limit { input, limit, offset } => self.rewrite_limit(*input, limit, offset),
            // Every other operator keeps its shape over its optimized
            // inputs — including `TopK`, `IndexScan` and `IndexJoin`,
            // which only this pass produces (so it stays idempotent).
            plan => plan,
        }
    }

    /// `Filter` directly over `Scan` becomes an [`Plan::IndexScan`] (+
    /// residual filter) when a secondary index covers filtered columns.
    /// Gated like `reorder`: **every** conjunct must be provably total
    /// before any is consumed — `AND` never short-circuits, so removing
    /// a conjunct changes which comparisons run, which is observable
    /// through errors unless none can raise. The totality proof is
    /// data-seeded ([`col_types`] reads the stored rows), so it also
    /// subsumes the index's type discipline: a poisoned index implies a
    /// mixed-type column, which already fails `cmp_total`. The
    /// `poisoned` check below is defense in depth.
    fn index_filter(&mut self, input: Plan, pred: Pred) -> Plan {
        let Plan::Scan { table } = &input else {
            return Plan::Filter { input: Box::new(input), pred };
        };
        if self.db.indexes_on(table.as_str()).next().is_none() {
            return Plan::Filter { input: Box::new(input), pred };
        }
        let table = table.clone();
        let conjuncts = split_and(pred);
        let types = col_types(&input, &mut self.frames, self.db);
        let total = self
            .under(types, |opt| conjuncts.iter().all(|c| pred_total(c, &mut opt.frames, opt.db)));
        if !total {
            return filter_over(input, conjuncts);
        }

        // The comparisons an index can serve: `#0.col op const` (or
        // flipped) with a non-NULL constant.
        let shapes: Vec<Option<(usize, CmpOp, &sqlsem_core::Value)>> =
            conjuncts.iter().map(index_cmp_shape).collect();

        // Per index, the equality conjuncts pinning a leading prefix of
        // its key columns — possibly none of them, possibly all.
        let pick = |col: usize, wanted: fn(CmpOp) -> bool| {
            shapes.iter().position(|s| s.is_some_and(|(c, op, _)| c == col && wanted(op)))
        };
        let eq_prefix = |index: &sqlsem_core::Index| -> Vec<usize> {
            index.cols().iter().map_while(|&col| pick(col, |op| op == CmpOp::Eq)).collect()
        };
        let values = |picks: &[usize]| -> Vec<sqlsem_core::Value> {
            picks.iter().map(|&i| shapes[i].expect("picked shape").2.clone()).collect()
        };
        let usable = || self.db.indexes_on(table.as_str()).filter(|index| !index.poisoned());

        // Point lookups first (they consume the most conjuncts), then
        // prefix ranges (equalities pinning leading key columns, one
        // ordered comparison on the next); indexes are tried in
        // creation order, so the choice is deterministic.
        let point = usable().find_map(|index| {
            let picks = eq_prefix(index);
            (picks.len() == index.cols().len())
                .then(|| (index.def().name.clone(), IndexOp::Point(values(&picks)), picks))
        });
        let chosen = point.or_else(|| {
            usable().find_map(|index| {
                let mut picks = eq_prefix(index);
                let next = *index.cols().get(picks.len())?;
                let ranged = pick(next, is_range_op)?;
                let (_, op, value) = shapes[ranged]?;
                let prefix = values(&picks);
                picks.push(ranged);
                let op = IndexOp::Range { prefix, op, value: value.clone() };
                Some((index.def().name.clone(), op, picks))
            })
        });

        let Some((index, op, consumed)) = chosen else {
            return filter_over(input, conjuncts);
        };
        let keys: Vec<sqlsem_core::Name> = {
            let attrs = self.db.schema().attributes(&table).expect("indexed table exists");
            let cols = self.db.index(&index).expect("chosen index exists").cols();
            cols.iter().map(|&c| attrs[c].clone()).collect()
        };
        let scan = Plan::IndexScan { table, index, keys, op };
        let residual: Vec<Pred> = conjuncts
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !consumed.contains(i))
            .map(|(_, c)| c)
            .collect();
        filter_over(scan, residual)
    }

    /// The list-layer rewrites:
    ///
    /// * `Limit k` over `Sort` becomes a [`Plan::TopK`] — a bounded
    ///   binary-heap selection that never keeps more than
    ///   `offset + limit` rows in its sort buffer. Gated, PR-2 style, on
    ///   the *sort keys* being total (resolvable, single-typed): the
    ///   naive pair runs the whole input before touching any key, while
    ///   the streaming top-k interleaves key evaluation with input
    ///   production — with error-capable keys the two raise *different*
    ///   errors (a deferred ambiguous key vs the input's own error),
    ///   and Ok-vs-Err aside, error *character* flips are §4
    ///   disagreements too. Total keys cannot raise, so only input
    ///   errors remain, in identical order.
    /// * a bare `Limit` over a `Project` moves below the projection, so
    ///   dropped rows are never projected — gated on the projection
    ///   being total (a deferred or erroring output expression on a
    ///   dropped row must still raise, PR-2 style).
    fn rewrite_limit(&mut self, input: Plan, limit: Option<u64>, offset: u64) -> Plan {
        match input {
            Plan::Sort { input, keys } => match limit {
                Some(k) if sort_keys_total(&input, &keys, &mut self.frames, self.db) => {
                    Plan::TopK { input, keys, limit: k, offset }
                }
                // OFFSET without LIMIT (no bound to exploit) or
                // error-capable keys: the full sort stays.
                _ => Plan::Limit { input: Box::new(Plan::Sort { input, keys }), limit, offset },
            },
            Plan::Project { input, exprs } => {
                let types = col_types(&input, &mut self.frames, self.db);
                let total = self
                    .under(types, |opt| exprs.iter().all(|e| expr_types(e, &opt.frames).is_some()));
                if total {
                    Plan::Project { input: Box::new(Plan::Limit { input, limit, offset }), exprs }
                } else {
                    Plan::Limit { input: Box::new(Plan::Project { input, exprs }), limit, offset }
                }
            }
            input => Plan::Limit { input: Box::new(input), limit, offset },
        }
    }

    /// HAVING-conjunct pushdown: a conjunct that reads only `GROUP BY`
    /// key positions holds the same value for every member of a group,
    /// so it may be evaluated once per input row *before* grouping —
    /// becoming an ordinary `WHERE`-style filter that predicate pushdown
    /// and hash joins can then chew on.
    ///
    /// The move eliminates whole groups early, which skips their
    /// per-row aggregate accumulation and their residual-HAVING
    /// evaluation. It is therefore gated like the PR 2 rewrites: every
    /// key and aggregate must be provably error-free per row, and every
    /// *residual* conjunct must be total over the group frame, so no
    /// error verdict can be suppressed. Conjuncts containing subqueries
    /// are never moved.
    fn push_having(
        &mut self,
        input: Plan,
        keys: Vec<Expr>,
        aggs: Vec<AggSpec>,
        having: Option<Pred>,
        output: Vec<Expr>,
    ) -> Plan {
        let rebuild = |input: Plan, having: Option<Pred>| Plan::GroupAggregate {
            input: Box::new(input),
            keys: keys.clone(),
            aggs: aggs.clone(),
            having,
            output: output.clone(),
        };
        let Some(pred) = having else {
            return rebuild(input, None);
        };
        if keys.is_empty() {
            // The implicit single group exists even over an *empty*
            // input: eliminating rows cannot eliminate it, so a false
            // HAVING pushed as a row filter would resurrect the group
            // (`SELECT COUNT(*) FROM R HAVING FALSE` must return no
            // rows, not one). Keyless aggregations keep their HAVING.
            return rebuild(input, Some(pred));
        }

        let conjuncts = split_and(pred);
        let key_only =
            |c: &Pred| !pred_has_subplan(c) && product_refs(c).iter().all(|col| *col < keys.len());
        if !conjuncts.iter().any(&key_only) {
            return rebuild(input, and_all(conjuncts));
        }

        // Gate: per-row evaluation (the input itself, the keys, the
        // aggregate arguments and folds) must be total, and so must the
        // residual conjuncts the eliminated groups would no longer
        // evaluate.
        let inner = col_types(&input, &mut self.frames, self.db);
        let per_row_total = self.under(inner, |opt| {
            keys.iter().all(|e| expr_types(e, &opt.frames).is_some())
                && aggs.iter().all(|spec| agg_total(spec, &opt.frames))
        }) && plan_total(&input, &mut self.frames, self.db);
        let group_types = group_frame_types(&input, &keys, &aggs, &mut self.frames, self.db);
        let residual_total = self.under(group_types, |opt| {
            conjuncts
                .iter()
                .filter(|c| !key_only(c))
                .all(|c| pred_total(c, &mut opt.frames, opt.db))
        });
        if !per_row_total || !residual_total {
            return rebuild(input, and_all(conjuncts));
        }

        let mut pushed = Vec::new();
        let mut residual = Vec::new();
        for c in conjuncts {
            if key_only(&c) {
                pushed.push(subst_key_refs(c, &keys));
            } else {
                residual.push(c);
            }
        }
        // The input is already optimized, so only the *new* filter level
        // is placed (re-running the whole pass would re-traverse the
        // subtree and orphan its cache slots): over a surviving raw
        // product the pushed conjuncts enter the ordinary reorder
        // machinery (sinking into inputs and hash joins); over anything
        // else they sit in a plain filter directly above it.
        let pred = and_all(pushed).expect("at least one key-only conjunct");
        let input = match input {
            Plan::Product { inputs } => self.reorder(inputs, pred),
            input => self.index_filter(input, pred),
        };
        rebuild(input, and_all(residual))
    }

    /// Rewrites `IN`/`EXISTS` subqueries inside a predicate: optimizes
    /// their subplans, assigns cache slots to uncorrelated deterministic
    /// ones, and marks error-free `EXISTS` subplans for early exit.
    /// `self.frames` must already include the enclosing filter's frame.
    fn pred(&mut self, pred: Pred) -> Pred {
        match pred {
            Pred::In { exprs, plan, negated, cache: _ } => {
                let plan = self.plan(*plan);
                let cache = self.cache_slot(&plan);
                Pred::In { exprs, plan: Box::new(plan), negated, cache }
            }
            Pred::Exists { plan, early_exit: _, cache: _ } => {
                let plan = self.plan(*plan);
                let cache = self.cache_slot(&plan);
                let early_exit = plan_total(&plan, &mut self.frames, self.db);
                Pred::Exists { plan: Box::new(plan), early_exit, cache }
            }
            Pred::And(a, b) => Pred::And(Box::new(self.pred(*a)), Box::new(self.pred(*b))),
            Pred::Or(a, b) => Pred::Or(Box::new(self.pred(*a)), Box::new(self.pred(*b))),
            Pred::Not(p) => Pred::Not(Box::new(self.pred(*p))),
            leaf => leaf,
        }
    }

    /// A fresh cache slot if the subplan may be materialized once and
    /// reused across outer rows: it must not read enclosing frames and
    /// must not invoke user predicates (determinism).
    fn cache_slot(&mut self, plan: &Plan) -> Option<usize> {
        if plan_is_correlated(plan) || plan_has_user_pred(plan) {
            return None;
        }
        let slot = self.slots;
        self.slots += 1;
        Some(slot)
    }

    /// One equi-join link of the chain: a hash join, or — when the build
    /// side is a bare `Scan` whose table has an index keyed on exactly
    /// the join's right-side columns — an index nested-loop join.
    ///
    /// Both operators match by *syntactic value identity* (the hash
    /// join's `HashMap` key equality; the index's `key_ordering`-equal),
    /// so the swap is sound even for mixed-type or poisoned columns: no
    /// comparison in either path can raise, and a type-mismatched pair
    /// simply fails to match in both. Output order is identical too —
    /// left rows probe in order, and postings (ascending row ids) mirror
    /// the build lists' insertion order.
    fn equi_join(&mut self, left: Plan, right: Plan, keys: Vec<JoinKey>) -> Plan {
        if let Plan::Scan { table } = &right {
            let rights: std::collections::HashSet<usize> = keys.iter().map(|k| k.right).collect();
            if rights.len() == keys.len() {
                let chosen = self
                    .db
                    .indexes_on(table.as_str())
                    .find(|index| {
                        index.cols().len() == keys.len()
                            && index.cols().iter().all(|c| rights.contains(c))
                    })
                    .map(|index| index.def().name.clone());
                if let Some(index) = chosen {
                    return Plan::IndexJoin {
                        left: Box::new(left),
                        table: table.clone(),
                        index,
                        keys,
                    };
                }
            }
        }
        Plan::HashJoin { left: Box::new(left), right: Box::new(right), keys }
    }

    /// The heart of the pass: `Filter` over `Product` becomes pushed
    /// filters + a left-deep hash-join chain + a residual filter.
    fn reorder(&mut self, inputs: Vec<Plan>, pred: Pred) -> Plan {
        let widths: Vec<usize> = inputs.iter().map(|p| p.arity(self.db)).collect();
        let offsets: Vec<usize> = widths
            .iter()
            .scan(0, |acc, w| {
                let off = *acc;
                *acc += w;
                Some(off)
            })
            .collect();

        let conjuncts = split_and(pred);

        // The whole conjunction must be provably error-free before any
        // reordering: a pushed conjunct may run on rows the naive plan
        // never filtered (another input empty), and pushed filtering may
        // starve a later error-raising conjunct of the row that would
        // have made it error. Either way an error verdict flips.
        let product_types: Vec<_> =
            inputs.iter().flat_map(|p| col_types(p, &mut self.frames, self.db)).collect();
        let total = self.under(product_types, |opt| {
            conjuncts.iter().all(|c| pred_total(c, &mut opt.frames, opt.db))
        });
        if !total {
            return filter_over(Plan::Product { inputs }, conjuncts);
        }

        let input_of = |col: usize| offsets.iter().rposition(|off| *off <= col).unwrap_or(0);

        let mut pushed: Vec<Vec<Pred>> = inputs.iter().map(|_| Vec::new()).collect();
        let mut joins: Vec<(usize, JoinKey)> = Vec::new(); // (later input, key w/ global cols)
        let mut residual: Vec<Pred> = Vec::new();

        for conjunct in conjuncts {
            // Join candidate: an equality between plain columns of two
            // different inputs.
            if let Some((l, r, null_safe)) = equi_join_shape(&conjunct) {
                let (li, ri) = (input_of(l), input_of(r));
                if li != ri {
                    let (first, later) = if li < ri { (l, r) } else { (r, l) };
                    let later_input = input_of(later);
                    joins.push((
                        later_input,
                        JoinKey { left: first, right: later - offsets[later_input], null_safe },
                    ));
                    continue;
                }
            }
            let refs = product_refs(&conjunct);
            let covering: Vec<usize> = {
                let mut is: Vec<usize> = refs.iter().map(|c| input_of(*c)).collect();
                is.dedup();
                is
            };
            match covering.as_slice() {
                // No reference to the product row: evaluate as early as
                // possible, on the first input.
                [] => pushed[0].push(conjunct),
                [i] => {
                    let i = *i;
                    pushed[i].push(remap_pred(conjunct, offsets[i]));
                }
                _ => residual.push(conjunct),
            }
        }

        if joins.is_empty() && pushed.iter().all(Vec::is_empty) {
            // Nothing moved: keep the naive shape.
            return filter_over(Plan::Product { inputs }, residual);
        }

        // Apply the pushed filters, then fold inputs left to right:
        // hash-join where keys exist, cross product otherwise. The chain
        // preserves the original concatenation layout, so residual
        // predicates and the projection above need no re-indexing.
        let mut filtered: Vec<Plan> = Vec::with_capacity(inputs.len());
        for (input, preds) in inputs.into_iter().zip(pushed) {
            filtered.push(match and_all(preds) {
                // Conjunct totality was proven above for the whole
                // conjunction, but `index_filter` re-checks against the
                // single input's frame (same column types, remapped).
                Some(pred) => self.index_filter(input, pred),
                None => input,
            });
        }

        if joins.is_empty() {
            return filter_over(Plan::Product { inputs: filtered }, residual);
        }

        let mut chain: Option<Plan> = None;
        for (i, input) in filtered.into_iter().enumerate() {
            chain = Some(match chain {
                None => input,
                Some(left) => {
                    let keys: Vec<JoinKey> =
                        joins.iter().filter(|(at, _)| *at == i).map(|(_, k)| *k).collect();
                    if keys.is_empty() {
                        Plan::Product { inputs: vec![left, input] }
                    } else {
                        self.equi_join(left, input, keys)
                    }
                }
            });
        }
        let chain = chain.expect("FROM clause has at least one input");
        filter_over(chain, residual)
    }
}

/// `true` iff the predicate contains an `IN`/`EXISTS` subplan anywhere —
/// including inside `CASE` branch predicates nested in expressions.
fn pred_has_subplan(pred: &Pred) -> bool {
    let mut found = false;
    pred.walk(0, &mut |term, _| {
        found |= matches!(term, Term::Pred(Pred::In { .. } | Pred::Exists { .. }));
    });
    found
}

/// Rewrites a key-only HAVING conjunct into an input-row predicate:
/// every reference to the group frame (a key position) is replaced by
/// that key's input-row expression. Deeper references keep their depths
/// — the group frame and the input-row frame sit at the same stack
/// height. Only called on subplan-free conjuncts, so no reference sits
/// under a frame of its own and the key expressions need no shifting.
fn subst_key_refs(mut pred: Pred, keys: &[Expr]) -> Pred {
    pred.cols_mut(0, &mut |col, frames| {
        if let Expr::Col { depth, index } = *col {
            if depth == frames {
                *col = keys[index].clone();
            }
        }
    });
    pred
}

/// Flattens the top-level conjunction, preserving evaluation order.
fn split_and(pred: Pred) -> Vec<Pred> {
    match pred {
        Pred::And(a, b) => {
            let mut out = split_and(*a);
            out.extend(split_and(*b));
            out
        }
        p => vec![p],
    }
}

/// Re-folds conjuncts left-associatively; `None` for an empty list.
fn and_all(conjuncts: Vec<Pred>) -> Option<Pred> {
    conjuncts.into_iter().reduce(|a, b| Pred::And(Box::new(a), Box::new(b)))
}

/// `input` filtered by the conjunction of `conjuncts` — bare when none
/// is left.
fn filter_over(input: Plan, conjuncts: Vec<Pred>) -> Plan {
    match and_all(conjuncts) {
        Some(pred) => Plan::Filter { input: Box::new(input), pred },
        None => input,
    }
}

/// Matches `#0.col op const` (or the flipped `const op #0.col`, with the
/// operator mirrored) against a non-`NULL` constant — the comparisons a
/// secondary index can serve.
fn index_cmp_shape(pred: &Pred) -> Option<(usize, CmpOp, &sqlsem_core::Value)> {
    let Pred::Cmp { left, op, right } = pred else { return None };
    match (left, right) {
        (Expr::Col { depth: 0, index }, Expr::Const(v)) if !v.is_null() => Some((*index, *op, v)),
        (Expr::Const(v), Expr::Col { depth: 0, index }) if !v.is_null() => {
            Some((*index, op.flipped(), v))
        }
        _ => None,
    }
}

/// `true` for the ordered comparisons a single-column index can answer
/// as one B-tree range.
fn is_range_op(op: CmpOp) -> bool {
    matches!(op, CmpOp::Lt | CmpOp::Leq | CmpOp::Gt | CmpOp::Geq)
}

/// Matches `#0.l = #0.r` (null_safe = false) and
/// `#0.l IS NOT DISTINCT FROM #0.r` (null_safe = true).
fn equi_join_shape(pred: &Pred) -> Option<(usize, usize, bool)> {
    match pred {
        Pred::Cmp {
            left: Expr::Col { depth: 0, index: l },
            op: CmpOp::Eq,
            right: Expr::Col { depth: 0, index: r },
        } => Some((*l, *r, false)),
        Pred::IsDistinct {
            left: Expr::Col { depth: 0, index: l },
            right: Expr::Col { depth: 0, index: r },
            negated: true,
        } => Some((*l, *r, true)),
        _ => None,
    }
}

/// All product-row columns the conjunct reads, i.e. every column
/// reference that resolves to the filter frame — including references
/// made from inside nested subqueries, whose depths are larger by the
/// frames pushed in between.
fn product_refs(pred: &Pred) -> Vec<usize> {
    let mut out = Vec::new();
    pred.walk(0, &mut |term, frames| {
        if let Term::Expr(Expr::Col { depth, index }) = term {
            if *depth == frames {
                out.push(*index);
            }
        }
    });
    out.sort_unstable();
    out.dedup();
    out
}

/// Rewrites a conjunct being pushed from the product's filter down to a
/// single input's filter: every reference to the product row has the
/// input's column offset subtracted. References to enclosing blocks keep
/// their depths — the correlation stack below the filter frame is
/// identical in both positions.
fn remap_pred(mut pred: Pred, offset: usize) -> Pred {
    pred.cols_mut(0, &mut |col, frames| {
        if let Expr::Col { depth, index } = col {
            if *depth == frames {
                *index -= offset;
            }
        }
    });
    pred
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlsem_core::{table, Dialect, Schema, Value};
    use sqlsem_parser::compile as sql;

    fn db() -> Database {
        let schema =
            Schema::builder().table("R", ["A", "B"]).table("S", ["A", "C"]).build().unwrap();
        let mut db = Database::new(schema);
        db.replace_table("R", table! { ["A", "B"]; [1, 2], [Value::Null, 3] }).unwrap();
        db.replace_table("S", table! { ["A", "C"]; [1, 9], [4, 8] }).unwrap();
        db
    }

    fn prepare(text: &str, db: &Database) -> Prepared {
        let schema = db.schema().clone();
        let q = sql(text, &schema).unwrap();
        let naive = crate::compile::compile(&q, db, Dialect::Standard).unwrap();
        optimize(naive, db)
    }

    fn count_ops(plan: &Plan, pred: &mut dyn FnMut(&Plan) -> bool) -> usize {
        usize::from(pred(plan)) + plan.inputs().map(|p| count_ops(p, pred)).sum::<usize>()
    }

    #[test]
    fn equality_conjunct_becomes_hash_join_and_rest_is_pushed() {
        let db = db();
        let p = prepare("SELECT R.B, S.C FROM R, S WHERE R.A = S.A AND R.B = 2 AND S.C > 0", &db);
        assert_eq!(count_ops(&p.plan, &mut |p| matches!(p, Plan::HashJoin { .. })), 1);
        assert_eq!(count_ops(&p.plan, &mut |p| matches!(p, Plan::Product { .. })), 0);
        // Both single-input conjuncts were pushed below the join.
        let Plan::Project { input, .. } = &p.plan else { panic!("{:?}", p.plan) };
        let Plan::HashJoin { left, right, keys } = &**input else { panic!("{input:?}") };
        assert_eq!(keys, &vec![JoinKey { left: 0, right: 0, null_safe: false }]);
        assert!(matches!(&**left, Plan::Filter { .. }), "{left:?}");
        assert!(matches!(&**right, Plan::Filter { .. }), "{right:?}");
    }

    #[test]
    fn is_not_distinct_from_becomes_null_safe_key() {
        let db = db();
        let p = prepare("SELECT R.A FROM R, S WHERE R.A IS NOT DISTINCT FROM S.A", &db);
        let Plan::Project { input, .. } = &p.plan else { panic!() };
        let Plan::HashJoin { keys, .. } = &**input else { panic!("{input:?}") };
        assert_eq!(keys, &vec![JoinKey { left: 0, right: 0, null_safe: true }]);
    }

    #[test]
    fn uncorrelated_subqueries_get_cache_slots_correlated_do_not() {
        let db = db();
        let p = prepare(
            "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S) \
             AND EXISTS (SELECT * FROM S WHERE S.A = R.A)",
            &db,
        );
        assert_eq!(p.cache_slots, 1);
        let Plan::Project { input, .. } = &p.plan else { panic!() };
        let Plan::Filter { pred, .. } = &**input else { panic!("{input:?}") };
        let Pred::And(a, b) = pred else { panic!("{pred:?}") };
        let Pred::In { cache, .. } = &**a else { panic!("{a:?}") };
        assert_eq!(*cache, Some(0));
        let Pred::Exists { cache, early_exit, .. } = &**b else { panic!("{b:?}") };
        assert_eq!(*cache, None, "correlated EXISTS must not be cached");
        assert!(*early_exit, "error-free EXISTS subplan may stop early");
    }

    #[test]
    fn error_prone_conjunctions_are_not_reordered() {
        // `R.A = 'x'` can raise a type-mismatch error at runtime (R.A
        // holds integers), so nothing in this WHERE may move: pushing
        // `R.A = S.A` could starve the error of the row that raises it.
        let db = db();
        let p = prepare("SELECT R.A FROM R, S WHERE R.A = S.A AND R.A = 'x'", &db);
        assert_eq!(count_ops(&p.plan, &mut |p| matches!(p, Plan::HashJoin { .. })), 0);
        assert_eq!(count_ops(&p.plan, &mut |p| matches!(p, Plan::Product { .. })), 1);
        let Plan::Project { input, .. } = &p.plan else { panic!() };
        assert!(
            matches!(&**input, Plan::Filter { input, .. } if matches!(&**input, Plan::Product { .. })),
            "{input:?}"
        );
    }

    #[test]
    fn like_over_integer_columns_disables_early_exit() {
        let db = db();
        let p = prepare("SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.A LIKE 'x')", &db);
        let Plan::Project { input, .. } = &p.plan else { panic!() };
        let Plan::Filter { pred, .. } = &**input else { panic!("{input:?}") };
        let Pred::Exists { early_exit, cache, .. } = pred else { panic!("{pred:?}") };
        assert!(!*early_exit, "LIKE on an integer column can error row-by-row");
        // … but caching is still sound: the subplan is uncorrelated and
        // deterministic, so every execution raises the same verdict.
        assert_eq!(*cache, Some(0));
    }

    #[test]
    fn correlated_conjuncts_push_into_the_covering_input() {
        // The correlated comparison only reads T (the subquery's second
        // input), so it must sink into T's own filter even though it also
        // reads the outer row.
        let db = db();
        let p = prepare(
            "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S, R T WHERE T.B = R.B AND S.A = T.A)",
            &db,
        );
        let Plan::Project { input, .. } = &p.plan else { panic!() };
        let Plan::Filter { pred, .. } = &**input else { panic!("{input:?}") };
        let Pred::Exists { plan, .. } = pred else { panic!("{pred:?}") };
        // Inside the subplan: HashJoin(S, Filter(T)) with no residual.
        let Plan::Project { input: sub, .. } = &**plan else { panic!("{plan:?}") };
        let Plan::HashJoin { left, right, keys } = &**sub else { panic!("{sub:?}") };
        assert!(matches!(&**left, Plan::Scan { .. }), "{left:?}");
        let Plan::Filter { pred: pushed, input: t } = &**right else { panic!("{right:?}") };
        assert!(matches!(&**t, Plan::Scan { .. }));
        // T.B sits at product column 3; after the push it is T's column 1,
        // and the outer reference R.B keeps its depth.
        let Pred::Cmp { left: l, right: r, .. } = pushed else { panic!("{pushed:?}") };
        assert_eq!(l, &Expr::Col { depth: 0, index: 1 });
        assert_eq!(r, &Expr::Col { depth: 1, index: 1 });
        assert_eq!(keys, &vec![JoinKey { left: 0, right: 0, null_safe: false }]);
    }

    #[test]
    fn key_only_having_conjuncts_push_below_the_aggregation() {
        let db = db();
        // `R.A = 1` reads only the grouping key: it becomes a filter on
        // the input (COUNT and MIN are total, so the gate opens); the
        // aggregate conjunct stays in HAVING.
        let p = prepare(
            "SELECT R.A AS k, COUNT(*) AS n FROM R GROUP BY R.A \
             HAVING R.A = 1 AND COUNT(*) > 0 AND MIN(R.B) IS NULL",
            &db,
        );
        let Plan::GroupAggregate { input: ga_input, having, .. } = &p.plan else {
            panic!("{:?}", p.plan)
        };
        assert!(matches!(&**ga_input, Plan::Filter { .. }), "pushed filter missing: {ga_input:?}");
        let having = having.as_ref().expect("aggregate conjuncts remain");
        assert!(
            matches!(having, Pred::And(..)),
            "both aggregate conjuncts stay in HAVING: {having:?}"
        );
    }

    #[test]
    fn keyless_having_is_never_pushed() {
        // Regression: the implicit single group survives an empty input,
        // so pushing the (vacuously key-only) HAVING conjunct as a row
        // filter resurrected the group — the optimized engine returned
        // `[2]` where the spec and the naive engine return no rows.
        use sqlsem_core::{Evaluator, LogicMode, PredicateRegistry};
        let db = db();
        let schema = db.schema().clone();
        let p = prepare("SELECT COUNT(*) AS n FROM R HAVING 1 = 2", &db);
        let Plan::GroupAggregate { input, having, .. } = &p.plan else { panic!("{:?}", p.plan) };
        assert!(matches!(&**input, Plan::Scan { .. }), "no filter may appear: {input:?}");
        assert!(having.is_some(), "the conjunct must stay in HAVING");

        let preds = PredicateRegistry::new();
        for sql in [
            "SELECT COUNT(*) AS n FROM R HAVING 1 = 2",
            "SELECT S.A FROM S WHERE EXISTS (SELECT COUNT(*) AS n FROM R HAVING S.A = 99)",
        ] {
            let q = sqlsem_parser::compile(sql, &schema).unwrap();
            let spec = Evaluator::new(&db).eval(&q).unwrap();
            for logic in LogicMode::ALL {
                let optimized = crate::Engine::new(&db).with_logic(logic).execute(&q).unwrap();
                let naive =
                    crate::exec::execute(&q, &db, sqlsem_core::Dialect::Standard, logic, &preds)
                        .unwrap();
                assert!(naive.coincides(&optimized), "{sql} [{logic:?}]");
                if logic == LogicMode::ThreeValued {
                    assert!(spec.coincides(&optimized), "{sql}:\n{spec}\nvs\n{optimized}");
                }
            }
        }
    }

    #[test]
    fn having_pushdown_is_blocked_when_per_row_evaluation_may_error() {
        let db = db();
        // SUM can overflow, so eliminating groups early could suppress
        // its (deterministic) runtime error: nothing moves.
        let p = prepare("SELECT R.A AS k, SUM(R.B) AS s FROM R GROUP BY R.A HAVING R.A = 1", &db);
        let Plan::GroupAggregate { input: ga_input, having, .. } = &p.plan else {
            panic!("{:?}", p.plan)
        };
        assert!(matches!(&**ga_input, Plan::Scan { .. }), "{ga_input:?}");
        assert!(having.is_some(), "conjunct must stay in HAVING");
    }

    #[test]
    fn having_conjuncts_with_subplans_never_move() {
        let db = db();
        let p = prepare(
            "SELECT R.A AS k, COUNT(*) AS n FROM R GROUP BY R.A \
             HAVING R.A IN (SELECT S.A FROM S)",
            &db,
        );
        let Plan::GroupAggregate { input: ga_input, having, .. } = &p.plan else {
            panic!("{:?}", p.plan)
        };
        assert!(matches!(&**ga_input, Plan::Scan { .. }), "{ga_input:?}");
        // … but the uncorrelated subquery inside HAVING still gets its
        // cache slot.
        assert!(matches!(having, Some(Pred::In { cache: Some(0), .. })), "{having:?}");
        assert_eq!(p.cache_slots, 1);
    }

    #[test]
    fn pushed_having_conjuncts_reach_product_inputs() {
        // The pushed key conjunct re-enters the ordinary pushdown
        // machinery and sinks below the product, next to the WHERE
        // conjuncts.
        let db = db();
        let p = prepare(
            "SELECT R.A AS k, COUNT(*) AS n FROM R, S WHERE R.A = S.A \
             GROUP BY R.A HAVING R.A = 1",
            &db,
        );
        assert_eq!(count_ops(&p.plan, &mut |p| matches!(p, Plan::HashJoin { .. })), 1);
        assert_eq!(count_ops(&p.plan, &mut |p| matches!(p, Plan::Product { .. })), 0);
        let Plan::GroupAggregate { having, .. } = &p.plan else { panic!("{:?}", p.plan) };
        assert!(having.is_none(), "the key conjunct left HAVING entirely");
    }

    #[test]
    fn sort_limit_becomes_top_k_and_bare_limit_sinks_below_projection() {
        let db = db();
        // ORDER BY + LIMIT → TopK (the Sort disappears).
        let p = prepare("SELECT R.A AS a FROM R ORDER BY a LIMIT 3 OFFSET 1", &db);
        let Plan::TopK { limit: 3, offset: 1, ref keys, .. } = p.plan else {
            panic!("{:?}", p.plan)
        };
        assert_eq!(keys[0].expr, Expr::Col { depth: 0, index: 0 });
        // ORDER BY + OFFSET only: no bound to exploit, Sort stays.
        let p = prepare("SELECT R.A AS a FROM R ORDER BY a OFFSET 1", &db);
        assert!(
            matches!(&p.plan, Plan::Limit { input, .. } if matches!(**input, Plan::Sort { .. })),
            "{:?}",
            p.plan
        );
        // Bare LIMIT over a total projection sinks below it.
        let p = prepare("SELECT R.A FROM R LIMIT 2", &db);
        assert!(
            matches!(&p.plan, Plan::Project { input, .. } if matches!(**input, Plan::Limit { .. })),
            "{:?}",
            p.plan
        );
        // A projection that can error (deferred ambiguous reference)
        // blocks the push: dropped rows must still raise.
        let p = prepare("SELECT * FROM (SELECT R.A, R.A FROM R) AS T LIMIT 1", &db);
        assert!(
            matches!(&p.plan, Plan::Limit { input, .. } if matches!(**input, Plan::Project { .. })),
            "{:?}",
            p.plan
        );
    }

    #[test]
    fn error_capable_sort_keys_block_the_top_k_rewrite() {
        use sqlsem_core::{Evaluator, LogicMode, PredicateRegistry};
        let db = db();
        // A deferred (ambiguous, Standard-dialect) sort key can raise:
        // the streaming top-k would raise it *before* the input's own
        // errors, flipping the error character — so the rewrite is
        // gated off and the Sort/Limit pair stays.
        let p = prepare("SELECT R.A AS x, R.A AS x FROM R ORDER BY x LIMIT 1", &db);
        assert!(
            matches!(&p.plan, Plan::Limit { input, .. } if matches!(**input, Plan::Sort { .. })),
            "{:?}",
            p.plan
        );
        // End-to-end: the WHERE's type error must win over the ambiguous
        // key on every backend (the review's regression shape).
        let schema = db.schema().clone();
        let q = sqlsem_parser::compile(
            "SELECT R.A AS x, R.A AS x FROM R WHERE R.A > 'foo' ORDER BY x LIMIT 1",
            &schema,
        )
        .unwrap();
        let spec = Evaluator::new(&db).eval(&q).unwrap_err();
        let naive = crate::exec::execute(
            &q,
            &db,
            Dialect::Standard,
            LogicMode::ThreeValued,
            &PredicateRegistry::new(),
        )
        .unwrap_err();
        let optimized = crate::Engine::new(&db).execute(&q).unwrap_err();
        assert_eq!(spec.is_ambiguity(), optimized.is_ambiguity(), "{spec} vs {optimized}");
        assert_eq!(naive.is_ambiguity(), optimized.is_ambiguity(), "{naive} vs {optimized}");
        assert!(!optimized.is_ambiguity(), "the WHERE type error fires first: {optimized}");
    }

    #[test]
    fn optimized_plans_execute_identically_on_the_motivating_shapes() {
        use sqlsem_core::{LogicMode, PredicateRegistry};
        let db = db();
        let schema = db.schema().clone();
        let queries = [
            "SELECT R.B, S.C FROM R, S WHERE R.A = S.A",
            "SELECT R.A FROM R, S WHERE R.A IS NOT DISTINCT FROM S.A",
            "SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)",
            "SELECT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)",
            "SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.A = R.A)",
            "SELECT DISTINCT R.A FROM R, S WHERE R.A = S.A AND R.B = 2",
        ];
        let preds = PredicateRegistry::new();
        for text in queries {
            let q = sql(text, &schema).unwrap();
            for logic in LogicMode::ALL {
                let naive = crate::exec::execute(&q, &db, Dialect::Standard, logic, &preds);
                let engine = crate::Engine::new(&db).with_logic(logic);
                let opt = engine.execute(&q);
                match (naive, opt) {
                    (Ok(a), Ok(b)) => {
                        assert!(a.coincides(&b), "{text} [{logic:?}]:\n{a}\nvs\n{b}");
                    }
                    (a, b) => panic!("{text} [{logic:?}]: {a:?} vs {b:?}"),
                }
            }
        }
    }

    /// `db()` plus a single-column index on R(A) and a composite on
    /// S(A, C).
    fn indexed_db() -> Database {
        let mut db = db();
        db.create_index("r_a_idx", "R", ["A"]).unwrap();
        db.create_index("s_ac_idx", "S", ["A", "C"]).unwrap();
        db
    }

    #[test]
    fn equality_filter_over_scan_becomes_index_point_scan() {
        let db = indexed_db();
        let p = prepare("SELECT R.B FROM R WHERE R.A = 1", &db);
        let Plan::Project { input, .. } = &p.plan else { panic!("{:?}", p.plan) };
        let Plan::IndexScan { index, keys, op, .. } = &**input else { panic!("{input:?}") };
        assert_eq!(index.as_str(), "r_a_idx");
        assert_eq!(keys.iter().map(|k| k.as_str()).collect::<Vec<_>>(), ["A"]);
        assert_eq!(op, &IndexOp::Point(vec![Value::from(1)]));
    }

    #[test]
    fn composite_index_point_scan_consumes_both_conjuncts() {
        let db = indexed_db();
        // Conjunct order is reversed relative to key order, and one
        // comparison is flipped — both normalize into the key tuple.
        let p = prepare("SELECT S.A FROM S WHERE S.C = 9 AND 1 = S.A", &db);
        let Plan::Project { input, .. } = &p.plan else { panic!("{:?}", p.plan) };
        let Plan::IndexScan { index, op, .. } = &**input else { panic!("{input:?}") };
        assert_eq!(index.as_str(), "s_ac_idx");
        assert_eq!(op, &IndexOp::Point(vec![Value::from(1), Value::from(9)]));
    }

    #[test]
    fn range_filter_becomes_index_range_scan_with_residual() {
        let db = indexed_db();
        let p = prepare("SELECT R.B FROM R WHERE R.A >= 1 AND R.B = 3", &db);
        let Plan::Project { input, .. } = &p.plan else { panic!("{:?}", p.plan) };
        let Plan::Filter { input: scan, pred } = &**input else { panic!("{input:?}") };
        let Plan::IndexScan { index, op, .. } = &**scan else { panic!("{scan:?}") };
        assert_eq!(index.as_str(), "r_a_idx");
        assert_eq!(op, &IndexOp::Range { prefix: vec![], op: CmpOp::Geq, value: Value::from(1) });
        // The non-indexed conjunct stays as the residual filter.
        assert!(
            matches!(pred, Pred::Cmp { left: Expr::Col { depth: 0, index: 1 }, .. }),
            "{pred:?}"
        );
    }

    #[test]
    fn composite_prefix_range_consumes_equality_and_comparison() {
        let db = indexed_db();
        // Equality pins the leading key column of s_ac_idx, the ordered
        // comparison ranges over the next — both conjuncts are consumed,
        // so no residual filter remains.
        let p = prepare("SELECT S.C FROM S WHERE S.A = 1 AND S.C > 2", &db);
        let Plan::Project { input, .. } = &p.plan else { panic!("{:?}", p.plan) };
        let Plan::IndexScan { index, op, .. } = &**input else { panic!("{input:?}") };
        assert_eq!(index.as_str(), "s_ac_idx");
        assert_eq!(
            op,
            &IndexOp::Range { prefix: vec![Value::from(1)], op: CmpOp::Gt, value: Value::from(2) }
        );
    }

    #[test]
    fn bare_range_on_composite_index_first_column_is_served() {
        let db = indexed_db();
        // PR 9 refused multi-column indexes for ranges outright; an
        // empty prefix now serves `S.A >= 1` from s_ac_idx.
        let p = prepare("SELECT S.C FROM S WHERE S.A >= 1", &db);
        let Plan::Project { input, .. } = &p.plan else { panic!("{:?}", p.plan) };
        let Plan::IndexScan { index, op, .. } = &**input else { panic!("{input:?}") };
        assert_eq!(index.as_str(), "s_ac_idx");
        assert_eq!(op, &IndexOp::Range { prefix: vec![], op: CmpOp::Geq, value: Value::from(1) });
    }

    #[test]
    fn error_capable_conjunction_refuses_the_index_rewrite() {
        // `R.A = 'x'` can raise (R.A holds integers), so neither conjunct
        // may be served from the index: consuming `R.A = 1` would change
        // which comparisons execute, which is observable through errors.
        let db = indexed_db();
        let p = prepare("SELECT R.B FROM R WHERE R.A = 1 AND R.A = 'x'", &db);
        assert_eq!(count_ops(&p.plan, &mut |p| matches!(p, Plan::IndexScan { .. })), 0);
        assert_eq!(count_ops(&p.plan, &mut |p| matches!(p, Plan::Filter { .. })), 1);
    }

    #[test]
    fn mixed_type_column_refuses_the_index_rewrite() {
        // A column holding both Int and Str fails `cmp_total` (and the
        // index is poisoned) — the filter stays a heap scan.
        let mut db = db();
        db.replace_table("R", table! { ["A", "B"]; [1, 2], ["x", 3] }).unwrap();
        db.create_index("r_a_idx", "R", ["A"]).unwrap();
        assert!(db.index("r_a_idx").unwrap().poisoned());
        let p = prepare("SELECT R.B FROM R WHERE R.A = 1", &db);
        assert_eq!(count_ops(&p.plan, &mut |p| matches!(p, Plan::IndexScan { .. })), 0);
    }

    #[test]
    fn equi_join_against_an_indexed_scan_becomes_index_join() {
        let mut db = db();
        db.create_index("s_a_idx", "S", ["A"]).unwrap();
        let p = prepare("SELECT R.B, S.C FROM R, S WHERE R.A = S.A", &db);
        let Plan::Project { input, .. } = &p.plan else { panic!("{:?}", p.plan) };
        let Plan::IndexJoin { left, table, index, keys } = &**input else { panic!("{input:?}") };
        assert!(matches!(&**left, Plan::Scan { .. }), "{left:?}");
        assert_eq!(table.as_str(), "S");
        assert_eq!(index.as_str(), "s_a_idx");
        assert_eq!(keys, &vec![JoinKey { left: 0, right: 0, null_safe: false }]);
    }

    #[test]
    fn index_plans_execute_identically_to_unindexed_plans() {
        use sqlsem_core::{LogicMode, PredicateRegistry};
        let plain = db();
        let indexed = indexed_db();
        let schema = plain.schema().clone();
        let queries = [
            "SELECT R.B FROM R WHERE R.A = 1",
            "SELECT R.B FROM R WHERE R.A = 99",
            "SELECT R.B FROM R WHERE R.A >= 1",
            "SELECT R.B FROM R WHERE R.A < 4 AND R.B = 3",
            "SELECT S.A FROM S WHERE S.C = 9 AND S.A = 1",
            "SELECT S.C FROM S WHERE S.A = 1 AND S.C > 2",
            "SELECT S.C FROM S WHERE S.A = 1 AND S.C <= 9",
            "SELECT S.C FROM S WHERE S.A >= 1",
            "SELECT S.C FROM S WHERE S.A = 99 AND S.C < 5",
            "SELECT R.B, S.C FROM R, S WHERE R.A = S.A",
            "SELECT R.A FROM R, S WHERE R.A IS NOT DISTINCT FROM S.A",
        ];
        let preds = PredicateRegistry::new();
        for text in queries {
            let q = sql(text, &schema).unwrap();
            for logic in LogicMode::ALL {
                let naive =
                    crate::exec::execute(&q, &plain, Dialect::Standard, logic, &preds).expect(text);
                let opt = crate::Engine::new(&indexed).with_logic(logic).execute(&q).expect(text);
                // Bit-for-bit: index postings restore insertion order.
                assert_eq!(naive, opt, "{text} [{logic:?}]");
            }
        }
    }
}
