//! `EXPLAIN`-style rendering of physical plans.
//!
//! Real systems expose their compiled plans for inspection; the engine
//! does the same, which also makes the positional name resolution
//! visible: every column reference prints as `#depth.index`.

use std::fmt::Write as _;

use crate::optimize::{route_batches, BatchMode, BatchRoutes};
use crate::plan::{AggSpec, Expr, IndexOp, JoinKey, Plan, Pred, Prepared, Term};

/// Renders a prepared query as an indented operator tree.
pub fn explain(prepared: &Prepared) -> String {
    render(prepared, None)
}

/// Renders a prepared query as the vectorized executor would run it:
/// every batch-driven operator carries a `[vectorized, batch=N]`
/// annotation, with `guarded rows` added where the routing analysis
/// fell back to per-selected-row evaluation through the row engine.
/// Subplans inside predicates always run in the row engine, so they
/// print unannotated.
pub fn explain_vectorized(
    prepared: &Prepared,
    db: &sqlsem_core::Database,
    batch_size: usize,
) -> String {
    let routes = route_batches(&prepared.plan, db);
    render(prepared, Some(&VecCtx { routes, batch: batch_size.max(1) }))
}

fn render(prepared: &Prepared, ctx: Option<&VecCtx>) -> String {
    let mut out = String::new();
    let cols: Vec<String> = prepared.columns.iter().map(|c| c.to_string()).collect();
    let _ = writeln!(out, "output: [{}]", cols.join(", "));
    explain_plan(&prepared.plan, 0, &mut out, ctx);
    out
}

/// The vectorized-rendering context: the routing verdicts for the root
/// plan plus the batch granularity to print.
struct VecCtx {
    routes: BatchRoutes,
    batch: usize,
}

/// The `[vectorized…]` annotation for one operator, empty outside
/// vectorized rendering. Batch-kernel operators (scans, joins, routed
/// filters/projections/aggregations, and sorts/top-k with provably
/// total structural keys) print `[vectorized, batch=N]`; guarded
/// filters/projections/aggregations print `[vectorized, guarded rows,
/// batch=N]`; the remaining row-ordered operators (set operations,
/// slicing, guarded sorts) print nothing — they consume the batch
/// pipeline's materialized rows.
fn vec_note(plan: &Plan, ctx: Option<&VecCtx>) -> String {
    let Some(ctx) = ctx else { return String::new() };
    match plan {
        Plan::Scan { .. } | Plan::HashJoin { .. } => {
            format!(" [vectorized, batch={}]", ctx.batch)
        }
        Plan::Filter { .. } | Plan::Project { .. } | Plan::GroupAggregate { .. } => {
            match ctx.routes.mode(plan) {
                BatchMode::Kernel => format!(" [vectorized, batch={}]", ctx.batch),
                BatchMode::Guarded => {
                    format!(" [vectorized, guarded rows, batch={}]", ctx.batch)
                }
            }
        }
        Plan::Sort { .. } | Plan::TopK { .. } => match ctx.routes.mode(plan) {
            BatchMode::Kernel => format!(" [vectorized, batch={}]", ctx.batch),
            BatchMode::Guarded => String::new(),
        },
        // An equi-ON outer join takes the hash fast path; other shapes
        // fall back to the row engine's nested loop and print nothing.
        Plan::OuterJoin { .. } => match ctx.routes.mode(plan) {
            BatchMode::Kernel => format!(" [vectorized, hash, batch={}]", ctx.batch),
            BatchMode::Guarded => String::new(),
        },
        _ => String::new(),
    }
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn explain_plan(plan: &Plan, level: usize, out: &mut String, ctx: Option<&VecCtx>) {
    indent(level, out);
    let note = vec_note(plan, ctx);
    match plan {
        Plan::Scan { table } => {
            let _ = writeln!(out, "Scan {table}{note}");
        }
        Plan::Product { inputs } => {
            let _ = writeln!(out, "Product ({} inputs)", inputs.len());
        }
        Plan::Filter { pred, .. } => {
            let _ = writeln!(out, "Filter {}{note}", render_pred(pred));
        }
        Plan::Project { exprs, .. } => {
            let rendered: Vec<String> = exprs.iter().map(render_expr).collect();
            let _ = writeln!(out, "Project [{}]{note}", rendered.join(", "));
        }
        Plan::Distinct { .. } => {
            let _ = writeln!(out, "Distinct");
        }
        Plan::SetOp { op, all, .. } => {
            let _ = writeln!(out, "{}{}", op.keyword(), if *all { " ALL" } else { "" });
        }
        Plan::GroupAggregate { keys, aggs, having, output, .. } => {
            let keys: Vec<String> = keys.iter().map(render_expr).collect();
            let aggs_rendered: Vec<String> = aggs.iter().map(render_agg).collect();
            let out_rendered: Vec<String> = output.iter().map(render_expr).collect();
            let _ = write!(
                out,
                "GroupAggregate keys=[{}] aggs=[{}] output=[{}]",
                keys.join(", "),
                aggs_rendered.join(", "),
                out_rendered.join(", ")
            );
            if let Some(pred) = having {
                let _ = write!(out, " having={}", render_pred(pred));
            }
            let _ = writeln!(out, "{note}");
        }
        Plan::Sort { keys, .. } => {
            let _ = writeln!(out, "Sort keys=[{}]{note}", render_sort_keys(keys));
        }
        Plan::Limit { limit, offset, .. } => {
            match limit {
                Some(n) => {
                    let _ = write!(out, "Limit n={n}");
                }
                None => {
                    let _ = write!(out, "Limit n=∞");
                }
            }
            if *offset > 0 {
                let _ = write!(out, " offset={offset}");
            }
            out.push('\n');
        }
        Plan::TopK { keys, limit, offset, .. } => {
            let _ = write!(out, "TopK k={limit}");
            if *offset > 0 {
                let _ = write!(out, " offset={offset}");
            }
            let _ = writeln!(
                out,
                " keys=[{}] [bounded heap, ≤ {} rows]{note}",
                render_sort_keys(keys),
                offset + limit
            );
        }
        Plan::OuterJoin { kind, on, .. } => {
            let _ = writeln!(out, "{} on {}{note}", kind.keyword(), render_pred(on));
        }
        Plan::HashJoin { keys, .. } => {
            let _ = writeln!(out, "HashJoin on [{}]{note}", render_join_keys(keys));
        }
        Plan::IndexScan { table: _, index, keys, op } => {
            let key_names: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
            let lookup = match op {
                IndexOp::Point(values) => {
                    let eqs: Vec<String> =
                        keys.iter().zip(values).map(|(k, v)| format!("{k} = {v}")).collect();
                    format!("point {}", eqs.join(", "))
                }
                IndexOp::Range { prefix, op, value } => {
                    let mut parts: Vec<String> =
                        keys.iter().zip(prefix).map(|(k, v)| format!("{k} = {v}")).collect();
                    parts.push(format!("{} {op} {value}", keys[prefix.len()]));
                    format!("range {}", parts.join(", "))
                }
            };
            let _ =
                writeln!(out, "IndexScan idx={index} keys=[{}] [{lookup}]", key_names.join(", "));
        }
        Plan::IndexJoin { index, keys, .. } => {
            let _ = writeln!(out, "IndexJoin idx={index} on [{}]", render_join_keys(keys));
        }
    }
    for input in plan.inputs() {
        explain_plan(input, level + 1, out, ctx);
    }
    // The `IN`/`EXISTS` subplans of the operator's own terms (`CASE`
    // branches included) print beneath it, labelled. Its terms sit under
    // one frame; a site under more belongs to an operator of some subplan
    // and prints beneath *that*. Subplans always run in the row engine,
    // hence no vectorized context.
    plan.walk_terms(0, &mut |term, frames| {
        let (label, notes, subplan) = match term {
            _ if frames != 1 => return,
            Term::Pred(Pred::In { plan, cache, .. }) => ("IN", annotations(false, *cache), plan),
            Term::Pred(Pred::Exists { plan, early_exit, cache }) => {
                ("EXISTS", annotations(*early_exit, *cache), plan)
            }
            _ => return,
        };
        indent(level + 1, out);
        let _ = writeln!(out, "[{label} subplan{notes}]");
        explain_plan(subplan, level + 2, out, None);
    });
}

/// The optimizer annotations of a subquery predicate, rendered after its
/// label: whether the subplan result is cached across outer rows, and
/// (for `EXISTS`) whether execution may stop at the first row.
fn annotations(early_exit: bool, cache: Option<usize>) -> String {
    let mut notes = String::new();
    if early_exit {
        notes.push_str(", early-exit");
    }
    if let Some(slot) = cache {
        let _ = write!(notes, ", cached #{slot}");
    }
    notes
}

fn render_join_keys(keys: &[JoinKey]) -> String {
    let rendered: Vec<String> = keys
        .iter()
        .map(|k| {
            format!("left.{} {} right.{}", k.left, if k.null_safe { "<=>" } else { "=" }, k.right)
        })
        .collect();
    rendered.join(", ")
}

fn render_sort_keys(keys: &[crate::plan::SortKey]) -> String {
    keys.iter()
        .map(|k| {
            format!(
                "{}{}{}",
                render_expr(&k.expr),
                if k.desc { " DESC" } else { "" },
                if k.nulls_first { " NULLS FIRST" } else { "" }
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn render_agg(spec: &AggSpec) -> String {
    match &spec.arg {
        None => format!("{}(*)", spec.func.keyword()),
        Some(e) => format!(
            "{}({}{})",
            spec.func.keyword(),
            if spec.distinct { "DISTINCT " } else { "" },
            render_expr(e)
        ),
    }
}

fn render_expr(expr: &Expr) -> String {
    match expr {
        Expr::Const(v) => v.to_string(),
        Expr::Col { depth, index } => format!("#{depth}.{index}"),
        Expr::Deferred(err) => format!("⟂({err})"),
        Expr::Case { branches, else_ } => {
            let mut s = String::from("CASE");
            for (pred, result) in branches {
                let _ = write!(s, " WHEN {} THEN {}", render_pred(pred), render_expr(result));
            }
            if let Some(e) = else_ {
                let _ = write!(s, " ELSE {}", render_expr(e));
            }
            s.push_str(" END");
            s
        }
        Expr::Coalesce(exprs) => {
            let rendered: Vec<String> = exprs.iter().map(render_expr).collect();
            format!("COALESCE({})", rendered.join(", "))
        }
        Expr::Nullif(a, b) => format!("NULLIF({}, {})", render_expr(a), render_expr(b)),
    }
}

fn render_pred(pred: &Pred) -> String {
    match pred {
        Pred::True => "TRUE".into(),
        Pred::False => "FALSE".into(),
        Pred::Cmp { left, op, right } => {
            format!("{} {op} {}", render_expr(left), render_expr(right))
        }
        Pred::Like { term, pattern, negated } => format!(
            "{} {}LIKE {}",
            render_expr(term),
            if *negated { "NOT " } else { "" },
            render_expr(pattern)
        ),
        Pred::User { name, args } => {
            let rendered: Vec<String> = args.iter().map(render_expr).collect();
            format!("{name}({})", rendered.join(", "))
        }
        Pred::IsNull { expr, negated } => {
            format!("{} IS {}NULL", render_expr(expr), if *negated { "NOT " } else { "" })
        }
        Pred::IsDistinct { left, right, negated } => format!(
            "{} IS {}DISTINCT FROM {}",
            render_expr(left),
            if *negated { "NOT " } else { "" },
            render_expr(right)
        ),
        Pred::In { exprs, negated, .. } => {
            let rendered: Vec<String> = exprs.iter().map(render_expr).collect();
            format!("({}) {}IN <subplan>", rendered.join(", "), if *negated { "NOT " } else { "" })
        }
        Pred::Exists { .. } => "EXISTS <subplan>".into(),
        Pred::And(a, b) => format!("({} AND {})", render_pred(a), render_pred(b)),
        Pred::Or(a, b) => format!("({} OR {})", render_pred(a), render_pred(b)),
        Pred::Not(p) => format!("NOT {}", render_pred(p)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlsem_core::{Database, Dialect, Schema};
    use sqlsem_parser::compile;

    #[test]
    fn explain_shows_the_operator_tree() {
        let schema = Schema::builder().table("R", ["A", "B"]).table("S", ["A"]).build().unwrap();
        let db = Database::new(schema.clone());
        let q = compile(
            "SELECT DISTINCT R.A FROM R WHERE R.B = 1 AND \
             EXISTS (SELECT * FROM S WHERE S.A = R.A)",
            &schema,
        )
        .unwrap();
        let prepared = crate::compile::compile(&q, &db, Dialect::Standard).unwrap();
        let text = explain(&prepared);
        assert!(text.contains("Distinct"), "{text}");
        assert!(text.contains("Project [#0.0]"), "{text}");
        assert!(text.contains("Filter"), "{text}");
        assert!(text.contains("[EXISTS subplan]"), "{text}");
        assert!(text.contains("Scan R"), "{text}");
        assert!(text.contains("Scan S"), "{text}");
        // The correlated reference prints with its depth.
        assert!(text.contains("#1.0"), "{text}");
    }

    #[test]
    fn explain_renders_optimizer_decisions() {
        let schema = Schema::builder().table("R", ["A", "B"]).table("S", ["A"]).build().unwrap();
        let db = Database::new(schema.clone());
        let q = compile(
            "SELECT R.B FROM R, S WHERE R.A = S.A AND R.B = 1 AND \
             R.A IN (SELECT S.A FROM S)",
            &schema,
        )
        .unwrap();
        let text = crate::Engine::new(&db).explain(&q).unwrap();
        assert!(text.contains("HashJoin on [left.0 = right.0]"), "{text}");
        // The single-input conjuncts were pushed below the join…
        assert!(text.contains("Filter (#0.1 = 1 AND (#0.0) IN <subplan>)"), "{text}");
        // …and the uncorrelated IN subquery is cached.
        assert!(text.contains("[IN subplan, cached #0]"), "{text}");
    }

    #[test]
    fn explain_vectorized_annotates_batch_operators() {
        let schema = Schema::builder().table("R", ["A", "B"]).table("S", ["A"]).build().unwrap();
        let db = Database::new(schema.clone());
        let q = compile("SELECT R.B FROM R, S WHERE R.A = S.A AND R.B = 1", &schema).unwrap();
        let text = crate::Engine::new(&db)
            .with_vectorized(true)
            .with_batch_size(1024)
            .explain(&q)
            .unwrap();
        assert!(text.contains("Scan R [vectorized, batch=1024]"), "{text}");
        assert!(text.contains("HashJoin on [left.0 = right.0] [vectorized, batch=1024]"), "{text}");
        // R.B = 1 over integer-typed columns kernels; the projection of
        // a plain column reference kernels too.
        assert!(text.contains("Filter #0.1 = 1 [vectorized, batch=1024]"), "{text}");
        assert!(text.contains("Project [#0.1] [vectorized, batch=1024]"), "{text}");
        // A correlated EXISTS never kernels: guarded fallback, and the
        // subplan prints unannotated.
        let q2 =
            compile("SELECT R.A FROM R WHERE EXISTS (SELECT * FROM S WHERE S.A = R.A)", &schema)
                .unwrap();
        let text2 = crate::Engine::new(&db).with_vectorized(true).explain(&q2).unwrap();
        assert!(text2.contains("guarded rows, batch=1024"), "{text2}");
        assert!(text2.contains("Scan S\n") || text2.contains("Scan S "), "{text2}");
        // The row-engine explain stays annotation-free.
        let plain = crate::Engine::new(&db).explain(&q).unwrap();
        assert!(!plain.contains("vectorized"), "{plain}");
    }

    #[test]
    fn explain_renders_index_scans_and_index_joins() {
        use sqlsem_core::table;
        let schema = Schema::builder().table("t", ["a", "b"]).table("u", ["a"]).build().unwrap();
        let mut db = Database::new(schema.clone());
        db.replace_table("t", table! { ["a", "b"]; [1, 2], [7, 3] }).unwrap();
        db.replace_table("u", table! { ["a"]; [7] }).unwrap();
        db.create_index("t_a_idx", "t", ["a"]).unwrap();

        let q = compile("SELECT b FROM t WHERE a >= 5", &schema).unwrap();
        let text = crate::Engine::new(&db).explain(&q).unwrap();
        assert!(text.contains("IndexScan idx=t_a_idx keys=[a] [range a >= 5]"), "{text}");

        let q = compile("SELECT b FROM t WHERE a = 7", &schema).unwrap();
        let text = crate::Engine::new(&db).explain(&q).unwrap();
        assert!(text.contains("IndexScan idx=t_a_idx keys=[a] [point a = 7]"), "{text}");

        let q = compile("SELECT t.b FROM u, t WHERE u.a = t.a", &schema).unwrap();
        let text = crate::Engine::new(&db).explain(&q).unwrap();
        assert!(text.contains("IndexJoin idx=t_a_idx on [left.0 = right.0]"), "{text}");
        assert!(text.contains("Scan u"), "{text}");
    }

    #[test]
    fn explain_renders_composite_prefix_ranges() {
        use sqlsem_core::table;
        let schema = Schema::builder().table("t", ["a", "b", "c"]).build().unwrap();
        let mut db = Database::new(schema.clone());
        db.replace_table("t", table! { ["a", "b", "c"]; [1, 2, 3], [1, 5, 9] }).unwrap();
        db.create_index("t_ab_idx", "t", ["a", "b"]).unwrap();

        // Equality on the leading key column + range on the next: the
        // prefix is pinned in the rendering.
        let q = compile("SELECT c FROM t WHERE a = 1 AND b > 2", &schema).unwrap();
        let text = crate::Engine::new(&db).explain(&q).unwrap();
        assert!(text.contains("IndexScan idx=t_ab_idx keys=[a, b] [range a = 1, b > 2]"), "{text}");

        // A bare range on the first column of a composite index works
        // too (empty prefix).
        let q = compile("SELECT c FROM t WHERE a <= 1", &schema).unwrap();
        let text = crate::Engine::new(&db).explain(&q).unwrap();
        assert!(text.contains("IndexScan idx=t_ab_idx keys=[a, b] [range a <= 1]"), "{text}");
    }

    #[test]
    fn explain_renders_deferred_errors() {
        let schema = Schema::builder().table("R", ["A"]).build().unwrap();
        let db = Database::new(schema.clone());
        let q = compile("SELECT * FROM (SELECT R.A, R.A FROM R) AS T", &schema).unwrap();
        let prepared = crate::compile::compile(&q, &db, Dialect::Standard).unwrap();
        let text = explain(&prepared);
        assert!(text.contains('⟂'), "{text}");
    }
}
