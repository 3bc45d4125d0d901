//! Regenerates the §4 validation experiment: randomly generated queries
//! over the `R1 … R8` schema, random database instances, formal
//! semantics vs the candidate backend — driven end to end through the
//! unified `Session` API — compared under the correctness criterion,
//! for the PostgreSQL- and Oracle-adjusted variants (plus the
//! unadjusted Standard).
//!
//! Paper setup: 100,000 queries, base tables capped at 50 rows, always
//! agreed (including matching ambiguity errors on Oracle).
//!
//! ```text
//! cargo run --release -p sqlsem-bench --bin sec4_validation -- \
//!     --queries 100000 --seed 1 --rows 50 --backend optimized
//! ```
//!
//! Defaults are scaled down (2,000 queries, 8-row tables) so the binary
//! finishes in seconds; pass `--paper` for the paper's row cap, and
//! `--backend spec|naive|optimized|vectorized|adaptive` to choose the
//! candidate the spec is compared against (`--batch-size N` sets the
//! vectorized candidate's batch granularity).

use sqlsem_bench::Args;
use sqlsem_core::Dialect;
use sqlsem_engine::Backend;
use sqlsem_generator::{paper_schema, DataGenConfig, QueryGenConfig};
use sqlsem_validation::{run_validation, ValidationConfig};

fn main() {
    let mut args = Args::from_env();
    let queries: usize = args.value("--queries", 2_000);
    let seed: u64 = args.value("--seed", 1);
    let paper_rows = args.flag("--paper");
    let rows: usize = args.value("--rows", if paper_rows { 50 } else { 8 });
    let backend: Backend = args.value("--backend", Backend::OptimizedEngine);
    let batch_size: usize = args.value("--batch-size", 0);
    args.finish();

    let schema = paper_schema();
    let config = ValidationConfig::default()
        .with_queries(queries)
        .with_seed(seed)
        .with_query_config(QueryGenConfig::tpch_calibrated())
        .with_data_config(DataGenConfig {
            max_rows: rows,
            ..if paper_rows { DataGenConfig::paper() } else { DataGenConfig::small() }
        })
        .with_dialects([Dialect::PostgreSql, Dialect::Oracle, Dialect::Standard])
        .with_logics([sqlsem_core::LogicMode::ThreeValued])
        .with_backend(backend)
        .with_roundtrip(true);
    let config = if batch_size > 0 { config.with_batch_size(batch_size) } else { config };

    println!(
        "§4 validation: {queries} random queries over R1..R8 \
         (row cap {rows}, seed {seed}, candidate backend {backend} via Session)\n\
         query shape: tables=6 nest=3 attr=3 cond=8 (TPC-H calibrated)\n"
    );
    let report = run_validation(&schema, &config);
    println!("{report}");
    if !report.all_agree() {
        std::process::exit(1);
    }
}
