//! Regenerates the §4 generator-calibration table: TPC-H query shape
//! statistics and the four parameters derived from them.
//!
//! ```text
//! cargo run --release -p sqlsem-bench --bin tpch_calibration
//! ```

fn main() {
    // Takes no flags: a stray argument must fail, not be ignored.
    sqlsem_bench::Args::from_env().finish();
    print!("{}", sqlsem_generator::tpch::calibration_report());
}
