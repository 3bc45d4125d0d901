//! Regenerates the §5 application (Theorem 1): every data manipulation
//! query translates to an equivalent relational algebra query.
//!
//! For each random Definition 1 query the harness checks the full chain
//!
//! ```text
//! ⟦Q⟧_D = ⟦translate(Q)⟧_{D,∅} = ⟦eliminate(translate(Q))⟧_D
//! ```
//!
//! and reports agreement counts plus expression-size statistics for the
//! two translation stages.
//!
//! ```text
//! cargo run --release -p sqlsem-bench --bin sec5_ra_equivalence -- \
//!     --queries 1000 --seed 5
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use sqlsem_algebra::{eliminate, translate, RaEvaluator};
use sqlsem_bench::Args;
use sqlsem_core::Evaluator;
use sqlsem_generator::{
    paper_schema, random_database, DataGenConfig, QueryGenConfig, QueryGenerator,
};

fn main() {
    let mut args = Args::from_env();
    let queries: usize = args.value("--queries", 500);
    let seed: u64 = args.value("--seed", 5);
    let rows: usize = args.value("--rows", 6);
    args.finish();

    let schema = paper_schema();
    let gen = QueryGenerator::new(&schema, QueryGenConfig::data_manipulation());
    let data = DataGenConfig { max_rows: rows, ..DataGenConfig::small() };

    let mut agree_sqlra = 0usize;
    let mut agree_pure = 0usize;
    let mut disagree = 0usize;
    let mut sqlra_size = 0usize;
    let mut pure_size = 0usize;
    let mut query_size = 0usize;

    println!(
        "§5 / Theorem 1: {queries} random data-manipulation queries (seed {seed}, row cap {rows})\n"
    );

    for i in 0..queries {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64));
        let query = gen.generate(&mut rng);
        let db = random_database(&schema, &data, &mut rng);

        let expected = Evaluator::new(&db).eval(&query).expect("generated queries evaluate");
        let sqlra = translate(&query, &schema).expect("Definition 1 queries translate");
        let via_sqlra = RaEvaluator::new(&db).eval(&sqlra).expect("SQL-RA evaluates");
        let pure = eliminate(&sqlra, &schema).expect("Proposition 2 elimination succeeds");
        assert!(pure.is_pure());
        let via_pure = RaEvaluator::new(&db).eval(&pure).expect("pure RA evaluates");

        let ok1 = expected.coincides(&via_sqlra);
        let ok2 = expected.coincides(&via_pure);
        agree_sqlra += usize::from(ok1);
        agree_pure += usize::from(ok2);
        if !(ok1 && ok2) {
            disagree += 1;
            if disagree <= 3 {
                eprintln!("DISAGREEMENT at case {i}:\n{query}");
            }
        }
        query_size += query.size();
        sqlra_size += sqlra.size();
        pure_size += pure.size();
    }

    println!("agreement SQL vs SQL-RA (Prop. 1):     {agree_sqlra}/{queries}");
    println!("agreement SQL vs pure RA (Prop. 2):    {agree_pure}/{queries}");
    println!();
    println!("mean SQL query size (blocks+setops):   {:.1}", query_size as f64 / queries as f64);
    println!("mean SQL-RA expression size (ops):     {:.1}", sqlra_size as f64 / queries as f64);
    println!("mean pure-RA expression size (ops):    {:.1}", pure_size as f64 / queries as f64);
    println!();
    println!(
        "verdict: {}",
        if disagree == 0 {
            "ALWAYS EQUIVALENT (Theorem 1 holds on this sample)"
        } else {
            "DISAGREEMENTS FOUND"
        }
    );
    if disagree > 0 {
        std::process::exit(1);
    }
}
