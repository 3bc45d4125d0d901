//! Regenerates the §6 application (Theorem 2): basic SQL queries have
//! the same expressiveness under three-valued and two-valued semantics.
//!
//! For each random query the harness checks both directions under both
//! equality interpretations, and reports the size blow-up of the
//! `Q ↦ Q′` translation (the §6 discussion of why, despite the theorem,
//! switching SQL to 2VL would make legacy queries cumbersome).
//!
//! ```text
//! cargo run --release -p sqlsem-bench --bin sec6_twovl -- --queries 1000
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use sqlsem_bench::Args;
use sqlsem_core::Evaluator;
use sqlsem_generator::{
    paper_schema, random_database, DataGenConfig, QueryGenConfig, QueryGenerator,
};
use sqlsem_twovl::{blow_up, to_three_valued, to_two_valued, EqInterpretation};

fn main() {
    let mut args = Args::from_env();
    let queries: usize = args.value("--queries", 500);
    let seed: u64 = args.value("--seed", 6);
    let rows: usize = args.value("--rows", 6);
    args.finish();

    let schema = paper_schema();
    let gen = QueryGenerator::new(&schema, QueryGenConfig::small());
    let data = DataGenConfig { max_rows: rows, null_rate: 0.3, ..DataGenConfig::small() };

    println!("§6 / Theorem 2: {queries} random queries (seed {seed}, row cap {rows})\n");

    for eq in [EqInterpretation::Conflate, EqInterpretation::Syntactic] {
        let mut forward_ok = 0usize;
        let mut backward_ok = 0usize;
        let mut error_agree = 0usize;
        let mut disagree = 0usize;
        let mut atoms_before = 0usize;
        let mut atoms_after = 0usize;

        for i in 0..queries {
            let mut rng =
                StdRng::seed_from_u64(seed.wrapping_mul(0x517C_C1B7).wrapping_add(i as u64));
            let query = gen.generate(&mut rng);
            let db = random_database(&schema, &data, &mut rng);

            // Forward: ⟦Q⟧ = ⟦Q′⟧₂ᵥ.
            let three = Evaluator::new(&db).eval(&query);
            let q2 = to_two_valued(&query, eq);
            let two = Evaluator::new(&db).with_logic(eq.logic_mode()).eval(&q2);
            match (&three, &two) {
                (Ok(a), Ok(b)) if a.coincides(b) => forward_ok += 1,
                (Err(e1), Err(e2)) if e1.is_ambiguity() == e2.is_ambiguity() => error_agree += 1,
                _ => {
                    disagree += 1;
                    if disagree <= 3 {
                        eprintln!("FORWARD disagreement [{eq:?}] case {i}:\n{query}");
                    }
                }
            }

            // Backward: ⟦Q⟧₂ᵥ = ⟦Q″⟧.
            let two_direct = Evaluator::new(&db).with_logic(eq.logic_mode()).eval(&query);
            let q3 = to_three_valued(&query, eq);
            let three_back = Evaluator::new(&db).eval(&q3);
            match (&two_direct, &three_back) {
                (Ok(a), Ok(b)) if a.coincides(b) => backward_ok += 1,
                (Err(e1), Err(e2)) if e1.is_ambiguity() == e2.is_ambiguity() => {}
                _ => {
                    disagree += 1;
                    if disagree <= 3 {
                        eprintln!("BACKWARD disagreement [{eq:?}] case {i}:\n{query}");
                    }
                }
            }

            let b = blow_up(&query, eq);
            atoms_before += b.atoms_before;
            atoms_after += b.atoms_after;
        }

        println!("equality interpretation: {eq:?}");
        println!("  forward  ⟦Q⟧ = ⟦Q′⟧₂ᵥ:   {forward_ok} agree, {error_agree} agree-on-error");
        println!("  backward ⟦Q⟧₂ᵥ = ⟦Q″⟧:  {backward_ok} agree");
        println!(
            "  condition-atom blow-up:  {:.2}× ({} → {})",
            atoms_after as f64 / atoms_before.max(1) as f64,
            atoms_before,
            atoms_after
        );
        println!(
            "  verdict: {}",
            if disagree == 0 {
                "ALWAYS EQUIVALENT (Theorem 2 holds on this sample)"
            } else {
                "DISAGREEMENTS FOUND"
            }
        );
        println!();
        if disagree > 0 {
            std::process::exit(1);
        }
    }
}
