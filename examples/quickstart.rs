//! Quickstart: open a [`Session`](sqlsem::Session), build a database in
//! pure SQL, query it under the formal semantics, and look at the plan.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sqlsem::{Session, Truth};

fn main() {
    // 1. A session holds a database and speaks SQL text end to end.
    //    Defaults: Standard dialect, three-valued logic, optimized
    //    engine backend.
    let mut session = Session::new();

    // 2. Build and populate the schema without touching any Rust
    //    builder API. NULLs are first-class: two employees have no
    //    department and one department's budget is unknown.
    session
        .run_script(
            "CREATE TABLE Employee (id, name, dept);
             CREATE TABLE Dept (id, budget);
             INSERT INTO Employee VALUES
                 (1, 'ada', 10), (2, 'grace', 20), (3, 'edsger', NULL),
                 (4, 'barbara', 10), (5, 'tony', NULL);
             INSERT INTO Dept VALUES (10, 1000), (20, NULL);",
        )
        .expect("script executes");
    println!("schema:\n{}\n", session.schema());

    // 3. Query it. grace's row is dropped because `NOT (NULL < 500)`
    //    is *unknown*, not true (Figures 4–7; 3VL, bag results, the
    //    whole deal).
    let sql = "SELECT name, budget \
               FROM Employee, Dept \
               WHERE Employee.dept = Dept.id AND NOT budget < 500";
    let out = session.execute(sql).expect("query runs");
    println!("{sql}\n{out}\n");

    // 4. EXPLAIN shows what the backend actually does — here the
    //    optimized engine's hash join.
    let plan = session.execute(&format!("EXPLAIN {sql}")).expect("EXPLAIN runs");
    println!("EXPLAIN:\n{plan}\n");

    // 5. The ordering fragment: a paginated top-k query. Results are
    //    *lists* — the REPL and `Display` print rows in exactly the
    //    order the semantics assigns (NULLS LAST by default), and the
    //    optimizer runs `ORDER BY … LIMIT` as a bounded-heap `TopK`.
    let top = "SELECT name, dept FROM Employee \
               ORDER BY dept DESC NULLS LAST, name LIMIT 2 OFFSET 1";
    let page = session.execute(top).expect("top-k query runs");
    println!("{top}\n{page}\n");
    let plan = session.execute(&format!("EXPLAIN {top}")).expect("EXPLAIN runs");
    println!("EXPLAIN (note the TopK):\n{plan}\n");

    // 6. Prepared statements cache the parse+compile+optimize work.
    let mut stmt = session
        .prepare("SELECT COUNT(*) AS employees FROM Employee WHERE Employee.dept IS NOT NULL")
        .expect("statement prepares");
    let count = session.execute_prepared(&mut stmt).expect("prepared statement runs");
    println!("head-count (prepared):\n{count}\n");

    // 7. The three-valued logic is explicit and inspectable.
    println!("NULL-budget row: budget < 500 = {}", Truth::Unknown);
    println!("…negated:        NOT u        = {}", Truth::Unknown.not());
    println!("…so the WHERE keeps only rows where the condition is t.");
}
