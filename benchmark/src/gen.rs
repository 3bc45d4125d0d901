//! Seeded input generators. Everything the program under test sees is
//! derived here from `--seed`: cells from a stateless mixer (closed
//! forms a checker can predict without consulting the system, or
//! seeded permutations where counts must not depend on the seed), key
//! streams from the vendored SplitMix64 `StdRng`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sqlsem_core::{Database, Name, Row, Schema, Table, Value};

/// A stateless 64-bit mixer (the SplitMix64 finalizer) over
/// `(seed, index, lane)`: the closed form behind every generated cell.
pub fn mix(seed: u64, index: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte stream — the fingerprint the determinism tests
/// compare statement streams and corpora by.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// The FNV-1a offset basis (the hash of the empty stream).
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Row `i` of the point-read table `R(A, B, C)`: `A = i` (a key), `B`
/// uniform in `0..1000`, `C` uniform in `0..100` with one cell in ten
/// `NULL` — a closed form, so a checker predicts any row from its key.
pub fn r_row(seed: u64, i: u64) -> (i64, i64, Option<i64>) {
    let b = (mix(seed, i, 1) % 1000) as i64;
    let c = (!mix(seed, i, 2).is_multiple_of(10)).then(|| (mix(seed, i, 3) % 100) as i64);
    (i as i64, b, c)
}

fn cell(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

fn names(columns: &[&str]) -> Vec<Name> {
    columns.iter().map(|c| Name::new(*c)).collect()
}

/// The schema `R(A, B, C)`, `S(A, D)`.
pub fn rs_schema() -> Schema {
    Schema::builder()
        .table("R", ["A", "B", "C"])
        .table("S", ["A", "D"])
        .build()
        .expect("the benchmark schema is well-formed")
}

/// The `tcp_point_read` database: `rows` rows of `R` from [`r_row`]
/// (and an empty `S`).
pub fn point_read_database(seed: u64, rows: u64) -> Database {
    let mut db = Database::new(rs_schema());
    let r = (0..rows)
        .map(|i| {
            let (a, b, c) = r_row(seed, i);
            Row::new(vec![Value::Int(a), Value::Int(b), cell(c)])
        })
        .collect();
    db.replace_table("R", Table::with_rows(names(&["A", "B", "C"]), r).expect("R has arity 3"))
        .expect("R is in the schema");
    db
}

/// A seeded permutation of `0..n`: the indices sorted by their mixed
/// value.
pub fn permutation(seed: u64, lane: u64, n: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..n).collect();
    order.sort_by_key(|i| mix(seed, *i, lane));
    order
}

/// The `analytic_scan` database. Which row holds which value depends
/// on the seed, but how many rows hold each value does not: every
/// column is dealt out by a seeded permutation, so every predicate of
/// the six shapes selects the same number of rows under every seed and
/// a run's work does not depend on the seed it was given.
///
/// * `R(A, B, C)`: `A = i`; `B` takes each of `0..1000` equally often;
///   one `C` in ten is `NULL`, the rest take `0..100` equally often.
/// * `S(A, D)`: `A` is every `(r_rows / s_rows)`-th key of `R` once;
///   `D` like `C`, with its `NULL`s on every tenth `A`.
pub fn scan_database(seed: u64, r_rows: u64, s_rows: u64) -> Database {
    let mut db = Database::new(rs_schema());
    let (b, c_null, c) =
        (permutation(seed, 1, r_rows), permutation(seed, 2, r_rows), permutation(seed, 3, r_rows));
    let r = (0..r_rows as usize)
        .map(|i| {
            let c = (!c_null[i].is_multiple_of(10)).then_some((c[i] % 100) as i64);
            Row::new(vec![Value::Int(i as i64), Value::Int((b[i] % 1000) as i64), cell(c)])
        })
        .collect();
    let (a, d) = (permutation(seed, 4, s_rows), permutation(seed, 5, s_rows));
    let stride = (r_rows / s_rows.max(1)).max(1);
    let s = (0..s_rows as usize)
        .map(|j| {
            let d = (!a[j].is_multiple_of(10)).then_some((d[j] % 100) as i64);
            Row::new(vec![Value::Int((a[j] * stride) as i64), cell(d)])
        })
        .collect();
    db.replace_table("R", Table::with_rows(names(&["A", "B", "C"]), r).expect("R has arity 3"))
        .expect("R is in the schema");
    db.replace_table("S", Table::with_rows(names(&["A", "D"]), s).expect("S has arity 2"))
        .expect("S is in the schema");
    db
}

/// The seeded key stream of one `tcp_point_read` client: `len` keys
/// uniform over `0..rows`.
pub fn key_stream(seed: u64, client: u64, len: usize, rows: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(mix(seed, client, 7));
    (0..len).map(|_| rng.gen_range(0..rows)).collect()
}

/// The point-read statement for key `k`.
pub fn point_read_sql(k: u64) -> String {
    format!("SELECT R.B AS b, R.C AS c FROM R WHERE R.A = {k}")
}

/// Row `k` of `W(K, C, P)` as written by connection `conn`: the payload
/// is a fixed-width function of seed and key, so the read-back check
/// and the post-recovery check can both predict it.
pub fn w_payload(seed: u64, k: u64) -> String {
    format!("p{:012x}", mix(seed, k, 8) & 0xFFFF_FFFF_FFFF)
}

/// The write half of one `durable_mixed` op.
pub fn w_insert_sql(seed: u64, k: u64, conn: u64) -> String {
    format!("INSERT INTO W VALUES ({k}, {conn}, '{}')", w_payload(seed, k))
}

/// The read-back half of one `durable_mixed` op.
pub fn w_select_sql(k: u64) -> String {
    format!("SELECT W.K AS k, W.C AS c, W.P AS p FROM W WHERE W.K = {k}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_are_pure_functions_of_the_seed() {
        assert_eq!(r_row(7, 123), r_row(7, 123));
        assert_ne!(r_row(7, 123), r_row(8, 123));
        assert_eq!(key_stream(7, 0, 50, 1000), key_stream(7, 0, 50, 1000));
        assert_ne!(key_stream(7, 0, 50, 1000), key_stream(7, 1, 50, 1000));
        assert_ne!(key_stream(7, 0, 50, 1000), key_stream(8, 0, 50, 1000));
    }

    #[test]
    fn point_read_table_follows_the_closed_form() {
        let db = point_read_database(3, 2_000);
        let r = db.stored_table("R").unwrap();
        assert_eq!(r.len(), 2_000);
        let (a, b, c) = r_row(3, 1_234);
        let row = r.rows().nth(1_234).unwrap();
        assert_eq!(row.values(), &[Value::Int(a), Value::Int(b), cell(c)]);
        let nulls = r.rows().filter(|row| row.values()[2].is_null()).count();
        assert!((120..=280).contains(&nulls), "{nulls} NULLs in 2000 rows");
    }

    #[test]
    fn scan_tables_hold_the_same_counts_under_every_seed() {
        let count = |db: &Database, table: &str, keep: &dyn Fn(&[Value]) -> bool| {
            db.stored_table(table).unwrap().rows().filter(|r| keep(r.values())).count()
        };
        let (one, other) = (scan_database(1, 10_000, 2_500), scan_database(2, 10_000, 2_500));
        assert_ne!(one, other, "the seed moves values between rows");
        for db in [&one, &other] {
            assert_eq!(count(db, "R", &|v| v[1] < Value::Int(20) && v[1] >= Value::Int(0)), 200);
            assert_eq!(count(db, "R", &|v| v[2].is_null()), 1_000);
            assert_eq!(count(db, "S", &|v| v[0] < Value::Int(160)), 40);
            assert_eq!(count(db, "S", &|v| v[0] < Value::Int(160) && !v[1].is_null()), 36);
            assert_eq!(count(db, "S", &|v| v[1].is_null()), 250);
        }
    }
}
