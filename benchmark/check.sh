#!/usr/bin/env bash
# Smoke test of the benchmark itself (under a minute once built): every
# workload, gated and traced, at 3 s, then results.json is checked
# against the names and units BENCHMARK.json lists. Exits non-zero on a
# wrong answer, a missing or unlisted metric, or a unit mismatch.
set -euo pipefail
cd "$(dirname "$0")/.."
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
"${bench[@]}" run --seconds 3 --trace
"${bench[@]}" validate benchmark/out/results.json BENCHMARK.json
