#!/usr/bin/env bash
# The repo's full gate: formatting, lints, docs, release build, the test
# suite (the determinism suite runs inside `cargo test -q`) and the smokes.
# CI runs this script as its gate. Everything works offline (vendored deps).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> golden reports"
cargo test -q --test golden_reports

echo "==> generator smoke (one vertex exits 2 instead of hanging; gen writes every edge)"
cargo build -q --release --offline -p hyve-cli
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
status=0
timeout 10 ./target/release/hyve-cli gen --vertices 1 --edges 1 --out "$trace_dir/gen.txt" \
  2>/dev/null || status=$?
[ "$status" -eq 2 ] || {
    echo "hyve-cli gen --vertices 1 exited $status, expected 2" >&2
    exit 1
  }
./target/release/hyve-cli gen --vertices 1000 --edges 5000 --out "$trace_dir/gen.txt" \
  | grep -q "wrote 5000 edges" || {
    echo "hyve-cli gen did not write 5000 edges" >&2
    exit 1
  }

echo "==> trace smoke (run --trace, report, self-diff; YT, and TW at the planner's P = 5096)"
./target/release/hyve-cli run --alg pr --dataset yt --iters 3 \
  --trace "$trace_dir/smoke.jsonl" >/dev/null
./target/release/hyve-cli run --alg pr --dataset tw --iters 1 \
  --trace "$trace_dir/tw.jsonl" >/dev/null
./target/release/hyve-cli report "$trace_dir/smoke.jsonl" >/dev/null
for artifact in smoke tw; do
  ./target/release/hyve-cli report "$trace_dir/$artifact.jsonl" "$trace_dir/$artifact.jsonl" \
    | grep -q "identical: yes" || {
      echo "trace self-diff of $artifact.jsonl reported a difference" >&2
      exit 1
    }
done

echo "==> experiment driver smoke (one named artifact; unknown names exit 2)"
table3="$(cargo run -q -p hyve-bench --release --offline --bin all_experiments -- table3)"
grep -q "energy-optimized 512 bits" <<<"$table3" || {
    echo "all_experiments table3 did not print the chosen bank config" >&2
    exit 1
  }
status=0
cargo run -q -p hyve-bench --release --offline --bin all_experiments -- no-such-artifact \
  2>/dev/null || status=$?
[ "$status" -eq 2 ] || {
    echo "all_experiments with an unknown name exited $status, expected 2" >&2
    exit 1
  }

echo "==> example smoke (dynamic_stream re-ranks the evolved graph)"
stream="$(cargo run -q --release --offline --example dynamic_stream)"
grep -q "re-ranked evolved graph" <<<"$stream" || {
    echo "dynamic_stream did not re-rank the evolved graph" >&2
    exit 1
  }

echo "==> example smoke (analytic_model reaches the §6.6 recommender)"
model="$(cargo run -q --release --offline --example analytic_model)"
grep -q "§6.6 recommender" <<<"$model" || {
    echo "analytic_model did not reach the §6.6 recommender" >&2
    exit 1
  }

# The other examples, each by a line it prints once it has run through.
example_smoke() {
  local example=$1 line=$2 out
  out="$(cargo run -q --release --offline --example "$example")"
  grep -qF "$line" <<<"$out" || {
    echo "example $example did not print '$line'" >&2
    exit 1
  }
}

echo "==> example smokes (quickstart, social_pagerank, route_planning, design_space)"
example_smoke quickstart "memory share"
example_smoke social_pagerank "Same answers, very different energy bills"
example_smoke route_planning "max deviation from Dijkstra: 0.00000"
example_smoke design_space "+ power gating"

# Each smoke must pass perfbench's own checks and reproduce the simulated
# output pinned at the default seed (2018): a host-only change keeps it.
bench_smoke() {
  local workload=$1 trace=$2 digest=$3 out
  out="$(cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seconds 1 --trace "$trace")"
  grep -q '"correct": true' <<<"$(tail -n 1 <<<"$out")" || {
    echo "perfbench $workload --trace $trace smoke failed: $(tail -n 1 <<<"$out")" >&2
    exit 1
  }
  grep -qx "sim_digest $digest" <<<"$out" || {
    echo "perfbench $workload --trace $trace changed its simulated output:" \
      "$(grep sim_digest <<<"$out"), expected $digest" >&2
    exit 1
  }
}

echo "==> benchmark smoke (perfbench builds, passes its checks, keeps its sim_digest)"
bench_smoke config-sweep 0 b1a69d5d9ed42f47

echo "==> traced benchmark smoke (perfbench's trace sink splits every run)"
bench_smoke config-sweep 1 b1a69d5d9ed42f47

echo "==> P = 5096 benchmark smoke (TW partition, flatten and sweep at the planner's P)"
bench_smoke accum-tw 0 adbe8c72bb71c21a

echo "==> dynamic benchmark smoke (column-major snapshots and repartition at scale)"
bench_smoke dynamic-lj 0 0741e780f261c73b

# A traced run also checks that its traced twin's reports equal the
# untraced ones bit for bit, at P = 5096 and on snapshots. That covers the
# plan's block lists. For PR on TW the plan's `sync_edges` does not reach
# the report (the edge stream's block headers outlast processing), so
# `exec::tests::plan_matches_schedule_iteration` is its guard there.
echo "==> traced high-P benchmark smokes (accum-tw at P = 5096, dynamic-lj at P = 600)"
bench_smoke accum-tw 1 adbe8c72bb71c21a
bench_smoke dynamic-lj 1 0741e780f261c73b

echo "All checks passed."
