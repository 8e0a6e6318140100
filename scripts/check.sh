#!/usr/bin/env bash
# Repo gate: formatting, lints, tier-1 build + tests.
#
# Run from anywhere; everything executes at the workspace root. This is
# what CI (and the next contributor) should run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --all --check"
cargo fmt --all --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Static analysis (DESIGN.md §11, §16): panic-freedom in request
# paths, secret hygiene, untrusted-length bounds, constant-time
# equality, lock discipline. Fails on any non-allowlisted finding; the
# summary line keeps the allowlist size visible so it cannot silently
# grow. The JSON artifact is asserted to carry an R5-lock rule entry
# so the lock-discipline rule can never silently drop out of the scan.
echo "== sempair-auditor (static analysis gate, writes AUDIT_report.json)"
cargo run -q -p sempair-auditor
cargo run -q -p sempair-auditor -- --json > AUDIT_report.json \
  || { cat AUDIT_report.json >&2; rm -f AUDIT_report.json; exit 1; }
grep -q '"R5-lock"' AUDIT_report.json \
  || { echo "auditor rule summary is missing R5-lock" >&2; exit 1; }

echo "== tier-1: cargo build --release"
cargo build --release

# The signing-service example runs end to end, not just compiles: it
# enrols a signer on a TCP SEM daemon bound to a loopback port and
# verifies the served half-signature. Measured on a 2-vCPU host: about
# 16 s to compile it in release mode, then 0.05 s to run.
echo "== example: signing_service (runs against a loopback SEM daemon)"
cargo run -q --release --example signing_service

# A test registered twice in one binary runs twice at once, and copies
# that share a temp path race each other; it once happened to every
# property test through the proptest shim. List every test binary and
# fail on any name that appears twice within one of them.
echo "== every test registered once (cargo test -- --list)"
listing="$(cargo test --workspace -- --list 2>&1)"
dups="$(printf '%s\n' "$listing" | awk '
  /^ *(Running|Doc-tests) / { bin = $0; next }
  /: (test|bench)$/ { if (seen[bin, $0]++) print bin ": " $0 }')"
if [ -n "$dups" ]; then
  echo "tests registered more than once:" >&2
  echo "$dups" >&2
  exit 1
fi

echo "== tier-1: cargo test -q (workspace minus network crate)"
cargo test -q --workspace --exclude sempair-net

# Pairing perf trajectory: one JSON artifact per run, stable schema
# (sempair-bench-pairing/1), written to the repo root so the number
# trail survives per PR. ~1 min: it times the bigint reference too.
# The point-decode and subgroup-check rows must be present: they are
# the layers the checked decode splits into, and the token decode is
# the checked one minus the subgroup check.
echo "== pairing benchmark (writes BENCH_pairing.json)"
cargo run --release -q -p sempair-bench --bin pairing_bench
for row in point_decode_fixed subgroup_check_fixed point_decode_token_fixed; do
  grep -q "\"name\": \"$row\"" BENCH_pairing.json \
    || { echo "BENCH_pairing.json has no $row row" >&2; exit 1; }
done

# Serving perf trajectory (sempair-bench-serving/2): pipelined vs
# single-in-flight throughput, tail latency under a one-shard
# revocation storm, and the precompute-tier cache sweep. Smoke mode
# keeps this a short load test; the acceptance ratios are recorded in
# the JSON, not asserted, so a loaded host cannot flake the gate. What
# IS asserted is structure: the artifact carries the v2 schema (the
# cache sweep exists), and the live stats op exposed the sem_cache_*
# counter series — both break on code regressions, not on load.
echo "== serving benchmark smoke (writes BENCH_serving.json)"
serving_log="$(mktemp)"
timeout --kill-after=10s 300s cargo run --release -q -p sempair-bench --bin serving_bench -- --smoke \
  | tee "$serving_log"
grep -q '"schema": "sempair-bench-serving/2"' BENCH_serving.json \
  || { echo "BENCH_serving.json is not schema sempair-bench-serving/2" >&2; exit 1; }
# The loopback tail target (p99/p50 <= 4x over the cache sweep) is
# recorded like the others; its field must be present.
grep -q '"tail_ratio_ok": ' BENCH_serving.json \
  || { echo "BENCH_serving.json has no tail_ratio_ok target" >&2; exit 1; }
grep -q '^sem_cache_hits_total{cache="half_key"}' "$serving_log" \
  || { echo "serving smoke exposed no sem_cache_* counters over the stats op" >&2; exit 1; }
rm -f "$serving_log"

# Scenario suite smoke (sempair-bench-scenarios/1): the four scripted
# chaos scenarios (revocation storm, incremental epoch rollover under
# load, replica kill/rejoin, flaky mobile clients) graded against
# their SLO specs. Timing margins are recorded; the runner itself
# exits nonzero only on a deterministic-SLO violation (duplicate
# execution, cheat event, busted error budget) — a correctness bug,
# not load flake. The schema assertion catches artifact regressions.
echo "== scenario suite smoke (writes BENCH_scenarios.json)"
timeout --kill-after=10s 300s cargo run --release -q -p sempair-bench --bin scenario_bench -- --smoke
grep -q '"schema": "sempair-bench-scenarios/1"' BENCH_scenarios.json \
  || { echo "BENCH_scenarios.json is not schema sempair-bench-scenarios/1" >&2; exit 1; }

# The bounded-observability suite soaks the audit ring past 100k
# records and pulls metrics over live sockets; run it first and alone
# so a regression in the bounds (or a wedged stats handler) is named
# directly instead of drowning in the full suite.
echo "== tier-1: cargo test -q -p sempair-net --test metrics (under hard timeout)"
timeout --kill-after=10s 120s cargo test -q -p sempair-net --test metrics

# The cluster chaos suite kills/restarts replicas mid-workload and
# drives a 1000-request quorum scenario with crashes plus a byzantine
# replica (~45 s normally). It gets its own hard timeout so a wedged
# failover (a hung hedging wave, a journal replay that never returns)
# is named directly.
echo "== tier-1: cargo test -q -p sempair-net --test cluster (under hard timeout)"
timeout --kill-after=10s 240s cargo test -q -p sempair-net --test cluster

# The network crate opens real sockets; a reintroduced hang (a handler
# that never honors its deadline, a drain that never joins) must fail
# the gate fast instead of wedging it. `timeout` kills the whole test
# run well above its normal wall time (now dominated by the chaos
# suite re-run).
echo "== tier-1: cargo test -q -p sempair-net (under hard timeout)"
timeout --kill-after=10s 480s cargo test -q -p sempair-net

# Lock-order verification (DESIGN.md §16): the whole sem-net suite and
# the scenario smoke again with the runtime lockdep layer compiled in.
# Every TrackedMutex/TrackedRwLock acquisition is checked against the
# declared class ranks and the observed acquired-before graph; the
# scenario SLO specs carry a hard-zero lockdep_violations margin, so a
# single inversion anywhere in the serving paths fails this stage.
echo "== lockdep: cargo test -q -p sempair-net --features lockdep (under hard timeout)"
timeout --kill-after=10s 480s cargo test -q -p sempair-net --features lockdep

echo "== lockdep: scenario suite smoke with runtime verification"
timeout --kill-after=10s 300s cargo run --release -q -p sempair-bench --features lockdep \
  --bin scenario_bench -- --smoke
grep -q '"schema": "sempair-bench-scenarios/1"' BENCH_scenarios.json \
  || { echo "BENCH_scenarios.json is not schema sempair-bench-scenarios/1" >&2; exit 1; }

echo "ALL CHECKS PASSED"
