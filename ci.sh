#!/usr/bin/env bash
# CI gate for the DomainNet reproduction workspace.
#
# Runs, in order: rustfmt check, clippy with warnings denied, rustdoc with
# warnings denied (so documentation rot fails the gate), the doc-test suite,
# a release build (of the workspace, then of the frozen standing benchmark
# under benchmark/ against it), the test suite, and then explicitly labeled
# gates: the
# golden-ranking regression corpus, the concurrency stress test, the
# dn-store corruption-hardening suite, the crash-recovery suite, a
# tempdir-hygiene check, an end-to-end HTTP smoke (dn-serve started on
# a loopback port and driven through the dn-server client module — once
# single-shard, once with --shards 2 through the coordinator — both with
# --threads 4 so the pooled compute core is what gets smoked, and with
# --trace-sample 1 --slow-query-us 0 so the smoke also asserts the
# /v1/debug/traces ring serves the request's own span tree and the
# slow-query JSON log fires), and a
# replication smoke (a 2-shard primary plus a --follow follower driven by
# dn-serve --smoke-replica: convergence, lag-gauge return to 0, and the
# read-only 403 envelope — run twice, with a single-threaded and then a
# 4-thread primary, so zero divergences proves the pooled compute core's
# digests are bit-identical to the sequential replay), and a drop-folder
# ingest smoke (dn-serve --ingest-dir tails a CSV folder while
# --smoke-ingest writes three homograph-drift file generations into it and
# asserts the served top-k reflects the drifted token and the dn_ingest_*
# gauges moved). The
# main `cargo test -q` pass skips the gated suites (they run once, in
# their own labeled steps, so a ranking drift, a consistency violation,
# or a recovery regression fails CI with an unambiguous gate name instead
# of being buried in the full run); the union
# of the test steps is at least the coverage of the repo's tier-1 command
# (`cargo build --release && cargo test -q`).
#
# The stress gate passes `--test-threads` matched to the machine's cores.
# Note libtest's --test-threads bounds *concurrently running test
# functions*, not the threads a test spawns — today serving_stress has one
# test (which spawns its own 8 readers + writer regardless), so the flag
# only starts mattering as more stress tests are added to that binary.
#
# Usage: ./ci.sh [--quick]
#   --quick   skip the standing benchmark's determinism run, the criterion
#             benches and the exp_serving/exp_http/exp_replica/exp_parallel/
#             exp_ingest/exp_trace smoke runs (keeps everything tier-1:
#             build, benchmark build, tests, golden, stress, recovery,
#             HTTP + replication + ingest smokes)
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "unknown argument: $arg (usage: ./ci.sh [--quick])" >&2; exit 2 ;;
    esac
done

CORES=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# The tier-1 `cargo test -q` also runs doctests; this explicit step is
# kept deliberately so documentation rot fails fast with a clearly labeled
# gate step (the overlap costs a few seconds, attribution is worth it).
echo "==> cargo test --doc -q"
cargo test --doc -q

echo "==> cargo build --release"
cargo build --release

# The standing benchmark (benchmark/, contract in BENCHMARK.json) is a
# package of its own, outside the workspace, and frozen: the bench
# pipeline builds it against whatever the crates export. Build it here
# against the working tree so a crate-API change that breaks it fails
# locally instead of there. Its target dir lives under target/ so it
# shares the ignore rule and the offline vendor shims.
echo "==> gate: standing benchmark builds against the working tree"
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir target/benchmark

# Skip the suites that run next as labeled gates. (--skip is a substring
# filter applied inside every test binary, so use the full test-function
# names to keep the collision surface minimal.)
echo "==> cargo test -q (golden + stress + store gates deferred)"
cargo test -q -- \
    --skip golden_rankings_match_the_committed_corpus \
    --skip golden_corpus_files_are_well_formed \
    --skip readers_always_observe_consistent_epochs \
    --skip kill_and_recover_matches_uninterrupted_run_on_golden_measures \
    --skip random_checkpoint_recovery_equivalence \
    --skip recovered_export_matches_golden_corpus_workflow

echo "==> gate: golden-ranking regression corpus"
cargo test -q --test golden_rankings

echo "==> gate: serving concurrency stress (--test-threads ${CORES})"
cargo test -q --test serving_stress -- --test-threads "${CORES}"

# Durability gates (fast; kept inside --quick). The store's snapshot
# round-trip + WAL unit tests run in the main pass above; these two suites
# are the labeled corruption-hardening and crash-recovery regressions.
# Clear residue a *previous* (possibly failed) run may have left so the
# hygiene gate below judges only this run.
rm -rf target/tmp/dn_store_* target/tmp/dn_replica_* target/tmp/dn_http_gate target/tmp/dn_ingest_gate 2>/dev/null || true

echo "==> gate: store corruption hardening (typed errors, no panics)"
cargo test -q -p dn-store --test corruption

echo "==> gate: store crash recovery (kill + recover == uninterrupted)"
cargo test -q --test store_recovery

# Store and replica tests create their scratch dirs under target/tmp
# (CARGO_TARGET_TMPDIR) and must remove them; leftovers mean a test leaked
# state even though it passed.
echo "==> gate: store tempdir hygiene"
STRAY=$(find target/tmp -mindepth 1 -maxdepth 1 \( -name 'dn_store_*' -o -name 'dn_replica_*' \) 2>/dev/null || true)
if [[ -n "${STRAY}" ]]; then
    echo "stray store test directories left behind:" >&2
    echo "${STRAY}" >&2
    exit 1
fi

# HTTP serving smoke: start a real dn-serve process on a loopback port,
# then drive healthz → mutation → top-k → metrics → checkpoint → shutdown
# through the client module (dn-serve --smoke; no curl involved). Runs
# twice — once in default single-shard mode and once with --shards 2, so
# the scatter-gather coordinator is smoked end-to-end over the same wire.
# Self-cleaning under target/tmp, total runtime bounded by the polling
# loops below (~30s worst case per mode) plus the cargo build above.
http_gate_fail() {
    echo "HTTP gate (${HTTP_MODE}) failed: $1" >&2
    [[ -f "${HTTP_LOG}" ]] && sed 's/^/  server: /' "${HTTP_LOG}" >&2
    kill -9 "${HTTP_PID}" 2>/dev/null || true
    exit 1
}
for HTTP_MODE in single sharded; do
    HTTP_FLAGS=""
    [[ "${HTTP_MODE}" == "sharded" ]] && HTTP_FLAGS="--shards 2"
    echo "==> gate: HTTP serving smoke (dn-serve ${HTTP_FLAGS:-"--shards 1"} + client module)"
    HTTP_DIR="target/tmp/dn_http_gate_${HTTP_MODE}"
    rm -rf "${HTTP_DIR}" 2>/dev/null || true
    mkdir -p "${HTTP_DIR}"
    HTTP_LOG="${HTTP_DIR}/server.log"
    # --trace-sample 1 makes the smoke's per-trace ring assertions
    # mandatory; --slow-query-us 0 makes every request emit a slow-query
    # JSON line, asserted below.
    # shellcheck disable=SC2086  # HTTP_FLAGS is intentionally word-split
    ./target/release/dn-serve \
        --data-dir "${HTTP_DIR}/store" \
        --addr 127.0.0.1:0 --workers 2 --threads 4 \
        --trace-sample 1 --slow-query-us 0 ${HTTP_FLAGS} >"${HTTP_LOG}" 2>&1 &
    HTTP_PID=$!
    HTTP_ADDR=""
    for _ in $(seq 1 100); do
        HTTP_ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\) .*#\1#p' "${HTTP_LOG}" | head -1)
        [[ -n "${HTTP_ADDR}" ]] && break
        kill -0 "${HTTP_PID}" 2>/dev/null || http_gate_fail "server exited before binding"
        sleep 0.1
    done
    [[ -n "${HTTP_ADDR}" ]] || http_gate_fail "server never logged its address"
    ./target/release/dn-serve --smoke "${HTTP_ADDR}" || http_gate_fail "smoke client reported failure"
    # The smoke ends with POST /v1/admin/shutdown; the server must drain
    # and exit on its own (and leave no stray process behind).
    for _ in $(seq 1 200); do
        kill -0 "${HTTP_PID}" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "${HTTP_PID}" 2>/dev/null; then
        http_gate_fail "server did not shut down after the smoke"
    fi
    wait "${HTTP_PID}" || http_gate_fail "server exited non-zero"
    grep -q '"event":"slow_query"' "${HTTP_LOG}" \
        || http_gate_fail "no slow-query JSON line despite --slow-query-us 0"
    grep -q '"trace_id":"' "${HTTP_LOG}" \
        || http_gate_fail "slow-query lines carry no trace IDs despite --trace-sample 1"
    if [[ "${HTTP_MODE}" == "sharded" ]]; then
        [[ -f "${HTTP_DIR}/store/shards.json" ]] || http_gate_fail "sharded store wrote no manifest"
        [[ -d "${HTTP_DIR}/store/shard-1" ]] || http_gate_fail "sharded store wrote no shard-1 directory"
        grep -q "shards=2" "${HTTP_LOG}" || http_gate_fail "server did not start in 2-shard mode"
    fi
    rm -rf "${HTTP_DIR}"
done

# Replication smoke: a real 2-shard primary plus a real `--follow`
# follower, both on loopback port 0, driven end to end by
# dn-serve --smoke-replica (mutate via the primary, wait for the follower
# to converge at the matching epoch, assert dn_replica_lag_epochs returns
# to 0 with zero divergences, and assert the 403 read-only envelope). Runs
# twice: primary --threads 1 and primary --threads 4. The follower's
# divergence gauge compares score digests against its own (sequential)
# replay, so the second pass proves the pooled compute core is
# bit-identical to the sequential one across a real WAL-shipping pipeline.
# The smoke shuts both processes down itself; self-cleaning under
# target/tmp.
replica_gate_fail() {
    echo "replication gate (primary --threads ${REP_THREADS}) failed: $1" >&2
    [[ -f "${REP_DIR}/primary.log" ]] && sed 's/^/  primary: /' "${REP_DIR}/primary.log" >&2
    [[ -f "${REP_DIR}/follower.log" ]] && sed 's/^/  follower: /' "${REP_DIR}/follower.log" >&2
    kill -9 "${REP_PRIMARY_PID:-0}" "${REP_FOLLOWER_PID:-0}" 2>/dev/null || true
    exit 1
}
for REP_THREADS in 1 4; do
    echo "==> gate: replication smoke (primary --threads ${REP_THREADS} + --follow follower + --smoke-replica)"
    REP_DIR="target/tmp/dn_replica_gate"
    rm -rf "${REP_DIR}" 2>/dev/null || true
    mkdir -p "${REP_DIR}"
    ./target/release/dn-serve \
        --data-dir "${REP_DIR}/primary" \
        --addr 127.0.0.1:0 --workers 2 --shards 2 \
        --threads "${REP_THREADS}" >"${REP_DIR}/primary.log" 2>&1 &
    REP_PRIMARY_PID=$!
    REP_PRIMARY_ADDR=""
    for _ in $(seq 1 100); do
        REP_PRIMARY_ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\) .*#\1#p' "${REP_DIR}/primary.log" | head -1)
        [[ -n "${REP_PRIMARY_ADDR}" ]] && break
        kill -0 "${REP_PRIMARY_PID}" 2>/dev/null || replica_gate_fail "primary exited before binding"
        sleep 0.1
    done
    [[ -n "${REP_PRIMARY_ADDR}" ]] || replica_gate_fail "primary never logged its address"
    ./target/release/dn-serve \
        --data-dir "${REP_DIR}/follower" \
        --addr 127.0.0.1:0 --workers 2 --poll-ms 50 --threads 1 \
        --follow "http://${REP_PRIMARY_ADDR}" >"${REP_DIR}/follower.log" 2>&1 &
    REP_FOLLOWER_PID=$!
    REP_FOLLOWER_ADDR=""
    for _ in $(seq 1 100); do
        REP_FOLLOWER_ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\) .*#\1#p' "${REP_DIR}/follower.log" | head -1)
        [[ -n "${REP_FOLLOWER_ADDR}" ]] && break
        kill -0 "${REP_FOLLOWER_PID}" 2>/dev/null || replica_gate_fail "follower exited before binding"
        sleep 0.1
    done
    [[ -n "${REP_FOLLOWER_ADDR}" ]] || replica_gate_fail "follower never logged its address"
    ./target/release/dn-serve --smoke-replica "${REP_PRIMARY_ADDR}" "${REP_FOLLOWER_ADDR}" \
        || replica_gate_fail "smoke-replica client reported failure"
    for _ in $(seq 1 200); do
        kill -0 "${REP_PRIMARY_PID}" 2>/dev/null || kill -0 "${REP_FOLLOWER_PID}" 2>/dev/null || break
        sleep 0.1
    done
    kill -0 "${REP_PRIMARY_PID}" 2>/dev/null && replica_gate_fail "primary did not shut down after the smoke"
    kill -0 "${REP_FOLLOWER_PID}" 2>/dev/null && replica_gate_fail "follower did not shut down after the smoke"
    wait "${REP_PRIMARY_PID}" || replica_gate_fail "primary exited non-zero"
    wait "${REP_FOLLOWER_PID}" || replica_gate_fail "follower exited non-zero"
    rm -rf "${REP_DIR}"
done

# Drop-folder ingest smoke: a real dn-serve with --ingest-dir tails a CSV
# drop-folder on loopback while dn-serve --smoke-ingest writes three
# seeded homograph-drift file generations into it, waits until the served
# top-k ranks the drifted token from the last generation, and asserts the
# dn_ingest_* gauges in /metrics moved. The smoke shuts the server down
# itself; self-cleaning under target/tmp.
ingest_gate_fail() {
    echo "ingest gate failed: $1" >&2
    [[ -f "${ING_LOG}" ]] && sed 's/^/  server: /' "${ING_LOG}" >&2
    kill -9 "${ING_PID:-0}" 2>/dev/null || true
    exit 1
}
echo "==> gate: drop-folder ingest smoke (dn-serve --ingest-dir + --smoke-ingest)"
ING_DIR="target/tmp/dn_ingest_gate"
rm -rf "${ING_DIR}" 2>/dev/null || true
mkdir -p "${ING_DIR}"
ING_LOG="${ING_DIR}/server.log"
./target/release/dn-serve \
    --data-dir "${ING_DIR}/store" \
    --addr 127.0.0.1:0 --workers 2 --threads 4 \
    --ingest-dir "${ING_DIR}/drop" --ingest-poll-ms 50 >"${ING_LOG}" 2>&1 &
ING_PID=$!
ING_ADDR=""
for _ in $(seq 1 100); do
    ING_ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\) .*#\1#p' "${ING_LOG}" | head -1)
    [[ -n "${ING_ADDR}" ]] && break
    kill -0 "${ING_PID}" 2>/dev/null || ingest_gate_fail "server exited before binding"
    sleep 0.1
done
[[ -n "${ING_ADDR}" ]] || ingest_gate_fail "server never logged its address"
./target/release/dn-serve --smoke-ingest "${ING_ADDR}" "${ING_DIR}/drop" \
    || ingest_gate_fail "smoke-ingest client reported failure"
for _ in $(seq 1 200); do
    kill -0 "${ING_PID}" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "${ING_PID}" 2>/dev/null; then
    ingest_gate_fail "server did not shut down after the smoke"
fi
wait "${ING_PID}" || ingest_gate_fail "server exited non-zero"
[[ -f "${ING_DIR}/store/ingest.journal" ]] || ingest_gate_fail "ingester wrote no resume journal"
rm -rf "${ING_DIR}"

if [[ "$QUICK" -eq 0 ]]; then
    # Every workload twice from one seed: same operation stream, request
    # count, store bytes and ops delivered both times.
    echo "==> gate: standing benchmark determinism (--check-determinism --seconds 2)"
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
        --target-dir target/benchmark -- --check-determinism --seconds 2
    echo "==> criterion benches (offline shim, indicative timings)"
    cargo bench -q
    echo "==> exp_serving smoke (--scale 0.3)"
    cargo run --release -q -p dn-bench --bin exp_serving -- --scale 0.3
    echo "==> exp_http smoke (--scale 0.3)"
    cargo run --release -q -p dn-bench --bin exp_http -- --scale 0.3
    echo "==> exp_replica smoke (--scale 0.3)"
    cargo run --release -q -p dn-bench --bin exp_replica -- --scale 0.3
    echo "==> exp_parallel smoke (--scale 0.3)"
    cargo run --release -q -p dn-bench --bin exp_parallel -- --scale 0.3
    # The thread sweep must have produced a well-formed baseline: the
    # determinism verdict and the pass flag both present and true.
    echo "==> gate: BENCH_parallel.json well-formed"
    [[ -f BENCH_parallel.json ]] || { echo "exp_parallel wrote no BENCH_parallel.json" >&2; exit 1; }
    grep -q '"bits_identical": *true' BENCH_parallel.json \
        || { echo "BENCH_parallel.json does not record bits_identical=true" >&2; exit 1; }
    grep -q '"pass": *true' BENCH_parallel.json \
        || { echo "BENCH_parallel.json does not record pass=true" >&2; exit 1; }
    grep -q '"cores":' BENCH_parallel.json \
        || { echo "BENCH_parallel.json does not record the machine's core count" >&2; exit 1; }
    echo "==> exp_ingest smoke (--scale 0.3)"
    cargo run --release -q -p dn-bench --bin exp_ingest -- --scale 0.3
    # The ingest replay must have produced a well-formed baseline: the
    # 1e-9 end-state equivalence verdict and the fault counters present.
    echo "==> gate: BENCH_ingest.json well-formed"
    [[ -f BENCH_ingest.json ]] || { echo "exp_ingest wrote no BENCH_ingest.json" >&2; exit 1; }
    grep -q '"pass": *true' BENCH_ingest.json \
        || { echo "BENCH_ingest.json does not record pass=true" >&2; exit 1; }
    grep -q '"kill_restarts": *1' BENCH_ingest.json \
        || { echo "BENCH_ingest.json does not record the injected kill/restart" >&2; exit 1; }
    grep -q '"redelivered_batches": *1' BENCH_ingest.json \
        || { echo "BENCH_ingest.json does not record the redelivered batch" >&2; exit 1; }
    grep -q '"batches_applied":' BENCH_ingest.json \
        || { echo "BENCH_ingest.json does not record batches_applied" >&2; exit 1; }
    echo "==> exp_trace smoke (--scale 0.3)"
    cargo run --release -q -p dn-bench --bin exp_trace -- --scale 0.3
    # The overhead gate must have produced a well-formed baseline: the
    # <5% p99 verdict plus proof the instrumentation was live.
    echo "==> gate: BENCH_trace.json well-formed"
    [[ -f BENCH_trace.json ]] || { echo "exp_trace wrote no BENCH_trace.json" >&2; exit 1; }
    grep -q '"pass": *true' BENCH_trace.json \
        || { echo "BENCH_trace.json does not record pass=true" >&2; exit 1; }
    grep -q '"overhead_p99_pct":' BENCH_trace.json \
        || { echo "BENCH_trace.json does not record the p99 overhead" >&2; exit 1; }
    grep -q '"traces_published_during_sampled":' BENCH_trace.json \
        || { echo "BENCH_trace.json does not prove the instrumentation was live" >&2; exit 1; }
else
    echo "==> --quick: skipping benches and the exp_serving/exp_http smoke runs"
fi

echo "CI OK"
