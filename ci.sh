#!/usr/bin/env bash
# CI gate for the DomainNet reproduction workspace.
#
# Runs, in order: rustfmt check, the one-exposition-writer, one-paper-driver
# and one-lake greps, clippy with warnings denied, rustdoc with warnings
# denied (so documentation rot fails the gate), the doc-test suite,
# a release build (of the workspace, then of the frozen standing benchmark
# under benchmark/ against it), the test suite, and then explicitly labeled
# gates: the golden-ranking regression corpus and the paper-results ledger
# (which must also leave tests/golden as committed), the Equation-1 join
# against its literal-sweep oracle, the twin-quotient Brandes kernel
# against its per-node oracle, the CSV parser against its reference
# reader and load_dir across pool widths, the concurrency stress test,
# the dn-store corruption-hardening suite, the crash-recovery suite, the
# sharded-batch placement property (a multi-shard commit grouped by shard
# places every table where op-by-op commits would), the process probes
# of tests/dn_serve_process.rs (the real dn-serve and dn-ingest binaries
# on loopback: HTTP at --shards 1 and 2, a 2-shard primary plus a --follow
# follower with a sequential and a pooled primary, drop-folder ingest
# in-process and via dn-ingest --once, and the argument error path), and a
# tempdir-hygiene check. The main `cargo test -q` pass
# skips the gated suites (they run once, in their own labeled steps, so a
# ranking drift, a consistency violation, a recovery regression or a broken
# binary fails CI with an unambiguous gate name instead of being buried in
# the full run); the union of the test steps is at least the coverage of
# the repo's tier-1 command (`cargo build --release && cargo test -q`).
#
# The stress gate passes `--test-threads` matched to the machine's cores.
# Note libtest's --test-threads bounds *concurrently running test
# functions*, not the threads a test spawns — today serving_stress has one
# test (which spawns its own 8 readers + writer regardless), so the flag
# only starts mattering as more stress tests are added to that binary.
#
# Usage: ./ci.sh [--quick]
#   --quick   everything tier-1 (build, benchmark build, tests, golden,
#             ledger, stress, recovery, sharded placement, process
#             probes); the full run is
#             --quick plus the CSV differential loop's long mode, the
#             standing benchmark's determinism run and
#             `paper all --scale 0.2` from the release build
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

# A source file's non-test part: everything up to its first #[cfg(test)].
non_test() { awk '/#\[cfg\(test\)\]/{exit} {print}' "$1"; }

# The needle-2 number the ROADMAP anchors quote.
echo "non-test Rust lines (crates/*/src + src): $(find crates/*/src src -name '*.rs' | sort | while read -r file; do non_test "$file"; done | wc -l)"

# The registry (crates/trace/src/metrics.rs) holds the only code that
# formats a /metrics line. A `# TYPE` or `_bucket{` anywhere else in
# non-test Rust is a metric hand-formatted around it.
echo "==> gate: one exposition writer (# TYPE and _bucket{ only in dn-trace's registry)"
for needle in '# TYPE' '_bucket{'; do
    HITS=$(find crates/*/src src -name '*.rs' | sort | while read -r file; do
        # not grep -q: it exits at the first hit, awk dies of SIGPIPE and
        # pipefail turns the hit into a miss
        if non_test "$file" | grep -F -- "$needle" >/dev/null; then
            echo "$file"
        fi
    done)
    if [[ "${HITS}" != "crates/trace/src/metrics.rs" ]]; then
        echo "'${needle}' must occur in crates/trace/src/metrics.rs and nowhere else; found in:" >&2
        echo "${HITS:-(no file)}" >&2
        exit 1
    fi
done

echo "==> gate: one paper driver (exactly one fn main under crates/bench)"
[[ $(grep -rho 'fn main' crates/bench | wc -l) -eq 1 ]] || { echo "crates/bench must hold one fn main, the paper binary's" >&2; exit 1; }

# The lake is one struct with one LakeView impl (lake::delta::MutableLake);
# LakeCatalog is a type alias the frozen benchmark names.
echo "==> gate: one lake (no struct LakeCatalog, exactly one impl LakeView for)"
LAKE_SRC=$(find crates/*/src -name '*.rs' | sort | while read -r file; do non_test "$file"; done)
if grep -F 'struct LakeCatalog' <<<"${LAKE_SRC}" >/dev/null || [[ $(grep -cF 'impl LakeView for' <<<"${LAKE_SRC}") -ne 1 ]]; then
    echo "crates/*/src must hold no 'struct LakeCatalog' and exactly one 'impl LakeView for'" >&2
    exit 1
fi

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

# A labeled gate: `cargo test -q <args>`, failing with the gate's name when
# the tests fail or when none passed. A filter that matches nothing exits
# 0, so without the count a renamed test would empty its gate silently.
gate() {
    local label=$1 out passed
    shift
    echo "==> gate: ${label}"
    out=$(cargo test -q "$@" 2>&1) || { echo "${out}"; echo "gate failed: ${label}" >&2; exit 1; }
    echo "${out}"
    passed=$(awk '{ for (i = 2; i <= NF; i++) if ($i ~ /^passed;?$/) s += $(i - 1) } END { print s + 0 }' <<<"${out}")
    if [[ "${passed}" -lt 1 ]]; then
        echo "gate ran no test: ${label}" >&2
        exit 1
    fi
}

# Skip the suites that run next as labeled gates. (--skip is a substring
# filter applied inside every test binary, so use the full test-function
# names to keep the collision surface minimal.)
echo "==> cargo test -q (golden + ledger + stress + store + process gates deferred)"
cargo test -q -- \
    --skip golden_rankings_match_the_committed_corpus \
    --skip golden_corpus_files_are_well_formed \
    --skip reproduces:: \
    --skip the_ledger_holds_every_experiment \
    --skip compute_width_does_not_move_the_ledger \
    --skip the_papers_claims_hold_in_the_ledger \
    --skip experiments_doc_quotes_the_ledger \
    --skip join_matches_literal_sweep_bit_for_bit \
    --skip quotient_matches_per_node_brandes \
    --skip hostile_bytes_match_the_reference_reader \
    --skip load_dir_is_width_invariant_and_matches_the_reference_reader \
    --skip readers_always_observe_consistent_epochs \
    --skip kill_and_recover_matches_uninterrupted_run_on_golden_measures \
    --skip random_checkpoint_recovery_equivalence \
    --skip grouped_commits_place_tables_as_op_by_op_commits \
    --skip recovered_export_matches_golden_corpus_workflow \
    --skip http_probe_at_one_and_two_shards \
    --skip replica_probe_with_sequential_and_pooled_primary \
    --skip drop_folder_ingest_probe \
    --skip dn_ingest_once_ships_a_drop_folder_over_http \
    --skip retired_smoke_flags_are_rejected_with_usage

gate "golden-ranking regression corpus" --test golden_rankings

# Every table and figure of the paper's evaluation, recomputed at scale 0.1
# and compared to tests/golden/paper.json; docs/EXPERIMENTS.md must quote it.
gate "paper ledger == committed results" --test paper_ledger
# UPDATE_GOLDEN=1 rewrites the corpus and the ledger and passes; a kernel
# change must not get through that way.
git diff --exit-code -- tests/golden

# The filter is a prefix of both differential tests (random graphs + SB, and
# TUS small on its own). The second gate is the delta side of the same
# kernel: recomputing the dirty_values dn_graph::delta::dirty_region reports
# for a changed graph leaves every node to_bits()-equal to a full pass.
gate "Equation-1 join == literal sweep (to_bits)" \
    -p dn-graph --lib join_matches_literal_sweep_bit_for_bit
gate "dirty values are a complete invalidation set (to_bits)" \
    -p dn-graph --lib dirty_values_are_a_complete_invalidation_set

# Brandes on the twin quotient against the retained per-node kernel: whole
# graphs, component pools and sampled sources, at 1, 2 and 4 threads.
gate "twin-quotient Brandes == per-node Brandes (1e-12 relative)" \
    -p dn-graph --lib quotient_matches_per_node_brandes

# The one-pass CSV parser against the line-joining reader it replaced
# (seeded hostile bytes), and load_dir's lake or first error at pool
# widths 1, 2 and 4 against that reader's sequential fold.
gate "CSV parser == reference reader; hostile bytes never panic; load_dir width-invariant" \
    -p lake --lib -- hostile_bytes_match_the_reference_reader \
    load_dir_is_width_invariant_and_matches_the_reference_reader

gate "serving concurrency stress (--test-threads ${CORES})" \
    --test serving_stress -- --test-threads "${CORES}"

# Durability gates (fast; kept inside --quick). The store's snapshot
# round-trip + WAL unit tests run in the main pass above; these two suites
# are the labeled corruption-hardening and crash-recovery regressions.
# Clear residue a *previous* (possibly failed) run may have left so the
# hygiene gate below judges only this run.
rm -rf target/tmp/dn_store_* target/tmp/dn_replica_* target/tmp/dn_process_* 2>/dev/null || true

gate "store corruption hardening (typed errors, no panics)" -p dn-store --test corruption
gate "store crash recovery (kill + recover == uninterrupted)" --test store_recovery
gate "sharded batch == op-by-op placement" \
    --test shard_equivalence grouped_commits_place_tables_as_op_by_op_commits

# Process probes: the real binaries, spawned by the test's spawn_server
# helper (which owns launch, address discovery, exit status and cleanup).
gate "HTTP serving probe (dn-serve --shards 1 and --shards 2)" \
    --test dn_serve_process http_probe_at_one_and_two_shards
gate "replication probe (primary --threads 1 and 4 + --follow follower)" \
    --test dn_serve_process replica_probe_with_sequential_and_pooled_primary
gate "drop-folder ingest probe (dn-serve --ingest-dir)" \
    --test dn_serve_process drop_folder_ingest_probe
gate "drop-folder ingest probe (dn-ingest --once)" \
    --test dn_serve_process dn_ingest_once_ships_a_drop_folder_over_http
gate "dn-serve argument errors (retired --smoke* flags exit 2 with usage)" \
    --test dn_serve_process retired_smoke_flags_are_rejected_with_usage

# Store, replica and process tests create their scratch dirs under
# target/tmp (CARGO_TARGET_TMPDIR) and must remove them; leftovers mean a
# test leaked state even though it passed.
echo "==> gate: test tempdir hygiene"
STRAY=$(find target/tmp -mindepth 1 -maxdepth 1 \( -name 'dn_store_*' -o -name 'dn_replica_*' -o -name 'dn_process_*' \) 2>/dev/null || true)
if [[ -n "${STRAY}" ]]; then
    echo "stray test directories left behind:" >&2
    echo "${STRAY}" >&2
    exit 1
fi

if [[ "$QUICK" -eq 0 ]]; then
    # The CSV differential loop's long mode: the same property as the
    # quick gate above over 60 000 documents from another seed (#[ignore]d
    # in the plain test run).
    gate "CSV parser == reference reader, long mode (60 000 seeded documents)" \
        -p lake --lib -- --ignored hostile_bytes_match_the_reference_reader_long

    # Every workload twice from one seed: same operation stream, request
    # count, store bytes and ops delivered both times. The digests must
    # also be the committed ones: batch_detect's folds every ranked
    # score's bits, so a kernel or graph change that moves a ranking fails
    # here by workload name. (Byte counts are not pinned: formats change.)
    echo "==> gate: standing benchmark determinism (--check-determinism --seconds 2)"
    DETERMINISM=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
        --target-dir target/benchmark -- --check-determinism --seconds 2)
    echo "${DETERMINISM}"
    for pinned in batch_detect:4c2c4963aeefb31a serve_read_heavy:1cd3f341b6a2ccc1 \
        serve_write_heavy:89f7dcf647c4ddf7 ingest_restart:f129264fa90ba08b; do
        if ! grep -F -- "${pinned%%:*}: digest ${pinned#*:}," <<<"${DETERMINISM}" >/dev/null; then
            echo "${pinned%%:*}: digest is not the committed ${pinned#*:}" >&2
            exit 1
        fi
    done
    # The printer, the argument parser and a lake four times the ledger's.
    echo "==> paper all --scale 0.2 (release build; output in target/paper_scale_0.2.md)"
    ./target/release/paper all --scale 0.2 > target/paper_scale_0.2.md
else
    echo "==> --quick: skipping the CSV long mode, the benchmark's determinism run and paper all --scale 0.2"
fi

echo "CI OK"
