#!/usr/bin/env bash
# CI gate for the DomainNet reproduction workspace.
#
# Runs, in order: rustfmt check, the one-exposition-writer, one-paper-driver
# and one-lake greps, clippy with warnings denied, rustdoc with warnings
# denied, a release build (of the workspace, then of the frozen standing
# benchmark under benchmark/ against it), the test suite, and then the
# labeled gates of the GATES table below, each failing CI under its own
# name; then the check that tests/golden is as committed and a tempdir-
# hygiene check. The main `cargo test -q` pass skips every test a gate
# names, so each test runs exactly once, and a check first requires that
# every test the main pass skips is one some gate runs. The union of the
# test steps is the coverage of the repo's tier-1 command (`cargo build
# --release && cargo test -q`).
#
# Usage: ./ci.sh [--quick]
#   --quick   everything tier-1 (build, benchmark build, tests and every
#             quick gate); the full run adds the gates marked `full` (the
#             long modes of the CSV differential loop and of the snapshot,
#             WAL/mutation-body and HTTP-head hostile-bytes loops), the
#             standing benchmark's determinism run and `paper all --scale
#             0.2` from the release build
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

# ...and its test part: from the first #[cfg(test)] on.
test_tail() { awk '/#\[cfg\(test\)\]/{t=1} t{print}' "$1"; }

# The needle-2 numbers the ROADMAP anchors quote.
echo "non-test Rust lines (crates/*/src + src): $(find crates/*/src src -name '*.rs' | sort | while read -r file; do non_test "$file"; done | wc -l)"
echo "test Rust lines (tests + crates/*/tests + #[cfg(test)] tails): $( (find tests crates/*/tests -name '*.rs' -exec cat {} +; find crates/*/src src -name '*.rs' | sort | while read -r file; do test_tail "$file"; done) | wc -l)"

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

# lake::TextSet is the one structure that numbers distinct strings in the
# order first seen: the lake's values, a column's dictionary, the ingest
# differ's classes, a snapshot's label index.
echo "==> gate: one string set (no struct ValueInterner, no FxHashMap)"
if grep -E 'struct ValueInterner|FxHashMap' <<<"${LAKE_SRC}" >/dev/null; then
    echo "crates/*/src must hold no 'struct ValueInterner' and no 'FxHashMap' outside tests; number distinct strings with lake::TextSet" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

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

# The labeled gates, one per line: mode (quick, or full: skipped by
# --quick) | label | `cargo test` arguments | the test names it runs (the
# libtest filters; each is also a --skip of the main pass, a substring
# applied inside every test binary, so keep them full test-function
# names) | extra libtest flags.
GATES=(
    "quick|doc tests (rustdoc examples compile and pass)|--doc|(line"
    "quick|golden-ranking regression corpus|--test golden_rankings|golden_rankings_match_the_committed_corpus golden_corpus_files_are_well_formed single_shard_coordinator_serves_the_corpus_bit_identically"
    # Every table and figure of the paper's evaluation, recomputed at scale
    # 0.1 and compared to tests/golden/paper.json; docs/EXPERIMENTS.md must
    # quote it.
    "quick|paper ledger == committed results|--test paper_ledger|reproduces:: the_ledger_holds_every_experiment compute_width_does_not_move_the_ledger the_papers_claims_hold_in_the_ledger experiments_doc_quotes_the_ledger"
    # The served LCC, the attribute-set counting join, against the
    # per-value walk it replaced (random graphs with twins, isolated and
    # lone values, tombstones; SB and TUS small; widths 1, 2 and 3; scores
    # within 1e-12 relative, cardinalities exact, bits independent of width
    # and target list) and on Example 3.6; then the readers of the switch:
    # explain reads |N(v)| off the rankings, and a data dir whose manifest
    # names the retired value-neighbour LCC is refused with the typed error
    # that names it.
    "quick|attribute-set LCC == per-value walk (1e-12 relative; to_bits across widths and target lists), Example 3.6; explain's neighbour count off the view; a data dir naming the retired LCC reading is refused|-p dn-graph -p dn-service -p domainnet_suite --lib --test store_recovery|counting_join_matches_the_per_value_walk the_attribute_set_reading_prints_example_3_6 explain_cardinality_is_the_rankings a_data_dir_that_names_the_retired_lcc_reading_is_refused"
    # A prefix of both differential tests of the value-neighbour pass, the
    # whole-graph kernel the standing benchmark times (random graphs, each
    # also with a value tombstoned, + SB, and TUS small). The next gate is
    # the delta side of the served LCC: recomputing the dirty_values
    # dirty_region reports for a changed and renumbered graph, at width 2,
    # leaves every node to_bits()-equal to a full pass. The third is the
    # closed-neighbourhood primitive's |N(v)| over three- and four-word
    # graphs, and the attribute-set LCC's widths.
    "quick|value-neighbour pass == literal sweep (to_bits)|-p dn-graph --lib|join_matches_literal_sweep_bit_for_bit"
    "quick|dirty values are a complete invalidation set for the served LCC (to_bits)|-p dn-graph --lib|dirty_values_are_a_complete_invalidation_set"
    "quick|closed-neighbourhood cardinalities across word boundaries at widths 1, 2 and 4; attribute-set LCC at widths 1, 2, 3 and 4 (to_bits)|-p dn-graph --test properties|value_neighbor_counts_match_across_word_boundaries attribute_jaccard_is_width_invariant"
    # Brandes on the twin quotient against the per-node kernel (whole
    # graphs, component pools, sampled sources; 1, 2 and 4 threads; deep,
    # 2^32-path and full-lane-batch graphs), then lane batches against one
    # source at a time, bit for bit.
    "quick|twin-quotient Brandes == per-node Brandes (1e-12 relative); lane batches == one source at a time (to_bits)|-p dn-graph --lib|quotient_matches_per_node_brandes lanes_are_bit_identical_to_one_source_at_a_time"
    # BC runs its sources in one source order (per component, BFS order
    # from its lowest class, value classes first), exact BC in whole-lane
    # chunks laid out per component, sampled BC's draws in the same order.
    # So a component's bits are its own; sampled BC is re-drawn from the
    # whole graph as a build draws it; so recovery folds a WAL suffix in
    # one call onto the state folding it record by record gives. A delta
    # that changes no edge keeps every score and ranking as they are.
    "quick|BC sources in BFS order, value classes first, whole-lane chunks; a component's exact BC bits are its own; sampled BC after a delta == a fresh build's; a delta that changes no edge keeps the net; a WAL suffix folded in one call == record by record (to_bits)|-p dn-graph -p domainnet -p dn-store --lib|component_chunks_run_value_classes_then_attribute_classes_in_bfs_order drawn_classes_run_in_the_shared_source_order a_components_exact_bits_do_not_depend_on_the_rest_of_the_graph sampled_bc_after_a_delta_is_a_fresh_builds_estimate a_delta_that_changes_no_edge_keeps_the_net a_suffix_folded_in_one_call_equals_folding_it_record_by_record"
    # The in-order scheduler every pool call runs on: the sink sees every
    # index in order at widths 1-4 under seeded uneven costs, its error
    # stops the run, and a worker's or the sink's panic is re-raised after
    # the join, without a hang.
    "quick|in-order pool: sink order and values width-invariant; sink error stops the run; worker and sink panics re-raised after the join|-p dn-pool --lib|run_in_order_sinks_every_index_in_order_at_every_width a_sink_error_is_returned_and_stops_the_run a_worker_panic_at_the_awaited_index_is_re_raised_without_a_hang a_sink_panic_stops_claiming_and_is_re_raised_after_the_join"
    # The one-pass CSV parser against the line-joining reader it replaced
    # (seeded hostile bytes), and load_dir at pool widths 1, 2 and 4: the
    # lake or first error equals the sequential fold's, a failing add_table
    # included. A parse scratch reused across files (wide then narrow,
    # ragged, quoted, header-only, a failed strict parse, a growing table,
    # the hostile documents) parses as a fresh one, and a small file's
    # clear releases a large file's slot table.
    "quick|CSV parser == reference reader; hostile bytes never panic; load_dir width-invariant, a failing add_table stops it; a reused parse scratch == a fresh one, its clear bounded by the last file|-p lake --lib|hostile_bytes_match_the_reference_reader load_dir_is_width_invariant_and_matches_the_reference_reader a_failing_add_table_stops_the_load_at_every_width a_reused_parse_scratch_parses_as_a_fresh_one a_small_files_clear_releases_a_large_files_slot_table hostile_documents_parse_alike_through_a_reused_scratch"
    # Row reads leave no live heap behind (a counting allocator), the
    # dictionary differ gives its per-cell oracle's ops, and a one-column
    # table with empty cells survives a CSV round trip.
    "quick|a column holds its cells once: row reads retain nothing; dictionary diff == per-cell diff; one-column CSV round trip|-p lake -p dn-ingest -p domainnet_suite --lib --test row_reads_retain_nothing|row_reads_retain_nothing dictionary_diff_matches_the_per_cell_oracle a_one_column_table_with_empty_cells_round_trips"
    # Dictionary interning against the sorted-list oracle; new and JSON
    # decode keep four heap blocks; a forged `distinct` array fails at
    # decode (column JSON, POST body, WAL record).
    "quick|a column keeps only its dictionary: interning oracle, retention, forged list rejected at decode|-p lake -p dn-server -p dn-store -p domainnet_suite --lib --test column_keeps_only_its_dictionary --test corruption --test incremental_equivalence|dictionary_interning_matches_the_sorted_list_oracle a_column_keeps_only_its_dictionary_and_indices a_forged_distinct_array"
    # The lake's one store of raw cell texts: each text stored once and
    # found across the table's growth; a lake indexing tables of repeated
    # texts grows by their id vectors, not their text (a counting
    # allocator); a materialized table equals its in-flight shadow after
    # every seeded op and the lake section re-encodes byte for byte; a
    # checkpoint writes each text a live cell holds once and no dead one,
    # and the recovered lake is the writer's; and derive's direct CSR fill
    # is a builder's graph.
    "quick|one lake-wide text store: texts stored once, the lake grows by ids, materialized tables == in-flight shadows, a checkpoint writes each live text once, derive's CSR == the builder's|-p lake -p dn-store -p domainnet_suite --lib --test lake_keeps_each_text_once --test pipeline_properties|texts_are_stored_once_and_found_across_growth indexing_repeated_texts_grows_the_lake_by_ids_not_text materialized_tables_match_their_in_flight_shadows a_checkpoint_writes_only_the_texts_live_cells_hold derived_csr_is_the_builders_csr"
    # The read fan-out: reads that only borrow what a pinned view holds
    # gather in shard order on the request thread (no probe leaves it,
    # answers match a pooled view at every width and shard order); a score
    # read's one card probe gives each measure's per-measure card at 1, 2
    # and 4 shards and widths 1 and 4; a top-k miss nests one shard_query
    # span per shard under coord_scatter, and a score read for both
    # measures runs one card probe and one rank correction.
    "quick|read fan-out: in-order gathers on the calling thread, width- and order-invariant answers, one card probe per score read == per-measure cards, scatter span tree kept|-p dn-service -p domainnet_suite --lib --test trace_propagation|gather_probes_every_shard_in_order_on_the_calling_thread gathered_reads_do_not_depend_on_width_or_shard_order one_scatter_score_cards_equal_per_measure_cards sharded_requests_build_one_contained_span_tree"
    # --test-threads bounds concurrently running test functions, not the
    # threads a test spawns (this one spawns 8 readers and a writer).
    "quick|serving concurrency stress (--test-threads ${CORES})|--test serving_stress|readers_always_observe_consistent_epochs|--test-threads ${CORES}"
    "quick|store corruption hardening (typed errors, no panics)|-p dn-store --test corruption|pristine_snapshot_decodes bad_magic_is_typed future_format_version_is_typed forged_cardinalities_are_corrupt_not_served ill_shaped_tables_are_corrupt_not_served forged_lake_slots_are_corrupt_not_served a_lake_with_removed_and_readded_tables_round_trips_byte_identically hostile_snapshot_sections_decode_or_refuse truncation_at_every_region_is_typed_and_panic_free flipped_byte_in_each_section_fails_that_sections_crc flipped_bytes_in_the_header_never_panic read_snapshot_propagates_io_and_corruption_errors recovery_never_yields_a_half_loaded_engine wal_flip_truncates_replay_at_the_flip foreign_wal_is_a_typed_error checksum_valid_but_structurally_impossible_wal_record_is_typed_not_panic wal_scan_reports_valid_prefix_lengths"
    # Seeded edits of WAL records (resealed past the CRC) and mutation
    # bodies, and of real request heads read off a loopback socket.
    "quick|WAL records and mutation bodies under hostile bytes (typed errors, no panics)|--test hostile_inputs|hostile_wal_records_and_mutation_bodies_decode_or_refuse nested_brackets_in_a_checksum_valid_wal_record_are_corrupt"
    "quick|HTTP request heads under hostile bytes (typed errors, no panics)|--test hostile_inputs|hostile_http_heads_parse_or_refuse"
    "quick|store crash recovery (kill + recover == uninterrupted; a recovered reader's top 10 == the uninterrupted engine's)|--test store_recovery|kill_and_recover_matches_uninterrupted_run_on_golden_measures random_checkpoint_recovery_equivalence recovered_export_matches_golden_corpus_workflow"
    "quick|sharded batch == op-by-op placement; one WAL record per touched shard for an AddTable chain|--test shard_equivalence|grouped_commits_place_tables_as_op_by_op_commits an_add_table_chain_is_one_wal_record_per_touched_shard"
    # One referee for every write path (tests/common): each row drives
    # seeded streams, pruning on and off, through its path and holds every
    # engine it serves to the reference lake (lake equality, every shard's
    # net a fresh build of its lake by to_bits, the served exact rankings
    # a fresh build of the live tables within 1e-9), and fails if its
    # streams missed a kind of change.
    "quick|referee matrix: live, folded, recovered (1 and 3 shards), follower, HTTP, drop-folder ingest and sharded (1, 2, 4) rows serve the reference|--test referee_matrix|row_live_commits row_folded_runs row_recovered_after_every_commit row_follower row_http_mutations row_drop_folder_ingest row_sharded_1_2_4"
    # The real binaries, spawned by the test's spawn_server helper.
    "quick|HTTP serving probe (dn-serve --shards 1 and --shards 2)|--test dn_serve_process|http_probe_at_one_and_two_shards"
    "quick|replication probe (primary --threads 1 and 4 + --follow follower)|--test dn_serve_process|replica_probe_with_sequential_and_pooled_primary"
    "quick|drop-folder ingest probe (dn-serve --ingest-dir)|--test dn_serve_process|drop_folder_ingest_probe"
    "quick|drop-folder ingest probe (dn-ingest --once)|--test dn_serve_process|dn_ingest_once_ships_a_drop_folder_over_http"
    "quick|dn-serve argument errors (retired --smoke* and --cache-capacity flags exit 2 with usage)|--test dn_serve_process|retired_smoke_flags_are_rejected_with_usage"
    # The #[ignore]d long modes: the same properties from other seeds.
    "full|CSV parser == reference reader, long mode (60 000 seeded documents)|-p lake --lib|hostile_bytes_match_the_reference_reader_long|--ignored"
    "full|snapshot sections under hostile bytes, long mode (50 000 seeded cases)|-p dn-store --test corruption|hostile_snapshot_sections_decode_or_refuse_long|--ignored"
    "full|WAL records and mutation bodies under hostile bytes, long mode (50 000 seeded cases)|--test hostile_inputs|hostile_wal_records_and_mutation_bodies_decode_or_refuse_long|--ignored"
    "full|HTTP request heads under hostile bytes, long mode (50 000 seeded cases)|--test hostile_inputs|hostile_http_heads_parse_or_refuse_long|--ignored"
)

# The tests `cargo test ARGS` selects, one name a line.
listed() { cargo test -q "$@" --list 2>/dev/null | sed -n 's/: test$//p' | sort; }

SKIP=()
GATED=""
for entry in "${GATES[@]}"; do
    IFS='|' read -r _ _ args names flags <<<"${entry}"
    for name in ${names}; do SKIP+=(--skip "${name}"); done
    GATED+=$(listed ${args} -- ${flags} ${names})$'\n'
done

# Every test the main pass skips must be one a gate runs: a --skip that
# also hides a test elsewhere, or a gate name that matches nothing its gate
# runs, would otherwise leave a test running nowhere.
echo "==> gate: every test the main pass skips runs in a gate"
UNGATED=$(comm -23 <(comm -23 <(listed --) <(listed -- "${SKIP[@]}")) <(sort -u <<<"${GATED}"))
if [[ -n "${UNGATED}" ]]; then
    echo "skipped by the main pass but run by no gate:" >&2
    echo "${UNGATED}" >&2
    exit 1
fi

echo "==> cargo test -q (every gated test deferred to its gate)"
cargo test -q -- "${SKIP[@]}"

# Store, replica and process tests create their scratch dirs under
# target/tmp (CARGO_TARGET_TMPDIR) and must remove them. Clear residue a
# *previous* (possibly failed) run may have left so the hygiene gate below
# judges only this run.
rm -rf target/tmp/dn_store_* target/tmp/dn_replica_* target/tmp/dn_process_* 2>/dev/null || true

for entry in "${GATES[@]}"; do
    IFS='|' read -r mode label args names flags <<<"${entry}"
    if [[ "${mode}" == quick || "${QUICK}" -eq 0 ]]; then
        gate "${label}" ${args} -- ${flags} ${names}
    fi
done

# UPDATE_GOLDEN=1 rewrites the corpus and the ledger and passes; a kernel
# change must not get through that way.
git diff --exit-code -- tests/golden

# Leftover scratch dirs mean a test leaked state even though it passed.
echo "==> gate: test tempdir hygiene"
STRAY=$(find target/tmp -mindepth 1 -maxdepth 1 \( -name 'dn_store_*' -o -name 'dn_replica_*' -o -name 'dn_process_*' \) 2>/dev/null || true)
if [[ -n "${STRAY}" ]]; then
    echo "stray test directories left behind:" >&2
    echo "${STRAY}" >&2
    exit 1
fi

if [[ "$QUICK" -eq 0 ]]; then
    # Every workload twice from one seed: same operation stream, request
    # count, store bytes and ops delivered both times. The digests must
    # also be the committed ones: batch_detect's folds every ranked
    # score's bits, so a kernel or graph change that moves a ranking fails
    # here by workload name. (Byte counts are not pinned: formats change.)
    echo "==> gate: standing benchmark determinism (--check-determinism --seconds 2)"
    DETERMINISM=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
        --target-dir target/benchmark -- --check-determinism --seconds 2)
    echo "${DETERMINISM}"
    for pinned in batch_detect:1893493e3bd6ed79 serve_read_heavy:1cd3f341b6a2ccc1 \
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
    echo "==> --quick: skipping the full gates, the benchmark's determinism run and paper all --scale 0.2"
fi

echo "CI OK"
