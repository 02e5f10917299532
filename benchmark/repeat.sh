#!/usr/bin/env bash
# Repeatability check: two interleaved sets of N runs per workload on one
# build, each run with another seed (1..N, the same list for both sets; the
# driver varies the seed the same way). Prints, per workload and end-to-end
# metric, each set's median and quartiles, the spread (interquartile distance
# over median, the driver's measure), the single run furthest from its set's
# median, and the relative difference of the two medians against the metric's
# bound from BENCHMARK.json. Exits non-zero when
#   * the two medians differ by more than half the bound,
#   * a spread (other than setup_s's, which the driver exempts) exceeds the
#     bound, or
#   * more than one run in ten of a set lies further than the bound from the
#     set's median (the reference VM has spells of a minute or so in which
#     everything runs up to a third slower; the quartiles shrug one off, and
#     so does this rule).
#
#   benchmark/repeat.sh [N=5] [SECONDS=run_seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-5}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/dn-benchmark"
out="benchmark/target/out/repeat"
rm -rf "$out"
mkdir -p "$out"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for seed in $(seq 1 "$runs"); do
  for workload in $workloads; do
    for set in A B; do
      "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        tail -n 1 >"$out/$workload.$set.$seed.json"
    done
  done
done
python3 - "$out" "$runs" "$seconds" <<'EOF'
import json, statistics, sys
out, runs, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
bad = 0
print(f"# Repeatability: 2 interleaved sets x {runs} runs (seeds 1..{runs}), --seconds {seconds}\n")
for workload in (w["name"] for w in bench["workloads"]):
    print(f"## {workload}\n")
    print("| metric | unit | set A median [q1, q3] | set B median [q1, q3] | spread A | spread B | furthest run | median diff | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        cells, medians, spreads, furthest, outside = [], [], [], 0.0, 0
        for which in "AB":
            values = []
            for seed in range(1, runs + 1):
                result = json.load(open(f"{out}/{workload}.{which}.{seed}.json"))
                assert result["correct"] and result["failed"] == 0, (workload, which, seed)
                values.append(result["metrics"][name]["value"])
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            medians.append(median)
            spreads.append((q3 - q1) / median)
            away = [abs(v - median) / median for v in values]
            furthest = max(furthest, max(away))
            outside = max(outside, sum(a > bound for a in away))
            cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}]")
        diff = abs(medians[1] - medians[0]) / medians[0]
        reasons = []
        if diff > bound / 2:
            reasons.append("medians differ by more than half the bound")
        if name != "setup_s" and max(spreads) > bound:
            reasons.append("spread above the bound")
        if outside > runs // 10:
            reasons.append(f"{outside} runs of a set further than the bound from its median")
        bad += bool(reasons)
        verdict = "FAIL: " + "; ".join(reasons) if reasons else "ok"
        print(f"| {name} | {metric['unit']} | {cells[0]} | {cells[1]} | {spreads[0]:.2%} | {spreads[1]:.2%} | {furthest:.2%} | {diff:.2%} | {bound:.0%} | {verdict} |")
    print()
print("PASS" if not bad else f"FAIL: {bad} metric/workload pairs outside their bound")
sys.exit(1 if bad else 0)
EOF
