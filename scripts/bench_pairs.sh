#!/usr/bin/env bash
# Alternating parent/change pairs of the repository benchmark.
#
#   scripts/bench_pairs.sh PARENT_REV WORKLOAD FIRST_SEED PAIRS [BENCH_FLAGS...]
#
#   scripts/bench_pairs.sh HEAD~1 features-flash 5101 10
#   scripts/bench_pairs.sh HEAD~1 burst 5201 2 --trace 1
#
# The change is the working tree the script is run from, uncommitted edits
# included; the parent is PARENT_REV, exported into a directory of its own
# with git archive (the repository's .git is not touched). Each side's
# ./bench is built in its own tree and run from it: http-closed builds
# cmd/schemble-server from the tree the bench runs in, so a shared tree
# would measure the wrong server.
#
# Pair i runs seed FIRST_SEED+i on both sides, the parent first on even i
# and the change first on odd i. Each run is
#   bench --workload WORKLOAD --seed SEED --seconds 14 --trace 0 [BENCH_FLAGS...]
# (a later flag wins, so BENCH_FLAGS may override the defaults). Every
# result line is kept in OUT/parent.jsonl and OUT/change.jsonl, each run's
# report in OUT/logs/, and the summary prints, per metric, each side's
# median and quartiles, how many pairs the change won, and a verdict:
#   gain        the change won at least 9 pairs in 10 and its median is
#               better than the parent's by more than the parent's IQR;
#   worse       the change's median is worse than the parent's by more than
#               the metric's bound in BENCHMARK.json (a share of the
#               parent's median; per-layer metrics have none);
#   unresolved  the parent's own IQR is wider than that bound;
#   same        none of these.
# OUT defaults to a new temporary directory; set it to keep the runs
# somewhere known.
set -euo pipefail

if [[ $# -lt 4 ]]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
PARENT_REV=$1 WORKLOAD=$2 FIRST_SEED=$3 PAIRS=$4
shift 4

CHANGE_TREE=$(git rev-parse --show-toplevel)
OUT=${OUT:-$(mktemp -d)}
mkdir -p "${OUT}/logs"
OUT=$(cd "${OUT}" && pwd)
PARENT_TREE="${OUT}/parent-tree"

rm -rf "${PARENT_TREE}"
mkdir -p "${PARENT_TREE}"
git -C "${CHANGE_TREE}" archive --format=tar "${PARENT_REV}" | tar -x -C "${PARENT_TREE}"

for side in parent change; do
    tree=${CHANGE_TREE}
    [[ ${side} == parent ]] && tree=${PARENT_TREE}
    (cd "${tree}" && go build -o "${OUT}/bench-${side}" ./bench)
    : >"${OUT}/${side}.jsonl"
done

# run SIDE SEED [BENCH_FLAGS...] appends one result line to OUT/SIDE.jsonl.
run() {
    local side=$1 seed=$2 tree=${CHANGE_TREE} line
    shift 2
    [[ ${side} == parent ]] && tree=${PARENT_TREE}
    line=$(cd "${tree}" && "${OUT}/bench-${side}" --workload "${WORKLOAD}" --seed "${seed}" \
        --seconds 14 --trace 0 "$@" 2>"${OUT}/logs/${side}-${seed}.log" | tail -n 1) || true
    [[ ${line} == '{'* ]] || line='{}'
    echo "${line}" >>"${OUT}/${side}.jsonl"
    echo "${side} seed ${seed}: ${line}" >&2
}

for ((i = 0; i < PAIRS; i++)); do
    seed=$((FIRST_SEED + i))
    if ((i % 2 == 0)); then
        run parent "${seed}" "$@"
        run change "${seed}" "$@"
    else
        run change "${seed}" "$@"
        run parent "${seed}" "$@"
    fi
done

python3 - "${OUT}" "${CHANGE_TREE}/BENCHMARK.json" "${WORKLOAD}" <<'EOF'
import json, statistics, sys

out, spec, workload = sys.argv[1:]
spec = json.load(open(spec))
metrics = spec["end_to_end"] + spec["per_layer"]
better = {m["name"]: m["better"] for m in metrics}
bound = {m["name"]: m["bound"] for m in metrics if "bound" in m}

def load(side):
    return [json.loads(l) for l in open(f"{out}/{side}.jsonl") if l.strip()]

parent, change = load("parent"), load("change")
runs = parent + change
print(f"{workload}: {len(parent)} pairs, results in {out}")
print(f"correct on every run: {all(r.get('correct') for r in runs)}; "
      f"failed {sum(r.get('failed', 0) for r in runs)} of {sum(r.get('attempted', 0) for r in runs)} attempted")

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, med, q3

def verdict(name, sign, won, n, pq, cq):
    gain = sign * (cq[1] - pq[1])  # > 0 when the change's median is better
    spread, scale = pq[2] - pq[0], abs(pq[1])
    if 10 * won >= 9 * n and gain > spread:
        return "gain"
    if name in bound and -gain > bound[name] * scale:
        return "worse"
    if name in bound and spread > bound[name] * scale:
        return "unresolved"
    return "same"

names = sorted({k for r in runs for k in r.get("metrics", {})})
print(f"{'metric':34} {'parent p50 [q1-q3]':>30} {'change p50 [q1-q3]':>30}  wins  verdict")
for name in names:
    pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
             for a, b in zip(parent, change) if name in a.get("metrics", {}) and name in b.get("metrics", {})]
    if not pairs:
        continue
    sign = {"higher": 1, "lower": -1}.get(better.get(name), 0)
    pq, cq = quartiles([a for a, _ in pairs]), quartiles([b for _, b in pairs])
    wins, call = "-", "-"
    if sign:
        won = sum(sign * (b - a) > 0 for a, b in pairs)
        wins, call = f"{won}/{len(pairs)}", verdict(name, sign, won, len(pairs), pq, cq)
    print(f"{name:34} {pq[1]:12.4f} [{pq[0]:.4f}-{pq[2]:.4f}] {cq[1]:12.4f} [{cq[0]:.4f}-{cq[2]:.4f}]  {wins:>5}  {call}")
EOF
