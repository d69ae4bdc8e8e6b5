#!/usr/bin/env bash
# Alternating parent/change pairs of the planner, cold-start, runtime and HTTP
# micro-benchmarks, and the gate on them.
#
#   scripts/micro_pairs.sh PARENT_REV
#
#   scripts/micro_pairs.sh HEAD~1
#
# The change is the working tree the script is run from, uncommitted edits
# included; the parent is PARENT_REV, exported into a directory of its own
# with git archive (the repository's .git is not touched). Each side's test
# binaries for the five packages below are built once, in its own tree,
# and run from the package directory there, as go test runs them, at the
# default GOMAXPROCS (the same on both sides).
#
# Each of the three pairs runs every micro on both sides, the parent first
# in pairs 0 and 2 and the change first in pair 1, and prints both sides'
# ns/op and their ratio, and both sides' allocs/op for the micros that
# report them (a reading, not gated: it moves with b.N and the GC). A
# micro fails when the median of its per-pair change/parent ns/op ratios
# is above 1.25 and every pair's ratio is above 1: a box that slows down
# between runs moves both sides of a pair, and one noisy pair cannot fail a
# micro alone. A micro the parent does not have is reported and skipped;
# one the change does not report fails. Each run's output is kept in
# OUT/logs/ (OUT defaults to a new temporary directory). Exit status 1
# means a micro failed.
set -euo pipefail

if [[ $# -ne 1 ]]; then
    sed -n '5p' "$0" >&2
    exit 2
fi
PARENT_REV=$1

# The gate's decision rule below was validated at three pairs; with more,
# one fast pair is enough to keep a slower micro from failing.
PAIRS=3

# Each gated package and its micros (Benchmark<name>).
PACKAGES=(internal/core internal/nn internal/pipeline internal/serve internal/httpserve)
MICROS=("DPResolve DPLiveOverload DPLiveSlack DPLiveDeep GreedyEDF" TrainPredictor Fit "ReplayBurst ReplaySteady" Predict)

CHANGE_TREE=$(git rev-parse --show-toplevel)
OUT=${OUT:-$(mktemp -d)}
mkdir -p "${OUT}/logs"
OUT=$(cd "${OUT}" && pwd)
PARENT_TREE="${OUT}/parent-tree"

rm -rf "${PARENT_TREE}"
mkdir -p "${PARENT_TREE}"
git -C "${CHANGE_TREE}" archive --format=tar "${PARENT_REV}" | tar -x -C "${PARENT_TREE}"

tree_of() {
    if [[ $1 == parent ]]; then echo "${PARENT_TREE}"; else echo "${CHANGE_TREE}"; fi
}

for side in parent change; do
    for pkg in "${PACKAGES[@]}"; do
        (cd "$(tree_of "${side}")" && go test -c -o "${OUT}/${side}-${pkg##*/}.test" "./${pkg}")
    done
done

# run SIDE PAIR runs every package's micros on SIDE into OUT/logs/SIDE-PAIR.txt.
run() {
    local side=$1 pair=$2 tree i
    tree=$(tree_of "${side}")
    : >"${OUT}/logs/${side}-${pair}.txt"
    for i in "${!PACKAGES[@]}"; do
        (cd "${tree}/${PACKAGES[i]}" &&
            "${OUT}/${side}-${PACKAGES[i]##*/}.test" -test.run '^$' -test.bench "^Benchmark(${MICROS[i]// /|})$" \
                -test.benchmem -test.timeout 10m) >>"${OUT}/logs/${side}-${pair}.txt" 2>&1 || true
    done
}

start=${SECONDS}
for ((i = 0; i < PAIRS; i++)); do
    if ((i % 2 == 0)); then
        run parent "${i}"
        run change "${i}"
    else
        run change "${i}"
        run parent "${i}"
    fi
done

python3 - "${OUT}/logs" "${PAIRS}" "$((SECONDS - start))" "${MICROS[*]}" <<'EOF'
import re, statistics, sys

logs, pairs, wall, micros = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4].split()
LIMIT = 1.25
line = re.compile(r"^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op")
allocs = re.compile(r"\s(\d+) allocs/op")

def read(side, pair):
    ns = {}
    for l in open(f"{logs}/{side}-{pair}.txt"):
        m = line.match(l)
        if m:
            a = allocs.search(l)
            ns[m.group(1)] = float(m.group(2)), a.group(1) if a else "-"
    return ns

runs = [(read("parent", i), read("change", i)) for i in range(pairs)]
print(f"{pairs} pairs in {wall} s, logs in {logs}")
print(f"{'micro':16} {'pair':>4} {'parent ns/op':>16} {'change ns/op':>16} {'ratio':>7} {'parent allocs/op':>17} {'change allocs/op':>17}")
failed = False
for name in micros:
    if any(name not in c for _, c in runs):
        print(f"{name:16} FAIL: not reported by the change in every pair")
        failed = True
        continue
    if any(name not in p for p, _ in runs):
        print(f"{name:16} skipped: the parent does not have it")
        continue
    ratios = []
    for i, (p, c) in enumerate(runs):
        ratios.append(c[name][0] / p[name][0])
        print(f"{name:16} {i:4} {p[name][0]:16.0f} {c[name][0]:16.0f} {ratios[-1]:7.3f} {p[name][1]:>17} {c[name][1]:>17}")
    med = statistics.median(ratios)
    verdict = "ok"
    if med > LIMIT and min(ratios) > 1:
        verdict = f"FAIL: median ratio above {LIMIT} and every pair slower"
        failed = True
    print(f"{name:16} median ratio {med:.3f}: {verdict}")
sys.exit(1 if failed else 0)
EOF
