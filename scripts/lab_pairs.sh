#!/usr/bin/env bash
# The lab (cmd/schemble-lab) on a parent and on the change, seed by seed.
#
#   scripts/lab_pairs.sh PARENT_REV SHAPE FIRST_SEED N
#
#   scripts/lab_pairs.sh HEAD~1 flash 9101 100
#   scripts/lab_pairs.sh HEAD~1 burst 9101 100
#
# The change is the working tree the script is run from, uncommitted edits
# included; the parent is PARENT_REV, exported into a directory of its own
# with git archive (the repository's .git is not touched). The change's
# cmd/schemble-lab is copied over the parent's, or into a parent that
# predates it, so one instrument measures both sides. Each side's lab is
# built in its own tree and replays SHAPE for seeds FIRST_SEED to
# FIRST_SEED+N-1. A replay runs on the virtual clock, so its lines do not
# depend on the box or on what else runs: both sides run at once.
#
# The lines are kept in OUT/parent.jsonl and OUT/change.jsonl. The summary
# prints how many seeds gave identical lines on both sides, then per metric
# each side's mean over the seeds and, for a metric with a better
# direction, the seeds the change won, the seeds the parent won and the
# ties. OUT defaults to a new temporary directory; set it to keep the runs
# somewhere known.
set -euo pipefail

if [[ $# -ne 4 ]]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
PARENT_REV=$1 SHAPE=$2 FIRST_SEED=$3 N=$4

CHANGE_TREE=$(git rev-parse --show-toplevel)
OUT=${OUT:-$(mktemp -d)}
mkdir -p "${OUT}"
OUT=$(cd "${OUT}" && pwd)
PARENT_TREE="${OUT}/parent-tree"

rm -rf "${PARENT_TREE}"
mkdir -p "${PARENT_TREE}"
git -C "${CHANGE_TREE}" archive --format=tar "${PARENT_REV}" | tar -x -C "${PARENT_TREE}"
rm -rf "${PARENT_TREE}/cmd/schemble-lab"
cp -R "${CHANGE_TREE}/cmd/schemble-lab" "${PARENT_TREE}/cmd/schemble-lab"

for side in parent change; do
    tree=${CHANGE_TREE}
    [[ ${side} == parent ]] && tree=${PARENT_TREE}
    (cd "${tree}" && go build -o "${OUT}/lab-${side}" ./cmd/schemble-lab)
done
for side in parent change; do
    "${OUT}/lab-${side}" -shape "${SHAPE}" -seed "${FIRST_SEED}" -n "${N}" >"${OUT}/${side}.jsonl" &
done
wait

python3 - "${OUT}" "${SHAPE}" <<'EOF'
import json, sys

out, shape = sys.argv[1:]

def load(side):
    return {r["seed"]: r for r in map(json.loads, open(f"{out}/{side}.jsonl")) if r}

parent, change = load("parent"), load("change")
seeds = sorted(set(parent) & set(change))
same = sum(parent[s] == change[s] for s in seeds)
print(f"{shape}: {len(seeds)} seeds, results in {out}")
print(f"identical lines: {same} of {len(seeds)} seeds")
names = sorted({k for s in seeds for k in parent[s]["metrics"]} | {k for s in seeds for k in change[s]["metrics"]})
print(f"{'metric':22} {'parent mean':>14} {'change mean':>14}  change won  parent won  tied")
for name in names:
    pairs = [(parent[s]["metrics"][name], change[s]["metrics"][name])
             for s in seeds if name in parent[s]["metrics"] and name in change[s]["metrics"]]
    if not pairs:
        continue
    pm = sum(a["value"] for a, _ in pairs) / len(pairs)
    cm = sum(b["value"] for _, b in pairs) / len(pairs)
    sign = {"higher": 1, "lower": -1}.get(pairs[0][1].get("better"), 0)
    won = "-", "-", "-"
    if sign:
        d = [sign * (b["value"] - a["value"]) for a, b in pairs]
        won = sum(x > 0 for x in d), sum(x < 0 for x in d), sum(x == 0 for x in d)
    print(f"{name:22} {pm:14.4f} {cm:14.4f}  {won[0]:>10}  {won[1]:>10}  {won[2]:>4}")
EOF
