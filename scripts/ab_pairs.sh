#!/usr/bin/env bash
# Interleaved A/B pairs: the same command run on two revisions, alternately.
#
#   scripts/ab_pairs.sh <rev-a> <rev-b> <n> <out-dir> -- <command...>
#
# Each rev (anything `git archive` takes: a commit, a branch, or a tree such
# as `$(git write-tree)` for the staged changes) is unpacked under
# <out-dir>/{a,b}/src and built, release, into its own CARGO_TARGET_DIR
# (<out-dir>/{a,b}/target): the root workspace's binaries and, when the tree
# has one, `benchmark/`'s. A side whose tree is already built there is
# reused, so several commands can share one out-dir. Then n pairs run; pair i runs
# A first when i is even and B first when it is odd, each side from its own
# tree, with `{seed}` in the command replaced by AB_SEED + i (AB_SEED
# defaults to 77). Every run's output is kept under <out-dir>/runs/<start time>.
#
# A run's metrics are read from its stdout: the benchmark's JSON record
# (`metrics`, labelled by the command's `--workload`) and the
# `== title ==` / `label k=v ...` rows the experiments binary prints. For each
# metric the summary prints both sides' median and quartiles, B's median
# change, and in how many pairs B was better (ties count for neither). A
# second line gives the median of the pairs' own relative changes with a
# distribution-free 95 % interval — order statistics d(k) and d(n+1-k) of
# the sorted changes, k the largest with P(Binomial(n, 1/2) < k) <= 2.5 %,
# so at least 6 pairs — and whether the gain rule holds: B better in at
# least nine tenths of at least 10 pairs, and the medians apart, in B's
# favour, by more than A's quartile spread (q3 - q1). Directions come from
# B's BENCHMARK.json; a metric it does not name is better higher when its
# name ends in a rate (`per_s`, `per_sec`), else lower.
#
# Nothing is written outside <out-dir>. Run nothing else meanwhile: the pairs
# share the host's cores with whatever else runs.
#
# Example: ten pairs of one benchmark row, parent against the staged tree:
#   scripts/ab_pairs.sh HEAD "$(git write-tree)" 10 /tmp/ab -- \
#     cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
#     bench --results benchmark/results --workload ingest_bigstate --seed {seed} \
#     --seconds 10 --trace 0
set -euo pipefail

usage() {
  echo "usage: $0 <rev-a> <rev-b> <n> <out-dir> -- <command...>" >&2
  exit 2
}
[ $# -ge 6 ] && [ "$5" = "--" ] || usage
rev_a=$1 rev_b=$2 n=$3 out=$4
shift 5
[[ $n =~ ^[1-9][0-9]*$ ]] || usage
seed0=${AB_SEED:-77}
repo=$(git rev-parse --show-toplevel)
mkdir -p "$out"
out=$(cd "$out" && pwd)
runs="$out/runs/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$runs"

build() { # <side> <rev>
  local tree="$out/$1/src" id
  id=$(git -C "$repo" rev-parse "$2^{tree}")
  if [ "$(cat "$out/$1/tree" 2>/dev/null)" = "$id" ]; then return; fi
  rm -rf "$tree" "$out/$1/tree" && mkdir -p "$tree"
  git -C "$repo" archive "$2" | tar x -C "$tree"
  (
    cd "$tree"
    export CARGO_TARGET_DIR="$out/$1/target"
    cargo build --release --offline --quiet --bins
    if [ -f benchmark/Cargo.toml ]; then
      cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
    fi
  ) >"$out/$1/build.log" 2>&1 || { echo "building $1 ($2) failed: $out/$1/build.log" >&2; exit 1; }
  echo "$id" >"$out/$1/tree"
}

run() { # <side> <pair> <seed>
  local cmd=("${@:4}") i
  for i in "${!cmd[@]}"; do cmd[i]=${cmd[i]//\{seed\}/$3}; done
  (cd "$out/$1/src" && CARGO_TARGET_DIR="$out/$1/target" "${cmd[@]}") \
    >"$runs/$2-$1.out" 2>"$runs/$2-$1.err" ||
    echo "pair $2 side $1 exited non-zero (see $runs/$2-$1.err)" >&2
}

echo "building a = $rev_a, b = $rev_b under $out" >&2
build a "$rev_a"
build b "$rev_b"
for ((i = 0; i < n; i++)); do
  seed=$((seed0 + i))
  if ((i % 2 == 0)); then order=(a b); else order=(b a); fi
  for side in "${order[@]}"; do run "$side" "$i" "$seed" "$@"; done
  echo "pair $((i + 1))/$n done (seed $seed, ${order[0]} first)" >&2
done

python3 - "$out" "$runs" "$n" "$@" <<'EOF'
import json, math, re, statistics, sys

out, runs_dir, n, cmd = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
label = cmd[cmd.index("--workload") + 1] if "--workload" in cmd else "run"
better = {}
try:
    spec = json.load(open(f"{out}/b/src/BENCHMARK.json"))
    for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
        better[m["name"]] = m["better"]
except (OSError, ValueError):
    pass

def metrics(path):
    found, title = {}, ""
    for line in open(path).read().splitlines():
        if line.startswith("{") and '"metrics"' in line:
            for k, v in json.loads(line)["metrics"].items():
                v = v.get("value") if isinstance(v, dict) else v
                if isinstance(v, (int, float)):
                    found[f"{label} / {k}"] = v
        elif line.startswith("== "):
            title = re.sub(r"\s*\(.*", "", line.strip("= "))
        elif "=" in line:
            head, *pairs = re.split(r"\s+(?=[\w.]+=)", line.strip())
            for kv in pairs:
                k, v = kv.split("=", 1)
                try:
                    found[f"{title} / {head} / {k}"] = float(v)
                except ValueError:
                    pass
    return found

runs = {s: [metrics(f"{runs_dir}/{i}-{s}.out") for i in range(n)] for s in "ab"}
def q(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def sign_interval(changes):
    """The median's distribution-free 95 % interval from sign-test order
    statistics, with its exact coverage; None below 6 values."""
    m, xs = len(changes), sorted(changes)
    tail = lambda k: sum(math.comb(m, i) for i in range(k)) / 2**m  # P(X < k)
    k = max((k for k in range(1, m // 2 + 1) if tail(k) <= 0.025), default=0)
    return (xs[k - 1], xs[m - k], 1 - 2 * tail(k)) if k else None

print(f"{n} pairs, a first in even pairs; a = median [q1, q3]; b likewise; wins = pairs b better")
for name in sorted(set().union(*runs["a"], *runs["b"])):
    pairs = [(ra[name], rb[name]) for ra, rb in zip(runs["a"], runs["b"]) if name in ra and name in rb]
    if not pairs:
        continue
    key = name.rsplit(" / ", 1)[-1]
    up = better.get(key, "higher" if re.search(r"per_s(ec)?$", key) else "lower") == "higher"
    wins = sum((b > a) if up else (b < a) for a, b in pairs)
    (a1, am, a3), (b1, bm, b3) = q([p[0] for p in pairs]), q([p[1] for p in pairs])
    change = f"{(bm - am) / am * 100:+.1f}%" if am else "n/a"
    print(f"{name}: a {am:.4g} [{a1:.4g}, {a3:.4g}]  b {bm:.4g} [{b1:.4g}, {b3:.4g}]  "
          f"{change}  wins {wins}/{len(pairs)} ({'higher' if up else 'lower'} is better)")
    changes = [(b - a) / abs(a) * 100 for a, b in pairs if a]
    ci = sign_interval(changes) if changes else None
    paired = (f"paired change {statistics.median(changes):+.1f}%, 95% interval "
              f"[{ci[0]:+.1f}%, {ci[1]:+.1f}%] (coverage {ci[2] * 100:.1f}%)" if ci else
              "paired change: no 95% interval under 6 pairs")
    gap = (bm - am) if up else (am - bm)
    holds = len(pairs) >= 10 and wins * 10 >= 9 * len(pairs) and gap > a3 - a1
    print(f"    {paired}; gain rule {'holds' if holds else 'not met'} "
          f"(wins {wins}/{len(pairs)}, gap {gap:.4g} vs a's quartile spread {a3 - a1:.4g})")
EOF
