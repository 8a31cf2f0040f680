#!/usr/bin/env bash
# The paired verdict: the working tree against a parent revision, run in
# alternating pairs of `bench_e2e`, one verdict per end-to-end metric.
#
#   scripts/pairs.sh --parent <rev> --pairs N [--workload W] [--seed S]
#                    [--note TEXT] [--work DIR]
#
# Both sides build once, in release, each into its own target directory
# under --work (default: ${TMPDIR:-/tmp}/laminar-pairs, kept between
# calls so a second call rebuilds only what changed). After its build,
# each side's corpus fixtures (`laminar-bench/fixture-*` in its target
# directory) are deleted: the benchmark reuses any fixture it finds, so
# one written by an older revision's server would otherwise be measured,
# and what a server writes at load time never would. Each run set's
# first corpus run rebuilds its fixture with that side's own server (its
# `setup_s` is timed after the load, as every run's is). The parent is
# exported with `git archive` into --work, so the repository gains no
# worktree or branch. Pair i runs the parent first when i is odd and the
# working tree first when i is even; both sides get the same arguments,
# with the run length BENCHMARK.json sets (`run_seconds`), so every run
# set is comparable:
#
#   bench_e2e --workload W --seed S --seconds <run_seconds> --trace 0
#
# For every end-to-end metric of BENCHMARK.json the script prints every
# pair and one verdict:
#
#   better     the change wins at least 9 of every 10 pairs and its median
#              beats the parent's by more than the parent's interquartile
#              range (IQR);
#   worse      the same, the other way;
#   unchanged  neither, and both the parent's IQR and the median change are
#              within the metric's bound;
#   unresolved anything else: the runs spread too widely to tell.
#
# The run set (every run's end-to-end metrics, a few per-layer ones, the
# verdicts) is appended to BENCH_pairs.json at the repository root. It
# names the measured code by HEAD and by `change_tree`, the git tree id
# of the working tree (tracked and untracked files, less ignored ones);
# `change` carries a `+dirty` suffix when that tree is not HEAD's.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

parent=""
pairs=10
workload=ingest
seed=5
note=""
work=${TMPDIR:-/tmp}/laminar-pairs
while (($#)); do
    case $1 in
        --parent) parent=$2; shift ;;
        --pairs) pairs=$2; shift ;;
        --workload) workload=$2; shift ;;
        --seed) seed=$2; shift ;;
        --note) note=$2; shift ;;
        --work) work=$2; shift ;;
        *) sed -n '2,40p' "$0" >&2; exit 2 ;;
    esac
    shift
done
if [[ -z $parent ]]; then
    sed -n '2,40p' "$0" >&2
    exit 2
fi

seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")
parent_sha=$(git rev-parse --verify "$parent^{commit}")
mkdir -p "$work"
work=$(cd "$work" && pwd)

# The working tree's content id: stage everything into a scratch index
# (the real one is untouched) and write its tree.
index="$work/index"
cp "$(git rev-parse --git-path index)" "$index"
GIT_INDEX_FILE=$index git add -A
change_tree=$(GIT_INDEX_FILE=$index git write-tree)
rm -f "$index"
change_sha=$(git rev-parse HEAD)
[[ $change_tree == "$(git rev-parse 'HEAD^{tree}')" ]] || change_sha="$change_sha+dirty"

# Build one side: laminar-server and the benchmark binaries, the way
# crates/benchmark/run.sh builds them.
build() {
    local src=$1 target=$2 config=()
    [[ -f $src/crates/benchmark/cargo/config.toml ]] &&
        config=(--config crates/benchmark/cargo/config.toml)
    echo "==> building $src" >&2
    (cd "$src" && CARGO_TARGET_DIR="$target" cargo build --release --quiet \
        "${config[@]}" -p laminar-core -p laminar-benchmark) >&2
}

parent_src="$work/parent-$parent_sha"
if [[ ! -d $parent_src ]]; then
    mkdir -p "$parent_src.part"
    git archive "$parent_sha" | tar -x -C "$parent_src.part"
    mv "$parent_src.part" "$parent_src"
fi
build "$parent_src" "$work/target-parent"
build "$root" "$work/target-change"
rm -rf "$work"/target-{parent,change}/laminar-bench/fixture-*

runs="$work/runs/$(date -u +%Y%m%dT%H%M%SZ)-$workload-$seed"
mkdir -p "$runs"
run_side() {
    local side=$1 i=$2
    echo "==> pair $i: $side" >&2
    "$work/target-$side/release/bench_e2e" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 >"$runs/$side-$i.txt" ||
        echo "   (bench_e2e exited $? for $side, pair $i)" >&2
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run_side parent "$i"
        run_side change "$i"
    else
        run_side change "$i"
        run_side parent "$i"
    fi
done

python3 - "$runs" "$pairs" "$root/BENCH_pairs.json" "$root/BENCHMARK.json" \
    "$parent_sha" "$change_sha" "$change_tree" "$workload" "$seed" "$seconds" "$note" <<'EOF'
import json, math, os, statistics, sys
from datetime import datetime, timezone

(runs, pairs, out, benchmark, parent, change, change_tree, workload, seed,
 seconds, note) = sys.argv[1:]
pairs, seed, seconds = int(pairs), int(seed), float(seconds)
end_to_end = json.load(open(benchmark))["end_to_end"]
# Per-layer metrics worth keeping beside the end-to-end ones.
EXTRAS = ["client.longest_gap_ms", "server.peak_rss_mb", "registry.disk_mb_end",
          "server.cpu_ms_per_op", "server.threads_peak"]

def load(path):
    """The contract line (the last JSON line) plus the printed metric rows."""
    run = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if not os.path.exists(path):
        return run
    for line in open(path):
        line = line.rstrip("\n")
        if line.startswith("{"):
            contract = json.loads(line)
            run.update({k: contract[k] for k in ("correct", "attempted", "failed")})
            for name, m in contract["metrics"].items():
                run["metrics"][name] = m["value"]
        elif line.startswith("  "):
            parts = line.split()
            if len(parts) >= 2 and parts[0] in EXTRAS:
                try:
                    run["metrics"][parts[0]] = float(parts[1])
                except ValueError:
                    pass
    return run

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

table = [(load(f"{runs}/parent-{i}.txt"), load(f"{runs}/change-{i}.txt"))
         for i in range(1, pairs + 1)]
need = math.ceil(0.9 * pairs)
verdicts = {}
print(f"\n{workload} · seed {seed} · {seconds:g} s · {pairs} pairs · parent {parent[:10]} · change {change}")
for spec in end_to_end:
    name, higher, bound = spec["name"], spec["better"] == "higher", spec["bound"]
    got = [(p["metrics"].get(name), c["metrics"].get(name)) for p, c in table]
    ok = [(p, c) for p, c in got
          if p is not None and c is not None and not (math.isnan(p) or math.isnan(c))]
    if not ok:
        continue
    ps, cs = [p for p, _ in ok], [c for _, c in ok]
    sign = 1 if higher else -1
    wins = sum(sign * (c - p) > 0 for p, c in ok)
    losses = sum(sign * (c - p) < 0 for p, c in ok)
    q1, q3 = quartiles(ps)
    iqr = q3 - q1
    mp, mc = statistics.median(ps), statistics.median(cs)
    gain = sign * (mc - mp)
    rel = (mc - mp) / mp if mp else 0.0
    if len(ok) == pairs and wins >= need and gain > iqr:
        verdict = "better"
    elif len(ok) == pairs and losses >= need and -gain > iqr:
        verdict = "worse"
    elif mp and iqr / abs(mp) <= bound and abs(rel) <= bound and abs(gain) <= iqr:
        verdict = "unchanged"
    else:
        verdict = "unresolved"
    # The regression rule: the change's median may be worse than the
    # parent's by at most the metric's bound.
    within = -sign * rel <= bound
    verdicts[name] = {"verdict": verdict, "wins": wins, "losses": losses,
                      "parent_median": mp, "change_median": mc, "parent_iqr": iqr,
                      "relative_change": rel, "bound": bound, "within_bound": within}
    runs_text = "  ".join(f"{p:.4g}→{c:.4g}" for p, c in ok)
    print(f"  {name:<22} {verdict:<10} {mp:>10.4g} → {mc:<10.4g} ({rel:+.1%}; "
          f"won {wins}/{len(ok)}, parent IQR {iqr:.4g}; "
          f"{'within' if within else 'OUTSIDE'} its {bound:.0%} bound)")
    print(f"      {runs_text}")
for label, side in (("parent", 0), ("change", 1)):
    failed = [t[side]["failed"] for t in table]
    attempted = [t[side]["attempted"] for t in table]
    print(f"  {label}: failed {sum(failed)} of {sum(attempted)} requests; "
          f"correct {sum(t[side]['correct'] for t in table)}/{pairs}")

entries = json.load(open(out)) if os.path.exists(out) else []
entries.append({
    "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "note": note,
    "parent": parent,
    "change": change,
    "change_tree": change_tree,
    "workload": workload,
    "seed": seed,
    "seconds": seconds,
    "cpus": os.cpu_count(),
    "pairs": [{"first": "parent" if i % 2 else "change", "parent": p, "change": c}
              for i, (p, c) in enumerate(table, start=1)],
    "verdicts": verdicts,
})
with open(out, "w") as f:
    json.dump(entries, f, indent=1)
    f.write("\n")
print(f"appended to {out}")
EOF
