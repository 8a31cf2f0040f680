#!/usr/bin/env bash
# The repository benchmark, one command.
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload; the last line of standard output is the result
#       (end-to-end metrics with --trace 0, per-layer with --trace 1).
#   run.sh [--seed N] [--seconds S] [--smoke] [--out FILE]
#       Every workload, end to end and traced; writes a results file.
#       --smoke: 300-PE corpus, 2 s per workload, and the results file is
#       checked against BENCHMARK.json.
#   run.sh --compare A.json B.json
#       Two results files, metric by metric, against the bounds.
#
# It builds laminar-server and the two benchmark binaries in release,
# offline, from a staged copy of the workspace (see README.md: "How it
# builds"), into $CARGO_TARGET_DIR (default: target).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
cd "$root"

if [[ ! -f Cargo.toml || ! -d crates/server || ! -d crates/core ]]; then
    echo "run.sh: no Laminar workspace around $here; nothing to measure" >&2
    exit 2
fi

target=${CARGO_TARGET_DIR:-target}
[[ $target == /* ]] || target="$root/$target"
stage="$target/laminar-bench/stage"

# Stage the sources. `cp -a` keeps modification times, so cargo rebuilds
# only what changed since the last run.
rm -rf "$stage"
mkdir -p "$stage"
cp -a Cargo.toml crates src "$stage/"
for extra in tests examples BENCHMARK.json; do
    [[ -e $extra ]] && cp -a "$extra" "$stage/"
done

# Fix-up: at the commit this benchmark was defined on, the workspace does
# not compile. `Metrics::snapshot` (crates/server/src/obs.rs) builds a
# `MetricsSnapshot` without its `persistence` and `storage_health` fields,
# which its only caller overwrites straight after. The staged copy gets
# the two defaults; once obs.rs names the fields itself this does nothing
# and can be deleted.
obs="$stage/crates/server/src/obs.rs"
if ! awk '/fn snapshot\(&self\) -> MetricsSnapshot/ { inside = 1 }
          inside && /persistence:/ { found = 1 }
          inside && /^    \}$/ { inside = 0 }
          END { exit !found }' "$obs"; then
    sed -i 's/^\( *\)reco: self\.reco\.snapshot(),$/&\n\1persistence: PersistenceSnapshot::default(),\n\1storage_health: StorageHealthSnapshot::default(),/' "$obs"
    touch -r crates/server/src/obs.rs "$obs"
fi

(
    cd "$stage"
    CARGO_TARGET_DIR="$target" cargo build --release --quiet \
        --config crates/benchmark/cargo/config.toml \
        -p laminar-core -p laminar-benchmark
) >&2

bin="$target/release"
trace=0
workload=""
smoke=0
compare=0
out=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case ${args[i]} in
        --workload) workload=${args[i + 1]:-} ;;
        --trace) trace=${args[i + 1]:-} ;;
        --out) out=${args[i + 1]:-} ;;
        --smoke) smoke=1 ;;
        --compare) compare=1 ;;
    esac
done

if ((compare)); then
    exec "$bin/bench_e2e" "$@"
fi
if [[ -n $workload ]]; then
    if [[ $trace == 1 ]]; then
        exec "$bin/bench_layers" "$@"
    fi
    exec "$bin/bench_e2e" "$@"
fi

# The suite.
[[ -n $out ]] || out="$target/laminar-bench/results/results.json"
if ((smoke)); then
    "$bin/bench_layers" --seconds 2 "$@" --out "$out"
    "$bin/bench_e2e" --check "$out"
else
    "$bin/bench_layers" "$@" --out "$out"
fi
