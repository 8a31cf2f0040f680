#!/usr/bin/env bash
# CI gate for the serving path: formatting, lints, build, tests.
#
#   ./scripts/check.sh          # the tier-1 gate
#   ./scripts/check.sh --heavy  # additionally runs the #[ignore]d stress tests
#
# fmt stays scoped to the serving-path crates (server, client, core,
# facade); the remaining crates predate the formatting gate. clippy and the
# tests run workspace-wide.

set -euo pipefail
cd "$(dirname "$0")/.."

SCOPED=(-p laminar-server -p laminar-client -p laminar-core -p laminar)

echo "==> cargo fmt --check (serving-path crates)"
cargo fmt --check "${SCOPED[@]}"

echo "==> cargo clippy -D warnings (workspace)"
cargo clippy --workspace --all-targets -- -D warnings

# The serving path and the mappings are std-only and the accept blocks:
# neither the channel crate nor the poll may come back unnoticed.
echo "==> std-only gate (no crossbeam outside crates/benchmark, no accept poll)"
if grep -rn "crossbeam" crates/*/src crates/*/Cargo.toml src tests | grep -v "^crates/benchmark/"; then
    echo "crossbeam is named outside crates/benchmark/"
    exit 1
fi
if grep -n "from_millis(2)\|set_nonblocking" crates/server/src/net.rs; then
    echo "crates/server/src/net.rs polls again"
    exit 1
fi
# The dynamic mapping waits on condvars: no sleep tick outside its tests.
if sed '/^#\[cfg(test)\]/,$d' crates/d4py/src/mapping/dynamic.rs | grep -n "thread::sleep"; then
    echo "crates/d4py/src/mapping/dynamic.rs sleep-polls again"
    exit 1
fi

# The three mappings share one enactment core (mapping/enact.rs): one
# supervised step calls `Supervisor::invoke`, and the plan resolves
# display names and out-edges once per run, never per datum.
echo "==> one enactment core (one .invoke( in mapping/, no per-datum display_name( / out_edges()"
invokes=$(grep -rn "\.invoke(" crates/d4py/src/mapping/ | wc -l)
if [[ $invokes != 1 ]]; then
    grep -rn "\.invoke(" crates/d4py/src/mapping/
    echo "crates/d4py/src/mapping/ calls .invoke( $invokes times, not once"
    exit 1
fi
for f in crates/d4py/src/mapping/{simple,multi,dynamic}.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n "display_name(\|out_edges("; then
        echo "$f resolves names or edges per datum again"
        exit 1
    fi
done

# A streamed run crosses one channel, engine to reply: the engine calls
# the run service's frame consumer, and no service spawns a thread. The
# engine's threads are its containers: only the pool starts one, never a
# run.
echo "==> no-spawn gate (no thread::spawn in crates/server/src/service/, nor in crates/execengine/src/ outside containers.rs, above #[cfg(test)])"
for f in crates/server/src/service/*.rs crates/execengine/src/*.rs; do
    [[ $f == crates/execengine/src/containers.rs ]] && continue
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n "thread::spawn"; then
        echo "$f spawns a thread again"
        exit 1
    fi
done

# Batch vs streaming (§IV-E) is decided once, by the engine's response
# mode: no connection-level delivery layer, and the connection module
# hands the in-process reply over on the caller's thread.
echo "==> one framing decision (no connection-level delivery layer, no spawn in connection.rs)"
if grep -rn "DeliveryMode\|ConnOptions\|frame_latency\|fn deliver" crates/*/src src tests examples \
        | grep -v "^crates/benchmark/"; then
    echo "a connection-level delivery layer is back"
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/server/src/connection.rs | grep -n "thread::spawn"; then
    echo "crates/server/src/connection.rs spawns a thread again"
    exit 1
fi

# An option with one value in use is a constant (the simplicity rule the
# paper's Listing 3 makes for run_dynamic): the clock seam nothing read,
# the config fields and binary flags no caller set, and the setter nothing
# called stay deleted. Whole words, so `with_stock_workflows` passes.
echo "==> one value per option (no deleted seam, field or flag comes back)"
if grep -rnw "SimClock\|SystemClock\|SharedClock\|with_clock\|set_description_context\|stock_workflows\|description_context:\|semantic_top_n\|reco_top_n\|literal_top_n\|config\.dynamic\|--reco-retrieve-n\|--reco-rerank-keep\|--reco-cluster-sim" \
        crates/*/src src tests examples | grep -v "^crates/benchmark/"; then
    echo "an option with one value in use is back"
    exit 1
fi

# The paper's search experiments rank through what the server serves
# (`served_indexes` in crates/bench/src/lib.rs): no private scorer or sort in
# crates/bench may come back beside it.
echo "==> one ranker (no .overlap( / .cosine( / partial_cmp in crates/bench/src above #[cfg(test)])"
for f in crates/bench/src/*.rs crates/bench/src/bin/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n "\.overlap(\|\.cosine(\|partial_cmp"; then
        echo "$f ranks with a private scorer again"
        exit 1
    fi
done

# The serving crates carry no baselines: the MinHash-LSH ablation and the
# Laminar 1.0 inline-resources endpoint were deleted (DESIGN.md §10), and
# E9's 1.0 column is computed in crates/bench. Whole words, so the frozen
# benchmark's `lsh_*` field names pass; the endpoint's name as a JSON key
# passes too, since an old client's bytes still carry it (net.rs tests
# that the server refuses them).
echo "==> no baselines in the serving crates (no LSH index, no inline-resources run)"
if grep -rnw "LshIndex\|LshConfig\|LshSearchStats\|RunWithInlineResources\|receive_inline" \
        crates/*/src src tests examples | grep -v "^crates/benchmark/" \
        | grep -v '"RunWithInlineResources":'; then
    echo "a deleted baseline is back"
    exit 1
fi

# A registry row keeps what its user wrote; every vector is analysed from
# it (`Analysis::of` in crates/server/src/indexes.rs) and persisted only in
# `index.cache`, in binary: no vector is rendered to or parsed from JSON on
# the serving path or in the registry. The scan stops at a file's test
# module (`#[cfg(test)]` over `mod`), not at a test-only item above it.
echo "==> vectors are not text (no to_json( / from_json( in crates/server/src or crates/registry/src above #[cfg(test)] mod)"
for f in $(find crates/server/src crates/registry/src -name '*.rs' | sort); do
    if awk '/^#\[cfg\(test\)\]$/ { cfg = $0; getline; if ($0 ~ /^mod /) exit; print cfg }
            { print }' "$f" | grep -n "to_json(\|from_json("; then
        echo "$f renders or parses a vector as JSON again"
        exit 1
    fi
done

echo "==> cargo build --release"
cargo build --release

# Every test of every crate in one call: unit, integration and doc tests,
# the seeded suites and the paper-shape gates among them. Each suite states
# its contract in its own doc comment, so a new test needs no line here.
echo "==> cargo test --workspace"
cargo test --workspace --no-fail-fast -q

# Whole-system simulation smoke: pinned seeds, every fault plane armed
# (disk faults, execution chaos, network faults, crash-restart). Each
# seed runs twice and the full stdout is diffed: the same seed must
# print bit-identical traces, journals and verdicts.
echo "==> simulation smoke (pinned seeds, bit-identity replay)"
cargo build --release -p laminar-sim
SIM_BIN="${CARGO_TARGET_DIR:-target}/release/laminar-sim"
SIM_TMP="$(mktemp -d)"
trap 'rm -rf "$SIM_TMP"' EXIT
for seed in 1 7 1337; do
    for rep in a b; do
        if ! "$SIM_BIN" --seed "$seed" --episodes 2 --ops 30 \
                > "$SIM_TMP/sim-$seed-$rep.out"; then
            cat "$SIM_TMP/sim-$seed-$rep.out"
            echo "sim smoke failed — replay with:" \
                 "cargo run -p laminar-sim --release -- --seed $seed --episodes 2 --ops 30"
            exit 1
        fi
    done
    if ! diff "$SIM_TMP/sim-$seed-a.out" "$SIM_TMP/sim-$seed-b.out"; then
        echo "sim seed $seed did not replay bit-identically"
        exit 1
    fi
done

# The repository benchmark end to end at smoke scale: builds the server
# and the load generator offline from a staged copy, runs all five
# workloads over TCP, and checks the results file against BENCHMARK.json.
echo "==> repo benchmark smoke"
bash crates/benchmark/run.sh --smoke

if [[ "${1:-}" == "--heavy" ]]; then
    echo "==> heavy stress tests (#[ignore]d)"
    cargo test -q -p laminar heavy_ -- --ignored

    # Randomised simulation soak: a fresh seed each run (or SIM_SEED=<n>
    # to pin one), printed up front so any failure is replayable.
    SOAK_SEED="${SIM_SEED:-$(date +%s)}"
    echo "==> simulation soak (SIM_SEED=$SOAK_SEED)"
    if ! "$SIM_BIN" --seed "$SOAK_SEED" --episodes 4 --ops 80; then
        echo "sim soak failed — replay with:" \
             "cargo run -p laminar-sim --release -- --seed $SOAK_SEED --episodes 4 --ops 80"
        exit 1
    fi
fi

echo "OK"
