#!/usr/bin/env bash
# CI gate for the serving path: formatting, lints, build, tests.
#
#   ./scripts/check.sh          # the tier-1 gate
#   ./scripts/check.sh --heavy  # additionally runs the #[ignore]d stress tests
#
# fmt stays scoped to the serving-path crates (server, client, core,
# facade); the remaining crates predate the formatting gate. clippy runs
# workspace-wide.

set -euo pipefail
cd "$(dirname "$0")/.."

# Where the registry crates cannot be resolved (no network, no cache),
# every cargo call below resolves them from the stand-ins the benchmark
# carries, as run.sh itself does.
if ! cargo metadata --offline --format-version 1 >/dev/null 2>&1; then
    cargo() { command cargo --config crates/benchmark/cargo/config.toml "$@"; }
fi

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

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

# The chaos suite is seeded (pinned seed inside the test file), so this is
# a deterministic gate, not a flaky soak: same-seed runs must produce
# bit-identical dead-letter queues on every mapping.
echo "==> chaos suite (seeded fault injection, all mappings x all policies)"
cargo test -q -p d4py --test chaos

# Crash-recovery gate: seeded mutation scripts, the WAL cut at every byte
# of the tail record (and arbitrary bytes appended to it, and the snapshot
# with a bit flipped), recovery compared against the acknowledged prefix.
echo "==> registry recovery suite (seeded: WAL torn tails, arbitrary tails, bit-flipped snapshots)"
cargo test -q -p laminar-registry --test recovery

# Chunking invariance (one frame of all units ≡ a frame per row), and
# all-or-nothing recovery of a frame when the WAL is cut at every byte
# across it.
echo "==> registration frame suite (chunking invariance + all-or-nothing recovery)"
cargo test -q -p laminar-registry --test batch_equivalence

# The embedders sum in a fixed order: 200 inputs x 50 repeats, every
# repeat bit-identical to the first.
echo "==> embedder determinism suite"
cargo test -q -p embed --test determinism

# One write path: every scenario registered as RegisterPe/RegisterWorkflow
# and as a RegisterBatch item must leave identical ids, rows and indexes.
echo "==> registration scenario table (single requests == batch items)"
cargo test -q -p laminar-server --lib -- registration_scenarios register_batch

# Storage chaos: one injected fault at every WAL/snapshot IO site x every
# fault kind, persistent-ENOSPC rejection, and seeded determinism
# (same seed => bit-identical fault schedule and recovered registry).
echo "==> storage chaos suite (disk-fault injection at every IO site)"
cargo test -q -p laminar-registry --test iofault_recovery

# Degraded-mode end-to-end over TCP: ENOSPC -> typed Degraded rejections
# while reads/metrics/health keep serving -> probe recovery -> writes land.
echo "==> degraded-mode server suite (read-only degradation + recovery)"
cargo test -q -p laminar-server --test degraded

echo "==> bench_degraded builds"
cargo build --release -p laminar-bench --bin bench_degraded

# Aroma pipeline invariants: clustering covers every pruned input exactly
# once, seeds are best-ranked, and the engine's recommendations survive
# the full retrieve → prune → cluster → intersect path.
echo "==> aroma pipeline seeded suite"
cargo test -q -p aroma --test pipeline_props

# Exactness of the posting-list rankings and the string-free extractor,
# each against a naive reference (plain seeded #[test]s):
# streamed feature ids ≡ fnv1a(Feature::encode()); SnippetIndex::scored ≡
# overlap per entry in ids() order and search_vec ≡ its positive scores
# fully sorted, under churn; pruning from the granule memo ≡ pruning from
# source; rank_spt / rank_spt_above (served from the engine's index) ≡ the
# same scan over a model's PE rows for kind None and Pe, and empty for
# Workflow — whose rows the dense ranking still returns — under churn with
# swap-removes of the engine's last and middle rows; and the blocked dense
# scan (rank_semantic / rank_reacc / rank_reacc_above) ≡ dot(query, row)
# per row fully sorted, bit for bit, at row counts on the block boundaries,
# for queries of 1 to 256 non-zero dimensions (-0.0, subnormals, one lane)
# and under overwrites, re-descriptions and swap-removes within and across
# blocks.
echo "==> spt feature-id equality suite (streamed ids == encoded features)"
cargo test -q -p spt --test feature_ids

echo "==> aroma posting-list + granule-memo equality suite"
cargo test -q -p aroma --test postings_equivalence

echo "==> server SPT ranking equality suite (engine postings == naive PE scan under churn)"
cargo test -q -p laminar-server --test spt_postings

echo "==> dense ranking equality suite (blocked scan == dot per row, under churn)"
cargo test -q -p laminar-server --test index_props

# Hostile input: a flat 200 KB literal (one node, ~66k children) through
# CodeRecommendation / CodeCompletion / RegisterPe must answer and leave
# the server healthy — label bytes fed to the feature hasher are bounded.
echo "==> hostile input (flat 200 KB literal, deep nesting)"
cargo test -q -p laminar-server --lib -- flat_literals deeply_nested

# Served recommendations: full-pipeline responses ≡ direct engine output on
# the same snapshot, and Both scope merges PE + workflow hits.
echo "==> server recommendation suite"
cargo test -q -p laminar-server --lib -- reco recommendation both_scope

# Network-fault wrapper in isolation: every fault kind on either side of
# a frame exchange surfaces as a typed error or a successful retry —
# never a wedged call — and the journal records true server-side effects.
echo "==> network-fault wrapper suite"
cargo test -q -p laminar-sim --test netfault

# The simulation oracle's own contract: a clean seeded run is
# violation-free and bit-identical on replay, and a deliberately broken
# invariant (losing the WAL) is caught.
echo "==> simulation oracle suite"
cargo test -q -p laminar-sim --test oracle

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
