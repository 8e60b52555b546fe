#!/usr/bin/env bash
# The local mirror of CI: formatting, the clippy lint wall, the full test
# suite (sequential, with miner invariant audits, and with ER_THREADS=4
# worker pools), the RL kernels and their golden bits at the release
# profile, the CSV splitter/scanner property tests at a larger release
# case budget, er-lint over the committed example rule set, the quick
# repair/ingest/mine benchmarks (identity + trajectory checks), and two
# er-serve pipe-mode smokes (repair/append batches, then registry-backed
# repair_csv bulk streaming), plus the sharded serving smokes: the same
# session at --shards 4 (pipe and TCP) must answer byte-identically and
# report shard routing counters. Run from anywhere inside the repo.
#
# BENCH=1 additionally runs the thread-scaling sweep and refreshes
# results/par_sweep.json (release build; a few extra minutes).
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "==> unsafe_code forbid audit (every workspace crate)"
for f in src/lib.rs crates/*/src/lib.rs; do
    if ! head -1 "$f" | grep -q '#!\[forbid(unsafe_code)\]'; then
        echo "error: $f does not start with #![forbid(unsafe_code)]"
        exit 1
    fi
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets --all-features -- -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> diagnostics doc-drift check (registry <-> README table)"
scripts/check_docs.sh

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --workspace --features debug-invariants -q"
cargo test --workspace --features debug-invariants -q

echo "==> ER_THREADS=4 cargo test --workspace -q"
ER_THREADS=4 cargo test --workspace -q

echo "==> cargo test --release -p er-rl -q (value-network kernels at opt-level 3, thin LTO)"
cargo test --release -p er-rl -q

echo "==> cargo test --release --test rl_golden -q (golden bits hold at the release profile, 5000-step training included)"
cargo test --release --test rl_golden -q

echo "==> cargo test --release -p er-table --test proptests -q (CSV splitter and scanner against their references, larger case budget)"
cargo test --release -p er-table --test proptests -q

echo "==> ER_THREADS=4 cargo test -p er-incr -q (append/rebuild equivalence)"
ER_THREADS=4 cargo test -p er-incr -q

echo "==> experiments lint examples/figure1_rules.json"
cargo run -p er-bench --bin experiments -- lint examples/figure1_rules.json

echo "==> experiments analyze examples/figure1_rules.json (certified, exit 0)"
cargo run -p er-bench --bin experiments -- analyze examples/figure1_rules.json

echo "==> experiments analyze examples/cyclic_rules.json (ER008, exit 1)"
rc=0
cargo run -p er-bench --bin experiments -- analyze examples/cyclic_rules.json \
    --out results/analyze-cyclic.json || rc=$?
[[ "$rc" == 1 ]]

echo "==> experiments analyze examples/conflicting_rules.json (ER009, exit 1)"
rc=0
cargo run -p er-bench --bin experiments -- analyze examples/conflicting_rules.json \
    --out results/analyze-conflicting.json || rc=$?
[[ "$rc" == 1 ]]

echo "==> experiments prove examples/figure1_rules.json (confluent, exit 0)"
proveout=$(cargo run -p er-bench --bin experiments -- prove examples/figure1_rules.json)
echo "$proveout"
[[ "$proveout" == *'CERTIFIED'* ]]
[[ "$proveout" == *'rule order cannot change a repair'* ]]

echo "==> experiments prove examples/nonconfluent_rules.json (ER013 witness, exit 1)"
rc=0
proveout=$(cargo run -p er-bench --bin experiments -- prove examples/nonconfluent_rules.json \
    --out results/prove-nonconfluent.json) || rc=$?
echo "$proveout"
[[ "$rc" == 1 ]]
[[ "$proveout" == *'NOT CERTIFIED'* ]]
[[ "$proveout" == *'error[ER013]'* ]]
[[ "$proveout" == *'two-order witness: master row 2 (Kevin, Sun'* ]]

echo "==> experiments diff v1 v1 (equivalence certified, exit 0)"
same=$(cargo run -p er-bench --bin experiments -- diff \
    examples/figure1_rules.json examples/figure1_rules.json \
    --out results/diff-same.json)
echo "$same"
[[ "$same" == *'CERTIFIED'* ]]

echo "==> experiments diff v1 v2 (ER011 witnesses, exit 0)"
diffout=$(cargo run -p er-bench --bin experiments -- diff \
    examples/figure1_rules.json examples/figure1_rules_v2.json \
    --out results/diff.json)
echo "$diffout"
[[ "$diffout" == *'info[ER011]'* ]]
[[ "$diffout" == *'witness row 0: Kevin, Lees'* ]]
[[ "$diffout" == *'witness row 1: Kyrie, Wang'* ]]
[[ "$diffout" == *'2 verdict changes, 0 errors, 2 infos'* ]]

echo "==> experiments diff v1 v2 --scope Date=2021-12 (ER012, exit 1)"
rc=0
cargo run -p er-bench --bin experiments -- diff \
    examples/figure1_rules.json examples/figure1_rules_v2.json \
    --scope '{"Date":"2021-12"}' --out results/diff-scoped.json || rc=$?
[[ "$rc" == 1 ]]

echo "==> experiments repair_bench --quick (batched == reference, trajectory well-formed)"
benchout=$(cargo run -p er-bench --release --bin experiments -- --quick repair_bench)
echo "$benchout"
[[ "$benchout" == *'byte-identical'* ]]
[[ "$benchout" == *'well-formed'* ]]

echo "==> experiments ingest_bench --quick (chunked == whole-file, trajectory well-formed)"
ingestout=$(cargo run -p er-bench --release --bin experiments -- --quick ingest_bench)
echo "$ingestout"
[[ "$ingestout" == *'byte-identical'* ]]
[[ "$ingestout" == *'well-formed'* ]]

echo "==> experiments mine_bench --quick (replica == RlMiner::train, trajectory well-formed)"
mineout=$(cargo run -p er-bench --release --bin experiments -- --quick mine_bench)
echo "$mineout"
[[ "$mineout" == *'replica reproduces RlMiner::train'* ]]
[[ "$mineout" == *'well-formed'* ]]

echo "==> experiments serve_bench --quick (socket == pipe, trajectory well-formed)"
serveout=$(cargo run -p er-bench --release --bin experiments -- --quick serve_bench)
echo "$serveout"
[[ "$serveout" == *'byte-identical'* ]]
[[ "$serveout" == *'well-formed'* ]]

echo "==> experiments shard_bench --quick (byte-identical at 1/2/8 shards, trajectory well-formed)"
shardout=$(cargo run -p er-bench --release --bin experiments -- --quick shard_bench)
echo "$shardout"
[[ "$shardout" == *'byte-identical'* ]]
[[ "$shardout" == *'well-formed'* ]]

echo "==> er-serve pipe-mode smoke"
smoke=$(printf '%s\n' \
    '{"op":"ping"}' \
    '{"op":"repair","rows":[["Kevin","HZ",null,null,"325-8455","Male",null,"2021-12","No"]]}' \
    '{"op":"append","rows":[["Lena","Wu","SZ","51800","0755","555-0101","Female","no symptoms","2021-10"]]}' \
    '{"op":"stats"}' \
    | cargo run -q --bin er-serve -- --rules examples/figure1_rules.json)
echo "$smoke"
[[ "$(echo "$smoke" | sed -n 1p)" == *'"ok":true'* ]]
[[ "$(echo "$smoke" | sed -n 2p)" == *'"fixed":1'* ]]
[[ "$(echo "$smoke" | sed -n 2p)" == *'contact with patient'* ]]
[[ "$(echo "$smoke" | sed -n 3p)" == *'"appended":1'* ]]
[[ "$(echo "$smoke" | sed -n 4p)" == *'"appends":1'* ]]
[[ "$(echo "$smoke" | sed -n 4p)" == *'"engine_generation":5'* ]]
[[ "$(echo "$smoke" | sed -n 4p)" == *'"signature_dedup"'* ]]
[[ "$(echo "$smoke" | sed -n 4p)" != *'"confluence'* ]]

echo "==> er-serve repair_csv pipe smoke (registry-backed bulk streaming)"
csv_smoke=$(printf '%s\n' \
    '{"op":"repair_csv","path":"examples/figure1_input.csv"}' \
    '{"op":"stats"}' \
    | cargo run -q --bin er-serve -- --rules examples/figure1_rules.json \
        --registry examples/datasets.json --dataset figure1-files)
echo "$csv_smoke"
[[ "$(echo "$csv_smoke" | sed -n 1p)" == *'"op":"repair_csv"'* ]]
[[ "$(echo "$csv_smoke" | sed -n 1p)" == *'"rows":3'* ]]
[[ "$(echo "$csv_smoke" | sed -n 2p)" == *'"ingested_rows"'* ]]
[[ "$(echo "$csv_smoke" | sed -n 2p)" == *'"ingest_chunks"'* ]]

echo "==> er-serve sharded pipe smoke (--shards 4, ER_THREADS=4)"
shard_smoke=$(printf '%s\n' \
    '{"op":"ping"}' \
    '{"op":"repair","rows":[["Kevin","HZ",null,null,"325-8455","Male",null,"2021-12","No"]]}' \
    '{"op":"append","rows":[["Lena","Wu","SZ","51800","0755","555-0101","Female","no symptoms","2021-10"]]}' \
    '{"op":"stats"}' \
    | ER_THREADS=4 cargo run -q --bin er-serve -- --rules examples/figure1_rules.json --shards 4)
echo "$shard_smoke"
# Byte-identical to the unsharded smoke on every non-stats line.
[[ "$(echo "$shard_smoke" | sed -n 1,3p)" == "$(echo "$smoke" | sed -n 1,3p)" ]]
[[ "$(echo "$shard_smoke" | sed -n 4p)" == *'"engine_generation":5'* ]]
[[ "$(echo "$shard_smoke" | sed -n 4p)" == *'"shards":4'* ]]
[[ "$(echo "$shard_smoke" | sed -n 4p)" == *'"shard_routed":1'* ]]
[[ "$(echo "$shard_smoke" | sed -n 4p)" == *'"shard_imbalance"'* ]]
[[ "$(echo "$shard_smoke" | sed -n 4p)" != *'"confluence'* ]]

echo "==> er-serve sharded TCP smoke (--shards 4, ER_THREADS=4, thread per connection)"
tcp_log=$(mktemp)
ER_THREADS=4 cargo run -q --bin er-serve -- --rules examples/figure1_rules.json \
    --shards 4 --workers 4 --tcp 127.0.0.1:0 2>"$tcp_log" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$tcp_log")
    [[ -n "$port" ]] && break
    sleep 0.1
done
[[ -n "$port" ]]
tcp_smoke=$(printf '%s\n' \
    '{"op":"repair","rows":[["Kevin","HZ",null,null,"325-8455","Male",null,"2021-12","No"]]}' \
    '{"op":"stats"}' \
    '{"op":"shutdown"}' \
    | timeout 60 bash -c "exec 3<>/dev/tcp/127.0.0.1/$port; cat >&3; cat <&3")
echo "$tcp_smoke"
[[ "$(echo "$tcp_smoke" | sed -n 1p)" == "$(echo "$smoke" | sed -n 2p)" ]]
[[ "$(echo "$tcp_smoke" | sed -n 2p)" == *'"shards":4'* ]]
[[ "$(echo "$tcp_smoke" | sed -n 2p)" == *'"shard_routed":1'* ]]
[[ "$(echo "$tcp_smoke" | sed -n 3p)" == *'"shutdown"'* ]]
wait "$serve_pid"
rm -f "$tcp_log"

if [[ "${BENCH:-0}" == "1" ]]; then
    echo "==> experiments par_sweep (refreshing results/par_sweep.json)"
    cargo run -p er-bench --release --bin experiments -- par_sweep
fi

echo "All checks passed."
