#!/bin/sh
# unilocal_cli <problem> --stats-json=FILE writes one document whose
# "engine" object carries every EngineStats key (the same writer as the
# shard result "stats" block) and whose "metrics" array holds the engine
# counters, engine.steps among them.
#
#   sh tests/stats_json_test.sh path/to/unilocal_cli
set -u
cli="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

printf '6 7\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n' > "$dir/graph.txt"
if ! "$cli" mis "$dir/graph.txt" --stats-json="$dir/stats.json" \
    > /dev/null 2> "$dir/stderr"; then
  fail "mis --stats-json exited non-zero:"
  cat "$dir/stderr"
  exit 1
fi
doc=$(cat "$dir/stats.json")
engine=$(printf '%s\n' "$doc" | sed -n 's/.*"engine":{\([^}]*\)}.*/\1/p')
[ -n "$engine" ] || fail "no \"engine\" object in: $doc"

for key in arena_bytes peak_round_messages total_messages total_steps \
    kernel_batched_steps kernel_batch_calls \
    peak_live_nodes final_live_nodes peak_frontier_nodes \
    dirty_spans_cleared messages_dropped messages_duplicated \
    max_delivery_skew elapsed_seconds steps_per_second threads; do
  printf '%s\n' "$engine" | grep -qE "(^|,)\"$key\":" ||
    fail "engine object lacks \"$key\": $engine"
done

printf '%s\n' "$doc" | grep -qF '"metrics":[' ||
  fail "no \"metrics\" array in: $doc"
printf '%s\n' "$doc" |
  grep -qE '\{"name":"engine\.steps","kind":"counter","value":[1-9][0-9]*\}' ||
  fail "metrics lack a non-zero engine.steps counter: $doc"

[ "$failures" -eq 0 ] && echo "stats_json_test: engine keys and metrics present"
exit "$failures"
