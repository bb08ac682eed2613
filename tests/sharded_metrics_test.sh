#!/bin/sh
# A sharded campaign's --metrics file folds in every accepted worker
# attempt's metrics, so the cell-level counters equal the single-process
# run's. campaign.instances_built (each worker builds its own instances)
# and the engine.arena_bytes gauge (workspace-dependent) may differ; the
# supervisor.* counters appear only in the sharded file. A run resumed
# from the checkpoint journal reports the same cell-level counters.
#
#   sh tests/sharded_metrics_test.sh path/to/unilocal_cli
set -u
cli="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

counter() {
  name=$(printf '%s' "$2" | sed 's/\./\\./g')
  sed -n "s/.*{\"name\":\"$name\",\"kind\":\"counter\",\"value\":\([0-9]*\)}.*/\1/p" "$1"
}

"$cli" table1 --smoke --workers=2 --metrics="$dir/single.json" \
  > /dev/null 2> "$dir/single.err" || { cat "$dir/single.err"; exit 1; }
"$cli" table1 --smoke --shards=3 --workers=1 --metrics="$dir/sharded.json" \
  > /dev/null 2> "$dir/sharded.err" || { cat "$dir/sharded.err"; exit 1; }

for metric in engine.steps engine.messages engine.runs engine.slept_steps \
    campaign.cells campaign.cells_valid; do
  single=$(counter "$dir/single.json" "$metric")
  sharded=$(counter "$dir/sharded.json" "$metric")
  if [ -z "$single" ]; then
    fail "single-process metrics lack $metric"
  elif [ "$single" != "$sharded" ]; then
    fail "$metric: single-process $single, sharded '${sharded}'"
  fi
done
[ "$(counter "$dir/sharded.json" supervisor.attempts)" = 3 ] ||
  fail "sharded metrics lack supervisor.attempts=3: $(cat "$dir/sharded.json")"

# A run resumed from its checkpoint journal launches nothing; the journal
# lines carry each accepted attempt's metrics, so the counters still match.
"$cli" table1 --smoke --shards=3 --workers=1 --journal="$dir/journal" \
  --metrics="$dir/first.json" > /dev/null 2> "$dir/first.err" ||
  { cat "$dir/first.err"; exit 1; }
"$cli" table1 --smoke --shards=3 --workers=1 --journal="$dir/journal" \
  --metrics="$dir/resumed.json" > /dev/null 2> "$dir/resumed.err" ||
  { cat "$dir/resumed.err"; exit 1; }
[ "$(counter "$dir/resumed.json" supervisor.shards_from_journal)" = 3 ] ||
  fail "resumed run did not take 3 shards from the journal"
for metric in engine.steps engine.messages engine.runs engine.slept_steps \
    campaign.cells campaign.cells_valid; do
  single=$(counter "$dir/single.json" "$metric")
  resumed=$(counter "$dir/resumed.json" "$metric")
  [ "$single" = "$resumed" ] ||
    fail "$metric: single-process $single, resumed '${resumed}'"
done

[ "$failures" -eq 0 ] &&
  echo "sharded_metrics_test: sharded cell counters match the single-process run"
exit "$failures"
