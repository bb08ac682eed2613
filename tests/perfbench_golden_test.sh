#!/bin/sh
# Every smoke input set of the repo benchmark against perfbench/golden.json:
# table1-zoo and sharded-async seeds 0-9 and dense-100k seeds 0-3 (its four
# input sets 0, 4, 5 and 8). Each run must exit 0 and end with a result
# line holding "correct":true, i.e. every cell solved, checker-valid and
# equal to its golden output hash and LOCAL rounds.
#
#   sh tests/perfbench_golden_test.sh path/to/perfbench path/to/source-root
set -u
exe="$1"
golden="$2/perfbench/golden.json"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0

check() {
  workload=$1
  seed=$2
  "$exe" --workload "$workload" --seed "$seed" --seconds 0 --trace 0 \
    --smoke --golden "$golden" --workdir "$dir" \
    > "$dir/out" 2> "$dir/err"
  code=$?
  line=$(tail -n 1 "$dir/out")
  case "$code:$line" in
    0:*'"correct":true'*) ;;
    *)
      echo "FAIL: $workload seed $seed exited $code: $line"
      cat "$dir/err"
      failures=$((failures + 1))
      ;;
  esac
}

for seed in 0 1 2 3 4 5 6 7 8 9; do
  check table1-zoo "$seed"
  check sharded-async "$seed"
done
for seed in 0 1 2 3; do
  check dense-100k "$seed"
done

[ "$failures" -eq 0 ] || exit 1
echo "perfbench_golden_test: all 24 smoke runs correct"
