#!/bin/sh
# The single-problem mode (unilocal_cli mis|matching|coloring|rulingset2)
# prints one "<identity> <output>" line per node on stdout and one
# "<problem>: n=.. rounds=.. valid=.." summary on stderr. This runs all
# four problems on one fixed 16-node edge list, on the synchronous network
# and on the lossy heavy-tail delayed network, and diffs both streams
# against tests/golden/cli-problems.txt.
#
#   sh tests/cli_problems_test.sh path/to/unilocal_cli path/to/golden.txt
#
# After an intended change in outputs, regenerate the golden file with
#   sh tests/cli_problems_test.sh path/to/unilocal_cli /dev/null --write \
#     > tests/golden/cli-problems.txt
set -u
cli="$1"
golden="$2"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

printf '16 32\n0 6\n0 7\n0 12\n0 13\n1 2\n1 5\n1 7\n1 9\n1 13\n1 14\n1 15\n2 6\n2 9\n2 10\n2 13\n3 5\n3 8\n3 9\n3 15\n4 14\n4 15\n5 6\n5 11\n5 14\n6 7\n6 15\n7 10\n8 9\n10 11\n10 12\n12 13\n14 15\n' \
  > "$dir/graph.txt"

for network in "" "--network=delay:heavytail --drop=0.05"; do
  for problem in mis matching coloring rulingset2; do
    echo "== $problem ${network:-sync}"
    # shellcheck disable=SC2086 # $network is a flag list
    "$cli" "$problem" "$dir/graph.txt" $network 2> "$dir/stderr" ||
      echo "exit status $?"
    cat "$dir/stderr"
  done
done > "$dir/computed.txt"

if [ "${3:-}" = "--write" ]; then
  cat "$dir/computed.txt"
  exit 0
fi
if ! diff -u "$golden" "$dir/computed.txt"; then
  echo "FAIL: single-problem outputs differ from $golden"
  exit 1
fi
echo "cli_problems_test: all four problems match the golden file"
