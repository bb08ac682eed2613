#!/bin/sh
# Every unilocal_cli verb rejects a flag it does not know: a non-zero exit
# and one stderr line naming the flag. --kernel=on is the retired
# engine-path switch, so it must be rejected like any other unknown flag.
#
#   sh tests/cli_flags_test.sh path/to/unilocal_cli
set -u
cli="$1"
failures=0

check() {
  flag="$1"
  shift
  err=$("$cli" "$@" "$flag" </dev/null 2>&1 >/dev/null)
  status=$?
  if [ "$status" -eq 0 ]; then
    echo "FAIL: '$* $flag' exited 0"
    failures=$((failures + 1))
  elif ! printf '%s\n' "$err" | grep -qF -- "unknown flag: $flag"; then
    echo "FAIL: '$* $flag' did not name the flag; stderr was:"
    printf '%s\n' "$err"
    failures=$((failures + 1))
  elif [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ]; then
    echo "FAIL: '$* $flag' printed more than one line:"
    printf '%s\n' "$err"
    failures=$((failures + 1))
  fi
}

for flag in --bogus --kernel=on; do
  check "$flag" mis
  check "$flag" sweep
  check "$flag" table1 --smoke
  check "$flag" shard plan
  check "$flag" shard run
  check "$flag" shard merge
done

[ "$failures" -eq 0 ] && echo "cli_flags_test: all verbs name unknown flags"
exit "$failures"
