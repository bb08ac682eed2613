#!/bin/sh
# Every unilocal_cli verb rejects a flag it does not know: a non-zero exit
# and one stderr line naming the flag. --kernel=on is the retired
# engine-path switch, so it must be rejected like any other unknown flag.
# A numeric flag value that is out of range, would wrap in a narrowing
# cast, or is not a number exits 2 naming the flag and the value. Each
# verb accepts only its own flags: a flag of another verb is unknown too.
# telemetry_check's count flags are held to the same rule.
#
#   sh tests/cli_flags_test.sh path/to/unilocal_cli path/to/telemetry_check
set -u
cli="$1"
telemetry_check="$2"
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

check_value() {
  check_value_of "$cli" "$@"
}

check_value_of() {
  program="$1"
  flag="$2"
  shift 2
  err=$("$program" "$@" "$flag" </dev/null 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: '$* $flag' exited $status, expected 2"
    failures=$((failures + 1))
  elif ! printf '%s\n' "$err" | grep -qF -- "${flag%%=*}: " ||
       ! printf '%s\n' "$err" | grep -qF -- "'${flag#*=}'"; then
    echo "FAIL: '$* $flag' did not name the flag and value; stderr was:"
    printf '%s\n' "$err"
    failures=$((failures + 1))
  fi
}

for flag in --n=-1 --n=4294967297 --n=abc --seeds=0 --seeds=-2; do
  check_value "$flag" sweep
  check_value "$flag" table1
  check_value "$flag" shard plan --dir=unused --table1
done
check_value --workers=-1 sweep
check_value --workers=-1 table1
check_value --workers=-1 shard run
check_value --trace-rounds=-1 mis
# Tick knobs are capped at 2^32 so delayed-network timestamps cannot
# overflow int64.
check_value --max-delay=9223372036854775807 mis --network=delay:uniform --drop=0.5
check_value --max-delay=4294967297 table1 --network=delay:heavytail
check_value --late-by=9223372036854775807 sweep --network=delay:weighted --late=0.5
check_value --late-by=0 shard plan --dir=unused --table1 --network=delay:uniform

# A count must be a whole non-negative int: no exception escapes, no
# trailing characters are ignored.
for flag in --expect-cells=abc --expect-cells=5x --expect-cells=99999999999 \
    --expect-attempts=-1 --expect-attempts=; do
  check_value_of "$telemetry_check" "$flag" --trace=unused
done

for flag in --bogus --kernel=on; do
  check "$flag" mis
  check "$flag" ledger
  check "$flag" sweep
  check "$flag" table1 --smoke
  check "$flag" shard plan
  check "$flag" shard run
  check "$flag" shard merge
done

# sweep and table1 share one campaign flag group, but each keeps only its
# own grid flags, and shard merge takes only the report flags.
check --a=1 table1 --smoke
check --scenarios=gnp table1 --smoke
check --smoke sweep
check --workers=1 shard merge

[ "$failures" -eq 0 ] && echo "cli_flags_test: all verbs name unknown flags and bad values"
exit "$failures"
