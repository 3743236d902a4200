#!/usr/bin/env bash
# Run a command that must be rejected as bad input is, and check how:
#
#     tools/expect_rejected.sh OUT PATTERN COMMAND...
#
# Passes (exit 0) when COMMAND exits 1, writes exactly one line to stderr,
# that line matches PATTERN, no Traceback is printed, and nothing exists at
# OUT (the command's --out). PATTERN is a bash glob matched against the whole
# line: '*', '?' and '[' are its only wildcards, so a '.' in a path is literal.
# COMMAND's stderr is copied to this script's stderr.
set -u
out=$1 pattern=$2
shift 2
err=$(mktemp)
trap 'rm -f "$err"' EXIT
fail() { echo "expect_rejected: $*" >&2; exit 1; }

status=0
"$@" 2> "$err" || status=$?
cat "$err" >&2
[ "$status" -eq 1 ] || fail "exit status $status, not 1"
lines=$(wc -l < "$err")
[ "$lines" -eq 1 ] || fail "$lines lines on stderr, not 1"
IFS= read -r line < "$err"
# shellcheck disable=SC2053  # PATTERN is a glob on purpose
[[ $line == $pattern ]] || fail "stderr line does not match: $pattern"
if grep -q Traceback "$err"; then fail "a Traceback on stderr"; fi
[ ! -e "$out" ] || fail "$out exists"
