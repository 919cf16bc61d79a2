#!/usr/bin/env bash
# Run a command under a 2 GB address-space limit and check how it ended.
#
#   .github/run-limited.sh [--stderr FILE] CODE COMMAND [ARG...]
#
# The command's stdout passes through; its stderr is printed once it exits,
# and kept in FILE when one is given.  Fails unless the command exited with
# CODE and printed no Python traceback to stderr.
set -u
if [ "$1" = --stderr ]; then
    err=$2
    shift 2
else
    err=$(mktemp)
fi
expect=$1
shift
(ulimit -v 2000000; exec "$@") 2> "$err"
code=$?
cat "$err" >&2
if [ "$code" -ne "$expect" ]; then
    echo "run-limited: exit code $code, expected $expect" >&2
    exit 1
fi
if grep -q Traceback "$err"; then
    echo "run-limited: traceback on stderr" >&2
    exit 1
fi
