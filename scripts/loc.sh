#!/usr/bin/env bash
# loc.sh: the repository's one line count. It counts the lines of non-test
# .go files outside bench/ that are neither blank nor, after indentation,
# start with //. With no arguments it prints the total for the whole tree;
# with paths (directories or files) it prints one count per path, then the
# total over them.
#
#   bash scripts/loc.sh
#   bash scripts/loc.sh internal/uarch internal/trace
#
# Run from the repository root.
set -euo pipefail

count() {
    find "$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path 'bench/*' -print0 |
        xargs -0 -r cat |
        awk '!/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ } END { print n + 0 }'
}

if [ $# -eq 0 ]; then
    count .
    exit 0
fi
for p in "$@"; do
    printf '%s\t%s\n' "$(count "$p")" "$p"
done
printf '%s\ttotal\n' "$(count "$@")"
