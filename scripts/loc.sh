#!/usr/bin/env bash
# Prints the Go line counts ROADMAP aim 2 tracks (bench/ excluded: it is the
# measuring instrument, not the system) and the number of internal packages.
# Usage: loc.sh [ref] — the tracked files of the working tree, or of the given
# commit (e.g. HEAD~1, to put the parent's count beside the change's).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -gt 0 ]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive "$1" | tar -x -C "$tmp"
    cd "$tmp"
    gofiles() { find . -name '*.go' | sed 's|^\./||'; }
else
    gofiles() { git ls-files '*.go'; }
fi
nontest=$(gofiles | grep -v '_test.go$' | grep -v '^bench/' | xargs cat | wc -l)
tests=$(gofiles | grep '_test.go$' | grep -v '^bench/' | xargs cat | wc -l)
pkgs=$(gofiles | grep '^internal/' | xargs -n1 dirname | sort -u | wc -l)
echo "non-test Go lines (outside bench/): $nontest"
echo "test Go lines (outside bench/):     $tests"
echo "internal packages:                  $pkgs"
