#!/usr/bin/env bash
# Prints the Go line counts ROADMAP aim 2 tracks (bench/ excluded: it is the
# measuring instrument, not the system) and the number of internal packages.
set -euo pipefail
cd "$(dirname "$0")/.."
nontest=$(git ls-files '*.go' | grep -v '_test.go$' | grep -v '^bench/' | xargs cat | wc -l)
tests=$(git ls-files '*_test.go' | grep -v '^bench/' | xargs cat | wc -l)
pkgs=$(git ls-files 'internal/*.go' | xargs -n1 dirname | sort -u | wc -l)
echo "non-test Go lines (outside bench/): $nontest"
echo "test Go lines (outside bench/):     $tests"
echo "internal packages:                  $pkgs"
