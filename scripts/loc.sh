#!/usr/bin/env bash
# Prints the Go line counts ROADMAP aim 2 tracks (bench/ excluded: it is the
# measuring instrument, not the system), the number of internal packages, the
# number of interface declarations in internal/graph + the root package, the
# number of layout type assertions outside tests and bench/ — how often code
# asks a graph what it is instead of calling it — and the number of dense
# per-node structures one pooled online searcher holds: fields of internal/bca,
# internal/bounds and internal/topk whose type is a stamped internal/scratch
# structure held by value, 8 B a node each. Today that is the BCA engine's one
# Index; a pointer field is not counted — both trackers' neighborhoods point at
# that Index, and TFlat's own, allocated only when it is bound alone, is never
# allocated in a searcher. In an older tree the count also takes in Floats, the
# then node-keyed Heap and Ints (FFlat's former parked chains).
# Then the number of engine options: With… functions of the root package's
# non-test files, what configures an Engine. Last, the root package's exported
# identifiers in its non-test files: package-level names (in or out of a
# type/var/const block) plus methods of exported types — its public surface.
# Last, the settable values: the exported fields of exported struct types
# named, or ending in, Options, Config, Policy or Params in non-test Go
# outside bench/ (a line declaring A, B, C counts three), plus the engine
# options — every knob a caller can turn.
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
ifaces=$(gofiles | grep -E '^(internal/graph/)?[^/]*\.go$' | grep -v '_test.go$' | xargs grep -hE '^type .* interface' | wc -l)
asserts=$(gofiles | grep -v '_test.go$' | grep -v '^bench/' | xargs grep -nE '\.\((\*?(graph|roundtriprank)\.)?\*?(Graph|Packed|CompactedView|View|CSRView|PackedCSRView|RowsProvider|Rows|RowPrefetcher|Epocher|TypedView|type)\)' | grep -cvE ':[0-9]+:\s*//' || true)
dense='Index|Floats'
if grep -qE 'stamp +\[\]uint32' internal/scratch/heap.go; then
    dense="$dense|Heap" # the heap still keeps stamps of its own by node
fi
if grep -qE '^type Ints struct' internal/scratch/scratch.go; then
    dense="$dense|Ints"
fi
opts=$(gofiles | grep -E '^[^/]*\.go$' | grep -v '_test.go$' | xargs grep -hE '^func With' | wc -l)
exports=$(gofiles | grep -E '^[^/]*\.go$' | grep -v '_test.go$' | xargs awk '
    /^(type|var|const) \($/ { block = 1; next }
    block && /^\)/ { block = 0; next }
    block && /^\t[A-Z]/ { n++; next }
    /^(type|var|const|func) [A-Z]/ { n++; next }
    /^func \([a-z_]* *\*?[A-Z][A-Za-z0-9_]*\) [A-Z]/ { n++ }
    END { print n + 0 }')
fields=$(gofiles | grep -v '_test.go$' | grep -v '^bench/' | xargs awk '
    /^type (Options|Config|Policy|Params|[A-Z][A-Za-z0-9_]*(Options|Config|Policy|Params)) struct/ { inside = 1; next }
    inside && /^}/ { inside = 0; next }
    inside && /^\t[A-Z][A-Za-z0-9_]*(, *[A-Z][A-Za-z0-9_]*)* / {
        names = $0; sub(/^\t/, "", names); sub(/ +[^ ,][^,]*$/, "", names)
        n += split(names, parts, /, */)
    }
    END { print n + 0 }')
scratch=$(gofiles | grep -E '^internal/(bca|bounds|topk)/' | grep -v '_test.go$' | xargs grep -hE "^\s+\w+\s+scratch\.($dense)\b" | wc -l)
echo "non-test Go lines (outside bench/): $nontest"
echo "test Go lines (outside bench/):     $tests"
echo "internal packages:                  $pkgs"
echo "interfaces (internal/graph + root): $ifaces"
echo "layout type assertions:             $asserts"
echo "dense per-node structures:          $scratch"
echo "engine options:                     $opts"
echo "root exported identifiers:          $exports"
echo "settable values:                    $((fields + opts))"
