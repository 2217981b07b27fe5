#!/usr/bin/env bash
# docs_examples.sh — boot the daemons and replay the curl examples documented
# in docs/API.md and docs/OPERATIONS.md, asserting their documented outputs.
#
# CI runs this so the docs cannot drift from the servers: if an endpoint,
# field or example response changes shape, this script fails before a reader
# ever follows a stale example. Requires only bash, curl and the go
# toolchain; the binary multiply example additionally runs when python3 is
# available (it is in CI).
set -euo pipefail
cd "$(dirname "$0")/.."

RT_PORT="${RT_PORT:-18080}"
GP_PORT="${GP_PORT:-17001}"
FLEET_PORT="${FLEET_PORT:-18081}"
FW_PORT="${FW_PORT:-17002}"
EW_PORT="${EW_PORT:-17003}"
RW_PORT="${RW_PORT:-18082}"
BIN=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$BIN"
}
trap cleanup EXIT

fail() { echo "docs_examples: FAIL: $*" >&2; exit 1; }

# expect <label> <needle> <haystack>
expect() {
    case "$3" in
        *"$2"*) echo "  ok: $1" ;;
        *) fail "$1: expected to find '$2' in: $3" ;;
    esac
}

echo "docs_examples: building daemons"
go build -o "$BIN/rtrankd" ./cmd/rtrankd
go build -o "$BIN/gpserver" ./cmd/gpserver

# The exact commands the docs document (docs/API.md, docs/OPERATIONS.md).
"$BIN/gpserver" -dataset bibnet -scale 0.1 -stripe 0 -of 2 -listen "127.0.0.1:$GP_PORT" &
pids+=($!)
"$BIN/rtrankd" -dataset bibnet -scale 0.3 -listen "127.0.0.1:$RT_PORT" &
pids+=($!)
# The self-organizing fleet documented in docs/API.md ("Fleet membership")
# and docs/OPERATIONS.md ("Self-organizing fleet"): a coordinator in
# -fleet-stripes mode plus one empty worker that registers itself. Tick and
# heartbeat periods are shortened so the script converges quickly.
"$BIN/rtrankd" -dataset bibnet -scale 0.3 -listen "127.0.0.1:$FLEET_PORT" \
    -fleet-stripes 2 -replication 2 -fleet-tick 250ms &
pids+=($!)
"$BIN/gpserver" -listen "127.0.0.1:$FW_PORT" \
    -register "http://127.0.0.1:$FLEET_PORT" -heartbeat-interval 100ms &
pids+=($!)
# The push deployment of docs/OPERATIONS.md: an empty gpserver that an
# rtrankd started with -workers provisions at startup (that rtrankd starts
# below, once the worker is listening).
"$BIN/gpserver" -listen "127.0.0.1:$EW_PORT" &
pids+=($!)

wait_up() {
    for _ in $(seq 1 120); do
        if curl -sf "localhost:$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.5
    done
    fail "server on port $1 did not come up"
}
wait_up "$RT_PORT"
wait_up "$GP_PORT"
wait_up "$FLEET_PORT"
wait_up "$FW_PORT"
wait_up "$EW_PORT"
"$BIN/rtrankd" -dataset bibnet -scale 0.1 -listen "127.0.0.1:$RW_PORT" \
    -workers "http://127.0.0.1:$EW_PORT" &
pids+=($!)
wait_up "$RW_PORT"

echo "docs_examples: rtrankd examples (docs/API.md, docs/OPERATIONS.md)"
out=$(curl -s "localhost:$RT_PORT/healthz")
expect "rtrankd /healthz status" '"status":"ok"' "$out"
expect "rtrankd /healthz epoch" '"epoch":0' "$out"
expect "rtrankd /healthz nodes" '"nodes":4983' "$out"

out=$(curl -s "localhost:$RT_PORT/rank" -d '{
    "query": ["term:spatio", "term:temporal", "term:data"],
    "k": 3, "type": "venue", "method": "auto"
}')
expect "README/API.md rank query method" '"method":"exact"' "$out"
expect "README/API.md rank query top venue" '"label":"venue:Spatio-Temporal Databases"' "$out"
expect "README/API.md rank query converged" '"converged":true' "$out"

out=$(curl -s "localhost:$RT_PORT/v1/epoch")
expect "rtrankd /v1/epoch before mutation" '"epoch":0' "$out"

out=$(curl -s "localhost:$RT_PORT/v1/edges" -d '{
    "add_nodes": [{"type": "term", "label": "term:streaming"}],
    "set": [{"from": "term:streaming", "to": "venue:VLDB",
             "weight": 2, "undirected": true}]
}')
expect "/v1/edges commit epoch" '"epoch":1' "$out"
expect "/v1/edges node count" '"nodes":4984' "$out"
expect "/v1/edges staged ops" '"added_nodes":1' "$out"

out=$(curl -s "localhost:$RT_PORT/v1/epoch")
expect "rtrankd /v1/epoch after mutation" '"epoch":1' "$out"

out=$(curl -s "localhost:$RT_PORT/rank" -d '{"query": ["term:streaming"], "k": 2}')
expect "rank against ingested node" '"label":"venue:VLDB"' "$out"

# The baseline bound schemes are not methods (docs/API.md's method table).
out=$(curl -s -o /dev/null -w '%{http_code}' "localhost:$RT_PORT/rank" \
    -d '{"query": ["term:spatio"], "k": 3, "method": "gupta"}')
[ "$out" = "400" ] || fail "method gupta answered $out, want 400"
echo "  ok: method gupta rejected with 400"

out=$(curl -s -o /dev/null -w '%{http_code}' "localhost:$RT_PORT/v1/edges" -d '{}')
[ "$out" = "400" ] || fail "empty mutation answered $out, want 400"
echo "  ok: empty mutation rejected with 400"

# The /metrics exposition documented in docs/OPERATIONS.md: the epoch gauge
# reflects the mutation above, HTTP traffic is counted by route and code
# (including the 400 we just provoked), and the engine families carry the
# queries this script ran.
out=$(curl -s "localhost:$RT_PORT/metrics")
expect "rtrankd /metrics epoch gauge" 'rtrank_epoch 1' "$out"
expect "rtrankd /metrics rank traffic" 'rtrank_http_requests_total{path="/rank",code="200"} 2' "$out"
expect "rtrankd /metrics rejected mutation counted" 'rtrank_http_requests_total{path="/v1/edges",code="400"} 1' "$out"
expect "rtrankd /metrics query outcomes" 'rtrank_engine_queries_total{method="exact",outcome="ok"}' "$out"
expect "rtrankd /metrics latency quantile" 'rtrank_engine_query_latency_seconds{method="exact",quantile="0.99"}' "$out"
expect "rtrankd /metrics shed counter exposed" 'rtrank_http_requests_shed_total 0' "$out"
expect "rtrankd /metrics fleet lag gauge" 'rtrank_fleet_epoch_lag 0' "$out"

# The anytime-budget examples documented in docs/API.md ("Query budgets and
# degraded results"): a starved round cap returns 200 with the degraded
# certificate, a budget that dies before any venue is reachable returns 504,
# and the degradations land on the documented metric family.
out=$(curl -s "localhost:$RT_PORT/rank" -d '{
    "query": ["term:spatio", "term:temporal", "term:data"],
    "k": 3, "type": "venue", "method": "2sbound", "epsilon": 0,
    "budget": {"max_rounds": 2}
}')
expect "API.md budgeted rank degraded" '"degraded":true' "$out"
expect "API.md budgeted rank not converged" '"converged":false' "$out"
expect "API.md budgeted rank certificate" '"certified_k":' "$out"
expect "API.md budgeted rank residual" '"achieved_epsilon":' "$out"
expect "API.md budgeted rank rounds" '"rounds":2' "$out"
expect "API.md budgeted rank sweeps" '"sweeps":' "$out"
expect "API.md budgeted rank best venue" '"label":"venue:Spatio-Temporal Databases"' "$out"

out=$(curl -s -o /dev/null -w '%{http_code}' "localhost:$RT_PORT/rank" -d '{
    "query": ["term:spatio"], "k": 3, "type": "venue",
    "method": "2sbound", "budget": {"max_rounds": 1}
}')
[ "$out" = "504" ] || fail "budget with nothing certifiable answered $out, want 504"
echo "  ok: budget with nothing certifiable rejected with 504"

out=$(curl -s "localhost:$RT_PORT/metrics")
expect "rtrankd /metrics degraded counter" 'rtrank_engine_query_degraded_total{method="2sbound"} 2' "$out"
expect "rtrankd /metrics certified-k histogram" 'rtrank_engine_query_certified_k_count{method="2sbound"} 2' "$out"
expect "rtrankd /metrics Stage-II sweeps histogram" 'rtrank_engine_query_stage2_sweeps_count{method="2sbound"} 2' "$out"

echo "docs_examples: gpserver examples (docs/API.md)"
out=$(curl -s "localhost:$GP_PORT/healthz")
expect "gpserver /healthz" '"status":"ok"' "$out"
expect "gpserver /healthz stripe" '"stripe":0' "$out"
expect "gpserver /healthz rows" '"rows":1072' "$out"

info=$(curl -s "localhost:$GP_PORT/v1/info")
expect "gpserver /v1/info protocol" '"protocol":2' "$info"
expect "gpserver /v1/info nodes" '"nodes":2143' "$info"
expect "gpserver /v1/info epoch" '"epoch":0' "$info"
content=$(printf '%s' "$info" | grep -oE '"content":[0-9]+' | head -1 | cut -d: -f2)
[ -n "$content" ] || fail "no content fingerprint in /v1/info: $info"

out=$(curl -s "localhost:$GP_PORT/metrics")
expect "gpserver /metrics stripe rows" 'gpserver_stripe_rows 1072' "$out"
expect "gpserver /metrics stripe epoch" 'gpserver_stripe_epoch 0' "$out"
expect "gpserver /metrics route traffic" 'gpserver_http_requests_total{path="/v1/info",code="200"}' "$out"

if command -v python3 >/dev/null 2>&1; then
    out=$(curl -s "localhost:$GP_PORT/v1/outdegs" |
        python3 -c 'import struct,sys; b=sys.stdin.buffer.read();
v=struct.unpack("<%di"%(len(b)//4), b)
print(len(v), "rows; degree of node 0:", v[0])')
    expect "API.md outdegs fixture" '1072 rows; degree of node 0: 45' "$out"

    # The documented /v1/rows example: fetch nodes 0 and 2, decode the
    # header and the first row. (Runs before the retag example below, which
    # rebinds the stripe's identity.)
    out=$(python3 -c 'import struct,sys; sys.stdout.buffer.write(struct.pack("<2i", 0, 2))' |
        curl -s --data-binary @- -H 'Content-Type: application/octet-stream' \
            "localhost:$GP_PORT/v1/rows" |
        python3 -c 'import struct,sys; b=sys.stdin.buffer.read();
epoch,content,count=struct.unpack_from("<QII", b)
node,outdeg,indeg=struct.unpack_from("<iII", b, 16)
print("epoch",epoch,"content",content,"rows",count,
      "| first row: node",node,"out",outdeg,"in",indeg)')
    expect "API.md rows fixture" \
        'epoch 0 content 3730835707 rows 2 | first row: node 0 out 45 in 45' "$out"
else
    echo "  skip: python3 not available, binary rows/outdegs examples not replayed"
fi

out=$(curl -s -o /dev/null -w '%{http_code}' --data-binary 'xyz' \
    "localhost:$GP_PORT/v1/rows")
[ "$out" = "400" ] || fail "misaligned rows request answered $out, want 400"
echo "  ok: misaligned rows request rejected with 400"

out=$(curl -s -X POST "localhost:$GP_PORT/v1/stripe/retag?graph=123456&epoch=1&content=$content")
expect "retag adopts identity" '"graph":123456' "$out"
expect "retag adopts epoch" '"epoch":1' "$out"

# Stripe gauges read the worker's state at scrape time, so the retag above
# is already visible on the very next scrape.
out=$(curl -s "localhost:$GP_PORT/metrics")
expect "gpserver /metrics epoch after retag" 'gpserver_stripe_epoch 1' "$out"

out=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    "localhost:$GP_PORT/v1/stripe/retag?graph=1&epoch=2&content=999")
[ "$out" = "409" ] || fail "mismatched retag answered $out, want 409"
echo "  ok: mismatched retag rejected with 409"

if command -v python3 >/dev/null 2>&1; then
    out=$(python3 -c 'import struct,sys; n=2143; v=[0.0]*n; v[0]=1.0;
sys.stdout.buffer.write(struct.pack("<%dd"%n,*v))' |
        curl -s --data-binary @- -H 'Content-Type: application/octet-stream' \
            "localhost:$GP_PORT/v1/multiply?dir=in" |
        python3 -c 'import struct,sys; b=sys.stdin.buffer.read();
v=struct.unpack("<%dd"%(len(b)//8), b);
print(len(v), "entries; first nonzero:", next((i,x) for i,x in enumerate(v) if x))')
    expect "API.md multiply fixture" '1072 entries; first nonzero: (626, 1.0)' "$out"
else
    echo "  skip: python3 not available, binary multiply example not replayed"
fi

echo "docs_examples: push deployment (docs/OPERATIONS.md)"
# rtrankd -workers shipped the empty worker its stripe before serving, so a
# distributed query answers 200 without any mutation first.
out=$(curl -s -w '\n%{http_code}' "localhost:$RW_PORT/rank" -d '{
    "query": ["term:spatio"], "k": 3, "method": "distributed"
}')
expect "empty worker behind rtrankd -workers serves distributed" '"method":"distributed"' "$out"
[ "${out##*$'\n'}" = "200" ] || fail "distributed query behind rtrankd -workers answered ${out##*$'\n'}, want 200"
echo "  ok: distributed query behind rtrankd -workers answered 200"

echo "docs_examples: fleet membership examples (docs/API.md, docs/OPERATIONS.md)"
# The registered worker should be admitted and — with 2 stripes, R=2, one
# live member — end up serving both stripes. Registration, the membership
# tick and the stripe ship are all asynchronous, so poll briefly.
fleet_id="127.0.0.1:$FW_PORT"
converged=""
for _ in $(seq 1 120); do
    metrics=$(curl -s "localhost:$FW_PORT/metrics")
    case "$metrics" in
        *'gpserver_stripes_held 2'*) converged=1; break ;;
    esac
    sleep 0.25
done
[ -n "$converged" ] || fail "registered worker never received its 2 stripes: $(curl -s "localhost:$FLEET_PORT/v1/fleet")"
echo "  ok: registered worker was shipped both stripes (gpserver_stripes_held 2)"

out=$(curl -s "localhost:$FLEET_PORT/v1/fleet")
expect "/v1/fleet member admitted" "\"id\":\"$fleet_id\"" "$out"
expect "/v1/fleet member alive" '"state":"alive"' "$out"
expect "/v1/fleet census" '"alive":1' "$out"
expect "/v1/fleet replication" '"replication":2' "$out"
expect "/v1/fleet placement" "\"placement\":[[\"$fleet_id\"],[\"$fleet_id\"]]" "$out"

# A distributed query served entirely by the self-organized fleet.
out=$(curl -s "localhost:$FLEET_PORT/rank" -d '{
    "query": ["term:spatio", "term:temporal", "term:data"],
    "k": 3, "type": "venue", "method": "distributed"
}')
expect "fleet-served distributed query method" '"method":"distributed"' "$out"
expect "fleet-served distributed query top venue" '"label":"venue:Spatio-Temporal Databases"' "$out"
expect "fleet-served distributed query converged" '"converged":true' "$out"

# The fleet census on /metrics (docs/OPERATIONS.md).
out=$(curl -s "localhost:$FLEET_PORT/metrics")
expect "fleet /metrics alive census" 'rtrank_fleet_members{state="alive"} 1' "$out"
expect "fleet /metrics replication" 'rtrank_fleet_replication 2' "$out"
expect "fleet /metrics failover counter exposed" 'rtrank_fleet_failovers_total' "$out"

# A heartbeat for an unknown member is 404 — the signal that tells an
# evicted (or coordinator-restart-orphaned) worker to re-register.
out=$(curl -s -o /dev/null -w '%{http_code}' "localhost:$FLEET_PORT/v1/heartbeat" \
    -d '{"id": "ghost"}')
[ "$out" = "404" ] || fail "unknown-member heartbeat answered $out, want 404"
echo "  ok: unknown-member heartbeat rejected with 404"

# Registration bodies are strict JSON: unknown fields are rejected.
out=$(curl -s -o /dev/null -w '%{http_code}' "localhost:$FLEET_PORT/v1/register" \
    -d '{"id": "w7", "addr": "http://10.0.0.7:7001", "extra": true}')
[ "$out" = "400" ] || fail "register with unknown field answered $out, want 400"
echo "  ok: register with unknown field rejected with 400"

# The documented manual register + drain pair. (The fake member is drained
# right away so the reconcile loop stops considering it a placement target.)
out=$(curl -s "localhost:$FLEET_PORT/v1/register" \
    -d '{"id": "w7", "addr": "http://10.0.0.7:7001"}')
expect "API.md register reply" '"ok":true' "$out"
expect "API.md register echoes replication" '"replication":2' "$out"
expect "API.md register echoes stripes" '"stripes":2' "$out"
out=$(curl -s "localhost:$FLEET_PORT/v1/drain" -d '{"id": "w7"}')
expect "API.md drain reply" '"draining":"w7"' "$out"

echo "docs_examples: all documented examples verified"
