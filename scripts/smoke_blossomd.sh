#!/bin/sh
# Smoke test for the blossomd daemon: boot it on a random port against a
# generated dataset, run one query over HTTP, scrape /metrics and assert
# the query-latency histogram recorded it, fetch the query's trace, then
# shut the daemon down with SIGTERM and require a clean exit.
#
# Run from the repo root (make smoke does).
set -eu

workdir=$(mktemp -d)
bin="$workdir/blossomd"
out="$workdir/stdout"
log="$workdir/stderr"

cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "smoke: building blossomd"
go build -o "$bin" ./cmd/blossomd

"$bin" -addr 127.0.0.1:0 -gen d2:2000 -slow-query 1ns >"$out" 2>"$log" &
pid=$!

# The daemon announces "blossomd listening on <addr>" on stdout once
# the listener is up; poll for it rather than sleeping a fixed time.
addr=
for _ in $(seq 1 50); do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "smoke: daemon died during startup" >&2
        cat "$log" >&2
        exit 1
    fi
    addr=$(sed -n 's/^blossomd listening on //p' "$out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "smoke: daemon never announced its address" >&2
    cat "$log" >&2
    exit 1
fi
echo "smoke: daemon up at $addr"

# One query over HTTP. d2 is the synthetic "address book" dataset; this
# is its Q1 shape.
resp=$(curl -sS -X POST "http://$addr/query" \
    -H 'Content-Type: application/json' \
    -d '{"query": "//addresses//street_address", "analyze": true}')
echo "smoke: query response: $(printf %s "$resp" | head -c 200)"
case $resp in
*'"verdict":"ok"'*) ;;
*)
    echo "smoke: query did not succeed: $resp" >&2
    exit 1
    ;;
esac
# The answer crosses the wire once: as an unescaped xml string, with no
# per-node copy beside it.
printf %s "$resp" | grep -qF '"xml":"<street_address>' || {
    echo "smoke: reply lacks the unescaped xml answer: $resp" >&2
    exit 1
}
if printf %s "$resp" | grep -qF '"nodes"'; then
    echo "smoke: reply still carries a nodes key: $resp" >&2
    exit 1
fi
qid=$(printf %s "$resp" | sed -n 's/.*"query_id":"\([^"]*\)".*/\1/p')
if [ -z "$qid" ]; then
    echo "smoke: response has no query_id: $resp" >&2
    exit 1
fi

# A second identical POST must be served from the plan cache: the
# response says so, and the hit counter moves.
resp2=$(curl -sS -X POST "http://$addr/query" \
    -H 'Content-Type: application/json' \
    -d '{"query": "//addresses//street_address", "analyze": true}')
case $resp2 in
*'"cached":true'*) ;;
*)
    echo "smoke: repeated query not served from the plan cache: $resp2" >&2
    exit 1
    ;;
esac
echo "smoke: warm cache OK (repeated query reports cached:true)"

# The metrics exposition must contain a non-empty query-latency
# histogram.
metrics=$(curl -sS "http://$addr/metrics")
count=$(printf '%s\n' "$metrics" | sed -n 's/^blossomtree_query_duration_seconds_count //p')
if [ -z "$count" ] || [ "$count" -lt 1 ]; then
    echo "smoke: query_duration_seconds histogram empty or missing:" >&2
    printf '%s\n' "$metrics" | head -40 >&2
    exit 1
fi
printf '%s\n' "$metrics" | grep -q '^blossomtree_query_duration_seconds_bucket{le="+Inf"}' || {
    echo "smoke: histogram buckets missing from exposition" >&2
    exit 1
}
hits=$(printf '%s\n' "$metrics" | sed -n 's/^blossomtree_plan_cache_hits //p')
if [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
    echo "smoke: plan_cache_hits missing or zero after a repeated query:" >&2
    printf '%s\n' "$metrics" | grep plan_cache >&2 || true
    exit 1
fi
for name in plan_cache_hits plan_cache_misses plan_cache_evictions; do
    printf '%s\n' "$metrics" | grep -q "^blossomtree_$name " || {
        echo "smoke: $name missing from exposition" >&2
        exit 1
    }
done
echo "smoke: metrics OK (histogram count=$count, plan cache hits=$hits)"

# The query's trace must be retrievable as Chrome trace-event JSON.
trace=$(curl -sS "http://$addr/trace/$qid")
case $trace in
*'"traceEvents"'*) ;;
*)
    echo "smoke: trace for $qid missing traceEvents: $trace" >&2
    exit 1
    ;;
esac
echo "smoke: trace OK for $qid"

# Clean shutdown on SIGTERM.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=
if [ "$status" -ne 0 ]; then
    echo "smoke: daemon exited $status on SIGTERM" >&2
    cat "$log" >&2
    exit 1
fi
echo "smoke: clean shutdown"

# --- Overload behavior: a second daemon with admission control. -------
# One token per ~17 minutes (-tenant-qps 0.001 yields burst 1), so the
# first query is admitted and the second deterministically sheds with
# 429 + Retry-After, and the shed counter appears in /metrics.
out2="$workdir/stdout2"
log2="$workdir/stderr2"
"$bin" -addr 127.0.0.1:0 -gen d2:2000 -max-inflight 4 -tenant-qps 0.001 >"$out2" 2>"$log2" &
pid=$!
addr=
for _ in $(seq 1 50); do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "smoke: admission daemon died during startup" >&2
        cat "$log2" >&2
        exit 1
    fi
    addr=$(sed -n 's/^blossomd listening on //p' "$out2")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "smoke: admission daemon never announced its address" >&2; exit 1; }
echo "smoke: admission daemon up at $addr (tenant-qps 0.001)"

resp=$(curl -sS -X POST "http://$addr/query" \
    -H 'Content-Type: application/json' \
    -d '{"query": "//addresses//street_address"}')
case $resp in
*'"verdict":"ok"'*) ;;
*)
    echo "smoke: first admitted query did not succeed: $resp" >&2
    exit 1
    ;;
esac

# Second query in the same bucket window: must shed with 429 and a
# Retry-After header.
headers="$workdir/shed_headers"
resp=$(curl -sS -D "$headers" -X POST "http://$addr/query" \
    -H 'Content-Type: application/json' \
    -d '{"query": "//addresses//street_address"}')
grep -q '^HTTP/[0-9.]* 429' "$headers" || {
    echo "smoke: over-quota query not answered 429:" >&2
    cat "$headers" >&2
    echo "$resp" >&2
    exit 1
}
retry_after=$(sed -n 's/^[Rr]etry-[Aa]fter: *\([0-9]*\).*/\1/p' "$headers")
if [ -z "$retry_after" ] || [ "$retry_after" -lt 1 ]; then
    echo "smoke: 429 without a positive Retry-After header:" >&2
    cat "$headers" >&2
    exit 1
fi
case $resp in
*'"verdict":"shed"'*) ;;
*)
    echo "smoke: shed response verdict is not \"shed\": $resp" >&2
    exit 1
    ;;
esac
echo "smoke: overload shed OK (429, Retry-After: ${retry_after}s)"

metrics=$(curl -sS "http://$addr/metrics")
shed=$(printf '%s\n' "$metrics" | sed -n 's/^blossomtree_queries_shed_total //p')
if [ -z "$shed" ] || [ "$shed" -lt 1 ]; then
    echo "smoke: queries_shed_total missing or zero after a shed" >&2
    exit 1
fi
# The shed must also appear as a per-tenant labeled series (tenant
# defaults to "default" without an X-Tenant header).
printf '%s\n' "$metrics" | grep -q '^blossomtree_queries_shed_total{tenant="default"} ' || {
    echo "smoke: per-tenant shed series missing from exposition:" >&2
    printf '%s\n' "$metrics" | grep queries_shed >&2 || true
    exit 1
}
echo "smoke: shed counter OK (queries_shed_total=$shed, tenant series present)"

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=
if [ "$status" -ne 0 ]; then
    echo "smoke: admission daemon exited $status on SIGTERM" >&2
    cat "$log2" >&2
    exit 1
fi
echo "smoke: clean shutdown (admission daemon)"

# --- Persistent segment store: load-persist-restart round-trip. -------
# The first run parses the XML file and persists it into -data; the
# restart must announce "document served from segment store" (no
# re-parse) and become ready in under a second.
datadir="$workdir/segments"
xmlfile="$workdir/bib.xml"
cat >"$xmlfile" <<'XML'
<bib><book><title>TCP/IP Illustrated</title><price>65.95</price></book><book><title>Data on the Web</title><price>39.95</price></book></bib>
XML

out3="$workdir/stdout3"
log3="$workdir/stderr3"
"$bin" -addr 127.0.0.1:0 -data "$datadir" -load "$xmlfile" >"$out3" 2>"$log3" &
pid=$!
addr=
for _ in $(seq 1 50); do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "smoke: persist daemon died during startup" >&2
        cat "$log3" >&2
        exit 1
    fi
    addr=$(sed -n 's/^blossomd listening on //p' "$out3")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "smoke: persist daemon never announced its address" >&2; exit 1; }
grep -q "document persisted" "$log3" || {
    echo "smoke: first -data run did not persist the document:" >&2
    cat "$log3" >&2
    exit 1
}
resp=$(curl -sS -X POST "http://$addr/query" \
    -H 'Content-Type: application/json' \
    -d '{"query": "//book/title"}')
case $resp in
*'"count":2'*) ;;
*)
    echo "smoke: persist daemon query did not return 2 titles: $resp" >&2
    exit 1
    ;;
esac
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=
[ "$status" -eq 0 ] || { echo "smoke: persist daemon exited $status on SIGTERM" >&2; cat "$log3" >&2; exit 1; }
[ -f "$datadir/manifest.json" ] || { echo "smoke: no manifest in $datadir after shutdown" >&2; exit 1; }
echo "smoke: segment store persisted (manifest present)"

# Restart against the same store: served from segments, ready fast.
out4="$workdir/stdout4"
log4="$workdir/stderr4"
start_ns=$(date +%s%N)
"$bin" -addr 127.0.0.1:0 -data "$datadir" -load "$xmlfile" >"$out4" 2>"$log4" &
pid=$!
addr=
for _ in $(seq 1 50); do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "smoke: restarted daemon died during startup" >&2
        cat "$log4" >&2
        exit 1
    fi
    addr=$(sed -n 's/^blossomd listening on //p' "$out4")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "smoke: restarted daemon never announced its address" >&2; exit 1; }
ready_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
grep -q "document served from segment store" "$log4" || {
    echo "smoke: restart re-parsed instead of serving from the segment store:" >&2
    cat "$log4" >&2
    exit 1
}
if [ "$ready_ms" -ge 1000 ]; then
    echo "smoke: restart took ${ready_ms}ms to become ready (want < 1000ms)" >&2
    exit 1
fi
resp=$(curl -sS -X POST "http://$addr/query" \
    -H 'Content-Type: application/json' \
    -d '{"query": "//book/title"}')
case $resp in
*'"count":2'*) ;;
*)
    echo "smoke: restarted daemon query did not return 2 titles: $resp" >&2
    exit 1
    ;;
esac
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=
[ "$status" -eq 0 ] || { echo "smoke: restarted daemon exited $status on SIGTERM" >&2; cat "$log4" >&2; exit 1; }
echo "smoke: segment store restart OK (served from store, ready in ${ready_ms}ms)"
echo "smoke: PASS"
