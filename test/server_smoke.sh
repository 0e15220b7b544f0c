#!/usr/bin/env bash
# End-to-end crash smoke for pkvd, run on every `dune runtest`:
#
#   start pkvd (PCHECK=1, heap profiler on, HTTP /metrics on, metrics
#      sampler at a fast tick, SLO watchdog with a deliberately
#      unmeetable p99 rule) ->
#      bulk-load through pkvc -> scrape /metrics (Prometheus exposition
#      with prof_*, tsdb_* and slo_breach_total families) -> kill -9
#      mid-load
#   -> rstat --timeline must reconstruct the pre-crash series from the
#      dirty image's metrics black box (samples present, nonzero write
#      throughput recorded)
#   -> rstat --audit must say CLEAN on the dirty image
#   -> rstat --prof must attribute >= 90% of the sampled live bytes to
#      persisted site names, and a store.* site must appear
#   -> rstat --pcheck-summary must report zero durability violations
#   -> restart pkvd (recovers, request tracing + profiler on), serve
#      requests, sample `pkvc top` and `pkvc prof`, SIGTERM (graceful)
#   -> the Chrome trace written at shutdown must parse and its request
#      spans must nest (trace_check)
#   -> rstat --audit must say CLEAN on the cleanly closed image
#
# Usage: server_smoke.sh PKVD PKVC RSTAT TRACE_CHECK
set -euo pipefail

PKVD=$1
PKVC=$2
RSTAT=$3
TRACE_CHECK=$4

# the 1024-connection hold needs >1024 fds on both sides of the socket
ulimit -n 8192 2>/dev/null || true

heap=./server-smoke-heap
# Unix socket paths are capped at ~107 bytes and _build paths can exceed
# that, so the socket lives under /tmp
sock=$(mktemp -u /tmp/pkvd-smoke-XXXXXX.sock)
trace=./server-smoke-trace.json
pid=""
lpid=""

# Failure reasons go to stderr: dune drops the stdout log of a failed rule.
fail() {
  echo "server_smoke: $*" >&2
  exit 1
}
trap 'echo "server_smoke: line $LINENO: \`$BASH_COMMAND\` exited $?" >&2' ERR

cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  [ -n "$lpid" ] && kill -9 "$lpid" 2>/dev/null || true
  rm -f "$sock"
}
trap cleanup EXIT

rm -f "$heap".sb "$heap".meta "$heap".desc

mport=$((20000 + RANDOM % 20000))
# --slo p99_us=1: no real op finishes in a microsecond, so every sampler
# tick records a breach — the watchdog's counter and flight event are
# deterministic scrape targets
PCHECK=1 "$PKVD" --heap "$heap" --socket "$sock" --workers 2 --batch 16 \
  --prof-rate 4096 --metrics-port "$mport" --tick 0.2 --slo p99_us=1 &
pid=$!

# generous retry: first-fence spin calibration can delay readiness
"$PKVC" ping --socket "$sock" --retry 300

"$PKVC" load 50000 --socket "$sock" --conns 4 &
lpid=$!
sleep 0.5

echo "== scrape /metrics over HTTP =="
metrics=""
for _ in 1 2 3 4 5; do
  metrics=$(exec 3<>"/dev/tcp/127.0.0.1/$mport" &&
    printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3 && cat <&3 && exec 3<&-) \
    && break || { metrics=""; sleep 0.3; }
done
[ -n "$metrics" ] || fail "/metrics: fetch failed"
# a failed content check shows what arrived: the body's size, then the body
metrics_fail() {
  {
    echo "server_smoke: scraped /metrics body ($(printf '%s' "$metrics" | wc -c) bytes):"
    printf '%s\n' "$metrics"
  } >&2
  fail "$@"
}
echo "$metrics" | grep -q "200 OK" || metrics_fail "/metrics: no 200"
echo "$metrics" | grep -q "^prof_sample_rate_bytes 4096" \
  || metrics_fail "/metrics: no prof_sample_rate_bytes"
echo "$metrics" | grep -q "^prof_samples_total" \
  || metrics_fail "/metrics: no prof_samples_total"
echo "$metrics" | grep -q "^prof_live_bytes{site=" \
  || metrics_fail "/metrics: no per-site prof_live_bytes"
echo "$metrics" | grep -q "^server_ops" \
  || metrics_fail "/metrics: no server counters"

echo "== tsdb gauges + SLO breach counter in /metrics =="
# the sampler ticks every 0.2s; retry until the first tick has published
# the tsdb_* gauges and the unmeetable p99 rule has breached
tsdb_ok=""
for _ in $(seq 1 30); do
  m=$(exec 3<>"/dev/tcp/127.0.0.1/$mport" &&
    printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3 && cat <&3 && exec 3<&-) || m=""
  if echo "$m" | grep -q "^tsdb_server_write_ops_s" &&
     echo "$m" | grep -q "^tsdb_alloc_occupancy_pm" &&
     echo "$m" | grep -Eq '^slo_breach_total\{rule="p99_us"\} [1-9]'; then
    tsdb_ok=1; metrics=$m; break
  fi
  sleep 0.3
done
[ -n "$tsdb_ok" ] || {
  echo "$m" | grep -E "^(tsdb_|slo_)" >&2 || true
  fail "/metrics: tsdb gauges or slo_breach_total never appeared"
}
echo "$metrics" | grep -E "^(tsdb_server_write_ops_s|slo_breach_total)"

echo "== hold 1024 idle + 64 active connections =="
# the event loops must hold 4 orders of magnitude more sockets than the
# old thread-per-connection ceiling (128): 1024 connections, 64 of them
# driving writes, while the bulk load above keeps running.  The server's
# server.conns gauge must see every socket — pkvc bench reads it over STATS
# once all 1024 are open and before its load starts, so the check does not
# race the hold — and the idle 960 must still answer a ping after the
# active load finishes.
benchout=./server-smoke-bench.out
"$PKVC" bench 5000 --socket "$sock" --conns 1024 --active 64 \
  --keys 100000 >"$benchout" 2>&1 \
  || { cat "$benchout" >&2; fail "pkvc bench failed"; }
cat "$benchout"
c=$(awk '/^bench: server_conns /{ print $3 }' "$benchout")
[ -n "$c" ] && [ "$c" -ge 1024 ] \
  || fail "server_conns never reached 1024 (last: ${c:-none})"
grep -q "1024 conns held" "$benchout" \
  || fail "pkvc bench: did not hold 1024 connections"
grep -q "idle connections alive after load: ok" "$benchout" \
  || fail "pkvc bench: idle connections died under load"

echo "== kill -9 mid-load =="
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
wait "$lpid" 2>/dev/null || true
lpid=""

echo "== pre-crash metrics timeline from the dirty image =="
timeline=$("$RSTAT" --timeline "$heap")
echo "$timeline"
samples=$(echo "$timeline" | awk '/^tsdb_samples_total/ { print $2 }')
[ -n "$samples" ] && [ "$samples" -ge 2 ] \
  || fail "rstat --timeline: only '$samples' pre-crash samples survived"
echo "$timeline" | grep -E '^tsdb_series name=server\.write_ops_s .* max=[1-9]' \
  >/dev/null \
  || fail "rstat --timeline: no pre-crash write throughput recorded"
echo "$timeline" | grep -E '^tsdb_series name=server\.queue_depth\.w0 ' \
  >/dev/null \
  || fail "rstat --timeline: no pre-crash queue-depth series"
echo "$timeline" | grep -E '^tsdb_series name=alloc\.occupancy_pm .* max=[1-9]' \
  >/dev/null \
  || fail "rstat --timeline: no pre-crash occupancy recorded"
# the unmeetable SLO rule must have left durable breach events in the
# flight recorder (the lifetime kind counter survives ring wrap)
echo "$timeline" | grep -E '^tsdb_slo_breach_events [1-9]' >/dev/null \
  || fail "rstat --timeline: no slo_breach flight events recorded"

echo "== audit of the dirty image =="
"$RSTAT" --audit "$heap"

echo "== crash-surviving allocation-site attribution =="
prof_out=$("$RSTAT" --prof "$heap")
echo "$prof_out"
echo "$prof_out" | grep -q "store\." \
  || fail "rstat --prof: no store.* site survived the crash"
pct=$(echo "$prof_out" | awk '/^prof_attribution_pct/ { print $2 }')
[ -n "$pct" ] || fail "rstat --prof: no prof_attribution_pct line"
awk -v p="$pct" 'BEGIN { exit (p >= 90.0) ? 0 : 1 }' \
  || fail "rstat --prof: attribution $pct% < 90%"

echo "== persistency-checker replay of recovery =="
PCHECK=1 "$RSTAT" --pcheck-summary "$heap"

echo "== restart: recovery + service, request tracing + profiler on =="
rm -f "$trace"
PCHECK=1 "$PKVD" --heap "$heap" --socket "$sock" --workers 2 --batch 16 \
  --prof-rate 4096 --trace "$trace" --slow-us 10000000 --tick 0.2 &
pid=$!
"$PKVC" ping --socket "$sock" --retry 300
# key 0 -> 0 was in the first acked batch of the load; it must have survived
v=$("$PKVC" get 0 --socket "$sock")
[ "$v" = "0" ] || fail "key 0 recovered as '$v', expected 0"
"$PKVC" set 424242 7 --socket "$sock"
v=$("$PKVC" get 424242 --socket "$sock")
[ "$v" = "7" ] || fail "post-recovery set read back '$v', expected 7"

# a traced load, small enough to fit the trace ring
"$PKVC" load 1000 --socket "$sock" --conns 2 --start 2000000

echo "== pkvc top =="
top=$("$PKVC" top --socket "$sock" --count 2 --interval 0.2 --raw)
echo "$top"
echo "$top" | grep -q "queue depth" || fail "pkvc top: no queue depths"
echo "$top" | grep -q "stage share" || fail "pkvc top: no stage breakdown"

echo "== pkvc watch =="
watch=$("$PKVC" watch --socket "$sock" --count 3 --interval 0.4 --raw)
echo "$watch"
echo "$watch" | grep -q "server.write_ops_s" \
  || fail "pkvc watch: no black-box series"

echo "== pkvc prof =="
prof=$("$PKVC" prof --socket "$sock" --top 5)
echo "$prof"
echo "$prof" | grep -q "live_bytes" || fail "pkvc prof: no table header"
echo "$prof" | grep -q "store\." || fail "pkvc prof: no store.* site"

echo "== graceful shutdown =="
kill -TERM "$pid"
wait "$pid" || true
pid=""

echo "== trace check =="
"$TRACE_CHECK" --min-ops 500 "$trace"

echo "== audit of the cleanly closed image =="
"$RSTAT" --audit "$heap"
echo "server-smoke OK"
