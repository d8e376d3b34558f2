#!/bin/sh
# Serve smoke test: start `pcmapsim serve` on an ephemeral port, post
# the same job twice (the second answer must be byte-identical — the
# single-flight/cache path), then twice more at a second measure budget
# (byte-identical to each other, different from the first pair, one
# more simulation on the same runner), reject an unknown workload and
# an out-of-range knob with structured 400s, scrape the service counters
# and the aggregated simulation counters, abandon a long job after 0.5 s
# and require its simulation to stop within 1 s (a worker freed, nothing
# completed, the job counted failed), then SIGTERM the server and
# require a clean drain (exit 0).
# Exercises the service end to end through the real binary, real
# sockets, and a real signal.
set -eu

GO=${GO:-go}
CURL=${CURL:-curl}
tmp=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

bin="$tmp/pcmapsim"
$GO build -o "$bin" ./cmd/pcmapsim

# Ephemeral port, small default budgets, a disk cache, verbose logging.
"$bin" serve -addr 127.0.0.1:0 -workers 2 -warmup 500 -measure 4000 \
    -cache "$tmp/cache" -drain 30s -v 2> "$tmp/serve.log" &
pid=$!

# The bound address is announced on stderr: "serving on 127.0.0.1:PORT".
addr=""
i=0
while [ "$i" -lt 200 ]; do
    addr=$(sed -n 's/.*serving on \([0-9.:]*\)$/\1/p' "$tmp/serve.log" | head -n 1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "serve-smoke: server died at startup" >&2; cat "$tmp/serve.log" >&2; exit 1; }
    sleep 0.05
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "serve-smoke: never saw the serving address in the log" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi
base="http://$addr"

# Liveness and readiness answer before any job has run.
for ep in healthz readyz; do
    code=$($CURL -s -o /dev/null -w '%{http_code}' --max-time 10 "$base/$ep")
    if [ "$code" != "200" ]; then
        echo "serve-smoke: /$ep answered $code, want 200" >&2
        exit 1
    fi
done

# The same job twice: both 200, byte-identical Results JSON (the second
# is served from the memo/disk cache, never re-simulated differently).
# Then the same job twice at a second budget (measure 8000): again
# byte-identical, and different from the default-budget answers.
job='{"workload":"MP4","variant":"RWoW-RDE","seed":7}'
job8k='{"workload":"MP4","variant":"RWoW-RDE","seed":7,"measure":8000}'
for n in 1 2 3 4; do
    body=$job
    [ "$n" -gt 2 ] && body=$job8k
    code=$($CURL -s -o "$tmp/res$n.json" -w '%{http_code}' --max-time 120 \
        -X POST -H 'Content-Type: application/json' -d "$body" "$base/v1/jobs")
    if [ "$code" != "200" ]; then
        echo "serve-smoke: job $n answered $code, want 200" >&2
        cat "$tmp/res$n.json" >&2
        exit 1
    fi
done
if ! cmp -s "$tmp/res1.json" "$tmp/res2.json" || ! cmp -s "$tmp/res3.json" "$tmp/res4.json"; then
    echo "serve-smoke: repeated job answers differ (cache/coalesce broken)" >&2
    exit 1
fi
if cmp -s "$tmp/res1.json" "$tmp/res3.json"; then
    echo "serve-smoke: the measure 8000 job answered the default-budget result" >&2
    exit 1
fi
grep -q '"IPCSum"' "$tmp/res1.json" || {
    echo "serve-smoke: response is not Results JSON" >&2
    cat "$tmp/res1.json" >&2
    exit 1
}

# Invalid jobs are structured 400s, not crashes: an unknown workload,
# and a knob the machine's own validation rejects.
for bad in '{"workload":"no-such-mix","variant":"Baseline"}' \
    '{"workload":"MP4","variant":"Baseline","drift_prob":1.5}'; do
    code=$($CURL -s -o "$tmp/bad.json" -w '%{http_code}' --max-time 10 \
        -X POST -H 'Content-Type: application/json' -d "$bad" "$base/v1/jobs")
    if [ "$code" != "400" ]; then
        echo "serve-smoke: invalid job $bad answered $code, want 400" >&2
        cat "$tmp/bad.json" >&2
        exit 1
    fi
    grep -q '"kind":"invalid"' "$tmp/bad.json" || {
        echo "serve-smoke: invalid job $bad lacks the typed error body" >&2
        cat "$tmp/bad.json" >&2
        exit 1
    }
done

# The counters account for what just happened.
$CURL -s --max-time 10 "$base/metrics" > "$tmp/metrics.txt"
for want in 'serve_jobs_accepted 4' 'serve_jobs_completed 4' 'serve_jobs_rejected_invalid 2' \
    'serve_sims_executed 2'; do
    grep -q "^$want\$" "$tmp/metrics.txt" || {
        echo "serve-smoke: /metrics missing \"$want\"" >&2
        cat "$tmp/metrics.txt" >&2
        exit 1
    }
done
# The simulation counters of the real jobs are summed into sim_ rows.
awk '$1 == "sim_reads" && $2 > 0 { ok = 1 } END { exit !ok }' "$tmp/metrics.txt" || {
    echo "serve-smoke: /metrics lacks a positive sim_reads row" >&2
    cat "$tmp/metrics.txt" >&2
    exit 1
}

# A client that leaves stops its job: a 2M-instruction job (seconds of
# simulation) abandoned after 0.5 s frees its worker within 1 s, and the
# job counts as failed, not completed.
$CURL -s -o /dev/null --max-time 0.5 -X POST -H 'Content-Type: application/json' \
    -d '{"workload":"MP4","variant":"RWoW-RDE","measure":2000000}' "$base/v1/jobs" || true
i=0
while :; do
    $CURL -s --max-time 10 "$base/metrics" > "$tmp/metrics.txt"
    grep -q '^serve_workers_busy 0$' "$tmp/metrics.txt" && break
    if [ "$i" -ge 20 ]; then
        echo "serve-smoke: the departed client's job still simulates 1 s later" >&2
        cat "$tmp/metrics.txt" >&2
        exit 1
    fi
    sleep 0.05
    i=$((i + 1))
done
for want in 'serve_jobs_completed 4' 'serve_jobs_failed 1'; do
    grep -q "^$want\$" "$tmp/metrics.txt" || {
        echo "serve-smoke: /metrics missing \"$want\" after the departed job" >&2
        cat "$tmp/metrics.txt" >&2
        exit 1
    }
done

# SIGTERM drains and exits 0.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
if [ "$status" != "0" ]; then
    echo "serve-smoke: server exited $status after SIGTERM, want 0" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi
echo "serve-smoke: OK (repeat answers byte-identical at two budgets, invalid jobs 400, departed job stopped, clean drain)"
