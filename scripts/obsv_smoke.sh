#!/usr/bin/env bash
# Observability smoke test: boot schemble-server with a quick-fit pipeline,
# drive a few predictions, scrape /v1/metrics and /v1/trace, and assert the
# exposition is non-empty and well-formed enough to be scraped.
set -euo pipefail

PORT="${PORT:-18080}"
ADDR="127.0.0.1:${PORT}"
BIN="$(mktemp -d)/schemble-server"
LOG="$(mktemp)"

cleanup() {
    [[ -n "${SRV_PID:-}" ]] && kill "${SRV_PID}" 2>/dev/null || true
    [[ -n "${SRV_PID:-}" ]] && wait "${SRV_PID}" 2>/dev/null || true
    rm -f "${LOG}"
    rm -rf "$(dirname "${BIN}")"
}
trap cleanup EXIT

go build -o "${BIN}" ./cmd/schemble-server

"${BIN}" -addr "${ADDR}" -quick -timescale 0.05 -trace-buffer 64 >"${LOG}" 2>&1 &
SRV_PID=$!

# Wait for liveness (quick fit takes a few seconds).
for i in $(seq 1 120); do
    if curl -fsS "http://${ADDR}/v1/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "${SRV_PID}" 2>/dev/null; then
        echo "server exited early:" >&2
        cat "${LOG}" >&2
        exit 1
    fi
    sleep 0.5
done
curl -fsS "http://${ADDR}/v1/healthz" >/dev/null

# Drive a few predictions so the counters and histograms are non-trivial.
# Sample IDs depend on the train/serve split, so sweep a range and require
# that some of them hit.
HITS=0
for id in $(seq 0 19); do
    if curl -fsS -X POST "http://${ADDR}/v1/predict" \
        -d "{\"sample_id\": ${id}, \"deadline_ms\": 500}" >/dev/null 2>&1; then
        HITS=$((HITS + 1))
    fi
done
[[ "${HITS}" -gt 0 ]] || { echo "no sample id in the serving pool answered" >&2; exit 1; }

METRICS="$(curl -fsS "http://${ADDR}/v1/metrics")"
echo "${METRICS}" | grep -q '^schemble_requests_total{outcome="served"} [0-9]' \
    || { echo "missing outcome counters:"; echo "${METRICS}"; exit 1; } >&2
echo "${METRICS}" | grep -q '^# TYPE schemble_request_latency_seconds histogram$' \
    || { echo "missing latency histogram:"; echo "${METRICS}"; exit 1; } >&2
echo "${METRICS}" | grep -q '^schemble_model_queue_depth{model=' \
    || { echo "missing per-model gauges:"; echo "${METRICS}"; exit 1; } >&2
echo "${METRICS}" | grep -Eq '^schemble_model_backlog_seconds\{model="[^"]+"\} [0-9]' \
    || { echo "missing per-model backlog gauge:"; echo "${METRICS}"; exit 1; } >&2
for family in schemble_turn_events schemble_pass_seconds; do
    echo "${METRICS}" | grep -Eq "^${family}_count [1-9]" \
        || { echo "missing coordinator histogram ${family}:"; echo "${METRICS}"; exit 1; } >&2
done
# /v1/stats carries every family under its /v1/metrics name: the per-model
# backlog gauge as {model: seconds}, each coordinator histogram as
# {count, sum, p50, p99}.
STATS="$(curl -fsS "http://${ADDR}/v1/stats")"
echo "${STATS}" | grep -Eq '"schemble_model_backlog_seconds":\{"[^"]+":[0-9]' \
    || { echo "/v1/stats carries no per-model schemble_model_backlog_seconds: ${STATS}"; exit 1; } >&2
for family in schemble_turn_events schemble_pass_seconds; do
    echo "${STATS}" | grep -Eq "\"${family}\":\\{\"count\":[1-9][0-9]*,\"sum\":[0-9.e+-]+,\"p50\":[0-9.e+-]+,\"p99\":[0-9.e+-]+\\}" \
        || { echo "/v1/stats carries no ${family} histogram with its p50 and p99: ${STATS}"; exit 1; } >&2
done

TRACES="$(curl -fsS "http://${ADDR}/v1/trace?last=5")"
echo "${TRACES}" | grep -q '"enabled":true' \
    || { echo "tracing not enabled: ${TRACES}"; exit 1; } >&2
echo "${TRACES}" | grep -q '"outcome"' \
    || { echo "no traces recorded: ${TRACES}"; exit 1; } >&2

echo "obsv smoke: metrics + traces OK"
