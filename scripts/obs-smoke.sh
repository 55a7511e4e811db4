#!/usr/bin/env bash
# obs-smoke: boots the examples/distributed deployment with an ops
# listener, waits for the demo workload to flow through the pipeline, then
# scrapes /metrics, /traces, /slo and /cluster and asserts the whole
# attribution chain is present — stage histograms with trace exemplars,
# recorded spans, rolling SLO burn state, and the federated cluster view
# with every worker and a populated partition table — the end-to-end
# check that the observability wiring survives from worker construction
# to HTTP scrape. Run via `make obs-smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

. scripts/example.sh

start_example
# Wait for the demo to finish driving traffic, so every metric asserted on
# has been exercised.
await_log obs-smoke "distributed topology demo complete" 300
addr=$(ops_addr obs-smoke)

fetch() { # fetch <url> -> $body
  curl -sSf --max-time 10 "$1" >"$body"
  [ -s "$body" ] || { echo "obs-smoke: empty response from $1" >&2; exit 1; }
}

fetch "http://$addr/metrics"
grep -q "serving.sample_hits" "$body" || {
  echo "obs-smoke: /metrics has no serving cache counters:" >&2
  cat "$body" >&2
  exit 1
}
grep -q "mq.consumer_lag" "$body" || {
  echo "obs-smoke: /metrics has no consumer-lag gauges" >&2
  exit 1
}

# The replicated broker tier exports its health even when nothing fails:
# per-partition follower lag from the leaders and the controller's
# promotion counter (zero here — the demo ran no failover drill).
grep -q "mq.replication_lag" "$body" || {
  echo "obs-smoke: /metrics has no replication-lag gauges" >&2
  exit 1
}
grep -q "mq.failovers" "$body" || {
  echo "obs-smoke: /metrics has no failover counter" >&2
  exit 1
}

grep -q "slo.burn_rate_milli" "$body" || {
  echo "obs-smoke: /metrics has no SLO burn gauges" >&2
  exit 1
}

fetch "http://$addr/metrics?format=json"
grep -q '"counters"' "$body" || {
  echo "obs-smoke: /metrics?format=json is not a snapshot document" >&2
  exit 1
}
grep -q '"stages"' "$body" || {
  echo "obs-smoke: /metrics?format=json has no stage histograms" >&2
  exit 1
}
# Every gateway /sample is traced, so the stage histograms must hold
# exemplars: the trace-ID join key from a p99 bucket to /traces.
grep -q '"p99_exemplar"' "$body" || {
  echo "obs-smoke: stage histograms carry no trace exemplars:" >&2
  cat "$body" >&2
  exit 1
}
grep -q '"value_ns"' "$body" || {
  echo "obs-smoke: exemplar records missing value/timestamp fields" >&2
  exit 1
}

fetch "http://$addr/traces"
grep -q '"spans"' "$body" || {
  echo "obs-smoke: /traces contains no recorded traces:" >&2
  cat "$body" >&2
  exit 1
}

fetch "http://$addr/slo"
grep -q '"frontend.sample_latency"' "$body" || {
  echo "obs-smoke: /slo does not list the frontend latency objective:" >&2
  cat "$body" >&2
  exit 1
}
grep -q '"burn_rate"' "$body" || {
  echo "obs-smoke: /slo entries carry no burn rate" >&2
  exit 1
}

# The federated cluster view: every worker in the deployment reports
# telemetry, and the per-partition table is populated from it. The
# demo workload can finish before the first telemetry tick fires, so
# poll until federation converges (the demo lingers long enough).
cluster_ok() {
  for worker in sampler-0 sampler-1 server-0 server-1 frontend-0; do
    grep -q "\"$worker\"" "$body" || return 1
  done
  grep -q '"rate_milli"' "$body" || return 1
}
for _ in $(seq 1 150); do
  fetch "http://$addr/cluster"
  if cluster_ok; then break; fi
  sleep 0.2
done
cluster_ok || {
  echo "obs-smoke: /cluster never converged to all workers + partition table:" >&2
  cat "$body" >&2
  exit 1
}

# The collector's worker-count gauges federate into the coordinator's /metrics.
fetch "http://$addr/metrics"
grep -q "cluster.workers" "$body" || {
  echo "obs-smoke: /metrics has no cluster.workers gauge:" >&2
  cat "$body" >&2
  exit 1
}

echo "obs-smoke OK (ops on $addr)"
