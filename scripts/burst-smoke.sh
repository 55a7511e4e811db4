#!/usr/bin/env bash
# burst-smoke: boots the examples/distributed deployment in -burst mode —
# the demo converges, the serve path is slowed with an injected delay, and a
# request storm with a small end-to-end budget hits the gateway. The drill
# must finish with typed refusals only (503 shed / 504 deadline), a nonzero
# shed count and a clean recovery once the storm drains; then /metrics must
# expose the overload total. Run via `make burst-smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

. scripts/example.sh

start_example -burst
# Wait for the full drill: converge, storm, drain, recover.
await_log burst-smoke "burst drill complete" 600
# The completion line carries the drill's own tallies; the storm must have
# shed load for the run to prove anything.
grep -Eq "burst drill complete \(ok=[0-9]+ shed=[1-9][0-9]* deadline=[0-9]+ total_shed=[1-9][0-9]*\)" "$log" || {
  echo "burst-smoke: shed tallies stayed zero:" >&2
  grep "burst drill complete" "$log" >&2
  exit 1
}

addr=$(ops_addr burst-smoke)
curl -sSf --max-time 10 "http://$addr/metrics" >"$body"
val=$(sed -n "s/^overload.shed //p" "$body" | head -1)
if [ -z "$val" ] || [ "$val" = "0" ]; then
  echo "burst-smoke: /metrics overload.shed missing or zero (got '${val}'):" >&2
  grep "^overload" "$body" >&2 || cat "$body" >&2
  exit 1
fi

echo "burst-smoke OK ($(grep 'burst drill complete' "$log"))"
