#!/usr/bin/env bash
# chaos-smoke: boots the examples/distributed deployment in -chaos
# -failover mode — the demo converges, the broker's RPC endpoint is killed
# and restarted on the same port, the pipeline must reconverge, and then a
# partition leader is killed outright: the coordinator must promote a
# follower, every quorum-acked record must survive (the drill asserts the
# exact K-hop sample set), and ingest must keep working on the promoted
# leader. Finally scrapes /metrics and asserts the self-healing transport
# and the failover controller actually fired. Run via `make chaos-smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

. scripts/example.sh

start_example -chaos -failover
# Wait for the full cycle: converge, endpoint kill/restart, reconverge,
# then the leader-kill failover drill (which runs after the chaos phase).
await_log chaos-smoke "failover drill complete" 600
grep -q "chaos reconvergence complete" "$log" || {
  echo "chaos-smoke: pipeline never reconverged:" >&2
  cat "$log" >&2
  exit 1
}
# The completion line carries the transport's own counters; both paths must
# have fired for the run to prove anything.
grep -Eq "chaos reconvergence complete \(reconnects=[1-9][0-9]* retries=[1-9][0-9]*\)" "$log" || {
  echo "chaos-smoke: reconnect/retry counters stayed zero:" >&2
  grep "chaos reconvergence complete" "$log" >&2
  exit 1
}

# The failover drill proves zero lost acked records: it kills the leader of
# the seed's updates partition after a quorum-acked write, waits for the
# coordinator to promote a follower, and asserts the exact K-hop sample set
# (every acked edge, nothing stale) plus post-failover ingest liveness. The
# completion line carries the promotion count from the mq.failovers counter.
grep -Eq "failover drill complete \(lost_acked=0 failovers=[1-9][0-9]*\)" "$log" || {
  echo "chaos-smoke: failover drill lost records or never promoted:" >&2
  grep "failover" "$log" >&2 || cat "$log" >&2
  exit 1
}

addr=$(ops_addr chaos-smoke)
curl -sSf --max-time 10 "http://$addr/metrics" >"$body"
for metric in rpc.reconnects rpc.retries mq.failovers; do
  val=$(sed -n "s/^${metric} //p" "$body" | head -1)
  if [ -z "$val" ] || [ "$val" = "0" ]; then
    echo "chaos-smoke: /metrics ${metric} missing or zero (got '${val}'):" >&2
    grep -E "^(rpc|mq)" "$body" >&2 || cat "$body" >&2
    exit 1
  fi
done

echo "chaos-smoke OK ($(grep 'chaos reconvergence complete' "$log"))"
