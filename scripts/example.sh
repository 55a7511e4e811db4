# example.sh: what the smoke scripts share, sourced after `cd` to the repo
# root. It builds examples/distributed into a temp dir and runs the binary
# itself, so $pid is the example and not a `go run` wrapper whose child
# would outlive a kill; on exit, cleanup stops the example, waits for it,
# and removes the temp dir.
#
#   start_example FLAG...      build and start the example with the smoke
#                              flags (ops listener, 60 s linger, fast
#                              telemetry, flight dir) plus FLAG...
#   await_log NAME TEXT POLLS  wait up to POLLS × 0.2 s for TEXT in $log;
#                              fail, naming NAME, if the example exits first
#   ops_addr NAME              print the example's ops listener address
#
# CI sets HELIOS_FLIGHT_DIR so flight-recorder captures survive a failed run
# as an uploadable artifact; otherwise they go in the temp dir.

tmp=$(mktemp -d)
log="$tmp/log"
body="$tmp/body"
flightdir=${HELIOS_FLIGHT_DIR:-$tmp/flight}
mkdir -p "$flightdir"
pid=""
cleanup() {
  if [ -n "$pid" ]; then
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

start_example() {
  go build -o "$tmp/distributed" ./examples/distributed
  "$tmp/distributed" "$@" -ops-addr 127.0.0.1:0 -linger 60s \
    -telemetry-every 250ms -flight-dir "$flightdir" >"$log" 2>&1 &
  pid=$!
}

await_log() {
  local _
  for _ in $(seq 1 "$3"); do
    grep -q "$2" "$log" && return 0
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "$1: example exited before printing '$2':" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "$1: example never printed '$2':" >&2
  cat "$log" >&2
  exit 1
}

ops_addr() {
  local addr
  addr=$(sed -n 's/^ops listening on //p' "$log" | head -1)
  [ -n "$addr" ] || { echo "$1: no ops listener address in log" >&2; cat "$log" >&2; exit 1; }
  echo "$addr"
}
