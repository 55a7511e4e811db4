GO ?= go

.PHONY: build vet lint test race check obs-smoke chaos-smoke burst-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (see DESIGN.md "Static analysis &
# concurrency invariants"). Exits non-zero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/helios-lint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Boots examples/distributed with an ops listener and asserts /metrics and
# /traces come back non-empty (see scripts/obs-smoke.sh).
obs-smoke:
	bash scripts/obs-smoke.sh

# Kills and restarts the broker endpoint under examples/distributed -chaos
# and asserts the pipeline reconverges with nonzero reconnect/retry
# counters (see scripts/chaos-smoke.sh).
chaos-smoke:
	bash scripts/chaos-smoke.sh

# Slows the serve path and storms examples/distributed -burst with a small
# end-to-end budget; asserts typed sheds, degraded answers and recovery
# (see scripts/burst-smoke.sh).
burst-smoke:
	bash scripts/burst-smoke.sh

# The tier-1 gate: every PR must leave this green.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./cmd/helios-lint ./...
	$(GO) test -race -count=1 ./...
	# Ten seconds of native fuzzing over every reader of the sampling
	# result's wire form: the bytes a frontend takes off a socket.
	$(GO) test ./internal/serving -run '^$$' -fuzz FuzzEncodedResult -fuzztime 10s
	# And ten over the snapshot decoder: the image a restarting serving
	# worker reads off its disk.
	$(GO) test ./internal/serving -run '^$$' -fuzz FuzzRestore -fuzztime 10s
	# And ten over the telemetry decoder: the frames a worker sends the
	# broker's collector.
	$(GO) test ./internal/monitor -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime 10s
	# Ten each over what both ends of a broker hop take off a socket: the
	# frame reader, and the consumer's pushed-batch decoder.
	$(GO) test ./internal/rpc -run '^$$' -fuzz FuzzFrame -fuzztime 10s
	$(GO) test ./internal/mq -run '^$$' -fuzz FuzzFetchBatch -fuzztime 10s
	# And ten over segment replay: what a restarting broker reads off its
	# disk.
	$(GO) test ./internal/mq -run '^$$' -fuzz FuzzSegmentReplay -fuzztime 10s
	# And ten over the partition-map decoder: what a client takes off the
	# coordinator's socket, and a broker off a map push.
	$(GO) test ./internal/mq -run '^$$' -fuzz FuzzPartMap -fuzztime 10s
	# The kvstore read-during-flush hole failed about one run in two when
	# it was open; twenty runs make a reopening loud.
	$(GO) test -race -count=20 -run 'TestConcurrentReadWrite|TestGetNeverMissesAcrossFlush' ./internal/kvstore
	# The actor mailbox is hand-rolled synchronisation: twenty runs of its
	# tests, the seeded model test among them.
	$(GO) test -race -count=20 ./internal/actor
