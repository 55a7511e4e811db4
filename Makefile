GO ?= go

# Minimization of each fuzz input that finds new coverage is capped at 100
# runs: uncapped (60 s each by default) it stalls a 10 s fuzz line at 0
# execs/s. A failing input is still minimized as far as the cap allows and
# written under testdata/fuzz.
FUZZMIN = -fuzzminimizetime 100x

.PHONY: build vet lint test race check

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

# The tier-1 gate: every PR must leave this green.
check:
	# Formatting first: any file gofmt would rewrite fails the gate.
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./cmd/helios-lint ./...
	$(GO) test -race -count=1 ./...
	# Ten seconds of native fuzzing over every reader of the sampling
	# result's wire form: the bytes a frontend takes off a socket.
	$(GO) test ./internal/serving -run '^$$' -fuzz FuzzEncodedResult -fuzztime 10s $(FUZZMIN)
	# And ten over the snapshot decoder: the image a restarting serving
	# worker reads off its disk.
	$(GO) test ./internal/serving -run '^$$' -fuzz FuzzRestore -fuzztime 10s $(FUZZMIN)
	# And ten over the checkpoint decoder: what a restarting sampler reads
	# off its disk.
	$(GO) test ./internal/sampler -run '^$$' -fuzz FuzzRestoreCheckpoint -fuzztime 10s $(FUZZMIN)
	# And ten over the telemetry decoder: the JSON documents a worker sends
	# the broker's collector.
	$(GO) test ./internal/monitor -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime 10s $(FUZZMIN)
	# And ten over the queue-message decoders: every record a sampler or a
	# serving worker polls off the broker.
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzWireDecode -fuzztime 10s $(FUZZMIN)
	# And ten over the update decoder: every helios.updates record a
	# sampler polls off the broker.
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzDecodeUpdate -fuzztime 10s $(FUZZMIN)
	# Ten each over what both ends of a broker hop take off a socket: the
	# frame reader, the consumer's pushed-batch decoder, and the broker's
	# append-batch decoder.
	$(GO) test ./internal/rpc -run '^$$' -fuzz FuzzFrame -fuzztime 10s $(FUZZMIN)
	$(GO) test ./internal/mq -run '^$$' -fuzz FuzzFetchBatch -fuzztime 10s $(FUZZMIN)
	$(GO) test ./internal/mq -run '^$$' -fuzz FuzzAppendBatch -fuzztime 10s $(FUZZMIN)
	# And ten over segment replay: what a restarting broker reads off its
	# disk.
	$(GO) test ./internal/mq -run '^$$' -fuzz FuzzSegmentReplay -fuzztime 10s $(FUZZMIN)
	# And ten over the partition-map decoder: what a client takes off the
	# coordinator's socket, and a broker off a map push.
	$(GO) test ./internal/mq -run '^$$' -fuzz FuzzPartMap -fuzztime 10s $(FUZZMIN)
	# And ten over the model server's request path: the sample bytes it
	# takes off a socket, decoded, built into a tree and embedded.
	$(GO) test ./internal/gnn -run '^$$' -fuzz FuzzEmbedRequest -fuzztime 10s $(FUZZMIN)
	# And ten over the kvstore's run reader: what a hybrid-mode serving
	# worker reopens off its disk.
	$(GO) test ./internal/kvstore -run '^$$' -fuzz FuzzOpenRun -fuzztime 10s $(FUZZMIN)
	# The kvstore read-during-flush hole failed about one run in two when
	# it was open; twenty runs make a reopening loud.
	$(GO) test -race -count=20 -run 'TestConcurrentReadWrite|TestGetNeverMissesAcrossFlush' ./internal/kvstore
	# The actor mailbox is hand-rolled synchronisation: twenty runs of its
	# tests, the seeded model test among them.
	$(GO) test -race -count=20 ./internal/actor
	# Shutdown of a replica set with its followers gone: ten runs hold the
	# Close bound, so a wait that no stop reaches fails loudly.
	$(GO) test -race -count=10 -run TestCloseDrainsInFlightRequests ./internal/cluster
	# One pass of the benchmark that sizes serving admission: 16 callers
	# open-loop past a worker's capacity, through admission, the serve
	# actors and their shutdown.
	$(GO) test ./internal/serving -run '^$$' -bench ServeUnderShed -benchtime 1x
