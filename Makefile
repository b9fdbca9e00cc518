# Storage Tank reproduction — build and verification entry points.

GO ?= go
TANKLINT ?= bin/tanklint

.PHONY: all build test race vet lint verify bench bench-gate experiments loc clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# lint builds tanklint (cmd/tanklint) and runs its five protocol-
# invariant passes — clockhygiene, locksafety, ackdurable (disk acks,
# the server's commit-before-send, and one fsync site for the whole
# tree: blockstore's (*Syncer).fsync), traceexhaustive, bufown — over the
# whole module with `tanklint ./...`. Exemptions need
# a visible //lint:allow pass(reason) directive; `tanklint help <pass>`
# lists the tree's current exemptions. First, any file gofmt would
# rewrite fails the target by name. CI's lint job runs this target.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) build -o $(TANKLINT) ./cmd/tanklint
	$(TANKLINT) ./...

# verify is the pre-merge gate: everything must compile, pass vet and
# tanklint, and run the full suite (including the live-TCP chaos tests
# and the kill -9 crash-restart durability harness, scalar and
# vectored) race-clean, plus the shard-scaling smoke tier (64 clients,
# 2 authorities must clear 1.3x one) and the replica chaos harness —
# SIGKILL the active lease authority mid-traffic, assert the bounded
# takeover and Theorem 3.1 across the boundary from the JSONL traces —
# explicitly and race-clean; its active dies with half a record at the
# tail of the metadata journal, and the journal's own crash suite
# (replay = live over 1000 seeded histories, torn tail at every byte and
# bit, both checkpoint crash windows, a deposed writer), the block
# allocator held to a bitmap and the page cache to a model LRU over
# 20 000 seeded histories each, and the restart
# of an unreplicated journalled server run beside it, and the name cache's
# two live tests — two clients churning one directory with every reply
# checked against a model, and the clean exit that strands no lock — and
# a two-authority node's ClientNode.Sync sending each path, handle and
# inode to the authority that owns it, and two authorities started as
# tankd starts them, where one's steal must fence the other's disk too,
# and the executor's own stress tests: many goroutines mixing Do and Submit on
# one executor, mutual exclusion and per-producer order checked by plain
# variables the race detector watches, and producers that take the token
# a hit runs under (Enter) only once their own task has run, ten times
# over each — and the send
# path's, ten times over too: a peer that stops reading must not block a
# Send, frames to one peer arrive once and in order across inline and
# queued writes, two read loops sending into each other's full sockets
# both finish, injected latency delays frames without a goroutine
# each, and frames queued behind a dial survive the peer's own
# connection replacing it — and the receive path's, ten times over: frames
# split, bursting and spanning reads arrive whole, a close behind the last
# frame is seen, and Close from inside a handler ends the read loop
# instead of waiting for it. The suite then runs once more under
# -tags tankdebug, where bufpool.Put poisons released buffers (0xDB),
# and so does the wire codec the bytes of every frame it decoded in its
# connection buffer, double-Put panics with the first Put's stack and an
# Envelope.Release past its borrow panics: dynamic cross-validation of
# bufown's three rules, which the static pass proves per path, and of
# the derived table of frames that alias nothing. The same build poisons
# what the cache and the tables of retransmitted requests park for
# reuse — a page header, an object record, a call entry — so that a
# holder that kept one past its removal panics on its next use. Last, ten seconds each
# of fuzzing the wire decoder and the codec's frame parser (frames cut at
# chosen read boundaries, straddling reads and outgrowing the buffer),
# both seeded from every type's golden frame: the one piece of the tree
# that parses bytes a peer chose; the parser's seeds also hold a page
# frame's head that declares MaxFrame bytes. Its minimization is held to
# a second: its candidates often declare frames of megabytes, whose
# bodies the codec once allocated on the head alone (its buffer now grows
# only as bytes arrive), and left at the default minute, minimizing one
# input took the whole ten seconds.
verify: lint
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run 'TestCrashRestart' ./internal/rpcnet/
	$(GO) test -race -count=1 -run 'TestJournal|TestCheckpointCrashWindows|TestDeposedWriter' ./internal/meta/
	$(GO) test -count=1 -run 'TestAllocatorAgainstBitmap' ./internal/meta/ -allocseeds=20000
	$(GO) test -count=1 -run 'TestCacheModelProperty' ./internal/cache/ -cacheseeds=20000
	$(GO) test -race -count=1 -run 'TestUnreplicatedServerRecoversMetadata' ./internal/rpcnet/
	$(GO) test -race -count=1 -run 'TestShardScaleSmoke' ./internal/shard/
	$(GO) test -race -count=1 -run 'TestLiveReplicaFailoverSIGKILL' ./internal/rpcnet/
	$(GO) test -race -count=1 -run 'TestLiveSharedDirectoryChurn|TestCleanExitReleasesLocks|TestLiveSyncClientRoutesByPath|TestLiveShardFencesEveryDisk' ./internal/rpcnet/
	$(GO) test -race -count=10 -run 'TestExecutorSerialUnderDo|TestEnterNeverOvertakesTheQueue' ./internal/rpcnet/
	$(GO) test -race -count=10 -run 'TestSendNeverBlocksTheCaller|TestSendKeepsPeerOrder|TestReadLoopsCannotDeadlock|TestInjectedLatencyStillDelays|TestInboundConnectionTakesQueuedFrames|TestHandlerDropsItsOwnLink' ./internal/rpcnet/
	$(GO) test -race -count=10 -run 'TestServeFraming|TestServeSeesACloseBehindTheLastFrame|TestCloseWhileServing' ./internal/wire/
	$(GO) test -race -tags tankdebug ./...
	$(GO) test -run=NONE -fuzz=FuzzDecodeBinary -fuzztime=10s ./internal/msg/
	$(GO) test -run=NONE -fuzz=FuzzCodecFrames -fuzztime=10s -fuzzminimizetime=1s ./internal/wire/

# bench runs every benchmark with allocation stats and renders the
# results as BENCH_tier1.json (op/s and ns/op per benchmark; see
# cmd/benchjson).
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson -o BENCH_tier1.json

# bench-gate regenerates BENCH_tier1.json AND fails (exit 1) if any
# benchmark's allocs/op or B/op regressed more than 5% against the
# checked-in baseline — the alloc regression gate for the zero-copy
# wire codec. (B/op is not gated where it is noise: the fsync-bound rows
# and MetaCommit/100k, see cmd/benchjson.) One benchmark
# run feeds both: the old report is snapshot to bin/ first, then compared
# against the fresh numbers. The run is also appended to
# BENCH_history.jsonl, one line keyed by the commit it measured, so the
# trajectory survives the overwrite.
bench-gate:
	@mkdir -p bin
	cp BENCH_tier1.json bin/bench_baseline.json
	$(GO) test -run=NONE -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson -o BENCH_tier1.json -compare bin/bench_baseline.json -history BENCH_history.jsonl

# Regenerate the paper's figures and tables (see EXPERIMENTS.md). RUN
# narrows it: CI runs `make experiments RUN=F3`, one cheap experiment
# through this same command line, so that a flag simulate no longer has
# fails there and not the next time someone needs the tables (`-all` was
# not a flag for five PRs).
RUN ?= all
experiments:
	$(GO) run ./cmd/simulate -run $(RUN)

# loc prints the non-test Go lines of each package (a directory's .go
# files, _test.go files and testdata/ left out) and their total: the
# count a change reports as lines added and removed, before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.git/*' | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

clean:
	$(GO) clean ./...
	rm -f bin/tanklint
