# Build, test and verification entry points. `make verify` is the
# robustness gate: formatting, vet, docs, plus the failure-path packages
# (cluster runtime, transport, chaos proxy, trace) and the two packages whose
# whole job is concurrent reads during writes (metrics, admin) under the race
# detector — the chaos-driven recovery tests only count if they pass with
# -race.

GO ?= go

.PHONY: build test verify fmt-check docs linkcheck one-loop loc bench bench-kernels bench-soak bench-forward bench-fleet bench-split bench-check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt -l prints offending files; any output fails the gate.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# docs fails if any internal package lacks package-level godoc.
docs:
	$(GO) run ./cmd/teamnet-doccheck ./internal

# linkcheck fails on broken relative links or anchors in the documentation
# set (external http(s) links are not fetched).
linkcheck:
	$(GO) run ./cmd/teamnet-linkcheck README.md DESIGN.md docs/*.md

# one-loop fails if a second accept loop, the deleted RPC stack, a retired
# request or reply kind or the headerless control client comes back: the
# runtime's one server loop is cluster.Node's (internal/cluster/server.go);
# the only other code that accepts connections is the chaos proxy's; every
# exchange on the wire is a kind in requestKinds — MsgDo for an inference —
# under the frame header, answered by MsgReply or MsgErrorMux.
one-loop:
	@got=$$(grep -rln 'func .*acceptLoop' --include=*.go internal cmd | sort | tr '\n' ' '); \
	if [ "$$got" != "internal/chaos/chaos.go internal/cluster/server.go " ]; then \
		echo "accept loops in: $$got(want internal/chaos/chaos.go and internal/cluster/server.go only)"; exit 1; fi
	@got=$$(grep -rln --include=*.go --exclude=*_test.go '\.Accept()' . | sort | tr '\n' ' '); \
	if [ "$$got" != "./internal/chaos/chaos.go ./internal/cluster/server.go " ]; then \
		echo ".Accept() in: $$got(want internal/chaos/chaos.go and internal/cluster/server.go only)"; exit 1; fi
	@if grep -rn 'RPCServer\|RPCClient\|DialRPC' --include=*.go .; then \
		echo "the second RPC stack is back"; exit 1; fi
	@if grep -rnw 'MsgPredictMux\|MsgSplitPredict\|MsgFabricPredict\|MsgResultMux\|MsgSplitResult\|MsgFabricResult\|PredictResult\|ConnectTCP' --include=*.go .; then \
		echo "a retired request kind or accept path is back (one request on the wire: MsgDo)"; exit 1; fi
	@if grep -rnw 'controlCall\|controlDial\|MsgPong\|MsgElectionOK\|MsgAnnounceOK\|MsgModelPushOK' --include=*.go .; then \
		echo "the headerless control protocol is back (every exchange is a kind in requestKinds)"; exit 1; fi

# loc prints the non-test Go lines of every internal/ package and their
# total — the tracked number of ROADMAP aim 2 (same behaviour, least code) —
# and the cmd/ total under it, so code moved across that line (a cmd main's
# helper into internal/, or back) does not read as a deletion.
loc:
	@for d in internal/*/; do \
		printf '%6d %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; done
	@for d in internal cmd; do \
		printf '%6d %s/ total\n' $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; done

# The short run keeps the full-suite half fast while still executing the
# transport fuzz seed corpora (wired into Test* functions) and every unit
# test; the race half hammers the self-healing runtime — and, none of them
# -short-skipped, the gateway's batcher tests (internal/serve
# batcher_test.go), the one-write frame tests with ReadFrame's allocation
# bound (internal/transport frame_test.go), the frame-header table and
# FuzzDecodeHeader's seed corpus (internal/cluster header_test.go), the mux
# write-coalescing and golden wire-bytes tests (wire_test.go), the
# server-loop conformance table run against Node — header verdicts, expired
# budget, version pin, refused model push and the mis-shaped tensor included
# (server_test.go) — the one-Model-per-node tests (model_test.go:
# TestServeRequestChecksAndServesOneModel, TestSwapVsPinHammer,
# TestPushedMasterPinsSplitTailsToTheNewLabel, TestPublishIsOneStore; the
# short half also runs cmd/teamnet-serve TestCutoverSwapsWeightsOnASingleNode
# and internal/cli TestBundleLabelsAgreeAcrossBinaries) — the MsgDo codec's
# seed corpora (codec_test.go: TestDecodeSplitRequestSeedCorpus,
# TestDecodeRequestSeedCorpus, TestDecodeSplitResultSeedCorpus,
# TestDecodeResultSeedCorpus, which hold the hostile replies of
# hostile_test.go), the direct-convolution kernel tests
# (internal/tensor conv_test.go: TestConvDirectMatchesReference over the
# geometry table with the AVX tile and with the SIMD gate forced off,
# FuzzConvDirect's seed corpus, TestReLUIntoBitPatterns; Linux only,
# conv_guard_linux_test.go: TestConvDirectStaysInsideItsSlices runs the
# bounds-check-free assembly against unmapped guard pages) with
# internal/nn's TestSnapshotBitMatchesNetwork on SS-14 at 3×32×32, and the
# registry tests that scrape while writers observe (internal/metrics
# TestRegistryConcurrentAccess, TestWritePrometheusConsistentUnderLoad;
# internal/admin serves the same registries over HTTP). Then the
# pooled-buffer hammer (internal/cluster pool_test.go: TestPooledBufferHammer —
# eight goroutines pipelining MsgDo under three policies — whole queries,
# split tails, ensemble requests — with malformed tensors and spent budgets
# on one connection while the server
# loop recycles its frame buffers and input tensors) 20 more times under the
# race detector. The last line races the live benchmark harnesses (soak,
# fleet, forward) at smoke size and the open-loop generator's own tests
# (internal/bench load_test.go: TestLoadOfferedIsOpenLoop,
# TestLoadOutcomeClasses, TestLoadBuckets — fake calls, no sockets).
verify: fmt-check docs one-loop
	$(GO) vet ./...
	$(GO) test -short ./...
	$(GO) test -race -count=1 ./internal/cluster/... ./internal/transport/... ./internal/chaos/... ./internal/trace/... ./internal/serve/... ./internal/nn/... ./internal/tensor/... ./internal/split/... ./internal/metrics/... ./internal/admin/...
	$(GO) test -race -run TestPooledBufferHammer -count=20 ./internal/cluster
	$(GO) test -race -short -count=1 ./internal/bench/...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# The compute kernels against this machine's measured ceiling: the
# register-only no-FMA multiply/add peak, the direct-convolution tile at
# SS-14's three stage shapes, and the SS-14 snapshot on 3×32×32 at 1 and 16
# rows, each reporting GFLOP/s, at one and two cores (docs/BENCHMARKS.md).
bench-kernels:
	$(GO) test -run '^$$' -bench 'PeakMulAdd|ConvTile' -cpu 1,2 ./internal/tensor
	$(GO) test -run '^$$' -bench 'ForwardSS14' -cpu 1,2 ./internal/nn

# Batch forward-pass comparison: every zoo model through the training
# Network vs the frozen inference Snapshot at the gateway's 16-row batch;
# the artifact records rows/sec per engine and pins the snapshot's
# zero-alloc steady state (DESIGN.md §10).
bench-forward:
	$(GO) run ./cmd/teamnet-bench -forward -out BENCH_forward.json

# Chaos soak: minutes of Poisson load through the full gateway stack while a
# scripted fault timeline stalls, resets and heals workers (stall at t/4,
# reset at t/2, heal at 3t/4). Exits non-zero if any interval records zero
# goodput or tail latency never recovers after the heal (docs/OPERATIONS.md).
bench-soak:
	$(GO) run ./cmd/teamnet-bench -soak -soak-duration 2m -out BENCH_soak.json

# Fleet scaling + hot-swap: gateway/master pairs at 1, 2 and 4 under a fixed
# per-pair Poisson rate, masters discovered via announce gossip, one worker
# link stalled and healed mid-run, and a scripted wire hot-swap at 3t/4
# (weights pushed to workers, then masters, gateway cutover last). Exits
# non-zero under 3x aggregate goodput scaling, on any hard-failed request,
# or on any stale-version cache entry after cutover (DESIGN.md §12). Run on
# the reference host before committing the artifact.
bench-fleet:
	$(GO) run ./cmd/teamnet-bench -fleet -out BENCH_fleet.json

# Partial-offload planning sweep: the split planner against exact edgesim
# cost models across three link profiles (campus WiFi, congested uplink,
# LoRa-class trickle). Deterministic and analytic — milliseconds, no wall
# clock. Exits non-zero if the auto plan fails to walk through >= 3 distinct
# split points or loses to a static endpoint past the 5% floor (DESIGN.md
# §13).
bench-split:
	$(GO) run ./cmd/teamnet-bench -split -out BENCH_split.json

# Regression gate: re-runs the fleet, split and forward benchmarks with the
# committed BENCH_fleet.json, BENCH_split.json and BENCH_forward.json
# configurations and fails on >20% goodput or rows-per-sec loss, a fleet
# scaling collapse, any hot-swap failure or stale entry, any snapshot
# forward allocation, or a split-plan drift. A shorter re-run window keeps
# the fleet CI-sized. End-to-end serving speed is judged by BENCHMARK.json
# (go run ./benchmark), not by this gate.
bench-check:
	$(GO) run ./cmd/teamnet-bench -check -check-duration 2s

clean:
	$(GO) clean ./...
