# Build, test and verification entry points. `make verify` is the
# robustness gate: formatting, vet, docs and reachability, markdown links,
# the no-FMA numeric contract of the assembly kernels, plus every internal/
# package under the race detector — the failure-path packages (cluster
# runtime, transport, chaos proxy, trace) and the two whose whole job is
# concurrent reads during writes (metrics, admin) in full, the rest at -short
# — since the chaos-driven recovery tests only count if they pass with -race.

GO ?= go

.PHONY: build test verify fmt-check docs linkcheck one-loop no-fma loc bench bench-kernels bench-forward bench-fleet bench-split bench-check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt -l prints offending files; any output fails the gate.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# docs fails if any internal package lacks package-level godoc, or if any
# package-level declaration in the non-test files of internal/ has no caller:
# no reference from non-test code or another package's tests, under the
# amd64 or the arm64 file set, and no allowlist entry with its reason
# (cmd/teamnet-doccheck/reach.go).
docs:
	$(GO) run ./cmd/teamnet-doccheck ./internal

# linkcheck fails on broken relative links or anchors in the documentation
# set (external http(s) links are not fetched).
linkcheck:
	$(GO) run ./cmd/teamnet-linkcheck README.md DESIGN.md docs/*.md

# one-loop is the retired-name gate. It fails if a second accept loop, the
# deleted RPC stack, a retired request or reply kind, the headerless control
# client or a per-peer copy of a master setting comes back: the runtime's one
# server loop is cluster.Node's (internal/cluster/server.go); the only other
# code that accepts connections is the chaos proxy's; every exchange on the
# wire is a kind in requestKinds — MsgDo for an inference — under the frame
# header, answered by MsgReply or MsgErrorMux; a peer reads its master's
# tracer, hedge switch and retry budget, whose tuning is constants; and every
# peer link has one supervision scheme — a gateway's masters are a front
# master's peers (internal/cluster/front.go), not a router's targets; and
# each layer kind's inference arithmetic is written once — a layer's Forward
# runs its snapshot step (internal/nn/freeze.go), so no second conv
# rearrangement, bias loop or step FLOP count comes back; and what a round
# trip to a peer costs is one estimate on its peerConn
# (internal/cluster/cost.go) that the front's pick, the hedge timer and the
# split planner all read — no second EWMA, histogram seeding or planner-side
# peer model comes back; and the paper tables' MPI and SG-MoE cells price a
# recorded run of the real runtimes (internal/bench/replay.go), so no hand
# cost formula for those baselines comes back; and the serving stack has one
# live chaos drill (internal/bench/fleet.go), so no second harness, artifact
# or make target beside it comes back; and the pick, the hedge and the split
# planner explore by one rule on the cost estimate's age (costHorizon in
# internal/cluster/cost.go), so no private trial cadence comes back; and the
# tables price the codec's frames — TeamNet's cells replay Master.gather's
# shape at cluster.WireBytes' sizes, as the split sweep prices a tail — so no
# second byte model, TeamNet cost formula or multicast primitive comes back.
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
	@if grep -rnw 'tracerRef\|hedgeRef\|budgetRef\|HedgeConfig\|RetryBudgetConfig' --include=*.go .; then \
		echo "a per-peer settings ref or a retired tuning struct is back (a peer reads its master)"; exit 1; fi
	@if grep -rn 'RemoteMaster\|NewRouter\|routeTarget' --include=*.go .; then \
		echo "a second supervision scheme is back (a gateway's masters are a front master's peers)"; exit 1; fi
	@if grep -rnw 'spatialToNCHW\|addBiasRows\|stepFlops\|stepsFlops' --include=*.go .; then \
		echo "a second copy of an inference expression is back (a layer's Forward runs its snapshot step)"; exit 1; fi
	@if grep -rnw 'noteRTT\|seedSplitPlanner\|SeedPeer\|ObservePeer\|peerModel' --include=*.go .; then \
		echo "a second per-peer cost estimate is back (one peerCost per peer: internal/cluster/cost.go)"; exit 1; fi
	@if grep -rnw 'MPIMatrixCost\|MPIKernelCost\|MPIBranchCost\|SGMoECost' --include=*.go .; then \
		echo "a hand cost formula for an MPI or SG-MoE baseline is back (the tables price a recorded run: internal/bench/replay.go)"; exit 1; fi
	@if grep -rn 'RunSoak\|SoakConfig\|SoakReport\|BENCH_soak\|bench-soak' --include=*.go . || \
		grep -n '^bench-soak:' Makefile || ls BENCH_soak.json 2>/dev/null; then \
		echo "a second live harness is back (one chaos drill: internal/bench/fleet.go)"; exit 1; fi
	@if grep -rnw 'errTrial\|hedgeColdAfter\|hedgeTrialEvery\|ProbeEvery\|benched\|unwon' --include=*.go .; then \
		echo "a second exploration rule is back (one rule on a peer's cost estimate: internal/cluster/cost.go)"; exit 1; fi
	@if grep -rnw 'TeamNetCost\|tensorWireBytes\|tensor64WireBytes\|resultWireBytes\|entropyWireBytes\|splitRequestWireBytes\|splitResultWireBytes\|Multicast' --include=*.go .; then \
		echo "a second byte model is back (the tables price the codec's frames: cluster.WireBytes, internal/bench/replay.go)"; exit 1; fi

# no-fma is the numeric contract's gate. Every SIMD kernel in internal/tensor
# keeps multiply and add as separate, separately rounded instructions, so its
# output is bit-identical to the portable Go loops and to Im2Col × W; a fused
# multiply-add in the assembly would round once where they round twice.
no-fma:
	@if grep -nE 'VFN?MADD|VFN?MSUB' internal/tensor/*.s; then \
		echo "fused multiply-add in the tensor assembly (the kernels multiply and add separately)"; exit 1; fi

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
# geometry table in three legs — the zmm tile, the ymm tile with the
# AVX-512 gate forced off, the portable tile with both gates off —
# FuzzConvDirect's seed corpus under the same legs,
# TestConvDirectIgnoresDirtyScratch — the border-only pad on NaN-filled
# scratch — and TestReLUIntoBitPatterns; kernels_test.go:
# TestAffineIntoBitPatterns, TestMaxPoolIntoBitPatterns and
# TestMixHalvesIntoBitPatterns, the batch-norm, max-pool and shake-mix kernels
# against their scalar expressions on NaN, ±0, ±Inf and subnormals, each with
# the machine's kernels and with SIMD off; Linux only,
# conv_guard_linux_test.go: TestConvDirectStaysInsideItsSlices and
# TestStepKernelsStayInsideTheirSlices run the bounds-check-free assembly
# against unmapped guard pages) with internal/nn's
# TestSnapshotBitMatchesNetwork (the zoo and SS-14 at 3×32×32, snapshot and
# network held to the network on the portable loops) and
# TestConv2DTrainForwardMatchesIm2Col (the training conv held to
# Im2Col × W + b), each with the zmm tiles, with the ymm tiles and with
# every assembly kernel off, and the
# registry tests that scrape while writers observe (internal/metrics
# TestRegistryConcurrentAccess, TestWritePrometheusConsistentUnderLoad;
# internal/admin serves the same registries over HTTP). Then the
# pooled-buffer hammer (internal/cluster pool_test.go: TestPooledBufferHammer —
# eight goroutines pipelining MsgDo under three policies — whole queries,
# split tails, ensemble requests — with malformed tensors and spent budgets
# on one connection while the server
# loop recycles its frame buffers and input tensors) 20 more times under the
# race detector. The last line races every other internal/ package at
# -short: the live benchmark harnesses (the fleet drill, forward) at smoke
# size and the open-loop generator's own tests (internal/bench load_test.go:
# TestLoadOfferedIsOpenLoop, TestLoadOutcomeClasses, TestLoadBuckets — fake
# calls, no sockets), the in-process MPI worlds (internal/mpi: every rank on
# its own network copy), and core, moe, edgesim, dataset, cli and plot — so
# no internal/ package goes unraced.
verify: fmt-check docs linkcheck one-loop no-fma
	$(GO) vet ./...
	$(GO) test -short ./...
	$(GO) test -race -count=1 ./internal/cluster/... ./internal/transport/... ./internal/chaos/... ./internal/trace/... ./internal/serve/... ./internal/nn/... ./internal/tensor/... ./internal/split/... ./internal/metrics/... ./internal/admin/...
	$(GO) test -race -run TestPooledBufferHammer -count=20 ./internal/cluster
	$(GO) test -race -short -count=1 ./internal/bench/... ./internal/mpi/... ./internal/core/... ./internal/moe/... ./internal/edgesim/... ./internal/dataset/... ./internal/cli/... ./internal/plot/...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# The compute kernels against this machine's measured ceiling: the
# register-only no-FMA multiply/add peak at ymm and at zmm width, the zmm
# and ymm direct-convolution tiles at SS-14's three stage shapes (each also
# as a share of its own width's peak), and the SS-14 snapshot on 3×32×32 at 1 and 16
# rows, each reporting GFLOP/s, at one and two cores; then one SS-14 row
# attributed to its step kinds (BenchmarkForwardSS14Steps: ns per row in
# the stem's conv, batch norm and ReLU, the shake-shake blocks, max pool,
# pooling and dense, and the row's arena high-water mark); then one
# SS-14 training step on 32 rows at one core (BenchmarkTrainStepSS14:
# forward and backward ms per row, each as a share of the peak)
# (docs/BENCHMARKS.md).
bench-kernels:
	$(GO) test -run '^$$' -bench 'PeakMulAdd|ConvTile' -cpu 1,2 ./internal/tensor
	$(GO) test -run '^$$' -bench 'ForwardSS14' -cpu 1,2 ./internal/nn
	$(GO) test -run '^$$' -bench 'TrainStepSS14' -benchtime 3x -cpu 1 ./internal/nn

# Forward passes against the machine's peak: every zoo model's frozen
# inference Snapshot and its training step (forward + backward on the
# Network) at the gateway's 16-row batch; the artifact records each rate as
# GFLOP/s and as a share of the no-FMA multiply/add peak measured in the same
# run, and pins the snapshot's zero-alloc steady state (DESIGN.md §10). It
# fails on a machine with no measurable peak.
bench-forward:
	$(GO) run ./cmd/teamnet-bench -forward -forward-duration 1s -out BENCH_forward.json

# The chaos drill: gateway/master pairs at 1, 2 and 4 under a fixed per-pair
# Poisson rate of rows no cache has seen, masters discovered via announce
# gossip, and one timeline per scale in five acts — healthy, one worker link
# stalled at t/5, a second worker's link reset at 2t/5, every link healed at
# 3t/5, a wire hot-swap at 4t/5 (weights pushed to workers, then masters,
# gateway cutover last) — read in ten intervals. Exits non-zero under 3x
# aggregate goodput scaling, on any hard-failed request, stale-version cache
# entry or version split after cutover, on any interval with zero goodput, or
# if a scale's final-interval p99 has not come back within 2x its healthy
# baseline + 5 ms (DESIGN.md §12, docs/OPERATIONS.md). Run on the reference
# host before committing the artifact.
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
# configurations and fails on >20% goodput loss, a >20% fall in a model's
# snapshot or training-step share of the machine peak, a fleet scaling
# collapse, any hot-swap failure, stale entry or version split, any drill
# interval with zero goodput or unrecovered tail, any snapshot forward
# allocation, or a split-plan drift. The fleet re-runs the committed window,
# so each drill interval holds enough requests that one host hiccup is not
# its p99. End-to-end serving speed is judged by BENCHMARK.json
# (go run ./benchmark), not by this gate.
bench-check:
	$(GO) run ./cmd/teamnet-bench -check

clean:
	$(GO) clean ./...
