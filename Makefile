# OmniWindow-Go developer targets. Pure stdlib: no tool dependencies
# beyond the Go toolchain.

GO ?= go

.PHONY: all build test race fuzz examples \
	reproduce fmt vet clean ci fmt-check fuzz-smoke bench-smoke chaos \
	failover rdma-chaos disk-chaos partition-chaos \
	staticcheck cover nightly microbench loc

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# The race run includes the columnar table's differential against the old
# map table (TestTableDifferential, internal/controller) at 1, 3 and 8
# shards: every finish worker folds, merges, scans and retires its own
# table while the model is driven beside it, and its bulk op ingests the
# sub-window that finishes next in 128-record batches, so folds ahead
# insert into the tables while ingest appends and the cut is read between
# batches (the fold-ahead differential; TestFoldAhead* hold its guards).
# It also runs every chaos suite below in full; those targets are local
# focus commands that select one suite by test-name pattern.
race:
	$(GO) test -race ./...

# ci mirrors .github/workflows/ci.yml one-to-one so the same gates run
# locally; this list and the workflow's job list are the two places the
# gate set is enumerated — change both together:
#
#	build vet fmt-check  ↔ job "build"
#	test                 ↔ job "test"
#	race                 ↔ job "race" (every chaos suite included)
#	staticcheck          ↔ job "staticcheck" (CI installs the binary)
#	cover                ↔ job "coverage"
#	fuzz-smoke bench-smoke examples ↔ job "smoke"
#	nightly              ↔ .github/workflows/nightly.yml (scheduled)
#	chaos failover rdma-chaos disk-chaos partition-chaos,
#	loc                  ↔ none: local focus commands and line counts
ci: build vet fmt-check test race staticcheck cover fuzz-smoke bench-smoke examples

# Chaos suite: the full pipeline under seeded drop/dup/reorder/corruption
# schedules, run with the race detector — in process (the root package) and
# over loopback UDP through the example's collector (TestChaosUDP*,
# examples/udpcollector). Fixed seeds (1, 2, 3 in the test
# tables) make every schedule a reproducible test case. CollectBatch is
# TestCollectBatchFlushPoints: its faults, failover and wal subtests hold
# the boundary's delivery batch under this suite, failover and disk-chaos.
# AFRPort is TestAFRPortRecordsLiveOnlyForTheCall: records the engine hands
# its AFR port are overwritten after each call, under a drop/duplicate
# schedule, and every arm's windows and Stats must not move. Spill|Spike
# select the tests that hold the other records the pipeline pass hands
# the controller directly — spilled keys (TestSpilledKey*,
# TestStaleCollectDropsSpilledKeys) and latency spikes
# (TestSpikesSurviveCrash, TestPartitionFailoverKeepsSpikes,
# TestNetworkWideSpikeHandling). ScrapeMatchesStats is
# TestScrapeMatchesStats: after a packet run (AFR drop/dup, a durable
# store, a partitioned standby pair) and an RDMA run (verb faults, a
# distinct-count query), every scraped counter that mirrors a Stats field
# reads that field — each event has one counter, which both read.
chaos:
	$(GO) test -race -run 'Chaos|CollectBatch|AFRPort|Spill|Spike|ScrapeMatchesStats' . ./examples/udpcollector/

# Durability suite: kill-and-restart at every sub-window boundary and
# every store crash point, WAL-replay recovery, checkpoints (what a
# boundary writes, what the log retains and a restart folds back:
# TestCheckpointRetainsOnlyLiveWAL, TestCheckpointBytesPerBoundary),
# re-cut columns (TestRottedSegmentIsReCut, and the scrub of each newly
# sealed segment that finds the rot, TestScrubVisitsEverySegment; a restart
# before a re-logged column's finish,
# TestCrashAfterHealOrScrubReLogsPendingColumns), spikes across a
# crash (TestSpikesSurviveCrash), hot-standby failover by recovery from
# the log (inside a degraded stretch too:
# TestFailoverWhileDegradedFinalizesOnce; a promotion re-logs no column:
# TestFailoverReLogsNoColumn) and the UDP collector's admission-control
# shedding (TestShed*, examples/udpcollector), all under the race
# detector. Crash also selects TestDistinctionSummariesSurviveRDMAAndCrash:
# a distinction app's summaries must survive a crash-restart that replays
# the log. Crash schedules use fixed seeds (and the Fixed boundary lists
# in failover_test.go), so every death is replayable. WALGroup selects the
# grouped log writes' pins (TestWALGroup*): segments byte-identical to
# per-frame writes, a torn group write retried without landing an LSN
# twice, a crash losing the unwritten group, the group written before a
# control frame and before the boundary's reset, writes per boundary.
# Apply selects the live-vs-replay equivalence: the deployment applies
# every record it logs through Controller.Apply and replay applies the
# logged records through the same call, and TestApplyMatchesReceive holds
# the packet adapter (Receive) to Apply on one delivery stream, so
# recovery rebuilds what the live run built.
failover:
	$(GO) test -race -run 'Crash|Failover|Shed|Store|Lease|CollectBatch|Checkpoint|Cut|Scrub|WALGroup|Apply' \
		. ./internal/controller/ ./internal/faults/ ./internal/durable/ ./examples/udpcollector/

# RDMA chaos suite: the fault-tolerant transport (QP state machine, PSN
# replay, mid-window fallback, failover re-registration) under seeded
# RDMASchedule fault runs, with the race detector. Fixed seeds make every
# schedule a reproducible test case. The pattern also selects the replay
# ring's differential test against the slice-window reference
# (TestTransportRingMatchesSliceWindow) and FuzzTransportRing's seed corpus,
# the hot tracker's differential test against the map model it replaced
# (TestHotTrackerMatchesMapModel), the append verb's contract
# (TestSendBatchAppendVerb), the one cold ring's (TestColdBufferAppendAndDrain,
# TestTransportDrainedRingLiveUntilNextSend), the Incomplete verdict in RDMA
# mode (TestRDMAIncompleteSubWindowsMatchesWindows), the zero-alloc pins of
# the batched send and observe paths (they skip their alloc counts under
# -race), the boundary's allocation gate over both transports
# (TestBoundaryAllocsPerAFR) and a distinction app whose keys turn hot:
# its summaries never enter the transport, so its windows stay the exact
# OR-counts (TestDistinctionSummariesSurviveRDMAAndCrash).
rdma-chaos:
	$(GO) test -race -run 'RDMA|Transport|HotTracker|SendBatch|ColdBuffer|BoundaryAllocs' . ./internal/rdma/ ./internal/faults/ ./internal/controller/

# Disk chaos suite: seeded I/O fault schedules (EIO, ENOSPC, short/torn
# writes, bit rot, slow IO) against the durable store — segment rotation,
# quarantine, scrubbing, degraded-durability mode and crash-restart
# recovery — under the race detector. Fixed seeds (the schedule tables in
# disk_chaos_test.go) make every fault sequence a reproducible test case.
# Scrub selects the whole-segment, manifest and newly-sealed segment scrub
# pins (TestScrubVisitsEverySegment); Heal|Scrub a restart between a heal
# or a set-aside segment and a pending column's finish
# (TestCrashAfterHealOrScrubReLogsPendingColumns); Checkpoint|Cut the
# checkpoints and re-cut columns under rot, read errors and crashes
# (TestRottedSegmentIsReCut, TestCheckpointRetainsOnlyLiveWAL);
# Verify|Corrupt|Segment the wire integrity checks the scrubber and the
# decoders share, and the columns a quarantined segment takes with it
# (TestRecoverChargesColumnsOfQuarantinedSegment); WALGroup the grouped
# log writes under short writes and crashes (TestWALGroup*), and Scrub the
# scrub's one reused read buffer (TestScrubWarmAllocatesNoReadBuffer).
disk-chaos:
	$(GO) test -race -run 'Disk|Scrub|Quarantine|Segment|Heal|Degrad|CollectBatch|Verify|Corrupt|Checkpoint|Cut|WALGroup' \
		. ./internal/durable/ ./internal/faults/ ./internal/wire/

# Partition chaos suite: the hot-standby pair under network partitions
# that leave the primary alive — lost lease renewals, all a partition can
# cut from a standby that reads only the shared log — proving the
# fencing-term protocol and promotion by recovery from the log: one
# finalizer per window, zero post-fence WAL frames accepted, merged
# stream byte-identical or explicitly Incomplete, the old primary's
# logged spikes kept (TestPartitionFailoverKeepsSpikes). Term and Fenc
# select the store's term and fencing unit tests (TestTerm*,
# TestCutFencing, TestFencedAppendZeroAlloc) and the term codec's.
# Fixed seeds (the schedule tables in partition_chaos_test.go) make every
# partition sequence a reproducible test case.
partition-chaos:
	$(GO) test -race -run 'Partition|Term|Fenc' \
		. ./internal/durable/ ./internal/faults/ ./internal/wire/

# Line counts per package and repo-wide, non-test and test, comments and
# blank lines included: the `cat $$(ls DIR/*.go | grep -v _test) | wc -l`
# form CHANGES.md has reported since PR 22, so every simplicity PR states
# the same numbers the same way. The last line is the root package's public
# surface: the lines `go doc -all .` prints, the number of exported
# Config fields and the number of exported Deployment methods. Run it on
# both commits.
loc:
	@$(GO) list -f '{{.Dir}}' ./... | while read d; do \
		echo "$${d#$(CURDIR)}/ \
			$$(ls $$d/*.go | grep -v '_test\.go$$' | xargs -r cat | wc -l) \
			$$(ls $$d/*.go | grep '_test\.go$$' | xargs -r cat | wc -l)"; \
	done | awk '{ printf "%-28s %6d non-test %6d test\n", "." $$1, $$2, $$3; n += $$2; t += $$3 } \
		END { printf "%-28s %6d non-test %6d test\n", "repo-wide", n, t }'
	@echo "public surface: $$($(GO) doc -all . | wc -l) go-doc lines," \
		"$$($(GO) doc -all . | awk '/^type Config struct/ { f = 1 } f && /^}/ { f = 0 } \
			f && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Za-z0-9_]+)*/) { s = substr($$0, 1, RLENGTH); n += gsub(/,/, "", s) + 1 } \
			END { print n + 0 }') exported Config fields," \
		"$$($(GO) doc -all . | grep -c '^func ([a-z]* \*Deployment) [A-Z]') exported Deployment methods"

fmt-check:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

# Staticcheck when the binary is available; CI installs it, local runs
# without it skip gracefully instead of failing `make ci` on a missing
# tool (the repo itself stays dependency-free).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Coverage gate: total statement coverage must not erode. The threshold
# sits 2 points under the measured total at the time the gate was last
# ratcheted (81.5%, after the cmd/ binaries gained tests), so routine
# churn doesn't flake while real erosion fails.
COVER_THRESHOLD = 79.5

cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | \
		awk '{gsub(/%/,"",$$3); print $$3}'); \
	ok=$$(awk -v t="$$total" -v min="$(COVER_THRESHOLD)" \
		'BEGIN{print (t+0 >= min+0) ? "yes" : "no"}'); \
	if [ "$$ok" != "yes" ]; then \
		echo "FAIL: coverage $$total% fell below the $(COVER_THRESHOLD)% gate"; \
		exit 1; \
	fi; \
	echo "coverage $$total% meets the $(COVER_THRESHOLD)% gate"

# Short fuzz and bench runs that surface parser and table regressions in
# PRs and keep the Benchmark* functions (profiling tools) running, among
# them internal/durable's BenchmarkRecover (restart time and directory
# size of a flow_churn_durable-shaped log). Perf is gated by the
# repository benchmark (bench/, BENCHMARK.json) on paired runs; the exact
# 0-allocs/op pins are tests (the *ZeroAlloc* tests,
# TestBoundaryAllocsPerAFR, the Send pins in internal/rdma).
fuzz-smoke:
	$(GO) test -fuzz 'FuzzDecode$$' -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodePatched$$' -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeSnapshot$$' -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeSnapshotPatched$$' -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeWALRecord$$' -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeTermRecord$$' -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz 'FuzzTableDifferential$$' -fuzztime 10s ./internal/controller/

bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x . ./internal/durable/ ./internal/hashing/ ./internal/controller/

# Micro-benchmarks across all packages.
microbench:
	$(GO) test -run xxx -bench . -benchmem ./internal/...

fuzz:
	$(GO) test -fuzz 'FuzzDecode$$' -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodePatched$$' -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeSnapshot$$' -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeSnapshotPatched$$' -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeWALRecord$$' -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeTermRecord$$' -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz 'FuzzTransportRing$$' -fuzztime 30s ./internal/rdma/
	$(GO) test -fuzz 'FuzzTableDifferential$$' -fuzztime 30s ./internal/controller/

# Nightly depth: long fuzz runs on every wire decoder, on the frozen key
# hash (lane-built Key64 vs its byte-serialising reference), on the
# RDMA replay ring (vs its slice-window reference) and on the controller's
# columnar table (vs the map table it replaced), plus the whole race run
# with every chaos seed table widened by 10 extra derived seeds
# (faults.ExtraSeeds) — the whole run, so a renamed chaos test cannot fall
# out of the sweep. Mirrors .github/workflows/nightly.yml; run locally to
# reproduce a nightly failure.
nightly:
	$(GO) test -fuzz 'FuzzDecode$$' -fuzztime 300s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodePatched$$' -fuzztime 300s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeSnapshot$$' -fuzztime 300s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeSnapshotPatched$$' -fuzztime 300s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeWALRecord$$' -fuzztime 300s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeTermRecord$$' -fuzztime 300s ./internal/wire/
	$(GO) test -fuzz 'FuzzKey64Identity$$' -fuzztime 300s ./internal/hashing/
	$(GO) test -fuzz 'FuzzTransportRing$$' -fuzztime 300s ./internal/rdma/
	$(GO) test -fuzz 'FuzzTableDifferential$$' -fuzztime 300s ./internal/controller/
	OMNIWINDOW_EXTRA_SEEDS=10 $(GO) test -race ./...

# Every example, end to end (≈ 23 s). udpcollector is the one program that
# sends the wire datagram format over real sockets and networkwide the one
# that chains deployments through ProcessAndForward, so CI's smoke job
# runs this target.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ddosdetect
	$(GO) run ./examples/lossradar
	$(GO) run ./examples/dmlmonitor
	$(GO) run ./examples/udpcollector
	$(GO) run ./examples/networkwide

# The full paper reproduction via the CLI.
reproduce:
	$(GO) run ./cmd/omnibench -exp all

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean -testcache
