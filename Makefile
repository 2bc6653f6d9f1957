GO ?= go

.PHONY: check fmt vet staticcheck build loc test-poison experiments-current test digests fuzz-smoke bench bench-smoke bench-baseline bench-gate soak soak-short soak-overload soak-overload-short soak-scale soak-scale-short conformance conformance-short

## check: the full local gate — format, vet, staticcheck, build, the
## packet-lifetime (poison) tests, EXPERIMENTS.md against a fresh run, the
## CI-sized overload and scale soaks, the CI-sized conformance gate, and
## the race-enabled tests last, so a flake there skips nothing after it.
check: fmt vet staticcheck build test-poison experiments-current soak-overload-short soak-scale-short conformance-short test

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck is part of the gate when the binary is present; a machine
# without it (the bare container image) skips with a notice instead of
# failing, and CI installs a pinned version so the check is always
# enforced there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI enforces it)"; \
	fi

build:
	$(GO) build ./...

## loc: the non-test Go lines (wc -l of every .go file but *_test.go)
## of each internal/ package, one line a package, and their total.
loc:
	@find internal -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
	END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

## test-poison: the internal packages' tests with every released packet
## poisoned (build tag pktpoison: pkt.Release scribbles sentinels and never
## recycles), so a read after release fails a golden, a digest or an
## ownership test instead of going unnoticed. No -race: the tag changes
## what a stale read sees, not who reads. 45 to 75 s on the 2-core
## box, build included (fleet 55 s beside exp 23 s). The second line holds
## the poison build to the committed DIGESTS.json: the ledger has one set
## of rows, so both builds simulate the same thing (15 s).
test-poison:
	$(GO) test -tags pktpoison ./internal/...
	$(GO) test -tags pktpoison -run '^TestDigests$$' .

## digests: regenerate the byte-identity ledger — DIGESTS.json, and with it
## CONFORMANCE.json and hypotheses/*/FINDINGS.md — after an intentional
## physics change, and commit the result: the diff is the review. `go test
## .` (TestDigests, 15 s) is the check; on a tree whose physics did not
## move this target changes no file.
digests:
	$(GO) test -count=1 -run '^TestDigests$$' -update .

## experiments-current: EXPERIMENTS.md's generated tables against a fresh
## seed-1, default-duration run of every experiment (2.5 min, no -race).
experiments-current:
	ELEMENT_SOAK=1 $(GO) test -count=1 -timeout 20m -run '^TestExperimentsDocCurrent$$' .

# -timeout 20m: the per-package limit is about 4x the slowest package —
# internal/exp replays every table/figure scenario and takes 5 to 8 min
# under the race detector on a 2-core box (internal/fleet 4 to 6 beside
# it). -shuffle=on randomizes test order so inter-test state
# dependencies surface instead of hiding behind source order; a failure
# prints the shuffle seed to reproduce it.
test:
	$(GO) test -race -shuffle=on -timeout 20m ./...

## fuzz-smoke: a 20 s live burst of each differential fuzzer whose oracle
## is a from-scratch reference — the event queue against container/heap
## (with the heap/slab/lane invariants checked after every op), the SACK
## scoreboard against the full-window scans, the waterfall recorder's
## packet stamps and arrival queue against the keyed link table and
## sorted slice they replaced (and a join-only twin against the
## recorder's breakdown), the sketch's bit-read bucket index
## against its math.Frexp definition, a decoded checkpoint restored as
## held against its own re-encoding (the fleet restores held checkpoints
## without re-parsing them), the chunked result log against a plain
## slice, the waterfall's range codec and decimation (Log.Halve,
## through the retention rule) against a plain slice of ranges, the
## request tracer's record codec and decimation against a plain slice of
## records, the grader's truth envelope against its linear walk, and the
## ground truth the waterfall recorder derives, truth-only and with every
## stage installed, against the collector it replaced (ten in all). Corpus
## replays already run in `make test`;
## this looks for new inputs.
## One target per go test run (go fuzz rejects several), two workers so a
## 2-core CI box is not oversubscribed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEngine$$' -fuzztime 20s -parallel 2 ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzScoreboard$$' -fuzztime 20s -parallel 2 ./internal/tcp
	$(GO) test -run '^$$' -fuzz '^FuzzRecorder$$' -fuzztime 20s -parallel 2 ./internal/waterfall
	$(GO) test -run '^$$' -fuzz '^FuzzSketchIndex$$' -fuzztime 20s -parallel 2 ./internal/telemetry/stream
	$(GO) test -run '^$$' -fuzz '^FuzzHeldCheckpoint$$' -fuzztime 20s -parallel 2 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzLog$$' -fuzztime 20s -parallel 2 ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzRangeLog$$' -fuzztime 20s -parallel 2 ./internal/waterfall
	$(GO) test -run '^$$' -fuzz '^FuzzRecordLog$$' -fuzztime 20s -parallel 2 ./internal/reqtrace
	$(GO) test -run '^$$' -fuzz '^FuzzBoundsMatchOracle$$' -fuzztime 20s -parallel 2 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzTruthMatchesCollector$$' -fuzztime 20s -parallel 2 ./internal/trace

## conformance: the full analytical-twin conformance run — every
## hypothesis fit across seeds 1..5 at full sweep resolution plus the
## bound-calibration matrix over every fault profile. Regenerates the
## committed hypotheses/*/FINDINGS.md and CONFORMANCE.json; rerun after
## intentional physics changes and commit the result.
conformance:
	$(GO) run ./cmd/elemtwin -out .

## conformance-short: the CI-sized conformance gate (reduced sweeps,
## same hypotheses, same calibration profiles; exits non-zero when any
## hypothesis is refuted or any coverage target is missed). Artifacts go
## to ./conformance-out, which CI uploads.
conformance-short:
	@mkdir -p conformance-out
	$(GO) run ./cmd/elemtwin -short -out conformance-out

## soak: the fleet churn soak — ≥1000 supervised connections with
## open/close/crash/stall churn under the race detector, asserting zero
## goroutine leaks, zero bounded-or-flagged violations, and identical
## restart/eviction counters across two same-seed runs (~2 min). The
## first run executes sharded (FLEET_SOAK_SHARDS workers), the second
## single-shard, so the soak also proves shard-count invariance at scale.
soak:
	FLEET_SOAK_CONNS=1000 FLEET_SOAK_SHARDS=4 $(GO) test -race -timeout 30m -run TestFleetSoak -v ./internal/fleet/

## soak-short: the CI-sized soak (~100 connections, ~20 s).
soak-short:
	FLEET_SOAK_CONNS=100 FLEET_SOAK_SHARDS=4 $(GO) test -race -timeout 10m -run TestFleetSoak -v ./internal/fleet/

## soak-overload: the overload-governor chaos soak — repeated
## overload/recovery cycles against a flapping export sink under the race
## detector, across several seeds and shard counts, asserting zero
## goroutine leaks, monotone bound-widening while flows are shed,
## re-tightened bounds after recovery, and byte-identical same-seed
## results at every shard count.
soak-overload:
	ELEMENT_SOAK=1 $(GO) test -race -timeout 30m -run 'TestFleetOverloadSoak$$' -v ./internal/fleet/

## soak-overload-short: the CI-sized overload soak (one seed, ~seconds).
soak-overload-short:
	$(GO) test -race -timeout 10m -run TestFleetOverloadSoakShort -v ./internal/fleet/

## soak-scale: the million-monitor-mode scale soak — 100k closed-form
## flows through the per-shard event loops (static poll schedule, SoA
## lite columns in poll order, budget-gated two-phase escalation) under
## the race detector, asserting zero goroutine leaks and a byte-identical
## result across two different shard counts of the same seed.
soak-scale:
	$(GO) test -race -timeout 30m -run 'TestFleetScaleSoak$$' -v ./internal/fleet/

## soak-scale-short: the CI-sized scale soak (10k flows).
soak-scale-short:
	$(GO) test -race -short -timeout 10m -run 'TestFleetScaleSoak$$' -v ./internal/fleet/

## bench: every table/figure benchmark plus the overhead ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

## bench-smoke: every benchmark once (-benchtime 1x); writes a
## machine-readable BENCH_<date>.json snapshot (allocs/op, B/op and each
## benchmark's domain metrics; no ns/op) for before/after diffs.
bench-smoke:
	$(GO) run ./cmd/benchsmoke

## bench-baseline: regenerate the committed benchmark baseline the gate
## compares against, after an intentional change to allocation counts or
## to the set of benchmarks, and commit the result.
bench-baseline:
	$(GO) run ./cmd/benchsmoke -o BENCH_baseline.json

## bench-gate: the benchmark-regression gate — one pass over every
## benchmark that writes its snapshot to BENCH_gate.json (not committed)
## and fails when a benchmark of BENCH_baseline.json is missing or its
## allocs/op exceed the baseline by more than 25 % plus 5 (see
## internal/benchgate). No timing is gated or asserted.
bench-gate:
	$(GO) run ./cmd/benchsmoke -gate BENCH_baseline.json -o BENCH_gate.json
