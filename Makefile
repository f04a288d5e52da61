GO ?= go

.PHONY: all build test race vet fmt check crash smoke snippets-smoke xlate-smoke bench-module service-race serve-smoke fleet-chaos bench bench-smoke bench-baseline clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails unless every Go file of the root module is gofmt-formatted
# (the nested benchmark module is not listed).
fmt:
	test -z "$$(gofmt -l cmd internal examples *.go)"

# crash runs the crash-recovery suite under the race detector: journal
# append/recover, torn-tail and bit-flip fuzzing, atomic-writer
# semantics, the commit rule (Dir.Commit) and the resume rule (Adopt),
# and kill/resume byte-identity of the supervised pool.
crash:
	$(GO) test -race -run 'Journal|Recover|Atomic|Dir|Resume|Adopt|Pool|Artifact|Torn' ./internal/runstate ./internal/workloads

# smoke is the journal round-trip check on the real harness: run a tiny
# characterize sweep journaled to a state dir, resume it, and require
# the byte-identical report.
smoke:
	rm -rf .smoke
	mkdir -p .smoke
	$(GO) run ./cmd/characterize -scale tiny -fig 3c -state-dir .smoke/state > .smoke/run1.out 2> .smoke/run1.err
	$(GO) run ./cmd/characterize -scale tiny -fig 3c -state-dir .smoke/state -resume > .smoke/run2.out 2> .smoke/run2.err
	cmp .smoke/run1.out .smoke/run2.out
	rm -rf .smoke

# snippets-smoke is the parallel-replay equivalence gate on the real
# harness: simulate one application's selected subset twice — serially
# (per-interval fast-forwarding, one worker) and via captured interval
# snippets replayed on four workers — and require byte-identical
# stdout. Mode and timing narration go to stderr, so cmp proves the
# snippet path changes only wall time, never results. The second pair
# runs sonyvegas-proj-r1: 97.5% of the bytes its snippets digest sit in
# all-zero 4 KiB pages (mostly its 2 MiB planes surface), against 11%
# and 2% for the other two apps. Images and post-digests skip those
# pages, so this pair fails if a skipped page is not really zero.
# The third pair runs cb-histogram-buffer at small scale: its merge
# kernel reads register lanes it never writes, so its snippets replay
# only because a dispatch starts from zeroed registers, not from
# whatever the engine ran before.
snippets-smoke:
	rm -rf .snippets-smoke
	mkdir -p .snippets-smoke
	$(GO) run ./cmd/subsets -scale tiny -fig table3 -simulate -sim-mode serial -workers 1 -sim-apps cb-physics-ocean-surf > .snippets-smoke/serial.out 2> .snippets-smoke/serial.err
	$(GO) run ./cmd/subsets -scale tiny -fig table3 -simulate -sim-mode snippets -workers 4 -sim-apps cb-physics-ocean-surf > .snippets-smoke/snippets.out 2> .snippets-smoke/snippets.err
	cmp .snippets-smoke/serial.out .snippets-smoke/snippets.out
	$(GO) run ./cmd/subsets -scale tiny -fig table3 -simulate -sim-mode serial -workers 1 -sim-apps sonyvegas-proj-r1 > .snippets-smoke/vegas-serial.out 2> .snippets-smoke/vegas-serial.err
	$(GO) run ./cmd/subsets -scale tiny -fig table3 -simulate -sim-mode snippets -workers 4 -sim-apps sonyvegas-proj-r1 > .snippets-smoke/vegas-snippets.out 2> .snippets-smoke/vegas-snippets.err
	cmp .snippets-smoke/vegas-serial.out .snippets-smoke/vegas-snippets.out
	$(GO) run ./cmd/subsets -scale small -fig table3 -simulate -sim-mode serial -workers 1 -sim-apps cb-histogram-buffer > .snippets-smoke/hist-serial.out 2> .snippets-smoke/hist-serial.err
	$(GO) run ./cmd/subsets -scale small -fig table3 -simulate -sim-mode snippets -workers 4 -sim-apps cb-histogram-buffer > .snippets-smoke/hist-snippets.out 2> .snippets-smoke/hist-snippets.err
	cmp .snippets-smoke/hist-serial.out .snippets-smoke/hist-snippets.out
	rm -rf .snippets-smoke

# xlate-smoke is the per-unit ISA configuration gate on the real harness,
# built with the race detector: subsets -fig 6 reports selection error
# from per-kernel timings, which depend on the dialect's issue costs, so
# -dialect genx must change it (the first leg proves the gate can see the
# flag at all). Then, byte-identical stdout on every leg:
#   - GENX translated back to GEN below the instrumentation layer equals
#     native (the seeded workloads contain no W2, so the translation is a
#     pure cross-dialect re-encode);
#   - a -fleet of worker processes equals the in-process pool under GENX,
#     so the dialect travels in the unit's lease;
#   - -resume -dialect genx over a natively journaled state dir re-runs
#     every unit (no "resumed" line) and equals a fresh GENX run, so the
#     dialect is part of the journal key;
#   - GENX subset simulation, serial on one worker and as snippets on
#     four, so the recording carries the GENX code detsim compiles.
xlate-smoke:
	rm -rf .xlate-smoke
	mkdir -p .xlate-smoke
	$(GO) build -race -o .xlate-smoke/subsets ./cmd/subsets
	cd .xlate-smoke && ./subsets -scale tiny -fig 6 -state-dir native-state > native.out 2> native.err
	cd .xlate-smoke && ./subsets -scale tiny -fig 6 -workers 2 -dialect genx > genx.out 2> genx.err
	! cmp -s .xlate-smoke/native.out .xlate-smoke/genx.out
	cd .xlate-smoke && ./subsets -scale tiny -fig 6 -dialect genx -translate gen > xlate.out 2> xlate.err
	cmp .xlate-smoke/native.out .xlate-smoke/xlate.out
	cd .xlate-smoke && ./subsets -scale tiny -fig 6 -fleet 2 -dialect genx > fleet.out 2> fleet.err
	cmp .xlate-smoke/genx.out .xlate-smoke/fleet.out
	cd .xlate-smoke && ./subsets -scale tiny -fig 6 -state-dir native-state -resume -dialect genx > resume.out 2> resume.err
	cmp .xlate-smoke/genx.out .xlate-smoke/resume.out
	! grep -q '^resumed' .xlate-smoke/resume.err
	cd .xlate-smoke && ./subsets -scale tiny -fig table3 -simulate -sim-mode serial -workers 1 -sim-apps cb-physics-ocean-surf -dialect genx > sim-serial.out 2> sim-serial.err
	cd .xlate-smoke && ./subsets -scale tiny -fig table3 -simulate -sim-mode snippets -workers 4 -sim-apps cb-physics-ocean-surf -dialect genx > sim-snippets.out 2> sim-snippets.err
	cmp .xlate-smoke/sim-serial.out .xlate-smoke/sim-snippets.out
	rm -rf .xlate-smoke

# bench-module vets and tests the benchmark program. It is its own Go
# module (benchmark/go.mod), so the root `go test ./...` never compiles
# it, and a change to an internal API it calls would otherwise break it
# without any other check failing.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# service-race runs the profiling-service suite — queue/shed, one-run and
# breaker chaos, drain ordering, and the SIGKILL crash-resume e2e — under
# the race detector on its own, so a service regression names itself
# before the full-tree race pass. (The full pass then reuses the cached
# result, so the split costs nothing.)
service-race:
	$(GO) test -race ./internal/service/...

# serve-smoke is the service health gate: gtpind -smoke starts the
# daemon on a loopback port, submits a tiny characterize job over HTTP,
# polls it to a digest-checked result, and drains — verifying /readyz
# flips to 503 while the listener is still serving.
serve-smoke:
	rm -rf .serve-smoke
	$(GO) run ./cmd/gtpind -smoke -state-dir .serve-smoke
	rm -rf .serve-smoke

# fleet-chaos is the distributed-sweep fault matrix: the fleet suite —
# coordinator/worker e2e with real SIGKILLed and frozen worker
# processes, lease fencing, poison quarantine, cross-process flock —
# under the race detector, once per fixed fault-schedule seed. Three
# seeds exercise three distinct kill/hang placements; each run asserts
# the merged report is byte-identical to an unfailed single-process
# sweep.
fleet-chaos:
	GTPIN_FLEET_SEED=1 $(GO) test -race -count=1 ./internal/fleet
	GTPIN_FLEET_SEED=7 $(GO) test -race -count=1 ./internal/fleet
	GTPIN_FLEET_SEED=1302 $(GO) test -race -count=1 ./internal/fleet

# check is the CI gate: formatting, static analysis, a full build, the
# service suite then the full test suite under the race detector (the
# chaos and crash-recovery suites must never panic or deadlock under
# -race), the distributed-fleet chaos matrix, the resume smoke test, the
# ISA configuration gate, the daemon smoke test, and the nested
# benchmark module's vet and tests.
check: fmt vet build service-race race fleet-chaos crash smoke snippets-smoke xlate-smoke serve-smoke bench-module

# bench runs the Go benchmark suites (instrumentation rewrite, SimPoint
# clustering, interpreters, end-to-end sweep) and then the benchmark-regression
# harness: a multi-trial characterization sweep timed three ways — the
# pre-optimization baseline (serial, all caches off), the cached,
# sharded hot path, and the hot path again with the obs span tracer
# installed — all verified byte-identical and recorded in
# .bench/BENCH_sweep.json. The harness fails below 2x wall-clock
# speedup, above 5% observability overhead, or when detailed-interpreter
# throughput (detsim_mips) drops more than 10% below the committed
# baseline report, BENCH_sweep.json (-prior; checked in for exactly this
# reason, and never written by this target, so a regressed run cannot
# become the next baseline; -require-detsim-prior makes a missing
# baseline a hard error instead of a silently skipped gate). The
# overhead gate compares median wall times over -overhead-reps
# repetitions, so one scheduler stall cannot flip it.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...
	mkdir -p .bench
	$(GO) run ./cmd/bench -scale tiny -trials 3 -overhead-reps 5 -min-speedup 2 -max-obs-overhead 1.05 -min-detsim-ratio 0.9 -require-detsim-prior -prior BENCH_sweep.json -out .bench/BENCH_sweep.json

# bench-baseline rewrites the committed baseline, BENCH_sweep.json, on
# purpose: the same measurement as bench, with no ratio gates (the
# artifacts must still be byte-identical), printing the old detsim value
# next to the new one. Run it on the machine the baseline describes and
# commit the result, so every rebaseline shows up in a diff.
bench-baseline:
	$(GO) run ./cmd/bench -scale tiny -trials 3 -overhead-reps 5 -prior BENCH_sweep.json -out BENCH_sweep.json

# bench-smoke is the CI shape of bench: the edge-case regression tests
# and the observability layer under -race, the execution engine's
# differential fuzz + watchdog-parity + layering suite (short corpus),
# one-iteration benchmark runs (compile + execute checks), the
# regression harness with the wall-clock gates in warn-only mode
# (shared CI boxes make those ratios too noisy to fail a build on, but
# the breach still prints and the medians still land in the report)
# while still gating detailed-interpreter throughput at 10% regression
# against the committed BENCH_sweep.json baseline (read through -prior;
# the report goes to .bench/, so the run never replaces its baseline) —
# -require-detsim-prior asserts the gate actually armed, so a lost
# baseline fails the build instead of silently skipping the comparison —
# and a tiny traced sweep whose -trace/-metrics artifacts are
# schema-validated by cmd/obscheck. The engine line carries the
# predecode differential fuzz (threaded-code loops vs the reference
# interpreter, whose ALU and compare lanes run isa.Eval), the oracle
# tests of the pre-decoded ALU and compare handlers (against isa.Eval)
# and of the send lane mover (against a byte-slice model), the paged
# surface held to the flat one it replaced (PagedBuffer, shared pages
# included), and shared pages (Share: the refusals, and surfaces that
# share arrays writing them at once, which must copy them first), under
# the race detector. The
# GT-Pin trace-buffer line runs the Detach checks and concurrent
# Attach/replay/Detach (every new instance's buffer must read zero and
# every profile must equal a serial run's) ten times under the race
# detector; the cl line runs the chaos
# snapshot checks (a retry restores exactly the pages the snapshot held
# and drops pages allocated since) ten times under it.
# The capture line runs, ten times under the race detector, the checks
# that Capture stops at its last window (exactly that many dispatches,
# and faults after it change no snippet), that the capture memo gives
# every design what a fresh capture on it gives (the eight sweep designs
# in either order, and all eight capturing one recording at once before
# the memo holds it), never stores a timer-reading recording, and leaves
# returned snippets unchanged when they replay under all eight designs,
# several at once over shared image pages, that a corrupted snippet
# fails replay (SnippetDivergence, after a clean replay too), and that
# a kernel's and a recording's stored fingerprints equal fresh ones,
# concurrent first calls included; the
# jit line runs the same checks on a binary's stored decoded kernel
# (one kernel per binary, whatever the calls race, and a malformed
# binary keeps its error). The cachesim line holds the paged cache to
# the flat-array reference and AccessLanes to per-key walks under the
# race detector; the allocation checks (a functional group, a detailed
# group and a hooked send allocate nothing, detsim.New stays under
# 64 KiB, a new surface allocates only its page table, a snippet replay,
# a capture the memo holds and a SimPoint Run make at most their pinned
# counts, a replay allocates fewer bytes than its images' unwritten
# pages hold, and a stored
# kernel fingerprint, a stored decoded kernel and a memo hit allocate
# nothing) run without it, because the race detector allocates.
bench-smoke:
	$(GO) test -race -run 'SurfaceBoundary|RingEntries|ImmediateBoundary|CachedRewrite|CacheKey|ByteFieldTruncation|HostileNames|ByteIdentical|Cache|Speedup|DetsimGate' ./internal/gtpin ./internal/jit ./internal/memo ./internal/export ./internal/workloads ./cmd/bench
	$(GO) test -race -count=10 -run 'Detach|TraceBufPool' ./internal/gtpin
	$(GO) test -race -count=10 -run Snapshot ./internal/cl
	$(GO) test -race -count=10 -run 'CaptureStops|CaptureMemo|Fingerprint|SnippetDivergence' ./internal/detsim ./internal/kernel ./internal/cofluent
	$(GO) test -race -count=10 -run 'StoredKernel' ./internal/jit
	$(GO) test -race -short -run 'Differential|Predecode|WatchdogParity|Probe|BackendsContainNoDispatch|Oracle|PagedBuffer|Share' ./internal/engine
	$(GO) test -race ./internal/cachesim
	$(GO) test -run Allocs ./internal/engine ./internal/detsim ./internal/kernel ./internal/jit ./internal/memo ./internal/simpoint
	$(GO) test -race ./internal/obs/...
	$(GO) test -bench=. -benchtime=1x -benchmem -run '^$$' ./...
	mkdir -p .bench
	$(GO) run ./cmd/bench -scale tiny -trials 3 -overhead-reps 3 -max-obs-overhead 1.05 -obs-overhead-warn -min-detsim-ratio 0.9 -require-detsim-prior -prior BENCH_sweep.json -out .bench/BENCH_sweep.json
	rm -rf .obs-smoke
	mkdir -p .obs-smoke
	$(GO) run ./cmd/characterize -scale tiny -fig 3c -trace .obs-smoke/trace.json -metrics .obs-smoke/metrics.json > .obs-smoke/run.out 2> .obs-smoke/run.err
	$(GO) run ./cmd/obscheck -trace .obs-smoke/trace.json -metrics .obs-smoke/metrics.json
	rm -rf .obs-smoke

clean:
	$(GO) clean ./...
	rm -rf .smoke .obs-smoke .serve-smoke .snippets-smoke .xlate-smoke .bench
