# Developer entry points. CI (.github/workflows/ci.yml) runs `make check`.

.PHONY: check build vet lint test race fuzz-short bench bench-json smoke

check: build vet lint test smoke

build:
	go build ./...

vet:
	go vet ./...

# meshvet (cmd/meshvet, internal/lint) machine-checks the simulator's
# invariants — eleven analyzers sharing a cross-package fact store: no
# wall clock or global randomness in sim code, no order-dependent
# range-over-map, no pooled-value retention, index-owned writes in
# parallel sweeps, no routing-state mutation outside the control-plane
# push path, x-mesh-* headers only through the internal/mesh registry,
# FlowEngine scratch/pool/timer hygiene, metric names as registered
# constants, single-owner simnet.Timer discipline, and no slide-forward
# queues (x.f = x.f[k:] plus append; queues use internal/deque).
# `go run ./cmd/meshvet -doc` prints each analyzer's documentation;
# -json/-github emit machine-readable reports, -fix applies the
# headerreg literal -> constant rewrites.
lint:
	go run ./cmd/meshvet ./...

test:
	go test -race -timeout 30m ./...

# Short-mode suite under the race detector: the quick leg that
# complements the indexowned analyzer (static ownership proofs) with
# runtime interleaving checks. The explicit legs pin the PR 8 fluid
# fast path: the full flow-engine suite (not just short mode) and the
# hybrid cross-validation harness both replay under -race.
race:
	go test -race -short -timeout 10m ./...
	go test -race -timeout 10m -run 'Flow|Fluid|Hybrid' ./internal/simnet
	go test -race -short -timeout 10m -run TestHybridCrossValidation .

# A fixed 10 s fuzzing budget per target, on top of the seed corpora
# under each package's testdata/fuzz/ (which plain `go test` replays):
# the ring deque against a plain-slice model, and the span-ID parser
# against fmt.Sscanf as an oracle.
fuzz-short:
	go test ./internal/deque -run '^$$' -fuzz '^FuzzDeque$$' -fuzztime 10s
	go test ./internal/mesh -run '^$$' -fuzz '^FuzzParseSpanID$$' -fuzztime 10s

bench:
	go test -bench=. -benchtime=1x -run=^$$ .

# Engine benchmarks as a machine-readable artifact (see EXPERIMENTS.md,
# E16). Full benchtime for stable numbers; CI runs a 1x smoke instead.
# E17's availability ladder and E18's propagation sweep ship alongside
# it: each iteration simulates a full suite, so 3x suffices.
bench-json:
	go test ./internal/simnet -run '^$$' -bench 'Scheduler|PacketPath' -benchmem | go run ./cmd/benchjson > BENCH_engine.json
	@echo "wrote BENCH_engine.json"
	go test . -run '^$$' -bench 'ZoneFail' -benchtime 3x | go run ./cmd/benchjson > BENCH_zonefail.json
	@echo "wrote BENCH_zonefail.json"
	go test . -run '^$$' -bench 'CtrlPlane|CtrlScale' -benchtime 3x | go run ./cmd/benchjson > BENCH_ctrlplane.json
	@echo "wrote BENCH_ctrlplane.json"
	go test . -run '^$$' -bench 'Federation' -benchtime 3x | go run ./cmd/benchjson > BENCH_federation.json
	@echo "wrote BENCH_federation.json"

# Determinism against stored output: TestGoldens (cmd/meshbench)
# replays every deterministic experiment — the fault ladders, E21 at
# 1000 subscribers, E20 at 20 zones, chaos under flow and hybrid
# fidelity, and every other -exp all table at a short window — and
# compares each with its golden in cmd/meshbench/testdata/golden byte
# for byte. Sweeps run MaxParallel = GOMAXPROCS wide, so -cpu 1,4 pins
# sequential == parallel == stored. After an intended output change,
# regenerate with: go test ./cmd/meshbench -run TestGoldens -update
smoke:
	go test ./cmd/meshbench -run TestGoldens -count 1 -cpu 1,4
