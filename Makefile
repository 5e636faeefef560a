# Developer entry points. CI (.github/workflows/ci.yml) runs `make check`.

.PHONY: check build vet lint test race fuzz-short bench bench-json chaos-smoke ctrlplane-smoke federation-smoke hybrid-smoke ctrlscale-smoke

check: build vet lint test chaos-smoke ctrlplane-smoke federation-smoke hybrid-smoke ctrlscale-smoke

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

# Determinism golden check: the same seed must reproduce the E15 chaos
# and E17 zone-failure runs byte-for-byte — including with the parallel
# sweep pool disabled, which pins the parallel == sequential property.
chaos-smoke:
	@a=$$(mktemp) && b=$$(mktemp) && c=$$(mktemp) && \
	go run ./cmd/meshbench -exp chaos -warmup 1s -measure 4s -seed 7 > $$a && \
	go run ./cmd/meshbench -exp chaos -warmup 1s -measure 4s -seed 7 > $$b && \
	go run ./cmd/meshbench -exp chaos -warmup 1s -measure 4s -seed 7 -parallel 1 > $$c && \
	cmp $$a $$b && cmp $$a $$c && echo "chaos-smoke: chaos deterministic (parallel == sequential)" && \
	go run ./cmd/meshbench -exp zonefail -warmup 1s -measure 4s -seed 7 > $$a && \
	go run ./cmd/meshbench -exp zonefail -warmup 1s -measure 4s -seed 7 > $$b && \
	go run ./cmd/meshbench -exp zonefail -warmup 1s -measure 4s -seed 7 -parallel 1 > $$c && \
	cmp $$a $$b && cmp $$a $$c && echo "chaos-smoke: zonefail deterministic (parallel == sequential)" ; \
	rc=$$? ; rm -f $$a $$b $$c ; exit $$rc

# Same golden property for E18: push scheduling, debounce timers, and
# simulated xDS traffic must replay byte-for-byte at any -parallel.
ctrlplane-smoke:
	@a=$$(mktemp) && b=$$(mktemp) && c=$$(mktemp) && \
	go run ./cmd/meshbench -exp ctrlplane -warmup 1s -measure 4s -seed 7 > $$a && \
	go run ./cmd/meshbench -exp ctrlplane -warmup 1s -measure 4s -seed 7 > $$b && \
	go run ./cmd/meshbench -exp ctrlplane -warmup 1s -measure 4s -seed 7 -parallel 1 > $$c && \
	cmp $$a $$b && cmp $$a $$c && echo "ctrlplane-smoke: ctrlplane deterministic (parallel == sequential)" ; \
	rc=$$? ; rm -f $$a $$b $$c ; exit $$rc

# Same golden property for E19: WAN chaos, per-region control planes,
# summary exchange, and gateway routing must replay byte-for-byte.
federation-smoke:
	@a=$$(mktemp) && b=$$(mktemp) && c=$$(mktemp) && \
	go run ./cmd/meshbench -exp federation -warmup 1s -measure 4s -seed 7 > $$a && \
	go run ./cmd/meshbench -exp federation -warmup 1s -measure 4s -seed 7 > $$b && \
	go run ./cmd/meshbench -exp federation -warmup 1s -measure 4s -seed 7 -parallel 1 > $$c && \
	cmp $$a $$b && cmp $$a $$c && echo "federation-smoke: federation deterministic (parallel == sequential)" ; \
	rc=$$? ; rm -f $$a $$b $$c ; exit $$rc

# Same golden property for E21 at its smoke scale (1000 subscribers):
# crash/recovery epochs, backoff jitter, admission queues, and the
# convergence probe must replay byte-for-byte at any -parallel.
ctrlscale-smoke:
	@a=$$(mktemp) && b=$$(mktemp) && c=$$(mktemp) && \
	go run ./cmd/meshbench -exp ctrlscale -subs 1000 -warmup 1s -measure 12s -seed 7 > $$a && \
	go run ./cmd/meshbench -exp ctrlscale -subs 1000 -warmup 1s -measure 12s -seed 7 > $$b && \
	go run ./cmd/meshbench -exp ctrlscale -subs 1000 -warmup 1s -measure 12s -seed 7 -parallel 1 > $$c && \
	cmp $$a $$b && cmp $$a $$c && echo "ctrlscale-smoke: ctrlscale deterministic (parallel == sequential)" ; \
	rc=$$? ; rm -f $$a $$b $$c ; exit $$rc

# Determinism golden for the fluid fast path (E20 and -fidelity): the
# fidelity ladder and a full chaos run under flow and hybrid fidelity
# must replay byte-for-byte — including with the sweep pool disabled,
# which pins parallel == sequential for the flow-event scheduler too.
hybrid-smoke:
	@a=$$(mktemp) && b=$$(mktemp) && c=$$(mktemp) && \
	go run ./cmd/meshbench -exp fidelity -zones 20 > $$a && \
	go run ./cmd/meshbench -exp fidelity -zones 20 > $$b && \
	go run ./cmd/meshbench -exp fidelity -zones 20 -parallel 1 > $$c && \
	cmp $$a $$b && cmp $$a $$c && echo "hybrid-smoke: E20 deterministic (parallel == sequential)" && \
	go run ./cmd/meshbench -exp chaos -fidelity flow -warmup 1s -measure 4s -seed 7 > $$a && \
	go run ./cmd/meshbench -exp chaos -fidelity flow -warmup 1s -measure 4s -seed 7 > $$b && \
	go run ./cmd/meshbench -exp chaos -fidelity flow -warmup 1s -measure 4s -seed 7 -parallel 1 > $$c && \
	cmp $$a $$b && cmp $$a $$c && echo "hybrid-smoke: chaos deterministic under flow fidelity" && \
	go run ./cmd/meshbench -exp chaos -fidelity hybrid -warmup 1s -measure 4s -seed 7 > $$a && \
	go run ./cmd/meshbench -exp chaos -fidelity hybrid -warmup 1s -measure 4s -seed 7 > $$b && \
	go run ./cmd/meshbench -exp chaos -fidelity hybrid -warmup 1s -measure 4s -seed 7 -parallel 1 > $$c && \
	cmp $$a $$b && cmp $$a $$c && echo "hybrid-smoke: chaos deterministic under hybrid fidelity" ; \
	rc=$$? ; rm -f $$a $$b $$c ; exit $$rc
