# PrivIM build/test/benchmark entry points. Everything is stdlib-only Go;
# these targets just bundle the common invocations.

GO ?= go

.PHONY: all build test vet lint race cover bench-all alloc-smoke suite suite-paper examples fuzz serve-smoke crash-smoke budget-smoke trace-smoke cancel-smoke alert-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./internal/obs/ ./internal/obs/history/ ./internal/privim/ ./internal/diffusion/ ./internal/expt/ ./internal/serve/ ./internal/graph/ \
		./internal/parallel/ ./internal/tensor/ ./internal/autodiff/ ./internal/nn/ ./internal/gnn/ ./internal/im/ ./internal/ledger/ ./internal/cliutil/

cover:
	$(GO) test -cover ./...

# Steady-state allocation pins plus pooled-path determinism: the alloc
# floors (parallel.For, GEMM, Monte-Carlo estimation, RR-set generation
# and DP-SGD at pool widths 1, 2, 4 and 8, and the heap bytes of one
# GNN Score and one edge-list parse, among others) run without
# -race (the race runtime drops sync.Pool Puts, so floors don't hold
# there); the workers-1-vs-N bit-equality re-runs over
# the same pooled paths run under -race. The floor run's output is
# filtered, but the recipe exits with go test's status, so a failing
# floor fails the target.
alloc-smoke:
	@out=$$($(GO) test -run 'SteadyState' -v ./internal/privim/ ./internal/diffusion/ ./internal/im/ ./internal/obs/history/ ./internal/autodiff/ \
		./internal/parallel/ ./internal/tensor/ ./internal/gnn/ ./internal/graph/ 2>&1); \
	status=$$?; printf '%s\n' "$$out" | grep -v '^=== RUN'; exit $$status
	$(GO) test -race -run 'WorkerInvariant|BitExact|StreamStable' \
		./internal/privim/ ./internal/diffusion/ ./internal/im/ ./internal/nn/ ./internal/tensor/ ./internal/autodiff/

# The historical full sweep: every benchmark in the repo, once.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Laptop-scale reproduction of every table and figure (~minutes).
suite:
	$(GO) run ./cmd/imbench -repeats 2 all

# Paper-faithful settings: full-size datasets, k=50, 5 repeats (hours).
suite-paper:
	$(GO) run ./cmd/imbench -paper all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/viralmarketing
	$(GO) run ./examples/rumorblocking
	$(GO) run ./examples/modelzoo
	$(GO) run ./examples/maxcover
	$(GO) run ./examples/ldpseeding

# Fuzz the untrusted-input decoders for 60 s each: edge lists (alone,
# and each dialect against the line scanner it replaced), the graph
# decoder behind uploads and -graph files, the daemon's train-body
# admission check and query bodies, model checkpoint uploads,
# -alert-rules files, and training checkpoints. Minimizing a new input
# grown from the 4 KB training-checkpoint seed takes up to the default
# 60 s, which stalled that target; 1 s keeps it fuzzing.
fuzz:
	$(GO) test -fuzz='^FuzzReadEdgeList$$' -fuzztime=60s -run '^FuzzReadEdgeList$$' ./internal/graph/
	$(GO) test -fuzz='^FuzzEdgeListMatchesScanner$$' -fuzztime=60s -run '^FuzzEdgeListMatchesScanner$$' ./internal/graph/
	$(GO) test -fuzz='^FuzzSNAPMatchesScanner$$' -fuzztime=60s -run '^FuzzSNAPMatchesScanner$$' ./internal/graph/
	$(GO) test -fuzz='^FuzzGraphUpload$$' -fuzztime=60s -run '^FuzzGraphUpload$$' ./internal/serve/
	$(GO) test -fuzz='^FuzzTrainBody$$' -fuzztime=60s -run '^FuzzTrainBody$$' ./internal/serve/
	$(GO) test -fuzz='^FuzzQueryBody$$' -fuzztime=60s -run '^FuzzQueryBody$$' ./internal/serve/
	$(GO) test -fuzz='^FuzzLoad$$' -fuzztime=60s -run '^FuzzLoad$$' ./internal/gnn/
	$(GO) test -fuzz='^FuzzParseRules$$' -fuzztime=60s -run '^FuzzParseRules$$' ./internal/obs/history/
	$(GO) test -fuzz='^FuzzTrainCheckpoint$$' -fuzztime=60s -fuzzminimizetime=1s -run '^FuzzTrainCheckpoint$$' ./internal/privim/

# Durability suite under the race detector: atomic checkpoint files,
# kill-mid-train resume equivalence, corrupt-checkpoint fallback, and
# job-table replay/recovery in the serve layer.
crash-smoke:
	$(GO) test -race -run 'Checkpoint|Resume|Recover|Crash|Corrupt|Truncat|Replay|Interrupted|Atomic' \
		./internal/nn/ ./internal/privim/ ./internal/serve/

# Privacy-budget suite under the race detector: ledger reserve/commit/
# refund lifecycle, RDP composition tightness, bit-for-bit replay, and
# the serve layer's per-tenant admission + crash accounting.
budget-smoke:
	$(GO) test -race -run 'Budget|Ledger|Refund|Forfeit|Epsilon|Compos' \
		./internal/ledger/ ./internal/dp/ ./internal/serve/

# Cancellation suite under the race detector: parallel.For chunk-boundary
# preemption, cancel-and-resume bit-identity in training, typed
# CanceledError plumbing in diffusion/IM, and the serve layer's
# DELETE-running-job / drain-grace / partial-epsilon settlement e2e.
cancel-smoke:
	$(GO) test -race -run 'Cancel|Preempt|DrainGrace|SelectContext|EstimateContext' \
		./internal/parallel/ ./internal/obs/ ./internal/diffusion/ \
		./internal/im/ ./internal/privim/ ./internal/serve/

# Boot privimd on a throwaway port, probe /healthz and /metrics, shut down.
serve-smoke:
	@$(GO) build -o /tmp/privimd-smoke ./cmd/privimd
	@/tmp/privimd-smoke -addr 127.0.0.1:7399 & pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:7399/healthz >/dev/null 2>&1 && break; \
		sleep 0.1; \
	done; \
	curl -fsS http://127.0.0.1:7399/healthz && echo && \
	curl -fsS http://127.0.0.1:7399/metrics >/dev/null && \
	echo "serve-smoke: OK"; status=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	rm -f /tmp/privimd-smoke; exit $$status

# Alerting suite under the race detector (history rings, rule engine,
# triggered profiles, and the serve-layer ε burn-rate e2e), then a live
# check: boot privimd with an always-true heap threshold rule and a
# profile dir, and assert the alert fires on /v1/alerts, /v1/stats
# serves the series, and a pprof artifact lands in the ring.
alert-smoke:
	$(GO) test -race -run 'Alert|BurnRate|Rule|Profile|Stats|Tick|Ring' \
		./internal/obs/ ./internal/obs/history/ ./internal/serve/
	@$(GO) build -o /tmp/privimd-alert ./cmd/privimd
	@dir=$$(mktemp -d); \
	printf '[{"name":"heap-floor","metric":"go.heap_bytes","kind":"threshold","op":">=","value":1}]' > $$dir/rules.json; \
	/tmp/privimd-alert -addr 127.0.0.1:7398 -history-every 50ms \
		-alert-rules $$dir/rules.json -profile-dir $$dir/profiles & pid=$$!; \
	ok=1; \
	for i in $$(seq 1 100); do \
		curl -fsS http://127.0.0.1:7398/v1/alerts 2>/dev/null | grep -q heap-floor && ok=0 && break; \
		sleep 0.1; \
	done; \
	if [ $$ok -eq 0 ]; then \
		curl -fsS 'http://127.0.0.1:7398/v1/stats?metric=go.heap_bytes&window=1m' | grep -q '"points"' || ok=1; \
	fi; \
	if [ $$ok -eq 0 ]; then \
		ls $$dir/profiles/*.pprof >/dev/null 2>&1 || ok=1; \
	fi; \
	if [ $$ok -eq 0 ]; then echo "alert-smoke: OK"; else echo "alert-smoke: FAILED"; fi; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	rm -rf $$dir /tmp/privimd-alert; exit $$ok

# Tiny training run with -trace-out, then validate the emitted Chrome
# trace-event JSON with tracecat.
trace-smoke:
	@dir=$$(mktemp -d); \
	$(GO) run ./cmd/privim -preset email -scale 0.02 -mode non-private -iters 2 -k 2 \
		-trace-out $$dir/trace.json -journal $$dir/run.jsonl >/dev/null && \
	$(GO) run ./cmd/tracecat -check $$dir/trace.json && \
	$(GO) run ./cmd/tracecat -o $$dir/from-journal.json $$dir/run.jsonl && \
	$(GO) run ./cmd/tracecat -check $$dir/from-journal.json && \
	echo "trace-smoke: OK"; status=$$?; \
	rm -rf $$dir; exit $$status

clean:
	$(GO) clean ./...
