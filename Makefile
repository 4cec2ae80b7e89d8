# Convenience targets; `make ci` is the one the checks run.

.PHONY: all build test ci fmt clean bench-smoke serve-smoke

all: build

build:
	dune build @all

test:
	dune runtest

# One tiny traced iteration of every experiment: proves each bench still
# executes end to end (non-zero exit fails the target) and that the trace
# file is produced. Runs in seconds.
BENCH_EXPERIMENTS = example real-data fig14 fig15-16 fig17 fig18 ablation par cache chaos
bench-smoke: build
	@tmp=$$(mktemp -d) && \
	trap 'rm -rf "$$tmp"' EXIT && \
	for exp in $(BENCH_EXPERIMENTS); do \
	  echo "bench-smoke: $$exp"; \
	  dune exec bench/main.exe -- --smoke --trace "$$tmp/$$exp.json" --only "$$exp" \
	    > "$$tmp/$$exp.out" || { echo "bench-smoke: $$exp FAILED"; cat "$$tmp/$$exp.out"; exit 1; }; \
	  test -s "$$tmp/$$exp.json" || { echo "bench-smoke: $$exp wrote no trace"; exit 1; }; \
	done && \
	echo "bench-smoke: all experiments passed"

# Serve gate: boot stratrec-serve on a throwaway Unix socket, drive a
# mixed-tenant workload through the bundled --connect line client,
# scrape OpenMetrics over the same socket, and shut down cleanly. The
# grep assertions pin the zero-leak invariants: every accepted request
# was triaged (accepted == epoch_requests, no admission leak), the
# queue drained to zero, and the socket was unlinked on exit. A tick
# that would overflow the daemon clock must be answered with a typed
# error and leave the socket loop serving, and the clean session must
# count no transport fault (a short write or EAGAIN is not one). The
# first daemon runs at two
# domains, and all four of its submits need ADPaR, so its triage is
# computed sharded and cached; the fourth repeats the first one's shape
# in a second epoch, so both its lookups hit the triage cache. The
# second daemon, whose deploys all fail, also gets a tenant spelled as a
# UTF-16 surrogate-pair escape, and must ack it as the raw 4-byte UTF-8
# character. Each daemon counts as ready once a --connect ping comes back
# pong: the socket path exists from bind(), before listen(), so waiting
# for the path alone lets the first client be refused. A ping moves no
# asserted counter. Uses the built binary directly so client and server
# never race for the dune build lock.
SERVE_BIN = ./_build/default/bin/stratrec_serve.exe
serve-smoke: build
	@tmp=$$(mktemp -d); sock="$$tmp/serve.sock"; \
	$(SERVE_BIN) --socket "$$sock" --epoch-requests 3 --domains 2 & pid=$$!; \
	trap 'rm -rf "$$tmp"; kill $$pid $$pid2 2>/dev/null' EXIT; \
	ready=; for i in $$(seq 1 50); do \
	  printf '{"op":"ping"}\n' | $(SERVE_BIN) --connect --socket "$$sock" 2>/dev/null \
	    | grep -q '"status":"pong"' && { ready=1; break; }; \
	  sleep 0.1; done; \
	test -n "$$ready" || { echo "serve-smoke: daemon never answered a ping"; exit 1; }; \
	printf '%s\n' \
	  '{"op":"ping"}' \
	  'GET health' \
	  '{"op":"submit","id":1,"params":"0.9,0.2,0.3","k":2,"tenant":"acme"}' \
	  '{"op":"tick","hours":1e308}' \
	  '{"op":"submit","id":2,"params":"0.6,0.6,0.6","k":2,"tenant":"beta"}' \
	  '{"op":"submit","id":3,"params":"0.8,0.3,0.4","k":2,"tenant":"acme"}' \
	  '{"op":"flush"}' \
	  '{"op":"submit","id":4,"params":"0.9,0.2,0.3","k":2,"tenant":"beta"}' \
	  '{"op":"flush"}' \
	  'GET metrics' \
	  '{"op":"shutdown"}' \
	  | $(SERVE_BIN) --connect --socket "$$sock" > "$$tmp/out" \
	  || { echo "serve-smoke: client failed"; cat "$$tmp/out"; exit 1; }; \
	wait $$pid || { echo "serve-smoke: server exited non-zero"; exit 1; }; \
	test ! -e "$$sock" || { echo "serve-smoke: socket not unlinked on shutdown"; exit 1; }; \
	grep -q '"status":"shutting-down"' "$$tmp/out" \
	  || { echo "serve-smoke: no clean shutdown response"; cat "$$tmp/out"; exit 1; }; \
	grep -q '"status":"health","state":"ready"' "$$tmp/out" \
	  || { echo "serve-smoke: fresh daemon not ready"; cat "$$tmp/out"; exit 1; }; \
	grep -q '^{"ok":false,"status":"error","error":"tick: ' "$$tmp/out" \
	  || { echo "serve-smoke: overflowing tick not answered typed"; cat "$$tmp/out"; exit 1; }; \
	test "$$(grep -c '"status":"completed"' "$$tmp/out")" = 4 \
	  || { echo "serve-smoke: expected 4 completed responses"; cat "$$tmp/out"; exit 1; }; \
	test "$$(grep -c '"lineage":{' "$$tmp/out")" = 4 \
	  || { echo "serve-smoke: completed responses missing lineage"; cat "$$tmp/out"; exit 1; }; \
	test "$$(grep -c '"outcome":"alternative"' "$$tmp/out")" = 4 \
	  || { echo "serve-smoke: expected 4 ADPaR alternatives"; cat "$$tmp/out"; exit 1; }; \
	grep -q '^serve_accepted_total 4$$' "$$tmp/out" \
	  || { echo "serve-smoke: accepted_total != 4"; cat "$$tmp/out"; exit 1; }; \
	grep -q '^serve_epoch_requests_total 4$$' "$$tmp/out" \
	  || { echo "serve-smoke: triaged != accepted (admission leak)"; cat "$$tmp/out"; exit 1; }; \
	grep -q '^serve_queue_depth 0$$' "$$tmp/out" \
	  || { echo "serve-smoke: queue not drained"; cat "$$tmp/out"; exit 1; }; \
	grep -q '^serve_requests_window_count 4$$' "$$tmp/out" \
	  || { echo "serve-smoke: sliding window missed the requests"; cat "$$tmp/out"; exit 1; }; \
	grep -q '^cache_hits_total 2$$' "$$tmp/out" \
	  || { echo "serve-smoke: the repeated shape did not hit the cache twice"; cat "$$tmp/out"; exit 1; }; \
	grep -q '^cache_misses_total 6$$' "$$tmp/out" \
	  || { echo "serve-smoke: expected 6 cache misses (3 shapes x 2 lookups)"; cat "$$tmp/out"; exit 1; }; \
	grep -q '^serve_io_errors_total 0$$' "$$tmp/out" \
	  || { echo "serve-smoke: a clean session counted transport faults"; cat "$$tmp/out"; exit 1; }; \
	sock2="$$tmp/serve2.sock"; \
	$(SERVE_BIN) --socket "$$sock2" --epoch-requests 8 --faults no-show=1 & pid2=$$!; \
	ready=; for i in $$(seq 1 50); do \
	  printf '{"op":"ping"}\n' | $(SERVE_BIN) --connect --socket "$$sock2" 2>/dev/null \
	    | grep -q '"status":"pong"' && { ready=1; break; }; \
	  sleep 0.1; done; \
	test -n "$$ready" || { echo "serve-smoke: second daemon never answered a ping"; exit 1; }; \
	printf '%s\n' \
	  '{"op":"submit","id":1,"params":"0.5,0.9,0.9","k":2}' \
	  '{"op":"submit","id":2,"params":"0.6,0.8,0.8","k":2}' \
	  '{"op":"submit","id":3,"params":"0.5,0.8,0.9","k":2}' \
	  '{"op":"submit","id":4,"params":"0.5,0.8,0.8","k":2,"tenant":"acme\ud83d\ude00"}' \
	  '{"op":"flush"}' \
	  'GET health' \
	  '{"op":"shutdown"}' \
	  | $(SERVE_BIN) --connect --socket "$$sock2" > "$$tmp/out2" \
	  || { echo "serve-smoke: breaker client failed"; cat "$$tmp/out2"; exit 1; }; \
	wait $$pid2 || { echo "serve-smoke: breaker server exited non-zero"; exit 1; }; \
	grep -q '"status":"health","state":"degraded","reasons":\["breaker-open"\]' "$$tmp/out2" \
	  || { echo "serve-smoke: forced breaker-open not reflected in GET health"; cat "$$tmp/out2"; exit 1; }; \
	grep -qF "$$(printf '"status":"accepted","id":4,"tenant":"acme\360\237\230\200"')" "$$tmp/out2" \
	  || { echo "serve-smoke: a surrogate-pair tenant was not acked as raw UTF-8"; cat "$$tmp/out2"; exit 1; }; \
	echo "serve-smoke: daemon served, scraped, degraded under faults and shut down cleanly"

# Full gate: everything compiles (libraries, CLI, examples, benches),
# every test passes (unit, property, cram, example smoke-runs), every
# benchmark still runs (one smoke iteration, traced), the daemon serves
# over a real socket, and the tree carries no formatting drift. The
# formatting check only runs when ocamlformat is on PATH (the @fmt alias
# needs it for .ml files); without it the build and tests still gate.
# Performance regressions are gated by perfbench/ (BENCHMARK.json).
ci:
	dune build @all
	dune runtest
	$(MAKE) bench-smoke
	$(MAKE) serve-smoke
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  echo "checking formatting drift"; \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping the formatting check"; \
	fi

fmt:
	dune fmt

clean:
	dune clean
