# Convenience wrappers around dune; `dune` remains the source of truth.

.PHONY: build test lint bench bench-replay bench-replay-gate bench-fleet bench-fleet-gate \
        bench-lint bench-swarm bench-swarm-gate bench-memo \
        bench-memo-gate bench-lifecycle bench-e2e-smoke examples clean

build:
	dune build @all

test:
	dune runtest --force

# Static audit of every bundled instrumented binary (nonzero on findings)
lint:
	dune exec bin/dialed_cli.exe -- lint --all

# Full paper regeneration (Table I, Fig. 6(a)-(c), ablations, ...)
bench:
	dune exec bench/main.exe

# Single-domain replay engine: reference vs optimized (BENCH_replay.json)
bench-replay:
	dune exec bench/main.exe -- replay

# CI perf gate: the SHA-NI SHA-256 kernel >= 4x the OCaml reference
# (self-skipping on CPUs without the SHA extensions)
bench-replay-gate:
	dune exec bench/main.exe -- replay-gate

# Just the fleet-verification throughput experiment (BENCH_fleet.json)
bench-fleet:
	dune exec bench/main.exe -- fleet

# CI soft perf gate: verify_batch on a long-lived pool >= 1.5x serial at
# batch 256 on >= 4 cores (self-skipping on smaller machines)
bench-fleet-gate:
	dune exec bench/main.exe -- fleet-gate

# Static-audit cost per binary (BENCH_lint.json)
bench-lint:
	dune exec bench/main.exe -- lint

# Pipelined-gateway saturation: swarm of simulated provers vs the raw
# engine stream rate (BENCH_swarm.json)
bench-swarm:
	dune exec bench/main.exe -- swarm

# CI perf gate: gateway within 1.5x of the engine. On >= 2 cores the
# baseline is the raw stream rate, and a 4096-session churn smoke must
# run clean; on 1 core the baseline is the co-located attest+replay
# ceiling (provers share the verifier's core).
bench-swarm-gate:
	dune exec bench/main.exe -- swarm-gate

# Verdict-memo repeat-ratio sweep: memo-on vs memo-off throughput at
# 1x/8x/64x log repetition (BENCH_memo.json)
bench-memo:
	dune exec bench/main.exe -- memo

# CI perf gate: memo-on >= 3x memo-off at a 64x repeat ratio. The win
# is replay elision, not parallelism, but sub-2-core runners are too
# noisy to gate on, so they self-skip like the swarm gate.
bench-memo-gate:
	dune exec bench/main.exe -- memo-gate

# Device lifecycle under load: revocation-to-quarantine latency in
# rounds and a staged rollout holding two firmware versions' plans hot
# in the LRU (BENCH_lifecycle.json)
bench-lifecycle:
	dune exec bench/main.exe -- lifecycle

# End-to-end gateway benchmark at 1 s per workload: the TCP gateway
# serves all four workloads and every verdict is checked; a wrong verdict
# exits non-zero (bench/e2e/README.md)
bench-e2e-smoke:
	dune build @bench/e2e/smoke

examples:
	dune exec examples/quickstart.exe
	dune exec examples/syringe_pump_attack.exe
	dune exec examples/fire_sensor_fleet.exe
	dune exec examples/ultrasonic_sweep.exe

clean:
	dune clean
