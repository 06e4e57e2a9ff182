#!/usr/bin/env bash
# Tier-1 verification: a plain build + ctest, followed by an ASan+UBSan
# instrumented build + ctest. Run from the repo root:
#
#   scripts/check.sh              # both builds
#   scripts/check.sh --fast       # plain build only (plus the knob lint:
#                                 # every config field needs a caller that
#                                 # sets it, scripts/knob_lint.py; and the
#                                 # instrument lint: src/ outside src/obs/
#                                 # never reads an instrument back by name —
#                                 # counter_value( / find_counter( /
#                                 # find_gauge( / find_histogram( — since
#                                 # each component resolves its fixed-name
#                                 # instruments once into handles)
#   scripts/check.sh --golden     # plain build, then run the 15
#                                 # deterministic bench binaries and diff
#                                 # their stdout against scripts/golden/
#                                 # (scripts/golden.sh writes them)
#   scripts/check.sh --sanitize   # sanitized build only (CI matrix leg)
#   scripts/check.sh --soak       # plain build, then loop the chaos + surge
#                                 # suites until SOAK_BUDGET_S (default 120 s)
#                                 # of wall clock is spent
#   scripts/check.sh --trace-lint # plain build, run the chaos bench with
#                                 # PAN_TRACE_DUMP set, lint the Chrome trace
#                                 # JSON it exports (structure, parent links,
#                                 # cross-hop coverage, path annotations)
#   scripts/check.sh --identity   # PAN_SANITIZE=ON build, then loop the
#                                 # identity-isolation suite (broker
#                                 # disjointness under rotation + link cuts)
#   scripts/check.sh --bench-smoke # plain build, then a short bench_micro run
#                                 # of the forwarding benches; fails if the
#                                 # zero-copy hop path allocates or is not
#                                 # faster than the legacy reparse pipeline,
#                                 # if timer re-arms leave more than one
#                                 # queued event, if a torn-down scope leaves
#                                 # any or allocates per schedule, or if an
#                                 # aged connection holds more than two live
#                                 # streams, or if SHA-256 does not run on the
#                                 # SHA-extensions kernel exactly when
#                                 # /proc/cpuinfo lists sha_ni (BM_Sha256's
#                                 # hw_kernel counter)
#   scripts/check.sh --fleet      # PAN_SANITIZE=ON build, then the proxy
#                                 # fleet suite + bench_fleet_scale --smoke;
#                                 # fails on any strict downgrade, deadline
#                                 # miss, or warm handoff < 5x cold recovery
#   scripts/check.sh --multiaccess # PAN_SANITIZE=ON build, then the
#                                 # multi-access suite + the multipath
#                                 # ablation bench; fails if intent-aware
#                                 # scheduling loses to intent-blind or a
#                                 # mid-load access cut misses a deadline
#   scripts/check.sh --obs        # PAN_SANITIZE=ON build, then the
#                                 # observability suites (metrics / exemplars
#                                 # / time-series / fleet plane) plus the
#                                 # chaos bench's metrics dump linted for
#                                 # prom grammar + exemplar resolution
set -euo pipefail

cd "$(dirname "$0")/.."

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
}

if [[ "${1:-}" == "--soak" ]]; then
  echo "==> soak: plain build, then chaos + surge loop"
  run_suite build
  budget="${SOAK_BUDGET_S:-120}"
  deadline=$(( $(date +%s) + budget ))
  iterations=0
  while (( $(date +%s) < deadline )); do
    ./build/tests/fault_test >/dev/null
    ./build/tests/robustness_test >/dev/null
    ./build/bench/bench_ablation_chaos >/dev/null
    iterations=$(( iterations + 1 ))
  done
  echo "==> soak passed (${iterations} iterations in <= ${budget}s)"
  exit 0
fi

if [[ "${1:-}" == "--trace-lint" ]]; then
  echo "==> trace-lint: chaos bench with PAN_TRACE_DUMP, then lint the exports"
  run_suite build
  dump_dir="$(mktemp -d)"
  trap 'rm -rf "$dump_dir"' EXIT
  PAN_TRACE_DUMP="$dump_dir" ./build/bench/bench_ablation_chaos
  # Every dump must be structurally sound; the baseline remote-world dump
  # must additionally show a cross-hop trace (client + reverse proxy under
  # one trace id) annotated with the SCION path fingerprint and ISD sequence.
  # (The bench also writes *.metrics.json / *.prom — the --obs leg lints
  # those; here keep the Chrome trace files only.)
  traces=()
  for f in "$dump_dir"/*.json; do
    [[ "$f" == *.metrics.json ]] || traces+=("$f")
  done
  python3 scripts/trace_lint.py "${traces[@]}"
  python3 scripts/trace_lint.py "$dump_dir"/chaos-baseline-on.json \
    --min-hops 2 --require-attr path --require-attr isd_seq
  echo "==> trace-lint passed"
  exit 0
fi

if [[ "${1:-}" == "--identity" ]]; then
  echo "==> identity: PAN_SANITIZE=ON build, identity-isolation suite"
  # The isolation invariant is memory-sensitive (pool retire/migrate on live
  # connections), so this leg always runs instrumented.
  cmake -B build-asan -S . -DPAN_SANITIZE=ON
  cmake --build build-asan -j
  ./build-asan/tests/identity_test
  echo "==> identity passed"
  exit 0
fi

if [[ "${1:-}" == "--fleet" ]]; then
  echo "==> fleet: PAN_SANITIZE=ON build, fleet suite + scale bench smoke"
  # Failover re-dispatch and warm-state import shuffle live proxy/resolver
  # objects, so this leg always runs instrumented. The bench exits nonzero
  # on any strict-guarantee loss (downgrade, deadline miss, shed at N>=4) or
  # a warm-vs-cold recovery ratio under 5x.
  cmake -B build-asan -S . -DPAN_SANITIZE=ON
  cmake --build build-asan -j
  ./build-asan/tests/fleet_test
  ./build-asan/bench/bench_fleet_scale --smoke
  echo "==> fleet passed"
  exit 0
fi

if [[ "${1:-}" == "--golden" ]]; then
  echo "==> golden: deterministic bench transcripts vs scripts/golden/"
  # The simulator is deterministic, so any diff is a behaviour change. The
  # transcripts change only together with a CHANGES.md note saying why.
  cmake -B build -S .
  cmake --build build -j
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
  scripts/golden.sh build "$out_dir"
  diff -ru scripts/golden "$out_dir"
  echo "==> golden passed"
  exit 0
fi

if [[ "${1:-}" == "--bench-smoke" ]]; then
  echo "==> bench-smoke: forwarding micro-benchmarks (zero-copy data plane)"
  run_suite build
  out="$(./build/bench/bench_micro \
    --benchmark_filter='ForwardHop|ScionHeaderViewParse|Histogram|TimeSeries|TimerRearm|ScopeTeardown|StreamAged|BM_Sha256' \
    --benchmark_min_time=0.1 \
    --benchmark_format=json)"
  echo "$out"
  # Contract checks, not absolute timings (CI machines vary): the zero-copy
  # pipeline must not allocate on the hop path — with or without the
  # forward-latency histogram — and must beat legacy pkt/s; histogram
  # recording (tagged or not) must be allocation-free too.
  python3 - "$out" <<'EOF'
import json, sys
runs = {b["name"]: b for b in json.loads(sys.argv[1])["benchmarks"]}
for hops in (3, 8):
    legacy = runs[f"BM_ForwardHopLegacy/{hops}"]
    zc = runs[f"BM_ForwardHopZeroCopy/{hops}"]
    inst = runs[f"BM_ForwardHopZeroCopyInstrumented/{hops}"]
    assert zc["allocs_per_forward"] == 0, f"zero-copy hop path allocates at {hops} hops"
    assert inst["allocs_per_forward"] == 0, \
        f"forward-latency telemetry allocates on the hop path at {hops} hops"
    ratio = zc["items_per_second"] / legacy["items_per_second"]
    print(f"{hops} hops: zero-copy {ratio:.2f}x legacy pkt/s")
    assert ratio > 1.0, f"zero-copy slower than legacy at {hops} hops ({ratio:.2f}x)"
for name in ("BM_HistogramRecord", "BM_HistogramRecordExemplar"):
    assert runs[name]["allocs_per_record"] == 0, f"{name} allocates per record"
    print(f"{name}: {runs[name]['items_per_second']:.3g} records/s, 0 allocs")
# Bounded long-lived state: work counts, independent of machine speed.
rearm = runs["BM_TimerRearm"]
assert rearm["queued_events"] == 1, \
    f"{rearm['iterations']} timer re-arms left {rearm['queued_events']} queued events"
assert rearm["event_slots"] == 1, f"timer re-arms grew the slot table to {rearm['event_slots']}"
assert rearm["allocs_per_rearm"] == 0, "timer re-arm allocates"
print(f"BM_TimerRearm: {rearm['iterations']} re-arms, 1 queued event in 1 slot, 0 allocs")
scope = runs["BM_ScopeTeardown/64"]
assert scope["queued_events"] == 0, \
    f"scope teardown left {scope['queued_events']} queued events"
assert scope["allocs_per_schedule"] == 0, "scheduling through a scope allocates"
print(f"BM_ScopeTeardown: {scope['iterations']} x 64 events, 0 queued after teardown, 0 allocs")
aged = runs["BM_StreamAged"]
assert aged["live_streams"] <= 2, \
    f"{aged['iterations']} exchanges left {aged['live_streams']} live streams"
print(f"BM_StreamAged: {aged['iterations']} exchanges, peak {aged['live_streams']:.0f} live streams")
# Kernel dispatch: a build that falls back to the portable SHA-256 kernel on
# a CPU with SHA extensions (or picks the hardware one without them) fails.
try:
    with open("/proc/cpuinfo") as cpuinfo:
        sha_ni = any(line.startswith("flags") and "sha_ni" in line.split()
                     for line in cpuinfo)
except OSError:
    sha_ni = False
sha_runs = {name: run for name, run in runs.items() if name.startswith("BM_Sha256/")}
assert sha_runs, "no BM_Sha256 runs in the bench output"
for name, run in sha_runs.items():
    assert run["hw_kernel"] == (1 if sha_ni else 0), \
        f"{name}: hw_kernel={run['hw_kernel']} but cpuinfo sha_ni={sha_ni}"
print(f"BM_Sha256: hw_kernel={int(sha_ni)}, matching cpuinfo sha_ni")
EOF
  echo "==> bench-smoke passed"
  exit 0
fi

if [[ "${1:-}" == "--multiaccess" ]]; then
  echo "==> multiaccess: PAN_SANITIZE=ON build, multi-access suite + ablation bench"
  # Mid-flight access failover re-dispatches live requests across SCION
  # stacks and the flap property suite hammers that path, so this leg always
  # runs instrumented. The bench exits nonzero when intent-aware scheduling
  # fails to beat the intent-blind ablation or a strict document misses its
  # deadline across the mid-load primary-access cut.
  cmake -B build-asan -S . -DPAN_SANITIZE=ON
  cmake --build build-asan -j
  ./build-asan/tests/multiaccess_test
  ./build-asan/bench/bench_ablation_multipath
  echo "==> multiaccess passed"
  exit 0
fi

if [[ "${1:-}" == "--obs" ]]; then
  echo "==> obs: PAN_SANITIZE=ON build, observability suites + metrics lint"
  # Exemplar slots, time-series rings, and fleet merges all shuffle
  # histogram state across replica restarts, so this leg always runs
  # instrumented. The chaos bench then exports per-scenario Chrome traces
  # plus /skip/metrics JSON and .prom expositions, and the linter checks
  # prom grammar end-to-end and that every exemplar trace id resolves to a
  # collected trace (the one-hop-to-/skip/trace/<id> promise).
  cmake -B build-asan -S . -DPAN_SANITIZE=ON
  cmake --build build-asan -j
  ./build-asan/tests/obs_test
  ./build-asan/tests/timeseries_test
  ./build-asan/tests/fleet_test
  ./build-asan/tests/proxy_test
  dump_dir="$(mktemp -d)"
  trap 'rm -rf "$dump_dir"' EXIT
  PAN_TRACE_DUMP="$dump_dir" ./build-asan/bench/bench_ablation_chaos >/dev/null
  for prom in "$dump_dir"/*.prom; do
    base="${prom%.prom}"
    python3 scripts/trace_lint.py "$base.json" \
      --metrics "$base.metrics.json" --prom "$prom"
  done
  echo "==> obs passed"
  exit 0
fi

if [[ "${1:-}" != "--sanitize" ]]; then
  echo "==> tier-1: plain build + ctest"
  # Static, so it runs before the build: a by-name read of an instrument
  # outside the obs layer is how a mirror of the registry creeps back in.
  if grep -rnE '(counter_value|find_counter|find_gauge|find_histogram)\(' src \
      --include='*.cpp' --include='*.hpp' | grep -v '^src/obs/'; then
    echo "error: instrument read back by name outside src/obs/ (use its handle)" >&2
    exit 1
  fi
  run_suite build
  python3 scripts/knob_lint.py
fi

if [[ "${1:-}" != "--fast" ]]; then
  echo "==> sanitized: PAN_SANITIZE=ON build + ctest"
  run_suite build-asan -DPAN_SANITIZE=ON
fi

echo "==> all checks passed"
