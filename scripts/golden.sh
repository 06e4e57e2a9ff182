#!/usr/bin/env bash
# Writes the stdout of every deterministic bench binary (all of bench/ except
# the host-timed bench_micro) to <out-dir>/<bench>.txt. The simulator is
# deterministic, so these transcripts are a behaviour oracle:
# `scripts/check.sh --golden` diffs a fresh run against scripts/golden/.
#
#   scripts/golden.sh <build-dir> <out-dir>
#
# The only host-time output, the "build ms" column of
# bench_ablation_beaconing, is masked to "#". Regenerate the committed
# transcripts (scripts/golden.sh build scripts/golden) only for an intended
# behaviour change, and say in CHANGES.md what changed and why.
set -euo pipefail

build_dir="$1"
out_dir="$2"
mkdir -p "$out_dir"

benches=(
  bench_table1_layers
  bench_fig3_local_plt
  bench_fig5_remote_plt
  bench_fig6_local_as_plt
  bench_ablation_proxy
  bench_ablation_handshake
  bench_ablation_path_selection
  bench_ablation_strictness
  bench_ablation_beaconing
  bench_ablation_multipath
  bench_ablation_failover
  bench_ablation_cache
  bench_ablation_qos
  bench_ablation_chaos
  bench_fleet_scale
)

for bench in "${benches[@]}"; do
  "$build_dir/bench/$bench" >"$out_dir/$bench.txt"
done

# Wall-clock build time: the last number before the "(signed...)" /
# "(unsigned)" tag on each table row.
sed -E -i 's/ +[0-9]+\.[0-9]+(  \([a-z+]+\))$/ #\1/' "$out_dir/bench_ablation_beaconing.txt"
