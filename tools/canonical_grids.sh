#!/usr/bin/env bash
# The canonical output grids of dcn_run, written one file per grid:
#
#   tools/canonical_grids.sh <dcn_run> <out_dir> <jobs>
#
# <jobs> is both the batch --jobs and the serve --workers count. Every
# file must be byte-identical across job counts (CI compares jobs 1 and
# 8) and across commits that claim not to change output (CI compares
# the head against the base commit's dcn_run). Exits non-zero when a
# run fails; a grid whose cells do not all validate still writes its
# file and fails the script.
set -euo pipefail

dcn_run=$1
out=$2
jobs=$3
mkdir -p "$out"

# Offline + online grid at default (infinite) capacity: the offline
# solvers have no admission control, so a finite cap they were not
# sized for would legitimately fail them. The paper-facing ablations
# (mcf_paper, mcf_plain, sp_mcf, ecmp_mcf) ride along so their output
# is covered too.
"$dcn_run" --solver mcf,mcf_paper,mcf_plain,sp_mcf,ecmp_mcf,dcfsr,edf,greedy,online_dcfsr,online_greedy \
  --scenario fat_tree/paper,leaf_spine/incast,fat_tree/poisson \
  --seeds 1,2 --jobs "$jobs" --canonical > "$out/offline.txt"

# Every grid above runs the default alpha 2, sigma 0 model; this one
# covers the kinked (sigma > 0) and cubic envelope branches of the
# Frank-Wolfe cost.
"$dcn_run" --solver mcf,mcf_paper,dcfsr,online_dcfsr_flat,oracle_dcfsr \
  --scenario fat_tree/paper,bcube/paper --seeds 1,2 \
  --alpha 3 --sigma 1 --jobs "$jobs" --canonical > "$out/alpha3.txt"

# Online-only grid at finite capacity: admission control, the EDF and
# per-flow fallbacks, the dual-order hindsight oracle, the windowed +
# epoch-batched configuration (online_dcfsr_flat) and the re-rating
# configuration (online_dcfsr_preempt). Decision latencies are wall
# clock, so byte identity also proves they never leak into canonical
# output.
"$dcn_run" --solver online_dcfsr,online_dcfsr_flat,online_dcfsr_preempt,online_dcfsr_sharded,online_greedy,oracle_dcfsr \
  --scenario fat_tree/poisson,leaf_spine/hadoop \
  --seeds 1,2 --capacity 3 --jobs "$jobs" --canonical > "$out/online.txt"

# The tight capacity where re-rating actually commits (2.5: arrival
# densities ~1-2 leave repack headroom). The hadoop cells re-rate flows
# to completion, so their departures gap checks run out of survivors
# and must be skipped. online_greedy rides along: at 2.5 its EDF
# fallback fills 1-5 arrivals per cell.
"$dcn_run" --solver online_dcfsr_flat,online_dcfsr_preempt,online_greedy \
  --scenario fat_tree/poisson --seeds 1,2,3 --flows 24 \
  --capacity 2.5 --jobs "$jobs" --canonical > "$out/preempt.txt"
"$dcn_run" --solver online_dcfsr_preempt \
  --scenario fat_tree/hadoop --seeds 2,4 --flows 300 \
  --capacity 3 --jobs "$jobs" --canonical >> "$out/preempt.txt"

# Sustained-stream service mode: the deterministic counters ("serve
# done:" — admitted set sizes, resolves, index health); the wall-clock
# and RSS line is left out. The hadoop --rerate run re-rates flows to
# completion inside the shard groups (the empty gap-check path).
"$dcn_run" --serve --scenario fat_tree/poisson --seed 1 \
  --arrivals 300 --rate 6 --capacity 3 --flush-every 0 \
  --workers "$jobs" | grep '^serve done:' > "$out/serve.txt"
"$dcn_run" --serve --scenario fat_tree8/hadoop --seed 101 \
  --arrivals 140 --rate 8 --capacity 3 --flush-every 0 --rerate \
  --workers "$jobs" | grep '^serve done:' >> "$out/serve.txt"
