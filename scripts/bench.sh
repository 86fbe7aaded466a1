#!/usr/bin/env bash
# scripts/bench.sh — measure the simulation core and the model datapath,
# emitting BENCH_sim.json: engine microbenchmarks (ns/event, allocs/event,
# events/sec) for the bucketed scheduler and the reference heap it
# replaced, model-level datapath benchmarks (ns and allocs per access
# pattern, internal/gpu), the wall-clock time of regenerating every
# experiment at -quick scale, and an append-only `history` array that
# preserves the headline numbers across runs/PRs. The snapshot and each
# history entry carry a `host` fingerprint (nproc, CPU model, the
# GOMAXPROCS the benchmarks ran at, Go version), so numbers from
# different machines are not compared as if they were a trend. See
# docs/PERF.md for how to read the output.
#
#   scripts/bench.sh            # full run: 1s benchtime + the -quick suite
#   scripts/bench.sh --fast     # CI smoke: 100ms benchtime, no -quick suite
#   scripts/bench.sh --no-quick # full benchtime, skip the -quick suite
#   scripts/bench.sh --fabric   # also time fig3 locally vs a 2-worker
#                               # sweep-fabric cluster (needs curl + jq)
#
# BENCHTIME=2s scripts/bench.sh overrides the benchmark time.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
RUN_QUICK=1
RUN_FABRIC=0
for arg in "$@"; do
  case "$arg" in
    --fast) BENCHTIME=100ms; RUN_QUICK=0 ;;
    --no-quick) RUN_QUICK=0 ;;
    --fabric) RUN_FABRIC=1 ;;
    *) echo "usage: scripts/bench.sh [--fast] [--no-quick] [--fabric]" >&2; exit 2 ;;
  esac
done

out=BENCH_sim.json
host_nproc=$(nproc)
host_cpu=$(awk -F: '/^model name/ { sub(/^[ \t]+/, "", $2); print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
host_cpu=${host_cpu:-$(uname -m)}
engbench=$(go test -run '^$' -bench Engine -benchmem -benchtime "$BENCHTIME" ./internal/sim)
printf '%s\n' "$engbench"
modelbench=$(go test -run '^$' -bench Model -benchmem -benchtime "$BENCHTIME" ./internal/gpu)
printf '%s\n' "$modelbench"

quick_wall=null
fig8_serial_wall=null
fig8_shards4_wall=null
fig3_obs_off_wall=null
fig3_obs_on_wall=null
obs_overhead_pct=null
if [ "$RUN_QUICK" = 1 ]; then
  echo "timing numagpu -quick all (full 15-experiment suite)..." >&2
  bin=$(mktemp -t numagpu.XXXXXX)
  go build -o "$bin" ./cmd/numagpu
  start=$(date +%s%N)
  "$bin" -quick all > /dev/null
  end=$(date +%s%N)
  quick_wall=$(awk -v s="$start" -v e="$end" 'BEGIN { printf "%.1f", (e-s)/1e9 }')

  # Parallel-engine wall clock: fig8 serial vs -shards 4 on the same
  # binary, byte-compared. On a single-CPU runner this measures sharding
  # overhead, not speedup — the cmp is the point (see docs/PERF.md).
  echo "timing numagpu -quick fig8: serial vs -shards 4 (byte-compared)..." >&2
  pq=$(mktemp -d -t parbench.XXXXXX)
  start=$(date +%s%N)
  "$bin" -quick -j 1 -golden fig8 > "$pq/fig8.serial"
  end=$(date +%s%N)
  fig8_serial_wall=$(awk -v s="$start" -v e="$end" 'BEGIN { printf "%.1f", (e-s)/1e9 }')
  start=$(date +%s%N)
  "$bin" -quick -j 1 -shards 4 -golden fig8 > "$pq/fig8.shards4"
  end=$(date +%s%N)
  fig8_shards4_wall=$(awk -v s="$start" -v e="$end" 'BEGIN { printf "%.1f", (e-s)/1e9 }')
  cmp "$pq/fig8.serial" "$pq/fig8.shards4"
  rm -rf "$pq"

  # Observability sampling overhead: fig3 with the series probes on
  # (no -trace: tracing additionally writes a multi-MB trace.json per
  # run, which is artifact I/O, not sampling cost) vs off on the same
  # binary. The obs contract is byte-inert output (the cmp) and a
  # sampling budget of < 2% wall (see docs/OBSERVABILITY.md);
  # obs_overhead_pct lands in the history array so regressions in the
  # sampling path show up as a trajectory, not an anecdote. Runs
  # alternate off/on three times and the minima are compared, since a
  # single pair is dominated by machine noise on shared runners.
  echo "timing numagpu -quick fig3: sampling off vs -obs-dir, min of 3 (byte-compared)..." >&2
  od=$(mktemp -d -t obsbench.XXXXXX)
  for _ in 1 2 3; do
    start=$(date +%s%N)
    "$bin" -quick -j 1 -golden fig3 > "$od/fig3.off"
    end=$(date +%s%N)
    w=$(awk -v s="$start" -v e="$end" 'BEGIN { printf "%.1f", (e-s)/1e9 }')
    fig3_obs_off_wall=$(awk -v a="$fig3_obs_off_wall" -v b="$w" \
      'BEGIN { printf "%.1f", (a == "null" || b+0 < a+0 ? b : a) }')
    rm -rf "$od/obs"
    start=$(date +%s%N)
    "$bin" -quick -j 1 -golden -obs-dir "$od/obs" fig3 > "$od/fig3.on"
    end=$(date +%s%N)
    w=$(awk -v s="$start" -v e="$end" 'BEGIN { printf "%.1f", (e-s)/1e9 }')
    fig3_obs_on_wall=$(awk -v a="$fig3_obs_on_wall" -v b="$w" \
      'BEGIN { printf "%.1f", (a == "null" || b+0 < a+0 ? b : a) }')
    cmp "$od/fig3.off" "$od/fig3.on"
  done
  obs_overhead_pct=$(awk -v off="$fig3_obs_off_wall" -v on="$fig3_obs_on_wall" \
    'BEGIN { printf "%.1f", (off > 0 ? (on-off)/off*100 : 0) }')
  echo "obs sampling overhead: fig3 ${fig3_obs_off_wall}s off vs ${fig3_obs_on_wall}s on (${obs_overhead_pct}%)" >&2
  rm -rf "$od"
  rm -f "$bin"
fi

# --fabric: boot one coordinator + two workers on loopback and time
# `numagpu -quick fig3` executed locally (-j 1) vs through the fabric
# (-remote, -j 8). The two runs are byte-compared, so the timing doubles
# as a correctness check. Results land under the "fabric" key and in the
# history entry; see docs/PERF.md ("The sweep fabric").
fabric_json=null
if [ "$RUN_FABRIC" = 1 ]; then
  if ! command -v curl >/dev/null 2>&1 || ! command -v jq >/dev/null 2>&1; then
    echo "--fabric needs curl and jq; skipping the fabric timing" >&2
  else
    echo "timing the sweep fabric (fig3: local -j 1 vs coordinator + 2 workers)..." >&2
    gpubin=$(mktemp -t numagpu.XXXXXX)
    gpudbin=$(mktemp -t numagpud.XXXXXX)
    go build -o "$gpubin" ./cmd/numagpu
    go build -o "$gpudbin" ./cmd/numagpud
    workdir=$(mktemp -d -t fabric-bench.XXXXXX)
    coord=127.0.0.1:8397
    fabric_pids=()
    cleanup_fabric() {
      kill "${fabric_pids[@]}" 2>/dev/null || true
      wait "${fabric_pids[@]}" 2>/dev/null || true
      rm -f "$gpubin" "$gpudbin"
      rm -rf "$workdir"
    }
    trap cleanup_fabric EXIT

    "$gpudbin" -addr "$coord" -cache "$workdir/coord-cache" >"$workdir/coord.log" 2>&1 &
    fabric_pids+=($!)
    "$gpudbin" -addr 127.0.0.1:8398 -worker -coordinator-url "http://$coord" -window 2 >"$workdir/w1.log" 2>&1 &
    fabric_pids+=($!)
    "$gpudbin" -addr 127.0.0.1:8399 -worker -coordinator-url "http://$coord" -window 2 >"$workdir/w2.log" 2>&1 &
    fabric_pids+=($!)
    for _ in $(seq 100); do
      n=$(curl -fs "http://$coord/v1/fabric" 2>/dev/null | jq '.workers | length' 2>/dev/null || echo 0)
      [ "$n" = 2 ] && break
      sleep 0.1
    done
    if [ "$n" != 2 ]; then
      echo "fabric workers never registered (see $workdir/*.log)" >&2
      exit 1
    fi

    start=$(date +%s%N)
    "$gpubin" -quick -j 1 -golden fig3 > "$workdir/fig3.local"
    end=$(date +%s%N)
    local_wall=$(awk -v s="$start" -v e="$end" 'BEGIN { printf "%.1f", (e-s)/1e9 }')

    start=$(date +%s%N)
    "$gpubin" -quick -j 8 -golden -remote "http://$coord" fig3 > "$workdir/fig3.remote"
    end=$(date +%s%N)
    cluster_wall=$(awk -v s="$start" -v e="$end" 'BEGIN { printf "%.1f", (e-s)/1e9 }')

    cmp "$workdir/fig3.local" "$workdir/fig3.remote"
    shards=$(curl -fs "http://$coord/metrics" | awk '$1 == "numagpud_fabric_shards_total" {print $2}')
    cleanup_fabric
    trap - EXIT
    fabric_json=$(printf '{"workers": 2, "fig3_unique_runs": %s, "local_j1_fig3_wall_seconds": %s, "cluster2_fig3_wall_seconds": %s}' \
      "${shards:-0}" "$local_wall" "$cluster_wall")
    echo "fabric: fig3 local -j 1 ${local_wall}s vs 2-worker cluster ${cluster_wall}s (byte-identical, ${shards:-0} unique runs)" >&2
  fi
fi

current=$(printf '%s\n%s\n' "$engbench" "$modelbench" | awk \
  -v quick_wall="$quick_wall" \
  -v fig8_serial_wall="$fig8_serial_wall" \
  -v fig8_shards4_wall="$fig8_shards4_wall" \
  -v fig3_obs_off_wall="$fig3_obs_off_wall" \
  -v fig3_obs_on_wall="$fig3_obs_on_wall" \
  -v obs_overhead_pct="$obs_overhead_pct" \
  -v benchtime="$BENCHTIME" \
  -v goversion="$(go env GOVERSION)" \
  -v nproc="$host_nproc" \
  -v cpu="$host_cpu" \
  -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^Benchmark/ {
  # go test appends -GOMAXPROCS to the name unless it is 1.
  gomaxprocs = match($1, /-[0-9]+$/) ? substr($1, RSTART + 1) : 1
  name = $1; sub(/-[0-9]+$/, "", name)
  for (i = 2; i < NF; i++) {
    if ($(i+1) == "ns/op")     ns[name] = $i
    if ($(i+1) == "allocs/op") al[name] = $i
  }
}
function entry(name,    s) {
  s = sprintf("{\"ns_per_event\": %s, \"allocs_per_event\": %s", ns[name], al[name])
  if (ns[name] + 0 > 0)
    s = s sprintf(", \"events_per_sec\": %.0f", 1e9 / ns[name])
  return s "}"
}
function mentry(name) {
  return sprintf("{\"ns_per_op\": %s, \"allocs_per_op\": %s}", ns[name], al[name])
}
END {
  printf "{\n"
  printf "  \"generated_by\": \"scripts/bench.sh\",\n"
  printf "  \"date\": \"%s\",\n", date
  printf "  \"go\": \"%s\",\n", goversion
  gsub(/[\\"]/, "", cpu)
  printf "  \"host\": {\"nproc\": %d, \"cpu\": \"%s\", \"gomaxprocs\": %d, \"go\": \"%s\"},\n", nproc, cpu, gomaxprocs, goversion
  printf "  \"benchtime\": \"%s\",\n", benchtime
  printf "  \"engine\": {\n"
  printf "    \"steady_state\": %s,\n",   entry("BenchmarkEngineSteadyState")
  printf "    \"mixed_delays\": %s,\n",   entry("BenchmarkEngineMixedDelays")
  printf "    \"same_cycle_fifo\": %s,\n", entry("BenchmarkEngineSameCycleFIFO")
  printf "    \"schedule_arg\": %s,\n",   entry("BenchmarkEngineScheduleArg")
  printf "    \"far_future\": %s\n",      entry("BenchmarkEngineFarFuture")
  printf "  },\n"
  printf "  \"reference_engine\": {\n"
  printf "    \"steady_state\": %s,\n", entry("BenchmarkReferenceEngineSteadyState")
  printf "    \"mixed_delays\": %s,\n", entry("BenchmarkReferenceEngineMixedDelays")
  printf "    \"far_future\": %s\n",    entry("BenchmarkReferenceEngineFarFuture")
  printf "  },\n"
  printf "  \"speedup_steady_state\": %.2f,\n", ns["BenchmarkReferenceEngineSteadyState"] / ns["BenchmarkEngineSteadyState"]
  printf "  \"speedup_mixed_delays\": %.2f,\n", ns["BenchmarkReferenceEngineMixedDelays"] / ns["BenchmarkEngineMixedDelays"]
  printf "  \"parallel\": {\n"
  printf "    \"windowed_1shard\": %s,\n", entry("BenchmarkParallelEngineShards1")
  printf "    \"windowed_2shard\": %s,\n", entry("BenchmarkParallelEngineShards2")
  printf "    \"windowed_4shard\": %s,\n", entry("BenchmarkParallelEngineShards4")
  printf "    \"lockstep_4shard\": %s,\n", entry("BenchmarkParallelEngineLockstep4")
  printf "    \"fig8_quick_serial_wall_seconds\": %s,\n", fig8_serial_wall
  printf "    \"fig8_quick_shards4_wall_seconds\": %s\n", fig8_shards4_wall
  printf "  },\n"
  printf "  \"model\": {\n"
  printf "    \"l1_hit\": %s,\n",         mentry("BenchmarkModelL1Hit")
  printf "    \"l2_hit\": %s,\n",         mentry("BenchmarkModelL2Hit")
  printf "    \"l2_miss\": %s,\n",        mentry("BenchmarkModelL2Miss")
  printf "    \"remote_read\": %s,\n",    mentry("BenchmarkModelRemoteRead")
  printf "    \"store\": %s,\n",          mentry("BenchmarkModelStore")
  printf "    \"mshr_merge\": %s,\n",     mentry("BenchmarkModelMSHRMerge")
  printf "    \"socket_workload\": %s\n", mentry("BenchmarkModelSocketWorkload")
  printf "  },\n"
  printf "  \"obs\": {\n"
  printf "    \"fig3_quick_wall_off_seconds\": %s,\n", fig3_obs_off_wall
  printf "    \"fig3_quick_wall_on_seconds\": %s,\n", fig3_obs_on_wall
  printf "    \"overhead_pct\": %s\n", obs_overhead_pct
  printf "  },\n"
  printf "  \"quick_all_wall_seconds\": %s\n", quick_wall
  printf "}\n"
}')

# Merge with the previous snapshot: model_pre_refactor is preserved
# verbatim (the measured "before" side of the datapath rewrite), and a
# headline entry is appended to the history array so the perf trajectory
# across PRs survives regeneration. Without jq (or with a corrupt
# previous file) the merge degrades to a fresh snapshot.
if command -v jq >/dev/null 2>&1; then
  prev='{}'
  if [ -f "$out" ] && jq -e . "$out" >/dev/null 2>&1; then
    prev=$(cat "$out")
  fi
  printf '%s' "$current" | jq --argjson prev "$prev" --argjson fabric "$fabric_json" '
    . as $cur
    | $cur
    + (if $prev.model_pre_refactor then {model_pre_refactor: $prev.model_pre_refactor} else {} end)
    + (if $fabric != null then {fabric: $fabric}
       elif $prev.fabric then {fabric: $prev.fabric}
       else {} end)
    + {history: (($prev.history // []) + [({
        date: $cur.date,
        host: $cur.host,
        benchtime: $cur.benchtime,
        quick_all_wall_seconds: $cur.quick_all_wall_seconds,
        engine_steady_ns_per_event: $cur.engine.steady_state.ns_per_event,
        parallel_windowed4_ns_per_event: $cur.parallel.windowed_4shard.ns_per_event,
        parallel_lockstep4_ns_per_event: $cur.parallel.lockstep_4shard.ns_per_event,
        fig8_quick_shards4_wall_seconds: $cur.parallel.fig8_quick_shards4_wall_seconds,
        obs_overhead_pct: $cur.obs.overhead_pct,
        model_l1_hit_ns: $cur.model.l1_hit.ns_per_op,
        model_l2_miss_ns: $cur.model.l2_miss.ns_per_op,
        model_mshr_merge_ns: $cur.model.mshr_merge.ns_per_op,
        model_socket_workload_ns: $cur.model.socket_workload.ns_per_op
      } + (if $fabric != null then {
        fabric_local_j1_fig3_wall_seconds: $fabric.local_j1_fig3_wall_seconds,
        fabric_cluster2_fig3_wall_seconds: $fabric.cluster2_fig3_wall_seconds
      } else {} end))])}' > "$out.tmp"
  mv "$out.tmp" "$out"
else
  echo "jq not found: writing snapshot without history preservation" >&2
  printf '%s\n' "$current" > "$out"
fi

echo "wrote $out" >&2
cat "$out"
