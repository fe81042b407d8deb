#!/usr/bin/env bash
# Distributed end-to-end gate: a 1-coordinator + 3-worker gpsd fleet over
# a small universe must produce a merged inventory byte-identical to the
# single-process 4-shard run, the single-process checkpoint resumed at 1,
# 2, 3 and 8 shards must rewrite byte-identical checkpoint and inventory
# files (re-sharding is a resume, no rescan), and the inventory query API
# must serve identical answers from the single process, the distributed
# coordinator, and a standalone GPSV file — totals matching the merged
# inventory exactly.
#
# The coordinator also exports its replication feed: two read replicas
# subscribe and must serve /v1 responses byte-identical to the origin's
# (bodies and ETags) at every epoch, one replica is killed and restarted
# mid-run and must re-converge, and a /v1/watch consumer accumulating
# the NDJSON change feed must reconstruct the final inventory exactly —
# byte-identical to the coordinator's -inventory artifact. Replica A
# re-exports the feed and a second-tier replica C subscribes to A, not to
# the origin: the chained case, and the only end-to-end run of a replica
# re-serving the delta bytes it applied.
#
# CI runs this under `timeout 300` so a wedged worker fails the job
# instead of hanging it; everything the run produces lands in $DIR, which
# CI uploads as an artifact on failure.
set -euo pipefail

BIN=${BIN:-./gpsd}
DIR=${DIR:-e2e}
mkdir -p "$DIR"

# -parallelism 1 pins the per-shard compute order so budget cutoffs are
# deterministic; the finite budget makes the slicing path load-bearing.
COMMON=(-seed 7 -prefixes 8 -density 0.02 -seed-fraction 0.05
        -epochs 3 -budget 60000 -shards 4 -parallelism 1)

pids=()
cleanup() { kill "${pids[@]}" 2>/dev/null || true; }
trap cleanup EXIT

# wait_stats URL EPOCH: poll until the served stats report the epoch.
wait_stats() {
  for _ in $(seq 1 150); do
    if curl -fsS "$1/v1/stats" 2>/dev/null | grep -q "\"epoch\":$2,"; then
      return 0
    fi
    sleep 0.2
  done
  echo "server at $1 never served epoch $2" >&2
  return 1
}

# wait_healthy URL: poll until /v1/healthz answers ok.
wait_healthy() {
  for _ in $(seq 1 150); do
    if curl -fsS "$1/v1/healthz" 2>/dev/null | grep -q '"status":"ok"'; then
      return 0
    fi
    sleep 0.2
  done
  echo "server at $1 never became healthy" >&2
  return 1
}

# metric_value FILE NAME: extract one sample value from a saved
# /v1/metricz scrape (exact series match, label block included in NAME).
metric_value() {
  local v
  v=$(awk -v m="$2" '$1 == m {print $2; exit}' "$1")
  if [ -z "$v" ]; then
    echo "metric $2 missing from $1" >&2
    return 1
  fi
  echo "$v"
}

# fetch_at_epoch URL PATH EPOCH OUT: fetch one document, retrying until
# its ETag pins the wanted epoch — so a pair of captures taken from two
# servers is known to describe the same snapshot even while epochs
# commit underneath.
fetch_at_epoch() {
  for _ in $(seq 1 150); do
    if curl -fsS -D "$4.hdr" -o "$4" "$1$2" 2>/dev/null \
        && grep -qi "etag: \"gps-epoch-$3\"" "$4.hdr"; then
      return 0
    fi
    sleep 0.1
  done
  echo "server at $1 never served $2 at epoch $3" >&2
  return 1
}

# snapshot_queries URL PREFIX: capture the query set the gate diffs.
# List bodies carry no epoch (it travels in the ETag), so equal
# inventories must serve equal bytes whatever process answers.
snapshot_queries() {
  curl -fsS "$1/v1/stats" > "$DIR/$2.stats.json"
  curl -fsS "$1/v1/ports" > "$DIR/$2.ports.json"
  local port
  port=$(grep -o '"port":[0-9]*' "$DIR/$2.ports.json" | head -1 | cut -d: -f2)
  echo "$port" > "$DIR/$2.port"
  curl -fsS "$1/v1/port/$port?limit=50" > "$DIR/$2.port.json"
}

echo "== single-process reference (4 in-process shards, serving on :7471)"
"$BIN" "${COMMON[@]}" -log-json -checkpoint "$DIR/single.ckpt" -inventory "$DIR/single.inv" \
    -serve 127.0.0.1:7471 > "$DIR/single.log" 2>&1 &
single_pid=$!
pids+=($single_pid)
wait_stats http://127.0.0.1:7471 3
snapshot_queries http://127.0.0.1:7471 single
curl -fsS http://127.0.0.1:7471/v1/metricz > "$DIR/single.metricz"
# SIGTERM must flush the final checkpoint + inventory and exit 0: the
# .inv the rest of the gate diffs only exists if clean shutdown works.
kill -TERM $single_pid
wait $single_pid
test -s "$DIR/single.inv"

echo "== starting 3 workers"
ports=(7461 7462 7463)
for p in "${ports[@]}"; do
  "$BIN" worker -listen "127.0.0.1:$p" -debug-addr "127.0.0.1:$((p+100))" \
      > "$DIR/worker-$p.log" 2>&1 &
  pids+=($!)
done

echo "== distributed run (coordinator + 3 workers, 4 shards, serving on :7472, feed on :7480)"
# -interval paces the epochs so the replica checks below can observe each
# one; determinism is untouched (churn derives from seed+epoch, not wall
# time).
workers=$(IFS=,; echo "${ports[*]/#/127.0.0.1:}")
"$BIN" coordinator "${COMMON[@]}" -log-json -workers "$workers" \
    -checkpoint "$DIR/dist.ckpt" \
    -inventory "$DIR/dist.inv" -serve 127.0.0.1:7472 \
    -feed 127.0.0.1:7480 -interval 2s > "$DIR/coordinator.log" 2>&1 &
coord_pid=$!
pids+=($coord_pid)

echo "== two read replicas (:7474 re-exporting on :7485, :7475), a second-tier replica of :7474 (:7477) and a /v1/watch consumer"
"$BIN" replica -upstream 127.0.0.1:7480 -serve 127.0.0.1:7474 \
    -feed 127.0.0.1:7485 > "$DIR/replica-a.log" 2>&1 &
replica_a=$!
pids+=($replica_a)
"$BIN" replica -upstream 127.0.0.1:7485 -serve 127.0.0.1:7477 > "$DIR/replica-c.log" 2>&1 &
replica_c=$!
pids+=($replica_c)
"$BIN" replica -upstream 127.0.0.1:7480 -serve 127.0.0.1:7475 > "$DIR/replica-b.log" 2>&1 &
replica_b=$!
pids+=($replica_b)
# Replicas redial their upstream until it exists; the watch client makes
# one HTTP request, so it starts once the origin is actually serving.
wait_healthy http://127.0.0.1:7472
"$BIN" watch http://127.0.0.1:7472/v1/watch -epochs 3 \
    -inventory "$DIR/watch.inv" > "$DIR/watch.log" 2>&1 &
watch_pid=$!
pids+=($watch_pid)

# Replica responses must be byte-identical to the origin's — bodies and
# ETags — at every epoch. The ETag-pinned fetches make each comparison
# race-free against the next commit.
for epoch in 1 2 3; do
  wait_stats http://127.0.0.1:7472 $epoch
  wait_stats http://127.0.0.1:7474 $epoch
  fetch_at_epoch http://127.0.0.1:7472 /v1/stats $epoch "$DIR/origin.e$epoch.stats.json"
  fetch_at_epoch http://127.0.0.1:7472 /v1/ports $epoch "$DIR/origin.e$epoch.ports.json"
  fetch_at_epoch http://127.0.0.1:7474 /v1/stats $epoch "$DIR/replica.e$epoch.stats.json"
  fetch_at_epoch http://127.0.0.1:7474 /v1/ports $epoch "$DIR/replica.e$epoch.ports.json"
  cmp "$DIR/origin.e$epoch.stats.json" "$DIR/replica.e$epoch.stats.json"
  cmp "$DIR/origin.e$epoch.ports.json" "$DIR/replica.e$epoch.ports.json"
  echo "   epoch $epoch: replica byte-identical to origin"

  case $epoch in
  1)
    # Kill replica B mid-run; it misses epoch 2 entirely.
    kill -TERM $replica_b
    wait $replica_b
    ;;
  2)
    # Restart it: a replica is stateless, so the new process must
    # re-bootstrap from a snapshot frame and catch up on its own.
    "$BIN" replica -upstream 127.0.0.1:7480 -serve 127.0.0.1:7475 > "$DIR/replica-b2.log" 2>&1 &
    replica_b=$!
    pids+=($replica_b)
    ;;
  esac
done

echo "== restarted replica re-converges"
wait_stats http://127.0.0.1:7475 3
fetch_at_epoch http://127.0.0.1:7475 /v1/stats 3 "$DIR/replica-b.e3.stats.json"
fetch_at_epoch http://127.0.0.1:7475 /v1/ports 3 "$DIR/replica-b.e3.ports.json"
cmp "$DIR/origin.e3.stats.json" "$DIR/replica-b.e3.stats.json"
cmp "$DIR/origin.e3.ports.json" "$DIR/replica-b.e3.ports.json"

echo "== second-tier replica (fed by replica A's re-export) matches the origin"
wait_stats http://127.0.0.1:7477 3
fetch_at_epoch http://127.0.0.1:7477 /v1/stats 3 "$DIR/replica-c.e3.stats.json"
fetch_at_epoch http://127.0.0.1:7477 /v1/ports 3 "$DIR/replica-c.e3.ports.json"
cmp "$DIR/origin.e3.stats.json" "$DIR/replica-c.e3.stats.json"
cmp "$DIR/origin.e3.ports.json" "$DIR/replica-c.e3.ports.json"
# C must have got there on deltas A re-served, not on a late bootstrap.
curl -fsS http://127.0.0.1:7477/v1/metricz > "$DIR/replica-c.metricz"
deltas_c=$(metric_value "$DIR/replica-c.metricz" gps_replica_deltas_applied_total)
if [ "$deltas_c" -lt 1 ]; then
  echo "second-tier replica applied no delta from replica A's re-export" >&2
  exit 1
fi

echo "== replica telemetry (lag, delta/bootstrap accounting)"
curl -fsS http://127.0.0.1:7474/v1/metricz > "$DIR/replica-a.metricz"
curl -fsS http://127.0.0.1:7475/v1/metricz > "$DIR/replica-b.metricz"
lag_a=$(metric_value "$DIR/replica-a.metricz" gps_replica_lag_epochs)
lag_b=$(metric_value "$DIR/replica-b.metricz" gps_replica_lag_epochs)
deltas_a=$(metric_value "$DIR/replica-a.metricz" gps_replica_deltas_applied_total)
boots_a=$(metric_value "$DIR/replica-a.metricz" gps_replica_bootstraps_total)
boots_b=$(metric_value "$DIR/replica-b.metricz" gps_replica_bootstraps_total)
echo "replica A: lag=$lag_a deltas=$deltas_a bootstraps=$boots_a; replica B (restarted): lag=$lag_b bootstraps=$boots_b"
if [ "$lag_a" != "0" ] || [ "$lag_b" != "0" ]; then
  echo "replicas still lag the origin after convergence" >&2
  exit 1
fi
# A lived through the whole run: one bootstrap, then pure deltas. B's
# fresh process proves the restart path took a snapshot bootstrap.
if [ "$boots_a" -lt 1 ] || [ "$deltas_a" -lt 2 ] || [ "$boots_b" -lt 1 ]; then
  echo "replica feed accounting inconsistent with a bootstrap+deltas run" >&2
  exit 1
fi

echo "== watch consumer reconstructs the final inventory"
wait $watch_pid
test -s "$DIR/watch.inv"

snapshot_queries http://127.0.0.1:7472 dist
curl -fsS http://127.0.0.1:7472/v1/metricz > "$DIR/dist.metricz"
curl -fsS "http://127.0.0.1:7472/v1/tracez?format=text&limit=4096" > "$DIR/dist.tracez"
feed_head=$(metric_value "$DIR/dist.metricz" gps_feed_head_epoch)
if [ "$feed_head" != "3" ]; then
  echo "origin feed head is $feed_head, want 3" >&2
  exit 1
fi
kill -TERM $coord_pid
wait $coord_pid
kill -TERM $replica_a $replica_b $replica_c
wait $replica_a $replica_b $replica_c 2>/dev/null || true

# The watch consumer folded snapshot+delta events from an empty map; its
# persisted inventory must equal the coordinator's artifact exactly.
cmp "$DIR/watch.inv" "$DIR/dist.inv"

echo "== cross-mode telemetry consistency (/v1/metricz)"
# The workers are still listening (only the coordinator exited), so their
# debug servers answer. Each worker materialized only its partition of
# the world: the per-worker gps_world_hosts gauges must sum exactly to
# the full-world figure the coordinator reported from its seeding
# universe — the ~1/N memory claim, asserted instead of grepped from a
# free-text MemStats log line.
for p in "${ports[@]}"; do
  curl -fsS "http://127.0.0.1:$((p+100))/v1/metricz" > "$DIR/worker-$p.metricz"
done

coord_hosts=$(metric_value "$DIR/dist.metricz" gps_world_hosts)
single_hosts=$(metric_value "$DIR/single.metricz" gps_world_hosts)
worker_hosts=0
worker_shards=0
worker_epochs=0
for p in "${ports[@]}"; do
  worker_hosts=$((worker_hosts + $(metric_value "$DIR/worker-$p.metricz" gps_world_hosts)))
  worker_shards=$((worker_shards + $(metric_value "$DIR/worker-$p.metricz" gps_world_owned_shards)))
  worker_epochs=$((worker_epochs + $(metric_value "$DIR/worker-$p.metricz" gps_worker_epochs_total)))
done
echo "world hosts: single=$single_hosts coordinator=$coord_hosts workers(sum)=$worker_hosts"
if [ "$worker_hosts" -ne "$coord_hosts" ] || [ "$single_hosts" -ne "$coord_hosts" ]; then
  echo "per-worker world partitions do not sum to the full world" >&2
  exit 1
fi
# The partitions must also cover the shard layout exactly, and the fleet
# must have executed every shard epoch: shards x epochs.
if [ "$worker_shards" -ne 4 ]; then
  echo "workers own $worker_shards shards, want 4" >&2
  exit 1
fi
if [ "$worker_epochs" -ne 12 ]; then
  echo "workers executed $worker_epochs shard epochs, want 4 shards x 3 epochs = 12" >&2
  exit 1
fi
# Both modes run the one coordinator, so both publish the same series
# under the same names: epochs committed, and one latency observation per
# shard epoch whichever executor ran it.
for mode in single dist; do
  mode_epochs=$(metric_value "$DIR/$mode.metricz" gps_coordinator_epochs_total)
  shard_epochs=0
  for shard in 0 1 2 3; do
    shard_epochs=$((shard_epochs + $(metric_value "$DIR/$mode.metricz" "gps_shard_epoch_seconds_count{shard=\"$shard\"}")))
  done
  echo "$mode: coordinator epochs=$mode_epochs shard epochs(sum)=$shard_epochs"
  if [ "$mode_epochs" -ne 3 ] || [ "$shard_epochs" -ne 12 ]; then
    echo "$mode: want 3 coordinator epochs and 4 shards x 3 epochs = 12 shard epochs" >&2
    exit 1
  fi
done
# And print the same epoch line: same keys, the bounding shard named, its
# four phases measured (they cross the wire beside the state) and fitting
# inside the epoch's wall time.
epoch_keys() { grep -o '"[a-z_]*":' <<<"$1" | tr -d '\n'; }
single_line=$(grep '"event":"epoch"' "$DIR/single.log" | tail -1)
dist_line=$(grep '"event":"epoch"' "$DIR/coordinator.log" | tail -1)
if [ -z "$single_line" ] || [ "$(epoch_keys "$single_line")" != "$(epoch_keys "$dist_line")" ]; then
  echo "epoch lines differ in shape across modes:" >&2
  printf '%s\n%s\n' "$single_line" "$dist_line" >&2
  exit 1
fi
for line in "$single_line" "$dist_line"; do
  awk '
    function field(k) { return match($0, "\"" k "\":[-+.e0-9]+") ? substr($0, RSTART + length(k) + 3, RLENGTH - length(k) - 3) + 0 : -1 }
    {
      r = field("reverify_sec"); t = field("retrain_sec"); d = field("discover_sec"); f = field("fold_sec")
      e = field("epoch_sec"); b = field("bound_shard")
      if (r <= 0 || t <= 0 || d <= 0 || f <= 0) { print "a phase reads zero: " $0 > "/dev/stderr"; exit 1 }
      if (r + t + d + f > e * 1.02 + 0.001) { print "phases exceed epoch_sec: " $0 > "/dev/stderr"; exit 1 }
      if (b < 0 || b > 3) { print "bound_shard out of range: " $0 > "/dev/stderr"; exit 1 }
    }' <<<"$line"
done
single_snap=$(metric_value "$DIR/single.metricz" gps_snapshot_epoch)
dist_snap=$(metric_value "$DIR/dist.metricz" gps_snapshot_epoch)
echo "snapshots: single=$single_snap dist=$dist_snap"
if [ "$single_snap" -ne 3 ] || [ "$dist_snap" -ne 3 ]; then
  echo "served snapshot epochs diverge" >&2
  exit 1
fi

echo "== diffing merged inventories"
cmp "$DIR/single.inv" "$DIR/dist.inv"

echo "== diffing served queries: distributed == single-process"
cmp "$DIR/single.stats.json" "$DIR/dist.stats.json"
cmp "$DIR/single.ports.json" "$DIR/dist.ports.json"
cmp "$DIR/single.port.json"  "$DIR/dist.port.json"
# Query traffic leaves the flight recorder to the epochs: after every
# request above, the serving coordinator still lists its epoch traces and
# not one per-request span.
if ! awk '$2 == "epoch" {epochs++} $2 ~ /^http\./ {requests++} END {exit !(epochs && !requests)}' "$DIR/dist.tracez"; then
  echo "coordinator /v1/tracez lost its epoch traces or holds http.* request spans" >&2
  cat "$DIR/dist.tracez" >&2
  exit 1
fi

echo "== standalone file server over the merged inventory (:7473)"
"$BIN" serve "$DIR/single.inv" -serve 127.0.0.1:7473 > "$DIR/servefile.log" 2>&1 &
file_pid=$!
pids+=($file_pid)
wait_healthy http://127.0.0.1:7473
snapshot_queries http://127.0.0.1:7473 file
kill -TERM $file_pid
wait $file_pid

# The file server derives its epoch from the inventory, so list bodies
# must match byte for byte and the stats totals must agree with the live
# daemons' (the aggregates are pure functions of the merged inventory).
cmp "$DIR/single.ports.json" "$DIR/file.ports.json"
cmp "$DIR/single.port.json"  "$DIR/file.port.json"
live_totals=$(grep -o '"services":[0-9]*,"hosts":[0-9]*,"ports":[0-9]*' "$DIR/single.stats.json")
file_totals=$(grep -o '"services":[0-9]*,"hosts":[0-9]*,"ports":[0-9]*' "$DIR/file.stats.json")
if [ -z "$live_totals" ] || [ "$live_totals" != "$file_totals" ]; then
  echo "served totals diverge: live [$live_totals] vs file [$file_totals]" >&2
  exit 1
fi

echo "== re-shard by resuming (4 -> 1, 2, 3, 8 shards, no rescan)"
# The checkpoint is one merged run that a resume partitions for any
# -shards (the later flag wins over COMMON's). With all 3 epochs done,
# each resume must write back the very checkpoint and inventory bytes.
# Later epochs may differ by count (each shard trains its own model on
# its own budget slice), so the 3-shard layout only has to keep running.
for n in 1 2 3 8; do
  cp "$DIR/single.ckpt" "$DIR/reshard-$n.ckpt"
  "$BIN" "${COMMON[@]}" -shards "$n" -checkpoint "$DIR/reshard-$n.ckpt" \
      -inventory "$DIR/reshard-$n.inv" > "$DIR/reshard-$n.log" 2>&1
  cmp "$DIR/single.ckpt" "$DIR/reshard-$n.ckpt"
  cmp "$DIR/single.inv" "$DIR/reshard-$n.inv"
  echo "   resumed at $n shards: checkpoint and inventory byte-identical"
done
"$BIN" "${COMMON[@]}" -shards 3 -epochs 4 -checkpoint "$DIR/reshard-3.ckpt" \
    -inventory "$DIR/reshard-3.inv" >> "$DIR/reshard-3.log" 2>&1
echo "   3-shard layout ran epoch 4"

echo "== cluster churn: join a 4th worker mid-run, drain one, leave cleanly"
# A fresh fleet on fresh ports runs 10 paced epochs while membership
# churns underneath it: a 4th worker joins through the coordinator's
# -cluster listener and receives a live shard migration, one of the
# original workers is drained over the admin API, and the joiner leaves
# again via SIGTERM + -leave. Shard epochs are deterministic wherever
# they execute, so the merged inventory must stay byte-identical to a
# single-process run of the same 10 epochs.
CHURN_COMMON=(-seed 7 -prefixes 8 -density 0.02 -seed-fraction 0.05
              -epochs 10 -budget 60000 -shards 4 -parallelism 1)
CO=http://127.0.0.1:7476

"$BIN" "${CHURN_COMMON[@]}" -inventory "$DIR/churn-single.inv" > "$DIR/churn-single.log" 2>&1
test -s "$DIR/churn-single.inv"

churn_ports=(7481 7482 7483)
for p in "${churn_ports[@]}"; do
  "$BIN" worker -listen "127.0.0.1:$p" > "$DIR/churn-worker-$p.log" 2>&1 &
  pids+=($!)
done
churn_workers=$(IFS=,; echo "${churn_ports[*]/#/127.0.0.1:}")
"$BIN" coordinator "${CHURN_COMMON[@]}" -workers "$churn_workers" \
    -cluster 127.0.0.1:7490 -admin -serve 127.0.0.1:7476 \
    -inventory "$DIR/churn-dist.inv" -interval 1s > "$DIR/churn-coordinator.log" 2>&1 &
churn_coord=$!
pids+=($churn_coord)
wait_healthy $CO

# The readiness doc carries the coordinator role, and the probe-friendly
# text mode answers with the bare status word.
curl -fsS "$CO/v1/healthz" | grep -q '"role":"coordinator"'
test "$(curl -fsS "$CO/v1/healthz?format=text")" = "ok"

# wait_cluster PATTERN: poll GET /v1/cluster until one worker row
# matches. Rows are captured object-by-object ("id" opens a row, "}"
# closes it — no nested braces inside a worker row).
wait_cluster() {
  for _ in $(seq 1 150); do
    if curl -fsS "$CO/v1/cluster" 2>/dev/null | grep -o '"id":[^}]*' | grep -q "$1"; then
      return 0
    fi
    sleep 0.2
  done
  echo "cluster doc never matched: $1" >&2
  curl -fsS "$CO/v1/cluster" >&2 || true
  return 1
}

"$BIN" worker -join 127.0.0.1:7490 -name w4 -leave \
    -debug-addr 127.0.0.1:7584 > "$DIR/churn-w4.log" 2>&1 &
w4_pid=$!
pids+=($w4_pid)

# The joiner must be admitted and receive at least one live-migrated
# shard at the next epoch boundary.
wait_cluster '"id":"w4".*"state":"alive".*"shard_count":[1-9]'
# The joiner's own readiness doc reports the worker role with live
# shard ownership (read off the telemetry gauge, so migrations show).
curl -fsS http://127.0.0.1:7584/v1/healthz | grep -q '"role":"worker"'
curl -fsS http://127.0.0.1:7584/v1/healthz | grep -q '"shards_owned":[1-9]'
echo "   w4 joined and owns shards"

# Mutations are gated: without -admin this would be a 403; with it the
# drain is accepted (202) and the worker's shards migrate away.
drain_code=$(curl -s -o "$DIR/churn-drain.json" -w '%{http_code}' -X POST \
    "$CO/v1/cluster/workers/127.0.0.1:7481/drain")
if [ "$drain_code" != "202" ]; then
  echo "drain POST answered $drain_code, want 202" >&2
  cat "$DIR/churn-drain.json" >&2
  exit 1
fi
wait_cluster '"id":"127.0.0.1:7481".*"state":"drained"'
echo "   127.0.0.1:7481 drained via admin API"

# SIGTERM + -leave: the joiner hands its shards back and exits 0.
kill -TERM $w4_pid
if ! wait $w4_pid; then
  echo "leaving worker exited non-zero" >&2
  cat "$DIR/churn-w4.log" >&2
  exit 1
fi
wait_cluster '"id":"w4".*"state":"drained"'
echo "   w4 drained and left cleanly"

wait_stats $CO 10
curl -fsS "$CO/v1/cluster" > "$DIR/churn-cluster.json"
curl -fsS "$CO/v1/metricz" > "$DIR/churn.metricz"

echo "== flight recorder (/v1/tracez, /v1/debugz) holds the stitched churn traces"
# The coordinator's ring must still hold the whole churn story. Every
# migration lands at an epoch boundary, so its migrate span parents
# under the epoch trace that absorbed it: walk every epoch trace's
# waterfall and require at least one migrate span (join, drain, and
# leave each record one) plus, in every epoch, one rpc.epoch span per
# shard stitched out of the workers' shipped span batches. The captures
# land in $DIR so a failing run uploads them alongside the logs.
curl -fsS "$CO/v1/tracez?format=text&limit=4096" > "$DIR/churn-coordinator.tracez"
epoch_traces=$(awk '$2 == "epoch" {print $1}' "$DIR/churn-coordinator.tracez")
if [ -z "$epoch_traces" ]; then
  echo "no epoch trace in the coordinator flight recorder" >&2
  cat "$DIR/churn-coordinator.tracez" >&2
  exit 1
fi
for tid in $epoch_traces; do
  curl -fsS "$CO/v1/tracez?trace=$tid&format=text" >> "$DIR/churn-coordinator.tracez"
done
if ! grep -Eq ' migrate +' "$DIR/churn-coordinator.tracez"; then
  echo "no migrate span in any epoch trace after churn" >&2
  cat "$DIR/churn-coordinator.tracez" >&2
  exit 1
fi
for shard in 0 1 2 3; do
  # One grep, not a grep|grep -q pipe: -q closing the pipe early would
  # SIGPIPE the producer and trip pipefail on a line that matched.
  if ! grep -Eq "rpc\.epoch .*shard=$shard[^0-9]" "$DIR/churn-coordinator.tracez"; then
    echo "no rpc.epoch span for shard $shard in the recorded epoch traces" >&2
    cat "$DIR/churn-coordinator.tracez" >&2
    exit 1
  fi
done
echo "   flight recorder: migrate span recorded, rpc.epoch spans stitched for all 4 shards"
# The one-request bug-report bundle must carry its build, metrics, and
# trace sections; the .ndjson is the artifact CI uploads on failure.
curl -fsS "$CO/v1/debugz" > "$DIR/churn-coordinator.ndjson"
for section in build metrics trace; do
  if ! grep -q "\"section\":\"$section\"" "$DIR/churn-coordinator.ndjson"; then
    echo "debugz bundle is missing its $section section" >&2
    exit 1
  fi
done

kill -TERM $churn_coord
wait $churn_coord
test -s "$DIR/churn-dist.inv"

# Every membership change must be visible in the final doc, and the
# migration counter must account the join, the drain, and the leave.
grep -o '"id":"127.0.0.1:7482"[^}]*' "$DIR/churn-cluster.json" | grep -q '"state":"alive"'
migrations=$(awk '$1 ~ /^gps_shard_migrations_total/ {s+=$2} END {print s+0}' "$DIR/churn.metricz")
echo "   live shard migrations: $migrations"
if [ "$migrations" -lt 3 ]; then
  echo "expected >=3 live migrations (join + drain + leave), saw $migrations" >&2
  exit 1
fi

# Membership churn must not perturb the scan: the merged inventory is
# byte-identical to the single-process run of the same epochs.
cmp "$DIR/churn-single.inv" "$DIR/churn-dist.inv"
echo "   churned fleet inventory byte-identical to single-process run"

echo "PASS: distributed inventory byte-identical to single-process; served queries identical across single, distributed, and file modes; first- and second-tier replicas byte-identical to the origin; telemetry consistent across modes; re-shard by resume byte-identical at 1, 2, 3 and 8 shards; cluster churn (join + drain + leave) preserves byte-identity"
