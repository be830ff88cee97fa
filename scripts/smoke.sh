#!/usr/bin/env bash
# Cross-process smokes: each drives the real binaries (mlvc, mlvcd) the way
# an operator would and checks what only separate processes can show —
# resume after exit, on-disk corruption, exit codes, kill -9, failover.
#
#   scripts/smoke.sh <name> [port]     one smoke (CI calls them by name)
#   scripts/smoke.sh all               every smoke, in the order below
#
# Each smoke builds its binaries into a fresh `mktemp -d`, works there,
# removes it on exit, and kills any daemon it started. Daemon smokes listen
# on 127.0.0.1:<port> (two-node smokes also take <port>+1).
#
# No pipefail: `curl … | grep -q` closes the pipe at the first match, which
# curl reports as a write error.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
SMOKES="crash-recovery integrity resource-governance daemon daemon-fault durable-ingest failover"

default_port() {
  case "$1" in
    daemon) echo 18080 ;;
    daemon-fault) echo 18081 ;;
    durable-ingest) echo 18082 ;;
    failover) echo 18084 ;;
    *) echo 0 ;;
  esac
}

# build <race|norace>: mlvc and mlvcd into the working directory.
build() {
  (cd "$ROOT" && go build -o "$WORK/mlvc" ./cmd/mlvc)
  if [ "$1" = race ]; then
    (cd "$ROOT" && go build -race -o "$WORK/mlvcd" ./cmd/mlvcd)
  else
    (cd "$ROOT" && go build -o "$WORK/mlvcd" ./cmd/mlvcd)
  fi
}

# graph <dir>: the 2,000-vertex uniform graph every smoke uses, built into dir.
graph() {
  ./mlvc gen -kind uniform -n 2000 -m 20000 -seed 7 -out g.bin
  mkdir "$1"
  ./mlvc build -graph g.bin -dir "$1" -name g
}

# daemon <args...>: start mlvcd in the background; its pid lands in $DAEMON
# and in the list the exit trap kills.
daemon() {
  ./mlvcd "$@" &
  DAEMON=$!
  PIDS="$PIDS $DAEMON"
}

# wait_up <url>: poll until the daemon answers (10 s), else fail.
wait_up() {
  for _ in $(seq 1 50); do
    curl -sf "$1" >/dev/null && return 0
    sleep 0.2
  done
  echo "smoke: $1 never came up" >&2
  return 1
}

# mutate <base-url> <batches>: ack batches of 8 edge adds from vertex 0;
# every ack must report durable.
mutate() {
  python3 - "$1" "$2" <<'EOF'
import json, sys, urllib.request
for b in range(int(sys.argv[2])):
    muts = [{"op": "add", "src": 0, "dst": 100 + b*8 + i} for i in range(8)]
    req = urllib.request.Request(sys.argv[1] + "/mutate",
        data=json.dumps({"mutations": muts}).encode(), method="POST")
    resp = json.load(urllib.request.urlopen(req))
    assert resp["acked"] == 8 and resp["durable"], resp
EOF
}

# same_values <a.json> <b.json> <what>: two BFS replies carry identical all_values.
same_values() {
  python3 -c "import json,sys; a=json.load(open(sys.argv[1]))['all_values']; b=json.load(open(sys.argv[2]))['all_values']; assert a and a==b, sys.argv[3]" "$@"
}

# Cross-process resume on a disk-backed device.
smoke_crash_recovery() {
  build norace
  graph dev
  ./mlvc run -dir dev -name g -app pagerank -steps 8 -checkpoint-every 2 -json full.json
  ./mlvc run -dir dev -name g -app pagerank -steps 4 -checkpoint-every 2 -json partial.json
  ./mlvc run -dir dev -name g -app pagerank -steps 8 -resume -json resumed.json
  grep -q '"resumed": *true' resumed.json
  grep -q '"resume_step": *4' resumed.json
}

# Cross-process scrub + recovery from on-disk corruption.
smoke_integrity() {
  build norace
  graph dev
  ./mlvc run -dir dev -name g -app pagerank -steps 8 -checkpoint-every 2
  ./mlvc scrub -dir dev
  # Corrupt a stored page between processes; scrub must flag it (exit 6).
  dd if=/dev/zero of=dev/g.values bs=1 count=64 seek=100 conv=notrunc
  if ./mlvc scrub -dir dev; then echo "scrub missed planted corruption"; exit 1; fi
  # Resume recovers (the damaged page is rewritten with a fresh checksum).
  ./mlvc run -dir dev -name g -app pagerank -steps 8 -resume -json healed.json
  grep -q '"resumed": *true' healed.json
  ./mlvc scrub -dir dev
}

# Cross-process quota, deadline, exit codes.
smoke_resource_governance() {
  build norace
  ./mlvc gen -kind uniform -n 2000 -m 20000 -seed 7 -out g.bin
  # A tiny sort budget forces the external sort-group; values must
  # still match the unconstrained run (reports are superstep-stable).
  ./mlvc run -graph g.bin -app pagerank -steps 6 -json ref.json
  ./mlvc run -graph g.bin -app pagerank -steps 6 -sort-budget 4096 -json spill.json
  grep -q '"spills"' spill.json
  python3 -c "import json;a=json.load(open('ref.json'));b=json.load(open('spill.json'));assert [s['active'] for s in a['supersteps']]==[s['active'] for s in b['supersteps']],'spill run diverged'"
  # An impossible disk quota must exit 8 (classified no-space).
  if ./mlvc run -graph g.bin -app pagerank -steps 6 -disk-cap 65536; then exit 1; else test $? -eq 8; fi
  # An immediate deadline must exit 9 and leave a resumable checkpoint.
  mkdir dev
  ./mlvc build -graph g.bin -dir dev -name g
  if ./mlvc run -dir dev -name g -app pagerank -steps 8 -checkpoint-every 1 -timeout 1ns; then exit 1; else test $? -eq 9; fi
  ./mlvc run -dir dev -name g -app pagerank -steps 8 -resume -json after.json
  grep -q '"resumed": *true' after.json
}

# mlvcd: concurrent queries, classified errors, clean drain.
smoke_daemon() {
  local url=http://127.0.0.1:$1
  build norace
  graph dev
  daemon -dir dev -addr "127.0.0.1:$1" -cache-mb 8
  wait_up $url/graph
  # Concurrent point queries must all succeed.
  local clients=""
  for s in 1 2 3 4; do
    curl -sf -X POST $url/query/bfs -d "{\"source\":$s}" > bfs$s.json &
    clients="$clients $!"
  done
  wait $clients
  for s in 1 2 3 4; do grep -q '"reached"' bfs$s.json; grep -q '"timings_ms"' bfs$s.json; done
  curl -sf -X POST $url/query/sssp -d '{"source":5,"deadline_ms":5000}' | grep -q '"batch_size"'
  # A deadline the run itself outlasts (a disk-backed BFS takes well over
  # 1 ms) must come back as structured JSON (code deadline).
  curl -s -X POST $url/query/bfs -d '{"source":1,"deadline_ms":1}' | grep -q '"code":"deadline"'
  # Malformed and out-of-range queries are 400 bad_request.
  curl -s -X POST $url/query/bfs -d '{"source":999999}' | grep -q '"code":"bad_request"'
  # Walks are served and deterministic fields present.
  curl -sf -X POST $url/walk -d '{"source":3,"walks":2,"length":5}' | grep -q '"paths"'
  # Serving counters flow into the OpenMetrics exposition.
  curl -sf $url/metrics | grep -q '^mlvc_queries_served'
  # Every mlvc_ family is declared with a kind and help: none exports as
  # untyped. (An `if`, not `! …`: errexit ignores a negated pipeline.)
  if curl -sf $url/metrics | grep '^# TYPE mlvc_.* untyped$'; then exit 1; fi
  # SIGTERM must drain and exit 0.
  kill -TERM $DAEMON
  wait $DAEMON
}

# mlvcd: injected device faults, classified errors, readiness flip + recovery.
smoke_daemon_fault() {
  local url=http://127.0.0.1:$1 code="" rc=0
  build norace
  graph dev
  # A fault spec that does not parse must fail start-up (exit 1, before
  # listening), never arm an idle plan.
  timeout 10 ./mlvcd -dir dev -addr "127.0.0.1:$1" -fault 'transient=90%' || rc=$?
  [ "$rc" = 1 ]
  # A transient storm armed from the flag; the graph opens clean (arming
  # happens post-open), then ~every query faults.
  daemon -dir dev -addr "127.0.0.1:$1" -fault transient=0.9,seed=7 -retries 1 \
    -breaker-min 4 -breaker-cooldown 500ms -breaker-probes 1
  wait_up $url/healthz
  # Concurrent clients under the storm: every response is classified
  # (device_fault / breaker_open / ...), never an unclassified error.
  local clients=""
  for s in 1 2 3 4 5 6; do
    curl -s -X POST $url/query/bfs -d "{\"source\":$s,\"deadline_ms\":10000}" > fault$s.json &
    clients="$clients $!"
  done
  wait $clients
  for s in 1 2 3 4 5 6; do
    grep -Eq '"code":"(device_fault|breaker_open|corrupt|no_space|deadline)"|"reached"' fault$s.json
  done
  # Sustained faults must flip readiness (breaker open)...
  for _ in $(seq 1 50); do
    curl -s -X POST $url/query/bfs -d '{"source":1,"deadline_ms":10000}' >/dev/null
    code=$(curl -s -o /dev/null -w '%{http_code}' $url/readyz)
    [ "$code" = "503" ] && break
    sleep 0.1
  done
  [ "$code" = "503" ]
  # ...while liveness stays up and the shed carries Retry-After.
  curl -sf $url/healthz >/dev/null
  curl -s $url/stats | grep -q '"breaker_opens"'
  # Heal the device over the control surface (an empty body is the zero
  # plan); readiness must return once the half-open probe succeeds.
  curl -sf -X POST $url/debug/fault | grep -q '"ok":true'
  for _ in $(seq 1 100); do
    curl -s -X POST $url/query/bfs -d '{"source":1,"deadline_ms":10000}' >/dev/null
    code=$(curl -s -o /dev/null -w '%{http_code}' $url/readyz)
    [ "$code" = "200" ] && break
    sleep 0.2
  done
  [ "$code" = "200" ]
  curl -sf -X POST $url/query/bfs -d '{"source":2,"deadline_ms":10000}' | grep -q '"reached"'
  kill -TERM $DAEMON
  wait $DAEMON
}

# mlvcd: ack mutations, kill -9, restart, nothing lost.
smoke_durable_ingest() {
  local first=http://127.0.0.1:$1 second=http://127.0.0.1:$(($1 + 1))
  build race
  graph dev
  daemon -dir dev -addr "127.0.0.1:$1" -ingest
  wait_up $first/graph
  # Ack 3 batches (24 mutations).
  mutate $first 3
  # The served answer over the mutated graph, pre-crash.
  curl -sf -X POST $first/query/bfs -d '{"source":0,"values":true}' > before.json
  # kill -9: no drain, no WAL close — the crash the WAL exists for.
  kill -9 $DAEMON
  wait $DAEMON || true
  daemon -dir dev -addr "127.0.0.1:$(($1 + 1))" -ingest
  wait_up $second/graph
  # All 24 acked mutations must have been replayed from the WAL...
  curl -s $second/stats > stats.json
  python3 -c "import json; s = json.load(open('stats.json'))['ingest']; assert s['wal_replayed'] == 24, s; assert s['pending_updates'] == 48, s"
  # ...and queries over the recovered graph are bit-identical.
  curl -sf -X POST $second/query/bfs -d '{"source":0,"values":true}' > after.json
  same_values before.json after.json 'BFS diverged after kill -9 recovery'
  kill -TERM $DAEMON
  wait $DAEMON
}

# Primary + follower, kill -9 primary, promote, bit-identical.
smoke_failover() {
  local p=http://127.0.0.1:$1 f=http://127.0.0.1:$(($1 + 1)) primary follower
  build race
  graph devp
  # Seed the standby from a copy of the primary's device, then start both
  # nodes.
  cp -r devp devs
  daemon -dir devp -addr "127.0.0.1:$1" -ingest
  primary=$DAEMON
  wait_up $p/graph
  daemon -dir devs -addr "127.0.0.1:$(($1 + 1))" -follow $p -replica-lag -1
  follower=$DAEMON
  wait_up $f/graph
  # Ack 32 mutations on the primary; the follower rejects writes.
  mutate $p 4
  curl -s -X POST $f/mutate -d '{"mutations":[{"op":"add","src":1,"dst":2}]}' | grep -q '"code":"read_only"'
  # The follower must catch up to seq 32 with zero lag and go ready.
  for _ in $(seq 1 100); do
    curl -s $f/stats > fstats.json
    python3 -c "import json,sys; r=json.load(open('fstats.json')).get('replica') or {}; sys.exit(0 if r.get('applied_seq')==32 and r.get('lag_frames')==0 else 1)" && break
    sleep 0.1
  done
  python3 -c "import json; s=json.load(open('fstats.json')); r=s['replica']; assert r['applied_seq']==32 and r['lag_frames']==0, r; assert s['role']=='follower', s; assert s['read_only'], s"
  test "$(curl -s -o /dev/null -w '%{http_code}' $f/readyz)" = "200"
  # The primary's answer over the mutated graph, then kill -9.
  curl -sf -X POST $p/query/bfs -d '{"source":0,"values":true}' > pbfs.json
  kill -9 $primary
  wait $primary || true
  # Promote: the follower becomes writable and serves the dead primary's
  # answer bit-identically.
  curl -sf -X POST $f/admin/promote | grep -q '"promoted":true'
  curl -sf -X POST $f/query/bfs -d '{"source":0,"values":true}' > fbfs.json
  same_values pbfs.json fbfs.json 'promoted follower BFS diverged from dead primary'
  curl -sf -X POST $f/mutate -d '{"mutations":[{"op":"add","src":1,"dst":2}]}' | grep -q '"acked":1'
  curl -sf $f/metrics | grep -q '^mlvc_promotions 1'
  # Offline WAL inspection of the dead primary's device: all 32 acked
  # frames, clean tail (read-only, safe post-mortem).
  ./mlvc wal dump -dir devp -name g | grep -q 'seq range: 1..32'
  kill -TERM $follower
  wait $follower
}

# run <name> [port]: one smoke in its own subshell, working directory and
# exit trap, so `all` cannot leak state from one smoke into the next.
run() {
  local name=$1 port=${2:-$(default_port "$1")}
  echo "== smoke: $name"
  (
    WORK=$(mktemp -d)
    PIDS=""
    trap 'kill -9 $PIDS 2>/dev/null || true; rm -rf "$WORK"' EXIT
    cd "$WORK"
    "smoke_${name//-/_}" "$port"
  )
  echo "== smoke: $name ok"
}

case "${1:-}" in
  all)
    for name in $SMOKES; do run "$name"; done ;;
  crash-recovery|integrity|resource-governance|daemon|daemon-fault|durable-ingest|failover)
    run "$@" ;;
  *)
    echo "usage: scripts/smoke.sh <all|${SMOKES// /|}> [port]" >&2
    exit 2 ;;
esac
