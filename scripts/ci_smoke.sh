#!/usr/bin/env bash
# CI smoke test for dbselectd: index a tiny fixture, freeze a snapshot,
# run the full serve/route/fault/reload/shutdown battery, then top-k,
# a 10k idle-connection soak, multi-tenant, federated-proxy and
# live-refresh passes.
set -euo pipefail

DBSELECT=${DBSELECT:-./target/release/dbselect}
WORK=$(mktemp -d)
SERVE_PID=
EXTRA_PIDS=
# Kill the daemons too: a failed assertion must not leave them orphaned
# (holding CI's output pipe open forever).
trap 'rm -rf "$WORK"; for p in $SERVE_PID $EXTRA_PIDS; do kill -9 "$p" 2>/dev/null || true; done' EXIT

# The 10k idle-connection smoke needs fds for 10k daemon-side sockets
# plus 10k client-side ones.
ulimit -n 25000 2>/dev/null || ulimit -n 20000 2>/dev/null || true

# --- fixture: two tiny "databases" of text files --------------------------
mkdir -p "$WORK/med" "$WORK/soccer"
printf 'hypertension blood pressure heart artery treatment\n' > "$WORK/med/a.txt"
printf 'the heart pumps blood through arteries and vessels\n' > "$WORK/med/b.txt"
printf 'cardiology studies the heart and its diseases\n'      > "$WORK/med/c.txt"
printf 'soccer goal stadium keeper defender\n'                > "$WORK/soccer/a.txt"
printf 'the keeper saved a goal before the stadium crowd\n'   > "$WORK/soccer/b.txt"

"$DBSELECT" index --out "$WORK/col.store" --full \
    med=Health/Medicine="$WORK/med" \
    soccer=Sports/Soccer="$WORK/soccer"

# Profiling by sampling (QBS, size and frequency estimation) is a pure
# function of the files and the seed, whatever the thread count: one
# profiling thread and two, in separate processes with their own hash
# seeds, must write the same store, and the store must freeze.
for threads in 1 2; do
    "$DBSELECT" index --out "$WORK/qbs$threads.store" --threads "$threads" \
        med=Health/Medicine="$WORK/med" \
        soccer=Sports/Soccer="$WORK/soccer"
done
cmp "$WORK/qbs1.store" "$WORK/qbs2.store"
"$DBSELECT" freeze --store "$WORK/qbs1.store" --out "$WORK/qbs.snapshot"

# --- every command documents itself; a bad flag names its command -------
"$DBSELECT" --help > "$WORK/help.txt"
for cmd in index select freeze refresh route serve inspect; do
    "$DBSELECT" "$cmd" --help > "$WORK/help_$cmd.txt"
    grep -q "dbselect $cmd" "$WORK/help_$cmd.txt"
    grep -q "dbselect $cmd" "$WORK/help.txt"
done
if "$DBSELECT" route --catalog x --queries y --bogus 2> "$WORK/bogus.err"; then
    echo "an unknown flag must fail"; exit 1
fi
grep 'dbselect route: unknown option `--bogus`' "$WORK/bogus.err"
# A flag that applies only beside another fails without it instead of being
# accepted and ignored.
if "$DBSELECT" freeze --catalog x --out y --weighting uniform 2> "$WORK/only_with.err"; then
    echo "--weighting without --store must fail"; exit 1
fi
grep 'dbselect freeze: --weighting applies only with --store' "$WORK/only_with.err"

# --- freeze the v4 serving snapshot, the one form that is served ----------
"$DBSELECT" freeze --store "$WORK/col.store" --out "$WORK/col.snapshot"
# Freezing (the EM over the category columns, then the serving arrays) is
# a pure function of the store: a second process, with its own hash seeds,
# must write the same bytes (no hash-map order may leak into a snapshot).
"$DBSELECT" freeze --store "$WORK/col.store" --out "$WORK/col.snapshot.again"
cmp "$WORK/col.snapshot" "$WORK/col.snapshot.again"
head -c 8 "$WORK/col.snapshot" | od -c | grep -q 'D   B   S   S   N   P  \\0 004'

# A retired v3 snapshot (every shrunk summary stored over the whole
# vocabulary) is refused: serving it exits non-zero, naming the migration.
cp "$WORK/col.snapshot" "$WORK/v3.snapshot"
printf 'DBSSNP\000\003' | dd of="$WORK/v3.snapshot" bs=1 count=8 conv=notrunc 2>/dev/null
if "$DBSELECT" serve --catalog "$WORK/v3.snapshot" --addr 127.0.0.1:0 \
    > "$WORK/v3.out" 2> "$WORK/v3.err"; then
    echo "serving a v3 snapshot must fail"; exit 1
fi
grep 'dbselect freeze --catalog' "$WORK/v3.err"

printf 'heart blood\n' > "$WORK/queries.txt"
# A load error names the path it failed on exactly once: a missing file,
# and an empty directory (read as a delta chain without its base).
mkdir "$WORK/empty"
for missing in "$WORK/missing.snapshot" "$WORK/empty"; do
    if "$DBSELECT" route --catalog "$missing" --queries "$WORK/queries.txt" \
        > /dev/null 2> "$WORK/missing.err"; then
        echo "routing over $missing must fail"; exit 1
    fi
    cat "$WORK/missing.err"
    [ "$(grep -o -F "$missing" "$WORK/missing.err" | wc -l)" -eq 1 ] \
        || { echo "the error must name $missing exactly once"; exit 1; }
done
# A v1 catalog (nothing writes one now; the committed fixture was written
# by the retired v1 writer) is a migration input, never served: routing
# or serving it exits non-zero, naming the migration, and so does a
# tenant directory holding one. `freeze --catalog` migrates it.
V1="$(dirname "$0")/../crates/store/tests/fixtures/v1-tiny.catalog"
mkdir "$WORK/v1_tenants"
cp "$V1" "$WORK/v1_tenants/old.cat"
for serve_v1 in "route --catalog $V1 --queries $WORK/queries.txt" \
    "serve --catalog $V1 --addr 127.0.0.1:0" \
    "serve --tenants $WORK/v1_tenants --addr 127.0.0.1:0"; do
    # shellcheck disable=SC2086 # the words of each command line
    if "$DBSELECT" $serve_v1 > /dev/null 2> "$WORK/v1.err"; then
        echo "$serve_v1 must fail on a v1 catalog"; exit 1
    fi
    grep 'dbselect freeze --catalog' "$WORK/v1.err"
done
"$DBSELECT" freeze --catalog "$V1" --out "$WORK/v1.snapshot"
"$DBSELECT" route --catalog "$WORK/v1.snapshot" --queries "$WORK/queries.txt" > /dev/null
"$DBSELECT" route --catalog "$WORK/col.snapshot" --queries "$WORK/queries.txt" \
    | tee "$WORK/cli.txt"
# `select` freezes the store itself and routes the same query through the
# same serving state.
"$DBSELECT" select --store "$WORK/col.store" heart blood | tee "$WORK/select.txt"

# One full smoke battery against a daemon serving on $1.
smoke_pass() {
    local ADDR=$1
    echo "=== smoke pass on $ADDR ==="

    # Short deadline/idle-timeout so the fault-injection phase below
    # finishes quickly; both are still far above any healthy request's
    # needs. The keep-alive cap leaves room for the pipelining check.
    "$DBSELECT" serve --catalog "$WORK/col.snapshot" --addr "$ADDR" \
        --deadline-ms 2000 --idle-timeout-ms 500 --keep-alive-requests 1000 &
    SERVE_PID=$!
    for _ in $(seq 1 50); do
        curl -sf "http://$ADDR/healthz" > /dev/null 2>&1 && break
        sleep 0.2
    done
    curl -sf "http://$ADDR/healthz"
    echo

    # --- route over HTTP and via the CLI, same catalog, same seed ---------
    curl -sf -X POST "http://$ADDR/route" -d '{"query":"heart blood"}' \
        | tee "$WORK/http.json"
    echo
    python3 "$(dirname "$0")/smoke_diff.py" "$WORK/http.json" "$WORK/cli.txt"
    python3 "$(dirname "$0")/smoke_diff.py" "$WORK/http.json" "$WORK/select.txt"

    # --- metrics respond and count the served request ---------------------
    curl -sf "http://$ADDR/metrics" > "$WORK/metrics1.txt"
    grep 'dbselectd_requests_total{endpoint="route",status="200"} 1' "$WORK/metrics1.txt"
    # The live Table 10: that one adaptive CORI request ran one uncertainty
    # test per database; no other algorithm has been asked anything yet.
    grep -E '^dbselectd_uncertainty_tests_total\{algo="cori"\} [1-9][0-9]*$' "$WORK/metrics1.txt"
    grep -E '^dbselectd_shrinkage_applied_total\{algo="cori"\} [0-9]+$' "$WORK/metrics1.txt"
    grep '^dbselectd_uncertainty_tests_total{algo="lm"} 0$' "$WORK/metrics1.txt"
    if grep -q 'posterior_cache' "$WORK/metrics1.txt"; then
        echo "posterior-cache metrics should be gone"; exit 1
    fi

    # --- catalog gauges are exported, with a real load time and size ------
    grep '^dbselectd_catalog_generation 1$' "$WORK/metrics1.txt"
    grep '^dbselectd_catalog_load_seconds ' "$WORK/metrics1.txt"
    grep '^dbselectd_catalog_snapshot_bytes ' "$WORK/metrics1.txt"
    SNAP_BYTES=$(stat -c %s "$WORK/col.snapshot" 2>/dev/null || stat -f %z "$WORK/col.snapshot")
    grep "^dbselectd_catalog_snapshot_bytes $SNAP_BYTES\$" "$WORK/metrics1.txt"
    # The catalog reports what it keeps resident (sample summaries, the
    # category columns its shrunk summaries mix, the posting index); no
    # shrunk term column exists to count.
    grep -E '^dbselectd_catalog_resident_bytes\{tenant="default"\} [1-9][0-9]*$' "$WORK/metrics1.txt"
    if grep -q 'dbselectd_shrunk_term_columns' "$WORK/metrics1.txt"; then
        echo "shrunk term-column gauge should be gone"; exit 1
    fi

    # --- connection gauges ------------------------------------------------
    # The scraping connection itself is open and mid-request, so the
    # gauge is at least 1 at scrape time.
    grep -E '^dbselectd_open_connections [1-9][0-9]*$' "$WORK/metrics1.txt"
    for state in reading executing writing idle draining; do
        grep "^dbselectd_connections_state{state=\"$state\"} " "$WORK/metrics1.txt"
    done
    grep '^dbselectd_eagain_total ' "$WORK/metrics1.txt"
    # The reactor's loop has demonstrably turned …
    grep -E '^dbselectd_reactor_wakeups_total [1-9][0-9]*$' "$WORK/metrics1.txt"
    # … and the scraping request is the one executing connection.
    grep 'dbselectd_connections_state{state="executing"} 1' "$WORK/metrics1.txt"
    # Each of the default four reactors reports the connections placed on it.
    for reactor in 0 1 2 3; do
        grep "^dbselectd_reactor_connections{reactor=\"$reactor\"} " "$WORK/metrics1.txt"
    done

    # --- /route runs on the reactor that read it: 200 pipelined on one ----
    # connection come back byte-identical, and the timer wheel keeps a
    # couple of entries per connection, not three per request.
    python3 - "$ADDR" <<'EOF'
import socket, sys, urllib.request
addr = sys.argv[1]
host, port = addr.rsplit(":", 1)
body = b'{"query":"heart blood"}'
request = b"POST /route HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
sock = socket.create_connection((host, int(port)), timeout=10)
sock.sendall(request * 200)
reader = sock.makefile("rb")
bodies = []
for _ in range(200):
    head = b"".join(iter(reader.readline, b"\r\n"))
    assert head.startswith(b"HTTP/1.1 200 "), head
    length = next(int(line.split(b":")[1]) for line in head.split(b"\r\n")
                  if line.lower().startswith(b"content-length:"))
    bodies.append(reader.read(length))
assert all(b == bodies[0] for b in bodies), "pipelined bodies differ"
metrics = urllib.request.urlopen("http://%s/metrics" % addr, timeout=10).read().decode()
timers = next(int(l.split()[1]) for l in metrics.splitlines()
              if l.startswith("dbselectd_reactor_timers "))
assert timers <= 50, "%d timer-wheel entries after 200 requests" % timers
print("  pipelined: 200 identical bodies; %d timer-wheel entries" % timers)
EOF

    # --- fault injection: slow clients must not wedge or panic the pool ---
    python3 "$(dirname "$0")/fault_inject.py" "$ADDR" 2.0
    curl -sf "http://$ADDR/healthz" > /dev/null   # pool still serves …
    curl -sf "http://$ADDR/metrics" > "$WORK/metrics2.txt"
    grep '^dbselectd_worker_panics_total 0$' "$WORK/metrics2.txt"   # … and never panicked

    # --- hot reload swaps the snapshot and bumps the generation gauge -----
    curl -sf -X POST "http://$ADDR/admin/reload" -d "{\"path\":\"$WORK/col.snapshot\"}"
    echo
    curl -sf "http://$ADDR/metrics" | grep '^dbselectd_catalog_generation 2$'

    # --- clean shutdown: daemon exits 0 after /admin/shutdown -------------
    curl -sf -X POST "http://$ADDR/admin/shutdown"
    echo
    wait "$SERVE_PID"
    SERVE_PID=
    echo "=== smoke pass: ok ==="
}

smoke_pass "${ADDR:-127.0.0.1:7731}"

# --- top-k pruning: daemon k=3 equals the CLI's truncated ranking ---------
# Five databases with distinct document frequencies for the query terms,
# so the full ranking has five entries and k=3 genuinely truncates. The
# daemon serves k through the pruned maxscore kernels; the CLI's -k 3
# output is the truncation oracle. (Per-shard top-k, merged, is pinned
# by the federation pass below.)
ADDR_K=${ADDR_K:-127.0.0.1:7739}
for i in 1 2 3 4 5; do
    mkdir -p "$WORK/kdb$i"
    for j in $(seq 1 "$i"); do
        printf 'heart blood pressure artery\n' > "$WORK/kdb$i/h$j.txt"
    done
    for j in $(seq "$i" 5); do
        printf 'calendar paper window music\n' > "$WORK/kdb$i/f$j.txt"
    done
done
"$DBSELECT" index --out "$WORK/k.store" --full \
    k1=Health/Medicine="$WORK/kdb1" \
    k2=Health/Medicine="$WORK/kdb2" \
    k3=Health/Medicine="$WORK/kdb3" \
    k4=Health/Medicine="$WORK/kdb4" \
    k5=Health/Medicine="$WORK/kdb5"
"$DBSELECT" freeze --store "$WORK/k.store" --out "$WORK/k.snapshot"
printf 'heart blood\n' > "$WORK/kq.txt"
"$DBSELECT" route --catalog "$WORK/k.snapshot" --queries "$WORK/kq.txt" -k 3 \
    | tee "$WORK/cli_k3.txt"

topk_pass() {
    echo "=== top-k pass: ${*:-monolith} ==="
    "$DBSELECT" serve --catalog "$WORK/k.snapshot" --addr "$ADDR_K" "$@" &
    SERVE_PID=$!
    for _ in $(seq 1 50); do
        curl -sf "http://$ADDR_K/healthz" > /dev/null 2>&1 && break
        sleep 0.2
    done
    curl -sf -X POST "http://$ADDR_K/route" -d '{"query":"heart blood","k":3}' \
        | tee "$WORK/http_k3.json"
    echo
    python3 "$(dirname "$0")/smoke_diff.py" "$WORK/http_k3.json" "$WORK/cli_k3.txt"
    # k=0 is a client bug, not "no results": the daemon must answer 400.
    CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR_K/route" \
        -d '{"query":"heart blood","k":0}')
    [ "$CODE" = 400 ] || { echo "k=0 answered $CODE, expected 400" >&2; exit 1; }
    curl -sf -X POST "http://$ADDR_K/admin/shutdown"
    echo
    wait "$SERVE_PID"
    SERVE_PID=
}
topk_pass
echo "=== top-k pruning diff: ok ==="

# --- 10k idle keep-alive connections on a fixed worker pool ---------------
# Parked connections cost a slab slot, not a thread. A long idle timeout
# keeps them parked for the duration; the worker pool stays at the default.
ADDR3=${ADDR3:-127.0.0.1:7733}
"$DBSELECT" serve --catalog "$WORK/col.snapshot" --addr "$ADDR3" \
    --deadline-ms 5000 --idle-timeout-ms 120000 &
SERVE_PID=$!
for _ in $(seq 1 50); do
    curl -sf "http://$ADDR3/healthz" > /dev/null 2>&1 && break
    sleep 0.2
done
python3 "$(dirname "$0")/idle_soak.py" "$ADDR3" 10000
curl -sf -X POST "http://$ADDR3/admin/shutdown"
echo
wait "$SERVE_PID"
SERVE_PID=

# --- multi-tenant federated serving ---------------------------------------
# Two catalogs behind one daemon: alpha = the full med+soccer snapshot,
# beta = a med-only one, so the tenants demonstrably route differently.
ADDR4=${ADDR4:-127.0.0.1:7734}
mkdir -p "$WORK/tenants"
cp "$WORK/col.snapshot" "$WORK/tenants/alpha.snap"
"$DBSELECT" index --out "$WORK/med.store" --full med=Health/Medicine="$WORK/med"
"$DBSELECT" freeze --store "$WORK/med.store" --out "$WORK/tenants/beta.snap"

"$DBSELECT" serve --tenants "$WORK/tenants" --addr "$ADDR4" &
SERVE_PID=$!
for _ in $(seq 1 50); do
    curl -sf "http://$ADDR4/healthz" > /dev/null 2>&1 && break
    sleep 0.2
done
curl -sf "http://$ADDR4/healthz" | tee "$WORK/healthz_t.json" | grep '"tenants":2'
echo

# /t/alpha/route matches the monolithic CLI ranking bit for bit.
curl -sf -X POST "http://$ADDR4/t/alpha/route" -d '{"query":"heart blood"}' \
    | tee "$WORK/http_tenant.json"
echo
python3 "$(dirname "$0")/smoke_diff.py" "$WORK/http_tenant.json" "$WORK/cli.txt"

# Hammer-reload alpha at 100ms intervals while beta serves under load:
# every beta request must succeed (curl -sf + set -e make any failure
# fatal), and beta's generation/reload counters must stay untouched.
(
    for _ in $(seq 1 15); do
        curl -sf -X POST "http://$ADDR4/t/alpha/admin/reload" \
            -d "{\"path\":\"$WORK/tenants/alpha.snap\"}" > /dev/null
        sleep 0.1
    done
) &
RELOAD_PID=$!
for _ in $(seq 1 200); do
    curl -sf -X POST "http://$ADDR4/t/beta/route" -d '{"query":"heart blood"}' > /dev/null
done
wait "$RELOAD_PID"

# Per-tenant metric isolation: each tenant's counters reflect only its
# own traffic, under its own label.
curl -sf "http://$ADDR4/metrics" > "$WORK/metrics_t.txt"
grep 'dbselectd_tenant_requests_total{tenant="alpha",endpoint="route",status="200"} 1$' "$WORK/metrics_t.txt"
grep 'dbselectd_tenant_requests_total{tenant="beta",endpoint="route",status="200"} 200$' "$WORK/metrics_t.txt"
grep 'dbselectd_tenant_reload_total{tenant="alpha"} 15$' "$WORK/metrics_t.txt"
grep 'dbselectd_tenant_reload_total{tenant="beta"} 0$' "$WORK/metrics_t.txt"
grep 'dbselectd_tenant_catalog_generation{tenant="alpha"} 16$' "$WORK/metrics_t.txt"
grep 'dbselectd_tenant_catalog_generation{tenant="beta"} 1$' "$WORK/metrics_t.txt"
grep 'dbselectd_tenant_in_flight{tenant="alpha"} 0$' "$WORK/metrics_t.txt"
grep 'dbselectd_tenant_in_flight{tenant="beta"} 0$' "$WORK/metrics_t.txt"

curl -sf -X POST "http://$ADDR4/admin/shutdown"
echo
wait "$SERVE_PID"
SERVE_PID=
echo "=== multi-tenant pass: ok ==="

# --- federated proxy: scatter-gather over two shard daemons ---------------
# Two plain backends serve the full snapshot; the proxy scatters each
# query ("shard":0 to one, "shard":1 to the other, "shards":2 to both)
# and merges.
# A monolithic daemon over the same snapshot is the byte-level oracle.
ADDR_B0=${ADDR_B0:-127.0.0.1:7735}
ADDR_B1=${ADDR_B1:-127.0.0.1:7736}
ADDR_PX=${ADDR_PX:-127.0.0.1:7737}
ADDR_MONO=${ADDR_MONO:-127.0.0.1:7738}

# Starts a shard backend on $1 in the background; caller reads $!.
start_backend() {
    "$DBSELECT" serve --catalog "$WORK/col.snapshot" --addr "$1" &
}
await_healthz() {
    for _ in $(seq 1 50); do
        curl -sf "http://$1/healthz" > /dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "daemon on $1 never became healthy" >&2
    return 1
}

start_backend "$ADDR_B0"
B0_PID=$!
start_backend "$ADDR_B1"
B1_PID=$!
"$DBSELECT" serve --catalog "$WORK/col.snapshot" --addr "$ADDR_MONO" &
MONO_PID=$!
EXTRA_PIDS="$B0_PID $B1_PID $MONO_PID"
await_healthz "$ADDR_B0"
await_healthz "$ADDR_B1"
await_healthz "$ADDR_MONO"

"$DBSELECT" serve --proxy --backends "$ADDR_B0,$ADDR_B1" --addr "$ADDR_PX" \
    --health-interval-ms 100 --breaker-threshold 2 --breaker-cooldown-ms 500 \
    --retry-after-ms 1500 &
PROXY_PID=$!
EXTRA_PIDS="$EXTRA_PIDS $PROXY_PID"
await_healthz "$ADDR_PX"

# /readyz answers 503 until the prober has seen every backend healthy.
for _ in $(seq 1 50); do
    curl -sf "http://$ADDR_PX/readyz" > /dev/null 2>&1 && break
    sleep 0.2
done
curl -sf "http://$ADDR_PX/readyz" | grep '"ready":true'

# Proxy /route and /route_batch are byte-identical to the monolithic
# daemon for every algorithm x shrinkage-mode pair.
for algo in bgloss cori lm; do
    for mode in adaptive always never; do
        BODY="{\"query\":\"heart blood goal\",\"algo\":\"$algo\",\"shrinkage\":\"$mode\",\"seed\":7}"
        curl -sf -X POST "http://$ADDR_MONO/route" -d "$BODY" > "$WORK/mono.json"
        curl -sf -X POST "http://$ADDR_PX/route"   -d "$BODY" > "$WORK/proxy.json"
        cmp "$WORK/mono.json" "$WORK/proxy.json" \
            || { echo "proxy diverged from monolith for $algo/$mode" >&2; exit 1; }
    done
done
BATCH='{"queries":["heart blood","soccer goal stadium"],"algo":"cori","seed":3,"k":2}'
curl -sf -X POST "http://$ADDR_MONO/route_batch" -d "$BATCH" > "$WORK/mono_batch.json"
curl -sf -X POST "http://$ADDR_PX/route_batch"   -d "$BATCH" > "$WORK/proxy_batch.json"
cmp "$WORK/mono_batch.json" "$WORK/proxy_batch.json"
echo "=== proxy bit-identity: ok ==="

# --- fault drill: kill one backend under sustained load -------------------
# Every client request must keep succeeding (curl -sf + set -e make any
# 5xx fatal): the proxy degrades instead of failing, the dead backend's
# breaker opens, and after a restart the half-open probe closes it again.
kill -9 "$B1_PID" 2>/dev/null || true
SAW_DEGRADED=0
for i in $(seq 1 60); do
    curl -sf -X POST "http://$ADDR_PX/route" -d '{"query":"heart blood"}' \
        > "$WORK/drill.json"
    grep -q '"degraded":true' "$WORK/drill.json" && SAW_DEGRADED=1
done
[ "$SAW_DEGRADED" = 1 ] || { echo "no degraded response after backend kill" >&2; exit 1; }
grep -q "\"missing_shards\":\[1\]" "$WORK/drill.json"

for _ in $(seq 1 100); do
    curl -sf "http://$ADDR_PX/metrics" > "$WORK/metrics_px.txt"
    grep -q "dbselectd_backend_breaker_state{backend=\"$ADDR_B1\"} 1" "$WORK/metrics_px.txt" && break
    sleep 0.1
done
grep "dbselectd_backend_breaker_state{backend=\"$ADDR_B1\"} 1" "$WORK/metrics_px.txt"
grep -E "dbselectd_backend_breaker_opens_total\{backend=\"$ADDR_B1\"\} [1-9]" "$WORK/metrics_px.txt"
grep -E '^dbselectd_proxy_degraded_total [1-9][0-9]*$' "$WORK/metrics_px.txt"
# Zero 5xx reached a client while one shard was up. (`set -e` ignores
# `!`-prefixed pipelines, so the failure must be explicit.)
if grep -E 'dbselectd_requests_total\{endpoint="route[^"]*",status="5' "$WORK/metrics_px.txt"; then
    echo "a 5xx reached a client during the fault drill" >&2
    exit 1
fi

# Restart the killed backend on the same address: the breaker must walk
# open -> half-open -> closed without any client-visible blip.
start_backend "$ADDR_B1"
B1_PID=$!
EXTRA_PIDS="$EXTRA_PIDS $B1_PID"
await_healthz "$ADDR_B1"
for _ in $(seq 1 100); do
    curl -sf "http://$ADDR_PX/metrics" > "$WORK/metrics_px.txt"
    grep -q "dbselectd_backend_breaker_state{backend=\"$ADDR_B1\"} 0" "$WORK/metrics_px.txt" && break
    sleep 0.1
done
grep "dbselectd_backend_breaker_state{backend=\"$ADDR_B1\"} 0" "$WORK/metrics_px.txt"
grep "dbselectd_backend_up{backend=\"$ADDR_B1\"} 1" "$WORK/metrics_px.txt"

# Fully recovered: byte-identical to the monolith again.
BODY='{"query":"heart blood goal","algo":"lm","shrinkage":"always","seed":11}'
curl -sf -X POST "http://$ADDR_MONO/route" -d "$BODY" > "$WORK/mono.json"
curl -sf -X POST "http://$ADDR_PX/route"   -d "$BODY" > "$WORK/proxy.json"
cmp "$WORK/mono.json" "$WORK/proxy.json"
echo "=== proxy fault drill: ok ==="

for a in "$ADDR_PX" "$ADDR_B0" "$ADDR_B1" "$ADDR_MONO"; do
    curl -sf -X POST "http://$a/admin/shutdown" > /dev/null
done
wait "$PROXY_PID" "$B0_PID" "$MONO_PID" 2>/dev/null || true
EXTRA_PIDS=

# --- live refresh: a 3-delta chain swapped in under client load -----------
# The daemon serves a chain directory and polls it; two `dbselect refresh`
# runs (2 rounds, then 1 more resumed at the tip) append three deltas
# while a client hammers /route. Every in-flight request must succeed
# across the swaps (curl -sf + set -e), the served chain generation must
# reach the tip, and a corrupted delta must roll back atomically — old
# generation keeps serving, failure counted.
ADDR_R=${ADDR_R:-127.0.0.1:7743}
mkdir -p "$WORK/chain"
"$DBSELECT" freeze --store "$WORK/col.store" --out "$WORK/chain/base.snap"

"$DBSELECT" serve --catalog "$WORK/chain" --addr "$ADDR_R" --refresh-interval-ms 100 &
SERVE_PID=$!
await_healthz "$ADDR_R"
curl -sf "http://$ADDR_R/metrics" | grep '^dbselectd_catalog_generation 1$'

# Sustained client load for the whole refresh window.
(
    for _ in $(seq 1 150); do
        curl -sf -X POST "http://$ADDR_R/route" -d '{"query":"heart blood"}' > /dev/null
    done
) &
LOAD_PID=$!

# Drift the med database, then append three delta rounds in two refresh
# processes, paced so the 100ms poller swaps mid-load. The second run
# resumes at the tip the first one left.
printf 'arrhythmia electrocardiogram monitoring of the heart\n' > "$WORK/med/d.txt"
"$DBSELECT" refresh --chain "$WORK/chain" \
    --rounds 2 --budget 1 --full --round-interval-ms 300 \
    med=Health/Medicine="$WORK/med" \
    soccer=Sports/Soccer="$WORK/soccer" | tee "$WORK/refresh.txt"
grep 'round 2 -> generation 2' "$WORK/refresh.txt"
sleep 0.3
"$DBSELECT" refresh --chain "$WORK/chain" --rounds 1 --budget 1 --full \
    med=Health/Medicine="$WORK/med" \
    soccer=Sports/Soccer="$WORK/soccer" | tee "$WORK/refresh2.txt"
grep 'from generation 2' "$WORK/refresh2.txt"
grep 'round 1 -> generation 3' "$WORK/refresh2.txt"
ls "$WORK/chain/delta-000001.snap" "$WORK/chain/delta-000002.snap" \
   "$WORK/chain/delta-000003.snap" > /dev/null

wait "$LOAD_PID"    # zero failed in-flight requests across the swaps

# The poller walked the chain to its tip: served chain generation 3, the
# swap gauge strictly above its initial 1, and zero load failures.
for _ in $(seq 1 100); do
    curl -sf "http://$ADDR_R/readyz" > "$WORK/readyz_r.json"
    grep -q '"catalog_generation":3' "$WORK/readyz_r.json" && break
    sleep 0.1
done
grep '"catalog_generation":3' "$WORK/readyz_r.json"
curl -sf "http://$ADDR_R/metrics" > "$WORK/metrics_r.txt"
grep -E '^dbselectd_catalog_generation [2-9][0-9]*$' "$WORK/metrics_r.txt"
grep '^dbselectd_catalog_load_failures_total 0$' "$WORK/metrics_r.txt"

# The drifted vocabulary is served: terms that only exist in delta rounds
# route to the med database.
curl -sf -X POST "http://$ADDR_R/route" -d '{"query":"arrhythmia electrocardiogram"}' \
    | grep '"med"'

# Corrupt the tip delta (truncate its digest) and force a reload of the
# chain: the load must fail naming the bad file, the old generation must
# keep serving, and the failure must be counted.
cp "$WORK/chain/delta-000003.snap" "$WORK/delta3.bak"
D3_BYTES=$(stat -c %s "$WORK/chain/delta-000003.snap" 2>/dev/null \
    || stat -f %z "$WORK/chain/delta-000003.snap")
head -c $((D3_BYTES - 1)) "$WORK/delta3.bak" > "$WORK/chain/delta-000003.snap"
CODE=$(curl -s -o "$WORK/reload_err.json" -w '%{http_code}' \
    -X POST "http://$ADDR_R/admin/reload" -d "{\"path\":\"$WORK/chain\"}")
[ "$CODE" = 400 ] || { echo "corrupt chain reload answered $CODE, expected 400" >&2; exit 1; }
grep 'delta-000003.snap' "$WORK/reload_err.json"
curl -sf "http://$ADDR_R/readyz" | grep '"catalog_generation":3'   # still serving the old tip
curl -sf -X POST "http://$ADDR_R/route" -d '{"query":"heart blood"}' > /dev/null
curl -sf "http://$ADDR_R/metrics" \
    | grep -E '^dbselectd_catalog_load_failures_total [1-9][0-9]*$'

# Restore the delta: the chain loads again.
cp "$WORK/delta3.bak" "$WORK/chain/delta-000003.snap"
curl -sf -X POST "http://$ADDR_R/admin/reload" -d "{\"path\":\"$WORK/chain\"}" \
    | grep '"catalog_generation":3'

curl -sf -X POST "http://$ADDR_R/admin/shutdown"
echo
wait "$SERVE_PID"
SERVE_PID=
echo "=== live refresh pass: ok ==="

# --- refresh with a database directory gone --------------------------------
# The missing database sits the round out and is reported; the round still
# refreshes the other one and appends its delta.
mkdir -p "$WORK/chain_skip"
"$DBSELECT" freeze --store "$WORK/col.store" --out "$WORK/chain_skip/base.snap"
"$DBSELECT" refresh --chain "$WORK/chain_skip" \
    --rounds 1 --budget 2 --full \
    med=Health/Medicine="$WORK/med" \
    soccer=Sports/Soccer="$WORK/no-such-dir" | tee "$WORK/refresh_skip.txt"
grep 'round 1: skipped soccer' "$WORK/refresh_skip.txt"
grep 'round 1 -> generation 1: refreshed med' "$WORK/refresh_skip.txt"
ls "$WORK/chain_skip/delta-000001.snap" > /dev/null

# --- refresh runs compose: the chain is the schedule -----------------------
# A round's picks are read off the chain (its generation, the generation
# each database was last patched at, the sample coverages), so three
# one-round runs append, byte for byte, the deltas one three-round run
# appends.
mkdir -p "$WORK/chain_long" "$WORK/chain_runs"
"$DBSELECT" freeze --store "$WORK/col.store" --out "$WORK/chain_long/base.snap"
cp "$WORK/chain_long/base.snap" "$WORK/chain_runs/base.snap"
"$DBSELECT" refresh --chain "$WORK/chain_long" --rounds 3 --budget 1 --full \
    med=Health/Medicine="$WORK/med" \
    soccer=Sports/Soccer="$WORK/soccer"
for _ in 1 2 3; do
    "$DBSELECT" refresh --chain "$WORK/chain_runs" --rounds 1 --budget 1 --full \
        med=Health/Medicine="$WORK/med" \
        soccer=Sports/Soccer="$WORK/soccer"
done
for g in 000001 000002 000003; do
    cmp "$WORK/chain_long/delta-$g.snap" "$WORK/chain_runs/delta-$g.snap"
done
echo "=== refresh runs compose: ok ==="

echo "smoke test passed"
