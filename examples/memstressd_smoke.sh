#!/bin/sh
# Smoke test for the memstressd daemon and the environment it parses.
#
# Starts memstressd in a temp dir on an ephemeral port with the undervolt
# backend (its default grid characterizes in well under a second) and a set
# of server knobs, one of them invalid, then checks that:
#   * `memstress_client health` reports the four valid values;
#   * stderr holds exactly one warning, naming MEMSTRESS_MAX_INFLIGHT;
#   * SIGINT drains the daemon and it exits 130;
#   * the MEMSTRESS_METRICS_STREAM file has a "label":"memstressd" line.
# The daemon runs under `timeout`, so a hang fails the test instead of
# wedging it. `--foreground` makes timeout forward the SIGINT to the daemon
# once: a second SIGINT would abort the daemon mid-drain.
#
# Usage: memstressd_smoke.sh <memstressd> <memstress_client>
set -u

daemon=$1
client=$2
case $daemon in /*) ;; *) daemon=$PWD/$daemon ;; esac
case $client in /*) ;; *) client=$PWD/$client ;; esac
work=$(mktemp -d)
pid=

cleanup() {
  # On a failed check: timeout passes the TERM on to the daemon.
  [ -n "$pid" ] && kill "$pid" 2>/dev/null && wait "$pid"
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "memstressd_smoke: FAIL: $*" >&2
  for f in stdout stderr health; do
    [ -f "$work/$f" ] && sed "s/^/  $f: /" "$work/$f" >&2
  done
  exit 1
}

cd "$work" || exit 1
mkfifo stdout.fifo
MEMSTRESS_TECHNOLOGY=undervolt MEMSTRESS_PORT=0 MEMSTRESS_SERVER_WORKERS=2 \
MEMSTRESS_QUEUE_DEPTH=7 MEMSTRESS_CACHE_ENTRIES=5 MEMSTRESS_BATCH_MAX=3 \
MEMSTRESS_MAX_INFLIGHT=junk MEMSTRESS_METRICS_STREAM="$work/stream.ndjson" \
  timeout --foreground 60 "$daemon" "$work/cache.csv" >stdout.fifo \
  2>stderr &
pid=$!

# Block on the daemon's stdout until it announces its port; EOF (the daemon
# died, or timeout killed it) ends the loop with no port.
exec 3<stdout.fifo
port=
while IFS= read -r line <&3; do
  echo "$line" >>stdout
  case $line in
    *"listening on "*)
      port=${line#*listening on }
      port=${port#*:}
      port=${port%% *}
      break
      ;;
  esac
done
[ -n "$port" ] || fail "daemon never reported a listening port"

MEMSTRESS_PORT=$port timeout 10 "$client" health >health ||
  fail "health request failed"
for want in '"workers":2' '"queue_depth":7' '"cache_entries":5' \
    '"batch_max":3'; do
  grep -qF "$want" health || fail "health lacks $want"
done

kill -INT "$pid"
wait "$pid"
status=$?
pid=
cat <&3 >>stdout
[ "$status" -eq 130 ] || fail "SIGINT exit status $status, want 130"
grep -qF 'drained and stopped' stderr || fail "SIGINT did not drain the daemon"

warnings=$(grep -c '^\[WARN\]' stderr)
[ "$warnings" -eq 1 ] || fail "$warnings warnings on stderr, want 1"
grep '^\[WARN\]' stderr | grep -qF MEMSTRESS_MAX_INFLIGHT ||
  fail "the warning does not name MEMSTRESS_MAX_INFLIGHT"

grep -qF '"label":"memstressd"' stream.ndjson 2>/dev/null ||
  fail "no memstressd line in the metrics stream"

echo "memstressd_smoke: PASS (port $port, $(wc -l <stream.ndjson) stream lines)"
