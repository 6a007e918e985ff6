#!/usr/bin/env bash
# Server smoke: run cograd, subscribe a query over HTTP, push the first
# half of a generated stream, drain the results seen so far, SIGTERM
# the server mid-stream (graceful drain checkpoints every tenant),
# restart it from the checkpoint directory with a different -workers,
# push the second half, close the tenant and drain the rest — then
# require part1+part2 to be byte-identical to an embedded cograql run
# over the whole stream. The
# network service must add zero result drift: not across tenants, not
# across a restart. A second leg SIGKILLs a server that checkpoints on
# a cadence (-checkpoint-every) right after its checkpoint at the cut,
# plants a stale temp frame, restarts it and pushes the suffix: the
# result must again be byte-identical. Before any of that, a query
# nested thousands of levels deep must be refused with a 400 while the
# server stays up. Run from the repo root.
set -euo pipefail

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"; kill "$SRV" 2>/dev/null || true' EXIT

go build -o "$DIR/cograd" ./cmd/cograd
go build -o "$DIR/cograql" ./cmd/cograql
go build -o "$DIR/cogragen" ./cmd/cogragen
go build -o "$DIR/client" ./examples/cograd-client

Q='RETURN COUNT(*), MAX(Stock.price) PATTERN Stock+ SEMANTICS skip-till-next-match WHERE [company] AND Stock.price <= NEXT(Stock).price GROUP-BY company WITHIN 100 SLIDE 50'
CUT=1500
PORT=18080
ADDR="http://127.0.0.1:$PORT"

"$DIR/cogragen" -dataset stock -events 3000 > "$DIR/stream.csv"

# Reference: the undisturbed embedded run of the one query.
"$DIR/cograql" -query "$Q" < "$DIR/stream.csv" > "$DIR/full.out"

# start_server LOG FLAGS...: run cograd in the background, logging to
# $DIR/LOG, and wait until it is healthy.
start_server() {
  LOG="$DIR/$1"
  shift
  "$DIR/cograd" -addr "127.0.0.1:$PORT" "$@" > "$LOG" 2>&1 &
  SRV=$!
  for _ in $(seq 1 300); do
    curl -sf "$ADDR/healthz" > /dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "server_smoke: cograd never became healthy" >&2
  cat "$LOG" >&2
  exit 1
}

start_server cograd.log -checkpoint-dir "$DIR/ck"
# A pattern nested past the parser's bound is a bad request, not a
# crash.
LEVELS=4096
DEEP="RETURN COUNT(*) PATTERN $(printf '%*s' "$LEVELS" '' | tr ' ' '(')Stock$(printf '%*s' "$LEVELS" '' | tr ' ' ')')+ WITHIN 10 SLIDE 10"
CODE=$(curl -s -o "$DIR/deep.out" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  --data-binary "{\"query\": \"$DEEP\"}" "$ADDR/v1/smoke/queries")
[ "$CODE" = 400 ] || {
  echo "server_smoke: a query nested $LEVELS levels deep got http $CODE, want 400" >&2
  cat "$DIR/deep.out" "$LOG" >&2
  exit 1
}
curl -sf "$ADDR/healthz" > /dev/null || {
  echo "server_smoke: cograd is not healthy after the deeply nested query" >&2
  cat "$LOG" >&2
  exit 1
}
ID=$("$DIR/client" -addr "$ADDR" -tenant smoke -mode subscribe -query "$Q")
"$DIR/client" -addr "$ADDR" -tenant smoke -mode push -input "$DIR/stream.csv" -to "$CUT"
"$DIR/client" -addr "$ADDR" -tenant smoke -mode drain -id "$ID" > "$DIR/part1.out"

# Graceful drain: SIGTERM checkpoints the tenant (unconsumed results
# ride along) and the process exits cleanly.
kill -TERM "$SRV"
wait "$SRV" || {
  echo "server_smoke: cograd exited non-zero on SIGTERM" >&2
  cat "$LOG" >&2
  exit 1
}
[ -n "$(ls "$DIR/ck" 2>/dev/null)" ] || {
  echo "server_smoke: no checkpoint written on drain" >&2
  exit 1
}

# Restart from the checkpoint: the subscription keeps its id, the
# session resumes mid-window, and the stream suffix continues exactly
# where the prefix left off. The restart asks for 2 workers; the first
# run had the default 1, and a restored tenant keeps its checkpoint's
# configuration (the flag shapes only new tenants).
start_server cograd2.log -checkpoint-dir "$DIR/ck" -workers 2
"$DIR/client" -addr "$ADDR" -tenant smoke -mode push -input "$DIR/stream.csv" -from "$CUT"
"$DIR/client" -addr "$ADDR" -tenant smoke -mode close
"$DIR/client" -addr "$ADDR" -tenant smoke -mode drain -id "$ID" > "$DIR/part2.out"
kill -TERM "$SRV"
wait "$SRV" || true

cat "$DIR/part1.out" "$DIR/part2.out" > "$DIR/served.out"
diff "$DIR/served.out" "$DIR/full.out" || {
  echo "server_smoke: served results differ from the embedded run" >&2
  exit 1
}

# SIGKILL leg. Step "kill at a checkpoint boundary": cograd checkpoints
# the tenant every CUT accepted events, before it acknowledges the
# request that reached CUT; once the log names that checkpoint the
# process is killed outright, with no drain. Nothing is drained from
# the tenant before the kill: results drained after a checkpoint would
# come back after a crash, because results are not yet resumable
# (ROADMAP item 5(c)).
start_server crash.log -checkpoint-dir "$DIR/ck2" -checkpoint-every "$CUT"
ID=$("$DIR/client" -addr "$ADDR" -tenant crash -mode subscribe -query "$Q")
"$DIR/client" -addr "$ADDR" -tenant crash -mode push -input "$DIR/stream.csv" -to "$CUT"
grep -q "checkpointed to .* @ $CUT events" "$LOG" || {
  echo "server_smoke: no checkpoint @ $CUT events before the kill" >&2
  cat "$LOG" >&2
  exit 1
}
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true

# Step "a stale temp frame refused": a crash mid-write leaves
# <frame>.tmp beside the durable frame. cograd must boot on the durable
# frame and never read the temp file.
FRAME=$(ls "$DIR"/ck2/*.snap)
printf 'COGRASNP torn' > "$FRAME.tmp"
start_server crash2.log -checkpoint-dir "$DIR/ck2" -checkpoint-every "$CUT"
grep -q "restored from $(basename "$FRAME")\$" "$LOG" || {
  echo "server_smoke: cograd did not boot on the durable frame" >&2
  cat "$LOG" >&2
  exit 1
}

# Step "restore plus suffix equal to the undisturbed run": the client
# re-sends everything after the checkpoint.
"$DIR/client" -addr "$ADDR" -tenant crash -mode push -input "$DIR/stream.csv" -from "$CUT"
"$DIR/client" -addr "$ADDR" -tenant crash -mode close
"$DIR/client" -addr "$ADDR" -tenant crash -mode drain -id "$ID" > "$DIR/recovered.out"
kill -TERM "$SRV"
wait "$SRV" || true
diff "$DIR/recovered.out" "$DIR/full.out" || {
  echo "server_smoke: results recovered after SIGKILL differ from the embedded run" >&2
  exit 1
}
echo "server_smoke: PASS (SIGTERM and SIGKILL at event $CUT; $(wc -l < "$DIR/full.out") result lines byte-identical across each restart)"
