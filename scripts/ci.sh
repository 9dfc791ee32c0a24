#!/usr/bin/env bash
# Tier-1 CI: build everything, run the test suites, then smoke-test the
# observability surface — the stats funnel, a Chrome trace (the phase
# profiler's timeline), a full run report (report.json + trace.json +
# journal.jsonl), candidate forensics via `explain`, and the
# bench-history regression gate — and check that every JSON artifact we
# produce actually parses and that both traces hold an enumerate span.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

echo "== smoke: mirage_cli stats (funnel invariant is checked in-process)"
dune exec bin/mirage_cli.exe -- stats rmsnorm \
  --budget 10 --workers 2 --trace /tmp/mirage_ci_trace.json

echo "== smoke: the goal-distance cut finishes QKNorm's search far inside its budget"
# QKNorm's kernel level is skipped at its root and most block prefixes
# are cut as unreachable, so the whole search completes in about a
# second of its 5 s budget (it used them all before the cut).
dune exec bin/mirage_cli.exe -- stats qknorm --budget 5 --workers 2 \
  > /tmp/mirage_ci_qknorm.txt
grep -Eq '^  reachable +[0-9]+   \(-[1-9][0-9]* unreachable in the op budget\)' \
  /tmp/mirage_ci_qknorm.txt
if grep -q 'budget exhausted' /tmp/mirage_ci_qknorm.txt; then
  echo "stats qknorm exhausted its budget"; exit 1
fi
awk '/funnel invariant: ok;/ { split($0, a, "; "); split(a[2], b, " ");
  if (b[1] + 0 > 2.5) { print "stats qknorm took " b[1] " s"; exit 1 } }' \
  /tmp/mirage_ci_qknorm.txt
# Lanes start their helpers only once a stage has run past ~1 ms: this
# search runs well past it, so its one helper is started; at 3 block
# ops QKNorm has no task at all and starts none.
grep -q '^scheduler: 1 helper lane(s) started,' /tmp/mirage_ci_qknorm.txt
dune exec bin/mirage_cli.exe -- stats qknorm --max-block-ops 3 --workers 2 \
  > /tmp/mirage_ci_qknorm3.txt
grep -q '^scheduler: 0 helper lane(s) started,' /tmp/mirage_ci_qknorm3.txt
grep -Eq '^search\.lanes\.started +0$' /tmp/mirage_ci_qknorm3.txt

echo "== smoke: mirage_cli optimize --report (self-contained run dir)"
# The journal records candidates, not tries, so a reported run searches
# as fast as a plain one: it verifies a winner too, and its journal
# stays small (a few KB; under 1 MB).
rm -rf /tmp/mirage_ci_run
dune exec bin/mirage_cli.exe -- optimize rmsnorm \
  --budget 2 --workers 2 --report /tmp/mirage_ci_run \
  > /tmp/mirage_ci_rmsnorm_report.txt
awk '/^Mirage on / { s = $NF; gsub(/[()x]/, "", s); found = 1
  if (s + 0 <= 1.0) { print "optimize rmsnorm --report: " $NF; exit 1 } }
  END { if (!found) exit 1 }' /tmp/mirage_ci_rmsnorm_report.txt
journal_bytes=$(wc -c < /tmp/mirage_ci_run/journal.jsonl)
if [ "$journal_bytes" -ge 1048576 ]; then
  echo "optimize rmsnorm --report: journal.jsonl is $journal_bytes bytes"; exit 1
fi
# One writer stamps and writes each event under one lock, so file order
# is seq order.
awk -F'[:,]' '$1 != "{\"seq\"" { print "journal line " NR ": no leading seq"; exit 1 }
  NR > 1 && $2 + 0 <= prev { print "journal line " NR ": seq " $2 " after " prev; exit 1 }
  { prev = $2 + 0 }' /tmp/mirage_ci_run/journal.jsonl
# The enumerators tally per-level counters, and every distribution is an
# Hdr: the metrics section holds the level counters and no fixed-bucket
# "histograms" key.
grep -q '"search.block.expanded": [0-9]' /tmp/mirage_ci_run/report.json
grep -q '"search.kernel.reject.pruned": [0-9]' /tmp/mirage_ci_run/report.json
awk '/^  "metrics": \{/ { m = 1 }
  m && /"histograms"/ { print "report.json: metrics has a histograms key"; bad = 1 }
  m && /^  \}/ { m = 0 }
  END { exit bad }' /tmp/mirage_ci_run/report.json

echo "== smoke: a deadline-bound optimize returns the winner it verified"
# RMSNorm's search cannot finish in 2 s. Candidates are verified as they
# are emitted, so the cut still returns a verified winner, not the spec.
dune exec bin/mirage_cli.exe -- optimize rmsnorm --budget 2 \
  > /tmp/mirage_ci_rmsnorm2.txt
grep -Eq '^degraded: (.*, )?deadline(,|$)' /tmp/mirage_ci_rmsnorm2.txt
awk '/^Mirage on / { s = $NF; gsub(/[()x]/, "", s); found = 1
  if (s + 0 <= 1.0) { print "optimize rmsnorm --budget 2: " $NF; exit 1 } }
  END { if (!found) exit 1 }' /tmp/mirage_ci_rmsnorm2.txt

echo "== smoke: explain resolves a journaled candidate"
dune exec bin/mirage_cli.exe -- explain /tmp/mirage_ci_run 0 \
  > /tmp/mirage_ci_explain.txt
grep -Eq '(graph\.emit|verify\.verdict) ' /tmp/mirage_ci_explain.txt

echo "== smoke: profile analyzer attributes the run's search wall time"
dune exec bin/mirage_cli.exe -- profile /tmp/mirage_ci_run \
  --min-coverage 0.95 >/dev/null

echo "== smoke: bench --json"
dune exec bench/main.exe -- fig7 --json /tmp/mirage_ci_bench.json >/dev/null

echo "== smoke: bench enum --json records the gqa prune questions, the gqa and ntrans minor words, per search and per expansion, root enumeration times and a search's fixed words"
dune exec bench/main.exe -- enum --json /tmp/mirage_ci_enum.json >/dev/null
dune exec tools/json_check.exe -- /tmp/mirage_ci_enum.json
grep -q '"solver_queries_per_expansion"' /tmp/mirage_ci_enum.json
grep -q '"benchmark":"gqa"[^}]*"minor_words_per_expansion"' /tmp/mirage_ci_enum.json
grep -q '"benchmark":"ntrans"[^}]*"minor_words_per_expansion"' /tmp/mirage_ci_enum.json
grep -q '"benchmark":"gqa"[^}]*"expanded"' /tmp/mirage_ci_enum.json
grep -q '"benchmark":"gqa"[^}]*"solver_queries"' /tmp/mirage_ci_enum.json
grep -q '"benchmark":"gqa"[^}]*"minor_words"' /tmp/mirage_ci_enum.json
grep -q '"benchmark":"ntrans"[^}]*"expanded"' /tmp/mirage_ci_enum.json
grep -q '"benchmark":"ntrans"[^}]*"minor_words"' /tmp/mirage_ci_enum.json
grep -q '"benchmark":"gqa"[^}]*"roots_ms"' /tmp/mirage_ci_enum.json
grep -q '"benchmark":"lora"[^}]*"roots_ms"' /tmp/mirage_ci_enum.json
grep -q '"benchmark":"fig7"[^}]*"fixed_words"' /tmp/mirage_ci_enum.json
grep -q '"benchmark":"rmsnorm"[^}]*"gen_1d_s"[^}]*"minor_words"[^}]*"kernel_minor_words"' \
  /tmp/mirage_ci_enum.json
grep -q '"benchmark":"rmsnorm_wide"[^}]*"speedup_4d"' /tmp/mirage_ci_enum.json

echo "== validate JSON artifacts (journal is checked line by line)"
dune exec tools/json_check.exe -- \
  /tmp/mirage_ci_trace.json /tmp/mirage_ci_bench.json \
  /tmp/mirage_ci_run/report.json /tmp/mirage_ci_run/trace.json \
  /tmp/mirage_ci_run/journal.jsonl
grep -q '"name":"enumerate"' /tmp/mirage_ci_trace.json
grep -q '"name":"enumerate"' /tmp/mirage_ci_run/trace.json

echo "== codegen smoke: runnable backend differential (chaos off)"
# The generated C for the rmsnorm and gated-MLP winners must compile
# with the system cc and agree with the muGraph interpreter to 1e-4 on
# random inputs; run-winner replays the winning muGraph persisted in
# the optimize --report run dir above. Skipped (loudly) when the host
# has no working C compiler — everything else in CI still runs.
if cc -xc -o /tmp/mirage_ci_ccprobe - <<<'int main(void){return 0;}' \
    >/dev/null 2>&1 && /tmp/mirage_ci_ccprobe; then
  dune exec bin/mirage_cli.exe -- verify rmsnorm --differential
  dune exec bin/mirage_cli.exe -- verify gatedmlp --differential
  dune exec bin/mirage_cli.exe -- run-winner /tmp/mirage_ci_run
  echo "== codegen smoke: bench codegen --json has a row per Fig. 7 template plan"
  dune exec bench/main.exe -- codegen --json /tmp/mirage_ci_codegen.json >/dev/null
  dune exec tools/json_check.exe -- /tmp/mirage_ci_codegen.json
  for wl in gqa qknorm rmsnorm lora gatedmlp ntrans; do
    grep -q "\"benchmark\":\"$wl\",\"c_lines\"" /tmp/mirage_ci_codegen.json
  done
else
  echo "*** SKIPPING codegen smoke: no working C compiler (cc) on this host ***"
fi

echo "== chaos smoke: enumerator crashes (block and kernel level) are quarantined, run still lands"
rm -rf /tmp/mirage_ci_chaos1
MIRAGE_FAULT="enum.block:1.0:2" dune exec bin/mirage_cli.exe -- \
  optimize rmsnorm --budget 2 --workers 2 \
  --report /tmp/mirage_ci_chaos1 >/dev/null
grep -q '"state": "\(ok\|degraded\)"' /tmp/mirage_ci_chaos1/report.json
# Workers pop their deques LIFO, so the kernel task (seeded first) runs
# late; at most 2 block ops lets the search reach it within the budget.
rm -rf /tmp/mirage_ci_chaos1k
MIRAGE_FAULT="enum.kernel:1.0:1" dune exec bin/mirage_cli.exe -- \
  optimize rmsnorm --budget 2 --workers 2 --max-block-ops 2 \
  --report /tmp/mirage_ci_chaos1k >/dev/null
grep -q '"state": "\(ok\|degraded\)"' /tmp/mirage_ci_chaos1k/report.json
grep -q '"ev":"cand.crash".*"kind":"kernel"' /tmp/mirage_ci_chaos1k/journal.jsonl

echo "== chaos smoke: journal write failure degrades, never crashes"
rm -rf /tmp/mirage_ci_chaos2
MIRAGE_FAULT="journal.write:1.0:1" dune exec bin/mirage_cli.exe -- \
  optimize rmsnorm --budget 2 --workers 2 \
  --report /tmp/mirage_ci_chaos2 >/dev/null
grep -q '"state": "\(ok\|degraded\)"' /tmp/mirage_ci_chaos2/report.json
# the one faulted write drops exactly its own event
grep -q '"dropped_events": 1$' /tmp/mirage_ci_chaos2/report.json

echo "== validate chaos artifacts (journals must have no torn lines)"
dune exec tools/json_check.exe -- \
  /tmp/mirage_ci_chaos1/report.json /tmp/mirage_ci_chaos1/journal.jsonl \
  /tmp/mirage_ci_chaos1k/report.json /tmp/mirage_ci_chaos1k/journal.jsonl \
  /tmp/mirage_ci_chaos2/report.json /tmp/mirage_ci_chaos2/journal.jsonl

echo "== smoke: mirage_cli diff gates a raised cost (Obs.Report.diff_rules)"
rm -rf /tmp/mirage_ci_diff_base
dune exec bin/mirage_cli.exe -- optimize rmsnorm --budget 2 --workers 2 \
  --report /tmp/mirage_ci_diff_base >/dev/null
dune exec bin/mirage_cli.exe -- diff /tmp/mirage_ci_diff_base \
  /tmp/mirage_ci_diff_base >/dev/null
rm -rf /tmp/mirage_ci_diff && mkdir -p /tmp/mirage_ci_diff
awk '!d && /"optimized_us":/ { split($0, kv, ": "); v = kv[2];
  c = (v ~ /,$/) ? "," : ""; sub(/,$/, "", v);
  sub(/: .*/, ": " v * 1.1 c); d = 1 } { print }' \
  /tmp/mirage_ci_diff_base/report.json > /tmp/mirage_ci_diff/report.json
if dune exec bin/mirage_cli.exe -- diff /tmp/mirage_ci_diff_base \
    /tmp/mirage_ci_diff > /tmp/mirage_ci_diff/out.txt; then
  echo "diff passed a 10% cost regression"; exit 1
fi
grep -q '^REGRESSION cost.optimized_us:' /tmp/mirage_ci_diff/out.txt

echo "== resume smoke: kill-and-resume lands in the same run dir"
# A 5 s reported GatedMLP search is cut by its deadline holding a
# verified incumbent (4.02 us), so the checkpoint has one to reload.
# The resumed run starts from it, so it reports at most the first
# run's optimized us: the same, or the 4.01 us winner of a task the
# first run left unfinished. A resume that lost the incumbent reports
# the spec's 16.01 us unless it finds a winner again in 5 s.
rm -rf /tmp/mirage_ci_resume
dune exec bin/mirage_cli.exe -- optimize gatedmlp \
  --budget 5 --workers 2 --report /tmp/mirage_ci_resume \
  > /tmp/mirage_ci_resume1.txt
test -f /tmp/mirage_ci_resume/checkpoint.json
grep -q '"incumbent":{' /tmp/mirage_ci_resume/checkpoint.json
dune exec bin/mirage_cli.exe -- optimize gatedmlp \
  --budget 5 --workers 2 --resume /tmp/mirage_ci_resume \
  > /tmp/mirage_ci_resume2.txt
US1=$(sed -n 's/^Mirage on .* -> \([0-9.]*\) us .*/\1/p' /tmp/mirage_ci_resume1.txt)
US2=$(sed -n 's/^Mirage on .* -> \([0-9.]*\) us .*/\1/p' /tmp/mirage_ci_resume2.txt)
test -n "$US1" && test -n "$US2"
awk -v a="$US1" -v b="$US2" 'BEGIN { exit !(b + 0 <= a + 0) }' || {
  echo "resumed run reports $US2 us, the first $US1 us"; exit 1; }
grep -q '"state": "\(ok\|degraded\)"' /tmp/mirage_ci_resume/report.json
dune exec tools/json_check.exe -- /tmp/mirage_ci_resume/checkpoint.json
# A checkpoint holds the task cursor and the verified incumbent only.
grep -q '"mirage.checkpoint.v4"' /tmp/mirage_ci_resume/checkpoint.json
if grep -q '"candidates"' /tmp/mirage_ci_resume/checkpoint.json; then
  echo "checkpoint.json holds a candidate list"; exit 1
fi

echo "== service smoke: daemon, coalesced identical requests, cache hit"
rm -rf /tmp/mirage_ci_svc
mkdir -p /tmp/mirage_ci_svc
CLI=./_build/default/bin/mirage_cli.exe
REQ="--socket /tmp/mirage_ci_svc/s.sock --max-block-ops 3 --workers 1 --budget 10"
$CLI serve --socket /tmp/mirage_ci_svc/s.sock \
  --cache-dir /tmp/mirage_ci_svc/cache --max-block-ops 3 --workers 1 \
  --budget 10 --journal /tmp/mirage_ci_svc/journal.jsonl \
  > /tmp/mirage_ci_svc/serve.log 2>&1 &
SVC_PID=$!
for _ in $(seq 1 50); do
  $CLI request status $REQ >/dev/null 2>&1 && break
  sleep 0.2
done
# two identical requests in flight at once -> single-flight: one search
$CLI request rmsnorm $REQ > /tmp/mirage_ci_svc/r1.json &
R1=$!
$CLI request rmsnorm $REQ > /tmp/mirage_ci_svc/r2.json &
R2=$!
# scrape the metrics exposition mid-load (the client validates the
# snapshot against the schema and exits nonzero on a malformed one)
$CLI request metrics $REQ > /tmp/mirage_ci_svc/metrics_midload.json
wait "$R1" "$R2"
# both answered from the same search (same fingerprint, one search.start)
FP1=$(grep -o '"fingerprint": "[0-9a-f]*"' /tmp/mirage_ci_svc/r1.json | head -1)
FP2=$(grep -o '"fingerprint": "[0-9a-f]*"' /tmp/mirage_ci_svc/r2.json | head -1)
test -n "$FP1" && test "$FP1" = "$FP2"
$CLI request status $REQ | grep -q '"searches": 1'
# a third identical request is a pure cache hit
$CLI request rmsnorm $REQ | grep -q '"cached": true'
# the outcome counters agree with the request pattern: one search miss,
# and the other two optimize requests either coalesced or hit the cache.
# Samples fold into the registry just after the response goes out, so a
# scrape racing the last response can trail it by one — retry briefly.
for _ in $(seq 1 25); do
  $CLI request metrics $REQ > /tmp/mirage_ci_svc/metrics.json
  HIT=$(grep -o '"hit": [0-9]*' /tmp/mirage_ci_svc/metrics.json | head -1 | grep -o '[0-9]*')
  COAL=$(grep -o '"coalesced": [0-9]*' /tmp/mirage_ci_svc/metrics.json | head -1 | grep -o '[0-9]*')
  [ "$(( ${HIT:-0} + ${COAL:-0} ))" -eq 2 ] && break
  sleep 0.2
done
grep -q '"miss": 1' /tmp/mirage_ci_svc/metrics.json
test "$((HIT + COAL))" -eq 2
# the daemon adds each finished search's counters to its registry: the
# "search" section's expansions are the two levels' counters' sum
count() { grep -o "\"$1\": [0-9]*" /tmp/mirage_ci_svc/metrics.json | head -1 | grep -o '[0-9]*$' || true; }
EXP=$(count search.expanded)
KEXP=$(count search.kernel.expanded)
BEXP=$(count search.block.expanded)
test -n "$EXP" && test -n "$KEXP" && test -n "$BEXP" \
  && test "$EXP" -gt 0 && test "$EXP" -eq "$((KEXP + BEXP))" || {
  echo "metrics: search.expanded $EXP is not kernel $KEXP + block $BEXP"; exit 1; }
# the prometheus text rendering and the live status view both answer
$CLI request metrics $REQ --prometheus | grep -q '^serve_total'
# distributions render as summaries: no native-histogram bucket series
$CLI request metrics $REQ --prometheus > /tmp/mirage_ci_svc/metrics.prom
if grep -q '_bucket{' /tmp/mirage_ci_svc/metrics.prom; then
  echo "request metrics --prometheus: a _bucket{ series"; exit 1
fi
$CLI request status $REQ | grep -q '"uptime_s"'
# a cold search with --progress streams at least one rid-tagged frame
# (distinct fingerprint via --max-block-ops 2 so the cache can't answer;
# stderr is not a tty here, so frames render one line each)
$CLI request rmsnorm --socket /tmp/mirage_ci_svc/s.sock \
  --max-block-ops 2 --workers 1 --budget 10 --progress \
  > /tmp/mirage_ci_svc/r_prog.json 2> /tmp/mirage_ci_svc/progress.log
grep -q 'nodes' /tmp/mirage_ci_svc/progress.log
grep -q '"cached": false' /tmp/mirage_ci_svc/r_prog.json
# the idle daemon's live-connection count is the status request's own;
# earlier handlers are reaped just after their replies, so retry briefly
for _ in $(seq 1 25); do
  $CLI request status $REQ > /tmp/mirage_ci_svc/status.json
  grep -q '"in_flight": 1,' /tmp/mirage_ci_svc/status.json && break
  sleep 0.2
done
grep -q '"in_flight": 1,' /tmp/mirage_ci_svc/status.json || {
  echo "status on an idle daemon: $(grep '"in_flight"' /tmp/mirage_ci_svc/status.json), not 1"
  exit 1; }
# clean shutdown: daemon exits, socket removed, journal agrees on two
# searches (the coalesced trio's one + the progress request's cold one)
$CLI request shutdown $REQ >/dev/null
wait "$SVC_PID"
test ! -e /tmp/mirage_ci_svc/s.sock
test "$(grep -c '"ev":"search.start"' /tmp/mirage_ci_svc/journal.jsonl)" -eq 2
dune exec tools/json_check.exe -- /tmp/mirage_ci_svc/journal.jsonl \
  /tmp/mirage_ci_svc/metrics_midload.json /tmp/mirage_ci_svc/metrics.json

echo "== wire chaos smoke: hostile clients, typed rejections, clean drain"
# A daemon with short frame and idle deadlines faces concurrent
# mixed-behavior clients: honest requests, MIRAGE_FAULT-armed clients
# that emit torn/oversized/cut frames, and an impossible deadline. Every
# rejection must be typed JSON (never a hang or raw disconnect), the
# daemon must answer normally afterwards, and a drained shutdown must
# leave no socket and no orphaned cache temp files.
rm -rf /tmp/mirage_ci_wire
mkdir -p /tmp/mirage_ci_wire
WREQ="--socket /tmp/mirage_ci_wire/s.sock --max-block-ops 3 --workers 1 --budget 10"
$CLI serve --socket /tmp/mirage_ci_wire/s.sock \
  --cache-dir /tmp/mirage_ci_wire/cache --max-block-ops 3 --workers 1 \
  --budget 10 --frame-timeout 2 --idle-timeout 2 \
  > /tmp/mirage_ci_wire/serve.log 2>&1 &
WIRE_PID=$!
for _ in $(seq 1 50); do
  $CLI request status $WREQ >/dev/null 2>&1 && break
  sleep 0.2
done
# warm one honest entry
$CLI request rmsnorm $WREQ >/dev/null
# hostile clients in parallel: each MIRAGE_FAULT-armed CLI corrupts its
# own frame on the wire (exit nonzero locally); the daemon must survive
MIRAGE_FAULT="wire.torn:1.0:1" $CLI request status $WREQ \
  > /tmp/mirage_ci_wire/torn.json 2>&1 || true &
H1=$!
MIRAGE_FAULT="wire.disconnect:1.0:1" $CLI request status $WREQ \
  > /tmp/mirage_ci_wire/cut.json 2>&1 || true &
H2=$!
MIRAGE_FAULT="wire.oversize:1.0:1" $CLI request status $WREQ \
  > /tmp/mirage_ci_wire/big.json 2>&1 || true &
H3=$!
# a 1 ms deadline on a cold fingerprint answers the typed timeout,
# whether it passed in the slot queue or during the search (capped to
# what remained) — never an "ok" past the deadline, never a hang.
for wl in lora rmsnorm; do
  $CLI request $wl --socket /tmp/mirage_ci_wire/s.sock \
    --max-block-ops 2 --workers 1 --budget 10 --deadline 1 \
    > /tmp/mirage_ci_wire/dl.json || true
  grep -q '"error": "timeout"' /tmp/mirage_ci_wire/dl.json
done
wait "$H1" "$H2" "$H3" || true
# the daemon shrugged it all off: a retrying client lands a warm answer
$CLI request rmsnorm $WREQ --retry | grep -q '"cached": true'
# the wire counters saw the chaos (torn + disconnect + oversize frames)
$CLI request metrics $WREQ | grep -q '"service.wire.torn"'
# drained shutdown: socket gone, no orphaned cache temp files anywhere
$CLI request shutdown $WREQ --drain 2 >/dev/null
wait "$WIRE_PID"
test ! -e /tmp/mirage_ci_wire/s.sock
test -z "$(find /tmp/mirage_ci_wire/cache -name '.result.json.tmp.*' \
  -not -path '*/quarantine/*' 2>/dev/null)"

echo "== bench history regression gate (Fig. 7 + verifier + service + enum + codegen, 5%; loc recorded)"
# Gate against the committed baseline on a scratch copy so CI runs never
# dirty the tree. Which key regresses, in which direction and with what
# slack is one table, Obs.Report.history_rules (lib/obs/report.ml); the
# suites' own hard checks (serve's 50x floor over max(cold, 100 ms),
# profile's 1% overhead, enum's scaling asserts) fail the run on their
# own.
cp BENCH_history.jsonl /tmp/mirage_ci_history.jsonl
dune exec bench/main.exe -- fig7 verify serve profile enum codegen loc \
  --history /tmp/mirage_ci_history.jsonl --gate 5 >/dev/null
# the serve suite prices a miss against a direct search of its spec
tail -1 /tmp/mirage_ci_history.jsonl | grep -q '"serve.fig7.cold_over_direct"'

echo "CI OK"
