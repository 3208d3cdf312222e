#!/usr/bin/env bash
# End-to-end smoke test for the observability surface: boot qoeserve,
# replay a generated live stream into /ingest, then assert every
# operator endpoint answers and the exposition carries the expected
# families; then run the two CLI tools that embed the same engine at
# one shard (qoewatch, qoepcap -analyze) and assert their reports and
# closing sections; last, run `make report` at quick scale on a copy of
# EXPERIMENTS.md and assert the hand-written record below the generated
# part survives. CI runs this after the unit suite; it is also the
# fastest way to sanity-check a local build:
#
#   ./scripts/smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18080"
WADDR="127.0.0.1:19090"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
SERVE_PID=
WATCH_PID=
trap 'kill $SERVE_PID $WATCH_PID 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build"
go build -o "$TMP/qoeserve" ./cmd/qoeserve
go build -o "$TMP/qoegen" ./cmd/qoegen
go build -o "$TMP/qoewatch" ./cmd/qoewatch
go build -o "$TMP/qoepcap" ./cmd/qoepcap

echo "== boot qoeserve"
"$TMP/qoeserve" -addr "$ADDR" -wire "$WADDR" -train-n 200 -shards 4 -pprof \
    -log-level debug >"$TMP/serve.log" 2>&1 &
SERVE_PID=$!

for i in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "qoeserve died during startup:" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
    sleep 0.5
done
curl -fsS "$BASE/healthz" | grep -q ok
echo "   healthz ok"

echo "== ingest a generated live stream (with ground-truth labels)"
"$TMP/qoegen" -kind live -subscribers 16 -n 2 -seed 7 -label-rate 0.5 \
    -format jsonl >"$TMP/live.jsonl"
test -s "$TMP/live.jsonl"
grep -q '"type":"label"' "$TMP/live.jsonl" ||
    { echo "qoegen -label-rate emitted no label lines" >&2; exit 1; }
INGEST=$(curl -fsS -X POST --data-binary @"$TMP/live.jsonl" "$BASE/ingest")
ACCEPTED=$(grep -o '"accepted":[0-9]*' <<<"$INGEST" | cut -d: -f2)
LABELS=$(grep -o '"labels_accepted":[0-9]*' <<<"$INGEST" | cut -d: -f2)
echo "   accepted $ACCEPTED entries, $LABELS labels"
test "$ACCEPTED" -gt 0
test "${LABELS:-0}" -gt 0

echo "== wire ingest (binary protocol, ack barrier)"
"$TMP/qoegen" -kind live -subscribers 8 -n 1 -seed 9 -label-rate 0.5 \
    -wire "$WADDR" 2>"$TMP/wire.log"
cat "$TMP/wire.log"
grep -q 'wire sync: server decoded' "$TMP/wire.log" ||
    { echo "qoegen -wire reported no server ack" >&2; exit 1; }
curl -fsS "$BASE/debug/sessions" | grep -q '"shards"'
curl -fsS "$BASE/metrics" >"$TMP/wire-metrics.txt"
for family in \
    vqoe_wire_connections_total \
    vqoe_wire_frames_total \
    vqoe_wire_entries_total \
    vqoe_wire_labels_total \
    vqoe_wire_acks_total \
    vqoe_wire_stage_duration_seconds; do
    grep -q "^$family" "$TMP/wire-metrics.txt" ||
        { echo "missing wire family $family" >&2; exit 1; }
done
WIRE_ENTRIES=$(grep '^vqoe_wire_entries_total' "$TMP/wire-metrics.txt" | awk '{print $2}')
echo "   wire listener decoded $WIRE_ENTRIES entries"
test "${WIRE_ENTRIES%.*}" -gt 0

echo "== scrape /metrics"
curl -fsS "$BASE/metrics" >"$TMP/metrics.txt"
for family in \
    vqoe_entries_total \
    vqoe_sessions_total \
    vqoe_sessions_by_quality \
    vqoe_sessions_switch_varying \
    vqoe_engine_shard_open_sessions \
    vqoe_stage_duration_seconds_bucket \
    vqoe_model_predictions_total \
    vqoe_model_feature_psi \
    vqoe_model_degraded \
    vqoe_quality_labels_total \
    vqoe_build_info \
    vqoe_flight_recorded_sessions_total \
    vqoe_flight_retained_sessions_total \
    vqoe_go_goroutines; do
    grep -q "^$family" "$TMP/metrics.txt" ||
        { echo "missing family $family" >&2; exit 1; }
done
# every family must be self-describing
for family in $(grep -o '^vqoe_[a-z_]*' "$TMP/metrics.txt" |
    sed 's/_bucket$//;s/_sum$//;s/_count$//' | sort -u); do
    grep -q "^# TYPE $family " "$TMP/metrics.txt" ||
        { echo "family $family lacks # TYPE" >&2; exit 1; }
done
# the stage histogram must cover >= 4 pipeline stages
STAGES=$(grep -o 'vqoe_stage_duration_seconds_count{stage="[a-z_]*"' "$TMP/metrics.txt" |
    sort -u | wc -l)
echo "   $STAGES stages instrumented"
test "$STAGES" -ge 4

echo "== debug endpoints"
curl -fsS "$BASE/debug/sessions" | grep -q '"shards"'
curl -fsS "$BASE/debug/trace" >"$TMP/trace.json"
grep -q '"traceEvents"' "$TMP/trace.json"
python3 -c "import json,sys; t=json.load(open('$TMP/trace.json')); sys.exit(0 if t['traceEvents'] else 1)" 2>/dev/null ||
    grep -q '"ph"' "$TMP/trace.json"
curl -fsS "$BASE/debug/pprof/" >/dev/null
echo "   sessions, trace, pprof ok"

echo "== model-quality health"
curl -fsS "$BASE/debug/quality" >"$TMP/quality.json"
# the document must be well-formed JSON with both models and a status each
python3 - "$TMP/quality.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
models = doc["models"]
assert len(models) == 2, f"want stall+rep, got {len(models)} models"
for m in models:
    assert m["status"] in ("ok", "degraded", "no baseline"), m["status"]
    assert m["has_baseline"], f"model {m['model']} served without a baseline"
    assert m["samples"] > 0, f"model {m['model']} saw no traffic"
assert doc["labels"]["total"] > 0, "label side-channel never reached the monitor"
print("   models:", ", ".join(f"{m['model']}={m['status']}" for m in models),
      f"(labels total={doc['labels']['total']} matched={doc['labels']['matched']})")
PY

echo "== fleet cohort rollup"
curl -fsS "$BASE/debug/cohorts" >"$TMP/cohorts.json"
# well-formed JSON: every cohort row carries a key, a session count,
# and MOS quantiles inside the scale; totals reconcile with the rows
python3 - "$TMP/cohorts.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
cohorts = doc["cohorts"]
assert cohorts, "live traffic carried cohort metadata but the rollup is empty"
assert doc["capacity"] > 0, "rollup reports no cardinality cap"
total = 0
for c in cohorts:
    assert c["cohort"], "cohort row without a key"
    assert c["sessions"] > 0, f"empty cohort row {c['cohort']}"
    for q in ("mos_p10", "mos_p50", "mos_p90"):
        assert 1.0 <= c[q] <= 5.0, f"{c['cohort']} {q}={c[q]} outside the MOS scale"
    total += c["sessions"]
if doc.get("overflow"):
    total += doc["overflow"]["sessions"]
assert total == doc["total_sessions"], \
    f"rows sum to {total}, document says {doc['total_sessions']}"
worst = cohorts[0]
print(f"   {len(cohorts)} cohorts over {doc['total_sessions']} sessions,",
      f"worst {worst['cohort']} p50={worst['mos_p50']:.2f} ({worst['verbal']})")
PY
grep -q '^vqoe_cohort_sessions_total' "$TMP/metrics.txt" ||
    curl -fsS "$BASE/metrics" | grep -q '^vqoe_cohort_sessions_total' ||
    { echo "missing family vqoe_cohort_sessions_total" >&2; exit 1; }

echo "== flight recorder drill-down"
# a regional hotspot guarantees stalled / worst-decile sessions the
# tail sampler must keep; then walk the full drill-down chain: index →
# one retained session's timeline → its Chrome trace export
"$TMP/qoegen" -kind live -subscribers 32 -n 3 -seed 11 -hotspot eu-west \
    -hotspot-severity 0.9 -format jsonl >"$TMP/hotspot.jsonl"
curl -fsS -X POST --data-binary @"$TMP/hotspot.jsonl" "$BASE/ingest" >/dev/null
curl -fsS "$BASE/debug/flight" >"$TMP/flight.json"
FLIGHT_ID=$(python3 - "$TMP/flight.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
retained = doc["retained"]
assert retained, "hotspot load left nothing in the flight recorder"
assert doc["counters"]["retained_sessions"] > 0
interesting = [s for s in retained
               if {"stalled", "worst_mos"} & set(s["reasons"])]
assert interesting, \
    f"no stalled/worst-decile retention among {len(retained)} sessions"
mos = [s["mos"] for s in retained]
assert mos == sorted(mos), "flight index not worst-first"
print(interesting[0]["id"])
PY
)
echo "   worst retained session: $FLIGHT_ID"
curl -fsS "$BASE/debug/flight/$FLIGHT_ID" >"$TMP/timeline.json"
python3 - "$TMP/timeline.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
tl = doc["timeline"]
assert tl, f"retained session {doc['id']} has an empty timeline"
kinds = {e["kind"] for e in tl}
for want in ("features", "stall_verdict", "rep_verdict", "mos"):
    assert want in kinds, f"timeline lacks a {want} event: {sorted(kinds)}"
print(f"   timeline: {len(tl)} events ({', '.join(sorted(kinds))})")
PY
curl -fsS "$BASE/debug/flight/$FLIGHT_ID?format=trace" | grep -q '"traceEvents"'
# unknown IDs answer 404 with a JSON error, never 200 + empty
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/flight/nobody/123.5")
test "$CODE" = 404 || { echo "unknown flight session returned $CODE" >&2; exit 1; }
echo "   drill-down chain ok"

echo "== slo: metric history, alert table, exposition"
# the sampler runs at 1 Hz; by now it has ticked many times, so the
# timeseries document must carry populated rings for the core series
sleep 2
curl -fsS "$BASE/debug/timeseries" >"$TMP/timeseries.json"
python3 - "$TMP/timeseries.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["cadence_sec"] > 0, "no sampler cadence"
assert doc["samples"] > 0, "sampler never ticked"
assert len(doc["times"]) == doc["samples"], "times/samples mismatch"
names = {s["name"] for s in doc["series"]}
for want in ("ingest.entries", "ingest.dropped", "engine.open_sessions",
             "fresh.ingest_age_seconds", "model.max_psi",
             "cohort.worst_p50_mos", "flight.bytes_util"):
    assert want in names, f"timeseries lacks series {want}: {sorted(names)}"
for s in doc["series"]:
    assert s["kind"] in ("counter", "gauge"), s
    assert len(s["values"]) == doc["samples"], f"{s['name']} ragged ring"
ent = next(s for s in doc["series"] if s["name"] == "ingest.entries")
assert ent["last"] is not None and ent["last"] >= 0, "entry rate ring empty"
assert any(q["name"] == "stage.ingest" for q in doc.get("quantiles", [])), \
    "no stage.ingest quantile track"
print(f"   {len(doc['series'])} series x {doc['samples']} samples ok")
PY
# ?n= caps the points; a bad n is a JSON 400
curl -fsS "$BASE/debug/timeseries?n=2" | python3 -c "import json,sys; d=json.load(sys.stdin); assert len(d['times']) <= 2, d['times']"
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/timeseries?n=bogus")
test "$CODE" = 400 || { echo "bad ?n= returned $CODE, want 400" >&2; exit 1; }
curl -fsS "$BASE/debug/alerts" >"$TMP/alerts.json"
python3 - "$TMP/alerts.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
alerts = doc["alerts"]
assert alerts, "no alert rules installed"
names = {a["rule"] for a in alerts}
for want in ("drop-rate", "mailbox-saturation", "ingest-latency-p99",
             "model-degraded", "cohort-mos-floor", "ingest-stale",
             "wire-errors"):
    assert want in names, f"missing built-in rule {want}: {sorted(names)}"
ranks = {"firing": 3, "pending": 2, "resolved": 1, "inactive": 0}
for a in alerts:
    assert a["state"] in ranks, a
order = [ranks[a["state"]] for a in alerts]
assert order == sorted(order, reverse=True), "alert table not worst-first"
print(f"   {len(alerts)} rules ({doc['firing']} firing, {doc['pending']} pending)")
PY
curl -fsS "$BASE/metrics" >"$TMP/slo-metrics.txt"
for family in \
    vqoe_alert_state \
    vqoe_alert_transitions_total \
    vqoe_process_start_time_seconds \
    vqoe_process_uptime_seconds; do
    grep -q "^$family" "$TMP/slo-metrics.txt" ||
        { echo "missing family $family" >&2; exit 1; }
done
grep -q '^vqoe_alert_state{rule="drop-rate"}' "$TMP/slo-metrics.txt" ||
    { echo "vqoe_alert_state lacks the drop-rate rule" >&2; exit 1; }
echo "   slo surface ok"

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=

echo "== qoewatch: stdin stream through the one-shard engine"
# the stream arrives over a fifo held open until /metrics has been
# scraped, so the exposition is read while the engine is live; closing
# the fifo is end of stream — qoewatch drains and prints its summary
WATCH_SUBS=30
WATCH_N=2
MADDR="127.0.0.1:18081"
"$TMP/qoegen" -kind live -subscribers $WATCH_SUBS -n $WATCH_N -seed 11 -label-rate 0.5 \
    -format jsonl >"$TMP/watch.jsonl"
WATCH_ENTRIES=$(grep -vc '"type":"label"' "$TMP/watch.jsonl")
mkfifo "$TMP/watch.in"
"$TMP/qoewatch" -train-n 200 -metrics-addr "$MADDR" <"$TMP/watch.in" \
    >"$TMP/watch.out" 2>"$TMP/watch.log" &
WATCH_PID=$!
exec 3>"$TMP/watch.in"
cat "$TMP/watch.jsonl" >&3
for i in $(seq 1 100); do
    if curl -fsS "http://$MADDR/metrics" 2>/dev/null |
        grep -q "^vqoe_entries_total $WATCH_ENTRIES\$"; then
        break
    fi
    if ! kill -0 "$WATCH_PID" 2>/dev/null; then
        echo "qoewatch died mid-stream:" >&2
        cat "$TMP/watch.log" >&2
        exit 1
    fi
    sleep 0.2
done
curl -fsS "http://$MADDR/metrics" >"$TMP/watch-metrics.txt"
for family in \
    "vqoe_entries_total $WATCH_ENTRIES" \
    'vqoe_engine_shard_entries_total{shard="0"}' \
    'vqoe_engine_shard_open_sessions{shard="0"}' \
    vqoe_stage_duration_seconds_bucket \
    vqoe_model_predictions_total \
    vqoe_cohort_sessions_total \
    vqoe_flight_recorded_sessions_total \
    vqoe_alert_state; do
    grep -q "^$family" "$TMP/watch-metrics.txt" ||
        { echo "qoewatch /metrics lacks $family" >&2; exit 1; }
done
exec 3>&-
wait "$WATCH_PID"
WATCH_PID=
WATCH_REPORTS=$(grep -c '^[ !] ' "$TMP/watch.out")
grep -q "^-- $WATCH_ENTRIES entries, $WATCH_REPORTS session reports\$" "$TMP/watch.out" ||
    { echo "qoewatch summary disagrees with its $WATCH_REPORTS report lines" >&2; cat "$TMP/watch.out" >&2; exit 1; }
test "$WATCH_REPORTS" -eq $((WATCH_SUBS * WATCH_N)) ||
    { echo "qoewatch reported $WATCH_REPORTS sessions, generated $((WATCH_SUBS * WATCH_N))" >&2; exit 1; }
for section in \
    '-- [0-9]* ground-truth labels, [0-9]* matched' \
    '-- model stall: ' \
    '-- model rep: ' \
    '-- worst cohorts (' \
    '-- worst sessions (' \
    '-- slo'; do
    grep -q "^$section" "$TMP/watch.out" ||
        { echo "qoewatch output lacks closing section: $section" >&2; exit 1; }
done
echo "   $WATCH_REPORTS reports over $WATCH_ENTRIES entries, closing sections present"

echo "== qoepcap -analyze: capture through the one-shard engine"
PCAP_SESSIONS=15
"$TMP/qoepcap" -export "$TMP/t.pcap" -sessions $PCAP_SESSIONS -seed 4 >/dev/null
# -flight-sample 1 retains every session, so the worst-sessions section
# does not depend on what the quick-trained model happens to flag
"$TMP/qoepcap" -analyze "$TMP/t.pcap" -train-n 200 -flight-sample 1 \
    >"$TMP/pcap.out" 2>"$TMP/pcap.log"
PCAP_REPORTS=$(grep -c '^session ' "$TMP/pcap.out")
grep -q "^$PCAP_REPORTS sessions assessed\$" "$TMP/pcap.out" ||
    { echo "qoepcap summary disagrees with its $PCAP_REPORTS report lines" >&2; cat "$TMP/pcap.out" >&2; exit 1; }
test "$PCAP_REPORTS" -eq $PCAP_SESSIONS ||
    { echo "qoepcap assessed $PCAP_REPORTS sessions, exported $PCAP_SESSIONS" >&2; exit 1; }
for section in \
    'metered [0-9]* transactions from [0-9]* packets' \
    'slo alerts over the capture (' \
    "worst sessions ($PCAP_SESSIONS retained of $PCAP_SESSIONS recorded)"; do
    grep -q "^$section" "$TMP/pcap.out" ||
        { echo "qoepcap output lacks section: $section" >&2; exit 1; }
done
echo "   $PCAP_REPORTS sessions assessed, closing sections present"

echo "== make report: regenerates above the marker, keeps the record below it"
cp EXPERIMENTS.md "$TMP/EXPERIMENTS.md"
make -s report REPORT_FLAGS="-quick -seed 2" EXPERIMENTS="$TMP/EXPERIMENTS.md"
grep -q '^adaptive sessions, 250 encrypted sessions' "$TMP/EXPERIMENTS.md" ||
    { echo "make report did not regenerate the report part" >&2; exit 1; }
# -quick used to reset the seed to 1 whatever -seed said
grep -q 'cross-validation, seed 2\.$' "$TMP/EXPERIMENTS.md" ||
    { echo "qoereport -quick -seed 2 did not run seed 2" >&2; exit 1; }
diff <(grep '^## ' EXPERIMENTS.md) <(grep '^## ' "$TMP/EXPERIMENTS.md") >&2 ||
    { echo "make report changed the file's sections" >&2; exit 1; }
diff <(sed '1,/^<!-- end of generated report/d' EXPERIMENTS.md) \
     <(sed '1,/^<!-- end of generated report/d' "$TMP/EXPERIMENTS.md") >/dev/null ||
    { echo "make report touched the hand-written sections below the marker" >&2; exit 1; }
HAND=$(sed '1,/^<!-- end of generated report/d' "$TMP/EXPERIMENTS.md" | grep -c '^## ')
test "$HAND" -ge 11 ||
    { echo "only $HAND hand-written sections below the marker" >&2; exit 1; }
echo "   $HAND hand-written sections kept"

echo "== smoke ok"
