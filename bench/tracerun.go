package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vqoe/internal/core"
)

// programFamilies are the program's own counters read from /metrics at
// the end of a traced round, and the per-layer name each is reported
// under. Series of one family (shards, connections) are summed. They
// are counts and sums the program keeps, recorded for cross-checking
// the outside-in figures, never for a claim.
var programFamilies = []struct{ family, label, metric, unit string }{
	{"vqoe_engine_shard_entries_total", "", "engine.entries_total", "count"},
	{"vqoe_sessions_total", "", "pipeline.sessions_total", "count"},
	{"vqoe_wire_frames_total", "", "wire.frames_total", "count"},
	{"vqoe_stage_duration_seconds_sum", `stage="sessionize"`, "obs.stage_sessionize_sum_s", "s"},
	{"vqoe_stage_duration_seconds_sum", `stage="featurize"`, "obs.stage_featurize_sum_s", "s"},
	{"vqoe_stage_duration_seconds_sum", `stage="forest_predict"`, "obs.stage_forest_predict_sum_s", "s"},
	{"vqoe_stage_duration_seconds_sum", `stage="cusum"`, "obs.stage_cusum_sum_s", "s"},
	{"vqoe_stage_duration_seconds_sum", `stage="ingest"`, "obs.stage_ingest_sum_s", "s"},
	{"vqoe_wire_stage_duration_seconds_sum", `stage="wire_decode"`, "obs.stage_wire_decode_sum_s", "s"},
	{"vqoe_wire_stage_duration_seconds_sum", `stage="ingest"`, "obs.stage_wire_ingest_sum_s", "s"},
}

// programCounters sums the families above out of a /metrics body.
func programCounters(body []byte, into map[string]float64) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series := line[:sp]
		name, labels, _ := strings.Cut(series, "{")
		for _, pf := range programFamilies {
			if name != pf.family || !strings.Contains(labels, pf.label) {
				continue
			}
			if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
				into[pf.metric] += v
			}
		}
	}
}

// traceWorkload is the -trace run of one workload: rounds alternately
// untraced and traced (the difference is what recording costs), the
// last traced round written as a Chrome trace, then the staged replay
// and the ledger. It fills res.Metrics with the per-layer metrics.
func traceWorkload(o options, fw *core.Framework, st *stream, res *result) error {
	m := layerMetrics{}
	pairs := 0
	var plain, traced []*round
	var tr *tracer
	program := map[string]float64{}
	start := time.Now()
	for ; ; pairs++ {
		if o.quick && pairs >= 1 {
			break
		}
		if !o.quick && pairs >= 2 && (o.rounds > 0 && pairs >= o.rounds || o.rounds == 0 && time.Since(start).Seconds() >= o.seconds/2) {
			break
		}
		r, err := runRound(fw, st, &res.Reference, roundOpts{id: 2 * pairs})
		if err != nil {
			return err
		}
		plain = append(plain, r)
		tr = &tracer{}
		for k := range program {
			delete(program, k)
		}
		r, err = runRound(fw, st, &res.Reference, roundOpts{id: 2*pairs + 1, trace: tr, program: program})
		if err != nil {
			return err
		}
		traced = append(traced, r)
	}
	if err := tr.write(filepath.Join(o.outDir, "trace-"+st.name+".json")); err != nil {
		return err
	}
	res.Samples = append(plain, traced...)
	res.tally()
	col := func(rs []*round, f func(*round) float64) float64 { return median(column(rs, f)) }
	rate := func(r *round) float64 { return float64(r.Entries) / r.Wall }
	m.put("trace.overhead_share", 1-col(traced, rate)/col(plain, rate), "share")
	// every per-layer timing is as read; this is the host speed the
	// untraced rounds' probes found, for setting them beside another run's
	var probes []float64
	for _, r := range plain {
		probes = append(probes, r.ProbeNs[:]...)
	}
	m.put("host.speed_index", hostSpeed(probes), "ratio")
	m.put("engine.mailbox_depth_p50", col(traced, func(r *round) float64 { return r.MailboxP50 }), "count")
	m.put("engine.mailbox_depth_max", col(traced, func(r *round) float64 { return r.MailboxMax }), "count")
	m.put("engine.dropped", col(traced, func(r *round) float64 { return float64(r.Dropped) }), "count")
	m.put("engine.evicted_share", col(traced, func(r *round) float64 { return r.EvictedShare }), "share")
	m.put("engine.drain_ms", col(plain, func(r *round) float64 { return r.DrainMs }), "ms")
	m.put("workload.send_late_p50_ms", col(plain, func(r *round) float64 { return r.LateP50 }), "ms")
	m.put("workload.send_late_p99_ms", col(plain, func(r *round) float64 { return r.LateP99 }), "ms")
	m.put("workload.write_blocked_share", col(traced, func(r *round) float64 { return r.WriteBlocked }), "share")
	m.put("runtime.gc_cycles", col(plain, func(r *round) float64 { return float64(r.GCCycles) }), "count")
	m.put("runtime.gc_pause_total_ms", col(plain, func(r *round) float64 { return r.GCPauseMs }), "ms")
	m.put("runtime.heap_inuse_peak_mb", col(plain, func(r *round) float64 { return r.HeapInuseMB }), "MB")
	m.put("engine.verdict_lag_tail_ms", percentile(column(plain, func(r *round) float64 { return r.LagTail }), 10), "ms")
	p50, tail, _ := scrapeStats(plain)
	m.put("pipeline.scrape_p50_ms", p50, "ms")
	m.put("pipeline.scrape_tail_ms", tail, "ms")
	for _, pf := range programFamilies {
		m.put(pf.metric, program[pf.metric], pf.unit)
	}
	if st.pacedRate > 0 && m["workload.send_late_p99_ms"].Value > float64(lateLimit)/1e6 {
		res.Flags = append(res.Flags, fmt.Sprintf("generator ran late: send_late_p99_ms %.3f", m["workload.send_late_p99_ms"].Value))
	}

	if err := stagedReplay(fw, st, m); err != nil {
		return fmt.Errorf("staged replay: %w", err)
	}
	cpu := col(plain, func(r *round) float64 { return r.CPU * 1e9 / float64(r.Entries) })
	ledger(m, float64(res.Reference.Count)/float64(st.entries), cpu)
	res.Metrics = m
	return nil
}
