package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"vqoe/internal/cohort"
	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/features"
	"vqoe/internal/flight"
	"vqoe/internal/ml"
	"vqoe/internal/mos"
	"vqoe/internal/obs"
	"vqoe/internal/pipeline"
	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
)

// The staged replay: the round's own frames pushed, on one goroutine,
// through each layer's public functions in turn. One adapter per layer;
// each times only the calls it names and feeds the next with what those
// calls returned. A later change to one of these signatures has to open
// a benchmark issue first — README.md lists them.

// layerMetrics collects per-layer values by name.
type layerMetrics map[string]value

func (m layerMetrics) put(name string, v float64, unit string) { m[name] = value{v, unit} }

// frameSource reads a stream's frames back to back, one connection's
// share after the other.
type frameSource struct {
	frames [][]byte
	cur    []byte
}

func newFrameSource(st *stream) *frameSource {
	fs := &frameSource{}
	for c := range st.conns {
		fs.frames = append(fs.frames, st.conns[c].frames...)
	}
	return fs
}

func (f *frameSource) Read(p []byte) (int, error) {
	for len(f.cur) == 0 {
		if len(f.frames) == 0 {
			return 0, io.EOF
		}
		f.cur, f.frames = f.frames[0], f.frames[1:]
	}
	n := copy(p, f.cur)
	f.cur = f.cur[n:]
	return n, nil
}

// eachFrame decodes the stream frame by frame and hands fn each decoded
// batch, which is valid until fn returns.
func eachFrame(st *stream, fn func(entries []weblog.Entry) error) error {
	fr := wire.NewFrameReader(newFrameSource(st))
	dec := wire.NewDecoder()
	for {
		h, payload, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		entries, _, err := dec.DecodeFrame(h, payload)
		if err != nil {
			return err
		}
		if err := fn(entries); err != nil {
			return err
		}
	}
}

// layerWireDecode: wire.FrameReader.Next + wire.Decoder.DecodeFrame over
// the whole stream.
func layerWireDecode(st *stream, m layerMetrics) error {
	fr := wire.NewFrameReader(newFrameSource(st))
	dec := wire.NewDecoder()
	var m0, m1 runtime.MemStats
	var frames, entries, errs, nbytes int
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for {
		h, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			errs++
			break
		}
		es, _, err := dec.DecodeFrame(h, payload)
		if err != nil {
			errs++
			break
		}
		frames++
		entries += len(es)
		nbytes += wire.HeaderLen + h.Len
	}
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if entries != st.entries {
		return fmt.Errorf("wire decode: %d entries decoded, stream holds %d", entries, st.entries)
	}
	m.put("wire.decode_ns_per_entry", float64(dt)/float64(entries), "ns")
	m.put("wire.decode_allocs_per_entry", float64(m1.Mallocs-m0.Mallocs)/float64(entries), "count")
	m.put("wire.bytes_per_entry", float64(nbytes)/float64(entries), "B")
	m.put("wire.frames", float64(frames), "count")
	m.put("wire.errors", float64(errs), "count")
	return nil
}

// layerWireListener: wire.NewServer with a handler that only counts,
// fed over one unix-socket connection. Its time less the decode time is
// what the socket and the read loop cost.
func layerWireListener(st *stream, m layerMetrics) error {
	got := 0
	ws := wire.NewServer(wire.Config{
		Handler: wire.Handler{Entries: func(es []weblog.Entry) { got += len(es) }},
		Stages:  true,
	})
	addr := abstractAddr()
	ln, err := wire.Listen("unix:" + addr)
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- ws.Serve(ln) }()
	defer func() { _ = ws.Close(); <-done }()
	nc, err := net.Dial("unix", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	t0 := time.Now()
	for c := range st.conns {
		for _, f := range st.conns[c].frames {
			if _, err := nc.Write(f); err != nil {
				return fmt.Errorf("wire listener: %w", err)
			}
		}
	}
	ack, err := wire.NewClient(nc).Sync()
	dt := time.Since(t0)
	if err != nil {
		return fmt.Errorf("wire listener: %w", err)
	}
	if ack.Entries != int64(st.entries) || got != st.entries {
		return fmt.Errorf("wire listener: acked %d, handled %d of %d entries", ack.Entries, got, st.entries)
	}
	m.put("wire.listener_ns_per_entry", float64(dt)/float64(st.entries), "ns")
	return nil
}

// readPages are the pipeline's read endpoints and the metric each one's
// render time is reported under.
var readPages = []struct{ path, metric string }{
	{"/metrics", "pipeline.metrics_render_ms"},
	{"/debug/cohorts", "pipeline.debug_cohorts_ms"},
	{"/debug/sessions", "pipeline.debug_sessions_ms"},
	{"/debug/flight", "pipeline.debug_flight_ms"},
	{"/debug/alerts", "pipeline.debug_alerts_ms"},
	{"/debug/timeseries", "pipeline.debug_timeseries_ms"},
}

// layerEngineFeed: the full pipeline server fed through Engine.Feed by
// one caller; only the time inside Feed is counted (intern, route,
// mailbox wait). Before the drain, with the round's state in place, it
// also times every read page through Server.Handler and one SLO tick.
func layerEngineFeed(fw *core.Framework, st *stream, m layerMetrics) error {
	srv := pipeline.NewServerOpts(fw, pipeline.Options{Engine: benchEngineConfig(), Logger: discardLogger})
	defer srv.Drain()
	eng := srv.Engine()
	var inFeed time.Duration
	err := eachFrame(st, func(es []weblog.Entry) error {
		t0 := time.Now()
		eng.Feed(es)
		inFeed += time.Since(t0)
		return nil
	})
	if err != nil {
		return err
	}
	if err := waitProcessed(eng, st.entries); err != nil {
		return err
	}
	m.put("engine.feed_call_ns_per_entry", float64(inFeed)/float64(st.entries), "ns")

	h := srv.Handler()
	for _, pg := range readPages {
		var ms []float64
		size := 0
		for i := 0; i < 5; i++ {
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, pg.path, nil))
			ms = append(ms, float64(time.Since(t0))/1e6)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("GET %s: status %d", pg.path, rec.Code)
			}
			size = rec.Body.Len()
		}
		m.put(pg.metric, median(ms), "ms")
		if pg.path == "/metrics" {
			m.put("pipeline.metrics_bytes", float64(size), "B")
		}
	}
	var us []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		srv.SLO().Tick(srv.SLO().Now())
		us = append(us, float64(time.Since(t0))/1e3)
	}
	m.put("slo.tick_us", median(us), "us")
	return nil
}

// bareEntries bounds the pre-decoded prefix the monitor-less engine is
// fed (it has to be held decoded so that no decode sits between Feeds).
const bareEntries = 400_000

// layerEngineBare: engine.New with no observer and no monitor, fed a
// decoded prefix of the stream in frame-sized batches: first Feed to
// last entry processed.
func layerEngineBare(fw *core.Framework, st *stream, m layerMetrics) error {
	var batches [][]weblog.Entry
	n := 0
	err := eachFrame(st, func(es []weblog.Entry) error {
		if n < bareEntries {
			batches = append(batches, append([]weblog.Entry(nil), es...))
			n += len(es)
		}
		return nil
	})
	if err != nil {
		return err
	}
	eng := engine.New(fw, engine.Config{Shards: benchShards, Mailbox: benchMailbox}, nil)
	defer eng.Drain()
	t0 := time.Now()
	for _, b := range batches {
		eng.Feed(b)
	}
	if err := waitProcessed(eng, n); err != nil {
		return err
	}
	m.put("engine.bare_ns_per_entry", float64(time.Since(t0))/float64(n), "ns")
	return nil
}

// closedKeep bounds the closed sessions the sessionizer adapter hands on
// to the per-session adapters.
const closedKeep = 20_000

// closedSession is one session out of the sessionizer adapter, with its
// identity resolved the way a shard resolves it at close.
type closedSession struct {
	sub        string
	cohort     cohort.Key
	shard      int
	start, end float64
	entries    int
	chunks     []features.ChunkObs
}

// layerSessionizer: ColTracker.Push over bench-built Recs on one tracker
// per shard, with the shard's own sweep policy driving AdvanceInto and a
// final FlushInto.
func layerSessionizer(st *stream, m layerMetrics) ([]closedSession, error) {
	def := engine.DefaultConfig()
	type subInfo struct {
		id    uint32
		shard int
	}
	subs := map[string]subInfo{}
	names := []string{""}
	cohorts := map[cohort.Key]uint32{}
	keys := []cohort.Key{{}}
	trackers := make([]*sessionizer.ColTracker, benchShards)
	for i := range trackers {
		trackers[i] = sessionizer.NewColTracker(sessionizer.Config{IdleGap: def.IdleGapSec, PageBoundary: true})
		trackers[i].Resolve = func(id uint32) string { return names[id] }
	}
	high := make([]float64, benchShards)
	last := make([]float64, benchShards)
	for i := range last {
		last[i] = -1e18
	}
	recs := make([][]sessionizer.Rec, benchShards)
	var kept []closedSession
	var closedBuf []sessionizer.ColClosed
	var pushT, advT time.Duration
	var closed, advClosed, openPeak int
	take := func(sh int, cs []sessionizer.ColClosed) {
		for i := range cs {
			c := &cs[i]
			if len(kept) < closedKeep {
				kept = append(kept, closedSession{
					sub: names[c.Sub], cohort: keys[c.Cohort], shard: sh,
					start: c.Start, end: c.End, entries: c.Entries,
					chunks: append([]features.ChunkObs(nil), c.Chunks...),
				})
			}
			trackers[sh].Recycle(c.Chunks)
		}
		closed += len(cs)
	}
	err := eachFrame(st, func(es []weblog.Entry) error {
		for sh := range recs {
			recs[sh] = recs[sh][:0]
		}
		for i := range es {
			e := &es[i]
			si, ok := subs[e.Subscriber]
			if !ok {
				si = subInfo{uint32(len(names)), connOf(e.Subscriber, benchShards)}
				subs[e.Subscriber] = si
				names = append(names, e.Subscriber)
			}
			var co uint32
			if e.Region != "" || e.Device != "" || e.Cap != "" {
				k := cohort.Key{Region: e.Region, Device: e.Device, Cap: e.Cap}
				if co, ok = cohorts[k]; !ok {
					co = uint32(len(keys))
					cohorts[k] = co
					keys = append(keys, k)
				}
			}
			recs[si.shard] = append(recs[si.shard], sessionizer.Rec{
				Sub: si.id, Cohort: co, Kind: weblog.ClassifyHost(e.Host),
				Ts: e.Timestamp, Dur: e.TransactionSec, KB: float64(e.Bytes) / 1000,
				RTTMin: e.RTTMin, RTTAvg: e.RTTAvg, RTTMax: e.RTTMax,
				BDP: e.BDP, BIFAvg: e.BIFAvg, BIFMax: e.BIFMax,
				Loss: e.LossPct, Retrans: e.RetransPct,
			})
		}
		for sh, rs := range recs {
			if len(rs) == 0 {
				continue
			}
			tr := trackers[sh]
			cs := closedBuf[:0]
			t0 := time.Now()
			for i := range rs {
				if c, ok := tr.Push(&rs[i]); ok {
					cs = append(cs, c)
				}
				if rs[i].Ts > high[sh] {
					high[sh] = rs[i].Ts
				}
			}
			pushT += time.Since(t0)
			take(sh, cs)
			if high[sh]-last[sh] >= def.SweepEverySec {
				t0 = time.Now()
				cs = tr.AdvanceInto(high[sh]-def.EvictSlackSec, cs[:0])
				advT += time.Since(t0)
				advClosed += len(cs)
				take(sh, cs)
				last[sh] = high[sh]
			}
			closedBuf = cs
		}
		open := 0
		for _, tr := range trackers {
			open += tr.Open()
		}
		openPeak = max(openPeak, open)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for sh, tr := range trackers {
		t0 := time.Now()
		cs := tr.FlushInto(closedBuf[:0])
		advT += time.Since(t0)
		advClosed += len(cs)
		take(sh, cs)
	}
	m.put("sessionizer.push_ns_per_entry", float64(pushT)/float64(st.entries), "ns")
	m.put("sessionizer.advance_ns_per_closed", float64(advT)/float64(max(advClosed, 1)), "ns")
	m.put("sessionizer.open_peak", float64(openPeak), "count")
	m.put("sessionizer.closed", float64(closed), "count")
	return kept, nil
}

// selectedCols maps a detector's selected feature names to columns of
// the full schema, which is how the serving path's sparse evaluator is
// built.
func selectedCols(selected, schema []string) []int {
	idx := make(map[string]int, len(schema))
	for i, n := range schema {
		idx[n] = i
	}
	cols := make([]int, len(selected))
	for i, n := range selected {
		if j, ok := idx[n]; ok {
			cols[i] = j
		} else {
			cols[i] = -1
		}
	}
	return cols
}

// analyzeBatch is how many closed sessions one AnalyzeBatchInto call
// gets: a shard's sweep closes tens of sessions at a time.
const analyzeBatch = 32

// layerClosePath: what a shard does with a closed session, call by call
// — features.FromChunks, Framework.AnalyzeBatchInto (a bench-owned
// obs.StageSet splits forest from CUSUM), then the monitors:
// mos.FromReport, cohort.Rollup.Observe, qualitymon.Monitor
// .TrackPrediction, flight.ShardRecorder.Decide and Retain. The sparse
// feature evaluation and the forests' batch kernel are also timed on
// their own over the same sessions.
func layerClosePath(fw *core.Framework, sessions []closedSession, m layerMetrics) error {
	minChunks := engine.DefaultConfig().MinChunks
	var fromChunks time.Duration
	var sobs []features.SessionObs
	var kept []closedSession
	for i := range sessions {
		t0 := time.Now()
		o := features.FromChunks(sessions[i].chunks, nil)
		fromChunks += time.Since(t0)
		if o.Len() >= minChunks {
			sobs = append(sobs, o)
			kept = append(kept, sessions[i])
		}
	}
	if len(kept) == 0 {
		return fmt.Errorf("close path: none of %d closed sessions has %d chunks", len(sessions), minChunks)
	}
	n := float64(len(kept))
	m.put("features.from_chunks_ns_per_session", float64(fromChunks)/float64(len(sessions)), "ns")

	rollup := cohort.NewRollup(cohort.Config{Shards: benchShards})
	qm := core.NewQualityMonitor(fw, benchShards, qualitymon.Thresholds{})
	rec := flight.New(flight.Config{Shards: benchShards})
	rec.SetAttributor(fw.AttributeVectors)
	stages := obs.NewStageSet()
	var scratch core.AnalyzeScratch
	var analyze, mosT, cohortT, trackT, decideT, retainT time.Duration
	retained := 0
	for lo := 0; lo < len(sobs); lo += analyzeBatch {
		hi := min(lo+analyzeBatch, len(sobs))
		t0 := time.Now()
		reps := fw.AnalyzeBatchInto(sobs[lo:hi], stages, &scratch)
		analyze += time.Since(t0)
		for i, r := range reps {
			c := &kept[lo+i]
			t0 = time.Now()
			_ = mos.FromReport(r)
			t1 := time.Now()
			rollup.Observe(c.shard, c.cohort, r)
			t2 := time.Now()
			qm.TrackPrediction(qualitymon.Prediction{
				Subscriber: c.sub, Start: c.start, End: c.end,
				Stall: int(r.Stall), Rep: int(r.Representation),
				StallConf: r.StallConf, RepConf: r.RepConf,
			})
			t3 := time.Now()
			reasons, score, keep := rec.Shard(c.shard).Decide(r)
			t4 := time.Now()
			mosT += t1.Sub(t0)
			cohortT += t2.Sub(t1)
			trackT += t3.Sub(t2)
			decideT += t4.Sub(t3)
			if keep {
				stallProj, repProj := fw.ProjectedCopies(&scratch, i)
				rec.Shard(c.shard).Retain(flight.Assessment{
					Subscriber: c.sub, Start: c.start, End: c.end, Report: r,
					Chunks: c.chunks, RawEntries: c.entries, Cohort: c.cohort.String(),
					StallProj: stallProj, RepProj: repProj,
				}, score, reasons)
				retainT += time.Since(t4)
				retained++
			}
		}
	}
	snap := stages.Snapshot()
	m.put("core.analyze_ns_per_session", float64(analyze)/n, "ns")
	m.put("ml.predict_ns_per_session", snap[obs.StageForest].Sum*1e9/n, "ns")
	m.put("timeseries.cusum_ns_per_session", snap[obs.StageCUSUM].Sum*1e9/n, "ns")
	m.put("mos.from_report_ns", float64(mosT)/n, "ns")
	m.put("cohort.observe_ns_per_session", float64(cohortT)/n, "ns")
	m.put("qualitymon.track_ns_per_session", float64(trackT)/n, "ns")
	m.put("flight.decide_ns_per_session", float64(decideT)/n, "ns")
	m.put("flight.retain_ns_per_kept", float64(retainT)/float64(max(retained, 1)), "ns")
	m.put("flight.kept_share", float64(retained)/n, "share")
	// the first snapshot after traffic is the one that merges the
	// stripes; later ones are served from its cache
	t0 := time.Now()
	_ = rollup.Snapshot()
	m.put("cohort.snapshot_ms", float64(time.Since(t0))/1e6, "ms")

	// the two halves of the forest stage on their own: sparse feature
	// evaluation, then the batch kernel over the projected vectors
	models := []struct {
		sparse *features.Sparse
		forest *ml.Forest
		width  int
	}{
		{features.NewStallSparse(selectedCols(fw.Stall.Selected, features.StallFeatureNames())), fw.Stall.Forest, len(fw.Stall.Selected)},
		{features.NewRepSparse(selectedCols(fw.Rep.Selected, features.RepFeatureNames())), fw.Rep.Forest, len(fw.Rep.Selected)},
	}
	var evalT, predictT time.Duration
	instances := 0
	for _, md := range models {
		xs := make([][]float64, len(sobs))
		backing := make([]float64, len(sobs)*md.width)
		var sc features.SeriesScratch
		t0 := time.Now()
		for i := range sobs {
			xs[i] = backing[i*md.width : (i+1)*md.width]
			md.sparse.EvalIntoScratch(sobs[i], xs[i], &sc)
		}
		evalT += time.Since(t0)
		dist := make([]float64, analyzeBatch*8)
		out := make([]int, analyzeBatch)
		t0 = time.Now()
		for lo := 0; lo < len(xs); lo += analyzeBatch {
			md.forest.PredictBatchInto(xs[lo:min(lo+analyzeBatch, len(xs))], dist, out)
		}
		predictT += time.Since(t0)
		instances += len(xs)
	}
	m.put("features.eval_ns_per_session", float64(evalT)/n, "ns")
	m.put("ml.predict_batch_ns_per_instance", float64(predictT)/float64(instances), "ns")
	return nil
}

// httpIngestEntries bounds the JSONL body the HTTP door is measured
// with (it is some twenty times slower than the wire door).
const httpIngestEntries = 50_000

// layerHTTPIngest: JSONL POST /ingest through Server.Handler — the
// engine's synchronous Ingest door — so the HTTP/wire front-door merge
// has a before-number. It feeds no end-to-end metric.
func layerHTTPIngest(fw *core.Framework, st *stream, m layerMetrics) error {
	var bodies [][]byte
	var body bytes.Buffer
	n, lines := 0, 0
	err := eachFrame(st, func(es []weblog.Entry) error {
		if n >= httpIngestEntries {
			return nil
		}
		enc := json.NewEncoder(&body)
		for i := range es {
			if err := enc.Encode(&es[i]); err != nil {
				return err
			}
		}
		n += len(es)
		if lines += len(es); lines >= 10_000 {
			bodies = append(bodies, append([]byte(nil), body.Bytes()...))
			body.Reset()
			lines = 0
		}
		return nil
	})
	if err != nil {
		return err
	}
	if body.Len() > 0 {
		bodies = append(bodies, body.Bytes())
	}
	srv := pipeline.NewServerOpts(fw, pipeline.Options{Engine: benchEngineConfig(), Logger: discardLogger})
	defer srv.Drain()
	h := srv.Handler()
	t0 := time.Now()
	for _, b := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST /ingest: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	m.put("pipeline.http_ingest_ns_per_entry", float64(time.Since(t0))/float64(n), "ns")
	return nil
}

// stagedReplay runs every adapter over the stream. Each starts from a
// collected heap: an engine built while the previous one's flow tables
// (hundreds of megabytes on wide_open) are still uncollected garbage
// stalls for seconds in the allocator, and that would be charged to
// whichever layer came next.
func stagedReplay(fw *core.Framework, st *stream, m layerMetrics) error {
	var sessions []closedSession
	for _, layer := range []func() error{
		func() error { return layerWireDecode(st, m) },
		func() error { return layerWireListener(st, m) },
		func() error { return layerEngineFeed(fw, st, m) },
		func() error { return layerEngineBare(fw, st, m) },
		func() (err error) { sessions, err = layerSessionizer(st, m); return err },
		func() error { return layerClosePath(fw, sessions, m) },
		func() error { return layerHTTPIngest(fw, st, m) },
	} {
		runtime.GC()
		if err := layer(); err != nil {
			return err
		}
	}
	return nil
}

// ledgerRows are the per-entry and per-session costs that sum to the
// outside-in ledger. mos.from_report_ns is left out: the cohort and
// flight rows already contain it.
var (
	ledgerPerEntry   = []string{"wire.listener_ns_per_entry", "engine.feed_call_ns_per_entry", "sessionizer.push_ns_per_entry"}
	ledgerPerSession = []string{
		"sessionizer.advance_ns_per_closed", "features.from_chunks_ns_per_session",
		"core.analyze_ns_per_session", "cohort.observe_ns_per_session",
		"qualitymon.track_ns_per_session", "flight.decide_ns_per_session",
	}
)

// ledger sums the staged rows per entry. sessionsPerEntry converts the
// per-session rows; cpu is the end-to-end CPU per entry the sum is held
// against, and the remainder is what in-process tracing has to explain.
func ledger(m layerMetrics, sessionsPerEntry, cpu float64) {
	var perEntry, perSession float64
	for _, n := range ledgerPerEntry {
		perEntry += m[n].Value
	}
	for _, n := range ledgerPerSession {
		perSession += m[n].Value
	}
	perSession += m["flight.retain_ns_per_kept"].Value * m["flight.kept_share"].Value
	perSession *= sessionsPerEntry
	sum := perEntry + perSession
	m.put("ledger.sum_ns_per_entry", sum, "ns")
	m.put("ledger.cpu_ns_per_entry", cpu, "ns")
	m.put("ledger.unattributed_ns_per_entry", cpu-sum, "ns")
	m.put("ledger.per_session_share", perSession/sum, "share")
}
