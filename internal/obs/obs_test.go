package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestHistogramObserveBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)    // below first bound → bucket 0
	h.Observe(1e-6) // equal to first bound → bucket 0 (le semantics)
	h.Observe(3e-3) // between 2.5e-3 and 5e-3
	h.Observe(100)  // overflow → +Inf bucket
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Counts[0] != 2 {
		t.Errorf("first bucket = %d, want 2", s.Counts[0])
	}
	if s.Counts[NumBuckets-1] != 1 {
		t.Errorf("+Inf bucket = %d, want 1", s.Counts[NumBuckets-1])
	}
	if got, want := s.Sum, 0+1e-6+3e-3+100; got < want*0.999 || got > want*1.001 {
		t.Errorf("sum = %g, want ~%g", got, want)
	}
	// the 3e-3 observation must land in the bucket bounded by 5e-3
	idx := 0
	for idx < len(bucketBounds) && 3e-3 > bucketBounds[idx] {
		idx++
	}
	if s.Counts[idx] != 1 {
		t.Errorf("bucket le=%g = %d, want 1", bucketBounds[idx], s.Counts[idx])
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(1.5e-4) }); allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %v per call, want 0", allocs)
	}
	set := NewStageSet()
	if allocs := testing.AllocsPerRun(1000, func() { set.Observe(StageForest, 2e-3) }); allocs != 0 {
		t.Fatalf("StageSet.Observe allocates %v per call, want 0", allocs)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1e-4)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
	want := 8000 * 1e-4
	if s.Sum < want*0.999 || s.Sum > want*1.001 {
		t.Fatalf("sum = %g, want ~%g", s.Sum, want)
	}
}

func TestNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if h.Snapshot().Count != 0 {
		t.Error("nil histogram snapshot not empty")
	}
	var s *StageSet
	s.Observe(StageIngest, 1)
	if s.Snapshot()[StageIngest].Count != 0 {
		t.Error("nil stage set snapshot not empty")
	}
	var tr *Tracer
	tr.Record(SpanEvent{})
	tr.RecordBatch([]SpanEvent{{}})
	if tr.Snapshot() != nil || tr.Len() != 0 || tr.Total() != 0 {
		t.Error("nil tracer not inert")
	}
	var o *Observer
	o.EnsureShards(4)
	if o.Stages(0) != nil || o.Tracer(0) != nil || o.StageSnapshots() != nil || o.TraceEvents() != nil || o.Logger() != nil {
		t.Error("nil observer not inert")
	}
}

// TestRecordBatchEqualsRecords: a batch leaves the ring exactly as the
// same events recorded one by one would — contents, Seqs, wrap — for
// batches shorter than, equal to and longer than the ring.
func TestRecordBatchEqualsRecords(t *testing.T) {
	one, batched := NewTracer(8), NewTracer(8)
	next := 0
	for _, n := range []int{3, 0, 8, 1, 21, 5} {
		evs := make([]SpanEvent, n)
		for i := range evs {
			evs[i] = SpanEvent{Kind: EventKind(next % 6), TS: float64(next), Subscriber: "s", Seq: 999}
			next++
			one.Record(evs[i])
		}
		batched.RecordBatch(evs)
		a, b := one.Snapshot(), batched.Snapshot()
		if len(a) != len(b) || one.Total() != batched.Total() {
			t.Fatalf("after a batch of %d: %d/%d events retained, %d/%d recorded", n, len(a), len(b), one.Total(), batched.Total())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("after a batch of %d: event %d is %+v batched, %+v one by one", n, i, b[i], a[i])
			}
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(SpanEvent{Kind: EvChunk, TS: float64(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
	evs := tr.Snapshot()
	for i, ev := range evs {
		if want := float64(6 + i); ev.TS != want {
			t.Errorf("event %d ts = %g, want %g (oldest-first after wrap)", i, ev.TS, want)
		}
	}
}

// TestRingWraparound: before the ring fills, a snapshot holds exactly
// what was recorded, oldest first with consecutive Seqs and no phantom
// zero slots; recorded far past capacity, it holds the last capacity
// events in order while Total keeps counting.
func TestRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	if got := tr.Snapshot(); len(got) != 0 {
		t.Fatalf("empty tracer snapshot = %v", got)
	}
	for i := 0; i < 3; i++ {
		tr.Record(SpanEvent{TS: float64(i)})
	}
	got := tr.Snapshot()
	if len(got) != 3 || tr.Len() != 3 {
		t.Fatalf("partial snapshot has %d events, Len %d; want 3", len(got), tr.Len())
	}
	for i, ev := range got {
		if ev.TS != float64(i) || ev.Seq != uint64(i) {
			t.Fatalf("partial snapshot[%d] = %+v, want TS and Seq %d", i, ev, i)
		}
	}
	for i := 3; i < 103; i++ {
		tr.Record(SpanEvent{TS: float64(i)})
	}
	got = tr.Snapshot()
	if len(got) != 4 || tr.Len() != 4 || tr.Total() != 103 {
		t.Fatalf("wrapped: %d events, Len/Total %d/%d; want 4, 4/103", len(got), tr.Len(), tr.Total())
	}
	for i, ev := range got {
		if want := 99 + i; ev.TS != float64(want) || ev.Seq != uint64(want) {
			t.Fatalf("wrapped snapshot[%d] = %+v, want TS and Seq %d", i, ev, want)
		}
	}
}

// TestRingCapacityClampAndNil: a capacity of 0 or less means
// DefaultTraceCap, a capacity of 1 keeps the latest event, and a nil
// tracer is inert.
func TestRingCapacityClampAndNil(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		tr := NewTracer(capacity)
		for i := 0; i <= DefaultTraceCap; i++ {
			tr.Record(SpanEvent{TS: float64(i)})
		}
		if tr.Len() != DefaultTraceCap {
			t.Fatalf("NewTracer(%d) holds %d events, want %d", capacity, tr.Len(), DefaultTraceCap)
		}
	}
	one := NewTracer(1)
	one.Record(SpanEvent{TS: 1})
	one.Record(SpanEvent{TS: 2})
	if got := one.Snapshot(); len(got) != 1 || got[0].TS != 2 {
		t.Fatalf("capacity-1 snapshot = %+v, want the event at TS 2", got)
	}

	var nt *Tracer
	nt.Record(SpanEvent{})
	if nt.Len() != 0 || nt.Total() != 0 || nt.Snapshot() != nil {
		t.Fatal("nil tracer methods must be no-ops")
	}
}

// TestRingConcurrentPush races recorders against snapshot readers: no
// event is lost from Total, and the ring ends full of the last 64
// Seqs in order.
func TestRingConcurrentPush(t *testing.T) {
	const goroutines, per = 8, 1000
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Record(SpanEvent{TS: float64(i)})
				_ = tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	if tr.Total() != goroutines*per {
		t.Fatalf("Total = %d, want %d", tr.Total(), goroutines*per)
	}
	evs := tr.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("Len = %d, want 64", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(goroutines*per - 64 + i); ev.Seq != want {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestMergeEventsOrdering(t *testing.T) {
	a, b := NewTracer(8), NewTracer(8)
	a.Record(SpanEvent{Shard: 0, TS: 2})
	a.Record(SpanEvent{Shard: 0, TS: 5})
	b.Record(SpanEvent{Shard: 1, TS: 1})
	b.Record(SpanEvent{Shard: 1, TS: 2})
	evs := MergeEvents([]*Tracer{a, b})
	if len(evs) != 4 {
		t.Fatalf("merged %d events, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events out of order: %v", evs)
		}
	}
	if evs[0].Shard != 1 || evs[1].Shard != 1 && evs[1].Shard != 0 {
		t.Errorf("tie-break wrong: %+v", evs[:2])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(SpanEvent{Kind: EvOpen, Shard: 1, TS: 1.0, Subscriber: "sub-1"})
	tr.Record(SpanEvent{Kind: EvChunk, Shard: 1, TS: 1.5, Subscriber: "sub-1"})
	tr.Record(SpanEvent{Kind: EvClose, Shard: 1, TS: 9.0, Start: 1.0, End: 9.0, Subscriber: "sub-1", Chunks: 12})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var tj struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tj); err != nil {
		t.Fatalf("trace JSON does not load: %v\n%s", err, buf.String())
	}
	if len(tj.TraceEvents) != 3 {
		t.Fatalf("%d trace events, want 3", len(tj.TraceEvents))
	}
	var sawSpan bool
	for _, ev := range tj.TraceEvents {
		if ev.Phase == "X" {
			sawSpan = true
			if ev.TS != 1.0*1e6 || ev.Dur != 8.0*1e6 {
				t.Errorf("span ts/dur = %g/%g, want 1e6/8e6", ev.TS, ev.Dur)
			}
		}
		if ev.TID != 1 {
			t.Errorf("tid = %d, want shard 1", ev.TID)
		}
	}
	if !sawSpan {
		t.Error("no complete span event for the closed session")
	}
}

func TestWriteRuntimeMetrics(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntimeMetrics(func(format string, args ...any) { fmt.Fprintf(&buf, format, args...) })
	out := buf.String()
	for _, want := range []string{
		"# TYPE vqoe_go_goroutines gauge",
		"vqoe_go_goroutines ",
		"# TYPE vqoe_go_heap_alloc_bytes gauge",
		"# TYPE vqoe_go_gc_runs_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %q:\n%s", want, out)
		}
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("hello", "k", 1)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line does not parse: %v (%s)", err, buf.String())
	}
	if rec["msg"] != "hello" {
		t.Errorf("msg = %v", rec["msg"])
	}

	buf.Reset()
	log, err = NewLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("suppressed")
	if buf.Len() != 0 {
		t.Errorf("info leaked through warn level: %s", buf.String())
	}
	log.Warn("kept")
	if !strings.Contains(buf.String(), "kept") {
		t.Errorf("warn line missing: %s", buf.String())
	}

	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "yaml"); err == nil {
		t.Error("bad format accepted")
	}
}

func TestHTTPMiddlewareLogsAndRecovers(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "debug", "text")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte("fine"))
	})
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	h := HTTPMiddleware(log, mux)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status %d", rec.Code)
	}
	if out := buf.String(); !strings.Contains(out, "path=/ok") || !strings.Contains(out, "status=202") {
		t.Errorf("request log missing fields: %s", out)
	}

	buf.Reset()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic not converted to 500, got %d", rec.Code)
	}
	if out := buf.String(); !strings.Contains(out, "kaboom") {
		t.Errorf("panic log missing: %s", out)
	}

	// nil logger must still recover
	h = HTTPMiddleware(nil, mux)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("nil-logger recovery broken, got %d", rec.Code)
	}
}

func TestRegisterPprof(t *testing.T) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index not served: %d", rec.Code)
	}
}

func TestObserverShards(t *testing.T) {
	o := NewObserver(2, 16)
	if o.Stages(0) == nil || o.Stages(1) == nil || o.Tracer(1) == nil {
		t.Fatal("observer shards missing")
	}
	if o.Stages(2) != nil || o.Stages(-1) != nil {
		t.Fatal("out-of-range shard not nil")
	}
	o.EnsureShards(4)
	if o.Stages(3) == nil {
		t.Fatal("EnsureShards did not grow")
	}
	o.Stages(0).Observe(StageIngest, 1e-3)
	o.Tracer(0).Record(SpanEvent{Kind: EvOpen, TS: 1})
	snaps := o.StageSnapshots()
	if len(snaps) != 4 || snaps[0][StageIngest].Count != 1 {
		t.Fatalf("stage snapshots wrong: %d shards", len(snaps))
	}
	if evs := o.TraceEvents(); len(evs) != 1 {
		t.Fatalf("trace events = %d, want 1", len(evs))
	}
}
