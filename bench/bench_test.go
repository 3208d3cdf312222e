package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"vqoe/internal/weblog"
	"vqoe/internal/wire"
)

func quickStream(t *testing.T, name string, seed int64) *stream {
	t.Helper()
	st, err := buildStream(name, quickScale, seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	t.Cleanup(st.free)
	return st
}

func sameFrames(a, b *stream) bool {
	if len(a.conns) != len(b.conns) || a.entries != b.entries {
		return false
	}
	for c := range a.conns {
		fa, fb := a.conns[c].frames, b.conns[c].frames
		if len(fa) != len(fb) {
			return false
		}
		for i := range fa {
			if !bytes.Equal(fa[i], fb[i]) {
				return false
			}
		}
	}
	return true
}

// The same seed must give byte-identical pre-encoded frames, another
// seed different ones, on every workload.
func TestStreamsFollowSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := quickStream(t, name, 3), quickStream(t, name, 3), quickStream(t, name, 4)
		if !sameFrames(a, b) {
			t.Errorf("%s: seed 3 encoded twice gives different frames", name)
		}
		if sameFrames(a, c) {
			t.Errorf("%s: seeds 3 and 4 give the same frames", name)
		}
		if a.entries == 0 || len(a.conns[0].frames) == 0 {
			t.Errorf("%s: empty stream", name)
		}
	}
}

// The reference pass must give the same digest for the same seed and
// another for another seed.
func TestReferenceDigestFollowsSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the models and runs three reference passes")
	}
	fw, err := trainFramework(quickScale.TrainN)
	if err != nil {
		t.Fatal(err)
	}
	ref := func(seed int64) digest {
		r, err := runRound(fw, serialStream(quickStream(t, wlSessionChurn, seed)), nil, roundOpts{id: -1})
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 || r.Digest.Count == 0 {
			t.Fatalf("seed %d: failed %d, %d reports: %v", seed, r.Failed, r.Digest.Count, r.FailureDetail)
		}
		return r.Digest
	}
	a, b, c := ref(3), ref(3), ref(4)
	if a != b {
		t.Errorf("seed 3 twice: %+v and %+v", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 share the digest %+v", a)
	}
}

// decodeConn decodes one connection's frames back into its entries and
// the number of pad entries that closed its frames.
func decodeConn(t *testing.T, cs *connStream) (out []weblog.Entry, pads int) {
	t.Helper()
	fr := wire.NewFrameReader(&frameSource{frames: cs.frames})
	dec := wire.NewDecoder()
	for i := 0; ; i++ {
		h, payload, err := fr.Next()
		if err == io.EOF {
			return out, pads
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		es, _, err := dec.DecodeFrame(h, payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(es) == 0 || len(es) > frameEntries {
			t.Fatalf("frame %d holds %d entries", i, len(es))
		}
		if es[len(es)-1].Host == padHost {
			pads++
			es = es[:len(es)-1]
		}
		if got := es[len(es)-1].Timestamp; got != cs.maxTs[i] {
			t.Fatalf("frame %d: newest timestamp %v, index says %v", i, got, cs.maxTs[i])
		}
		out = append(out, es...)
	}
}

// Derived workloads must keep every subscriber on one connection and in
// timestamp order: the engine's contract, and what makes a round's
// verdicts independent of how the two connections interleave.
func TestStreamsKeepSubscriberOrder(t *testing.T) {
	for _, name := range workloadNames {
		st := quickStream(t, name, 5)
		home := map[string]int{}
		last := map[string]float64{}
		total := 0
		for c := range st.conns {
			es, pads := decodeConn(t, &st.conns[c])
			total += len(es) + pads
			if len(es)+pads != st.conns[c].entries {
				t.Errorf("%s conn %d: %d entries decoded, %d recorded", name, c, len(es)+pads, st.conns[c].entries)
			}
			// two connections: every frame must reach both shards
			if want := (len(st.conns) - 1) * len(st.conns[c].frames); pads != want {
				t.Errorf("%s conn %d: %d pad entries in %d frames", name, c, pads, len(st.conns[c].frames))
			}
			prev := math.Inf(-1)
			for i := range es {
				e := &es[i]
				if e.Timestamp < prev {
					t.Fatalf("%s conn %d: entry %d goes back in time", name, c, i)
				}
				prev = e.Timestamp
				if h, ok := home[e.Subscriber]; ok && h != c {
					t.Fatalf("%s: subscriber %s on connections %d and %d", name, e.Subscriber, h, c)
				}
				home[e.Subscriber] = c
				if e.Timestamp < last[e.Subscriber] {
					t.Fatalf("%s: subscriber %s out of order at %v", name, e.Subscriber, e.Timestamp)
				}
				last[e.Subscriber] = e.Timestamp
				if want := connOf(e.Subscriber, len(st.conns)); want != c {
					t.Fatalf("%s: subscriber %s on connection %d, hash says %d", name, e.Subscriber, c, want)
				}
			}
		}
		if total != st.entries {
			t.Errorf("%s: %d entries decoded, stream says %d", name, total, st.entries)
		}
	}
}

// wire_steady's two connections must carry the same number of
// subscribers and, within the shape tolerance, of entries, whatever the
// seed; paced_scrape carries the same entries on one connection.
func TestEpochStreamShape(t *testing.T) {
	var entries []int
	for seed := int64(1); seed <= 3; seed++ {
		st := quickStream(t, wlWireSteady, seed)
		a, b := float64(st.conns[0].entries), float64(st.conns[1].entries)
		if math.Abs(a-b)/a > 2*shapeTol {
			t.Errorf("seed %d: connections carry %v and %v entries", seed, a, b)
		}
		entries = append(entries, st.entries)
		if seed == 1 {
			paced := quickStream(t, wlPacedScrape, seed)
			pads := len(st.conns[0].frames) + len(st.conns[1].frames)
			want := (st.entries - pads) / quickScale.Epochs * quickScale.PacedEpochs
			if paced.entries != want {
				t.Errorf("paced_scrape carries %d entries, %d epochs of wire_steady's are %d",
					paced.entries, quickScale.PacedEpochs, want)
			}
		}
	}
	sort.Ints(entries)
	if lo, hi := float64(entries[0]), float64(entries[len(entries)-1]); (hi-lo)/lo > 2*shapeTol {
		t.Errorf("entries per round move with the seed: %v", entries)
	}
}

// A verdict is due from the frame that carried its session's last
// entry: the first frame whose newest timestamp reaches the report's
// end.
func TestFrameOf(t *testing.T) {
	cs := connStream{maxTs: []float64{1, 2, 2, 5}}
	for _, c := range []struct {
		end  float64
		want int
	}{{0.5, 0}, {1, 0}, {1.5, 1}, {2, 1}, {2.5, 3}, {5, 3}, {9, 3}} {
		if got := cs.frameOf(c.end); got != c.want {
			t.Errorf("frameOf(%v) = %d, want %d", c.end, got, c.want)
		}
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 4, 2, 8}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile([]float64{0, 10}, 25); got != 2.5 {
		t.Errorf("p25 of {0,10} = %v", got)
	}
	if !reflect.DeepEqual(xs, []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}) {
		t.Error("helpers reordered their input")
	}
}

// The tail percentile is the highest of p99/p95/p90 with at least ten
// samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50_000, 99}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Timings are taken over the rounds the hypervisor left alone, or the
// least disturbed few when it left none alone.
func TestQuietest(t *testing.T) {
	idx, enough := quietest([]float64{0, 0.3, 0.01, 0.02, 0, 0.25, 0.001, 0})
	if !enough || !reflect.DeepEqual(idx, []int{0, 2, 3, 4, 6, 7}) {
		t.Errorf("quiet rounds = %v, enough %v", idx, enough)
	}
	idx, enough = quietest([]float64{0.4, 0.1, 0.3, 0, 0.2, 0.05, 0.5})
	if enough || !reflect.DeepEqual(idx, []int{3, 5, 1, 4, 2}) {
		t.Errorf("least disturbed rounds = %v, enough %v", idx, enough)
	}
	idx, enough = quietest([]float64{0.5, 0.01})
	if enough || !reflect.DeepEqual(idx, []int{1, 0}) {
		t.Errorf("two rounds: %v, enough %v", idx, enough)
	}
	if idx, enough = quietest([]float64{0, 0, 0}); !enough || len(idx) != 3 {
		t.Errorf("three quiet rounds: %v, enough %v", idx, enough)
	}
}

// The host speed is the reference probe time over the run's median
// probe: one reading a neighbour's burst landed on must not move it, a
// host slower throughout must.
func TestHostSpeed(t *testing.T) {
	if s := hostSpeed([]float64{refProbeNs, refProbeNs, refProbeNs}); s != 1 {
		t.Errorf("speed at the reference = %v", s)
	}
	quiet := hostSpeed([]float64{10, 10.2, 9.8, 10.1, 9.9})
	if burst := hostSpeed([]float64{10, 10.2, 9.8, 10.1, 30}); math.Abs(burst-quiet)/quiet > 0.02 {
		t.Errorf("one slow reading moved the speed from %v to %v", quiet, burst)
	}
	if slow := hostSpeed([]float64{12.5, 12.75, 12.25, 12.6, 12.4}); math.Abs(slow/quiet-0.8) > 0.01 {
		t.Errorf("a host a quarter slower reads %v of %v", slow, quiet)
	}
}

// The probe must work where the benchmark runs and leave the heap alone.
func TestProbeHost(t *testing.T) {
	if _, err := probeHost(); err != nil { // maps the tables
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		ns, err := probeHost()
		if err != nil || !(ns > 0) || math.IsInf(ns, 0) {
			t.Errorf("probe = %v, %v", ns, err)
		}
	})
	// goroutines and two small slices per reading, nothing that grows
	if allocs > 16*probeReps {
		t.Errorf("a probe made %v allocations", allocs)
	}
}

func TestDigestIgnoresOrder(t *testing.T) {
	a := []report{{sub: "x", start: 1, end: 2, stall: 1}, {sub: "y", start: 3, end: 4, rep: 2, sw: true}}
	b := []report{a[1], a[0]}
	if digestOf(a) != digestOf(b) {
		t.Error("digest depends on report order")
	}
	c := []report{a[0], {sub: "y", start: 3, end: 4, rep: 2}}
	if digestOf(a) == digestOf(c) {
		t.Error("digest misses a changed verdict")
	}
}

func TestBoolArgs(t *testing.T) {
	got := boolArgs([]string{"--workload", "wide_open", "--seed", "7", "--seconds", "18", "--trace", "0"}, "trace")
	want := []string{"--workload", "wide_open", "--seed", "7", "--seconds", "18", "--trace=0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("boolArgs = %v", got)
	}
	got = boolArgs([]string{"-trace", "-quick"}, "trace", "quick")
	if !reflect.DeepEqual(got, []string{"-trace", "-quick"}) {
		t.Errorf("boolArgs = %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "cpu_ns_per_entry", Better: "lower", Bound: 0.10}
	var a, faster, slower, noisyA, noisyB []float64
	for i := 0; i < 10; i++ {
		a = append(a, 1000+float64(i))
		faster = append(faster, 900+float64(i))
		slower = append(slower, 1200+float64(i))
		noisyA = append(noisyA, 1000+100*float64(i%5))
		noisyB = append(noisyB, 1040+100*float64((i+2)%5))
	}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"clear win", a, faster, "gain"},
		{"too few pairs", a[:9], faster[:9], "within bound"},
		{"slower than the bound", a, slower, "REGRESSED"},
		{"same", a, a, "within bound"},
		{"spread wider than bound", noisyA, noisyB, "unresolved"},
	} {
		if got := judge(lower, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
	higher := metricSpec{Name: "entries_per_s", Better: "higher", Bound: 0.10}
	if got := judge(higher, a, slower); got.Verdict != "gain" {
		t.Errorf("higher-is-better: verdict %q, want gain", got.Verdict)
	}
	if got := judge(higher, slower, a); got.Verdict != "REGRESSED" {
		t.Errorf("higher-is-better: verdict %q, want REGRESSED", got.Verdict)
	}
	// ties count for neither side: 8 wins and 2 ties of 10 is not nine tenths
	tied := append([]float64(nil), faster...)
	tied[0], tied[1] = a[0], a[1]
	if got := judge(lower, a, tied); got.Verdict == "gain" {
		t.Errorf("two ties in ten pairs still read as a gain: %+v", got)
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s lacks a why", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	if spec.Paths[0] != "bench" || len(spec.Paths) != 1 {
		t.Errorf("paths = %v", spec.Paths)
	}
	var gated []string
	for _, m := range spec.EndToEnd {
		gated = append(gated, m.Name)
	}
	if !reflect.DeepEqual(gated, endToEnd) {
		t.Errorf("BENCHMARK.json gates %v, the result line carries %v", gated, endToEnd)
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
}

// The quick run drives every workload end to end: set-up, reference
// pass, state-cost round, two measured rounds, digest check. It keeps
// the benchmark compiling and passing against the code it measures.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drives all four workloads through the server")
	}
	out := t.TempDir()
	if code := run([]string{"-quick", "-out", out}); code != 0 {
		t.Fatalf("quick run exited %d", code)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		var res result
		readJSON(t, filepath.Join(out, w+"-e2e-seed1.json"), &res)
		if !res.Correct || res.Failed != 0 || res.Rounds != 2 {
			t.Errorf("%s: correct %v, failed %d, rounds %d: %v", w, res.Correct, res.Failed, res.Rounds, res.Problems)
		}
		for _, m := range spec.EndToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || !(v.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w, m.Name, v, ok, m.Unit)
			}
		}
		if res.Host.GoVersion == "" || res.Host.NProc == 0 || len(res.Samples) != 2 {
			t.Errorf("%s: result file lacks host metadata or samples", w)
		}
	}
}

// The traced quick run must produce every per-layer metric
// BENCHMARK.json names, and a Chrome trace.
func TestQuickTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a traced workload and the staged replay")
	}
	out := t.TempDir()
	if code := run([]string{"-quick", "-trace", "-workload", wlSessionChurn, "-out", out}); code != 0 {
		t.Fatalf("quick traced run exited %d", code)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var res result
	readJSON(t, filepath.Join(out, wlSessionChurn+"-layers-seed1.json"), &res)
	for _, m := range spec.PerLayer {
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("per-layer metric %s = %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
		}
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.PerLayer))
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	readJSON(t, filepath.Join(out, "trace-"+wlSessionChurn+".json"), &tr)
	if len(tr.TraceEvents) == 0 {
		t.Error("empty Chrome trace")
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
