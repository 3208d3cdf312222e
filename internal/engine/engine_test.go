package engine_test

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/features"
	"vqoe/internal/flight"
	"vqoe/internal/ml"
	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/stats"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

var (
	fixOnce sync.Once
	fixFW   *core.Framework
	fixLive *workload.Live
	// fixCorpora are the two corpora fixFW trained on, and fixDatasets
	// them as the stall and representation models' full-schema training
	// sets, built once for frameworks retrained over other selections
	// (frameworkFor)
	fixCorpora  [2]*workload.Corpus
	dsOnce      sync.Once
	fixDatasets [2]*ml.Dataset
)

func fixtures(t *testing.T) (*core.Framework, *workload.Live) {
	t.Helper()
	fixOnce.Do(func() {
		clearCfg := workload.DefaultConfig(400)
		clearCfg.Seed = 71
		hasCfg := workload.DefaultConfig(200)
		hasCfg.AdaptiveFraction = 1
		hasCfg.Seed = 72
		tcfg := core.DefaultTrainConfig()
		tcfg.CVFolds = 3
		tcfg.Forest.Trees = 10
		fixCorpora = [2]*workload.Corpus{workload.Generate(clearCfg), workload.Generate(hasCfg)}
		var err error
		fixFW, _, err = core.TrainFramework(fixCorpora[0], fixCorpora[1], tcfg)
		if err != nil {
			panic(err)
		}
		lcfg := workload.DefaultLiveConfig()
		lcfg.Subscribers = 16
		lcfg.SessionsPerSubscriber = 2
		lcfg.Seed = 73
		fixLive = workload.GenerateLive(lcfg)
	})
	return fixFW, fixLive
}

// key identifies a report exactly: agreement means the session
// boundaries and every model output — classes, vote shares, switch
// score — matched bit for bit.
func key(sub string, start, end float64, r core.Report) string {
	return fmt.Sprintf("%s|%v|%v|%+v", sub, start, end, r)
}

// referenceSessions is the paper's offline sessionization, the single
// reference the live engine is held to: §5.2 sessionizer.Group over
// each subscriber's own entries, features.FromEntries per session,
// fragments below MinChunks suppressed. fn sees each session.
func referenceSessions(live *workload.Live, fn func(sub string, start, end float64, o features.SessionObs)) {
	minChunks := engine.DefaultConfig().MinChunks
	for _, own := range live.PerSubscriber {
		for _, s := range sessionizer.Group(own, sessionizer.DefaultConfig()) {
			es := make([]weblog.Entry, len(s.Indices))
			for k, i := range s.Indices {
				es[k] = own[i]
			}
			if o := features.FromEntries(es); o.Len() >= minChunks {
				fn(es[0].Subscriber, s.Start, s.End, o)
			}
		}
	}
}

// referenceProjections is each reference session's two projected
// feature vectors, by subscriber and start, as AnalyzeBatchInto fills
// them.
func referenceProjections(fw *core.Framework, live *workload.Live) map[string][2][]float64 {
	var ids []string
	var sessions []features.SessionObs
	referenceSessions(live, func(sub string, start, _ float64, o features.SessionObs) {
		ids = append(ids, fmt.Sprint(sub, start))
		sessions = append(sessions, o)
	})
	var sc core.AnalyzeScratch
	fw.AnalyzeBatchInto(sessions, nil, &sc)
	out := make(map[string][2][]float64, len(ids))
	for i, id := range ids {
		stall, rep := fw.Projected(&sc, i)
		out[id] = [2][]float64{append([]float64(nil), stall...), append([]float64(nil), rep...)}
	}
	return out
}

// storeMatchesReference pushes the live stream, in order with no sweep,
// through a flow table of layout l and returns the bytes it holds at
// the end; then it flushes the table and holds every reference session
// it closed to ColClosed's contract over the reference's chunks. A
// transport field outside l.Fields reads +0 in every row. One inside
// reads the reference column bit for bit, or, when l reads it only as
// an extreme and the table folded it, the session's minimum in row 0
// and its maximum in the others (either one throughout when only it is
// read).
func storeMatchesReference(t *testing.T, live *workload.Live, l features.Layout) int {
	t.Helper()
	refObs := map[string]features.SessionObs{}
	referenceSessions(live, func(sub string, start, _ float64, o features.SessionObs) {
		refObs[fmt.Sprint(sub, start)] = o
	})
	tr := sessionizer.NewColTracker(sessionizer.Config{IdleGap: engine.DefaultConfig().IdleGapSec, PageBoundary: true, Layout: l})
	ids, names := map[string]uint32{}, []string{""}
	tr.Resolve = func(id uint32) string { return names[id] }
	var closed []sessionizer.ColClosed
	for _, e := range live.Entries {
		if ids[e.Subscriber] == 0 {
			ids[e.Subscriber] = uint32(len(names))
			names = append(names, e.Subscriber)
		}
		r := sessionizer.Rec{Sub: ids[e.Subscriber], Kind: weblog.ClassifyHost(e.Host), Ts: e.Timestamp, Dur: e.TransactionSec,
			KB: float64(e.Bytes) / 1000, RTTMin: e.RTTMin, RTTAvg: e.RTTAvg, RTTMax: e.RTTMax, BDP: e.BDP,
			BIFAvg: e.BIFAvg, BIFMax: e.BIFMax, Loss: e.LossPct, Retrans: e.RetransPct}
		closed = tr.PushInto(&r, closed)
	}
	held := tr.StoreBytes()
	closed = tr.FlushInto(closed)

	// differs is the first row where a and b differ bitwise, -1 if none
	differs := func(a, b []float64) int {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return i
			}
		}
		return -1
	}
	checked := 0
	for _, c := range closed {
		ref, ok := refObs[fmt.Sprint(names[c.Sub], c.Start)]
		if !ok {
			continue
		}
		checked++
		n := len(c.Chunks)
		if n != ref.Len() {
			t.Errorf("session %s at %v: %d chunks, reference %d", names[c.Sub], c.Start, n, ref.Len())
			return held
		}
		got, want, fold := make([]float64, n), make([]float64, n), make([]float64, n)
		for b := 0; b < 8; b++ {
			bit := features.FieldRTTMin << b
			for i := range c.Chunks {
				got[i], want[i] = transport(c.Chunks[i])[b], transport(ref.Chunks[i])[b]
			}
			lo, hi := stats.Extremes(want)
			for i := range fold {
				switch {
				case l.Fields&bit == 0:
					fold[i] = 0
				case i == 0 && l.Mins&bit != 0, i > 0 && l.Maxes&bit == 0:
					fold[i] = lo
				default:
					fold[i] = hi
				}
			}
			i := differs(got, want)
			if l.Fields&bit == 0 || i >= 0 && (l.Mins|l.Maxes)&bit != 0 {
				i = differs(got, fold)
			}
			if i >= 0 {
				t.Errorf("session %s at %v: transport field %d of layout %+v reads %v in row %d of %d; reference %v, folded %v",
					names[c.Sub], c.Start, b, l, got[i], i, n, want[i], fold[i])
				return held
			}
		}
	}
	if checked != len(refObs) {
		t.Errorf("the flow table closed %d of the %d reference sessions", checked, len(refObs))
	}
	return held
}

// transport reads a chunk observation's eight transport fields in
// FieldSet bit order.
func transport(c features.ChunkObs) [8]float64 {
	return [8]float64{c.RTTMin, c.RTTAvg, c.RTTMax, c.BDP, c.BIFAvg, c.BIFMax, c.LossPct, c.RetransPct}
}

// referenceReports is the offline path's reports: referenceSessions
// assessed one at a time by §4 Framework.Analyze.
func referenceReports(fw *core.Framework, live *workload.Live) map[string]int {
	out := map[string]int{}
	referenceSessions(live, func(sub string, start, end float64, o features.SessionObs) {
		out[key(sub, start, end, fw.Analyze(o))]++
	})
	return out
}

// TestEngineMatchesOfflineReference holds the live path to the offline
// one on the fixture's framework, the default recipe's models
// (matchesOfflineReference).
func TestEngineMatchesOfflineReference(t *testing.T) {
	fw, live := fixtures(t)
	matchesOfflineReference(t, fw, live)
}

// matchesOfflineReference holds the live path on fw to the offline one:
// every report the engine emits must be one the reference produces, and
// vice versa — at one shard and at four, with sweeps off and with the
// default idle sweep (an evicted session is one Group would have split
// at the same place, because the subscriber's next entry is further
// away than the idle gap) — and every session's projected vectors, as
// the flight recorder retains them, equal the reference's bit for bit.
// The flow store the engine builds is fw's derived layout: at one shard
// without sweeps it holds what a tracker of that layout holds, and that
// tracker closes what the reference sessions hold
// (storeMatchesReference).
func matchesOfflineReference(t *testing.T, fw *core.Framework, live *workload.Live) {
	t.Helper()
	want := referenceReports(fw, live)
	wantProj := referenceProjections(fw, live)
	var held int
	t.Run("store", func(t *testing.T) { held = storeMatchesReference(t, live, fw.Layout()) })

	for _, tc := range []struct {
		name   string
		shards int
		sweep  float64
	}{
		{"shards=1", 1, -1},
		{"shards=1/default-sweep", 1, 0},
		{"shards=4", 4, -1},
		{"shards=4/default-sweep", 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := flight.New(flight.Config{Shards: tc.shards, SampleN: 1, MaxBytes: 1 << 30})
			cfg := engine.Config{Shards: tc.shards, SweepEverySec: tc.sweep, Flight: rec}
			eng := engine.New(fw, cfg, nil)
			var got []engine.Report
			// feed the sorted stream in moderate synchronous batches, as
			// the capture loop would
			for lo := 0; lo < len(live.Entries); lo += 500 {
				reps, _ := eng.Ingest(live.Entries[lo:min(lo+500, len(live.Entries))])
				got = append(got, reps...)
			}
			if open := eng.OpenSessions()[0].StoreBytes; tc.shards == 1 && tc.sweep < 0 && open != held {
				t.Errorf("the shard's flow store holds %d B, a tracker of the derived layout %d B", open, held)
			}
			got = append(got, eng.Drain()...)

			// the retained vectors reach the attributor at drill-down
			var proj [2][]float64
			rec.SetAttributor(func(stall, rep []float64, _ int) ([]core.FeatureAttribution, []core.FeatureAttribution) {
				proj = [2][]float64{stall, rep}
				return nil, nil
			})
			for _, r := range got {
				proj = [2][]float64{}
				if rec.Get(r.Subscriber, r.Start) == nil {
					t.Fatalf("session %s at %v was not retained", r.Subscriber, r.Start)
				}
				ref, ok := wantProj[fmt.Sprint(r.Subscriber, r.Start)]
				for m := range proj {
					if !ok || len(proj[m]) != len(ref[m]) {
						t.Fatalf("session %s at %v: vector %d has %d values, reference %d", r.Subscriber, r.Start, m, len(proj[m]), len(ref[m]))
					}
					for i, v := range proj[m] {
						if math.Float64bits(v) != math.Float64bits(ref[m][i]) {
							t.Errorf("session %s at %v: vector %d value %d is %v, reference %v", r.Subscriber, r.Start, m, i, v, ref[m][i])
						}
					}
				}
			}

			var evicted int64
			for _, s := range eng.Snapshot() {
				evicted += s.Evicted
			}
			if swept := tc.sweep >= 0; swept != (evicted > 0) {
				t.Errorf("idle sweep closed %d sessions with SweepEverySec=%v", evicted, tc.sweep)
			}
			if len(got) != sum(want) {
				t.Errorf("engine emitted %d reports, reference %d", len(got), sum(want))
			}
			seen := map[string]int{}
			for _, r := range got {
				seen[key(r.Subscriber, r.Start, r.End, r.Report)]++
			}
			for k, n := range want {
				if seen[k] != n {
					t.Errorf("reference report %s: engine emitted it %d times, want %d", k, seen[k], n)
				}
			}
			for k, n := range seen {
				if want[k] == 0 {
					t.Errorf("engine report %s (x%d) is not in the reference", k, n)
				}
			}
		})
	}
}

// frameworkFor is a framework whose models read the given selections,
// brought in the way a retrained model file reaches qoeserve -stall and
// -rep: each model is a copy of the fixture's detector (tests that run
// at once share the fixture) with a three-tree forest over its
// selection in place of its own (drift baseline captured as core.Train
// captures it), saved with Detector.Save and read back by
// core.LoadFramework.
func frameworkFor(t *testing.T, stall, rep []string) *core.Framework {
	t.Helper()
	fw, _ := fixtures(t)
	dsOnce.Do(func() {
		fixDatasets = [2]*ml.Dataset{core.BuildStallDataset(fixCorpora[0]), core.BuildRepDataset(fixCorpora[1])}
	})
	var paths [2]string
	for i, det := range []core.Detector{*fw.Stall, *fw.Rep} {
		sel := [2][]string{stall, rep}[i]
		reduced, err := fixDatasets[i].SelectFeatures(sel)
		if err != nil {
			t.Fatal(err)
		}
		det.Selected = sel
		det.Forest = ml.TrainForest(reduced, ml.ForestConfig{Trees: 3, Seed: 1})
		det.Forest.Baseline = qualitymon.CaptureBaseline(sel, reduced.X, reduced.Y, reduced.Classes, qualitymon.DefaultBins)
		paths[i] = filepath.Join(t.TempDir(), "model")
		f, err := os.Create(paths[i])
		if err == nil {
			err = errors.Join(det.Save(f), f.Close())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	out, err := core.LoadFramework(paths[0], paths[1])
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// drawSelection draws one to five distinct columns of a schema, two in
// three of them a min or a max, so that drawn layouts fold.
func drawSelection(r *rand.Rand, names []string) []string {
	var extremes []string
	for _, n := range names {
		if strings.HasSuffix(n, " min") || strings.HasSuffix(n, " max") {
			extremes = append(extremes, n)
		}
	}
	var out []string
	for k := 1 + r.Intn(5); len(out) < k; {
		from := names
		if r.Intn(3) > 0 {
			from = extremes
		}
		if n := from[r.Intn(len(from))]; !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// TestEngineMatchesOfflineReferenceEveryLayout holds the engine to the
// offline reference (matchesOfflineReference) on frameworks built from
// other selections than the fixture's, so on every shape of layout the
// plan can derive: the default recipe's selections and the paper's
// Table 2 stall selection as model files, a field read as both a min
// and a max (a two-slot fold), more extremes-only fields than the flow
// header's three slots, no transport field at all, and seeded random
// selections for both models. The test checks that its cases cover the
// last three shapes.
func TestEngineMatchesOfflineReferenceEveryLayout(t *testing.T) {
	fw, live := fixtures(t)
	type selection struct {
		name       string
		stall, rep []string
	}
	cases := []selection{
		{"default-recipe", fw.Stall.Selected, fw.Rep.Selected},
		{"table-2", []string{"chunk size min", "chunk size std", "BDP mean", "packet retransmissions max"}, []string{"chunk avg size mean"}},
		{"two-slot-fold", []string{"BDP min", "chunk size std"}, []string{"BDP max", "chunk Δsize 85%"}},
		{"crowded-header", []string{"RTT minimum min", "RTT maximum max", "BDP min"},
			[]string{"RTT minimum max", "BIF avg max", "packet loss max", "packet retransmissions min"}},
		{"no-transport", []string{"chunk size min", "chunk time max"}, []string{"chunk Δsize 85%", "throughput 50%"}},
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		cases = append(cases, selection{fmt.Sprint("drawn-", i),
			drawSelection(r, features.StallFeatureNames()), drawSelection(r, features.RepFeatureNames())})
	}

	var twoSlot, crowded, bare bool
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fw := frameworkFor(t, tc.stall, tc.rep)
			l := fw.Layout()
			t.Logf("stall %q, rep %q: layout %+v", tc.stall, tc.rep, l)
			twoSlot = twoSlot || l.Mins&l.Maxes != 0
			crowded = crowded || bits.OnesCount16(uint16(l.Mins|l.Maxes)) > 3
			bare = bare || l.Fields == features.CoreFields
			matchesOfflineReference(t, fw, live)
		})
	}
	if !twoSlot || !crowded || !bare {
		t.Errorf("the cases derive a two-slot fold %v, more than 3 extremes-only fields %v, no transport field %v; want all",
			twoSlot, crowded, bare)
	}
}

func sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func TestEngineConcurrentFeeders(t *testing.T) {
	fw, live := fixtures(t)
	want := referenceReports(fw, live)

	cfg := engine.DefaultConfig()
	cfg.Shards = 4
	var mu sync.Mutex
	var got []engine.Report
	eng := engine.New(fw, cfg, func(r engine.Report) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for _, part := range live.Partition(4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := 0; lo < len(part); lo += 128 {
				eng.Feed(part[lo:min(lo+128, len(part))])
			}
		}()
	}
	wg.Wait()
	got = append(got, eng.Drain()...)

	if len(got) != sum(want) {
		t.Errorf("concurrent feeders emitted %d reports, reference %d", len(got), sum(want))
	}
	var events int64
	for _, s := range eng.Snapshot() {
		events += s.Events
		if s.Dropped != 0 {
			t.Errorf("shard %d dropped %d entries on the blocking path", s.Shard, s.Dropped)
		}
	}
	if events != int64(len(live.Entries)) {
		t.Errorf("shards processed %d events, fed %d", events, len(live.Entries))
	}
}

func TestEngineOfferShedsUnderOverload(t *testing.T) {
	fw, live := fixtures(t)
	cfg := engine.DefaultConfig()
	cfg.Shards = 1
	cfg.Mailbox = 1
	// the worker stalls in the sink from its first report until the burst
	// is over: overload that does not depend on the scheduler running the
	// feeder ahead of the worker (on a loaded 2-CPU box it sometimes did
	// not, and nothing was shed)
	burstOver := make(chan struct{})
	eng := engine.New(fw, cfg, func(engine.Report) { <-burstOver })
	defer eng.Drain()

	accepted, shed := 0, 0
	for lo := 0; lo+50 <= len(live.Entries); lo += 50 {
		took := eng.Offer(live.Entries[lo : lo+50])
		accepted += took.Accepted
		shed += took.Dropped
	}
	close(burstOver)
	var dropped int64
	for _, s := range eng.Snapshot() {
		dropped += s.Dropped
	}
	if accepted == 0 {
		t.Error("offer accepted nothing")
	}
	if dropped == 0 {
		t.Error("a 1-deep mailbox under burst load should shed entries")
	}
	if int64(shed) != dropped {
		t.Errorf("Offer tallied %d dropped entries, the shards counted %d", shed, dropped)
	}
}

func TestEngineAdvanceAndSnapshot(t *testing.T) {
	fw, live := fixtures(t)
	cfg := engine.DefaultConfig()
	cfg.Shards = 2
	cfg.SweepEverySec = -1 // manual clock only
	eng := engine.New(fw, cfg, nil)

	one := live.PerSubscriber[0]
	if rep, _ := eng.Ingest(one); len(rep) == 0 && len(one) == 0 {
		t.Skip("empty subscriber stream")
	}
	snap := eng.Snapshot()
	openBefore := 0
	for _, s := range snap {
		openBefore += s.Open
	}
	if openBefore == 0 {
		t.Fatal("no session open after ingest")
	}
	if got := eng.Advance(1e12); len(got) == 0 {
		t.Error("advance past the idle gap emitted nothing")
	}
	for _, s := range eng.Snapshot() {
		if s.Open != 0 {
			t.Errorf("shard %d still tracks %d sessions after advance", s.Shard, s.Open)
		}
	}
	if rest := eng.Drain(); len(rest) != 0 {
		t.Errorf("drain after advance returned %d reports", len(rest))
	}
	// closed engine: every entry point is a no-op
	if rep, took := eng.Ingest(one); rep != nil || took != (engine.Tally{}) || eng.Offer(one) != (engine.Tally{}) || eng.Drain() != nil {
		t.Error("closed engine should take no work")
	}
	eng.Feed(one) // must not panic
}

func TestEngineAutoEviction(t *testing.T) {
	fw, _ := fixtures(t)
	cfg := engine.DefaultConfig()
	cfg.Shards = 1
	eng := engine.New(fw, cfg, nil)
	defer eng.Drain()

	// one subscriber goes quiet; another keeps the clock moving far
	// past the idle gap + slack
	quiet := []weblog.Entry{}
	for i := 0; i < 5; i++ {
		quiet = append(quiet, weblog.Entry{
			Timestamp: float64(i), Subscriber: "quiet",
			Host: "r1---sn-aaaa.googlevideo.com", Bytes: 500_000, TransactionSec: 0.4,
		})
	}
	eng.Ingest(quiet)
	var rep []engine.Report
	for tick := 0; tick < 40; tick++ {
		closed, _ := eng.Ingest([]weblog.Entry{{
			Timestamp: 10 + float64(tick)*5, Subscriber: "chatty",
			Host: "r2---sn-bbbb.googlevideo.com", Bytes: 500_000, TransactionSec: 0.4,
		}})
		rep = append(rep, closed...)
	}
	found := false
	for _, r := range rep {
		if r.Subscriber == "quiet" {
			found = true
		}
	}
	if !found {
		t.Error("idle clock never evicted the quiet subscriber's session")
	}
	var evicted int64
	for _, s := range eng.Snapshot() {
		evicted += s.Evicted
	}
	if evicted == 0 {
		t.Error("eviction counter not incremented")
	}
}

// TestNonFiniteTimestampLeavesSweepAlive is the regression for a record
// the service does not control: before the admission rule, one entry
// with Timestamp=+Inf — to a host the tracker ignores — set its shard's
// high-water mark to +Inf, the sweep test read Inf−Inf=NaN from then on,
// and no idle session on that shard was ever evicted again. Now the
// entry is one tick of the rejected counter and the idle clock runs.
func TestNonFiniteTimestampLeavesSweepAlive(t *testing.T) {
	fw, _ := fixtures(t)
	cfg := engine.DefaultConfig()
	cfg.Shards = 1
	eng := engine.New(fw, cfg, nil)
	defer eng.Drain()

	media := func(sub string, ts float64) weblog.Entry {
		return weblog.Entry{Timestamp: ts, Subscriber: sub, Host: "r1---sn-aaaa.googlevideo.com", Bytes: 500_000, TransactionSec: 0.4}
	}
	const idle = 40
	var batch []weblog.Entry
	for s := 0; s < idle; s++ {
		for i := 0; i < 5; i++ {
			batch = append(batch, media(fmt.Sprintf("idle-%d", s), float64(i)))
		}
	}
	poison := weblog.Entry{Timestamp: math.Inf(1), Subscriber: "idle-0", Host: "ads.example.com"}
	if _, took := eng.Ingest(append(batch, poison)); took != (engine.Tally{Accepted: len(batch), Rejected: 1}) {
		t.Fatalf("batch with one +Inf timestamp tallied %+v", took)
	}
	reports := 0
	for tick := 0; tick < 40; tick++ {
		closed, _ := eng.Ingest([]weblog.Entry{media("chatty", 10+float64(tick)*5)})
		reports += len(closed)
	}
	var evicted int64
	for _, s := range eng.Snapshot() {
		evicted += s.Evicted
	}
	if evicted != idle || reports != idle {
		t.Errorf("%d of %d idle sessions evicted (%d reported) after a +Inf timestamp", evicted, idle, reports)
	}
	if got := eng.Rejected(); got != [2]int64{0, 1} {
		t.Errorf("rejected %v, want one non_finite", got)
	}
}
