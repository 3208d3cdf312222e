package flight

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/features"
)

var updateFlight = flag.Bool("update-flight", false, "rewrite testdata/stream.golden from this build")

// goldenAttributor makes the attributions a function of the vectors'
// contents, so a drill-down's JSON pins every float a retained session
// carries for replay, not only their presence.
func goldenAttributor(stallProj, repProj []float64, k int) (stall, rep []core.FeatureAttribution) {
	fold := func(name string, v []float64) []core.FeatureAttribution {
		if v == nil {
			return nil
		}
		sum := 0.0
		for i, x := range v {
			sum += float64(i+1) * x
		}
		return []core.FeatureAttribution{{Feature: name + "[0]", Weight: v[0]}, {Feature: fmt.Sprintf("%s.len%d.top%d", name, len(v), k), Weight: sum}}
	}
	return fold("stall", stallProj), fold("rep", repProj)
}

// TestFlightGoldenStream holds the retained store to the recorder's
// recorded behaviour on one seeded stream: 24,000 assessments over two
// shards into a 256 KB budget each (so the rings turn over dozens of
// times), delayed labels promoting some retained sessions and missing
// others that were evicted first. testdata/stream.golden was captured
// from the pointer-per-session ring this store replaced; it pins the
// /debug/flight index at three points (row count, length and SHA-256 of
// the JSON, the first rows in full), the exemplar lists, the counters,
// and three drill-downs — one evicted, one promoted by a label, one
// truncated at MaxEvents — with the Chrome trace of the last. Any
// change to what is accounted, evicted, indexed or replayed shows here.
// Regenerate only for an intended change: -update-flight.
func TestFlightGoldenStream(t *testing.T) {
	const (
		total     = 24000
		maxEvents = 48
		cohortKey = "eu-west/mobile/50"
	)
	rec := New(Config{Shards: 2, SampleN: 16, MaxBytes: 256 << 10, MaxEvents: maxEvents})
	rec.SetAttributor(goldenAttributor)
	rng := rand.New(rand.NewSource(20))
	cohorts := []string{cohortKey, "eu-west/tv/-", "us-east/mobile/10", "unknown", "ap-south/-/-", "us-east/tv/50", ""}
	stalls := []features.StallLabel{features.NoStall, features.NoStall, features.NoStall, features.NoStall, features.NoStall, features.NoStall, features.NoStall, features.MildStall, features.MildStall, features.SevereStall}

	var got bytes.Buffer
	type pending struct {
		sub        string
		start, end float64
		due        int
	}
	var labels []pending
	nextLabel := 0
	var firstRetained *pending
	nRetained := 0

	checkpoint := func(at int) {
		sn := rec.Snapshot()
		j, err := json.Marshal(sn)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== index@%d rows=%d bytes=%d sha256=%x\n", at, len(sn.Retained), len(j), sha256.Sum256(j))
		for i := 0; i < len(sn.Retained) && i < 6; i++ {
			row, _ := json.Marshal(sn.Retained[i])
			fmt.Fprintf(&got, "%s\n", row)
		}
		fmt.Fprintf(&got, "== exemplars@%d\n", at)
		for _, key := range []string{cohortKey, "model/stall", "model/rep"} {
			fmt.Fprintf(&got, "%s: %q\n", key, rec.ExemplarIDs(key))
		}
		m, _ := json.Marshal(rec.Metrics())
		fmt.Fprintf(&got, "== metrics@%d\n%s\n", at, m)
	}

	for i := 0; i < total; i++ {
		subIdx := rng.Intn(3000)
		sub := fmt.Sprintf("sub-%04d", subIdx)
		start := float64(i)*7.25 + rng.Float64()
		nc := 3 + rng.Intn(70)
		chunks := make([]features.ChunkObs, nc)
		ts := start
		for c := range chunks {
			step := 1 + 4*rng.Float64()
			if rng.Intn(12) == 0 {
				step += 20 * rng.Float64() // a silence worth a gap event
			}
			ts += step
			dur := 0.2 + rng.Float64()
			if rng.Intn(40) == 0 {
				dur = 0
			}
			chunks[c] = features.ChunkObs{Time: ts, SizeKB: 100 + 900*rng.Float64(), DurationSec: dur}
		}
		rep := core.Report{
			Stall:          stalls[rng.Intn(len(stalls))],
			Representation: features.RepLabel(rng.Intn(3)),
			StallConf:      0.4 + 0.6*rng.Float64(),
			RepConf:        0.4 + 0.6*rng.Float64(),
			SwitchVariance: rng.Intn(4) == 0,
			SwitchScore:    1000 * rng.Float64(),
			Chunks:         nc,
		}
		a := Assessment{
			Subscriber: sub, Start: start, End: ts + 1,
			Report: rep, Chunks: chunks, RawEntries: nc + rng.Intn(9),
			Cohort: cohorts[rng.Intn(len(cohorts))],
		}
		switch v := rng.Intn(32); {
		case v == 0: // a framework with no models carries no vectors
		case v == 1:
			a.StallProj = randVec(rng, 9)
		default:
			a.StallProj, a.RepProj = randVec(rng, 9), randVec(rng, 14)
		}
		sh := rec.Shard(subIdx % 2)
		if reasons, score, ok := sh.Decide(rep); ok {
			sh.Retain(a, score, reasons)
			nRetained++
			p := pending{sub, start, a.End, i + 40 + rng.Intn(400)}
			if firstRetained == nil {
				firstRetained = &p
			}
			if nRetained%23 == 0 {
				labels = append(labels, p)
			}
		}
		// delayed ground truth: some labels find their session retained,
		// the later ones find it evicted; a few name sessions never seen
		for ; nextLabel < len(labels) && labels[nextLabel].due <= i; nextLabel++ {
			l := labels[nextLabel]
			model := "stall"
			if int(l.start)%2 == 0 {
				model = "rep"
			}
			rec.ObserveOutcome(l.sub, l.start, l.end, model, fmt.Sprintf("predicted x, labeled y (%d)", i))
		}
		if i%997 == 0 {
			rec.ObserveOutcome("ghost", float64(i), float64(i)+1, "stall", "never retained")
		}
		if i+1 == 600 || i+1 == 9000 || i+1 == total {
			checkpoint(i + 1)
		}
	}

	drill := func(what, sub string, start float64) {
		j, err := json.MarshalIndent(rec.Get(sub, start), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== get %s %s\n%s\n", what, sessionID(sub, start), j)
	}
	drill("evicted", firstRetained.sub, firstRetained.start)
	var promoted, truncated *IndexEntry
	final := rec.Snapshot().Retained
	for i := range final {
		e := &final[i]
		if promoted == nil && strings.Contains(strings.Join(e.Reasons, ","), "labeled_wrong") {
			promoted = e
		}
		if truncated == nil && e.Chunks > maxEvents && e.Stall != features.NoStall.String() {
			truncated = e
		}
	}
	if promoted == nil || truncated == nil {
		t.Fatalf("stream left no promoted (%v) or no truncated stalled (%v) session resident", promoted, truncated)
	}
	drill("promoted", promoted.Subscriber, promoted.Start)
	drill("truncated", truncated.Subscriber, truncated.Start)
	tr, err := json.MarshalIndent(rec.ChromeTrace(truncated.Subscriber, truncated.Start), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "== trace truncated %s\n%s\n", truncated.ID, tr)

	const golden = "testdata/stream.golden"
	if *updateFlight {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, golden, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, %s %d", len(gl), golden, len(wl))
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
