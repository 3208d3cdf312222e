package qualitymon

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestMonitorLabelsMatchTally: the live label matcher is a Tally fed
// through TrackPrediction and ObserveLabel, so its snapshot must read,
// bit for bit, what a Tally fed the same (actual, predicted, conf)
// triples directly reads — with either side arriving first and with
// class indices outside the schema among them.
func TestMonitorLabelsMatchTally(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 300
	preds := make([]Prediction, n)
	labels := make([]Label, n)
	for i := range preds {
		sub := fmt.Sprintf("s%d", i)
		preds[i] = Prediction{Subscriber: sub, Start: 0, End: 10,
			Stall: r.Intn(2), Rep: r.Intn(3) - 1, StallConf: r.Float64(), RepConf: r.Float64()}
		labels[i] = Label{Subscriber: sub, Start: 0, End: 10, Stall: r.Intn(3), Rep: r.Intn(2)}
	}
	for _, labelsFirst := range []bool{false, true} {
		m := testMonitor(t, testBaseline(t))
		if labelsFirst {
			for _, l := range labels {
				m.ObserveLabel(l)
			}
		}
		for _, p := range preds {
			m.TrackPrediction(p)
		}
		if !labelsFirst {
			for _, l := range labels {
				m.ObserveLabel(l)
			}
		}
		// either way the pairs resolve in index order
		want := [2]*Tally{NewTally([]string{"a", "b"}), NewTally([]string{"x", "y"})}
		for i, p := range preds {
			want[0].Observe(labels[i].Stall, p.Stall, p.StallConf)
			want[1].Observe(labels[i].Rep, p.Rep, p.RepConf)
		}
		sn := m.Snapshot()
		for k, ms := range sn.Models {
			w := want[k]
			if w.OutOfRange == 0 || w.Total() == 0 {
				t.Fatalf("%s: the triples must hold both in-range and out-of-range pairs", ms.Name)
			}
			if !reflect.DeepEqual(ms.Confusion, w.Matrix) || ms.Labeled != w.Total() || ms.LabelsOutOfRange != w.OutOfRange {
				t.Errorf("labels first %v, %s: confusion %v labeled %d out of range %d; tally %v, %d, %d",
					labelsFirst, ms.Name, ms.Confusion, ms.Labeled, ms.LabelsOutOfRange, w.Matrix, w.Total(), w.OutOfRange)
			}
			if math.Float64bits(ms.OnlineAccuracy) != math.Float64bits(w.Accuracy()) || math.Float64bits(ms.ECE) != math.Float64bits(w.ECE()) {
				t.Errorf("labels first %v, %s: accuracy %v ECE %v; tally %v, %v",
					labelsFirst, ms.Name, ms.OnlineAccuracy, ms.ECE, w.Accuracy(), w.ECE())
			}
		}
	}
}

// TestLabelTallyRacesSnapshot: goroutines resolve labels while
// Snapshot runs. Each snapshot copies a model's tally whole, so its
// matrix sums to the bins' count, and never counts a pair the matcher
// has not; once the resolvers are done every matched pair is in each
// model's tally, scored or out of range.
func TestLabelTallyRacesSnapshot(t *testing.T) {
	m := testMonitor(t, testBaseline(t))
	const workers, perWorker = 4, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sub := fmt.Sprintf("w%d-%d", w, i)
				p := Prediction{Subscriber: sub, End: 10, Stall: i % 2, Rep: (i + w) % 2,
					StallConf: float64(i%10) / 10, RepConf: float64(w+1) / 8}
				l := Label{Subscriber: sub, End: 10, Stall: i % 3, Rep: i % 2}
				if i%2 == 0 {
					m.TrackPrediction(p)
					m.ObserveLabel(l)
				} else {
					m.ObserveLabel(l)
					m.TrackPrediction(p)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	check := func(final bool) {
		sn := m.Snapshot()
		for _, ms := range sn.Models {
			var sum int64
			for _, row := range ms.Confusion {
				for _, v := range row {
					sum += v
				}
			}
			if sum != ms.Labeled {
				t.Fatalf("%s: confusion sums to %d, labeled %d — a torn tally", ms.Name, sum, ms.Labeled)
			}
			if got := ms.Labeled + ms.LabelsOutOfRange; got > sn.Labels.Matched || final && got != sn.Labels.Matched {
				t.Fatalf("%s: labeled %d + out of range %d, labels matched %d (final %v)",
					ms.Name, ms.Labeled, ms.LabelsOutOfRange, sn.Labels.Matched, final)
			}
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			check(false)
		}
	}
	check(true)
	if got := m.Snapshot().Labels.Matched; got != workers*perWorker {
		t.Errorf("labels matched %d, want %d", got, workers*perWorker)
	}
}
