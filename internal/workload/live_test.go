package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vqoe/internal/weblog"
)

func smallLive(t *testing.T) *Live {
	t.Helper()
	cfg := DefaultLiveConfig()
	cfg.Subscribers = 8
	cfg.SessionsPerSubscriber = 2
	cfg.Seed = 7
	return GenerateLive(cfg)
}

func TestGenerateLiveShape(t *testing.T) {
	l := smallLive(t)
	if l.Sessions != 16 {
		t.Errorf("sessions = %d", l.Sessions)
	}
	if len(l.PerSubscriber) != 8 {
		t.Fatalf("subscriber streams = %d", len(l.PerSubscriber))
	}
	subs := map[string]bool{}
	total := 0
	for _, es := range l.PerSubscriber {
		if len(es) == 0 {
			t.Fatal("empty subscriber stream")
		}
		total += len(es)
		prev := -1.0
		for _, e := range es {
			subs[e.Subscriber] = true
			if e.Timestamp < prev {
				t.Fatal("per-subscriber stream not time-ordered")
			}
			prev = e.Timestamp
		}
	}
	if len(subs) != 8 {
		t.Errorf("distinct subscribers = %d", len(subs))
	}
	if len(l.Entries) != total {
		t.Errorf("global stream has %d entries, subscriber streams %d", len(l.Entries), total)
	}
	prev := -1.0
	for _, e := range l.Entries {
		if e.Timestamp < prev {
			t.Fatal("global stream not time-ordered")
		}
		prev = e.Timestamp
	}
}

func TestGenerateLiveDeterministic(t *testing.T) {
	a, b := smallLive(t), smallLive(t)
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d differs between runs", i)
		}
	}
}

func TestGenerateLiveCohortAssignment(t *testing.T) {
	l := smallLive(t)
	regions := map[string]bool{}
	for _, r := range Regions {
		regions[r] = true
	}
	devices := map[string]bool{}
	for _, d := range Devices {
		devices[d] = true
	}
	for _, es := range l.PerSubscriber {
		reg, dev := es[0].Region, es[0].Device
		if !regions[reg] || !devices[dev] {
			t.Fatalf("cohort %q/%q outside vocabulary", reg, dev)
		}
		for _, e := range es {
			if e.Region != reg || e.Device != dev {
				t.Fatalf("subscriber %s changes cohort mid-stream", e.Subscriber)
			}
			switch e.Cap {
			case "ld", "sd", "hd":
			default:
				t.Fatalf("cap bucket %q", e.Cap)
			}
		}
	}
}

// stripCohort clears the metadata fields so traffic content can be
// compared across differently-weighted cohort configurations.
func stripCohort(es []weblog.Entry) []weblog.Entry {
	out := append([]weblog.Entry(nil), es...)
	for i := range out {
		out[i].Region, out[i].Device, out[i].Cap = "", "", ""
	}
	return out
}

// Reweighting the cohort draw must not perturb the traffic content:
// the metadata comes from a dedicated RNG stream (cohortSeedSalt), so
// only the stamped labels may change.
func TestCohortReweightLeavesTrafficIdentical(t *testing.T) {
	cfg := DefaultLiveConfig()
	cfg.Subscribers = 8
	cfg.SessionsPerSubscriber = 2
	cfg.Seed = 7
	base := GenerateLive(cfg)

	cfg.RegionWeights = []float64{1, 0, 0, 0, 0}
	cfg.DeviceWeights = []float64{0, 0, 1, 0}
	skew := GenerateLive(cfg)

	a, b := stripCohort(base.Entries), stripCohort(skew.Entries)
	if len(a) != len(b) {
		t.Fatalf("entry counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d traffic content differs under cohort reweight", i)
		}
	}
	for _, e := range skew.Entries {
		if e.Region != "us-east" || e.Device != "mobile" {
			t.Fatalf("skewed weights produced cohort %s/%s", e.Region, e.Device)
		}
	}
}

// A hotspot region degrades only its own subscribers' traffic; every
// other subscriber's stream stays byte-identical to the baseline.
func TestHotspotDegradesOnlyItsRegion(t *testing.T) {
	cfg := DefaultLiveConfig()
	cfg.Subscribers = 24
	cfg.SessionsPerSubscriber = 1
	cfg.Seed = 11
	base := GenerateLive(cfg)

	cfg.HotspotRegion = "eu-west"
	cfg.HotspotSeverity = 1 // every hotspot session on a poor path
	hot := GenerateLive(cfg)

	inHotspot, differs := 0, 0
	for i := range base.PerSubscriber {
		b, h := base.PerSubscriber[i], hot.PerSubscriber[i]
		if b[0].Region != h[0].Region {
			t.Fatalf("hotspot changed subscriber %d's region assignment", i)
		}
		if h[0].Region == "eu-west" {
			inHotspot++
			if len(b) != len(h) {
				differs++
				continue
			}
			for j := range b {
				if b[j] != h[j] {
					differs++
					break
				}
			}
			continue
		}
		if len(b) != len(h) {
			t.Fatalf("hotspot changed entry count for subscriber %d outside the region", i)
		}
		for j := range b {
			if b[j] != h[j] {
				t.Fatalf("hotspot perturbed subscriber %d outside the region", i)
			}
		}
	}
	if inHotspot == 0 {
		t.Skip("no subscriber landed in the hotspot region for this seed")
	}
	if differs == 0 {
		t.Error("full-severity hotspot left every affected stream unchanged")
	}
}

func TestLivePartitionPreservesOrder(t *testing.T) {
	l := smallLive(t)
	parts := l.Partition(3)
	total := 0
	for _, p := range parts {
		total += len(p)
		lastT := -1.0
		for _, e := range p {
			if e.Timestamp < lastT {
				t.Fatal("partition broke time order")
			}
			lastT = e.Timestamp
		}
	}
	if total != len(l.Entries) {
		t.Errorf("partitions hold %d entries, stream %d", total, len(l.Entries))
	}
	// a subscriber never spans partitions
	where := map[string]int{}
	for i, p := range parts {
		for _, e := range p {
			if prev, ok := where[e.Subscriber]; ok && prev != i {
				t.Fatalf("subscriber %s in partitions %d and %d", e.Subscriber, prev, i)
			}
			where[e.Subscriber] = i
		}
	}
}

// sliceStableRef is the order GenerateLive used to leave: the parts
// concatenated, then sort.SliceStable by key.
func sliceStableRef[T any](parts [][]T, key func(*T) float64) []T {
	var all []T
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool { return key(&all[i]) < key(&all[j]) })
	return all
}

// TestMergeStableMatchesSliceStable pins the permutation sort to the
// stable sort it replaced on streams whose timestamps tie across
// subscribers, where only stability fixes the order.
func TestMergeStableMatchesSliceStable(t *testing.T) {
	ts := func(e *weblog.Entry) float64 { return e.Timestamp }
	entries := func(sub string, times ...float64) []weblog.Entry {
		es := make([]weblog.Entry, len(times))
		for i, x := range times {
			es[i] = weblog.Entry{Timestamp: x, Subscriber: sub, Host: fmt.Sprint(i)}
		}
		return es
	}
	parts := [][]weblog.Entry{
		entries("a", 0, 1, 1, 2, 5),
		nil,
		entries("b", 1, 1, 3),
		entries("c", 0, 2, 2, 2),
		entries("d", 1, 5, 5),
	}
	if got, want := mergeStable(parts, ts), sliceStableRef(parts, ts); !reflect.DeepEqual(got, want) {
		t.Fatalf("hand-built ties:\n got %v\nwant %v", got, want)
	}

	r := rand.New(rand.NewSource(3))
	parts = make([][]weblog.Entry, 40)
	var lparts [][]SessionLabel
	for i := range parts {
		times := make([]float64, r.Intn(30))
		for j := range times {
			times[j] = float64(r.Intn(12))
		}
		parts[i] = entries(fmt.Sprint("s", i), times...)
		ls := make([]SessionLabel, r.Intn(4))
		for j := range ls {
			ls[j] = SessionLabel{Subscriber: fmt.Sprint("s", i), Start: float64(j), AvailableAt: float64(r.Intn(5))}
		}
		lparts = append(lparts, ls)
	}
	if got, want := mergeStable(parts, ts), sliceStableRef(parts, ts); !reflect.DeepEqual(got, want) {
		t.Fatal("random ties: entry order differs from sort.SliceStable's")
	}
	at := func(l *SessionLabel) float64 { return l.AvailableAt }
	if got, want := mergeStable(lparts, at), sliceStableRef(lparts, at); !reflect.DeepEqual(got, want) {
		t.Fatal("random ties: label order differs from sort.SliceStable's")
	}
	if mergeStable([][]weblog.Entry{nil, {}}, ts) != nil {
		t.Fatal("no entries should merge to nil, as appending nothing did")
	}

	l := smallLive(t)
	if !reflect.DeepEqual(l.Entries, sliceStableRef(l.PerSubscriber, ts)) {
		t.Fatal("GenerateLive's Entries differ from the stable sort of PerSubscriber")
	}
}
