package video

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"vqoe/internal/stats"
)

func TestQualityString(t *testing.T) {
	if Q480.String() != "480p" || Q1080.String() != "1080p" {
		t.Error("quality names wrong")
	}
}

func TestQualityIndex(t *testing.T) {
	if Q144.Index() != 0 || Q1080.Index() != 5 {
		t.Error("ladder index wrong")
	}
	if Quality(999).Index() != -1 {
		t.Error("unknown quality should be -1")
	}
}

func TestLadderMonotoneBitrates(t *testing.T) {
	prev := 0.0
	for _, q := range Ladder {
		r := DASHRepresentation(q)
		if r.BitrateBps <= prev {
			t.Fatalf("bitrate not increasing at %v", q)
		}
		if r.Quality != q {
			t.Fatalf("representation mismatch for %v", q)
		}
		prev = r.BitrateBps
	}
}

func TestItagRoundTrip(t *testing.T) {
	for _, q := range Ladder {
		rep := DASHRepresentation(q)
		got, ok := RepresentationByItag(rep.Itag)
		if !ok || got.Quality != q {
			t.Errorf("itag %d does not round-trip to %v", rep.Itag, q)
		}
	}
	if _, ok := RepresentationByItag(99999); ok {
		t.Error("unknown itag should not resolve")
	}
}

func TestProgressiveRepresentation(t *testing.T) {
	// 480p has no legacy format; the closest not exceeding it is 360p
	if r := ProgressiveRepresentation(Q480); r.Quality != Q360 {
		t.Errorf("progressive for 480p = %v, want 360p", r.Quality)
	}
	if r := ProgressiveRepresentation(Q720); r.Quality != Q720 || r.Itag != 22 {
		t.Errorf("progressive 720p wrong: %+v", r)
	}
	if r := ProgressiveRepresentation(Q144); r.Quality != Q144 {
		t.Errorf("progressive 144p wrong: %+v", r)
	}
}

func TestNumSegments(t *testing.T) {
	// 12 s = 2 full segments + a 2 s remainder, which is under half a
	// segment and is merged into the last one
	v := &Video{Duration: 12}
	if v.NumSegments() != 2 {
		t.Errorf("12s video has %d segments, want 2", v.NumSegments())
	}
	if (&Video{Duration: 13}).NumSegments() != 3 {
		t.Error("a ≥2.5s remainder becomes its own segment")
	}
	if (&Video{Duration: 10}).NumSegments() != 2 {
		t.Error("exact multiple wrong")
	}
	if (&Video{Duration: 0.5}).NumSegments() != 1 {
		t.Error("short video should have 1 segment")
	}
}

func TestSegmentDuration(t *testing.T) {
	v := &Video{Duration: 12}
	if v.SegmentDuration(0) != SegmentSeconds {
		t.Error("full segment duration wrong")
	}
	// the 2 s remainder merges into the final segment: 5+2 = 7 s
	if got := v.SegmentDuration(1); math.Abs(got-7) > 1e-9 {
		t.Errorf("tail segment = %v, want 7", got)
	}
	var total float64
	for i := 0; i < v.NumSegments(); i++ {
		total += v.SegmentDuration(i)
	}
	if math.Abs(total-v.Duration) > 1e-9 {
		t.Errorf("segment durations sum to %v, want %v", total, v.Duration)
	}
}

func TestSegmentSizeScalesWithQuality(t *testing.T) {
	v := &Video{Duration: 300, vbrCV: 0.2, sizeSeed: 42}
	var lo, hi float64
	for i := 0; i < 50; i++ {
		lo += float64(v.SegmentSize(Q144, i))
		hi += float64(v.SegmentSize(Q1080, i))
	}
	if hi < lo*10 {
		t.Errorf("1080p bytes (%v) should dwarf 144p (%v)", hi, lo)
	}
}

func TestSegmentSizeDeterministicPerContent(t *testing.T) {
	v := &Video{Duration: 100, vbrCV: 0.3, sizeSeed: 7}
	for i := 0; i < 20; i++ {
		if v.SegmentSize(Q360, i) != v.SegmentSize(Q360, i) {
			t.Fatal("segment size must be deterministic")
		}
	}
	v2 := &Video{Duration: 100, vbrCV: 0.3, sizeSeed: 8}
	same := true
	for i := 0; i < 20; i++ {
		if v.SegmentSize(Q360, i) != v2.SegmentSize(Q360, i) {
			same = false
		}
	}
	if same {
		t.Error("different content should have different size patterns")
	}
}

// Property: segment sizes are always positive and roughly proportional
// to the segment playback duration.
func TestSegmentSizePositiveProperty(t *testing.T) {
	f := func(seed int64, durRaw float64, idx uint8) bool {
		dur := 10 + math.Abs(math.Mod(durRaw, 1000))
		v := &Video{Duration: dur, vbrCV: 0.3, sizeSeed: seed}
		i := int(idx) % v.NumSegments()
		return v.SegmentSize(Q360, i) > 0 && v.AudioSegmentSize(i) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProgressiveSize(t *testing.T) {
	v := &Video{Duration: 100, sizeSeed: 1}
	s360 := v.ProgressiveSize(Q360)
	s720 := v.ProgressiveSize(Q720)
	if s360 <= 0 || s720 <= s360 {
		t.Errorf("progressive sizes implausible: %d vs %d", s360, s720)
	}
	// 360p at 560k video + 128k audio over 100 s ≈ 8.6 MB
	want := (560e3 + 128e3) / 8 * 100
	if math.Abs(float64(s360)-want) > want*0.01 {
		t.Errorf("progressive 360p = %d, want ~%v", s360, want)
	}
}

func TestCatalog(t *testing.T) {
	r := stats.NewRand(1)
	c := NewCatalog(500, r)
	if len(c.Videos) != 500 {
		t.Fatalf("catalog size %d", len(c.Videos))
	}
	ids := map[string]bool{}
	var durSum float64
	for _, v := range c.Videos {
		if len(v.ID) != 11 {
			t.Fatalf("bad ID %q", v.ID)
		}
		ids[v.ID] = true
		if v.Duration < 60 || v.Duration > 2400 {
			t.Fatalf("duration %v out of range", v.Duration)
		}
		durSum += v.Duration
	}
	if len(ids) < 490 {
		t.Errorf("too many ID collisions: %d unique", len(ids))
	}
	mean := durSum / 500
	if mean < 100 || mean > 300 {
		t.Errorf("mean duration %v outside ~180s ballpark", mean)
	}
}

func TestCatalogPickPopularityBias(t *testing.T) {
	r := stats.NewRand(2)
	c := NewCatalog(200, r)
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[c.Pick().ID]++
	}
	if counts[c.Videos[0].ID] <= counts[c.Videos[150].ID] {
		t.Error("popular videos should be picked more often")
	}
}

func TestCatalogTop(t *testing.T) {
	r := stats.NewRand(3)
	c := NewCatalog(50, r)
	if len(c.Top(10)) != 10 {
		t.Error("Top(10) wrong")
	}
	if len(c.Top(100)) != 50 {
		t.Error("Top beyond catalog should clamp")
	}
}

func TestNewCatalogDegenerate(t *testing.T) {
	c := NewCatalog(0, stats.NewRand(4))
	if len(c.Videos) != 1 {
		t.Error("catalog must hold at least one video")
	}
}

// TestSegmentSizeAllocs holds the per-segment size draw to a lazily
// seeded generator: seeding a full math/rand register cost 5,432 B a
// call, and the corpus generators make one call per segment rendered.
func TestSegmentSizeAllocs(t *testing.T) {
	v := &Video{Duration: 300, vbrCV: 0.2, sizeSeed: 42}
	var m0, m1 runtime.MemStats
	const calls = 1000
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		v.SegmentSize(Q480, i%60)
	}
	runtime.ReadMemStats(&m1)
	objs := float64(m1.Mallocs-m0.Mallocs) / calls
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / calls
	if objs > 2 || bytes >= 128 {
		t.Fatalf("SegmentSize allocates %.1f objects, %.0f B a call; want ≤ 2 and < 128 B", objs, bytes)
	}
}

var segmentSizeSink int

func BenchmarkSegmentSize(b *testing.B) {
	v := &Video{Duration: 300, vbrCV: 0.2, sizeSeed: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		segmentSizeSink += v.SegmentSize(Q480, i%60)
	}
}
