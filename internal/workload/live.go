package workload

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"

	"vqoe/internal/features"
	"vqoe/internal/netsim"
	"vqoe/internal/player"
	"vqoe/internal/stats"
	"vqoe/internal/video"
	"vqoe/internal/weblog"
)

// LiveConfig parameterizes the concurrent load-generator workload: a
// population of subscribers streaming simultaneously, each producing a
// sequence of encrypted video sessions separated by think-time gaps.
// This is the traffic shape a deployed monitor sees — many interleaved
// per-subscriber event streams — rather than the one-subscriber replay
// of the §5 study.
type LiveConfig struct {
	// Subscribers is the concurrent population size.
	Subscribers int
	// SessionsPerSubscriber is how many videos each subscriber watches.
	SessionsPerSubscriber int
	// CatalogSize bounds the shared content pool.
	CatalogSize int
	// Seed fixes the workload.
	Seed int64

	// LabelRate is the fraction of sessions (0..1) for which delayed
	// ground-truth labels are emitted — the instrumented-device
	// side-channel a monitor uses to measure online accuracy. Label
	// draws come from a dedicated RNG stream, so changing the rate
	// never perturbs the entry stream for a given seed.
	LabelRate float64
	// LabelDelayMeanSec is the mean extra delay (exponential) before a
	// session's label becomes available, past a fixed 45 s floor.
	// Zero means the 120 s default.
	LabelDelayMeanSec float64

	// ProfileWeights biases the bandwidth-profile mix (good, medium,
	// poor network paths). The zero value keeps the historical
	// {0.6, 0.3, 0.1} mix; skewing toward the last entry shifts the
	// population onto degraded paths — the drift knob the quality
	// monitor is meant to catch.
	ProfileWeights [3]float64
	// QualityCapWeights biases the per-session MaxQuality cap over the
	// six-rung ladder. The zero value keeps the historical
	// {0.05, 0.2, 0.3, 0.32, 0.09, 0.04} mix.
	QualityCapWeights [6]float64

	// RegionWeights and DeviceWeights bias the per-subscriber cohort
	// assignment over Regions and Devices (zero value = defaults).
	// Cohort draws come from a dedicated RNG stream, so changing these
	// weights never perturbs the traffic content of the entry stream
	// for a given seed — only the metadata stamped onto it.
	RegionWeights []float64
	DeviceWeights []float64
	// HotspotRegion, when set, degrades that region's network-path mix:
	// its subscribers draw bandwidth profiles skewed onto poor paths
	// with probability HotspotSeverity (default 0.8). This is the
	// "which cell is hurting?" demo scenario — one cohort's MOS
	// quantiles collapse while the rest of the fleet stays healthy.
	HotspotRegion string
	// HotspotSeverity is the poor-path probability inside the hotspot
	// region, in (0, 1]. Zero means 0.8.
	HotspotSeverity float64
}

// Regions is the serving-region vocabulary of the generated
// subscriber-metadata join, with DefaultRegionWeights as its mix.
var Regions = []string{"us-east", "us-west", "eu-west", "eu-central", "apac"}

// DefaultRegionWeights is the region mix when LiveConfig leaves
// RegionWeights nil.
var DefaultRegionWeights = []float64{0.3, 0.2, 0.25, 0.15, 0.1}

// Devices is the device-class vocabulary of the metadata join, with
// DefaultDeviceWeights as its mix.
var Devices = []string{"tv", "desktop", "mobile", "tablet"}

// DefaultDeviceWeights is the device mix when LiveConfig leaves
// DeviceWeights nil.
var DefaultDeviceWeights = []float64{0.2, 0.3, 0.35, 0.15}

// CapBucket folds a session's quality cap into the coarse plan tier
// used as the third cohort dimension.
func CapBucket(q video.Quality) string {
	switch {
	case q >= video.Q720:
		return "hd"
	case q >= video.Q360:
		return "sd"
	default:
		return "ld"
	}
}

// DefaultLiveConfig returns a small but genuinely concurrent
// population; scale Subscribers up for load tests.
func DefaultLiveConfig() LiveConfig {
	return LiveConfig{
		Subscribers:           64,
		SessionsPerSubscriber: 3,
		CatalogSize:           200,
		Seed:                  1,
	}
}

// A live subscriber arrives at a uniform offset within
// liveStartSpreadSec, so the population does not start in lockstep,
// and thinks for an exponential liveMeanGapSec (plus 20 s) between
// consecutive sessions.
const (
	liveStartSpreadSec = 300
	liveMeanGapSec     = 120
)

// SessionLabel is the delayed ground truth for one generated session:
// what an instrumented client (or subscriber panel) would report some
// time after the session ended. Start/End bound the session's entries
// on the capture clock so a monitor can match the label to the
// prediction it made for the same traffic.
type SessionLabel struct {
	Subscriber string
	Start      float64
	End        float64
	// AvailableAt is the capture-clock time the label arrives — always
	// after End, modelling collection and upload latency.
	AvailableAt float64
	Stall       features.StallLabel
	Rep         features.RepLabel
}

// Live is a generated multi-subscriber event stream.
type Live struct {
	// Entries is the full population's weblog, globally time-ordered —
	// what a single capture point would emit.
	Entries []weblog.Entry
	// PerSubscriber holds each subscriber's own time-ordered stream.
	PerSubscriber [][]weblog.Entry
	// Labels holds the delayed ground-truth side-channel (empty unless
	// LabelRate > 0), ordered by AvailableAt.
	Labels []SessionLabel
	// Sessions is the number of true sessions generated.
	Sessions int

	// partCache memoizes Partition results per n. The stream is
	// immutable once generated, so repeated Feed calls (benchmark
	// iterations, replayed load tests) reuse the same split instead of
	// re-hashing every entry and re-growing the partition slices each
	// time — which would otherwise dominate what the driven ingest
	// path costs.
	partMu    sync.Mutex
	partCache map[int][][]weblog.Entry
}

// GenerateLive builds the concurrent workload. Subscribers are
// generated in parallel but the result is deterministic for a seed.
func GenerateLive(cfg LiveConfig) *Live {
	if cfg.Subscribers <= 0 {
		return &Live{}
	}
	if cfg.SessionsPerSubscriber <= 0 {
		cfg.SessionsPerSubscriber = 1
	}
	if cfg.CatalogSize <= 0 {
		cfg.CatalogSize = 200
	}
	master := stats.NewRand(cfg.Seed)
	catalog := video.NewCatalog(cfg.CatalogSize, master)
	seeds := make([]int64, cfg.Subscribers)
	for i := range seeds {
		seeds[i] = master.Int63()
	}

	l := &Live{PerSubscriber: make([][]weblog.Entry, cfg.Subscribers)}
	labels := make([][]SessionLabel, cfg.Subscribers)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				l.PerSubscriber[i], labels[i] = liveSubscriber(cfg, catalog, seeds[i], i)
			}
		}()
	}
	for i := 0; i < cfg.Subscribers; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	l.Sessions = cfg.Subscribers * cfg.SessionsPerSubscriber
	l.Entries = mergeStable(l.PerSubscriber, func(e *weblog.Entry) float64 { return e.Timestamp })
	l.Labels = mergeStable(labels, func(x *SessionLabel) float64 { return x.AvailableAt })
	return l
}

// mergeStable concatenates parts in order and sorts the result stably
// by key: the order sort.SliceStable leaves. It sorts an index
// permutation by (key, index) and gathers once, rather than moving the
// values themselves through a stable sort's swaps and rotations.
func mergeStable[T any](parts [][]T, key func(*T) float64) []T {
	var at []*T
	for _, p := range parts {
		for i := range p {
			at = append(at, &p[i])
		}
	}
	if len(at) == 0 {
		return nil
	}
	keys := make([]float64, len(at))
	perm := make([]int32, len(at))
	for i, x := range at {
		keys[i], perm[i] = key(x), int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		switch {
		case keys[a] < keys[b]:
			return -1
		case keys[b] < keys[a]:
			return 1
		}
		return int(a - b)
	})
	out := make([]T, len(at))
	for i, p := range perm {
		out[i] = *at[p]
	}
	return out
}

// labelSeedSalt derives the label RNG stream from the subscriber seed.
// Labels use their own stream so that turning the side-channel on (or
// changing its rate) leaves the entry stream byte-identical for a seed.
const labelSeedSalt = 0x6c61626c // "labl"

// cohortSeedSalt derives the cohort-assignment RNG stream from the
// subscriber seed, isolating metadata draws from traffic draws the
// same way labelSeedSalt does: reweighting cohorts leaves the entry
// stream's traffic content byte-identical for a seed.
const cohortSeedSalt = 0x636f686f // "coho"

// liveSubscriber renders one subscriber's session sequence plus its
// delayed ground-truth labels (empty unless cfg.LabelRate > 0).
func liveSubscriber(cfg LiveConfig, catalog *video.Catalog, seed int64, idx int) ([]weblog.Entry, []SessionLabel) {
	r := stats.NewRand(seed)
	rl := stats.NewRand(seed ^ labelSeedSalt)
	rc := stats.NewRand(seed ^ cohortSeedSalt)
	regionW := cfg.RegionWeights
	if len(regionW) != len(Regions) {
		regionW = DefaultRegionWeights
	}
	deviceW := cfg.DeviceWeights
	if len(deviceW) != len(Devices) {
		deviceW = DefaultDeviceWeights
	}
	region := Regions[rc.WeightedChoice(regionW)]
	device := Devices[rc.WeightedChoice(deviceW)]
	profW := cfg.ProfileWeights[:]
	if cfg.ProfileWeights == ([3]float64{}) {
		profW = []float64{0.6, 0.3, 0.1}
	}
	if region == cfg.HotspotRegion && cfg.HotspotRegion != "" {
		sev := cfg.HotspotSeverity
		if sev <= 0 || sev > 1 {
			sev = 0.8
		}
		// WeightedChoice consumes exactly one draw whatever the weights,
		// so degrading the hotspot's path mix keeps every other
		// subscriber's stream untouched.
		profW = []float64{(1 - sev) * 0.6, (1 - sev) * 0.4, sev}
	}
	capW := cfg.QualityCapWeights[:]
	if cfg.QualityCapWeights == ([6]float64{}) {
		capW = []float64{0.05, 0.2, 0.3, 0.32, 0.09, 0.04}
	}
	delayMean := cfg.LabelDelayMeanSec
	if delayMean <= 0 {
		delayMean = 120
	}
	sub := fmt.Sprintf("live%05d", idx)
	offset := r.Float64() * liveStartSpreadSec
	var out []weblog.Entry
	var labels []SessionLabel
	for k := 0; k < cfg.SessionsPerSubscriber; k++ {
		v := catalog.Videos[r.Intn(len(catalog.Videos))]
		_, prof := profileByIndex(r.WeightedChoice(profW))
		net := netsim.NewPath(prof, r.Fork())
		pcfg := player.DefaultConfig(player.Adaptive)
		pcfg.MaxQuality = video.Ladder[r.WeightedChoice(capW)]
		if r.Float64() < 0.25 {
			pcfg.WatchFraction = 0.3 + 0.7*r.Float64()
		}
		tr := player.Run(v, net, pcfg, r.Fork())
		pre := len(out)
		out = append(out, weblog.FromTrace(tr, weblog.Options{
			Subscriber: sub,
			Encrypted:  true,
			TimeOffset: offset,
			Region:     region,
			Device:     device,
			Cap:        CapBucket(pcfg.MaxQuality),
		})...)
		if labeled := rl.Float64() < cfg.LabelRate; labeled && len(out) > pre {
			seg := out[pre:]
			labels = append(labels, SessionLabel{
				Subscriber:  sub,
				Start:       seg[0].Timestamp,
				End:         seg[len(seg)-1].Timestamp,
				AvailableAt: seg[len(seg)-1].Timestamp + 45 + rl.Exp(delayMean),
				Stall:       features.LabelStall(tr.RebufferingRatio()),
				Rep:         features.LabelRepresentation(tr.AverageQuality()),
			})
		}
		offset += tr.Duration + r.Exp(liveMeanGapSec) + 20
	}
	return out, labels
}

// Partition splits the global stream into n time-ordered sub-streams
// by subscriber hash. Each partition preserves both global time order
// and per-subscriber entry order, so n concurrent feeders can drive an
// ingest path without reordering any subscriber's events.
func (l *Live) Partition(n int) [][]weblog.Entry {
	if n <= 1 {
		return [][]weblog.Entry{l.Entries}
	}
	l.partMu.Lock()
	defer l.partMu.Unlock()
	if parts, ok := l.partCache[n]; ok {
		return parts
	}
	// One counting pass sizes each partition exactly, so the split
	// costs one hash per entry and n right-sized allocations.
	counts := make([]int, n)
	idx := make([]uint32, len(l.Entries))
	for i := range l.Entries {
		h := fnv.New32a()
		h.Write([]byte(l.Entries[i].Subscriber))
		p := h.Sum32() % uint32(n)
		idx[i] = p
		counts[p]++
	}
	out := make([][]weblog.Entry, n)
	for p, c := range counts {
		out[p] = make([]weblog.Entry, 0, c)
	}
	for i := range l.Entries {
		out[idx[i]] = append(out[idx[i]], l.Entries[i])
	}
	if l.partCache == nil {
		l.partCache = make(map[int][][]weblog.Entry)
	}
	l.partCache[n] = out
	return out
}
