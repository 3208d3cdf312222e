package features

import (
	"sort"

	"vqoe/internal/stats"
	"vqoe/internal/timeseries"
)

// metricID names one per-chunk series across both schemas: the nine
// base metrics are shared by the stall and representation sets, chunk
// time completes the stall set, the five constructed series the
// representation set. It is what the sparse evaluator groups selected
// columns by, so a metric both models selected is extracted once.
type metricID uint8

const (
	mRTTMin metricID = iota
	mRTTAvg
	mRTTMax
	mBDP
	mBIFAvg
	mBIFMax
	mLoss
	mRetrans
	mSize
	mTime
	mAvgSize
	mDeltaSize
	mDeltaTime
	mThroughput
	mCusumThroughput
)

// fields is what seriesInto reads off a chunk for the metric beyond
// CoreFields: the eight transport metrics lead both the metricID list
// and, after the three core fields, ChunkObs, in the same order; size,
// time and the constructed series read core fields only.
func (m metricID) fields() FieldSet {
	if m <= mRetrans {
		return FieldRTTMin << m
	}
	return 0
}

// A metric is one named per-chunk series of a schema; seriesInto
// extracts it by id.
type metric struct {
	id   metricID
	name string
}

// SeriesScratch carries the reusable series buffers one sparse
// evaluation threads through metric extraction: a holds the primary
// per-chunk series, b the derived one (the CUSUM chart over
// throughput). Buffers grow to the largest session seen and are then
// reused; a scratch is single-goroutine.
type SeriesScratch struct {
	a, b []float64
}

// primary resizes and returns the scratch's primary series buffer.
func (sc *SeriesScratch) primary(n int) []float64 {
	if cap(sc.a) < n {
		sc.a = make([]float64, n)
	}
	sc.a = sc.a[:n]
	return sc.a
}

// seriesInto writes metric id's per-chunk series through sc, read field
// by field off &cs[i] without a per-element call. It is the only code
// that reads a metric's series off a session: training, /analyze, the
// tools and the engine all featurize through these loops, and their
// float order is pinned bit for bit against the allocating builder they
// replaced (dense_test.go). The result aliases sc and is nil for a
// series with no values.
func seriesInto(id metricID, cs []ChunkObs, sc *SeriesScratch) []float64 {
	switch id {
	case mDeltaSize, mDeltaTime:
		if len(cs) < 2 {
			return nil
		}
		out := sc.primary(len(cs) - 1)
		if id == mDeltaSize {
			for i := range out {
				out[i] = cs[i+1].SizeKB - cs[i].SizeKB
			}
		} else {
			for i := range out {
				out[i] = cs[i+1].Time - cs[i].Time
			}
		}
		return out
	}
	if len(cs) == 0 {
		return nil
	}
	out := sc.primary(len(cs))
	switch id {
	case mRTTMin:
		for i := range cs {
			out[i] = cs[i].RTTMin
		}
	case mRTTAvg:
		for i := range cs {
			out[i] = cs[i].RTTAvg
		}
	case mRTTMax:
		for i := range cs {
			out[i] = cs[i].RTTMax
		}
	case mBDP:
		for i := range cs {
			out[i] = cs[i].BDP
		}
	case mBIFAvg:
		for i := range cs {
			out[i] = cs[i].BIFAvg
		}
	case mBIFMax:
		for i := range cs {
			out[i] = cs[i].BIFMax
		}
	case mLoss:
		for i := range cs {
			out[i] = cs[i].LossPct
		}
	case mRetrans:
		for i := range cs {
			out[i] = cs[i].RetransPct
		}
	case mSize:
		for i := range cs {
			out[i] = cs[i].SizeKB
		}
	case mTime:
		for i := range cs {
			out[i] = cs[i].Time
		}
	case mAvgSize:
		var sum float64
		for i := range cs {
			sum += cs[i].SizeKB
			out[i] = sum / float64(i+1)
		}
	case mThroughput, mCusumThroughput:
		for i := range cs {
			out[i] = cs[i].ThroughputKBps()
		}
		if id == mCusumThroughput {
			sc.b = timeseries.ChartInto(out, sc.b)
			return sc.b
		}
	}
	return out
}

// baseMetrics are the nine Table-1 network features both sets share,
// one series per chunk.
var baseMetrics = []metric{
	{mRTTMin, "RTT minimum"},
	{mRTTAvg, "RTT average"},
	{mRTTMax, "RTT maximum"},
	{mBDP, "BDP"},
	{mBIFAvg, "BIF avg"},
	{mBIFMax, "BIF maximum"},
	{mLoss, "packet loss"},
	{mRetrans, "packet retransmissions"},
	{mSize, "chunk size"},
}

// chunkTimeMetric completes the stall set's ten metrics.
var chunkTimeMetric = metric{mTime, "chunk time"}

// constructedMetrics are the five engineered series of §4.2: the
// running chunk average size, the chunk size delta, the inter-arrival
// delta, the per-chunk throughput, and its CUSUM chart.
var constructedMetrics = []metric{
	{mAvgSize, "chunk avg size"},
	{mDeltaSize, "chunk Δsize"},
	{mDeltaTime, "chunk Δt"},
	{mThroughput, "throughput"},
	{mCusumThroughput, "cusum throughput"},
}

// statKind says which part of a Summary a statistic reads, and so how
// much work it asks of the sparse evaluator: min and max need one scan,
// a percentile the sorted series, mean the ascending sum on top of
// that, std the squared pass on top of the mean.
type statKind uint8

const (
	statMin statKind = iota
	statMean
	statMax
	statStd
	statPct
)

// A stat is one named summary statistic of a series; p is the
// percentile of a statPct.
type stat struct {
	name string
	kind statKind
	p    float64
}

// of reads the statistic off a summary.
func (st stat) of(s stats.Summary) float64 {
	switch st.kind {
	case statMin:
		return s.Min
	case statMean:
		return s.Mean
	case statMax:
		return s.Max
	case statStd:
		return s.Std
	}
	return s.Percentile(st.p)
}

// stallStats are the seven summary statistics of §4.1.
var stallStats = []stat{
	{"min", statMin, 0},
	{"mean", statMean, 0},
	{"max", statMax, 0},
	{"std", statStd, 0},
	{"25%", statPct, 25},
	{"50%", statPct, 50},
	{"75%", statPct, 75},
}

// repStats are the fifteen summary statistics of §4.2.
var repStats = []stat{
	{"min", statMin, 0},
	{"mean", statMean, 0},
	{"max", statMax, 0},
	{"std", statStd, 0},
	{"5%", statPct, 5},
	{"10%", statPct, 10},
	{"15%", statPct, 15},
	{"20%", statPct, 20},
	{"25%", statPct, 25},
	{"50%", statPct, 50},
	{"75%", statPct, 75},
	{"80%", statPct, 80},
	{"85%", statPct, 85},
	{"90%", statPct, 90},
	{"95%", statPct, 95},
}

func stallMetrics() []metric {
	ms := append([]metric(nil), baseMetrics...)
	return append(ms, chunkTimeMetric)
}

func repMetrics() []metric {
	ms := append([]metric(nil), baseMetrics...)
	return append(ms, constructedMetrics...)
}

func buildNames(ms []metric, ss []stat) []string {
	names := make([]string, 0, len(ms)*len(ss))
	for _, m := range ms {
		for _, st := range ss {
			names = append(names, m.name+" "+st.name)
		}
	}
	return names
}

// Sparse is the one evaluator of the feature schemas: a selection of
// columns — the handful a CFS-projected forest reads on the live close
// path, or every column of a schema for training and the one-session
// tools (stallFull, repFull) — compiled into a plan that extracts each
// metric the selection touches once, whichever model asked, and does
// per metric only the work the selected statistics of it need (see
// statKind), writing straight into the caller's layout. Column j of a
// full schema decomposes as metric j/len(stats), statistic j%len(stats)
// (the schemas are metric-major; see buildNames). A Sparse is read-only
// once built — eval writes only to the caller's dst and scratch — so
// one may be shared by any number of goroutines.
type Sparse struct {
	groups []sparseGroup
	zeros  []sparseSlot // slots whose column is absent (-1)
	fields FieldSet     // what the groups' metrics read, CoreFields included
}

// Fields reports which ChunkObs fields evaluation reads — every
// selected metric's, plus CoreFields. A session whose other fields were
// never stored evaluates to the same vectors.
func (sp *Sparse) Fields() FieldSet { return sp.fields }

// sparseSlot addresses position i of output vector out: an evaluator
// built for both models has two outputs (stall, representation), a
// one-model evaluator one.
type sparseSlot struct {
	out, i int
}

// sparseGroup is one metric worth extracting, the statistics of it the
// selections want, and the passes those statistics need.
type sparseGroup struct {
	metric            metricID
	sorted, mean, std bool
	emits             []sparseEmit
}

// sparseEmit writes one statistic of the group's summary to its slot.
type sparseEmit struct {
	st   stat
	slot sparseSlot
}

// NewSparse builds the two-model evaluator the engine's close path
// runs: stallCols[i] is the stall-schema column whose value lands in
// stallDst[i] of EvalBoth, repCols[i] the representation-schema column
// for repDst[i] (-1 zeroes the slot).
func NewSparse(stallCols, repCols []int) *Sparse {
	return newSparse(
		sparseOut{stallMetrics(), stallStats, stallCols},
		sparseOut{repMetrics(), repStats, repCols})
}

// NewStallSparse builds a one-model evaluator over the stall schema:
// cols[i] is the full-schema column whose value lands in dst[i] of
// EvalIntoScratch (-1 zeroes the slot).
func NewStallSparse(cols []int) *Sparse {
	return newSparse(sparseOut{stallMetrics(), stallStats, cols})
}

// NewRepSparse is NewStallSparse over the representation schema.
func NewRepSparse(cols []int) *Sparse {
	return newSparse(sparseOut{repMetrics(), repStats, cols})
}

// sparseOut is one output vector's selection: cols index the schema
// ms × ss.
type sparseOut struct {
	ms   []metric
	ss   []stat
	cols []int
}

func newSparse(outs ...sparseOut) *Sparse {
	sp := &Sparse{fields: CoreFields}
	byMetric := make(map[metricID]int)
	for o, out := range outs {
		for i, j := range out.cols {
			slot := sparseSlot{o, i}
			if j < 0 || j >= len(out.ms)*len(out.ss) {
				sp.zeros = append(sp.zeros, slot)
				continue
			}
			m, st := out.ms[j/len(out.ss)].id, out.ss[j%len(out.ss)]
			gi, ok := byMetric[m]
			if !ok {
				gi = len(sp.groups)
				byMetric[m] = gi
				sp.groups = append(sp.groups, sparseGroup{metric: m})
				sp.fields |= m.fields()
			}
			g := &sp.groups[gi]
			g.emits = append(g.emits, sparseEmit{st, slot})
			switch st.kind { // each pass builds on the one below it
			case statStd:
				g.std = true
				fallthrough
			case statMean:
				g.mean = true
				fallthrough
			case statPct:
				g.sorted = true
			}
		}
	}
	return sp
}

// EvalIntoScratch writes the selected features of obs into dst, which
// must have the length of the cols a one-model evaluator was built
// with. Values are the same columns of the full-width evaluation
// (StallFeatures, RepFeatures — itself pinned against the test oracle)
// bit for bit, except that a min or max over mixed-sign zeros may read
// the other zero where no selected statistic asked for the sort. Each
// metric's series is written through the caller-owned sc instead of
// freshly allocated, so a long-lived caller featurizes with zero
// steady-state allocations.
func (sp *Sparse) EvalIntoScratch(obs SessionObs, dst []float64, sc *SeriesScratch) {
	sp.eval(obs, [2][]float64{dst}, sc)
}

// EvalBoth is EvalIntoScratch for the two-model evaluator of
// NewSparse: one pass over obs fills the stall and the representation
// projected vectors.
func (sp *Sparse) EvalBoth(obs SessionObs, stallDst, repDst []float64, sc *SeriesScratch) {
	sp.eval(obs, [2][]float64{stallDst, repDst}, sc)
}

func (sp *Sparse) eval(obs SessionObs, dst [2][]float64, sc *SeriesScratch) {
	for gi := range sp.groups {
		g := &sp.groups[gi]
		xs := seriesInto(g.metric, obs.Chunks, sc)
		var sum stats.Summary
		if len(xs) > 0 && !g.sorted {
			sum.N = len(xs)
			sum.Min, sum.Max = stats.Extremes(xs)
		} else if len(xs) > 0 {
			// chunk time arrives ordered (finishChunks), and so does any
			// series that happens to be monotone: skip the sort then
			if !sort.Float64sAreSorted(xs) {
				sort.Float64s(xs)
			}
			sum = stats.SummarizeSorted(xs, g.mean, g.std)
		}
		for _, e := range g.emits {
			v := 0.0
			if sum.N > 0 {
				v = e.st.of(sum)
			}
			dst[e.slot.out][e.slot.i] = v
		}
	}
	for _, z := range sp.zeros {
		dst[z.out][z.i] = 0
	}
}

// fullWidth builds the evaluator of a whole schema — the identity
// selection, column j into slot j — and reports the schema's width.
func fullWidth(ms []metric, ss []stat) (*Sparse, int) {
	cols := make([]int, len(ms)*len(ss))
	for j := range cols {
		cols[j] = j
	}
	return newSparse(sparseOut{ms, ss, cols}), len(cols)
}

// stallFull and repFull are the full-width evaluators behind
// StallFeatures and RepFeatures, built once and shared (a Sparse is
// immutable).
var (
	stallFull, stallWidth = fullWidth(stallMetrics(), stallStats)
	repFull, repWidth     = fullWidth(repMetrics(), repStats)
)

// evalFull evaluates a full-width Sparse into a fresh vector through a
// fresh scratch: the allocating form training and the one-session tools
// use.
func evalFull(sp *Sparse, width int, obs SessionObs) []float64 {
	out := make([]float64, width)
	sp.EvalIntoScratch(obs, out, new(SeriesScratch))
	return out
}

// StallFeatureNames returns the 70 feature names of the stall set
// (10 metrics × 7 statistics).
func StallFeatureNames() []string { return buildNames(stallMetrics(), stallStats) }

// StallFeatures computes the stall feature vector of a session.
func StallFeatures(obs SessionObs) []float64 { return evalFull(stallFull, stallWidth, obs) }

// RepFeatureNames returns the 210 feature names of the representation
// set (14 metrics × 15 statistics).
func RepFeatureNames() []string { return buildNames(repMetrics(), repStats) }

// RepFeatures computes the representation feature vector of a session.
func RepFeatures(obs SessionObs) []float64 { return evalFull(repFull, repWidth, obs) }
