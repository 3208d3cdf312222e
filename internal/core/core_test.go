package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"vqoe/internal/features"
	"vqoe/internal/ml"
	"vqoe/internal/workload"
)

// shared corpora — generated once, reused across tests (training is the
// expensive part of this package's tests).
var (
	corpusOnce  sync.Once
	stallCorpus *workload.Corpus
	hasCorpus   *workload.Corpus
	encCorpus   *workload.Corpus
	stallDet    *Detector
	stallRep    *TrainReport
	repDet      *Detector
	repRep      *TrainReport
)

func testCorpora(t testing.TB) {
	t.Helper()
	corpusOnce.Do(func() {
		cfg := workload.DefaultConfig(1500)
		cfg.Seed = 2024
		stallCorpus = workload.Generate(cfg)

		hcfg := workload.DefaultConfig(900)
		hcfg.AdaptiveFraction = 1
		hcfg.Seed = 2025
		hasCorpus = workload.Generate(hcfg)

		scfg := workload.DefaultStudyConfig()
		scfg.Sessions = 250
		scfg.Seed = 2026
		encCorpus = workload.GenerateStudy(scfg).Corpus

		tcfg := DefaultTrainConfig()
		tcfg.CVFolds = 5
		tcfg.Forest.Trees = 30
		var err error
		stallDet, stallRep, err = Train(BuildStallDataset(stallCorpus), tcfg)
		if err != nil {
			panic(err)
		}
		repDet, repRep, err = Train(BuildRepDataset(hasCorpus), tcfg)
		if err != nil {
			panic(err)
		}
	})
}

func TestBuildDatasets(t *testing.T) {
	testCorpora(t)
	sds := BuildStallDataset(stallCorpus)
	if sds.Len() != stallCorpus.Len() || sds.NumFeatures() != 70 {
		t.Errorf("stall dataset %dx%d", sds.Len(), sds.NumFeatures())
	}
	rds := BuildRepDataset(hasCorpus)
	if rds.Len() != hasCorpus.Adaptive().Len() || rds.NumFeatures() != 210 {
		t.Errorf("rep dataset %dx%d", rds.Len(), rds.NumFeatures())
	}
	bds := BuildBinaryStallDataset(stallCorpus)
	if bds.NumClasses() != 2 {
		t.Error("binary dataset should have 2 classes")
	}
	var counts [2]int
	for _, y := range bds.Y {
		counts[y]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Errorf("binary classes degenerate: %v", counts)
	}
}

func TestStallTrainingSelectsChunkSizeFeatures(t *testing.T) {
	testCorpora(t)
	if len(stallRep.Selected) == 0 {
		t.Fatal("no features selected")
	}
	// §4.1: chunk-size statistics carry the most information
	hasChunkSize := false
	for _, f := range stallRep.Selected {
		if len(f.Name) >= 10 && f.Name[:10] == "chunk size" {
			hasChunkSize = true
		}
		if f.Gain < 0 {
			t.Errorf("negative gain for %s", f.Name)
		}
	}
	if !hasChunkSize {
		t.Errorf("no chunk-size feature among selected: %v", stallRep.Selected)
	}
	// gains reported in descending order
	for i := 1; i < len(stallRep.Selected); i++ {
		if stallRep.Selected[i].Gain > stallRep.Selected[i-1].Gain+1e-9 {
			t.Error("selected features not ordered by gain")
		}
	}
}

func TestStallCVAccuracyInPaperBallpark(t *testing.T) {
	testCorpora(t)
	acc := stallRep.CV.Accuracy()
	if acc < 0.80 {
		t.Errorf("stall CV accuracy %.3f below 0.80 (paper: 0.935)", acc)
	}
	// healthy sessions must be the easiest class (§4.1)
	if stallRep.CV.TPRate(0) < stallRep.CV.TPRate(2)-0.05 {
		t.Errorf("no-stall TP rate %.3f should dominate severe %.3f",
			stallRep.CV.TPRate(0), stallRep.CV.TPRate(2))
	}
}

func TestStallConfusionAdjacentClasses(t *testing.T) {
	testCorpora(t)
	rp := stallRep.CV.RowPercent()
	// errors concentrate between adjacent classes: severe misread as
	// mild more often than as healthy (Table 4's structure)
	if rp[2][0] > rp[2][1] {
		t.Errorf("severe→none (%.1f%%) exceeds severe→mild (%.1f%%)", rp[2][0], rp[2][1])
	}
}

func TestRepTrainingQuality(t *testing.T) {
	testCorpora(t)
	acc := repRep.CV.Accuracy()
	if acc < 0.70 {
		t.Errorf("rep CV accuracy %.3f below 0.70 (paper: 0.845)", acc)
	}
	if len(repRep.Selected) == 0 {
		t.Fatal("no features selected for rep model")
	}
}

func TestEncryptedEvaluationCloseToCleartext(t *testing.T) {
	testCorpora(t)
	conf, err := stallDet.Evaluate(BuildStallDataset(encCorpus))
	if err != nil {
		t.Fatal(err)
	}
	if conf.Total() != int64(encCorpus.Len()) {
		t.Errorf("evaluated %d of %d sessions", conf.Total(), encCorpus.Len())
	}
	encAcc := conf.Accuracy()
	clearAcc := stallRep.CV.Accuracy()
	// The paper loses only 1.7 points moving to encrypted traffic; on
	// the synthetic substrate the commuter-heavy adaptive study sits
	// farther from the progressive-heavy training mix, so the measured
	// drop is larger (see EXPERIMENTS.md). Guard against collapse, not
	// against the documented gap.
	if encAcc < clearAcc-0.25 {
		t.Errorf("encrypted accuracy %.3f much worse than cleartext %.3f", encAcc, clearAcc)
	}
}

// TestDetectorPredictMatchesEvaluate: Analyze's stall verdict and
// confidence for a session are what Evaluate's dataset path —
// BuildStallDataset, SelectFeatures, the forest — gives its row.
func TestDetectorPredictMatchesEvaluate(t *testing.T) {
	testCorpora(t)
	ds := BuildStallDataset(encCorpus)
	reduced, err := ds.SelectFeatures(stallDet.Selected)
	if err != nil {
		t.Fatal(err)
	}
	classes, conf := verdicts(stallDet.Forest, reduced.X[:20])
	fw := &Framework{Stall: stallDet, Rep: repDet, Switch: NewSwitchDetector()}
	for i, s := range encCorpus.Sessions[:20] {
		if r := fw.Analyze(s.Obs); int(r.Stall) != classes[i] || r.StallConf != conf[i] {
			t.Fatalf("session %d: Analyze (%v, %v), dataset path (%d, %v)", i, r.Stall, r.StallConf, classes[i], conf[i])
		}
	}
}

func TestDetectorSaveLoadRoundTrip(t *testing.T) {
	testCorpora(t)
	var buf bytes.Buffer
	if err := stallDet.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDetector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	obs := obsFrom(encCorpus.Sessions[:30])
	a, ac := verdicts(stallDet.Forest, denseRows(t, stallDet, features.StallFeatures, obs))
	b, bc := verdicts(loaded.Forest, denseRows(t, loaded, features.StallFeatures, obs))
	if !slices.Equal(a, b) || !slices.Equal(ac, bc) {
		t.Fatal("loaded detector diverges from original")
	}
}

// TestLoadFrameworkMatchesAssembled: the two files qoereport -save-stall
// and -save-rep write (Detector.Save), loaded through the path-level
// loader, give a framework whose reports over the encrypted corpus are
// bit-identical to one assembled from the in-memory detectors — and
// the loader refuses the two files in each other's slot. The live
// tools' ServingFramework loads the same pair, and refuses one file
// without the other rather than training in its place.
func TestLoadFrameworkMatchesAssembled(t *testing.T) {
	testCorpora(t)
	dir := t.TempDir()
	save := func(name string, d *Detector) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stallPath, repPath := save("stall.model", stallDet), save("rep.model", repDet)
	loaded, err := LoadFramework(stallPath, repPath)
	if err != nil {
		t.Fatal(err)
	}
	assembled := &Framework{Stall: stallDet, Rep: repDet, Switch: NewSwitchDetector()}
	all := obsFrom(encCorpus.Sessions)
	want := append([]Report(nil), assembled.AnalyzeBatchInto(all, nil, nil)...)
	got := loaded.AnalyzeBatchInto(all, nil, nil)
	for i := range want {
		if got[i] != want[i] || loaded.Analyze(all[i]) != want[i] {
			t.Fatalf("session %d: loaded %+v, assembled %+v", i, got[i], want[i])
		}
	}
	if _, err := LoadFramework(repPath, stallPath); err == nil {
		t.Error("swapped model files loaded as a framework")
	}
	if _, err := LoadFramework(stallPath, filepath.Join(dir, "absent.model")); err == nil {
		t.Error("missing model file loaded as a framework")
	}

	served, err := ServingFramework(stallPath, repPath, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := served.AnalyzeBatchInto(all, nil, nil); !slices.Equal(got, want) {
		t.Error("ServingFramework with both files differs from LoadFramework")
	}
	if trained, err := ServingFramework("", "", 200, 1); err != nil || trained.Stall == nil || trained.Rep == nil {
		t.Errorf("ServingFramework without files: %v, %v; want a trained framework", trained, err)
	}
	for _, paths := range [][2]string{{stallPath, ""}, {"", repPath}, {"/nonexistent.model", ""}} {
		if fw, err := ServingFramework(paths[0], paths[1], 100, 1); err == nil || fw != nil {
			t.Errorf("ServingFramework(%q, %q) = %v, %v; want an error, not a trained framework", paths[0], paths[1], fw, err)
		}
	}
}

// TestServingFrameworkSeedReachesForests: the live tools' -seed draws
// the forests as well as the corpora, as qoereport -seed does. Two
// trainings at seed 2 save byte-identical model files, which differ
// from seed 1's and from the files of the same seed-2 corpora trained
// with the forests at seed 1 (all the -seed flag reached before).
func TestServingFrameworkSeedReachesForests(t *testing.T) {
	const trainN = 120
	files := func(fw *Framework) string {
		var buf bytes.Buffer
		for _, d := range []*Detector{fw.Stall, fw.Rep} {
			if err := d.Save(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	served := func(seed int64) string {
		fw, err := ServingFramework("", "", trainN, seed)
		if err != nil {
			t.Fatal(err)
		}
		return files(fw)
	}
	a, b, one := served(2), served(2), served(1)
	if a != b {
		t.Fatal("two trainings at seed 2 saved different model files")
	}
	if a == one {
		t.Error("seed 2 saved seed 1's model files")
	}
	// trainServingFramework's corpora at seed 2, its forests at seed 1
	stallCfg := workload.DefaultConfig(trainN)
	stallCfg.AdaptiveFraction, stallCfg.Encrypted, stallCfg.Seed = 1, true, 2
	hasCfg := workload.DefaultConfig(trainN / 2)
	hasCfg.AdaptiveFraction, hasCfg.Encrypted, hasCfg.Seed = 1, true, 3
	tcfg := DefaultTrainConfig()
	tcfg.CVFolds, tcfg.Forest.Trees = 3, 30
	fw, _, err := TrainFramework(workload.Generate(stallCfg), workload.Generate(hasCfg), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if files(fw) == a {
		t.Error("seed 2 trained its forests at seed 1")
	}
}

// savedDetector is stallDet's model file, split after the text header.
func savedDetector(t testing.TB) (header []string, forest []byte) {
	testCorpora(t)
	var buf bytes.Buffer
	if err := stallDet.Save(&buf); err != nil {
		t.Fatal(err)
	}
	n := 1 + len(stallDet.Selected) + len(stallDet.full)
	lines := bytes.SplitAfterN(buf.Bytes(), []byte("\n"), n+1)
	for _, l := range lines[:n] {
		header = append(header, string(l))
	}
	return header, lines[n]
}

// TestLoadDetectorRejectsMalformed: every header the parent either
// sized an allocation from or accepted into a detector that panics or
// mispredicts on a shard is an error.
func TestLoadDetectorRejectsMalformed(t *testing.T) {
	header, forest := savedDetector(t)
	nSel, nFull := len(stallDet.Selected), len(stallDet.full)
	build := func(first string, names []string) []byte {
		return append([]byte(first+strings.Join(names, "")), forest...)
	}
	swapped := append([]string(nil), header[1:]...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	foreign := append([]string(nil), header[1:]...)
	for i := nSel; i < len(foreign); i++ {
		if foreign[i] == foreign[0] {
			foreign[i] = "renamed\n"
		}
	}
	cases := []struct {
		name string
		file []byte
		want string
	}{
		{"valid", build(header[0], header[1:]), ""},
		{"huge selected count", build("vqoe-detector 4000000000000 70\n", header[1:]), "header counts"},
		{"huge full count", build(fmt.Sprintf("vqoe-detector %d 1000000000\n", nSel), header[1:]), "header counts"},
		{"negative count", build(fmt.Sprintf("vqoe-detector -1 %d\n", nFull), header[1:]), "header counts"},
		{"one selected name short", build(fmt.Sprintf("vqoe-detector %d %d\n", nSel-1, nFull+1), header[1:]), "selected features"},
		{"selection in another order", build(header[0], swapped), "selected features"},
		{"selected name absent from the full schema", build(header[0], foreign), "full schema"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			det, err := LoadDetector(bytes.NewReader(tc.file))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid detector refused: %v", err)
				}
				predictZero(det)
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// predictZero classifies the zero vector of det's selection in a
// one-row batch: its class and the forest's confidence in it.
func predictZero(det *Detector) (int, float64) {
	classes, conf := verdicts(det.Forest, [][]float64{make([]float64, len(det.Selected))})
	return classes[0], conf[0]
}

// wireNode and wireForest mirror the gob wire form of a forest, the
// fields of it LoadForest reads: decoded from a saved detector's bytes,
// they are a model as the file states it, and walking them root to leaf
// is the reference PredictBatchInto must reproduce.
type wireNode struct {
	Feature     int
	Threshold   float64
	Leaf        bool
	Dist        []float64
	Left, Right *wireNode
}

type wireForest struct {
	Classes []string
	Trees   []*wireNode
}

// savedWireForest decodes the forest of det as Save writes it.
func savedWireForest(t *testing.T, det *Detector) *wireForest {
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	n := 1 + len(det.Selected) + len(det.full)
	lines := bytes.SplitAfterN(buf.Bytes(), []byte("\n"), n+1)
	var wf wireForest
	if err := gob.NewDecoder(bytes.NewReader(lines[n])).Decode(&wf); err != nil {
		t.Fatalf("saved forest does not decode: %v", err)
	}
	return &wf
}

// walkVotes walks every tree to the leaf x falls into and sums the
// leaf distributions in tree order.
func (wf *wireForest) walkVotes(x []float64) []float64 {
	votes := make([]float64, len(wf.Classes))
	for _, n := range wf.Trees {
		for !n.Leaf {
			if x[n.Feature] <= n.Threshold {
				n = n.Left
			} else {
				n = n.Right
			}
		}
		for c, p := range n.Dist {
			votes[c] += p
		}
	}
	return votes
}

// wireProbes are inputs aimed at the forest's splits: every feature at
// 0, −0, NaN, +Inf and −Inf, then every feature at one split's
// threshold and just above it, for up to 16 splits.
func (wf *wireForest) wireProbes(width int) [][]float64 {
	fill := func(v float64) []float64 {
		x := make([]float64, width)
		for j := range x {
			x[j] = v
		}
		return x
	}
	probes := [][]float64{fill(0), fill(math.Copysign(0, -1)), fill(math.NaN()), fill(math.Inf(1)), fill(math.Inf(-1))}
	var visit func(n *wireNode)
	visit = func(n *wireNode) {
		if n.Leaf || len(probes) >= 5+2*16 {
			return
		}
		probes = append(probes, fill(n.Threshold), fill(math.Nextafter(n.Threshold, math.Inf(1))))
		visit(n.Left)
		visit(n.Right)
	}
	for _, n := range wf.Trees {
		visit(n)
	}
	return probes
}

// FuzzLoadDetector: whatever the bytes, LoadDetector returns a detector
// or an error — and a detector it returns predicts without panicking,
// gives the votes and classes of a walk over the trees its file states,
// bit for bit, through PredictBatchInto (whichever kernel the forest
// selected), saves to a file that loads again and saves
// byte-identically, and predicts the same after the round trip.
func FuzzLoadDetector(f *testing.F) {
	header, forest := savedDetector(f)
	f.Add(append([]byte(strings.Join(header, "")), forest...))
	f.Add([]byte("vqoe-detector 1 1\na\na\n"))
	f.Fuzz(func(t *testing.T, file []byte) {
		det, err := LoadDetector(bytes.NewReader(file))
		if err != nil {
			return
		}
		c1, p1 := predictZero(det)
		det.Forest.PathAttribution(make([]float64, len(det.Selected)), nil)

		wf := savedWireForest(t, det)
		probes := wf.wireProbes(len(det.Selected))
		nc := len(wf.Classes)
		votes := make([]float64, len(probes)*nc)
		classes := det.Forest.PredictBatchInto(probes, votes, make([]int, len(probes)))
		for i, x := range probes {
			want := wf.walkVotes(x)
			for c := range want {
				if math.Float64bits(votes[i*nc+c]) != math.Float64bits(want[c]) {
					t.Fatalf("probe %v: votes[%d] %v, walk %v", x, c, votes[i*nc+c], want[c])
				}
			}
			if classes[i] != slices.Index(want, slices.Max(want)) {
				t.Fatalf("probe %v: class %d, walk's votes %v", x, classes[i], want)
			}
		}

		var first, second bytes.Buffer
		if err := det.Save(&first); err != nil {
			t.Fatalf("accepted detector does not save: %v", err)
		}
		again, err := LoadDetector(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved detector does not load: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatalf("reloaded detector does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("second save differs from the first")
		}
		if c2, p2 := predictZero(again); c1 != c2 || p1 != p2 {
			t.Fatalf("round trip changed the prediction: (%d, %v) then (%d, %v)", c1, p1, c2, p2)
		}
	})
}

func TestLoadDetectorBadInput(t *testing.T) {
	if _, err := LoadDetector(bytes.NewBufferString("garbage")); err == nil {
		t.Error("garbage should not load")
	}
}

func TestTrainEmptyCorpus(t *testing.T) {
	_, _, err := Train(ml.NewDataset(features.StallFeatureNames(), features.StallLabelNames), DefaultTrainConfig())
	if err == nil {
		t.Error("empty dataset must error")
	}
}

func TestSwitchDetectorSeparation(t *testing.T) {
	testCorpora(t)
	det := NewSwitchDetector()
	ev := det.EvaluateSwitch(hasCorpus)
	if ev.SteadyN == 0 || ev.VaryingN == 0 {
		t.Fatalf("degenerate corpus: %d steady, %d varying", ev.SteadyN, ev.VaryingN)
	}
	if ev.SteadyBelow < 0.6 {
		t.Errorf("steady-below %.2f too low (paper: 0.78)", ev.SteadyBelow)
	}
	if ev.VaryingAbove < 0.6 {
		t.Errorf("varying-above %.2f too low (paper: 0.76)", ev.VaryingAbove)
	}
}

func TestSwitchDetectorSameThresholdOnEncrypted(t *testing.T) {
	testCorpora(t)
	det := NewSwitchDetector()
	ev := det.EvaluateSwitch(encCorpus)
	if ev.SteadyN+ev.VaryingN != encCorpus.Len() {
		t.Error("all adaptive sessions should be scored")
	}
	if ev.SteadyBelow < 0.55 && ev.VaryingAbove < 0.55 {
		t.Errorf("encrypted switch detection collapsed: %+v", ev)
	}
}

func TestCalibrateThreshold(t *testing.T) {
	testCorpora(t)
	det := NewSwitchDetector()
	opt := det.CalibrateThreshold(hasCorpus)
	if opt <= 0 {
		t.Fatalf("calibrated threshold %v", opt)
	}
	// calibrated threshold can't be worse than the fixed one on the
	// corpus it was calibrated on
	fixed := det.EvaluateSwitch(hasCorpus)
	det.Threshold = opt
	cal := det.EvaluateSwitch(hasCorpus)
	fixedBal := (fixed.SteadyBelow + fixed.VaryingAbove) / 2
	calBal := (cal.SteadyBelow + cal.VaryingAbove) / 2
	if calBal < fixedBal-1e-9 {
		t.Errorf("calibrated balance %.3f below fixed %.3f", calBal, fixedBal)
	}
}

func TestScoreDistributions(t *testing.T) {
	testCorpora(t)
	det := NewSwitchDetector()
	steady, varying := det.ScoreDistributions(hasCorpus)
	if len(steady) == 0 || len(varying) == 0 {
		t.Fatal("distributions empty")
	}
	for _, v := range append(steady, varying...) {
		if v < 0 {
			t.Fatal("negative change score")
		}
	}
}

func TestFrameworkEndToEnd(t *testing.T) {
	testCorpora(t)
	tcfg := DefaultTrainConfig()
	tcfg.CVFolds = 3
	tcfg.Forest.Trees = 15
	fw, rep, err := TrainFramework(stallCorpus, hasCorpus, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stall.CV.Accuracy() <= 0 || rep.Rep.CV.Accuracy() <= 0 {
		t.Error("framework reports empty")
	}
	r := fw.Analyze(encCorpus.Sessions[0].Obs)
	if r.Chunks == 0 {
		t.Error("report should carry chunk count")
	}
	if r.String() == "" {
		t.Error("report should render")
	}
}

func TestBaselineBinaryClassifier(t *testing.T) {
	testCorpora(t)
	ds := BuildBinaryStallDataset(stallCorpus)
	conf := ml.CrossValidate(ds, 5, ml.ForestConfig{Trees: 30, Seed: 3}, 4)
	if acc := conf.Accuracy(); acc < 0.75 {
		t.Errorf("binary baseline accuracy %.3f too low (Prometheus: 0.84)", acc)
	}
}

func TestRepDetectorEvaluateEncrypted(t *testing.T) {
	testCorpora(t)
	conf, err := repDet.Evaluate(BuildRepDataset(encCorpus))
	if err != nil {
		t.Fatal(err)
	}
	if conf.Total() != int64(encCorpus.Adaptive().Len()) {
		t.Errorf("evaluated %d sessions, want %d", conf.Total(), encCorpus.Adaptive().Len())
	}
	if acc := conf.Accuracy(); acc < 0.5 {
		t.Errorf("encrypted representation accuracy %.3f collapsed", acc)
	}
}

func TestEvaluateUnknownSchema(t *testing.T) {
	testCorpora(t)
	// a dataset missing the selected features must error, not panic
	bad := ml.NewDataset([]string{"nope"}, features.StallLabelNames)
	bad.Add([]float64{1}, 0)
	if _, err := stallDet.Evaluate(bad); err == nil {
		t.Error("schema mismatch should error")
	}
}

// failingWriter errors after n bytes, exercising Save's error paths.
type failingWriter struct{ left int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errWrite
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, errWrite
	}
	return n, nil
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestDetectorSaveWriteErrors(t *testing.T) {
	testCorpora(t)
	for _, budget := range []int{0, 10, 40, 200} {
		if err := stallDet.Save(&failingWriter{left: budget}); err == nil {
			t.Errorf("Save with %d-byte budget should fail", budget)
		}
	}
}

// TestPredictBatchMatchesSingle locks the batched close path to the
// dense dataset path: for every corpus session, AnalyzeBatchInto (one
// two-model sparse featurization, scratch buffers) must give exactly
// the class and confidence each forest gives the session's dense row
// (full-width featurize, SelectFeatures).
func TestPredictBatchMatchesSingle(t *testing.T) {
	testCorpora(t)
	fw := &Framework{Stall: stallDet, Rep: repDet, Switch: NewSwitchDetector()}
	obs := obsFrom(encCorpus.Sessions)
	batch := fw.AnalyzeBatchInto(obs, nil, nil)
	stalls, stallConf := verdicts(stallDet.Forest, denseRows(t, stallDet, features.StallFeatures, obs))
	reps, repConf := verdicts(repDet.Forest, denseRows(t, repDet, features.RepFeatures, obs))
	for i, r := range batch {
		if int(r.Stall) != stalls[i] || r.StallConf != stallConf[i] {
			t.Fatalf("stall session %d: batch (%v, %v) != dense (%d, %v)", i, r.Stall, r.StallConf, stalls[i], stallConf[i])
		}
		if int(r.Representation) != reps[i] || r.RepConf != repConf[i] {
			t.Fatalf("rep session %d: batch (%v, %v) != dense (%d, %v)", i, r.Representation, r.RepConf, reps[i], repConf[i])
		}
	}
}

// TestProjectedVectorsMatchDense: the vectors the close path hands to
// the quality monitor and to flight attribution — the rows the
// two-model evaluator filled, read back through ProjectedCopies — must
// be, bit for bit, the dense feature vector projected onto each
// detector's selection, across batches that reuse one scratch.
func TestProjectedVectorsMatchDense(t *testing.T) {
	testCorpora(t)
	fw := &Framework{Stall: stallDet, Rep: repDet, Switch: NewSwitchDetector()}
	obs := obsFrom(encCorpus.Sessions)
	stallRows := denseRows(t, stallDet, features.StallFeatures, obs)
	repRows := denseRows(t, repDet, features.RepFeatures, obs)
	var sc AnalyzeScratch
	for lo := 0; lo < len(obs); lo += 32 {
		batch := obs[lo:min(lo+32, len(obs))]
		fw.AnalyzeBatchInto(batch, nil, &sc)
		for i := range batch {
			stall, rep := fw.ProjectedCopies(&sc, i)
			for _, m := range []struct {
				name      string
				got, want []float64
			}{
				{"stall", stall, stallRows[lo+i]},
				{"rep", rep, repRows[lo+i]},
			} {
				if len(m.got) != len(m.want) {
					t.Fatalf("session %d %s: %d projected features, dense has %d", lo+i, m.name, len(m.got), len(m.want))
				}
				for k := range m.want {
					if math.Float64bits(m.got[k]) != math.Float64bits(m.want[k]) {
						t.Fatalf("session %d %s feature %d: sparse %v != dense %v", lo+i, m.name, k, m.got[k], m.want[k])
					}
				}
			}
		}
	}
}

// TestScoreIntoReuseMatchesScore drives one shared ScoreScratch
// through the HAS corpus — interleaving empty and single-chunk
// sessions — and checks every switch score is bit-identical to the
// allocating Score path, the invariant the engine shard's batch
// analysis relies on.
func TestScoreIntoReuseMatchesScore(t *testing.T) {
	testCorpora(t)
	d := NewSwitchDetector()
	var sc ScoreScratch
	for si, s := range hasCorpus.Adaptive().Sessions {
		if si >= 40 {
			break
		}
		for _, o := range []features.SessionObs{s.Obs, {}, {Chunks: s.Obs.Chunks[:1]}} {
			if got, want := d.ScoreInto(o, &sc), d.Score(o); got != want {
				t.Fatalf("session %d (%d chunks): ScoreInto %v != Score %v",
					si, len(o.Chunks), got, want)
			}
		}
	}
}
