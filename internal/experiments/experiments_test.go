package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// one quick-scale suite shared by all tests in the package
var (
	suiteOnce sync.Once
	suite     *Suite
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		sc := QuickScale()
		sc.Cleartext = 1200
		sc.HAS = 600
		sc.Encrypted = 200
		suite = NewSuite(sc)
	})
	return suite
}

func TestCorporaSizes(t *testing.T) {
	s := testSuite(t)
	if s.Cleartext().Len() != s.Scale.Cleartext {
		t.Errorf("cleartext %d", s.Cleartext().Len())
	}
	if s.HAS().Len() != s.Scale.HAS {
		t.Errorf("HAS %d", s.HAS().Len())
	}
	if s.Study().Corpus.Len() != s.Scale.Encrypted {
		t.Errorf("study %d", s.Study().Corpus.Len())
	}
	if s.HAS().Adaptive().Len() != s.Scale.HAS {
		t.Error("HAS corpus must be all-adaptive")
	}
}

func TestTables2Through4(t *testing.T) {
	s := testSuite(t)
	gains, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(gains) == 0 {
		t.Fatal("Table 2 empty")
	}
	cv, err := s.Table3and4()
	if err != nil {
		t.Fatal(err)
	}
	if acc := cv.Accuracy(); acc < 0.8 {
		t.Errorf("Table 3 accuracy %.3f (paper 0.935)", acc)
	}
	if cv.Total() != s.Scale.Cleartext {
		t.Errorf("CV covered %d sessions", cv.Total())
	}
}

func TestTables5Through7(t *testing.T) {
	s := testSuite(t)
	gains, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(gains) == 0 {
		t.Fatal("Table 5 empty")
	}
	cv, err := s.Table6and7()
	if err != nil {
		t.Fatal(err)
	}
	if acc := cv.Accuracy(); acc < 0.65 {
		t.Errorf("Table 6 accuracy %.3f (paper 0.845)", acc)
	}
}

func TestTables8Through11(t *testing.T) {
	s := testSuite(t)
	enc, err := s.Table8and9()
	if err != nil {
		t.Fatal(err)
	}
	clear, err := s.Table3and4()
	if err != nil {
		t.Fatal(err)
	}
	if enc.Accuracy() < clear.Accuracy()-0.3 {
		t.Errorf("encrypted stall acc %.3f collapsed vs cleartext %.3f",
			enc.Accuracy(), clear.Accuracy())
	}
	encRep, err := s.Table10and11()
	if err != nil {
		t.Fatal(err)
	}
	if encRep.Total() != s.Scale.Encrypted {
		t.Errorf("Table 10 covered %d sessions", encRep.Total())
	}
}

func TestSwitchEvaluations(t *testing.T) {
	s := testSuite(t)
	clear := s.SwitchCleartext()
	enc := s.SwitchEncrypted()
	if clear.SteadyN == 0 || enc.SteadyN == 0 {
		t.Fatal("switch evaluations degenerate")
	}
	if clear.SteadyBelow < 0.5 || clear.VaryingAbove < 0.5 {
		t.Errorf("cleartext switch detection too weak: %+v", clear)
	}
}

func TestFigures(t *testing.T) {
	s := testSuite(t)
	pts, stalls := s.Figure1()
	if len(pts) == 0 || len(stalls) == 0 {
		t.Error("Figure 1 empty")
	}
	sc, rr := s.Figure2()
	if sc.Len() != s.Scale.Cleartext || rr.Len() != s.Scale.Cleartext {
		t.Error("Figure 2 sizes wrong")
	}
	// ~12% of sessions stall in the paper; accept a broad band
	stallFrac := 1 - sc.At(0)
	if stallFrac < 0.03 || stallFrac > 0.4 {
		t.Errorf("stall fraction %.2f implausible", stallFrac)
	}
	times, dsizes, dts := s.Figure3()
	if len(times) == 0 || len(times) != len(dsizes) || len(times) != len(dts) {
		t.Error("Figure 3 series misaligned")
	}
	steady, varying := s.Figure4()
	if steady.Len() == 0 || varying.Len() == 0 {
		t.Error("Figure 4 empty")
	}
	// varying sessions must score higher in distribution
	if varying.Quantile(0.5) <= steady.Quantile(0.5) {
		t.Error("Figure 4 distributions not separated")
	}
	s1, s2, i1, i2 := s.Figure5()
	if s1.Len() == 0 || s2.Len() == 0 || i1.Len() == 0 || i2.Len() == 0 {
		t.Error("Figure 5 empty")
	}
}

func TestGrouping(t *testing.T) {
	s := testSuite(t)
	ev := s.Grouping()
	if ev.TrueSessions == 0 {
		t.Fatal("no true sessions")
	}
	if ev.PerfectRate() < 0.8 {
		t.Errorf("grouping perfect rate %.2f — paper reports the vast majority", ev.PerfectRate())
	}
}

func TestBaselineBinary(t *testing.T) {
	s := testSuite(t)
	conf := s.BaselineBinary()
	if acc := conf.Accuracy(); acc < 0.75 {
		t.Errorf("baseline accuracy %.3f (Prometheus: 0.84)", acc)
	}
}

func TestAblations(t *testing.T) {
	s := testSuite(t)
	noChunk, err := s.AblationStallWithoutChunkFeatures()
	if err != nil {
		t.Fatal(err)
	}
	if noChunk.Variant > noChunk.Reference+0.02 {
		t.Errorf("removing chunk features should not help: %+v", noChunk)
	}
	all, err := s.AblationStallAllFeatures()
	if err != nil {
		t.Fatal(err)
	}
	if all.Variant < all.Reference-0.15 {
		t.Errorf("all-features variant collapsed: %+v", all)
	}
	prods := s.AblationSwitchProduct()
	if len(prods) != 3 {
		t.Fatalf("expected 3 product variants")
	}
	filt := s.AblationStartupFilter()
	if filt.Reference <= 0 || filt.Variant <= 0 {
		t.Errorf("startup-filter ablation degenerate: %+v", filt)
	}
	mlRes := s.AblationSwitchML()
	if mlRes.Variant <= 0 {
		t.Errorf("ML switch ablation degenerate: %+v", mlRes)
	}
}

func TestRenderers(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	gains, _ := s.Table2()
	RenderGains(&buf, "Table 2", gains)
	cv, _ := s.Table3and4()
	RenderConfusion(&buf, "Table 3/4", cv)
	ev := s.SwitchCleartext()
	RenderSwitchEval(&buf, "switch", ev.SteadyBelow, ev.VaryingAbove, ev.SteadyN, ev.VaryingN)
	steady, _ := s.Figure4()
	RenderECDF(&buf, "Figure 4", steady)
	times, dsizes, _ := s.Figure3()
	RenderSeries(&buf, "Figure 3", times, dsizes, "t", "dsize", 20)
	RenderAblation(&buf, []AblationResult{{Name: "x", Reference: 1, Variant: 0.9}})
	Banner(&buf, "section")
	out := buf.String()
	for _, want := range []string{"Table 2", "accuracy", "threshold", "quantiles", "section"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

// TestOnly: the -only selector qoetrain and qoeeval share — an empty or
// blank list selects everything, otherwise an experiment runs when any
// of its keys was named; spaces around a key are ignored.
func TestOnly(t *testing.T) {
	for _, list := range []string{"", " , ,"} {
		if sel := Only(list); !sel("table3") || !sel() {
			t.Errorf("Only(%q) does not select everything", list)
		}
	}
	sel := Only("table3, fig4 ,")
	for _, tc := range []struct {
		keys []string
		want bool
	}{
		{[]string{"table3"}, true},
		{[]string{"fig4"}, true},
		{[]string{"table2", "fig4"}, true},
		{[]string{"table2"}, false},
		{[]string{"table33"}, false},
		{nil, false},
	} {
		if got := sel(tc.keys...); got != tc.want {
			t.Errorf("Only(\"table3, fig4 ,\")(%q) = %v, want %v", tc.keys, got, tc.want)
		}
	}
}
