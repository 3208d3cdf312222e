package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/qualitymon"
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
	if cv.Total() != int64(s.Scale.Cleartext) {
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
	if encRep.Total() != int64(s.Scale.Encrypted) {
		t.Errorf("Table 10 covered %d sessions", encRep.Total())
	}
}

// TestLoadModelsEvaluatesTheFiles: Tables 8–11 over detectors saved and
// loaded back (qoereport -save-*, then -load-*) are the trained
// detectors' tables, and a suite given both files trains nothing for
// them; a file trained on another schema than its table's — swapped, or
// over a schema whose names all appear in the table's dataset — is an
// error at load, not a table.
func TestLoadModelsEvaluatesTheFiles(t *testing.T) {
	s := testSuite(t)
	stallDet, _, err := s.StallModel()
	if err != nil {
		t.Fatal(err)
	}
	repDet, _, err := s.RepModel()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	save := func(name string, save func(io.Writer) error) string {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stallPath, repPath := save("stall.model", stallDet.Save), save("rep.model", repDet.Save)
	// a stall-labelled model over the stall features that are also
	// representation features: every name it reads is in Table 10's
	// dataset, so only the schema check keeps its verdicts out of the
	// LD/SD/HD tally
	repNames := features.RepFeatureNames()
	var shared []string
	for _, n := range features.StallFeatureNames() {
		if slices.Contains(repNames, n) {
			shared = append(shared, n)
		}
	}
	sharedDS, err := core.BuildStallDataset(s.Cleartext()).SelectFeatures(shared)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := core.DefaultTrainConfig()
	tcfg.Forest.Trees, tcfg.CVFolds = 3, 2
	foreign, _, err := core.Train(sharedDS, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	foreignPath := save("foreign.model", foreign.Save)

	loaded := NewSuite(s.Scale)
	if err := loaded.LoadModels(stallPath, repPath); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		trained, load func() (*qualitymon.Tally, error)
	}{
		{"Table 8", s.Table8and9, loaded.Table8and9},
		{"Table 10", s.Table10and11, loaded.Table10and11},
	} {
		want, err := tc.trained()
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.load()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Matrix) != fmt.Sprint(want.Matrix) {
			t.Errorf("%s: loaded %v, trained %v", tc.name, got.Matrix, want.Matrix)
		}
	}
	if loaded.stallDet != nil || loaded.repDet != nil {
		t.Error("a suite with both model files loaded trained a detector for Tables 8–11")
	}

	for _, paths := range [][2]string{{repPath, ""}, {"", stallPath}, {"", foreignPath}} {
		if err := NewSuite(s.Scale).LoadModels(paths[0], paths[1]); err == nil {
			t.Errorf("LoadModels(%q, %q) accepted a model trained on another schema", paths[0], paths[1])
		}
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

// TestReportSections holds the report's assembly to its section list:
// every key selects a section; the whole report is the header, every
// section in list order, then the end marker; and -only with one key
// prints exactly that key's sections of the whole report, nothing else.
func TestReportSections(t *testing.T) {
	s := testSuite(t)
	// each section runs once; the assembly is checked over its output
	parts := make([]string, len(sections))
	memo := make([]section, len(sections))
	for i, sec := range sections {
		var buf bytes.Buffer
		if err := sec.write(&buf, s); err != nil {
			t.Fatalf("section %v: %v", sec.keys, err)
		}
		parts[i] = buf.String()
		if !strings.HasPrefix(parts[i], "## ") || !strings.HasSuffix(parts[i], "\n\n") {
			t.Errorf("section %v is not a heading through a blank line: %.60q", sec.keys, parts[i])
		}
		memo[i] = section{sec.keys, func(out io.Writer, _ *Suite) error {
			_, err := io.WriteString(out, parts[i])
			return err
		}}
	}

	var header, full bytes.Buffer
	writeHeader(&header, s.Scale)
	if err := writeReport(&full, s, memo, ""); err != nil {
		t.Fatal(err)
	}
	if want := header.String() + strings.Join(parts, "") + endOfReport + "\n"; full.String() != want {
		t.Errorf("whole report is not header + sections in order + end marker")
	}

	slices := map[string]string{}
	for i, sec := range memo {
		for _, k := range sec.keys {
			slices[k] += parts[i]
		}
	}
	for key, want := range slices {
		var buf bytes.Buffer
		if err := writeReport(&buf, s, memo, key); err != nil {
			t.Fatalf("-only %s: %v", key, err)
		}
		if buf.String() != want {
			t.Errorf("-only %s printed %d bytes, want its %d-byte slice of the report", key, buf.Len(), len(want))
		}
	}
	// every key the paper's tables and figures were printed under
	for _, key := range strings.Fields("fig1 fig2 fig3 fig4 fig5 table2 table3 table4 table5 table6 table7 table8 table9 table10 table11 switch grouping baseline generalize importance ablations") {
		if slices[key] == "" {
			t.Errorf("no section has the key %q", key)
		}
	}
	if !strings.Contains(slices["switch"], "## Figure 4 / §4.3") || !strings.Contains(slices["switch"], "## §5.6") {
		t.Error("-only switch must select both switch-detection sections")
	}
}

// TestOnly: the -only selector. An empty or blank list selects the
// whole report; otherwise a section is selected when any of its keys
// was named, spaces around a key ignored; a key no section has is an
// error that names the valid keys.
func TestOnly(t *testing.T) {
	sections := []section{{keys: []string{"table3", "table4"}}, {keys: []string{"fig4", "switch"}}, {keys: []string{"switch"}}}
	for _, list := range []string{"", " , ,"} {
		if sel, err := selectSections(sections, list); sel != nil || err != nil {
			t.Errorf("selectSections(%q) = %v, %v; want nil (the whole report)", list, sel, err)
		}
	}
	for _, tc := range []struct {
		list string
		want string // first keys of the selected sections
	}{
		{"table3", "[table3]"},
		{"table4, fig4 ,", "[table3 fig4]"},
		{"switch", "[fig4 switch]"},
		{"fig4,table3", "[table3 fig4]"},
	} {
		sel, err := selectSections(sections, tc.list)
		if err != nil {
			t.Fatalf("selectSections(%q): %v", tc.list, err)
		}
		var got []string
		for _, sec := range sel {
			got = append(got, sec.keys[0])
		}
		if fmt.Sprint(got) != tc.want {
			t.Errorf("selectSections(%q) picked sections %v, want %v", tc.list, got, tc.want)
		}
	}
	for _, list := range []string{"tabel3", "table3,table33"} {
		_, err := selectSections(sections, list)
		if err == nil || !strings.Contains(err.Error(), "valid: table3, table4, fig4, switch") {
			t.Errorf("selectSections(%q) error %v, want one naming the valid keys", list, err)
		}
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, testSuite(t), "tabel3"); err == nil || buf.Len() != 0 {
		t.Errorf("WriteReport with an unknown key: error %v after %d bytes, want an error before any output", err, buf.Len())
	}
}
