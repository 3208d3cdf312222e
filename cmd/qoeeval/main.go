// Command qoeeval reproduces the paper's encrypted-traffic evaluation
// (§5): the dataset comparison of Figure 5, the encrypted stall and
// representation results (Tables 8–11), the fixed-threshold switch
// detection (§5.6), and the session-grouping accuracy (§5.2).
//
// The detectors are trained on a freshly generated cleartext corpus
// (or loaded from files written by qoetrain) and then applied to the
// encrypted study unchanged — the deployment the paper proposes.
//
// Usage:
//
//	qoeeval [-sessions 722] [-n 12000] [-has 3000] [-quick] \
//	        [-load-stall stall.model] [-load-rep rep.model] \
//	        [-only table8,fig5,grouping]
package main

import (
	"flag"
	"fmt"
	"os"

	"vqoe/internal/core"
	"vqoe/internal/experiments"
	"vqoe/internal/ml"
)

func main() {
	var (
		sessions = flag.Int("sessions", 722, "encrypted study size (paper: 722)")
		n        = flag.Int("n", 12000, "cleartext training corpus size")
		has      = flag.Int("has", 3000, "adaptive training corpus size")
		trees    = flag.Int("trees", 60, "random forest size")
		folds    = flag.Int("folds", 10, "cross-validation folds")
		seed     = flag.Int64("seed", 1, "master seed")
		quick    = flag.Bool("quick", false, "use the reduced quick scale")
		loadSt   = flag.String("load-stall", "", "load a stall model instead of training")
		loadRep  = flag.String("load-rep", "", "load a representation model instead of training")
		only     = flag.String("only", "", "subset: fig5,table8,table9,table10,table11,switch,grouping")
	)
	flag.Parse()

	scale := experiments.Scale{
		Cleartext: *n, HAS: *has, Encrypted: *sessions,
		Trees: *trees, Folds: *folds, Seed: *seed,
	}
	if *quick {
		scale = experiments.QuickScale()
		scale.Seed = *seed
	}
	suite := experiments.NewSuite(scale)

	sel := experiments.Only(*only)
	out := os.Stdout
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "qoeeval:", err)
		os.Exit(1)
	}

	if sel("fig5") {
		experiments.Banner(out, "Figure 5 — segment size and inter-arrival, encrypted vs cleartext")
		sizeClear, sizeEnc, iatClear, iatEnc := suite.Figure5()
		experiments.RenderECDF(out, "segment size KB (cleartext)", sizeClear)
		experiments.RenderECDF(out, "segment size KB (encrypted)", sizeEnc)
		experiments.RenderECDF(out, "inter-arrival s (cleartext)", iatClear)
		experiments.RenderECDF(out, "inter-arrival s (encrypted)", iatEnc)
	}

	if sel("grouping") {
		experiments.Banner(out, "§5.2 — reconstructing sessions from encrypted traffic")
		ev := suite.Grouping()
		fmt.Fprintf(out, "  true sessions: %d, reconstructed: %d\n", ev.TrueSessions, ev.Reconstructed)
		fmt.Fprintf(out, "  perfectly recovered: %.1f%% (paper: the vast majority)\n", 100*ev.PerfectRate())
		fmt.Fprintf(out, "  chunk purity: %.1f%%\n\n", 100*ev.ChunkPurity)
	}

	if sel("table8", "table9") {
		conf, err := stallConfusion(suite, *loadSt)
		if err != nil {
			fail(err)
		}
		experiments.Banner(out, "Tables 8 & 9 — stall detection on encrypted traffic")
		experiments.RenderConfusion(out, "paper: 91.8% accuracy (1.7% below cleartext)", conf)
	}
	if sel("table10", "table11") {
		conf, err := repConfusion(suite, *loadRep)
		if err != nil {
			fail(err)
		}
		experiments.Banner(out, "Tables 10 & 11 — average representation on encrypted traffic")
		experiments.RenderConfusion(out, "paper: 81.9% accuracy (2.5% below cleartext)", conf)
	}
	if sel("switch") {
		experiments.Banner(out, "§5.6 — switch detection on encrypted traffic, same threshold")
		ev := suite.SwitchEncrypted()
		experiments.RenderSwitchEval(out, "fixed threshold 500 (paper: 76.9% / 71.7%)",
			ev.SteadyBelow, ev.VaryingAbove, ev.SteadyN, ev.VaryingN)
	}
}

func stallConfusion(suite *experiments.Suite, path string) (*ml.Confusion, error) {
	if path == "" {
		return suite.Table8and9()
	}
	det, err := core.LoadDetectorFile(path)
	if err != nil {
		return nil, err
	}
	return det.Evaluate(core.BuildStallDataset(suite.Study().Corpus))
}

func repConfusion(suite *experiments.Suite, path string) (*ml.Confusion, error) {
	if path == "" {
		return suite.Table10and11()
	}
	det, err := core.LoadDetectorFile(path)
	if err != nil {
		return nil, err
	}
	return det.Evaluate(core.BuildRepDataset(suite.Study().Corpus))
}
