// Command qoetrain reproduces the paper's training-side experiments on
// the synthetic cleartext corpus: feature selection and model quality
// for the stall and representation detectors (Tables 2–7), the
// illustrative session figures (Figures 1–3), the switch-detection
// calibration (Figure 4, §4.3), the Prometheus-style baseline, and the
// design-choice ablations.
//
// Usage:
//
//	qoetrain [-n 12000] [-has 3000] [-trees 60] [-folds 10] [-seed 1] \
//	         [-quick] [-only table3,fig4] [-save-stall stall.model]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vqoe/internal/experiments"
	"vqoe/internal/obs"
)

func main() {
	var (
		n         = flag.Int("n", 12000, "cleartext corpus size")
		has       = flag.Int("has", 3000, "adaptive-only corpus size")
		trees     = flag.Int("trees", 60, "random forest size")
		folds     = flag.Int("folds", 10, "cross-validation folds")
		seed      = flag.Int64("seed", 1, "master seed")
		quick     = flag.Bool("quick", false, "use the reduced quick scale")
		only      = flag.String("only", "", "comma-separated subset: table2,table3,table4,table5,table6,table7,fig1,fig2,fig3,fig4,switch,baseline,ablations,generalize,importance")
		saveSt    = flag.String("save-stall", "", "write the trained stall model to this file")
		saveRep   = flag.String("save-rep", "", "write the trained representation model to this file")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
	)
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qoetrain:", err)
		os.Exit(1)
	}

	scale := experiments.Scale{
		Cleartext: *n, HAS: *has, Trees: *trees, Folds: *folds, Seed: *seed,
		Encrypted: 1, // unused here
	}
	if *quick {
		scale = experiments.QuickScale()
		scale.Seed = *seed
	}
	suite := experiments.NewSuite(scale)

	sel := experiments.Only(*only)
	out := os.Stdout
	fail := func(err error) {
		log.Error("experiment failed", "err", err)
		os.Exit(1)
	}
	log.Debug("suite configured",
		"cleartext", scale.Cleartext, "has", scale.HAS,
		"trees", scale.Trees, "folds", scale.Folds, "seed", scale.Seed)

	if sel("fig1") {
		experiments.Banner(out, "Figure 1 — chunk sizes in a video session with stalls")
		pts, stalls := suite.Figure1()
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.X, p.Y
		}
		experiments.RenderSeries(out, fmt.Sprintf("stalls at t=%v", stalls), xs, ys, "time (s)", "chunk KB", 40)
	}
	if sel("fig2") {
		experiments.Banner(out, "Figure 2 — ECDF of stalls and rebuffering ratio per session")
		counts, rrs := suite.Figure2()
		experiments.RenderECDF(out, "number of stalls", counts)
		experiments.RenderECDF(out, "rebuffering ratio", rrs)
		fmt.Fprintf(out, "  sessions with ≥1 stall: %.1f%% (paper: 12%%)\n", 100*(1-counts.At(0)))
		fmt.Fprintf(out, "  sessions with RR > 0.1: %.1f%% (paper: ~10%% of stalled tail)\n\n", 100*(1-rrs.At(0.1)))
	}
	if sel("table2") {
		gains, err := suite.Table2()
		if err != nil {
			fail(err)
		}
		experiments.Banner(out, "Table 2 — stall model features after CFS selection")
		experiments.RenderGains(out, "(paper: chunk size min 0.45, chunk size std 0.25, BDP mean 0.18, retrans max 0.12)", gains)
	}
	if sel("table3", "table4") {
		cv, err := suite.Table3and4()
		if err != nil {
			fail(err)
		}
		experiments.Banner(out, "Tables 3 & 4 — stall detection on cleartext (10-fold CV)")
		experiments.RenderConfusion(out, "paper: 93.5% accuracy", cv)
	}
	if sel("fig3") {
		experiments.Banner(out, "Figure 3 — Δt and Δsize around a representation switch")
		times, dsizes, dts := suite.Figure3()
		experiments.RenderSeries(out, "Δsize (KB)", times, dsizes, "time (s)", "Δsize", 30)
		experiments.RenderSeries(out, "Δt (s)", times, dts, "time (s)", "Δt", 30)
	}
	if sel("table5") {
		gains, err := suite.Table5()
		if err != nil {
			fail(err)
		}
		experiments.Banner(out, "Table 5 — representation model features after CFS selection")
		experiments.RenderGains(out, "(paper: chunk-size percentiles dominate; 15 of 210 kept)", gains)
	}
	if sel("table6", "table7") {
		cv, err := suite.Table6and7()
		if err != nil {
			fail(err)
		}
		experiments.Banner(out, "Tables 6 & 7 — average representation on cleartext (10-fold CV)")
		experiments.RenderConfusion(out, "paper: 84.5% accuracy", cv)
	}
	if sel("fig4", "switch") {
		experiments.Banner(out, "Figure 4 / §4.3 — switch detection via STD(CUSUM(Δsize×Δt))")
		steady, varying := suite.Figure4()
		experiments.RenderECDF(out, "change score, sessions without variance", steady)
		experiments.RenderECDF(out, "change score, sessions with variance", varying)
		ev := suite.SwitchCleartext()
		experiments.RenderSwitchEval(out, "fixed threshold 500 (paper: 78% / 76%)",
			ev.SteadyBelow, ev.VaryingAbove, ev.SteadyN, ev.VaryingN)
	}
	if sel("baseline") {
		experiments.Banner(out, "§6 baseline — Prometheus-style binary buffering classifier")
		experiments.RenderConfusion(out, "paper reports ~84% for [15]", suite.BaselineBinary())
	}
	if sel("generalize") {
		experiments.Banner(out, "§7 — cross-service generalization (future work in the paper)")
		results, err := suite.CrossServiceStall()
		if err != nil {
			fail(err)
		}
		for _, r := range results {
			fmt.Fprintf(out, "  stall model on %-18s %.1f%% (home service: %.1f%%, n=%d)\n",
				r.Service+":", 100*r.Accuracy, 100*r.HomeAccuracy, r.Sessions)
		}
		fmt.Fprintln(out)
		experiments.Banner(out, "learning curve — stall CV accuracy vs corpus size")
		for _, p := range suite.StallLearningCurve([]int{250, 500, 1000, 2000, 4000}) {
			fmt.Fprintf(out, "  n=%5d  %.1f%%\n", p.Sessions, 100*p.Accuracy)
		}
		fmt.Fprintln(out)
	}
	if sel("importance") {
		experiments.Banner(out, "Permutation importance of the stall model on encrypted traffic")
		imps, err := suite.StallImportance()
		if err != nil {
			fail(err)
		}
		for _, im := range imps {
			fmt.Fprintf(out, "  %-32s accuracy drop %+.3f\n", im.Name, im.Drop)
		}
		fmt.Fprintln(out)
	}
	if sel("ablations") {
		experiments.Banner(out, "Ablations — design choices called out in DESIGN.md")
		var results []experiments.AblationResult
		if r, err := suite.AblationStallWithoutChunkFeatures(); err == nil {
			results = append(results, r)
		}
		if r, err := suite.AblationStallAllFeatures(); err == nil {
			results = append(results, r)
		}
		results = append(results, suite.AblationSwitchProduct()...)
		results = append(results, suite.AblationStartupFilter())
		results = append(results, suite.AblationSwitchML())
		experiments.RenderAblation(out, results)
	}

	if *saveSt != "" {
		det, _, err := suite.StallModel()
		if err != nil {
			fail(err)
		}
		if err := writeModel(*saveSt, det.Save); err != nil {
			fail(err)
		}
		log.Info("stall model written", "path", *saveSt)
	}
	if *saveRep != "" {
		det, _, err := suite.RepModel()
		if err != nil {
			fail(err)
		}
		if err := writeModel(*saveRep, det.Save); err != nil {
			fail(err)
		}
		log.Info("representation model written", "path", *saveRep)
	}
}

func writeModel(path string, save func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
