// Command qoereport is the paper tool: it runs the reproduction of
// every table and figure of the paper and prints the Markdown report
// that compares the paper's numbers against the measured ones. The
// first part of EXPERIMENTS.md, down to the marker line the report
// ends with, is generated with it; the sections below the marker are
// written by hand. `make report` replaces only the generated part — do
// not redirect the output over EXPERIMENTS.md.
//
// -only prints just the named sections (no header or marker). The
// trained detectors can be saved (-save-stall, -save-rep) for qoeserve
// and qoewatch, and saved ones loaded (-load-stall, -load-rep) for
// Tables 8–11 to evaluate on the encrypted study in their place.
// -html also draws Figures 1–5 as SVG.
//
// Usage:
//
//	qoereport [-quick] [-n 12000] [-has 3000] [-sessions 722] [-only table8,fig5]
//	qoereport -quick -only table2 -save-stall stall.model -save-rep rep.model
//	make report [REPORT_FLAGS=-quick]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vqoe/internal/experiments"
	"vqoe/internal/stats"
	"vqoe/internal/viz"
)

func main() {
	var (
		n        = flag.Int("n", 12000, "cleartext corpus size")
		has      = flag.Int("has", 3000, "adaptive corpus size")
		sessions = flag.Int("sessions", 722, "encrypted study size")
		trees    = flag.Int("trees", 60, "random forest size")
		folds    = flag.Int("folds", 10, "cross-validation folds")
		seed     = flag.Int64("seed", 1, "master seed")
		quick    = flag.Bool("quick", false, "reduced scale")
		only     = flag.String("only", "", "comma-separated section keys to print alone (fig1, table3, switch, ...; an unknown key lists them)")
		saveSt   = flag.String("save-stall", "", "write the trained stall model to this file")
		saveRep  = flag.String("save-rep", "", "write the trained representation model to this file")
		loadSt   = flag.String("load-stall", "", "evaluate this stall model in Tables 8 & 9 instead of the trained one")
		loadRep  = flag.String("load-rep", "", "evaluate this representation model in Tables 10 & 11 instead of the trained one")
		htmlOut  = flag.String("html", "", "also write an HTML figure report to this file")
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

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "qoereport:", err)
		os.Exit(1)
	}
	if err := suite.LoadModels(*loadSt, *loadRep); err != nil {
		fail(err)
	}
	if err := experiments.WriteReport(os.Stdout, suite, *only); err != nil {
		fail(err)
	}

	if *saveSt != "" {
		det, _, err := suite.StallModel()
		if err != nil {
			fail(err)
		}
		if err := writeModel(*saveSt, det.Save); err != nil {
			fail(err)
		}
	}
	if *saveRep != "" {
		det, _, err := suite.RepModel()
		if err != nil {
			fail(err)
		}
		if err := writeModel(*saveRep, det.Save); err != nil {
			fail(err)
		}
	}
	if *htmlOut != "" {
		if err := writeHTMLFigures(*htmlOut, suite); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "HTML figure report written to %s\n", *htmlOut)
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

// writeHTMLFigures renders Figures 1–5 as SVG charts in a standalone
// HTML document.
func writeHTMLFigures(path string, suite *experiments.Suite) error {
	var sections []viz.Section

	pts, stalls := suite.Figure1()
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	sections = append(sections, viz.Section{
		Heading: "Figure 1 — chunk sizes in a session with stalls",
		Note:    "Dashed rules mark the stall instants; chunk sizes collapse at each stall and ramp back (paper Fig. 1).",
		Body: viz.Plot{
			Title: "chunk size over time", XLabel: "session time (s)", YLabel: "chunk size (KB)",
			Markers: true, VLines: stalls,
		}.Line([]viz.Series{{X: xs, Y: ys}}),
	})

	counts, rrs := suite.Figure2()
	countPts := ecdfSeries(counts)
	rrPts := ecdfSeries(rrs)
	sections = append(sections, viz.Section{
		Heading: "Figure 2 — stalls per session",
		Note:    "ECDF of the number of stalls and of the rebuffering ratio (paper Fig. 2).",
		Body: viz.Plot{Title: "number of stalls", XLabel: "stalls per session", YLabel: "ECDF"}.Line([]viz.Series{countPts}) +
			viz.Plot{Title: "rebuffering ratio", XLabel: "RR", YLabel: "ECDF"}.Line([]viz.Series{rrPts}),
	})

	times, dsizes, dts := suite.Figure3()
	sections = append(sections, viz.Section{
		Heading: "Figure 3 — Δsize and Δt around a representation switch",
		Note:    "A 144p→480p upswitch: both deltas spike and ramp back to steady state (paper Fig. 3).",
		Body: viz.Plot{Title: "Δsize", XLabel: "session time (s)", YLabel: "Δsize (KB)", Markers: true}.Line([]viz.Series{{X: times, Y: dsizes}}) +
			viz.Plot{Title: "Δt", XLabel: "session time (s)", YLabel: "Δt (s)", Markers: true}.Line([]viz.Series{{X: times, Y: dts}}),
	})

	steady, varying := suite.Figure4()
	sections = append(sections, viz.Section{
		Heading: "Figure 4 — change-detection output",
		Note:    "CDF of STD(CUSUM(Δsize×Δt)) for sessions with and without representation variance; the dashed rule is the fixed threshold 500 (paper Fig. 4).",
		Body: viz.Plot{
			Title: "change score", XLabel: "STD(CUSUM(Δsize×Δt))", YLabel: "CDF",
			VLines: []float64{500},
		}.Line([]viz.Series{
			named(ecdfSeries(steady), "without variance"),
			named(ecdfSeries(varying), "with variance"),
		}),
	})

	sizeClear, sizeEnc, iatClear, iatEnc := suite.Figure5()
	sections = append(sections, viz.Section{
		Heading: "Figure 5 — encrypted vs cleartext datasets",
		Note:    "Segment sizes and inter-arrival times of the two datasets overlap strongly (paper Fig. 5).",
		Body: viz.Plot{Title: "segment size", XLabel: "KB", YLabel: "CDF"}.Line([]viz.Series{
			named(ecdfSeries(sizeClear), "cleartext"),
			named(ecdfSeries(sizeEnc), "encrypted"),
		}) + viz.Plot{Title: "segment inter-arrival", XLabel: "seconds", YLabel: "CDF"}.Line([]viz.Series{
			named(ecdfSeries(iatClear), "cleartext"),
			named(ecdfSeries(iatEnc), "encrypted"),
		}),
	})

	doc := viz.Page("vqoe — reproduced figures (Measuring Video QoE from Encrypted Traffic, IMC 2016)", sections)
	return os.WriteFile(path, []byte(doc), 0o644)
}

// ecdfSeries converts a stats ECDF into a plottable series (capped at
// 400 points).
func ecdfSeries(e *stats.ECDF) viz.Series {
	pts := e.Points(400)
	s := viz.Series{X: make([]float64, len(pts)), Y: make([]float64, len(pts))}
	for i, p := range pts {
		s.X[i], s.Y[i] = p.X, p.Y
	}
	return s
}

func named(s viz.Series, name string) viz.Series {
	s.Name = name
	return s
}
