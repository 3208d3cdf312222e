package viz

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLinePlotBasics(t *testing.T) {
	svg := Plot{Title: "demo", XLabel: "x", YLabel: "y"}.Line([]Series{
		{Name: "a", X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}},
		{Name: "b", X: []float64{0, 1, 2}, Y: []float64{4, 1, 0}},
	})
	for _, want := range []string{"<svg", "</svg>", "polyline", "demo", ">x<", ">y<", ">a<", ">b<"} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if strings.Count(svg, "<polyline") != 2 {
		t.Errorf("expected 2 polylines")
	}
}

func TestTitleEscaped(t *testing.T) {
	svg := Plot{Title: `<script>alert("x")</script>`}.Line([]Series{
		{X: []float64{0, 1}, Y: []float64{0, 1}},
	})
	if strings.Contains(svg, "<script>") {
		t.Error("title not escaped")
	}
}

func TestVLinesAndMarkers(t *testing.T) {
	svg := Plot{Markers: true, VLines: []float64{0.5}}.Line([]Series{
		{X: []float64{0, 1}, Y: []float64{2, 3}},
	})
	if !strings.Contains(svg, "stroke-dasharray") {
		t.Error("vline missing")
	}
	if strings.Count(svg, "<circle") != 2 {
		t.Error("markers missing")
	}
}

func TestEmptyAndDegenerateSeries(t *testing.T) {
	if svg := (Plot{}).Line(nil); !strings.Contains(svg, "</svg>") {
		t.Error("empty plot should still be valid")
	}
	// constant series (zero y-range)
	svg := Plot{}.Line([]Series{{X: []float64{0, 1, 2}, Y: []float64{5, 5, 5}}})
	if !strings.Contains(svg, "polyline") {
		t.Error("constant series dropped")
	}
	// single point renders a marker even without Markers set
	svg = Plot{}.Line([]Series{{X: []float64{1}, Y: []float64{1}}})
	if !strings.Contains(svg, "<circle") {
		t.Error("single point invisible")
	}
}

func TestCDFMonotone(t *testing.T) {
	svg := Plot{Title: "cdf"}.CDF([]Series{
		{Name: "sizes", X: []float64{5, 1, 3, 2, 4}},
	})
	if !strings.Contains(svg, "polyline") {
		t.Fatal("no curve")
	}
	if !strings.Contains(svg, "CDF") {
		t.Error("default y label missing")
	}
}

// Property: any finite input produces parseable, finite coordinates.
func TestPlotFiniteProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		var fx, fy []float64
		for i := 0; i < n; i++ {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
				continue
			}
			fx = append(fx, math.Mod(xs[i], 1e9))
			fy = append(fy, math.Mod(ys[i], 1e9))
		}
		svg := Plot{}.Line([]Series{{X: fx, Y: fy}})
		return !strings.Contains(svg, "NaN") && !strings.Contains(svg, "Inf") &&
			strings.HasSuffix(svg, "</svg>")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTicksAreRound(t *testing.T) {
	ts := ticks(0, 100, 6)
	if len(ts) < 4 {
		t.Fatalf("too few ticks: %v", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatalf("ticks not increasing: %v", ts)
		}
	}
	// degenerate range
	if got := ticks(5, 5, 4); len(got) != 1 {
		t.Errorf("degenerate ticks %v", got)
	}
}

func TestFmtTick(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		2.5e6:   "2.5M",
		150_000: "150k",
		42:      "42",
		0.25:    "0.25",
	}
	for in, want := range cases {
		if got := fmtTick(in); got != want {
			t.Errorf("fmtTick(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPage(t *testing.T) {
	doc := Page("Report & Results", []Section{
		{Heading: "Fig <1>", Note: "a note", Body: "<svg></svg>"},
	})
	for _, want := range []string{
		"<!DOCTYPE html>", "Report &amp; Results", "Fig &lt;1&gt;", "a note", "<svg></svg>",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("page missing %q", want)
		}
	}
}
