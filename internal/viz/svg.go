// Package viz renders the reproduction's figures as self-contained
// inline SVG — line plots and CDFs with axes, ticks and legends —
// using nothing but the standard library. cmd/qoereport embeds these
// into an HTML report so the paper's figures can be compared visually,
// not just numerically.
package viz

import (
	"fmt"
	"html"
	"math"
	"sort"
	"strings"
)

// Series is one named curve.
type Series struct {
	Name string
	X, Y []float64
}

// palette holds the stroke colors assigned to series in order.
var palette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"}

// Plot configures a chart.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Width  int
	Height int
	// Markers draws a circle at every point (for sparse series).
	Markers bool
	// VLines draws dashed vertical rules at the given x positions
	// (e.g. stall instants in Figure 1).
	VLines []float64
}

const (
	marginLeft   = 64
	marginRight  = 16
	marginTop    = 32
	marginBottom = 48
)

// Line renders the series as an SVG line chart.
func (p Plot) Line(series []Series) string {
	if p.Width <= 0 {
		p.Width = 640
	}
	if p.Height <= 0 {
		p.Height = 320
	}
	minX, maxX, minY, maxY := bounds(series)
	if len(p.VLines) > 0 {
		for _, v := range p.VLines {
			minX = math.Min(minX, v)
			maxX = math.Max(maxX, v)
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	// pad the y range slightly so curves don't hug the frame
	pad := (maxY - minY) * 0.05
	minY -= pad
	maxY += pad

	iw := float64(p.Width - marginLeft - marginRight)
	ih := float64(p.Height - marginTop - marginBottom)
	sx := func(x float64) float64 { return marginLeft + (x-minX)/(maxX-minX)*iw }
	sy := func(y float64) float64 { return marginTop + ih - (y-minY)/(maxY-minY)*ih }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`,
		p.Width, p.Height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, p.Width, p.Height)

	// frame and ticks
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="#888"/>`,
		marginLeft, marginTop, iw, ih)
	for _, t := range ticks(minX, maxX, 6) {
		x := sx(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#888"/>`,
			x, marginTop+ih, x, marginTop+ih+4)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle">%s</text>`,
			x, marginTop+ih+16, fmtTick(t))
	}
	for _, t := range ticks(minY, maxY, 5) {
		y := sy(t)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#888"/>`,
			marginLeft-4, y, marginLeft, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" dominant-baseline="middle">%s</text>`,
			marginLeft-7, y, fmtTick(t))
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#eee"/>`,
			marginLeft, y, marginLeft+iw, y)
	}

	// dashed vertical rules
	for _, v := range p.VLines {
		x := sx(v)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="#d62728" stroke-dasharray="4 3"/>`,
			x, marginTop, x, marginTop+ih)
	}

	// curves
	for i, s := range series {
		color := palette[i%len(palette)]
		var pts []string
		for j := range s.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", sx(s.X[j]), sy(s.Y[j])))
		}
		if len(pts) > 1 {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`,
				strings.Join(pts, " "), color)
		}
		if p.Markers || len(pts) == 1 {
			for j := range s.X {
				fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`,
					sx(s.X[j]), sy(s.Y[j]), color)
			}
		}
	}

	// title, labels, legend
	fmt.Fprintf(&b, `<text x="%d" y="18" font-size="13" font-weight="bold">%s</text>`,
		marginLeft, html.EscapeString(p.Title))
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`,
		marginLeft+iw/2, p.Height-8, html.EscapeString(p.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%.1f" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`,
		marginTop+ih/2, marginTop+ih/2, html.EscapeString(p.YLabel))
	lx := float64(marginLeft) + 10
	for i, s := range series {
		if s.Name == "" {
			continue
		}
		color := palette[i%len(palette)]
		y := float64(marginTop) + 14 + float64(i)*14
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2"/>`,
			lx, y, lx+16, y, color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" dominant-baseline="middle">%s</text>`,
			lx+20, y, html.EscapeString(s.Name))
	}
	b.WriteString("</svg>")
	return b.String()
}

// CDF renders empirical CDF curves: each series' X values are its
// samples; Y is computed as the cumulative fraction.
func (p Plot) CDF(samples []Series) string {
	curves := make([]Series, len(samples))
	for i, s := range samples {
		xs := append([]float64(nil), s.X...)
		sort.Float64s(xs)
		ys := make([]float64, len(xs))
		for j := range xs {
			ys[j] = float64(j+1) / float64(len(xs))
		}
		curves[i] = Series{Name: s.Name, X: xs, Y: ys}
	}
	if p.YLabel == "" {
		p.YLabel = "CDF"
	}
	return p.Line(curves)
}

func bounds(series []Series) (minX, maxX, minY, maxY float64) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return 0, 1, 0, 1
	}
	return minX, maxX, minY, maxY
}

// ticks picks ~n round tick positions covering [lo, hi].
func ticks(lo, hi float64, n int) []float64 {
	if n < 2 || hi <= lo {
		return []float64{lo}
	}
	raw := (hi - lo) / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag < 1.5:
		step = mag
	case raw/mag < 3.5:
		step = 2 * mag
	case raw/mag < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	var out []float64
	for t := math.Ceil(lo/step) * step; t <= hi+step/1e6; t += step {
		out = append(out, t)
	}
	return out
}

func fmtTick(t float64) string {
	a := math.Abs(t)
	switch {
	case t == 0:
		return "0"
	case a >= 1e6:
		return fmt.Sprintf("%.3gM", t/1e6)
	case a >= 1e4:
		return fmt.Sprintf("%.3gk", t/1e3)
	case a >= 1:
		return fmt.Sprintf("%.4g", t)
	default:
		return fmt.Sprintf("%.3g", t)
	}
}

// Page assembles sections of (heading, body-HTML) into a standalone
// HTML document.
func Page(title string, sections []Section) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>")
	b.WriteString(html.EscapeString(title))
	b.WriteString("</title><style>body{font-family:sans-serif;max-width:72em;margin:2em auto;padding:0 1em;color:#222}h2{border-bottom:1px solid #ddd;padding-bottom:.2em}figure{margin:1em 0}p.note{color:#555}</style></head><body>")
	fmt.Fprintf(&b, "<h1>%s</h1>", html.EscapeString(title))
	for _, s := range sections {
		fmt.Fprintf(&b, "<h2>%s</h2>", html.EscapeString(s.Heading))
		if s.Note != "" {
			fmt.Fprintf(&b, `<p class="note">%s</p>`, html.EscapeString(s.Note))
		}
		b.WriteString(s.Body) // pre-rendered, trusted SVG/HTML
	}
	b.WriteString("</body></html>")
	return b.String()
}

// Section is one titled block of a Page.
type Section struct {
	Heading string
	Note    string
	Body    string
}
