package pipeline

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"vqoe/internal/engine"
	"vqoe/internal/flight"
	"vqoe/internal/obs"
	"vqoe/internal/qualitymon"
	"vqoe/internal/slo"
	"vqoe/internal/wire"
	"vqoe/internal/workload"
)

var updateSurface = flag.Bool("update-surface", false,
	"rewrite testdata/surface_*.golden from the current telemetry surface")

// TestTelemetrySurfacePinned pins everything an operator's dashboards
// and alert routes key on — family names, HELP/TYPE strings, label
// sets and (where deterministic) values in /metrics, the series and
// quantile names of /debug/timeseries, and the rule names and help
// strings of /debug/alerts — against goldens recorded before the
// telemetry wiring was restructured. Two shapes: the full server
// (every subsystem plus one wire listener) and the three-source
// capture-clock shape qoepcap -analyze builds.
func TestTelemetrySurfacePinned(t *testing.T) {
	fw, _ := testFramework(t)
	fixed := 1_700_000_000.0
	srv := NewServerOpts(fw, Options{
		Engine: engine.Config{Shards: 1, SweepEverySec: -1},
		SLO:    slo.Config{Manual: true, Now: func() float64 { return fixed }},
	})
	start := time.Unix(1_700_000_000, 0)
	srv.Metrics().SetProcessClock(start, func() time.Time { return start.Add(time.Minute) })
	srv.Metrics().SetRuntimeMetrics(false)
	ws := srv.NewWireServer()
	defer ws.Close()
	ln, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ws.Serve(ln) }()

	lcfg := workload.DefaultLiveConfig()
	lcfg.Subscribers = 12
	lcfg.SessionsPerSubscriber = 2
	lcfg.Seed = 7
	lcfg.LabelRate = 0.5
	live := workload.GenerateLive(lcfg)

	// first half through the in-process door, second half over the
	// wire, so both entry paths and the listener's stage histograms
	// are on the pinned surface; the client stays open through the
	// scrape so connections_active reads a deterministic 1
	half := len(live.Entries) / 2
	srv.Ingest(live.Entries[:half])
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendEntries(live.Entries[half:]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	for _, l := range live.Labels {
		ql := qualitymon.Label{
			Type: qualitymon.LabelType, Subscriber: l.Subscriber,
			Start: l.Start, End: l.End, AvailableAt: l.AvailableAt,
			Stall: int(l.Stall), Rep: int(l.Rep),
		}
		if err := c.AppendLabel(&ql); err != nil {
			t.Fatal(err)
		}
	}
	if ack, err := c.Sync(); err != nil {
		t.Fatal(err)
	} else if ack.Labels == 0 {
		t.Fatal("fixture carries no labels")
	}
	// the ack reaches the client before the listener counts it
	for deadline := time.Now().Add(5 * time.Second); ws.Snapshot().Acks < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	srv.SLO().Tick(fixed)

	h := srv.Handler()
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec.Body.Bytes()
	}
	var ts slo.TimeseriesSnapshot
	if err := json.Unmarshal(get("/debug/timeseries"), &ts); err != nil {
		t.Fatal(err)
	}
	var al slo.AlertsSnapshot
	if err := json.Unmarshal(get("/debug/alerts"), &al); err != nil {
		t.Fatal(err)
	}
	got := "# metrics\n" + surfaceMetrics(string(get("/metrics"))) +
		"# timeseries\n" + surfaceSeries(ts) + "# alerts\n" + surfaceRules(al)
	checkSurface(t, "surface_server.golden", got)

	se := pcapShapeSLO()
	se.Tick(fixed)
	got = "# timeseries\n" + surfaceSeries(se.Timeseries(0)) + "# alerts\n" + surfaceRules(se.Alerts())
	checkSurface(t, "surface_qoepcap.golden", got)
}

// pcapShapeSLO wires the sources qoepcap -analyze has — a bare entry
// counter on the capture clock, one observer's stages, one flight
// recorder — the way cmd/qoepcap does.
func pcapShapeSLO() *slo.Engine {
	rec := flight.New(flight.Config{Shards: 1})
	ob := obs.NewObserver(1, 0)
	se := slo.New(slo.Config{Manual: true, Now: func() float64 { return 1_700_000_000 }})
	EntriesTelemetry(se, func() int64 { return 0 }, nil)
	StageTelemetry(nil, se, ob.StageSnapshots)
	FlightTelemetry(nil, se, rec)
	return se
}

// surfaceMetrics reduces an exposition to sorted lines. Samples of
// vqoe_build_info (label values name the toolchain and VCS revision)
// keep only their label names; samples of the two stage-duration
// histograms (wall-clock observations) keep labels but drop the value.
func surfaceMetrics(body string) string {
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	for i, ln := range lines {
		switch {
		case strings.HasPrefix(ln, "vqoe_build_info{"):
			lines[i] = "vqoe_build_info{go_version,version}"
		case strings.HasPrefix(ln, "vqoe_stage_duration_seconds"),
			strings.HasPrefix(ln, "vqoe_wire_stage_duration_seconds"):
			lines[i] = ln[:strings.LastIndexByte(ln, ' ')]
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func surfaceSeries(ts slo.TimeseriesSnapshot) string {
	var lines []string
	for _, s := range ts.Series {
		lines = append(lines, fmt.Sprintf("series %s %s", s.Name, s.Kind))
	}
	for _, q := range ts.Quantiles {
		lines = append(lines, "quantiles "+q.Name)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func surfaceRules(al slo.AlertsSnapshot) string {
	var lines []string
	for _, a := range al.Alerts {
		lines = append(lines, a.Rule+"\t"+a.Help)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func checkSurface(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantSet := map[string]bool{}
	for _, ln := range strings.Split(string(want), "\n") {
		wantSet[ln] = true
	}
	gotSet := map[string]bool{}
	for _, ln := range strings.Split(got, "\n") {
		gotSet[ln] = true
		if !wantSet[ln] {
			t.Errorf("%s: unexpected line %q", name, ln)
		}
	}
	for ln := range wantSet {
		if !gotSet[ln] {
			t.Errorf("%s: missing line %q", name, ln)
		}
	}
	if !t.Failed() {
		t.Errorf("%s: same lines, different multiplicity or order", name)
	}
}
