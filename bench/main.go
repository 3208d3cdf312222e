// Command bench is the repository's benchmark: it drives the production
// server surface (pipeline.NewServerOpts → wire listener and HTTP
// handler → OnReport → Drain) in-process with pre-encoded traffic
// generated from a seed, checks what comes out, and prints every
// metric by name and unit. See README.md in this directory.
//
//	go run ./bench                          all four workloads, end-to-end metrics
//	go run ./bench -workload wide_open      one workload
//	go run ./bench -trace                   per-layer metrics and Chrome traces
//	go run ./bench -sets 2                  run twice, fail when medians disagree
//	go run ./bench -append A.json           add this run to a run-set file
//	go run ./bench -compare A.json B.json   paired-run verdict between two run sets
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} for the harness that
// runs the benchmark unattended.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"vqoe/internal/core"
)

// Percentiles the two tail metrics report. Chosen by the rule in
// README.md ("highest of p99/p95/p90 with at least ten samples beyond it
// that repeats across acceptance sets"); the metric names do not change
// if a later benchmark change demotes one.
const (
	lagTailPct    = 99
	scrapeTailPct = 90
)

// endToEnd names the metrics BENCHMARK.json gates, in its order. A run
// prints more than these (the verdict-lag tail, the scrape latencies and
// failed_share are measured by every run but are per-layer, or carried
// by the failed count, there); the last-line JSON of a -workload run
// carries exactly these.
var endToEnd = []string{
	"setup_s", "entries_per_s", "sessions_per_s", "cpu_ns_per_entry",
	"alloc_bytes_per_entry", "allocs_per_entry", "verdict_lag_p50_ms",
	"heap_bytes_per_open_session", "stall_acc", "rep_acc",
}

// setupReps is how many times a run sets up from scratch; setup_s is
// the median.
const setupReps = 3

// minRounds is the fewest rounds a run measures however short -seconds
// is.
const minRounds = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	rounds   int
	trace    bool
	quick    bool
	sets     int
	compare  bool
	appendTo string
	outDir   string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run: what is printed, and what is written to
// the result file with the host it was measured on.
type result struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Quick    bool             `json:"quick,omitempty"`
	Rounds   int              `json:"rounds"`
	Metrics  map[string]value `json:"metrics"`
	// Quartiles holds [q1, q3] over rounds for every metric that is a
	// per-round median.
	Quartiles map[string][2]float64 `json:"quartiles"`
	Samples   []*round              `json:"samples"`
	// SetupS[i] is set-up i's wall time less SetupStolenS[i], the CPU
	// time the hypervisor withheld meanwhile; SetupProbeNs[i] is the
	// host-speed probe before and after it. QuietRounds is how many rounds
	// the timing metrics were taken over (see quietest).
	SetupS       []float64    `json:"setup_samples_s"`
	SetupStolenS []float64    `json:"setup_stolen_s"`
	SetupProbeNs [][2]float64 `json:"setup_probe_ns"`
	QuietRounds  int          `json:"quiet_rounds"`
	Reference    digest       `json:"reference"`
	// OfferedRate and the lateness figures qualify every latency of a
	// paced run.
	OfferedRate float64  `json:"offered_entries_per_s,omitempty"`
	LateP50Ms   float64  `json:"send_late_p50_ms,omitempty"`
	LateP99Ms   float64  `json:"send_late_p99_ms,omitempty"`
	Flags       []string `json:"flags,omitempty"`
	Correct     bool     `json:"correct"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Problems    []string `json:"problems,omitempty"`
	Host        hostInfo `json:"host"`
}

func (r *result) problem(format string, a ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}

// tally adds up the rounds' operation counts and holds every round's
// verdicts against the reference pass.
func (r *result) tally() {
	r.Rounds = len(r.Samples)
	for _, rd := range r.Samples {
		r.Attempted += rd.Attempted
		r.Failed += rd.Failed
		if rd.Digest != r.Reference {
			r.problem("round digest %s/%d differs from reference %s/%d",
				rd.Digest.Sum, rd.Digest.Count, r.Reference.Sum, r.Reference.Count)
		}
		r.Problems = append(r.Problems, rd.FailureDetail...)
		if rd.LagN == 0 {
			r.problem("a round produced no verdict inside its timed region")
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// boolArgs lets "--trace 1" and "--trace 0" (how the unattended harness
// passes it) parse like "-trace=1": the flag package would otherwise
// take the number for a positional argument.
func boolArgs(args []string, names ...string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		out = append(out, a)
		for _, n := range names {
			if (a == "-"+n || a == "--"+n) && i+1 < len(args) {
				switch args[i+1] {
				case "0", "1", "true", "false":
					out[len(out)-1] = a + "=" + args[i+1]
					i++
				}
			}
		}
	}
	return out
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default all)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 18, "how long each workload measures")
	fs.IntVar(&o.rounds, "rounds", 0, "measure exactly this many rounds instead of -seconds")
	fs.BoolVar(&o.trace, "trace", false, "per-layer metrics: traced rounds plus a staged replay; writes out/trace-<workload>.json")
	fs.BoolVar(&o.quick, "quick", false, "tiny scale, 2 rounds per workload (what `go test ./bench` runs)")
	fs.IntVar(&o.sets, "sets", 1, "run the whole benchmark this many times and fail when two sets' medians differ by more than a metric's bound")
	fs.BoolVar(&o.compare, "compare", false, "compare two result sets: -compare A.json B.json")
	fs.StringVar(&o.appendTo, "append", "", "add this run's metrics to a run-set file, the input of -compare")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for result and trace files")
	if err := fs.Parse(boolArgs(args, "trace")); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	names := workloadNames
	if o.workload != "" {
		if !slices.Contains(workloadNames, o.workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %v)\n", o.workload, workloadNames)
			return 2
		}
		names = []string{o.workload}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.sets > 1 {
		return runSets(o, names)
	}
	code := 0
	var last *result
	set := setRun{Seed: o.seed, Host: hostMeta(), Workloads: map[string]map[string]value{}}
	for _, n := range names {
		res, err := runWorkload(o, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		printResult(res)
		if err := writeJSON(filepath.Join(o.outDir, resultFile(o, n)), res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		last = res
		set.Workloads[n] = res.Metrics
	}
	if o.appendTo != "" {
		if err := appendRun(o.appendTo, set); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if o.workload != "" {
		// the unattended harness reads this line and nothing else
		metrics := last.Metrics
		if !o.trace {
			metrics = map[string]value{}
			for _, n := range endToEnd {
				metrics[n] = last.Metrics[n]
			}
		}
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return code
}

func resultFile(o options, name string) string {
	kind := "e2e"
	if o.trace {
		kind = "layers"
	}
	return fmt.Sprintf("%s-%s-seed%d.json", name, kind, o.seed)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setup is what one set-up produced and what it cost.
type setup struct {
	fw *core.Framework
	st *stream
	// seconds is the wall time, stolen the CPU time the hypervisor withheld
	// meanwhile, probeNs the host-speed probe before and after.
	seconds, stolen float64
	probeNs         [2]float64
}

// setUp does everything a run needs before it can measure — train the
// models, generate and pre-encode the workload, build and tear down one
// server — and reports how long that took and how much CPU time the
// hypervisor withheld meanwhile. Set-up is mostly one thread, so every
// withheld second delays it by a second: setup_s is the difference
// (over 30 set-ups with 0 to 3 s stolen, the slowest took 2.1 times the
// fastest raw and 1.2 times less the stolen time).
func setUp(name string, sc scale, seed int64) (su setup, err error) {
	if su.probeNs[0], err = probeHost(); err != nil {
		return su, err
	}
	t0, steal0 := time.Now(), stealTime()
	if su.fw, err = trainFramework(sc.TrainN); err != nil {
		return su, fmt.Errorf("training: %w", err)
	}
	if su.st, err = buildStream(name, sc, seed); err != nil {
		return su, err
	}
	var sv *server
	sv, err = newServer(su.fw, nil)
	if err == nil {
		_, err = sv.stop()
	}
	if err == nil {
		su.seconds, su.stolen = time.Since(t0).Seconds(), (stealTime() - steal0).Seconds()
		runtime.GC()
		su.probeNs[1], err = probeHost()
	}
	if err != nil && su.st != nil {
		su.st.free()
	}
	return su, err
}

// A timing taken while the hypervisor runs someone else on this guest's
// CPUs measures the neighbour. The host the bounds were set on withholds
// nothing for an hour and then a third of both CPUs for twenty minutes;
// rounds in such a phase run 10–45% slower and cost up to 35% more CPU
// per entry (caches are cold after every preemption), and the median
// over all rounds of a run moved by 29% between runs. The kernel reports
// the withheld time (steal, /proc/stat), so the timing metrics are taken
// over the rounds it left alone: those that lost at most stealLimit of
// the CPU capacity, or the minQuiet least-stolen rounds when fewer were
// that quiet (the run is then flagged).
const (
	stealLimit = 0.02
	minQuiet   = 5
)

// stolenShare is steal as a share of the CPU capacity over seconds.
func stolenShare(steal time.Duration, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return steal.Seconds() / (seconds * float64(runtime.NumCPU()))
}

// quietest returns the indices of the samples to take timings over,
// given each sample's stolen share, and whether enough were quiet.
func quietest(stolen []float64) (idx []int, enough bool) {
	for i, s := range stolen {
		if s <= stealLimit {
			idx = append(idx, i)
		}
	}
	if n := min(minQuiet, len(stolen)); len(idx) < n {
		idx = idx[:0]
		for i := range stolen {
			idx = append(idx, i)
		}
		sort.SliceStable(idx, func(a, b int) bool { return stolen[idx[a]] < stolen[idx[b]] })
		return idx[:n], false
	}
	return idx, true
}

// serialStream is the reference pass's input: the same frames on one
// connection, one connection's share after the other, so no two feeders
// ever run at once.
func serialStream(st *stream) *stream {
	var one connStream
	for c := range st.conns {
		cs := &st.conns[c]
		one.frames = append(one.frames, cs.frames...)
		one.maxTs = append(one.maxTs, cs.maxTs...)
		one.entries += cs.entries
	}
	ref := *st
	ref.conns = []connStream{one}
	ref.pacedRate = 0
	return &ref
}

func runWorkload(o options, name string) (*result, error) {
	sc := fullScale
	if o.quick {
		sc = quickScale
	}
	res := &result{
		Workload: name, Seed: o.seed, Quick: o.quick, Correct: true,
		Metrics: map[string]value{}, Quartiles: map[string][2]float64{},
		Host: hostMeta(),
	}
	reps := setupReps
	if o.quick || o.trace {
		reps = 1
	}
	var fw *core.Framework
	var st *stream
	for i := 0; i < reps; i++ {
		// Every set-up starts from an empty heap and the last one's products
		// are the run's. With an earlier set-up's products still live, the
		// second and third took 1.3–1.7 times the first (2.3 s, then
		// 3.1–4.0 s); freed first, the three agree within a tenth.
		if st != nil {
			st.free()
			fw, st = nil, nil
		}
		runtime.GC()
		su, err := setUp(name, sc, o.seed)
		if err != nil {
			return nil, err
		}
		fw, st = su.fw, su.st
		res.SetupS = append(res.SetupS, su.seconds-su.stolen)
		res.SetupStolenS = append(res.SetupStolenS, su.stolen)
		res.SetupProbeNs = append(res.SetupProbeNs, su.probeNs)
	}
	runtime.GC()
	defer st.free()
	res.OfferedRate = st.pacedRate

	ref, err := runRound(fw, serialStream(st), nil, roundOpts{id: -1})
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	if ref.Failed > 0 {
		res.problem("reference pass: %s", strings.Join(ref.FailureDetail, "; "))
	}
	res.Reference = ref.Digest
	if err := checkGolden(name, o, ref.Digest); err != nil {
		res.problem("%v", err)
	}

	if o.trace {
		if err := traceWorkload(o, fw, st, res); err != nil {
			return nil, err
		}
		return res, nil
	}

	heap, err := heapRound(fw, st)
	if err != nil {
		return nil, err
	}

	rounds := o.rounds
	if o.quick && rounds == 0 {
		rounds = 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		if rounds > 0 && i >= rounds {
			break
		}
		if rounds == 0 && i >= minRounds && time.Since(start).Seconds() >= o.seconds {
			break
		}
		r, err := runRound(fw, st, &res.Reference, roundOpts{id: i})
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		res.Samples = append(res.Samples, r)
	}
	summarize(res, st, heap)
	return res, nil
}

// summarize turns the rounds into the end-to-end metrics: medians over
// rounds, with their quartiles, and the verdict on correctness.
func summarize(res *result, st *stream, heap float64) {
	res.tally()
	// timings come from the rounds the hypervisor left alone, counts from
	// all of them
	stolen := make([]float64, len(res.Samples))
	for i, r := range res.Samples {
		stolen[i] = stolenShare(time.Duration(r.Steal*float64(time.Second)), r.Wall)
	}
	quiet, enough := quietest(stolen)
	res.QuietRounds = len(quiet)
	if !enough {
		res.Flags = append(res.Flags, fmt.Sprintf("the hypervisor withheld more than %.0f%% of the CPUs in all but %d of %d rounds; timings are from the %d least disturbed",
			100*stealLimit, len(quiet), len(res.Samples), len(quiet)))
	}
	quietRounds := make([]*round, len(quiet))
	for i, j := range quiet {
		quietRounds[i] = res.Samples[j]
	}
	all := func(f func(*round) float64) []float64 { return column(res.Samples, f) }
	col := func(f func(*round) float64) []float64 { return column(quietRounds, f) }
	// put reports the pct-th percentile of xs over rounds (50: the median)
	put := func(name, unit string, pct float64, xs []float64) {
		res.Metrics[name] = value{percentile(xs, pct), unit}
		q1, q3 := quartiles(xs)
		res.Quartiles[name] = [2]float64{q1, q3}
	}
	// Timings are stated at the reference host speed: the reading, times
	// or over the speed the run's probes found (hostspeed.go). A closed
	// loop runs as fast as the host lets it, so its rates and delays scale
	// with the host; the paced round's are set by its schedule and only its
	// busy time scales. The readings as taken are printed beside them.
	var probes []float64
	for _, p := range res.SetupProbeNs {
		probes = append(probes, p[:]...)
	}
	for _, r := range quietRounds {
		probes = append(probes, r.ProbeNs[:]...)
	}
	speed := hostSpeed(probes)
	res.Metrics["host_speed"] = value{speed, "ratio"}
	loopSpeed := speed
	if st.pacedRate > 0 {
		loopSpeed = 1
	}
	scaled := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	rate := col(func(r *round) float64 { return float64(r.Entries) / r.Wall })
	sessions := col(func(r *round) float64 { return float64(r.ReportsTimed) / r.Wall })
	cpu := col(func(r *round) float64 { return r.CPU * 1e9 / float64(r.Entries) })
	put("setup_s", "s", 50, scaled(res.SetupS, speed))
	put("entries_per_s", "1/s", 50, scaled(rate, 1/loopSpeed))
	put("sessions_per_s", "1/s", 50, scaled(sessions, 1/loopSpeed))
	put("cpu_ns_per_entry", "ns", 50, scaled(cpu, speed))
	put("setup_s_raw", "s", 50, res.SetupS)
	put("entries_per_s_raw", "1/s", 50, rate)
	put("sessions_per_s_raw", "1/s", 50, sessions)
	put("cpu_ns_per_entry_raw", "ns", 50, cpu)
	put("alloc_bytes_per_entry", "B", 50, all(func(r *round) float64 { return float64(r.AllocBytes) / float64(r.Entries) }))
	put("allocs_per_entry", "count", 50, all(func(r *round) float64 { return float64(r.Allocs) / float64(r.Entries) }))
	// verdict lag is the lowest decile over rounds, not the median. A
	// host stall only ever adds delay; on the paced workload the rounds it
	// spares agree within 2%, but in a noisy minute it touches more than
	// half the rounds of a run, and the median over rounds then swung by
	// 47% between runs where the lowest decile moved by 7%.
	lag := col(func(r *round) float64 { return r.LagP50 })
	put("verdict_lag_p50_ms", "ms", 10, scaled(lag, loopSpeed))
	put("verdict_lag_p50_ms_raw", "ms", 10, lag)
	put("verdict_lag_tail_ms", "ms", 10, scaled(col(func(r *round) float64 { return r.LagTail }), loopSpeed))
	put("stall_acc", "share", 50, all(func(r *round) float64 { return r.StallAcc }))
	put("rep_acc", "share", 50, all(func(r *round) float64 { return r.RepAcc }))
	res.Metrics["heap_bytes_per_open_session"] = value{heap, "B"}

	p50, tail, n := scrapeStats(res.Samples)
	res.Metrics["scrape_p50_ms"] = value{p50, "ms"}
	res.Metrics["scrape_tail_ms"] = value{tail, "ms"}
	if beyond(n, scrapeTailPct) < 10 {
		res.Flags = append(res.Flags, fmt.Sprintf("scrape_tail_ms: only %d samples beyond p%d", beyond(n, scrapeTailPct), scrapeTailPct))
	}
	if st.pacedRate > 0 {
		res.LateP50Ms = median(col(func(r *round) float64 { return r.LateP50 }))
		res.LateP99Ms = median(col(func(r *round) float64 { return r.LateP99 }))
		if res.LateP99Ms > float64(lateLimit)/1e6 {
			res.Flags = append(res.Flags, fmt.Sprintf("generator ran late: send_late_p99_ms %.3f", res.LateP99Ms))
		}
	}
	res.Metrics["failed_share"] = value{float64(res.Failed) / float64(max(res.Attempted, 1)), "share"}
	if err := checkAccuracy(res); err != nil {
		res.problem("%v", err)
	}
}

// column is one measurement of every round in rs.
func column(rs []*round, f func(*round) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// scrapeStats pools the rounds' HTTP reads, which are too few per round
// for percentiles of their own. The median is /metrics alone, the page a
// collector pulls all day: over the six pages together it would sit on
// the edge between two pages' costs and jump from run to run. The tail
// is over all six.
func scrapeStats(rounds []*round) (p50, tail float64, n int) {
	var all, metrics []float64
	for _, r := range rounds {
		for _, sc := range r.Scrapes {
			all = append(all, sc.Ms)
			if sc.Endpoint == 0 {
				metrics = append(metrics, sc.Ms)
			}
		}
	}
	return percentile(metrics, 50), percentile(all, scrapeTailPct), len(all)
}

// printResult prints every metric by name and unit, one per line.
func printResult(r *result) {
	fmt.Printf("== %s  seed %d  %d rounds  reference %s/%d\n", r.Workload, r.Seed, r.Rounds, r.Reference.Sum, r.Reference.Count)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		if q, ok := r.Quartiles[n]; ok {
			fmt.Printf("%-34s %16.6g %-6s q1 %.6g  q3 %.6g\n", n, v.Value, v.Unit, q[0], q[1])
		} else {
			fmt.Printf("%-34s %16.6g %s\n", n, v.Value, v.Unit)
		}
	}
	if r.OfferedRate > 0 {
		fmt.Printf("offered %.0f entries/s; generator late p50 %.3f ms, p99 %.3f ms\n", r.OfferedRate, r.LateP50Ms, r.LateP99Ms)
	}
	for _, f := range r.Flags {
		fmt.Println("flag:", f)
	}
	for _, p := range r.Problems {
		fmt.Println("PROBLEM:", p)
	}
}
