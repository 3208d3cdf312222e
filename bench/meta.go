package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo is the machine and build a result was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
	Shards     int    `json:"engine_shards"`
	Mailbox    int    `json:"engine_mailbox"`
}

func hostMeta() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit(),
		Shards:     benchShards,
		Mailbox:    benchMailbox,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git
// repository (the unattended harness runs from a plain file tree).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// golden pins, for one seed at full scale, the reference digest of every
// workload, and for every seed the accuracy each workload's verdicts
// must keep against the generator's ground truth.
type golden struct {
	Seed    int64             `json:"seed"`
	Digests map[string]digest `json:"digests"`
	// MinAcc[workload] = [stall_acc, rep_acc] floors.
	MinAcc map[string][2]float64 `json:"min_acc"`
}

// rootDir is the repository root relative to the working directory:
// the directory itself when the benchmark is run as BENCHMARK.json's
// command runs it, the parent under `go test`.
func rootDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "."
	}
	return ".."
}

func loadGolden() (*golden, error) {
	b, err := os.ReadFile(filepath.Join(rootDir(), "bench", "golden.json"))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// checkGolden compares a full-scale reference digest with the pinned
// one when the run uses the pinned seed.
func checkGolden(name string, o options, got digest) error {
	if o.quick {
		return nil
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if o.seed != g.Seed {
		return nil
	}
	want, ok := g.Digests[name]
	if !ok {
		return fmt.Errorf("golden.json pins no digest for %s", name)
	}
	if got != want {
		return fmt.Errorf("reference digest %s/%d differs from golden.json's %s/%d for seed %d",
			got.Sum, got.Count, want.Sum, want.Count, g.Seed)
	}
	return nil
}

// checkAccuracy fails a full-scale run whose verdicts agree with the
// generator's ground truth less often than golden.json allows: a fast
// wrong answer is not a result. (The quick scale trains on a fifth of
// the corpus and has no floor.)
func checkAccuracy(res *result) error {
	if res.Quick {
		return nil
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	floor, ok := g.MinAcc[res.Workload]
	if !ok {
		return fmt.Errorf("golden.json has no accuracy floor for %s", res.Workload)
	}
	if s := res.Metrics["stall_acc"].Value; s < floor[0] {
		return fmt.Errorf("stall_acc %.4f below the floor %.4f", s, floor[0])
	}
	if r := res.Metrics["rep_acc"].Value; r < floor[1] {
		return fmt.Errorf("rep_acc %.4f below the floor %.4f", r, floor[1])
	}
	return nil
}
