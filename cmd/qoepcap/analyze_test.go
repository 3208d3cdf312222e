package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vqoe/internal/packet"
	"vqoe/internal/pcapio"
	"vqoe/internal/slo"
	"vqoe/internal/stats"
	"vqoe/internal/workload"
)

// TestAnalyzeAlertsOnCaptureClock runs -analyze on a capture whose
// traffic stops for 400 s midway: the alert log must walk ingest-stale
// through pending, firing and resolved, every line stamped in capture
// seconds, and the rule must fire inside the silence.
func TestAnalyzeAlertsOnCaptureClock(t *testing.T) {
	const silence = 400.0
	cfg := workload.DefaultStudyConfig()
	cfg.Sessions = 4
	cfg.Seed = 4
	entries := workload.GenerateStudy(cfg).Stream
	half := len(entries) / 2
	gapStart := 0.0
	for _, e := range entries[:half] {
		gapStart = max(gapStart, e.Timestamp+e.TransactionSec)
	}
	shift := gapStart + silence - entries[half].Timestamp
	for i := range entries[half:] {
		entries[half+i].Timestamp += shift
	}
	gapEnd := entries[half].Timestamp

	dir := t.TempDir()
	path := filepath.Join(dir, "gap.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcapio.NewWriter(f, time.Unix(1_700_000_000, 0))
	if err == nil {
		err = w.WriteAll(packet.Synthesize(entries, stats.NewRand(4)))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]string{}
	for _, e := range entries {
		hosts[e.ServerIP] = e.Host
	}
	var hl strings.Builder
	for ip, host := range hosts {
		hl.WriteString(ip + " " + host + "\n")
	}
	if err := os.WriteFile(path+".hosts", []byte(hl.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	// the report goes to stdout; keep it out of the test log
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	alertLog := filepath.Join(dir, "alerts.jsonl")
	err = doAnalyze(testFramework(t), path, "", 0, false, alertLog, 0)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}

	lf, err := os.Open(alertLog)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	var tos []string
	firedInGap := false
	sc := bufio.NewScanner(lf)
	for sc.Scan() {
		var tr slo.Transition
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("alert log line %q: %v", sc.Text(), err)
		}
		if tr.TS >= 1e9 {
			t.Errorf("alert log line %q is not stamped in capture seconds", sc.Text())
		}
		if tr.Rule != "ingest-stale" {
			continue
		}
		tos = append(tos, tr.To)
		if tr.To == "firing" && tr.TS >= gapStart+slo.StaleAfterSec && tr.TS <= gapEnd+1 {
			firedInGap = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"pending", "firing", "resolved"}
	i := 0
	for _, to := range tos {
		if i < len(want) && to == want[i] {
			i++
		}
	}
	if i < len(want) {
		t.Errorf("ingest-stale walked %v, want pending→firing→resolved", tos)
	}
	if !firedInGap {
		t.Errorf("ingest-stale never fired inside the silence [%.1f, %.1f] s (transitions %v)", gapStart, gapEnd, tos)
	}
}
