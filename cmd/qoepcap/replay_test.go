package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"vqoe/internal/packet"
	"vqoe/internal/pcapio"
	"vqoe/internal/stats"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

// capture synthesizes a study, serializes it through pcapio, and
// returns the raw capture bytes and the study's "ip host" lines (what
// qoepcap -export writes beside a capture).
func capture(t *testing.T, sessions int) ([]byte, string) {
	t.Helper()
	cfg := workload.DefaultStudyConfig()
	cfg.Sessions = sessions
	cfg.Seed = 11
	study := workload.GenerateStudy(cfg)
	pkts := packet.Synthesize(study.Stream, stats.NewRand(11))

	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, time.Unix(1700000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll(pkts); err != nil {
		t.Fatal(err)
	}
	var hosts strings.Builder
	seen := map[string]bool{}
	for _, e := range study.Stream {
		if !seen[e.ServerIP] {
			seen[e.ServerIP] = true
			fmt.Fprintf(&hosts, "%s %s\n", e.ServerIP, e.Host)
		}
	}
	return buf.Bytes(), hosts.String()
}

func sortEntries(es []weblog.Entry) {
	// parallel flows can start transactions on the same microsecond
	// with equal sizes, so the key must reach into the measured stats
	// to order ties deterministically on both sides
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		switch {
		case a.Timestamp != b.Timestamp:
			return a.Timestamp < b.Timestamp
		case a.Subscriber != b.Subscriber:
			return a.Subscriber < b.Subscriber
		case a.Bytes != b.Bytes:
			return a.Bytes < b.Bytes
		case a.TransactionSec != b.TransactionSec:
			return a.TransactionSec < b.TransactionSec
		case a.RTTAvg != b.RTTAvg:
			return a.RTTAvg < b.RTTAvg
		default:
			return a.BIFAvg < b.BIFAvg
		}
	})
}

// TestReplayMatchesBatchMetering proves the streaming replay path —
// incremental FlushIdle harvests on the capture clock — synthesizes
// the same entries as the one-shot MeterEntries over the full trace,
// on a capture file opened the way the tools open it, with and without
// its companion hosts file.
func TestReplayMatchesBatchMetering(t *testing.T) {
	raw, hosts := capture(t, 12)
	path := filepath.Join(t.TempDir(), "c.pcap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, withHosts := range []bool{false, true} {
		if withHosts {
			if err := os.WriteFile(path+".hosts", []byte(hosts), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		open := func() *pcapio.Reader {
			r, err := pcapio.Open(path, "")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			if (r.Hosts() > 0) != withHosts {
				t.Fatalf("hosts file present=%v, reader restores %d names", withHosts, r.Hosts())
			}
			return r
		}

		// the reference runs on the packets as read back from the
		// capture, so both paths see identical timestamps (pcap
		// truncates to microseconds) and the same name resolution
		pkts, err := open().ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		want := packet.MeterEntries(pkts)
		named := 0
		for _, e := range want {
			if e.Host != "" {
				named++
			}
		}
		if (named > 0) != withHosts {
			t.Fatalf("hosts file present=%v, %d of %d entries carry a server name", withHosts, named, len(want))
		}

		var got []weblog.Entry
		h := func(es []weblog.Entry) {
			got = append(got, es...) // copy semantics: append copies values
		}
		// An idle gap beyond the capture span: transactions close only
		// via the meter's own boundaries (new request, FIN), so
		// streaming must reproduce batch metering bit for bit. Idle
		// eviction legitimately forgets per-flow RTT history and is
		// covered separately.
		st, err := replayPcap(open(), h, 1<<20, replayBatchMax)
		if err != nil {
			t.Fatal(err)
		}
		if st.Packets != len(pkts) {
			t.Errorf("replayed %d of %d packets", st.Packets, len(pkts))
		}
		if st.Entries != len(want) {
			t.Errorf("replay emitted %d entries, batch metering %d", st.Entries, len(want))
		}
		if st.Batches < 2 {
			t.Errorf("replay used %d batches — streaming never happened", st.Batches)
		}
		if st.SpanSec <= 0 {
			t.Error("no capture span measured")
		}

		sortEntries(got)
		sortEntries(want)
		if !reflect.DeepEqual(got, want) {
			for i := 0; i < min(len(got), len(want)); i++ {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("hosts=%v entry %d diverges:\n got %+v\nwant %+v", withHosts, i, got[i], want[i])
				}
			}
			t.Fatalf("hosts=%v entry streams diverge in length: %d vs %d", withHosts, len(got), len(want))
		}
	}
}

// TestReplayBatchCap checks the batch cap bounds every emit call.
func TestReplayBatchCap(t *testing.T) {
	raw, _ := capture(t, 12)
	r, err := pcapio.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	maxSeen := 0
	h := func(es []weblog.Entry) {
		if len(es) > maxSeen {
			maxSeen = len(es)
		}
	}
	if _, err := replayPcap(r, h, replayIdleGapSec, 8); err != nil {
		t.Fatal(err)
	}
	if maxSeen > 8 {
		t.Errorf("batch of %d exceeded the cap of 8", maxSeen)
	}
	if maxSeen == 0 {
		t.Error("no batches delivered")
	}
}
