// Live HTTP demo: a throttled segment server and a real HTTP client
// run over localhost, the client's measured transfer timings are
// turned into weblog entries, and the trained framework assesses the
// session — showing the detection pipeline working on genuine network
// I/O rather than simulated transfers.
//
// The server's bandwidth is stepped down mid-session, so the client's
// adaptation (and, if starved, its stalls) appear in the assessment.
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"vqoe/internal/core"
	"vqoe/internal/features"
	"vqoe/internal/mos"
	"vqoe/internal/weblog"
)

// demo parameters: small segments and a generous rate keep the whole
// session under a few seconds of wall time.
const (
	segments      = 30
	segSizeHiKB   = 220     // high-quality segment
	segSizeLoKB   = 60      // low-quality segment
	bandwidthHigh = 8 << 20 // bytes/s served before the squeeze
	bandwidthLow  = 1 << 20 // bytes/s after it
)

func main() {
	// 1. Train the framework the live tools serve without model files
	//    (quickly, on a small synthetic corpus).
	fmt.Println("training framework on a synthetic corpus...")
	fw, err := core.ServingFramework("", "", 600, 41)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Start the throttled segment server.
	var slow atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/videoplayback", func(w http.ResponseWriter, r *http.Request) {
		size, _ := strconv.Atoi(r.URL.Query().Get("clen"))
		if size <= 0 {
			size = segSizeHiKB * 1000
		}
		rate := bandwidthHigh
		if slow.Load() {
			rate = bandwidthLow
		}
		throttledWrite(w, size, rate)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("segment server on %s\n\n", base)

	// 3. Stream the session: a simple client-side ABR fetches segments
	//    and records real transfer timings.
	start := time.Now()
	var entries []weblog.Entry
	quality := "high"
	for seg := 0; seg < segments; seg++ {
		if seg == segments/3 {
			slow.Store(true) // bandwidth squeeze kicks in
		}
		size := segSizeHiKB * 1000
		if quality == "low" {
			size = segSizeLoKB * 1000
		}
		t0 := time.Since(start).Seconds()
		dur, n, err := fetch(base, size, seg)
		if err != nil {
			log.Fatal(err)
		}
		entries = append(entries, weblog.Entry{
			Timestamp:      t0,
			Subscriber:     "live",
			Host:           "r1---sn-live.googlevideo.com",
			ServerIP:       "127.0.0.1",
			ServerPort:     443,
			Encrypted:      true,
			Bytes:          n,
			TransactionSec: dur,
			RTTAvg:         0.002, // localhost
			RTTMin:         0.001,
			RTTMax:         0.004,
			BDP:            float64(n) / dur * 0.002,
			BIFAvg:         float64(n) / 4,
			BIFMax:         float64(n) / 2,
		})
		// naive ABR on measured goodput: the squeeze to 1 MB/s forces
		// the switch down, recovery would switch back up
		goodput := float64(n) / dur
		newQuality := quality
		if goodput < 2.5e6 {
			newQuality = "low"
		} else if goodput > 5e6 {
			newQuality = "high"
		}
		if newQuality != quality {
			fmt.Printf("  seg %2d: goodput %.1f MB/s → switching to %s quality\n",
				seg, goodput/1e6, newQuality)
			quality = newQuality
		}
	}

	// 4. Assess the real session.
	obs := features.FromEntries(entries)
	report := fw.Analyze(obs)
	score := mos.FromReport(report)
	fmt.Printf("\nsession complete: %d segments over real HTTP\n", len(entries))
	fmt.Printf("assessment: %s\n", report)
	fmt.Printf("estimated MOS: %.1f (%s)\n", float64(score), score.Verbal())
}

// throttledWrite streams size bytes at the given rate (bytes/s).
func throttledWrite(w http.ResponseWriter, size, rate int) {
	w.Header().Set("Content-Length", strconv.Itoa(size))
	buf := make([]byte, 16<<10)
	remaining := size
	chunkTime := time.Duration(float64(len(buf)) / float64(rate) * float64(time.Second))
	for remaining > 0 {
		n := len(buf)
		if n > remaining {
			n = remaining
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		remaining -= n
		time.Sleep(chunkTime)
	}
}

// fetch downloads one segment and returns its transfer duration and
// byte count.
func fetch(base string, size, seg int) (float64, int, error) {
	t0 := time.Now()
	resp, err := http.Get(fmt.Sprintf("%s/videoplayback?clen=%d&seq=%d", base, size, seg))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(t0).Seconds(), int(n), nil
}
