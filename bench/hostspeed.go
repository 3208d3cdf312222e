package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed is not the benchmark's to keep. This guest shares its
// cores' caches and memory with neighbours, and what they take reaches no
// counter the guest can read: with nothing stolen, the half-minute median
// of cpu_ns_per_entry on wire_steady walked between 760 and 1070 ns in
// twelve minutes of one unchanged binary, and run medians taken minutes
// apart differed by up to a quarter. A fixed loop run on every CPU just
// before and just after a round moves with it: over those twelve minutes
// the table half of the loop below correlated 0.98 with the rounds' cost
// per entry (half-minute medians), and dividing each half-minute's median
// cost by its median probe cut the spread of those medians from 16.6% to
// 4% and their range from 33% to 13%. README.md has the experiment on all
// four workloads.
//
// The loop is a blend because the program is one: random read-modify-
// writes over a table that misses the core's L2 and hits the shared L3
// (what the neighbours slow most: 5.4–8.5 ns per step over those twelve
// minutes) and a dependent arithmetic chain that stays in registers
// (1.87–2.09 ns). The table alone moves 1.4 times as far as wire_steady
// does and twice as far as paced_scrape; arithmetic alone sees a tenth
// of it. Three arithmetic steps per table step is the blend that served
// the four workloads best together (each alone would pick 2 to 4).
const (
	probeTableBytes = 4 << 20
	probeSteps      = 1_000_000
	probeArithPer   = 3
	// refProbeNs is what one probe step (one table step and its arithmetic
	// steps) took on the host the bounds were set on in a middling hour:
	// a speed of 1 is that host then. It fixes the unit of the normalized
	// timings and nothing else; both sides of any comparison divide by it.
	refProbeNs = 13.0
)

var (
	probeOnce   sync.Once
	probeTables [][]uint64
	probeErr    error
	probeSink   uint64
)

// probeThreads is how many CPUs the probe loads at once: all of them up
// to the four goroutines a closed-loop round keeps busy.
func probeThreads() int { return min(runtime.NumCPU(), 4) }

// probeInit maps one table per thread outside the Go heap (the probe must
// not move the collector's trigger for the program under test) and
// touches every page.
func probeInit() {
	for t := 0; t < probeThreads(); t++ {
		m, err := syscall.Mmap(-1, 0, probeTableBytes,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			probeErr = fmt.Errorf("mapping the host-speed probe's table: %w", err)
			return
		}
		tab := unsafe.Slice((*uint64)(unsafe.Pointer(&m[0])), probeTableBytes/8)
		for i := range tab {
			tab[i] = uint64(i)
		}
		probeTables = append(probeTables, tab)
	}
}

// probeReps is how many readings one probe takes, back to back; it keeps
// the fastest. A neighbour's burst that lands on a 13 ms reading says
// little about the second-long round beside it: over 570 wire_steady
// rounds the smaller of two readings tracked the rounds' cost better than
// their mean (correlation of 20-round medians 0.92 against 0.88) and
// left the normalized medians a range of 11% against 16%.
const probeReps = 2

// probeHost takes one probe: the fastest of probeReps readings. A reading
// runs the loop once on every thread at the same time and is the mean
// time per step in nanoseconds; it takes about 13 ms and allocates
// nothing that outlives it. Nothing of the program under test may be
// running: a round probes before its first byte, with the fresh server
// idle, and after the server has drained and been collected.
func probeHost() (float64, error) {
	probeOnce.Do(probeInit)
	if probeErr != nil {
		return 0, probeErr
	}
	best := probeReading()
	for rep := 1; rep < probeReps; rep++ {
		best = min(best, probeReading())
	}
	return best, nil
}

func probeReading() float64 {
	ns := make([]float64, len(probeTables))
	sinks := make([]uint64, len(probeTables))
	var wg sync.WaitGroup
	for t := range probeTables {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			tab := probeTables[t]
			shift := uint(64 - 19) // 2^19 words = probeTableBytes
			t0 := time.Now()
			x := uint64(88172645463325252)
			for i := 0; i < probeSteps*probeArithPer; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			var f float64
			h := x
			for i := 0; i < probeSteps; i++ {
				h = (h ^ uint64(i)) * 1099511628211
				k := (h * 0x9E3779B97F4A7C15) >> shift
				tab[k] += h
				f += float64(tab[k]&1023) * 1.0001
			}
			ns[t] = float64(time.Since(t0)) / probeSteps
			sinks[t] = uint64(f) + h
		}(t)
	}
	wg.Wait()
	sum := 0.0
	for t, v := range ns {
		sum += v
		probeSink += sinks[t] // keeps the loops' results live
	}
	return sum / float64(len(ns))
}

// hostSpeed is the speed the host ran at over a run, from the probe
// readings taken around its rounds: 1 at the reference, below 1 when the
// neighbours are busy. The median over the run, because a probe is 26 ms
// of a host whose state a round averages over a second: single probes
// scatter by a tenth, and a round divided by its own two would inherit
// that.
func hostSpeed(probeNs []float64) float64 {
	return refProbeNs / median(probeNs)
}
