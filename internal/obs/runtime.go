package obs

import (
	"fmt"
	"runtime"
)

// WriteRuntimeMetrics renders process-introspection gauges in the
// Prometheus text format: goroutine count, heap occupancy, and GC
// pause behaviour. These answer the "what is the process doing under
// load" half of the observability story that the pipeline's own
// counters cannot (a mailbox backlog looks identical whether the cause
// is slow inference or a GC death spiral).
//
// runtime.ReadMemStats stops the world for a moment, so this belongs
// on the scrape path (seconds apart), never the ingest path. The
// families go out through the caller's printf, so byte counting and
// the first write error stay with the writer that owns the response.
func WriteRuntimeMetrics(printf func(format string, args ...any)) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	lastPause := float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
	if ms.NumGC == 0 {
		lastPause = 0
	}
	for _, fam := range []struct {
		name, help, typ string
		value           string
	}{
		{"vqoe_go_goroutines", "Live goroutines.", "gauge", fmt.Sprintf("%d", runtime.NumGoroutine())},
		{"vqoe_go_heap_alloc_bytes", "Heap bytes allocated and in use.", "gauge", fmt.Sprintf("%d", ms.HeapAlloc)},
		{"vqoe_go_heap_sys_bytes", "Heap bytes obtained from the OS.", "gauge", fmt.Sprintf("%d", ms.HeapSys)},
		{"vqoe_go_heap_objects", "Live heap objects.", "gauge", fmt.Sprintf("%d", ms.HeapObjects)},
		{"vqoe_go_gc_runs_total", "Completed GC cycles.", "counter", fmt.Sprintf("%d", ms.NumGC)},
		{"vqoe_go_gc_pause_last_seconds", "Most recent GC stop-the-world pause.", "gauge", fmt.Sprintf("%g", lastPause)},
		{"vqoe_go_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time.", "counter", fmt.Sprintf("%g", float64(ms.PauseTotalNs)/1e9)},
	} {
		printf("# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			fam.name, fam.help, fam.name, fam.typ, fam.name, fam.value)
	}
}
