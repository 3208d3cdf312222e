package main

import (
	"fmt"
	"syscall"
)

// arena keeps a stream's pre-encoded frames in anonymous mappings
// instead of the Go heap. A few hundred megabytes of live frames would
// otherwise double the collector's trigger and a round would see no
// collection at all, where the same server on its own collects several
// times a second: the benchmark's input must not pay the program's GC
// bill.
type arena struct {
	chunks [][]byte
	used   int // bytes taken from the last chunk
}

const arenaChunk = 32 << 20

// put copies b into the arena and returns the copy. A frame never
// straddles two chunks.
func (a *arena) put(b []byte) ([]byte, error) {
	if len(a.chunks) == 0 || a.used+len(b) > len(a.chunks[len(a.chunks)-1]) {
		m, err := syscall.Mmap(-1, 0, max(arenaChunk, len(b)),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("mapping %d bytes for frames: %w", max(arenaChunk, len(b)), err)
		}
		a.chunks = append(a.chunks, m)
		a.used = 0
	}
	c := a.chunks[len(a.chunks)-1]
	dst := c[a.used : a.used+len(b) : a.used+len(b)]
	copy(dst, b)
	a.used += len(b)
	return dst, nil
}

// free unmaps every chunk; frames handed out by put are dead after it.
func (a *arena) free() {
	for _, c := range a.chunks {
		_ = syscall.Munmap(c)
	}
	a.chunks, a.used = nil, 0
}
