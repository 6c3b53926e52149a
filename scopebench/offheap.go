package main

import (
	"fmt"
	"syscall"
)

// offHeap is a fixed-capacity byte buffer mapped outside the Go heap.
// Recorded captures live here so that they neither count towards
// heap_live_mb nor stretch the garbage collector's pacing: with a
// capture file the program would read them from the page cache, not
// from its own heap.
type offHeap struct {
	buf []byte
	n   int
}

func newOffHeap(capacity int) (*offHeap, error) {
	b, err := syscall.Mmap(-1, 0, capacity, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d capture bytes: %w", capacity, err)
	}
	return &offHeap{buf: b}, nil
}

// Write implements io.Writer; it fails rather than grow past capacity.
func (o *offHeap) Write(p []byte) (int, error) {
	if o.n+len(p) > len(o.buf) {
		return 0, fmt.Errorf("off-heap buffer full (%d bytes)", len(o.buf))
	}
	copy(o.buf[o.n:], p)
	o.n += len(p)
	return len(p), nil
}

// Bytes returns the written prefix; valid until release.
func (o *offHeap) Bytes() []byte { return o.buf[:o.n] }

// release unmaps the buffer.
func (o *offHeap) release() error {
	if o.buf == nil {
		return nil
	}
	err := syscall.Munmap(o.buf)
	o.buf = nil
	return err
}
