package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies the public call a span wraps.
type spanName uint8

const (
	spanSlot        spanName = iota // one replayed slot (root)
	spanTick                        // one metro tick (root)
	spanNext                        // capfile.Reader.Next
	spanProcess                     // core.Scope.ProcessSlot
	spanPublish                     // bus.Bus.Publish (all records of a slot)
	spanHistory                     // history.Store.Ingest (a delivered batch)
	spanPump                        // pump.Sink.WriteBatch
	spanLakeSpill                   // history.Lake.SpillBin
	spanLakeRead                    // history.Lake.ReadSeries
	spanShardIngest                 // shard.Supervisor.Ingest (a tick's records)
	spanShardSubmit                 // shard.Supervisor.SubmitCapture
	spanQueryHot                    // history per-UE window query
	spanQueryCold                   // history cell-range query
	spanQueryTopK                   // history TopK
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"slot", "tick", "capfile.next", "core.process_slot", "bus.publish",
	"history.ingest", "pump.write_batch", "lake.spill_bin", "lake.read_series",
	"shard.ingest", "shard.submit_capture", "query.hot", "query.cold", "query.topk",
}

// span is one recorded call. Trace ids are cell<<32 | SlotIdx, so a sink
// span (on the bus runner goroutine) links back to the slot whose
// records it delivered. parent is the index of the enclosing span on the
// same goroutine, or -1.
type span struct {
	name       spanName
	parent     int32
	trace      uint64
	start, end int64 // ns since the tracer epoch
}

// layerAgg accumulates one span name: calls, work units (records, bins)
// and total and self nanoseconds.
type layerAgg struct {
	calls, units, totalNs, selfNs int64
}

// tracer holds spans in memory while a traced run is measuring and writes
// them out when the run ends. Spans beyond maxSpans still aggregate.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	agg   [numSpanNames]layerAgg
}

// maxSpans bounds the span log (~25 MB when written out); lake spills
// alone would otherwise add hundreds of thousands per second in metro.
const maxSpans = 1 << 18

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func traceID(cell uint16, slot int) uint64 { return uint64(cell)<<32 | uint64(uint32(slot)) }

// enabled reports whether spans are being recorded; nil-safe so untraced
// runs pass a nil tracer.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// record stores one finished span and returns its index (-1 when only
// aggregated). childNs is the part of [start,end] covered by the span's
// children, which the caller timed itself.
func (t *tracer) record(name spanName, trace uint64, parent int32, start, end time.Time, childNs int64, units int64) int32 {
	s := span{name: name, parent: parent, trace: trace,
		start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds()}
	d := s.end - s.start
	t.mu.Lock()
	a := &t.agg[name]
	a.calls++
	a.units += units
	a.totalNs += d
	a.selfNs += d - childNs
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
	return idx
}

// setParent links already-recorded children to a root recorded after
// them (a root's self time needs its children's durations first).
func (t *tracer) setParent(children []int32, parent int32) {
	t.mu.Lock()
	for _, c := range children {
		if c >= 0 {
			t.spans[c].parent = parent
		}
	}
	t.mu.Unlock()
}

// layer returns the aggregate of one span name.
func (t *tracer) layer(name spanName) layerAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.agg[name]
}

// selfUsPerUnit is the mean self time per work unit, in µs.
func (a layerAgg) selfUsPerUnit() float64 {
	if a.units == 0 {
		return 0
	}
	return float64(a.selfNs) / 1e3 / float64(a.units)
}

// writeFile writes every stored span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"trace\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			spanNames[s.name], s.trace, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
