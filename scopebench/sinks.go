package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nrscope/internal/history"
	"nrscope/internal/lake"
	"nrscope/internal/pump"
	"nrscope/internal/telemetry"
)

// egressClock stamps the moment the benchmark hands a slot's output to
// the program's egress path (bus.Publish, or Supervisor.Ingest /
// SubmitCapture in metro), so sink wrappers can time each record from
// hand-off to its sink write completing. Stamps are kept per SlotIdx in
// a ring; a zero stamp (warm-up, setup) means "not measured".
type egressClock struct {
	epoch time.Time
	ring  []atomic.Int64
}

const egressRing = 1 << 16

func newEgressClock() *egressClock {
	return &egressClock{epoch: time.Now(), ring: make([]atomic.Int64, egressRing)}
}

func (e *egressClock) stamp(slot int, at time.Time) {
	e.ring[slot&(egressRing-1)].Store(at.Sub(e.epoch).Nanoseconds() + 1)
}

// observe adds one latency sample (ms) per measured record, keyed by
// the record's SlotIdx.
func (e *egressClock) observe(l *samples, recs []telemetry.Record, done time.Time) {
	now := done.Sub(e.epoch).Nanoseconds() + 1
	l.mu.Lock()
	for i := range recs {
		if at := e.ring[recs[i].SlotIdx&(egressRing-1)].Load(); at != 0 {
			l.cur = append(l.cur, sample{key: int64(recs[i].SlotIdx), v: float64(now-at) / 1e6})
		}
	}
	l.mu.Unlock()
}

// sample is one measurement and the key (slot, or due offset) that
// places it in a window.
type sample struct {
	key int64
	v   float64
}

// samples collects measurements on one goroutine and hands them to the
// benchmark's main goroutine chunk by chunk.
type samples struct {
	mu  sync.Mutex
	cur []sample
}

func (l *samples) add(key int64, v float64) {
	l.mu.Lock()
	l.cur = append(l.cur, sample{key: key, v: v})
	l.mu.Unlock()
}

// take returns the samples added since the last take.
func (l *samples) take() []sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.cur
	l.cur = nil
	return c
}

// historySink is the bus subscriber that folds records into a
// history.Store, wrapped so the benchmark can count deliveries, time
// Store.Ingest and observe egress latency. Its fields are owned by the
// bus runner goroutine until the subscription has closed.
type historySink struct {
	st   *history.Store
	cell uint16
	tr   *tracer
	eg   *egressClock // nil unless this sink is the last egress hop

	seen, delivered atomic.Int64 // published after lat, so a drained sink's samples are in
	batches         int64
	lat             samples

	dropEvery int // fault injection for the self-test: skip every n-th record
}

func (h *historySink) WriteBatch(recs []telemetry.Record) error {
	start := time.Now()
	seen, ingested := h.seen.Load(), int64(0)
	for i := range recs {
		seen++
		if h.dropEvery > 0 && seen%int64(h.dropEvery) == 0 {
			continue
		}
		h.st.Ingest(h.cell, recs[i])
		ingested++
	}
	end := time.Now()
	h.batches++
	if h.tr.enabled() && len(recs) > 0 {
		h.tr.record(spanHistory, traceID(h.cell, recs[0].SlotIdx), -1, start, end, 0, int64(len(recs)))
	}
	if h.eg != nil {
		h.eg.observe(&h.lat, recs, end)
	}
	h.delivered.Add(ingested)
	h.seen.Store(seen)
	return nil
}

func (h *historySink) Close() error { return nil }

// pumpNames numbers the pumps a process builds: a pump's obs
// instruments are keyed by its name, so every pump gets its own.
var pumpNames atomic.Int64

func pumpName(workload string) string {
	return fmt.Sprintf("bench_%s_%d", sanitize(workload), pumpNames.Add(1))
}

// pumpSink wraps a pump.Sink to time WriteBatch and observe egress.
type pumpSink struct {
	p  *pump.Sink
	tr *tracer
	eg *egressClock

	records atomic.Int64 // published after lat, so a drained sink's samples are in
	batches int64
	lat     samples
}

func (s *pumpSink) WriteBatch(recs []telemetry.Record) error {
	start := time.Now()
	err := s.p.WriteBatch(recs)
	end := time.Now()
	if err != nil {
		return err
	}
	s.batches++
	if s.tr.enabled() && len(recs) > 0 {
		s.tr.record(spanPump, traceID(0, recs[0].SlotIdx), -1, start, end, 0, int64(len(recs)))
	}
	s.eg.observe(&s.lat, recs, end)
	s.records.Add(int64(len(recs)))
	return nil
}

func (s *pumpSink) Close() error { return s.p.Close() }

// tracedLake times the history.Lake calls the store makes into the lake.
type tracedLake struct {
	*lake.Lake
	tr *tracer
}

func (l *tracedLake) SpillBin(cell, rnti uint16, cellSeries bool, binIdx int64, b *history.Bin) {
	if !l.tr.enabled() {
		l.Lake.SpillBin(cell, rnti, cellSeries, binIdx, b)
		return
	}
	start := time.Now()
	l.Lake.SpillBin(cell, rnti, cellSeries, binIdx, b)
	l.tr.record(spanLakeSpill, uint64(cell)<<32|uint64(uint32(binIdx)), -1, start, time.Now(), 0, 1)
}

func (l *tracedLake) ReadSeries(cell, rnti uint16, cellSeries bool, fromIdx, toIdx int64, visit func(binIdx int64, b history.Bin)) error {
	if !l.tr.enabled() {
		return l.Lake.ReadSeries(cell, rnti, cellSeries, fromIdx, toIdx, visit)
	}
	start := time.Now()
	err := l.Lake.ReadSeries(cell, rnti, cellSeries, fromIdx, toIdx, visit)
	l.tr.record(spanLakeRead, uint64(cell)<<32|uint64(uint32(fromIdx)), -1, start, time.Now(), 0, 1)
	return err
}

// receiver is the in-process loopback remote-write backend. It decodes
// every request body (snappy block format, then the WriteRequest
// protobuf) and counts one record per tbs_bits time series — the pump
// writes one series per schema field per record.
type receiver struct {
	srv     *http.Server
	ln      net.Listener
	records atomic.Int64
	errs    atomic.Int64
	done    chan struct{}

	mu   sync.Mutex
	body bytes.Buffer
	raw  []byte
}

const recordSeries = "nrscope_dci_tbs_bits"

func startReceiver() (*receiver, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("receiver: %w", err)
	}
	r := &receiver{ln: ln, done: make(chan struct{})}
	r.srv = &http.Server{Handler: http.HandlerFunc(r.serve), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return r, nil
}

func (r *receiver) url() string { return "http://" + r.ln.Addr().String() + "/api/v1/write" }

func (r *receiver) serve(w http.ResponseWriter, req *http.Request) {
	// One keep-alive connection posts at a time; the buffers are reused.
	r.mu.Lock()
	defer r.mu.Unlock()
	r.body.Reset()
	_, err := r.body.ReadFrom(req.Body)
	if err == nil {
		var raw []byte
		if raw, err = snappyDecodeInto(r.raw[:0], r.body.Bytes()); err == nil {
			r.raw = raw
			var n int64
			if n, err = countSeries(raw, recordSeries); err == nil {
				r.records.Add(n)
				w.WriteHeader(http.StatusNoContent)
				return
			}
		}
	}
	r.errs.Add(1)
	http.Error(w, err.Error(), http.StatusBadRequest)
}

func (r *receiver) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	<-r.done
	return err
}

var errCorrupt = errors.New("receiver: corrupt body")

// snappyDecodeInto decodes one snappy block-format buffer, reusing dst.
func snappyDecodeInto(dst, src []byte) ([]byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 || n > 1<<30 {
		return nil, errCorrupt
	}
	src = src[k:]
	if uint64(cap(dst)) < n {
		dst = make([]byte, 0, n)
	}
	for len(src) > 0 {
		tag := src[0]
		src = src[1:]
		var length, offset int
		switch tag & 3 {
		case 0:
			length = int(tag >> 2)
			if length >= 60 {
				nb := length - 59
				if len(src) < nb {
					return nil, errCorrupt
				}
				length = 0
				for i := 0; i < nb; i++ {
					length |= int(src[i]) << (8 * i)
				}
				src = src[nb:]
			}
			length++
			if len(src) < length {
				return nil, errCorrupt
			}
			dst = append(dst, src[:length]...)
			src = src[length:]
			continue
		case 1:
			if len(src) < 1 {
				return nil, errCorrupt
			}
			length = int(tag>>2&7) + 4
			offset = int(tag>>5)<<8 | int(src[0])
			src = src[1:]
		case 2:
			if len(src) < 2 {
				return nil, errCorrupt
			}
			length = int(tag>>2) + 1
			offset = int(binary.LittleEndian.Uint16(src))
			src = src[2:]
		case 3:
			if len(src) < 4 {
				return nil, errCorrupt
			}
			length = int(tag>>2) + 1
			offset = int(binary.LittleEndian.Uint32(src))
			src = src[4:]
		}
		if offset <= 0 || offset > len(dst) {
			return nil, errCorrupt
		}
		for i := 0; i < length; i++ {
			dst = append(dst, dst[len(dst)-offset])
		}
	}
	if uint64(len(dst)) != n {
		return nil, errCorrupt
	}
	return dst, nil
}

// nextField splits the first field off a protobuf message. val is the
// payload of a length-delimited field and nil for the other wire types.
func nextField(msg []byte) (field int, val, rest []byte, err error) {
	key, k := binary.Uvarint(msg)
	if k <= 0 {
		return 0, nil, nil, errCorrupt
	}
	msg = msg[k:]
	switch key & 7 {
	case 0:
		if _, k = binary.Uvarint(msg); k <= 0 {
			return 0, nil, nil, errCorrupt
		}
		return int(key >> 3), nil, msg[k:], nil
	case 1:
		if len(msg) < 8 {
			return 0, nil, nil, errCorrupt
		}
		return int(key >> 3), nil, msg[8:], nil
	case 5:
		if len(msg) < 4 {
			return 0, nil, nil, errCorrupt
		}
		return int(key >> 3), nil, msg[4:], nil
	case 2:
		l, k := binary.Uvarint(msg)
		if k <= 0 || uint64(len(msg)-k) < l {
			return 0, nil, nil, errCorrupt
		}
		return int(key >> 3), msg[k : k+int(l)], msg[k+int(l):], nil
	}
	return 0, nil, nil, errCorrupt
}

// countSeries counts the WriteRequest time series whose __name__ label
// equals name, without allocating: the receiver runs beside the program
// under test and must not compete with it for CPU or GC.
func countSeries(req []byte, name string) (int64, error) {
	var n int64
	for len(req) > 0 {
		field, ts, rest, err := nextField(req)
		if err != nil {
			return 0, err
		}
		req = rest
		if field != 1 || ts == nil {
			continue
		}
		for len(ts) > 0 {
			field, lbl, rest, err := nextField(ts)
			if err != nil {
				return 0, err
			}
			ts = rest
			if field != 1 || lbl == nil {
				continue
			}
			var key, val []byte
			for len(lbl) > 0 {
				f, b, rest, err := nextField(lbl)
				if err != nil {
					return 0, err
				}
				lbl = rest
				switch f {
				case 1:
					key = b
				case 2:
					val = b
				}
			}
			if string(key) == "__name__" && string(val) == name {
				n++
			}
		}
	}
	return n, nil
}
