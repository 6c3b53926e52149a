package main

import (
	"sync"
	"time"
)

// queryKind is one class of history query the client issues.
type queryKind int

const (
	queryHot  queryKind = iota // a UE's trailing window (RAM rings)
	queryCold                  // an older cell range (lake or evicted)
	queryTopK                  // ranking across every tracked UE
)

// querySchedule is the fixed mix the client cycles through.
var querySchedule = [...]queryKind{queryHot, queryHot, queryCold, queryTopK}

// queryTarget runs the i-th query of a kind against a workload's store.
type queryTarget interface {
	query(kind queryKind, i int) error
}

// queryClient is the open-loop history reader. Queries fall due on a
// fixed wall-clock schedule while the benchmark is measuring, whatever
// the store's state, and each one is timed from its due time so a stall
// also counts against the queries queued behind it. While the benchmark
// pauses to generate input, the client pauses too and re-bases its
// schedule on resume.
type queryClient struct {
	target queryTarget
	period time.Duration
	tr     *tracer

	mu      sync.Mutex
	cond    *sync.Cond
	running bool
	stopped bool
	epoch   time.Time
	gen     int

	lateUs samples // completion - due (µs), keyed by due offset from resume (ns)

	// Owned by the client goroutine until run returns.
	attempted, failed int64
	serviceUs         [3][]float64
	done              chan struct{}
}

func newQueryClient(target queryTarget, period time.Duration, tr *tracer) *queryClient {
	q := &queryClient{target: target, period: period, tr: tr, done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	go q.run()
	return q
}

func (q *queryClient) resume() {
	q.mu.Lock()
	q.running = true
	q.epoch = time.Now()
	q.gen++
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *queryClient) pause() {
	q.mu.Lock()
	q.running = false
	q.mu.Unlock()
}

// stop ends the client and waits for its goroutine to exit.
func (q *queryClient) stop() {
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	q.cond.Broadcast()
	<-q.done
}

func (q *queryClient) run() {
	defer close(q.done)
	issued := 0
	for {
		q.mu.Lock()
		for !q.running && !q.stopped {
			q.cond.Wait()
		}
		if q.stopped {
			q.mu.Unlock()
			return
		}
		epoch, gen := q.epoch, q.gen
		q.mu.Unlock()

		for k := 1; ; k++ {
			due := epoch.Add(time.Duration(k) * q.period)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			q.mu.Lock()
			live := q.running && !q.stopped && q.gen == gen
			q.mu.Unlock()
			if !live {
				break
			}
			kind := querySchedule[issued%len(querySchedule)]
			start := time.Now()
			err := q.target.query(kind, issued)
			end := time.Now()
			issued++
			q.attempted++
			if err != nil {
				q.failed++
			}
			q.lateUs.add(due.Sub(epoch).Nanoseconds(), float64(end.Sub(due).Nanoseconds())/1e3)
			q.serviceUs[kind] = append(q.serviceUs[kind], float64(end.Sub(start).Nanoseconds())/1e3)
			if q.tr.enabled() {
				q.tr.record(spanQueryHot+spanName(kind), uint64(issued), -1, start, end, 0, 1)
			}
		}
	}
}
