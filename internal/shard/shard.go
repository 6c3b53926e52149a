// Package shard is the metro-scale cell supervisor: one process
// monitoring hundreds of cells partitions them across N shards, each
// shard owning its own ingest worker, its own bounded queue, its own
// history.Store partition and (optionally) its own fusion aggregator —
// the always-on-watcher posture OWL argued control-channel measurement
// needs, grown from NR-Scope's one-cell pipeline to a deployment.
//
// Failure containment is the point of the partitioning: a shard whose
// worker panics or stalls is restarted by the supervisor with its store
// partition intact — the partition object survives the worker, so the
// restarted worker resumes folding into the same retained rings.
// Records arriving for a restarting shard's cells are queued in the
// shard's bounded ring under DropOldest (freshness over completeness
// while the worker is down: drops are counted, never blocking), and the
// steady-state backpressure policy is configurable (Block for lossless
// benchmark/eval ingest).
//
// Cross-shard queries go through the rollup layer (rollup.go): fused
// TopK over every partition, merged deployment snapshots, per-shard
// health with queue depth/drops/restarts, carrier-aggregation
// candidates correlated across every partition, and merged handover
// candidates when per-shard fusion is on. Per-shard
// backpressure and health are exported via internal/obs under
// nrscope_shard_* (metrics.go).
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/core"
	"nrscope/internal/fusion"
	"nrscope/internal/history"
	"nrscope/internal/phy"
	"nrscope/internal/radio"
	"nrscope/internal/telemetry"
)

// Policy is a shard queue's steady-state backpressure policy (the bus
// policies, reused: the semantics are identical).
type Policy = bus.Policy

// Backpressure policies. During a restart window the effective policy
// is always DropOldest regardless of configuration: a dead worker must
// not block its producers.
const (
	DropOldest = bus.DropOldest
	Block      = bus.Block
)

// ErrClosed is returned by Ingest and IngestSpare after Close.
var ErrClosed = errors.New("shard: supervisor closed")

// Config tunes a Supervisor. The zero value is usable: every field
// defaults sensibly in New.
type Config struct {
	// Shards is the number of cell partitions (default 1).
	Shards int
	// QueueSize bounds each shard's ingest ring queue, in records
	// (default 8192).
	QueueSize int
	// MaxBatch is how many queued records a shard worker drains per
	// apply pass (default 256).
	MaxBatch int
	// Policy is the steady-state backpressure policy of the shard
	// queues (default DropOldest — live deployments prefer fresh
	// telemetry; use Block for lossless benchmark or eval ingest).
	Policy Policy
	// History configures each shard's history.Store partition. MaxUEs
	// is per partition.
	History history.Config
	// Fusion gives each shard its own fusion.Aggregator folding into
	// the shard's partition store: handover candidates are detected
	// within a shard's cells and merged by the rollup layer (cross-shard
	// handovers are not matched — partitioning trades that for
	// isolation).
	Fusion bool
	// Bus, if set, receives every applied record: each shard worker is
	// its own publisher goroutine into the (thread-safe) bus, so -sink
	// fan-out composes with sharding.
	Bus *bus.Bus
	// StallTimeout declares a worker stalled when its queue is
	// non-empty but nothing has been applied for this long; the
	// supervisor then supersedes it with a fresh worker (default 2s;
	// negative disables stall detection).
	StallTimeout time.Duration
	// CheckInterval is the supervisor monitor's health-check cadence
	// (default 100ms).
	CheckInterval time.Duration
	// MaxRestarts bounds per-shard restarts; beyond it the shard is
	// declared dead and its records become counted drops (default 16;
	// negative = unlimited).
	MaxRestarts int
	// ApplyHook, if set, is invoked for every record just before it is
	// applied, outside the shard's apply lock. It exists for fault
	// injection in tests (a panicking or blocking hook exercises the
	// restart and stall paths); leave nil in production.
	ApplyHook func(shard int, cell uint16, rec *telemetry.Record)
	// DecodeHook, if set, is invoked for every queued capture just
	// before the shard worker blind-decodes it, outside the apply lock.
	// Fault injection for the decode-in-shard path; leave nil in
	// production.
	DecodeHook func(shard int, cell uint16, cap *radio.Capture)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 8192
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 2 * time.Second
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 100 * time.Millisecond
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 16
	}
	return c
}

// item is one queued unit of shard work: a telemetry record, a
// spare-capacity split (spare != nil), or a raw slot capture to
// blind-decode inside the shard worker (cap != nil).
type item struct {
	cell    uint16
	slotIdx int
	rec     telemetry.Record
	spare   *telemetry.SpareCapacity
	cap     *radio.Capture
}

// Supervisor partitions cells across shards and supervises the shard
// workers. AddCell calls must precede Start; Ingest routes to the
// owning shard through an immutable map afterwards, so the hot path
// takes no supervisor-level lock.
type Supervisor struct {
	cfg    Config
	shards []*shardState
	route  map[uint16]*shardState

	started bool
	closed  atomic.Bool

	monitorStop chan struct{}
	monitorDone chan struct{}
}

// New creates a supervisor with cfg.Shards empty shards. Register cells
// with AddCell, then call Start.
func New(cfg Config) *Supervisor {
	cfg = cfg.withDefaults()
	s := &Supervisor{
		cfg:         cfg,
		route:       make(map[uint16]*shardState),
		monitorStop: make(chan struct{}),
		monitorDone: make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		st := history.New(cfg.History)
		sh := &shardState{
			sup:   s,
			idx:   i,
			store: st,
			buf:   make([]item, cfg.QueueSize),
			wake:  make(chan struct{}, 1),
			met:   metricsFor(i),
		}
		if cfg.Fusion {
			sh.agg = fusion.NewWithStore(st)
			if cfg.History.IdleHorizon > 0 {
				sh.agg.IdleHorizon = cfg.History.IdleHorizon
			}
		}
		sh.notFull = sync.NewCond(&sh.mu)
		sh.met.capacity.Set(int64(cfg.QueueSize))
		s.shards = append(s.shards, sh)
	}
	met.shards.Set(int64(cfg.Shards))
	return s
}

// Shards reports the shard count.
func (s *Supervisor) Shards() int { return len(s.shards) }

// AttachLakes gives every shard's history partition its own spill
// target (history bins evicted from a partition's RAM rings land in
// that shard's lake, and the partition's queries — and therefore the
// rollup fan-in — answer across RAM + disk transparently). The opener
// is called once per shard index so the caller controls the on-disk
// layout (typically one lake directory per shard). Must be called
// after New and before Start.
func (s *Supervisor) AttachLakes(open func(shard int) (history.Lake, error)) error {
	if s.started {
		return errors.New("shard: AttachLakes after Start")
	}
	for i, sh := range s.shards {
		l, err := open(i)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		sh.store.AttachLake(l)
	}
	return nil
}

// Store returns shard i's history partition (for tests and partition-
// local queries; cross-shard queries go through the rollup layer).
func (s *Supervisor) Store(i int) *history.Store { return s.shards[i].store }

// AttachScope hands a cell's telemetry engine to the shard owning the
// cell, enabling SubmitCapture: the shard worker blind-decodes the
// cell's captures itself instead of the driver, folding the decoded
// records and spare-capacity splits straight into its partition. The
// scope must not be driven concurrently by anyone else. Must be called
// after AddCell and before Start.
func (s *Supervisor) AttachScope(cellID uint16, sc *core.Scope) error {
	if s.started {
		return errors.New("shard: AttachScope after Start")
	}
	if sc == nil {
		return fmt.Errorf("shard: nil scope for cell %d", cellID)
	}
	sh, ok := s.route[cellID]
	if !ok {
		return fmt.Errorf("shard: AttachScope for unregistered cell %d", cellID)
	}
	if sh.scopes == nil {
		sh.scopes = make(map[uint16]*core.Scope)
	}
	if _, dup := sh.scopes[cellID]; dup {
		return fmt.Errorf("shard: cell %d already has a scope", cellID)
	}
	sh.scopes[cellID] = sc
	return nil
}

// Partition reports which shard owns a cell.
func (s *Supervisor) Partition(cellID uint16) (int, bool) {
	sh, ok := s.route[cellID]
	if !ok {
		return 0, false
	}
	return sh.idx, true
}

// AddCell registers a cell with the supervisor, assigning it
// round-robin to the shard with the fewest cells (registration order is
// the deterministic tiebreak). Must be called before Start.
func (s *Supervisor) AddCell(cellID uint16, mu phy.Numerology) (int, error) {
	if s.started {
		return 0, errors.New("shard: AddCell after Start")
	}
	if !mu.Valid() {
		return 0, fmt.Errorf("shard: invalid numerology for cell %d", cellID)
	}
	if _, dup := s.route[cellID]; dup {
		return 0, fmt.Errorf("shard: cell %d already registered", cellID)
	}
	sh := s.shards[0]
	for _, cand := range s.shards[1:] {
		if cand.cells < sh.cells {
			sh = cand
		}
	}
	if sh.agg != nil {
		if err := sh.agg.AddCell(cellID, mu); err != nil {
			return 0, err
		}
	} else if err := sh.store.AddCell(cellID, mu.SlotDuration()); err != nil {
		return 0, err
	}
	sh.cells++
	sh.cellIDs = append(sh.cellIDs, cellID)
	s.route[cellID] = sh
	met.cells.Set(int64(len(s.route)))
	return sh.idx, nil
}

// Start launches one worker per shard and the health monitor.
func (s *Supervisor) Start() error {
	if s.started {
		return errors.New("shard: already started")
	}
	s.started = true
	for _, sh := range s.shards {
		sh.startWorker(sh.gen.Load())
	}
	go s.monitor()
	return nil
}

// Ingest routes one record to the shard owning its cell. Safe for
// concurrent use. Under DropOldest (or while the owning shard's worker
// is down) a full queue evicts its oldest record as a counted drop;
// under Block it waits for space.
func (s *Supervisor) Ingest(cellID uint16, rec telemetry.Record) error {
	if s.closed.Load() {
		return ErrClosed
	}
	sh, ok := s.route[cellID]
	if !ok {
		return fmt.Errorf("shard: unknown cell %d", cellID)
	}
	sh.push(item{cell: cellID, rec: rec})
	return nil
}

// IngestSpare routes one TTI's spare-capacity split to the shard owning
// the cell.
func (s *Supervisor) IngestSpare(cellID uint16, slotIdx int, sp *telemetry.SpareCapacity) error {
	if sp == nil {
		return nil
	}
	if s.closed.Load() {
		return ErrClosed
	}
	sh, ok := s.route[cellID]
	if !ok {
		return fmt.Errorf("shard: unknown cell %d", cellID)
	}
	sh.push(item{cell: cellID, slotIdx: slotIdx, spare: sp})
	return nil
}

// SubmitCapture routes one raw slot capture to the shard owning its
// cell; the shard worker blind-decodes it with the cell's attached
// scope (AttachScope) and folds the results into its partition.
// Captures ride the same bounded queue as records, under the same
// backpressure and restart accounting. Per-cell submissions must be in
// slot order (the decode state is sequential across slots).
func (s *Supervisor) SubmitCapture(cellID uint16, cap *radio.Capture) error {
	if s.closed.Load() {
		return ErrClosed
	}
	sh, ok := s.route[cellID]
	if !ok {
		return fmt.Errorf("shard: unknown cell %d", cellID)
	}
	if sh.scopes[cellID] == nil {
		return fmt.Errorf("shard: cell %d has no attached scope", cellID)
	}
	sh.push(item{cell: cellID, slotIdx: cap.SlotIdx, cap: cap})
	return nil
}

// Flush blocks until every live shard's queue has been fully applied
// (or counted dropped) — the barrier benchmarks and tests use between
// an ingest burst and a query. Dead shards (restart budget exhausted)
// are skipped. Must not be called after Close.
func (s *Supervisor) Flush() {
	for _, sh := range s.shards {
		for !sh.dead.Load() {
			sh.mu.Lock()
			empty := sh.n == 0
			sh.mu.Unlock()
			if empty && sh.ingested.Load() == sh.applied.Load()+sh.dropped.Load() {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// Close stops the supervisor: Ingest starts returning ErrClosed, the
// monitor exits, every live worker drains its queue in full, and shard
// state (store partitions, aggregators) remains readable for end-of-run
// rollups. Idempotent.
func (s *Supervisor) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.monitorStop)
	if s.started {
		<-s.monitorDone
	}
	for _, sh := range s.shards {
		sh.beginClose()
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		done := sh.workerDone
		up := sh.workerUp.Load()
		// A worker that died after the monitor stopped leaves its queue
		// behind: count it as dropped so the accounting closes.
		if !up && sh.n > 0 {
			sh.countDropsLocked(sh.n)
			sh.n, sh.head = 0, 0
			sh.met.depth.Set(0)
		}
		sh.mu.Unlock()
		if done != nil && up {
			<-done
		}
	}
	return nil
}

// monitor is the supervisor's health loop: it restarts dead workers,
// supersedes stalled ones, and refreshes the tracked-UE gauges.
func (s *Supervisor) monitor() {
	defer close(s.monitorDone)
	ticker := time.NewTicker(s.cfg.CheckInterval)
	defer ticker.Stop()
	type stallTrack struct {
		applied int64
		since   time.Time
	}
	tracks := make([]stallTrack, len(s.shards))
	for {
		select {
		case <-s.monitorStop:
			return
		case <-ticker.C:
		}
		var ues int64
		for i, sh := range s.shards {
			tracked := int64(sh.store.TrackedUEs())
			sh.met.ues.Set(tracked)
			ues += tracked
			if sh.dead.Load() {
				continue
			}
			if !sh.workerUp.Load() {
				s.restart(sh)
				tracks[i] = stallTrack{}
				continue
			}
			if s.cfg.StallTimeout <= 0 {
				continue
			}
			sh.mu.Lock()
			depth := sh.n
			sh.mu.Unlock()
			applied := sh.applied.Load() + sh.dropped.Load()
			if depth == 0 || applied != tracks[i].applied {
				tracks[i] = stallTrack{applied: applied}
				continue
			}
			if tracks[i].since.IsZero() {
				tracks[i].since = time.Now()
				continue
			}
			if time.Since(tracks[i].since) >= s.cfg.StallTimeout {
				sh.stalls.Add(1)
				sh.met.stalls.Inc()
				s.restart(sh)
				tracks[i] = stallTrack{}
			}
		}
		met.ues.Set(ues)
	}
}

// restart brings up a fresh worker on the shard's existing queue and
// store partition. A stalled predecessor is superseded by the
// generation bump: it exits at its next collect, and the apply lock
// keeps the two from folding into the partition concurrently.
func (s *Supervisor) restart(sh *shardState) {
	if s.cfg.MaxRestarts >= 0 && int(sh.restarts.Load()) >= s.cfg.MaxRestarts {
		if sh.dead.CompareAndSwap(false, true) {
			// Beyond the budget the shard stays down; wake any Block
			// publishers so they fall through to DropOldest eviction.
			sh.mu.Lock()
			sh.notFull.Broadcast()
			sh.mu.Unlock()
		}
		return
	}
	sh.restarts.Add(1)
	sh.met.restarts.Inc()
	sh.startWorker(sh.gen.Add(1))
}

// shardState is one shard: its bounded ingest ring, its worker, its
// history partition and optional fusion aggregator, and its health
// accounting.
type shardState struct {
	sup   *Supervisor
	idx   int
	store *history.Store
	agg   *fusion.Aggregator
	met   *shardMetrics

	cells   int
	cellIDs []uint16

	// scopes holds the per-cell telemetry engines attached before Start
	// (AttachScope); read-only afterwards, so workers touch it without
	// the queue lock.
	scopes map[uint16]*core.Scope

	mu      sync.Mutex
	notFull *sync.Cond
	buf     []item
	head, n int
	closed  bool
	wake    chan struct{}

	// workerDone is replaced (under mu) each time a worker generation
	// starts; Close waits on the current one.
	workerDone chan struct{}

	// applyMu serializes partition mutation (store + aggregator folds)
	// between a worker, a superseding worker, and rollup queries that
	// read the (unlocked) fusion aggregator.
	applyMu sync.Mutex

	gen      atomic.Int64
	workerUp atomic.Bool
	dead     atomic.Bool

	ingested atomic.Int64 // records accepted into the queue
	applied  atomic.Int64 // records folded into the partition
	dropped  atomic.Int64 // queue evictions + close-time discards
	rejected atomic.Int64 // pushes refused by a closed queue
	decoded  atomic.Int64 // slot captures blind-decoded in the worker
	records  atomic.Int64 // telemetry records those decodes produced
	restarts atomic.Int64
	stalls   atomic.Int64
}

// countDropsLocked accounts n dropped records. Caller holds sh.mu.
func (sh *shardState) countDropsLocked(n int) {
	sh.dropped.Add(int64(n))
	sh.met.dropped.Add(int64(n))
}

// push enqueues one item. Under Block policy it waits for space while
// the worker is up; a down (or dead) worker degrades to DropOldest so a
// restart window never blocks producers.
func (sh *shardState) push(it item) {
	sh.mu.Lock()
	for sh.n == len(sh.buf) {
		if sh.closed {
			sh.mu.Unlock()
			sh.rejected.Add(1)
			sh.met.rejected.Inc()
			return
		}
		if sh.sup.cfg.Policy == DropOldest || !sh.workerUp.Load() || sh.dead.Load() {
			sh.buf[sh.head] = item{}
			sh.head = (sh.head + 1) % len(sh.buf)
			sh.n--
			sh.countDropsLocked(1)
			break
		}
		sh.notFull.Wait()
	}
	if sh.closed {
		sh.mu.Unlock()
		sh.rejected.Add(1)
		sh.met.rejected.Inc()
		return
	}
	sh.buf[(sh.head+sh.n)%len(sh.buf)] = it
	sh.n++
	sh.met.depth.Set(int64(sh.n))
	sh.mu.Unlock()
	sh.ingested.Add(1)
	sh.met.ingested.Inc()
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// beginClose marks the queue closed and wakes the worker and any
// blocked publishers; the worker drains what is queued and exits.
func (sh *shardState) beginClose() {
	sh.mu.Lock()
	sh.closed = true
	sh.notFull.Broadcast()
	sh.mu.Unlock()
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// startWorker launches worker generation gen on the shard.
func (sh *shardState) startWorker(gen int64) {
	done := make(chan struct{})
	sh.mu.Lock()
	sh.workerDone = done
	sh.mu.Unlock()
	sh.workerUp.Store(true)
	go sh.runWorker(gen, done)
}

// runWorker is the shard's ingest worker: drain a batch, apply it to
// the partition, publish, repeat. A panic (from a record fold or an
// injected fault) marks the worker down for the monitor to restart —
// the store partition survives untouched.
func (sh *shardState) runWorker(gen int64, done chan struct{}) {
	defer close(done)
	batch := make([]item, 0, sh.sup.cfg.MaxBatch)
	defer func() {
		if r := recover(); r != nil {
			// The in-flight batch was already dequeued; count it as
			// dropped so ingested == applied + dropped keeps holding.
			sh.mu.Lock()
			sh.countDropsLocked(len(batch))
			sh.mu.Unlock()
			if sh.gen.Load() == gen {
				sh.workerUp.Store(false)
			}
			sh.mu.Lock()
			sh.notFull.Broadcast()
			sh.mu.Unlock()
		}
	}()
	for {
		batch = sh.collect(batch[:0], gen)
		if len(batch) == 0 {
			return // closed and drained, or superseded
		}
		sh.apply(batch)
		batch = batch[:0] // applied: a later panic must not re-count it
	}
}

// collect blocks until work is queued, then drains up to MaxBatch
// items. It returns an empty batch when the shard is closed and fully
// drained, or when this worker generation has been superseded.
func (sh *shardState) collect(batch []item, gen int64) []item {
	for {
		if sh.gen.Load() != gen {
			return batch[:0]
		}
		sh.mu.Lock()
		if sh.n > 0 {
			for sh.n > 0 && len(batch) < cap(batch) {
				batch = append(batch, sh.buf[sh.head])
				sh.buf[sh.head] = item{}
				sh.head = (sh.head + 1) % len(sh.buf)
				sh.n--
			}
			sh.met.depth.Set(int64(sh.n))
			sh.notFull.Broadcast()
			sh.mu.Unlock()
			return batch
		}
		if sh.closed {
			sh.mu.Unlock()
			return batch[:0]
		}
		sh.mu.Unlock()
		<-sh.wake
	}
}

// apply folds one batch into the shard's partition. The hooks (fault
// injection) run outside applyMu so a blocked hook can be superseded
// by a takeover worker; the partition folds run under applyMu so a
// superseded worker's in-flight batch cannot interleave with its
// successor's.
func (sh *shardState) apply(batch []item) {
	if hook := sh.sup.cfg.ApplyHook; hook != nil {
		for i := range batch {
			if batch[i].spare == nil && batch[i].cap == nil {
				hook(sh.idx, batch[i].cell, &batch[i].rec)
			}
		}
	}
	if hook := sh.sup.cfg.DecodeHook; hook != nil {
		for i := range batch {
			if batch[i].cap != nil {
				hook(sh.idx, batch[i].cell, batch[i].cap)
			}
		}
	}
	pubs := sh.applyBatch(batch)
	if b := sh.sup.cfg.Bus; b != nil {
		for i := range batch {
			if batch[i].spare == nil && batch[i].cap == nil {
				_ = b.Publish(batch[i].rec)
			}
		}
		for i := range pubs {
			_ = b.Publish(pubs[i])
		}
	}
	sh.applied.Add(int64(len(batch)))
	sh.met.applied.Add(int64(len(batch)))
}

// applyBatch holds applyMu across the batch fold; the deferred unlock
// keeps the lock released even when a fold panics (the worker's recover
// then reports the crash with the partition lock free). Capture items
// are blind-decoded here — under applyMu, so a superseded worker's
// in-flight decode cannot interleave with its successor on the same
// scope — and the decoded records fold like ingested ones. The records
// produced from captures are returned for bus publication outside the
// lock (nil when no bus is attached).
func (sh *shardState) applyBatch(batch []item) []telemetry.Record {
	sh.applyMu.Lock()
	defer sh.applyMu.Unlock()
	var pubs []telemetry.Record
	wantPubs := sh.sup.cfg.Bus != nil
	for i := range batch {
		it := &batch[i]
		switch {
		case it.cap != nil:
			res := sh.scopes[it.cell].ProcessSlot(it.cap)
			sh.decoded.Add(1)
			sh.records.Add(int64(len(res.Records)))
			sh.met.decoded.Inc()
			for _, rec := range res.Records {
				sh.fold(it.cell, rec)
			}
			if res.Spare != nil {
				sh.store.IngestSpare(it.cell, res.SlotIdx, res.Spare)
			}
			if wantPubs {
				pubs = append(pubs, res.Records...)
			}
		case it.spare != nil:
			sh.store.IngestSpare(it.cell, it.slotIdx, it.spare)
		default:
			sh.fold(it.cell, it.rec)
		}
	}
	return pubs
}

// fold applies one record to the shard's partition, through the fusion
// aggregator when one is attached (it folds into the partition store
// itself). Caller holds applyMu.
func (sh *shardState) fold(cell uint16, rec telemetry.Record) {
	if sh.agg != nil {
		_ = sh.agg.Ingest(cell, rec)
	} else {
		sh.store.Ingest(cell, rec)
	}
}
