package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/capfile"
	"nrscope/internal/core"
	"nrscope/internal/history"
	"nrscope/internal/lake"
	"nrscope/internal/obs"
	"nrscope/internal/phy"
	"nrscope/internal/pump"
	"nrscope/internal/ran"
	"nrscope/internal/shard"
	"nrscope/internal/telemetry"
)

// metro is one shard.Supervisor (2 shards, Block) fed by MetroLoad's
// synthetic cells and by two radio cells whose continuous recorded
// captures go through SubmitCapture. A lake is attached, the bus feeds a
// promrw pump to the loopback receiver, and the query client reads
// history beside the ingest writes.
const metroShards = 2

// metroWindow is the ticks per egress window. Rates and tick medians
// stay per chunk: a chunk ends with Flush, so its rate counts fully
// applied cell-slots, while a window inside it would count hand-offs.
const metroWindow = 50

// metroRadioCells are the two decoded cells. Their cell ids sit above
// MetroLoad's 1..cells range.
func metroRadioCells() []cellSpec {
	a := ran.AmarisoftCell()
	a.CellID = 901
	s := ran.SrsRANCell()
	s.CellID = 902
	return []cellSpec{
		{cfg: a, fixedUEs: 4, scopeSNR: 22},
		{cfg: s, fixedUEs: 4, scopeSNR: 22},
	}
}

// cellRecord is one synthetic record and the cell it belongs to.
type cellRecord struct {
	cell uint16
	rec  telemetry.Record
}

// tapSink receives one radio cell's records straight from its scope
// (core.WithBus), so accuracy and digests can be attributed per cell.
// A marker record (SlotIdx < 0) lets the benchmark wait for the tap to
// drain: the subscription queue is FIFO.
type tapSink struct {
	cell    uint16
	mu      sync.Mutex
	got     []gtKey
	tracked map[uint32]bool
	common  int64
	records int64
	digest  uint64
	marker  atomic.Int64
	perturb bool // self-test fault: corrupt the next record before it is checked
}

func (t *tapSink) WriteBatch(recs []telemetry.Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range recs {
		r := &recs[i]
		if r.SlotIdx < 0 {
			t.marker.Store(int64(r.TBS))
			continue
		}
		t.records++
		if t.perturb {
			r.TBS++
			t.perturb = false
		}
		t.digest += recordHash(t.cell, r)
		switch {
		case r.NewUE:
			t.tracked[ueKey(t.cell, r.RNTI)] = true
		case r.Common:
			t.common++
		default:
			t.got = append(t.got, gtKey{slot: r.SlotIdx, rnti: r.RNTI, cce: r.StartCCE})
		}
	}
	return nil
}

func (t *tapSink) Close() error { return nil }

// take returns and clears the keys collected so far.
func (t *tapSink) take() []gtKey {
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.got
	t.got = nil
	return g
}

type metroEnv struct {
	sup       *shard.Supervisor
	bus       *bus.Bus
	pump      *pump.Sink
	psink     *pumpSink
	psub      *bus.Subscription
	tapBus    []*bus.Bus
	taps      []*tapSink
	scopes    []*core.Scope
	lakes     []*lake.Lake
	ids       []uint16
	synthetic int64 // synthetic records ingested
	captures  int64 // captures submitted
	recvBase  int64
	markers   int64
}

func buildMetro(rep int, perturb bool, load *shard.MetroLoad, radios []cellSpec, recv *receiver, tr *tracer, eg *egressClock, lakeRoot string) (*metroEnv, error) {
	e := &metroEnv{bus: bus.New()}
	p, err := pump.New(pump.Config{Name: pumpName("metro"), URL: recv.url(), Encoder: &pump.PromRW{}})
	if err != nil {
		return nil, err
	}
	e.pump = p
	e.psink = &pumpSink{p: p, tr: tr, eg: eg}
	e.recvBase = recv.records.Load()
	// Large batches keep the loopback POST rate near what a real
	// remote-write client sends at this record rate.
	if e.psub, err = e.bus.Subscribe("pump", bus.Block, e.psink, bus.WithDropNotify(p.CountDrops),
		bus.WithQueueSize(1<<14), bus.WithBatch(1024, 5*time.Millisecond)); err != nil {
		return nil, err
	}
	e.sup = shard.New(shard.Config{
		Shards:  metroShards,
		Policy:  shard.Block,
		History: histConfig,
		Bus:     e.bus,
		// A worker blocked on a busy pump is not stalled; only a wedged
		// one (10 s without progress) is superseded.
		StallTimeout: 10 * time.Second,
	})
	dir := filepath.Join(lakeRoot, fmt.Sprintf("rep%d", rep))
	if err := e.sup.AttachLakes(func(i int) (history.Lake, error) {
		l, err := lake.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), lakeConfig)
		if err != nil {
			return nil, err
		}
		e.lakes = append(e.lakes, l)
		return &tracedLake{Lake: l, tr: tr}, nil
	}); err != nil {
		return nil, err
	}
	if err := load.Register(e.sup); err != nil {
		return nil, err
	}
	for _, spec := range radios {
		id := spec.cfg.CellID
		if _, err := e.sup.AddCell(id, spec.cfg.Mu); err != nil {
			return nil, err
		}
		tb := bus.New()
		tap := &tapSink{cell: id, tracked: map[uint32]bool{}, perturb: perturb && len(e.taps) == 0}
		if _, err := tb.Subscribe(fmt.Sprintf("tap_%d", id), bus.Block, tap); err != nil {
			return nil, err
		}
		sc := core.New(id, core.WithBus(tb))
		if err := e.sup.AttachScope(id, sc); err != nil {
			return nil, err
		}
		e.ids = append(e.ids, id)
		e.tapBus = append(e.tapBus, tb)
		e.taps = append(e.taps, tap)
		e.scopes = append(e.scopes, sc)
	}
	return e, e.sup.Start()
}

// drain waits until every applied record has reached the taps and the
// pump: a marker through each (FIFO) tap, then the pump's count.
func (e *metroEnv) drain() error {
	e.sup.Flush()
	e.markers++
	for i, tb := range e.tapBus {
		if err := tb.Publish(telemetry.Record{SlotIdx: -1, TBS: int(e.markers)}); err != nil {
			return err
		}
		tap := e.taps[i]
		if err := waitFor(func() bool { return tap.marker.Load() == e.markers }, "tap drain"); err != nil {
			return err
		}
	}
	want := e.published()
	return waitFor(func() bool { return e.psink.records.Load()+e.pump.Dropped() >= want }, "pump drain")
}

// published is every record the supervisor applied and so published:
// the synthetic records plus everything the radio scopes emitted.
func (e *metroEnv) published() int64 {
	n := e.synthetic
	for _, t := range e.taps {
		t.mu.Lock()
		n += t.records
		t.mu.Unlock()
	}
	return n
}

func (e *metroEnv) close() error {
	err := e.sup.Close()
	if cerr := e.bus.Close(); err == nil {
		err = cerr
	}
	for _, tb := range e.tapBus {
		if cerr := tb.Close(); err == nil {
			err = cerr
		}
	}
	for _, l := range e.lakes {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// metroQueries reads the supervisor's partitions and rollup.
type metroQueries struct {
	sup   *shard.Supervisor
	cells int
	ues   int
}

func (m *metroQueries) query(kind queryKind, i int) error {
	cell := uint16(1 + (i*7)%m.cells)
	p, _ := m.sup.Partition(cell)
	st := m.sup.Store(p)
	span := float64(histConfig.Depth) * float64(histConfig.BinWidth/time.Millisecond)
	switch kind {
	case queryHot:
		_, err := st.QueryWindow(cell, uint16(0x4601+(i*13)%m.ues), 500*time.Millisecond, 0)
		return err
	case queryCold:
		last := st.LastMs()
		_, err := st.CellQuery(cell, last-3*span, last-2*span, 0)
		return err
	default:
		_, err := m.sup.TopK("dl_bits", time.Second, 10)
		return err
	}
}

// releaseRadio frees a stretch's recorded captures.
func releaseRadio(in *metroInput) {
	if in == nil {
		return
	}
	for _, c := range in.radio {
		c.release()
	}
}

// lakeConfig flushes the spill ring every 2.5 s. The lake's RAM index
// gains one block reference per series per flush: at the default 50 ms
// it grew by ~40 MB over a run, so heap_live_mb followed how long the
// run lasted, and the per-series slices double at 8 and 16 flushes. At
// 2.5 s a 20-40 s metro run makes 9-16 flushes, between two doublings.
// The ring holds ~10 s of metro's ~4k series' spills.
var lakeConfig = lake.Config{
	BinWidth:      histConfig.BinWidth,
	QueueDepth:    1 << 17,
	FlushInterval: 2500 * time.Millisecond,
}

// metroInput is one stretch of ticks: synthetic records per tick and
// each radio cell's recorded captures.
type metroInput struct {
	first int
	ticks int
	recs  [][]cellRecord
	radio []*chunk
}

func genMetro(load *shard.MetroLoad, recs []*recorder, first, ticks int) (*metroInput, int64, error) {
	start := time.Now()
	in := &metroInput{first: first, ticks: ticks, recs: make([][]cellRecord, ticks)}
	for t := 0; t < ticks; t++ {
		var tick []cellRecord
		load.Slot(first+t, func(cell uint16, rec telemetry.Record) {
			tick = append(tick, cellRecord{cell: cell, rec: rec})
		})
		in.recs[t] = tick
	}
	for _, r := range recs {
		c, err := r.record(ticks)
		if err != nil {
			return nil, 0, err
		}
		in.radio = append(in.radio, c)
	}
	return in, time.Since(start).Nanoseconds(), nil
}

func runMetro(o *options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	digests, err := newDigestStore(o.workdir)
	if err != nil {
		return nil, err
	}
	radios := metroRadioCells()
	recv, err := startReceiver()
	if err != nil {
		return nil, err
	}
	defer recv.close()
	lakeRoot := filepath.Join(o.workdir, "lake", fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(lakeRoot)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	eg := newEgressClock()
	ttiUs := float64(phy.Mu1.SlotDuration().Nanoseconds()) / 1e3
	ncells := o.size.metroCells + len(radios)

	// Setup: each rep gets fresh generators (same seed, so identical
	// input), a fresh supervisor, lakes and pump, and warms up the radio
	// cells' scopes (MIB, SIB1, UE discovery). Input generation is timed
	// apart; the median of the reps is setup_s.
	var env *metroEnv
	var load *shard.MetroLoad
	var recs []*recorder
	var setups []float64
	var warmDigest uint64
	var genNs int64
	for rep := 1; rep <= o.size.setupReps; rep++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		if load, err = shard.NewMetroLoad(o.size.metroCells, o.size.metroUEs, phy.Mu1, o.seed); err != nil {
			return nil, err
		}
		recs = recs[:0]
		for _, spec := range radios {
			r, err := newRecorder(spec, o.seed+int64(spec.cfg.CellID))
			if err != nil {
				return nil, err
			}
			recs = append(recs, r)
		}
		warm, g, err := genMetro(load, recs, 0, o.size.metroWarm)
		if err != nil {
			return nil, err
		}
		genNs += g
		runtime.GC()
		t0 := time.Now()
		if env, err = buildMetro(rep, rep == o.faults.perturbRep, load, radios, recv, tr, eg, lakeRoot); err != nil {
			return nil, err
		}
		_, err = replayMetro(env, warm, nil, nil, false, nil)
		releaseRadio(warm)
		if err != nil {
			return nil, err
		}
		if err := env.drain(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		d := uint64(0)
		for _, t := range env.taps {
			t.mu.Lock()
			d += t.digest
			t.mu.Unlock()
			t.take()
		}
		if rep == 1 {
			warmDigest = d
		}
		out.check(d == warmDigest, "setup rep %d record digest %016x differs from rep 1 (%016x)", rep, d, warmDigest)
	}
	if err := digests.compare(fmt.Sprintf("metro-%d-warm", o.seed), warmDigest); err != nil {
		out.check(false, "%v", err)
	}
	out.metrics["setup_s"] = median(setups)

	acc := &accuracy{tracked: map[uint32]bool{}}
	commonBefore := int64(0)
	for _, t := range env.taps {
		t.mu.Lock()
		commonBefore += t.common
		t.mu.Unlock()
	}
	q := newQueryClient(&metroQueries{sup: env.sup, cells: o.size.metroCells, ues: o.size.metroUEs}, o.size.queryPeriod, tr)
	stats := metroStats{busGauge: obs.Default.Gauge("nrscope_bus_pump_queue_depth", "")}
	for i := 0; i < metroShards; i++ {
		stats.shardGauges = append(stats.shardGauges, obs.Default.Gauge(fmt.Sprintf("nrscope_shard_%d_queue_depth", i), ""))
	}

	var (
		svc                        []float64
		chunkRates, chunkP50       []float64 // per untraced chunk
		winEgress, winQuery        []float64 // per window of untraced chunks: median egress (ms) and query latency (µs)
		egressAll, queryAll        []float64
		ticks                      int64
		untracedNs, tracedNs       int64
		untracedTicks, tracedTicks int64
		allocBytes                 uint64
		allocTicks                 int64
		last                       *metroInput
	)
	target := int64(o.seconds * 1e9)
	obsBefore := obs.Snapshot()
	next := o.size.metroWarm
	for ci := 0; untracedNs+tracedNs < target || (o.trace && ci < 2); ci++ {
		in, g, err := genMetro(load, recs, next, o.size.metroChunk)
		if err != nil {
			return nil, err
		}
		genNs += g
		next += in.ticks
		runtime.GC()
		traced := o.trace && ci%2 == 1
		if tr != nil {
			tr.on.Store(traced)
		}
		a0 := totalAlloc()
		q.resume()
		cstart := time.Now()
		var tickSvc []float64
		if tickSvc, err = replayMetro(env, in, eg, tr, traced, &stats); err != nil {
			return nil, err
		}
		env.sup.Flush()
		wall := time.Since(cstart).Nanoseconds()
		q.pause()
		if traced {
			tracedNs += wall
			tracedTicks += int64(in.ticks)
		} else {
			chunkRates = append(chunkRates, float64(in.ticks*ncells)/(float64(wall)/1e9))
			chunkP50 = append(chunkP50, quantile(append([]float64(nil), tickSvc...), 0.5))
			allocBytes += totalAlloc() - a0
			allocTicks += int64(in.ticks)
			untracedNs += wall
			untracedTicks += int64(in.ticks)
		}
		svc = append(svc, tickSvc...)
		ticks += int64(in.ticks)
		if err := env.drain(); err != nil {
			return nil, err
		}
		egW := windowMedians(env.psink.lat.take(), int64(in.first), metroWindow, &egressAll)
		qW := windowMedians(q.lateUs.take(), 0, queryWindow, &queryAll)
		if !traced {
			winEgress = append(winEgress, egW...)
			winQuery = append(winQuery, qW...)
		}
		for i, t := range env.taps {
			acc.match(in.radio[i].gt, in.first+in.ticks, t.take())
		}
		if ci == 0 {
			d := uint64(0)
			for _, t := range env.taps {
				t.mu.Lock()
				d += t.digest
				t.mu.Unlock()
			}
			if err := digests.compare(fmt.Sprintf("metro-%d-chunk0", o.seed), d-warmDigest); err != nil {
				out.check(false, "%v", err)
			}
		}
		releaseRadio(last)
		last = in
	}
	if tr != nil {
		tr.on.Store(false)
	}
	q.stop()
	obsDelta := obs.Delta(obsBefore, obs.Snapshot())
	health := env.sup.Health()
	if err := env.close(); err != nil {
		out.check(false, "close: %v", err)
	}

	// Accounting: every ingested record and capture applied or counted
	// dropped; every published record sent or counted dropped; the
	// receiver saw every sent record.
	published := env.published()
	sent, dropped := env.pump.Sent(), env.pump.Dropped()
	out.check(health.Ingested == health.Applied+health.Dropped, "shard ingested %d != applied %d + dropped %d", health.Ingested, health.Applied, health.Dropped)
	out.check(health.Ingested == env.synthetic+env.captures, "shard ingested %d, benchmark handed it %d", health.Ingested, env.synthetic+env.captures)
	out.check(sent+dropped == published, "pump sent %d + dropped %d != published %d", sent, dropped, published)
	got := recv.records.Load() - env.recvBase
	out.check(got == sent, "loopback receiver counted %d records, pump sent %d", got, sent)
	out.check(recv.errs.Load() == 0, "loopback receiver rejected %d requests", recv.errs.Load())
	tapCommon := -commonBefore
	for _, t := range env.taps {
		for k := range t.tracked {
			acc.tracked[k] = true
		}
		tapCommon += t.common
	}
	real := map[uint32]bool{}
	for _, r := range recs {
		for k := range r.real {
			real[k] = true
		}
	}
	busDropped := env.psub.Dropped()
	out.failed = health.Dropped + dropped + busDropped + q.failed + health.Restarts
	out.attempted = ticks*int64(ncells) + published + q.attempted
	out.note("metro seed %d: %d ticks x %d cells in %.3f s (+%.3f s traced), %d records published, %d queries; gen_s=%.3f (input generation, excluded from every metric)",
		o.seed, ticks, ncells, float64(untracedNs)/1e9, float64(tracedNs)/1e9, published, q.attempted, float64(genNs)/1e9)

	rt := virtualClock(svc, ttiUs)
	slow := 0
	for _, s := range svc {
		if s > ttiUs {
			slow++
		}
	}
	rate := float64(untracedTicks*int64(ncells)) / (float64(untracedNs) / 1e9)
	out.metrics["slots_per_s"] = median(chunkRates)
	out.metrics["slot_p50_us"] = median(chunkP50)
	out.metrics["slot_p999_us"] = quantile(append([]float64(nil), svc...), 0.999)
	out.metrics["rt_p99_us"] = rt.p99Us
	out.metrics["rt_late_pct"] = rt.latePct
	out.metrics["egress_p50_ms"] = median(winEgress)
	out.metrics["egress_p99_ms"] = quantile(egressAll, 0.99)
	out.metrics["query_p50_us"] = median(winQuery)
	out.metrics["query_p99_us"] = quantile(queryAll, 0.99)
	if allocTicks > 0 {
		out.metrics["alloc_kb_per_slot"] = float64(allocBytes) / 1024 / float64(allocTicks*int64(ncells))
	}
	out.note("untraced chunks: %d, rate deciles %s cell-slots/s, tick p50 deciles %s us", len(chunkRates), roundAll(deciles(chunkRates)), roundAll(deciles(chunkP50)))
	out.note("real time: %.2f%% of ticks more than one TTI late, final backlog %.0f us, %d egress samples, %d query samples", rt.latePct, rt.finalLagUs, len(egressAll), len(queryAll))
	acc.report(out, real)

	radioSlots := float64(ticks) * float64(len(radios))
	verifies := obsDelta["nrscope_scope_crnti_recoveries_total"] - float64(tapCommon)
	ues := 0
	for _, sc := range env.scopes {
		ues += len(sc.KnownUEs())
	}
	out.metrics["core.positions_per_slot"] = obsDelta["nrscope_scope_blind_positions_decoded_total"] / radioSlots
	out.metrics["core.candidates_per_slot"] = obsDelta["nrscope_scope_blind_candidates_attempted_total"] / radioSlots
	out.metrics["core.match_ratio"] = ratio(obsDelta["nrscope_scope_blind_candidates_matched_total"], obsDelta["nrscope_scope_blind_candidates_attempted_total"])
	out.metrics["core.ues_tracked"] = float64(ues)
	out.metrics["core.msg4_verifies"] = verifies
	out.metrics["core.msg4_yield"] = ratio(obsDelta["nrscope_scope_msg4_hits_total"], verifies)
	out.metrics["core.slow_slots"] = float64(slow)
	out.metrics["core.decode_failures_per_slot"] = obsDelta["nrscope_scope_decode_failures_total"] / radioSlots
	decodeUs := obsDelta["nrscope_scope_decode_latency_seconds_sum"] * 1e6
	out.metrics["core.decode_us"] = decodeUs / radioSlots
	out.metrics["core.merge_us"] = 0  // ProcessSlot runs inside the shard workers
	out.metrics["bus.publish_us"] = 0 // the shard workers publish
	out.metrics["bus.queue_max"] = float64(stats.busDepth)
	out.metrics["bus.batch_mean"] = ratio(float64(env.psink.records.Load()), float64(env.psink.batches))
	out.metrics["bus.dropped"] = float64(busDropped)
	out.metrics["history.evictions"] = obsDelta["nrscope_history_ues_evicted_total"]
	out.metrics["history.query_hot_us"] = mean(q.serviceUs[queryHot])
	out.metrics["history.query_cold_us"] = mean(q.serviceUs[queryCold])
	name := "nrscope_pump_" + env.pump.Name() + "_"
	out.metrics["pump.bytes_per_record"] = ratio(obsDelta[name+"sent_bytes_total"], obsDelta[name+"records_sent_total"])
	out.metrics["pump.dropped"] = float64(dropped)
	out.metrics["shard.queue_max"] = float64(stats.shardDepth)
	out.metrics["shard.restarts"] = float64(health.Restarts)
	out.metrics["shard.dropped"] = float64(health.Dropped)
	var lakeBytes, lakeBins, lakeDropped int64
	for _, l := range env.lakes {
		s := l.Stats()
		lakeBytes += s.Bytes
		lakeBins += s.SpilledBins
		lakeDropped += s.DroppedEntries
	}
	out.failed += lakeDropped
	out.metrics["lake.bytes_per_bin"] = ratio(float64(lakeBytes), float64(lakeBins))
	if tr != nil {
		out.metrics["trace.overhead_pct"] = 100 * (rate/(float64(tracedTicks*int64(ncells))/(float64(tracedNs)/1e9)) - 1)
		out.metrics["capfile.next_us"] = tr.layer(spanNext).selfUsPerUnit()
		out.metrics["shard.ingest_us"] = tr.layer(spanShardIngest).selfUsPerUnit()
		out.metrics["shard.submit_us"] = tr.layer(spanShardSubmit).selfUsPerUnit()
		out.metrics["lake.spill_us"] = tr.layer(spanLakeSpill).selfUsPerUnit()
		out.metrics["lake.read_us"] = tr.layer(spanLakeRead).selfUsPerUnit()
		a := tr.layer(spanPump)
		out.metrics["pump.write_us"] = ratio(float64(a.selfNs)/1e3, float64(a.calls))
		out.metrics["history.ingest_us"] = probeHistoryIngest(o.size.metroCells, last)
		pr, err := probeKernels(env.scopes[0], last.radio[0], o.size.probeSlots)
		if err != nil {
			return nil, err
		}
		pr.report(out, obsDelta, decodeUs, int64(radioSlots), verifies)
		path := filepath.Join(o.workdir, "metro.spans.jsonl")
		if err := tr.writeFile(path); err != nil {
			return nil, err
		}
		out.note("spans written to %s", path)
	}
	releaseRadio(last)
	svc, egressAll, queryAll, last, q, tr = nil, nil, nil, nil, nil, nil
	out.metrics["heap_live_mb"] = heapLiveMB()
	runtime.KeepAlive(env)
	return out, nil
}

// metroStats tracks the deepest shard and pump queues seen in traced
// ticks.
type metroStats struct {
	shardGauges          []*obs.Gauge
	busGauge             *obs.Gauge
	shardDepth, busDepth int64
}

func (m *metroStats) sample() {
	for _, g := range m.shardGauges {
		m.shardDepth = max(m.shardDepth, g.Value())
	}
	m.busDepth = max(m.busDepth, m.busGauge.Value())
}

// replayMetro hands one stretch of ticks to the supervisor and returns
// each tick's accept time (µs): the Ingest calls for the tick's records
// plus the SubmitCapture calls for its captures, Block waits included.
func replayMetro(env *metroEnv, in *metroInput, eg *egressClock, tr *tracer, traced bool, stats *metroStats) ([]float64, error) {
	readers := make([]*capfile.Reader, len(in.radio))
	for i, c := range in.radio {
		rd, err := capfile.NewReader(bytes.NewReader(c.data))
		if err != nil {
			return nil, err
		}
		readers[i] = rd
	}
	svc := make([]float64, 0, in.ticks)
	for t := 0; t < in.ticks; t++ {
		tick := in.first + t
		ta := time.Now()
		if eg != nil {
			eg.stamp(tick, ta)
		}
		for i := range in.recs[t] {
			cr := &in.recs[t][i]
			if err := env.sup.Ingest(cr.cell, cr.rec); err != nil {
				return nil, err
			}
		}
		tb := time.Now()
		env.synthetic += int64(len(in.recs[t]))
		service := tb.Sub(ta)
		childNs := service.Nanoseconds()
		var kids []int32
		if traced {
			kids = append(kids, tr.record(spanShardIngest, traceID(0, tick), -1, ta, tb, 0, int64(len(in.recs[t]))))
		}
		for i, rd := range readers {
			x := time.Now()
			c, err := rd.Next()
			if err != nil {
				return nil, err
			}
			y := time.Now()
			if err := env.sup.SubmitCapture(env.ids[i], c); err != nil {
				return nil, err
			}
			z := time.Now()
			env.captures++
			service += z.Sub(y)
			childNs += z.Sub(x).Nanoseconds()
			if traced {
				id := traceID(env.ids[i], tick)
				kids = append(kids, tr.record(spanNext, id, -1, x, y, 0, 1), tr.record(spanShardSubmit, id, -1, y, z, 0, 1))
			}
		}
		if traced {
			te := time.Now()
			root := tr.record(spanTick, traceID(0, tick), -1, ta, te, childNs, 1)
			tr.setParent(kids, root)
			stats.sample()
		}
		svc = append(svc, float64(service.Nanoseconds())/1e3)
	}
	return svc, nil
}

// probeHistoryIngest times history.Store.Ingest from outside on the last
// chunk's synthetic records: in metro the shard workers call Ingest
// themselves, so the layer is timed on a private store of the same
// configuration instead.
func probeHistoryIngest(cells int, in *metroInput) float64 {
	st := history.New(histConfig)
	for c := 1; c <= cells; c++ {
		_ = st.AddCell(uint16(c), phy.Mu1.SlotDuration())
	}
	n := 0
	start := time.Now()
	for _, tick := range in.recs {
		for i := range tick {
			st.Ingest(tick[i].cell, tick[i].rec)
			n++
		}
	}
	return ratio(float64(time.Since(start).Nanoseconds())/1e3, float64(n))
}
