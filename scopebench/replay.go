package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/capfile"
	"nrscope/internal/core"
	"nrscope/internal/history"
	"nrscope/internal/obs"
	"nrscope/internal/pump"
	"nrscope/internal/ran"
)

// histConfig is every workload's history partition: 100 ms bins, 16 of
// them in RAM per series, so cold queries reach below the rings.
var histConfig = history.Config{BinWidth: 100 * time.Millisecond, Depth: 16}

// radioWorkload is a closed-loop, single-goroutine replay of one radio
// cell: capfile.Reader.Next → Scope.ProcessSlot → bus.Publish → sinks.
type radioWorkload struct {
	name string
	spec cellSpec
	pump bool // add a promrw pump to the loopback receiver
	opts []core.Option
}

func runCell16(o *options) (*outcome, error) {
	return runRadio(o, radioWorkload{
		name: "cell16",
		spec: cellSpec{cfg: ran.AmarisoftCell(), fixedUEs: 16, scopeSNR: 22},
	})
}

func runChurnEdge(o *options) (*outcome, error) {
	pop := ran.Population{ArrivalsPerSecond: 8, MedianSessionSeconds: 6, SessionSigma: 1.3, MaxUEs: 64}
	return runRadio(o, radioWorkload{
		name: "churn-edge",
		spec: cellSpec{cfg: ran.TMobileCell(1), pop: &pop, cohort: 56, scopeSNR: 6},
		pump: true,
		// Departed UEs stay tracked for 3 s of air time: the tracked set
		// (and so the per-UE CRC sweep) is steady within the warm-up
		// instead of growing for the whole run.
		opts: []core.Option{core.WithIdleHorizon(3 * time.Second)},
	})
}

// radioEnv is one instance of the program under test.
type radioEnv struct {
	cell      uint16
	bus       *bus.Bus
	st        *history.Store
	hist      *historySink
	pump      *pump.Sink
	psink     *pumpSink
	subs      []*bus.Subscription
	scope     *core.Scope
	published int64
	recvBase  int64
}

func (w *radioWorkload) build(o *options, recv *receiver, tr *tracer, eg *egressClock) (*radioEnv, error) {
	cfg := w.spec.cfg
	e := &radioEnv{cell: cfg.CellID, bus: bus.New(), st: history.New(histConfig)}
	if err := e.st.AddCell(cfg.CellID, cfg.TTI()); err != nil {
		return nil, err
	}
	e.hist = &historySink{st: e.st, cell: cfg.CellID, tr: tr, dropEvery: o.faults.dropEvery}
	if !w.pump {
		e.hist.eg = eg
	}
	hsub, err := e.bus.Subscribe("history", bus.Block, e.hist)
	if err != nil {
		return nil, err
	}
	e.subs = append(e.subs, hsub)
	if w.pump {
		p, err := pump.New(pump.Config{Name: pumpName(w.name), URL: recv.url(), Encoder: &pump.PromRW{}})
		if err != nil {
			return nil, err
		}
		e.pump = p
		e.psink = &pumpSink{p: p, tr: tr, eg: eg}
		e.recvBase = recv.records.Load()
		psub, err := e.bus.Subscribe("pump", bus.Block, e.psink, bus.WithDropNotify(p.CountDrops))
		if err != nil {
			return nil, err
		}
		e.subs = append(e.subs, psub)
	}
	e.scope = core.New(cfg.CellID, w.opts...)
	return e, nil
}

func sanitize(s string) string {
	b := []byte(s)
	for i, c := range b {
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9') {
			b[i] = '_'
		}
	}
	return string(b)
}

// drained reports whether every sink has been handed every published
// record.
func (e *radioEnv) drained() bool {
	if e.hist.seen.Load() != e.published {
		return false
	}
	return e.psink == nil || e.psink.records.Load() == e.published
}

func waitFor(cond func() bool, what string) error {
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (e *radioEnv) close() error {
	err := e.bus.Close()
	for _, s := range e.subs {
		<-s.Done()
	}
	return err
}

// replayWarm replays the warm-up prefix and returns the digest of every
// emitted record. perturb corrupts the first record (self-test only).
func (e *radioEnv) replayWarm(data []byte, perturb bool) (uint64, error) {
	rd, err := capfile.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	var digest uint64
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		sr := e.scope.ProcessSlot(c)
		for i := range sr.Records {
			if perturb {
				sr.Records[i].TBS++
				perturb = false
			}
			digest += recordHash(e.cell, &sr.Records[i])
			if err := e.bus.Publish(sr.Records[i]); err != nil {
				return 0, err
			}
			e.published++
		}
	}
	return digest, nil
}

// accuracy matches emitted UE records against the gNB's ground truth.
type accuracy struct {
	gt, missed, emitted, falsePos int64
	tracked                       map[uint32]bool // every (cell, RNTI) the scope tracked
}

// ueKey identifies a C-RNTI on a cell (C-RNTIs are cell-local).
func ueKey(cell, rnti uint16) uint32 { return uint32(cell)<<16 | uint32(rnti) }

// match compares one stretch of slots: gt is the stretch's ground truth
// (entries at or beyond endSlot are ignored), got the keys of the UE
// records the scope emitted for it.
func (a *accuracy) match(gt []gtKey, endSlot int, got []gtKey) {
	want := make(map[gtKey]int, len(gt))
	for _, k := range gt {
		if k.slot < endSlot {
			want[k]++
			a.gt++
		}
	}
	for _, k := range got {
		a.emitted++
		if want[k] > 0 {
			want[k]--
			continue
		}
		a.falsePos++
	}
	for _, n := range want {
		a.missed += int64(n)
	}
}

func (a *accuracy) ghosts(real map[uint32]bool) int {
	n := 0
	for r := range a.tracked {
		if !real[r] {
			n++
		}
	}
	return n
}

func (a *accuracy) report(out *outcome, real map[uint32]bool) {
	ghosts := a.ghosts(real)
	out.check(a.gt > 0, "no ground-truth UE DCIs in the measured slots")
	out.check(len(a.tracked) > 0, "the scope tracked no UE")
	hit := 100 * float64(a.gt-a.missed) / float64(a.gt)
	out.check(hit >= 90, "DCI hit rate %.2f%% below the 90%% sanity floor", hit)
	out.metrics["dci_hit_pct"] = hit
	out.metrics["dci_miss_pct"] = 100 * float64(a.missed) / float64(a.gt)
	out.metrics["dci_precision_pct"] = 100 * float64(a.emitted-a.falsePos) / float64(a.emitted)
	out.metrics["dci_false_pct"] = 100 * float64(a.falsePos) / float64(a.emitted)
	out.metrics["ue_precision_pct"] = 100 * float64(len(a.tracked)-ghosts) / float64(len(a.tracked))
	out.metrics["ghost_ues"] = float64(ghosts)
	out.note("accuracy: %d GT DCIs, %d missed, %d emitted, %d unmatched, %d RNTIs tracked, %d ghosts", a.gt, a.missed, a.emitted, a.falsePos, len(a.tracked), ghosts)
}

// storeQueries is the query target of the single-cell workloads.
type storeQueries struct {
	st    *history.Store
	cell  uint16
	rntis []uint16
}

func (s *storeQueries) query(kind queryKind, i int) error {
	span := float64(histConfig.Depth) * float64(histConfig.BinWidth/time.Millisecond)
	switch kind {
	case queryHot:
		if i%64 == 0 || len(s.rntis) == 0 {
			s.rntis = s.rntis[:0]
			for _, u := range s.st.UEs(s.cell) {
				s.rntis = append(s.rntis, u.RNTI)
			}
		}
		if len(s.rntis) == 0 {
			return nil
		}
		_, err := s.st.QueryWindow(s.cell, s.rntis[i%len(s.rntis)], 500*time.Millisecond, 0)
		return err
	case queryCold:
		last := s.st.LastMs()
		_, err := s.st.CellQuery(s.cell, last-2*span, last-span, 0)
		return err
	default:
		_, err := s.st.TopK("dl_bits", time.Second, 5)
		return err
	}
}

// slotSpans records one replayed slot's spans: the three calls as
// children of a slot root.
func slotSpans(tr *tracer, cell uint16, slot int, ta, tb, tc, td time.Time, records int) {
	id := traceID(cell, slot)
	kids := []int32{
		tr.record(spanNext, id, -1, ta, tb, 0, 1),
		tr.record(spanProcess, id, -1, tb, tc, 0, 1),
		tr.record(spanPublish, id, -1, tc, td, 0, int64(records)),
	}
	root := tr.record(spanSlot, id, -1, ta, td, td.Sub(ta).Nanoseconds(), 1)
	tr.setParent(kids, root)
}

func runRadio(o *options, w radioWorkload) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	digests, err := newDigestStore(o.workdir)
	if err != nil {
		return nil, err
	}
	rec, err := newRecorder(w.spec, o.seed)
	if err != nil {
		return nil, err
	}
	warm, err := rec.record(o.size.warmSlots)
	if err != nil {
		return nil, err
	}
	var recv *receiver
	if w.pump {
		if recv, err = startReceiver(); err != nil {
			return nil, err
		}
		defer recv.close()
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	eg := newEgressClock()
	tti := w.spec.cfg.TTI()
	ttiUs := float64(tti.Nanoseconds()) / 1e3

	// Setup: build the program and warm it up (MIB, SIB1, UE discovery)
	// from the same recorded prefix several times; report the median.
	var env *radioEnv
	var setups []float64
	var warmDigest uint64
	for rep := 1; rep <= o.size.setupReps; rep++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if env, err = w.build(o, recv, tr, eg); err != nil {
			return nil, err
		}
		d, err := env.replayWarm(warm.data, rep == o.faults.perturbRep)
		if err != nil {
			return nil, err
		}
		if err := waitFor(env.drained, "warm-up egress"); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep == 1 {
			warmDigest = d
		}
		out.check(d == warmDigest, "setup rep %d record digest %016x differs from rep 1 (%016x)", rep, d, warmDigest)
	}
	if err := digests.compare(w.name+"-"+fmt.Sprint(o.seed)+"-warm", warmDigest); err != nil {
		out.check(false, "%v", err)
	}
	out.metrics["setup_s"] = median(setups)
	warm.release()
	out.check(env.scope.CellAcquired(), "scope did not acquire the cell during warm-up")
	out.note("after warm-up: %d UEs tracked", len(env.scope.KnownUEs()))

	acc := &accuracy{tracked: map[uint32]bool{}}
	for _, r := range env.scope.KnownUEs() {
		acc.tracked[ueKey(env.cell, r)] = true
	}
	q := newQueryClient(&storeQueries{st: env.st, cell: env.cell}, o.size.queryPeriod, tr)
	var depthGauges []*obs.Gauge
	for _, s := range env.subs {
		depthGauges = append(depthGauges, obs.Default.Gauge("nrscope_bus_"+s.Name()+"_queue_depth", ""))
	}

	var (
		svc                       []float64 // ProcessSlot service time per slot, µs
		winRates, winP50          []float64 // per window of untraced chunks
		winEgress, winQuery       []float64 // per window: median egress (ms) and query latency (µs)
		egressAll, queryAll       []float64
		slots, pubErrs            int64
		untracedNs, tracedNs      int64
		untracedSlots, tracedSlot int64
		allocBytes                uint64
		allocSlots                int64
		processNsTraced           int64
		elapsedNsTraced           int64
		commonRecs                int64
		qmax                      int64
		publishedMeasured         int64
		last                      *chunk
	)
	target := int64(o.seconds * 1e9)
	obsBefore := obs.Snapshot()
	genBefore := rec.genNs
	for ci := 0; untracedNs+tracedNs < target || (o.trace && ci < 2); ci++ {
		ch, err := rec.record(o.size.chunkSlots)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		traced := o.trace && ci%2 == 1
		if tr != nil {
			tr.on.Store(traced)
		}
		rd, err := capfile.NewReader(bytes.NewReader(ch.data))
		if err != nil {
			return nil, err
		}
		var got []gtKey
		var ends []int64
		chunkDigest := uint64(0)
		a0 := totalAlloc()
		q.resume()
		cstart := time.Now()
		n := 0
		for n < ch.slots {
			ta := time.Now()
			c, err := rd.Next()
			if err != nil {
				return nil, err
			}
			tb := time.Now()
			sr := env.scope.ProcessSlot(c)
			tc := time.Now()
			eg.stamp(sr.SlotIdx, tc)
			for i := range sr.Records {
				if env.bus.Publish(sr.Records[i]) != nil {
					pubErrs++
				}
			}
			td := time.Now()
			n++
			env.published += int64(len(sr.Records))
			publishedMeasured += int64(len(sr.Records))
			svc = append(svc, float64(tc.Sub(tb).Nanoseconds())/1e3)
			ends = append(ends, td.Sub(cstart).Nanoseconds())
			for i := range sr.Records {
				r := &sr.Records[i]
				chunkDigest += recordHash(env.cell, r)
				switch {
				case r.NewUE:
					acc.tracked[ueKey(env.cell, r.RNTI)] = true
				case r.Common:
					commonRecs++
				default:
					got = append(got, gtKey{slot: r.SlotIdx, rnti: r.RNTI, cce: r.StartCCE})
				}
			}
			if traced {
				slotSpans(tr, env.cell, sr.SlotIdx, ta, tb, tc, td, len(sr.Records))
				processNsTraced += tc.Sub(tb).Nanoseconds()
				elapsedNsTraced += sr.Elapsed.Nanoseconds()
				for _, g := range depthGauges {
					if v := g.Value(); v > qmax {
						qmax = v
					}
				}
			}
			if !o.trace && untracedNs+time.Since(cstart).Nanoseconds() >= target {
				break
			}
		}
		wall := time.Since(cstart).Nanoseconds()
		q.pause()
		if !traced {
			r, p := slotWindows(svc[len(svc)-n:], ends, o.size.slotWindow)
			winRates = append(winRates, r...)
			winP50 = append(winP50, p...)
			allocBytes += totalAlloc() - a0
			allocSlots += int64(n)
			untracedNs += wall
			untracedSlots += int64(n)
		} else {
			tracedNs += wall
			tracedSlot += int64(n)
		}
		slots += int64(n)
		acc.match(ch.gt, ch.first+n, got)
		if ci == 0 && n == ch.slots {
			if err := digests.compare(fmt.Sprintf("%s-%d-chunk0", w.name, o.seed), chunkDigest); err != nil {
				out.check(false, "%v", err)
			}
		}
		if err := waitFor(env.drained, "egress drain"); err != nil {
			return nil, err
		}
		lastHop := &env.hist.lat
		if env.psink != nil {
			lastHop = &env.psink.lat
		}
		egW := windowMedians(lastHop.take(), int64(ch.first), int64(o.size.slotWindow), &egressAll)
		qW := windowMedians(q.lateUs.take(), 0, queryWindow, &queryAll)
		if !traced {
			winEgress = append(winEgress, egW...)
			winQuery = append(winQuery, qW...)
		}
		last.release()
		last = ch
	}
	if tr != nil {
		tr.on.Store(false)
	}
	q.stop()
	obsDelta := obs.Delta(obsBefore, obs.Snapshot())
	genS := float64(rec.genNs-genBefore) / 1e9

	if err := env.close(); err != nil {
		out.check(false, "bus close: %v", err)
	}
	// Delivery accounting.
	out.check(env.hist.seen.Load() == env.published, "history sink saw %d records, %d published", env.hist.seen.Load(), env.published)
	out.check(env.hist.delivered.Load() == env.published, "history ingested %d records, %d published", env.hist.delivered.Load(), env.published)
	var busDropped int64
	for _, s := range env.subs {
		busDropped += s.Dropped()
	}
	if env.pump != nil {
		sent, dropped := env.pump.Sent(), env.pump.Dropped()
		out.check(sent+dropped == env.published, "pump sent %d + dropped %d != published %d", sent, dropped, env.published)
		got := recv.records.Load() - env.recvBase
		out.check(got == sent, "loopback receiver counted %d records, pump sent %d", got, sent)
		out.check(recv.errs.Load() == 0, "loopback receiver rejected %d requests", recv.errs.Load())
		out.failed += dropped
		out.metrics["pump.dropped"] = float64(dropped)
	}
	out.failed += busDropped + pubErrs + (env.published - env.hist.delivered.Load()) + q.failed
	out.attempted = slots + publishedMeasured + q.attempted
	out.note("%s seed %d: %d measured slots in %.3f s (+%.3f s traced), %d records, %d queries; gen_s=%.3f (input generation, excluded from every metric)",
		w.name, o.seed, slots, float64(untracedNs)/1e9, float64(tracedNs)/1e9, publishedMeasured, q.attempted, genS)

	// End-to-end metrics.
	rt := virtualClock(svc, ttiUs)
	slow := 0
	for _, s := range svc {
		if s > ttiUs {
			slow++
		}
	}
	rate := float64(untracedSlots) / (float64(untracedNs) / 1e9)
	out.metrics["slots_per_s"] = median(winRates)
	out.metrics["slot_p50_us"] = median(winP50)
	out.metrics["slot_p999_us"] = quantile(append([]float64(nil), svc...), 0.999)
	out.metrics["rt_p99_us"] = rt.p99Us
	out.metrics["rt_late_pct"] = rt.latePct
	out.metrics["egress_p50_ms"] = median(winEgress)
	out.metrics["egress_p99_ms"] = quantile(egressAll, 0.99)
	out.metrics["query_p50_us"] = median(winQuery)
	out.metrics["query_p99_us"] = quantile(queryAll, 0.99)
	if allocSlots > 0 {
		out.metrics["alloc_kb_per_slot"] = float64(allocBytes) / 1024 / float64(allocSlots)
	}
	out.note("untraced windows: %d, rate deciles %s /s, p50 deciles %s us", len(winRates), roundAll(deciles(winRates)), roundAll(deciles(winP50)))
	out.note("real time: %.2f%% of slots more than one TTI late, final backlog %.0f us, %d egress samples, %d query samples", rt.latePct, rt.finalLagUs, len(egressAll), len(queryAll))
	acc.report(out, rec.real)

	// Per-layer metrics.
	fs := float64(slots)
	verifies := obsDelta["nrscope_scope_crnti_recoveries_total"] - float64(commonRecs)
	out.metrics["core.positions_per_slot"] = obsDelta["nrscope_scope_blind_positions_decoded_total"] / fs
	out.metrics["core.candidates_per_slot"] = obsDelta["nrscope_scope_blind_candidates_attempted_total"] / fs
	out.metrics["core.match_ratio"] = ratio(obsDelta["nrscope_scope_blind_candidates_matched_total"], obsDelta["nrscope_scope_blind_candidates_attempted_total"])
	out.metrics["core.ues_tracked"] = float64(len(env.scope.KnownUEs()))
	out.metrics["core.msg4_verifies"] = verifies
	out.metrics["core.msg4_yield"] = ratio(obsDelta["nrscope_scope_msg4_hits_total"], verifies)
	out.metrics["core.slow_slots"] = float64(slow)
	out.metrics["core.decode_failures_per_slot"] = obsDelta["nrscope_scope_decode_failures_total"] / fs
	out.metrics["core.decode_us"] = obsDelta["nrscope_scope_decode_latency_seconds_sum"] * 1e6 / fs
	out.metrics["bus.queue_max"] = float64(qmax)
	out.metrics["bus.dropped"] = float64(busDropped)
	out.metrics["history.evictions"] = obsDelta["nrscope_history_ues_evicted_total"]
	out.metrics["history.query_hot_us"] = mean(q.serviceUs[queryHot])
	out.metrics["history.query_cold_us"] = mean(q.serviceUs[queryCold])
	for _, name := range []string{"lake.spill_us", "lake.read_us", "lake.bytes_per_bin", "shard.ingest_us", "shard.submit_us", "shard.queue_max", "shard.restarts", "shard.dropped"} {
		out.metrics[name] = 0 // no lake or supervisor in a single-cell replay
	}
	if env.pump == nil {
		out.metrics["pump.write_us"], out.metrics["pump.bytes_per_record"], out.metrics["pump.dropped"] = 0, 0, 0
		out.metrics["bus.batch_mean"] = ratio(float64(env.hist.delivered.Load()), float64(env.hist.batches))
	} else {
		out.metrics["bus.batch_mean"] = ratio(float64(env.psink.records.Load()), float64(env.psink.batches))
		name := "nrscope_pump_" + env.pump.Name() + "_"
		out.metrics["pump.bytes_per_record"] = ratio(obsDelta[name+"sent_bytes_total"], obsDelta[name+"records_sent_total"])
	}
	if tr != nil {
		ts := float64(tracedSlot)
		out.metrics["trace.overhead_pct"] = 100 * (rate/(ts/(float64(tracedNs)/1e9)) - 1)
		out.metrics["capfile.next_us"] = tr.layer(spanNext).selfUsPerUnit()
		out.metrics["core.merge_us"] = float64(processNsTraced-elapsedNsTraced) / 1e3 / ts
		out.metrics["bus.publish_us"] = tr.layer(spanPublish).selfUsPerUnit()
		out.metrics["history.ingest_us"] = tr.layer(spanHistory).selfUsPerUnit()
		if env.pump != nil {
			a := tr.layer(spanPump)
			out.metrics["pump.write_us"] = ratio(float64(a.selfNs)/1e3, float64(a.calls))
		}
		pr, err := probeKernels(env.scope, last, o.size.probeSlots)
		last.release()
		if err != nil {
			return nil, err
		}
		pr.report(out, obsDelta, float64(processNsTraced)/1e3*fs/ts, slots, verifies)
		path := filepath.Join(o.workdir, w.name+".spans.jsonl")
		if err := tr.writeFile(path); err != nil {
			return nil, err
		}
		out.note("spans written to %s", path)
	}

	// Live heap of the program's state, with the benchmark's own
	// buffers (captures, samples, spans) released first.
	last.release()
	svc, egressAll, queryAll, q, tr = nil, nil, nil, nil, nil
	out.metrics["heap_live_mb"] = heapLiveMB()
	runtime.KeepAlive(env)
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
