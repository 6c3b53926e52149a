// Command nrscope runs the telemetry tool against a simulated 5G SA
// cell: it acquires MIB/SIB1, tracks UE associations through the RACH,
// decodes every UE's DCIs per TTI, and distributes the telemetry
// through the internal/bus fanout to any number of sinks — JSONL log
// files, TCP subscribers, and a live SSE feed on the observability
// endpoint (the paper's §6 feedback path).
//
// Usage:
//
//	nrscope -cell amarisoft -ues 4 -duration 10s -threads 4 \
//	        -sink jsonl:telemetry.jsonl -sink tcp:127.0.0.1:9900
//	nrscope -metrics 127.0.0.1:9090 -sink sse ...   # SSE feed on /events
//	nrscope -record capture.nrsc -duration 10s      # save the air capture
//	nrscope -replay capture.nrsc -sink jsonl:t.jsonl  # post-process offline
//	nrscope -history -metrics 127.0.0.1:9090 ...    # /history query API
//	nrscope -lake ./lake -lake-retention 1h ...     # spill history to disk
//	nrscope -cell amarisoft -fuse-cell mosolab -history ...  # multi-cell fusion
//	nrscope -shards 4 -cell amarisoft -fuse-cell mosolab ... # sharded supervisor
//
// Repeating -fuse-cell monitors additional cells and fuses every cell's
// stream through the §7 aggregator: per-cell load, cross-cell handover
// and carrier-aggregation candidates are reported at exit. With
// -history, the fusion aggregator and the /history query API share one
// bounded store — one copy of the bins backs both.
//
// The -sink flag is repeatable; its grammar is
//
//	jsonl:PATH   append JSON lines to PATH (Block policy: lossless,
//	             drained in full on shutdown; -sink-rotate-mb rotates)
//	tcp:ADDR     serve JSONL over TCP on ADDR (per-connection DropOldest
//	             queues: a slow subscriber drops its own records)
//	sse          serve server-sent events on the -metrics mux at /events
//	promrw:URL   push Prometheus remote-write frames to URL
//	influx:URL   push InfluxDB v2 line protocol (?bucket=B required)
//	otlp:URL     push OTLP/HTTP JSON metrics to URL
//
// The pump sinks (promrw, influx, otlp) take ?key=value options on the
// URL — auth, timestamps, batching, frame size — documented under
// pump.FromSpec; with -replay they backfill a recorded capture into the
// remote store. At exit every bus subscription prints a delivery
// summary (delivered / dropped / retries / quarantines).
//
// With -shards N the cells (the -cell preset plus every -fuse-cell) are
// partitioned across N supervised shards (internal/shard): each shard
// owns its own history partition, bus publisher, and — in multi-cell
// runs — its own fusion aggregator, and is restarted on stall or panic
// with its partition intact. The cross-shard rollup is served under
// /shards on the -metrics mux and summarized at exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nrscope"
	"nrscope/internal/bus"
	"nrscope/internal/capfile"
	"nrscope/internal/fusion"
	"nrscope/internal/history"
	"nrscope/internal/lake"
	"nrscope/internal/obs"
	"nrscope/internal/pump"
	"nrscope/internal/shard"
)

// stringList collects repeated flags (-sink, -fuse-cell).
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var sinks, fuseCells stringList
	var (
		cellName = flag.String("cell", "amarisoft", "cell preset: srsran|mosolab|amarisoft|tmobile1|tmobile2")
		ues      = flag.Int("ues", 2, "number of simulated UEs")
		duration = flag.Duration("duration", 5*time.Second, "capture duration")
		threads  = flag.Int("threads", 1, "DCI decoding threads")
		seed     = flag.Int64("seed", 1, "random seed")
		rotateMB = flag.Int64("sink-rotate-mb", 0, "rotate jsonl sinks after this many MiB (0 = never)")
		noVerify = flag.Bool("skip-msg4-verify", false, "skip RRC Setup PDSCH verification of new UEs (paper's shortcut)")
		record   = flag.String("record", "", "save the raw capture stream to this file")
		replay   = flag.String("replay", "", "process a recorded capture file instead of live slots")
		metrics  = flag.String("metrics", "", "serve Prometheus /metrics, /debug/vars, /debug/pprof and the /events SSE feed on this address (e.g. 127.0.0.1:9090)")

		shards      = flag.Int("shards", 0, "partition the monitored cells across N supervised shards (0 = unsharded); composes with -fuse-cell, -history and -sink")
		hist        = flag.Bool("history", false, "keep a queryable session-history store (served under /history on the -metrics mux)")
		histBin     = flag.Duration("history-bin", 100*time.Millisecond, "history aggregation bin width")
		histDepth   = flag.Int("history-depth", 600, "bins of history retained per UE and per cell")
		histMaxUEs  = flag.Int("history-max-ues", 10000, "UE series cap in the history store (LRU eviction beyond it)")
		idleHorizon = flag.Duration("idle-horizon", 0, "evict UEs idle longer than this from the scope and the history store (0 = slot-count default)")

		lakeDir       = flag.String("lake", "", "spill history bins evicted from RAM into columnar segments under this directory (implies -history; queries answer across RAM + disk)")
		lakeSegMB     = flag.Int64("lake-segment-mb", 8, "seal lake segments at this many MiB")
		lakeRetention = flag.Duration("lake-retention", 0, "drop lake segments wholly older than this horizon (0 = keep everything)")
	)
	flag.Var(&sinks, "sink", "telemetry sink (repeatable): jsonl:PATH | tcp:ADDR | sse")
	flag.Var(&fuseCells, "fuse-cell", "additional cell preset to monitor and fuse with -cell (repeatable; enables the multi-cell aggregator)")
	flag.Parse()

	var metricsSrv *obs.Server
	if *metrics != "" {
		obs.PublishExpvar()
		srv, err := obs.Serve(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		metricsSrv = srv
		fmt.Fprintf(os.Stderr, "nrscope: observability on http://%s/metrics\n", srv.Addr())
	}

	b, closeBus, err := setupSinks(sinks, *rotateMB, metricsSrv)
	if err != nil {
		log.Fatal(err)
	}

	// Sharded mode replaces the single shared store with per-shard
	// partitions owned by the supervisor, so it branches off before the
	// store is built. The -history* flags configure the partitions.
	lakeCfg := lake.Config{
		SegmentBytes: *lakeSegMB << 20,
		Retention:    *lakeRetention,
		BinWidth:     *histBin,
	}
	if *shards > 0 {
		if *record != "" || *replay != "" {
			log.Fatal("nrscope: -shards cannot be combined with -record or -replay")
		}
		histCfg := history.Config{
			BinWidth: *histBin, Depth: *histDepth,
			MaxUEs:      maxUEsPerShard(*histMaxUEs, *shards),
			IdleHorizon: *idleHorizon,
		}
		runSharded(append([]string{*cellName}, fuseCells...), *shards, *ues, *duration, *seed,
			buildOpts(*threads, *noVerify, *idleHorizon), b, metricsSrv, histCfg, *lakeDir, lakeCfg)
		closeBus()
		return
	}

	// The history store is a Block (lossless) bus subscriber, so turning
	// it on creates a bus even when no -sink flags asked for one. -lake
	// spills the store's evicted bins to disk, so it implies the store.
	var store *history.Store
	var lk *lake.Lake
	if *hist || *lakeDir != "" {
		if b == nil {
			nb := bus.New()
			b = nb
			closeBus = func() {
				if err := nb.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "nrscope: history drain: %v\n", err)
				}
			}
		}
		store = history.New(history.Config{
			BinWidth: *histBin, Depth: *histDepth, MaxUEs: *histMaxUEs,
			IdleHorizon: *idleHorizon,
		})
		if *lakeDir != "" {
			var lerr error
			lk, lerr = lake.Open(*lakeDir, lakeCfg)
			if lerr != nil {
				log.Fatal(lerr)
			}
			store.AttachLake(lk)
			fmt.Fprintf(os.Stderr, "nrscope: telemetry lake at %s\n", *lakeDir)
		}
		if metricsSrv != nil {
			store.Mount(metricsSrv)
			fmt.Fprintf(os.Stderr, "nrscope: history API on http://%s/history/ues\n", metricsSrv.Addr())
		}
	}

	opts := buildOpts(*threads, *noVerify, *idleHorizon)
	if len(fuseCells) > 0 {
		if *record != "" || *replay != "" {
			log.Fatal("nrscope: -fuse-cell cannot be combined with -record or -replay")
		}
		// Multi-cell mode: the scopes do not publish to the bus
		// themselves — the fusion aggregator mirrors the fused stream
		// onto it, and feeds the (shared) history store directly.
		runMultiCell(append([]string{*cellName}, fuseCells...), *ues, *duration, *seed, opts, b, store, *idleHorizon)
		closeBus()
		if store != nil {
			printHistorySummary(store)
		}
		closeLake(lk)
		return
	}
	if b != nil {
		opts = append(opts, nrscope.WithBus(b))
	}
	if *replay != "" {
		runReplay(*replay, opts, b, store)
		closeBus() // drain Block subscribers before reading the store
		if store != nil {
			printHistorySummary(store)
		}
		closeLake(lk)
		return
	}

	preset, err := presetByName(*cellName)
	if err != nil {
		log.Fatal(err)
	}
	tb, err := nrscope.NewTestbed(preset, *seed, opts...)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < *ues; i++ {
		tb.AttachUE(nrscope.UEProfile{})
	}
	cellID := tb.GNB.Config().CellID
	if store != nil {
		if err := store.AddCell(cellID, tb.TTI()); err != nil {
			log.Fatal(err)
		}
		if _, err := store.SubscribeTo(b, cellID); err != nil {
			log.Fatal(err)
		}
	}

	var recorder *capfile.Writer
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		cfg := tb.GNB.Config()
		recorder, err = capfile.NewWriter(f, capfile.Header{
			CellID: cfg.CellID, Mu: cfg.Mu, NumPRB: cfg.CarrierPRBs,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer recorder.Close()
	}

	var records, newUEs int
	var elapsed time.Duration
	slots := int(*duration / tb.TTI())
	for i := 0; i < slots; i++ {
		cap, res := tb.StepCapture()
		if recorder != nil {
			if err := recorder.Append(cap); err != nil {
				log.Fatal(err)
			}
		}
		if res.MIBAcquired {
			fmt.Fprintf(os.Stderr, "nrscope: MIB acquired at slot %d\n", res.SlotIdx)
		}
		if res.SIB1Acquired {
			fmt.Fprintf(os.Stderr, "nrscope: SIB1 acquired at slot %d\n", res.SlotIdx)
		}
		newUEs += len(res.NewUEs)
		for _, rnti := range res.NewUEs {
			fmt.Fprintf(os.Stderr, "nrscope: new UE c-rnti=0x%04x at slot %d\n", rnti, res.SlotIdx)
		}
		records += len(res.Records)
		elapsed += res.Elapsed
		if store != nil && res.Spare != nil {
			store.IngestSpare(cellID, res.SlotIdx, res.Spare)
		}
	}
	if recorder != nil {
		fmt.Fprintf(os.Stderr, "nrscope: recorded %d slots to %s\n", recorder.Slots(), *record)
	}

	fmt.Fprintf(os.Stderr, "nrscope: %d records, %d UEs discovered, mean processing %.1f us/slot\n",
		records, newUEs, float64(elapsed.Microseconds())/float64(slots))
	for _, rnti := range tb.Scope.KnownUEs() {
		dl := tb.Scope.Bitrate(rnti, true, tb.GNB.SlotIdx())
		ul := tb.Scope.Bitrate(rnti, false, tb.GNB.SlotIdx())
		fmt.Fprintf(os.Stderr, "  ue 0x%04x: DL %.2f Mbps, UL %.2f Mbps\n", rnti, dl/1e6, ul/1e6)
	}
	closeBus() // drain Block subscribers before reading the store
	if store != nil {
		printHistorySummary(store)
	}
	closeLake(lk)
}

// closeLake drains the lake's spill queue to disk, reports its totals,
// and releases it.
func closeLake(lk *lake.Lake) {
	if lk == nil {
		return
	}
	_ = lk.Sync()
	st := lk.Stats()
	if err := lk.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "nrscope: lake close: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "nrscope: lake: %d segments, %d KiB, %d bins + %d anomalies spilled, %d compactions\n",
		st.Segments, st.Bytes>>10, st.SpilledBins, st.SpilledAnomalies, st.Compactions)
	if st.DroppedEntries > 0 {
		fmt.Fprintf(os.Stderr, "nrscope: lake dropped %d spill entries (queue overflow)\n", st.DroppedEntries)
	}
}

// buildOpts translates the scope-tuning flags into testbed options.
func buildOpts(threads int, noVerify bool, idleHorizon time.Duration) []nrscope.Option {
	opts := []nrscope.Option{nrscope.WithDCIThreads(threads)}
	if noVerify {
		opts = append(opts, nrscope.WithVerifyMSG4(false))
	}
	if idleHorizon > 0 {
		opts = append(opts, nrscope.WithIdleHorizon(idleHorizon))
	}
	return opts
}

// maxUEsPerShard divides the global -history-max-ues cap across the
// shard partitions (each partition enforces its own LRU cap).
func maxUEsPerShard(maxUEs, shards int) int {
	per := maxUEs / shards
	if per < 1 {
		per = 1
	}
	return per
}

// runSharded drives one testbed per cell preset through the sharded
// supervisor: cells are partitioned across the shards, each shard folds
// its cells' records into its own history partition (and, in multi-cell
// runs, its own fusion aggregator) and publishes to the bus. The
// cross-shard rollup is served under /shards on the -metrics mux and
// printed at exit.
func runSharded(cellNames []string, shards, ues int, duration time.Duration, seed int64,
	opts []nrscope.Option, b *bus.Bus, metricsSrv *obs.Server, histCfg history.Config,
	lakeDir string, lakeCfg lake.Config) {
	if shards > len(cellNames) {
		fmt.Fprintf(os.Stderr, "nrscope: %d shards for %d cells; %d shards will idle\n",
			shards, len(cellNames), shards-len(cellNames))
	}
	sup := shard.New(shard.Config{
		Shards:  shards,
		History: histCfg,
		Fusion:  len(cellNames) > 1,
		Bus:     b,
	})
	// One lake partition per shard: a shard's evicted bins spill under
	// its own subdirectory, and the rollup layer's fan-in sees RAM +
	// disk through each partition's queries.
	var lakes []*lake.Lake
	if lakeDir != "" {
		if err := sup.AttachLakes(func(i int) (history.Lake, error) {
			l, err := lake.Open(filepath.Join(lakeDir, fmt.Sprintf("shard-%d", i)), lakeCfg)
			if err == nil {
				lakes = append(lakes, l)
			}
			return l, err
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "nrscope: telemetry lake at %s (%d shard partitions)\n", lakeDir, shards)
	}
	type cellRun struct {
		tb *nrscope.Testbed
		id uint16
	}
	cells := make([]cellRun, 0, len(cellNames))
	for i, name := range cellNames {
		preset, err := presetByName(name)
		if err != nil {
			log.Fatal(err)
		}
		tb, err := nrscope.NewTestbed(preset, seed+int64(i), opts...)
		if err != nil {
			log.Fatal(err)
		}
		cfg := tb.GNB.Config()
		idx, err := sup.AddCell(cfg.CellID, cfg.Mu)
		if err != nil {
			log.Fatalf("nrscope: sharding %q: %v", name, err)
		}
		// Decode-in-shard: the shard worker owning this cell runs the
		// blind decode itself, so the capture loop below only steps the
		// simulators and queues raw slots.
		if err := sup.AttachScope(cfg.CellID, tb.Scope); err != nil {
			log.Fatalf("nrscope: sharding %q: %v", name, err)
		}
		for u := 0; u < ues; u++ {
			tb.AttachUE(nrscope.UEProfile{})
		}
		cells = append(cells, cellRun{tb, cfg.CellID})
		fmt.Fprintf(os.Stderr, "nrscope: cell %d (%s, %v) on shard %d\n", cfg.CellID, name, cfg.Mu, idx)
	}
	if err := sup.Start(); err != nil {
		log.Fatal(err)
	}
	if metricsSrv != nil {
		sup.Mount(metricsSrv)
		fmt.Fprintf(os.Stderr, "nrscope: shard rollup API on http://%s/shards\n", metricsSrv.Addr())
	}

	step := 50 * time.Millisecond
	for t := time.Duration(0); t < duration; t += step {
		for _, c := range cells {
			perStep := int(step / c.tb.TTI())
			for i := 0; i < perStep; i++ {
				if err := sup.SubmitCapture(c.id, c.tb.StepRaw()); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	sup.Flush()

	h := sup.Health()
	fmt.Fprintf(os.Stderr, "nrscope: decoded %d slots across %d cells on %d shards (%d UEs tracked)\n",
		h.DecodedSlots, h.Cells, h.Shards, h.TrackedUEs)
	for _, ps := range h.PerShard {
		state := "up"
		if ps.Dead {
			state = "dead"
		} else if !ps.Up {
			state = "down"
		}
		fmt.Fprintf(os.Stderr, "nrscope: shard %d (%s): %d cells, %d decoded, %d applied, %d dropped, %d restarts, %d UEs\n",
			ps.Shard, state, ps.Cells, ps.DecodedSlots, ps.Applied, ps.Dropped, ps.Restarts, ps.TrackedUEs)
	}
	window := time.Duration(histCfg.BinWidth.Milliseconds()*int64(histCfg.Depth)) * time.Millisecond
	if window <= 0 {
		window = time.Minute
	}
	if ranks, err := sup.TopK("bits", window, 5); err == nil && len(ranks) > 0 {
		fmt.Fprintf(os.Stderr, "nrscope: fused top UEs by bits:\n")
		for _, r := range ranks {
			fmt.Fprintf(os.Stderr, "  cell %d ue 0x%04x: %.0f bits\n", r.Cell, r.RNTI, r.Value)
		}
	}
	if len(cellNames) > 1 {
		hos := sup.Handovers()
		for _, ho := range hos {
			fmt.Fprintf(os.Stderr, "nrscope: %s\n", ho)
		}
		if len(hos) == 0 {
			fmt.Fprintln(os.Stderr, "nrscope: no handover candidates detected")
		}
	}
	if anoms := sup.Anomalies(); len(anoms) > 0 {
		fmt.Fprintf(os.Stderr, "nrscope: shards flagged %d anomalies (last: %s)\n",
			len(anoms), anoms[len(anoms)-1].String())
	}
	if err := sup.Close(); err != nil {
		log.Fatal(err)
	}
	for _, lk := range lakes {
		closeLake(lk)
	}
}

// runMultiCell drives one testbed per cell preset and fuses every
// cell's records through the §7 aggregator. With -history the
// aggregator publishes into the store already serving the query API
// (one bounded copy of the bins backs both); without it the aggregator
// owns a private store at the 10 ms correlation bin. Either way memory
// stays flat for arbitrarily long runs.
func runMultiCell(cellNames []string, ues int, duration time.Duration, seed int64, opts []nrscope.Option, b *bus.Bus, store *history.Store, idleHorizon time.Duration) {
	agg := fusion.NewWithStore(store)
	if idleHorizon > 0 {
		agg.IdleHorizon = idleHorizon
	}
	if b != nil {
		agg.PublishTo(b)
	}
	type cellRun struct {
		tb *nrscope.Testbed
		id uint16
	}
	cells := make([]cellRun, 0, len(cellNames))
	for i, name := range cellNames {
		preset, err := presetByName(name)
		if err != nil {
			log.Fatal(err)
		}
		tb, err := nrscope.NewTestbed(preset, seed+int64(i), opts...)
		if err != nil {
			log.Fatal(err)
		}
		cfg := tb.GNB.Config()
		if err := agg.AddCell(cfg.CellID, cfg.Mu); err != nil {
			log.Fatalf("nrscope: fusing %q: %v", name, err)
		}
		for u := 0; u < ues; u++ {
			tb.AttachUE(nrscope.UEProfile{})
		}
		cells = append(cells, cellRun{tb, cfg.CellID})
		fmt.Fprintf(os.Stderr, "nrscope: fusing cell %d (%s, %v)\n", cfg.CellID, name, cfg.Mu)
	}

	var records int
	step := 50 * time.Millisecond
	for t := time.Duration(0); t < duration; t += step {
		for _, c := range cells {
			id := c.id
			c.tb.RunFor(step, func(res *nrscope.SlotResult) {
				for _, rec := range res.Records {
					_ = agg.Ingest(id, rec)
				}
				if store != nil && res.Spare != nil {
					store.IngestSpare(id, res.SlotIdx, res.Spare)
				}
				records += len(res.Records)
			})
		}
	}

	fmt.Fprintf(os.Stderr, "nrscope: fused %d records across %d cells; merged view holds %d bins\n",
		records, len(cells), len(agg.Merged()))
	for _, c := range cells {
		load, _ := agg.CellLoad(c.id)
		total, recent, _ := agg.ActiveUEs(c.id, duration, time.Second)
		fmt.Fprintf(os.Stderr, "nrscope: cell %d: mean load %.2f Mbps, %d UE sessions retained (%d recent)\n",
			c.id, load/1e6, total, recent)
	}
	hos := agg.Handovers()
	for _, h := range hos {
		fmt.Fprintf(os.Stderr, "nrscope: %s\n", h)
	}
	if len(hos) == 0 {
		fmt.Fprintln(os.Stderr, "nrscope: no handover candidates detected")
	}
	for _, ca := range agg.CarrierAggregation(0.7) {
		fmt.Fprintf(os.Stderr, "nrscope: %s\n", ca)
	}
}

// printHistorySummary rolls up the history store at the end of a run:
// the per-cell retained totals, the busiest UEs, and any anomalies.
func printHistorySummary(store *history.Store) {
	snap := store.Snapshot()
	for _, c := range snap.Cells {
		fmt.Fprintf(os.Stderr, "nrscope: history cell %d: %d UEs, DL %d bits, UL %d bits, %d grants, %d retx in the last %d bins\n",
			c.Cell, c.UEs, c.DLBits, c.ULBits, c.Grants, c.Retx, snap.Depth)
	}
	window := time.Duration(snap.BinMs*float64(snap.Depth)) * time.Millisecond
	if ranks, err := store.TopK("bits", window, 5); err == nil && len(ranks) > 0 {
		fmt.Fprintf(os.Stderr, "nrscope: history top UEs by bits:\n")
		for _, r := range ranks {
			fmt.Fprintf(os.Stderr, "  ue 0x%04x: %.0f bits\n", r.RNTI, r.Value)
		}
	}
	if anoms := store.Anomalies(); len(anoms) > 0 {
		fmt.Fprintf(os.Stderr, "nrscope: history flagged %d anomalies (last: %s)\n",
			len(anoms), anoms[len(anoms)-1].String())
	}
}

// setupSinks builds the telemetry bus from the -sink specs. Returns a
// nil bus when no sinks are requested. The returned closer drains the
// bus (Block sinks lose zero records), prints each subscription's
// delivery summary, and then shuts the TCP servers.
func setupSinks(specs []string, rotateMB int64, metricsSrv *obs.Server) (*bus.Bus, func(), error) {
	if len(specs) == 0 {
		return nil, func() {}, nil
	}
	b := bus.New()
	var tcpServers []*bus.TCPServer
	var subs []*bus.Subscription
	closer := func() {
		if err := b.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "nrscope: sink drain: %v\n", err)
		}
		stats := make([]bus.SubStats, len(subs))
		for i, sub := range subs {
			stats[i] = sub.Stats()
		}
		for _, line := range formatSinkSummary(stats) {
			fmt.Fprintf(os.Stderr, "nrscope: %s\n", line)
		}
		for _, srv := range tcpServers {
			_ = srv.Close()
		}
	}
	fail := func(err error) (*bus.Bus, func(), error) {
		closer()
		return nil, func() {}, err
	}
	for _, spec := range specs {
		kind, arg, _ := strings.Cut(spec, ":")
		switch kind {
		case "jsonl":
			if arg == "" {
				return fail(fmt.Errorf("nrscope: -sink jsonl needs a path (jsonl:PATH)"))
			}
			sink, err := bus.NewJSONLFileSink(arg, rotateMB<<20)
			if err != nil {
				return fail(err)
			}
			// Block policy: the log is the lossless record of the run.
			sub, err := b.Subscribe("jsonl", bus.Block, sink)
			if err != nil {
				return fail(err)
			}
			subs = append(subs, sub)
		case "tcp":
			if arg == "" {
				return fail(fmt.Errorf("nrscope: -sink tcp needs an address (tcp:ADDR)"))
			}
			srv, err := bus.NewTCPServer(b, arg)
			if err != nil {
				return fail(err)
			}
			tcpServers = append(tcpServers, srv)
			fmt.Fprintf(os.Stderr, "nrscope: streaming telemetry on %s\n", srv.Addr())
		case "sse":
			if metricsSrv == nil {
				return fail(fmt.Errorf("nrscope: -sink sse needs the -metrics endpoint (it serves /events on that mux)"))
			}
			metricsSrv.Handle("/events", bus.SSEHandler(b))
			fmt.Fprintf(os.Stderr, "nrscope: SSE telemetry on http://%s/events\n", metricsSrv.Addr())
		case "promrw", "influx", "otlp":
			snk, tun, err := pump.FromSpec(kind, arg)
			if err != nil {
				return fail(err)
			}
			// Live pumps default to DropOldest (freshness over
			// completeness towards a remote store); ?block=true opts
			// into lossless. Retry/backoff/quarantine ride on the bus
			// runner defaults; the pump counts its bus-side drops so
			// sent + dropped closes against the published total.
			policy := bus.DropOldest
			if tun.Block {
				policy = bus.Block
			}
			sub, err := b.Subscribe(snk.Name(), policy, snk,
				bus.WithQueueSize(tun.Queue),
				bus.WithBatch(tun.Batch, tun.Flush),
				bus.WithDropNotify(snk.CountDrops))
			if err != nil {
				_ = snk.Close()
				return fail(err)
			}
			subs = append(subs, sub)
			fmt.Fprintf(os.Stderr, "nrscope: pumping telemetry to %s (%s, %s)\n", snk.URL(), kind, policy)
		default:
			return fail(fmt.Errorf("nrscope: unknown sink %q (want jsonl:PATH, tcp:ADDR, sse, promrw:URL, influx:URL or otlp:URL)", spec))
		}
	}
	return b, closer, nil
}

// formatSinkSummary renders the end-of-run delivery ledger, one line
// per bus subscription. Zero-valued failure columns are elided so the
// healthy case stays short.
func formatSinkSummary(stats []bus.SubStats) []string {
	lines := make([]string, 0, len(stats))
	for _, st := range stats {
		line := fmt.Sprintf("sink %s: %d delivered, %d dropped", st.Name, st.Delivered, st.Dropped)
		if st.Rejected > 0 {
			line += fmt.Sprintf(", %d rejected", st.Rejected)
		}
		if st.Retries > 0 {
			line += fmt.Sprintf(", %d retries", st.Retries)
		}
		if st.Failures > 0 {
			line += fmt.Sprintf(", %d failures", st.Failures)
		}
		if st.Quarantines > 0 {
			line += fmt.Sprintf(", %d quarantines", st.Quarantines)
		}
		lines = append(lines, line)
	}
	return lines
}

// runReplay post-processes a recorded capture file offline (§4: the
// worker pool's on-demand mode; §7: the post-processing library). The
// scope publishes through the same bus/sink set as a live run.
func runReplay(path string, opts []nrscope.Option, b *bus.Bus, store *history.Store) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, err := capfile.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}
	hdr := r.Header()
	fmt.Fprintf(os.Stderr, "nrscope: replaying cell %d (%v, %d PRBs) from %s\n",
		hdr.CellID, hdr.Mu, hdr.NumPRB, path)
	if store != nil {
		if err := store.AddCell(hdr.CellID, hdr.Mu.SlotDuration()); err != nil {
			log.Fatal(err)
		}
		if _, err := store.SubscribeTo(b, hdr.CellID); err != nil {
			log.Fatal(err)
		}
	}
	scope := nrscope.New(hdr.CellID, opts...)

	records, slots, lastSlot := 0, 0, 0
	for {
		cap, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		res := scope.ProcessSlot(cap)
		slots++
		lastSlot = res.SlotIdx
		records += len(res.Records)
		if store != nil && res.Spare != nil {
			store.IngestSpare(hdr.CellID, res.SlotIdx, res.Spare)
		}
	}
	fmt.Fprintf(os.Stderr, "nrscope: replayed %d slots, %d records, %d UEs tracked\n",
		slots, records, len(scope.KnownUEs()))
	for _, rnti := range scope.KnownUEs() {
		fmt.Fprintf(os.Stderr, "  ue 0x%04x: DL %.2f Mbps\n", rnti, scope.Bitrate(rnti, true, lastSlot)/1e6)
	}
}

func presetByName(name string) (nrscope.Preset, error) {
	switch name {
	case "srsran":
		return nrscope.SrsRANPreset, nil
	case "mosolab":
		return nrscope.MosolabPreset, nil
	case "amarisoft":
		return nrscope.AmarisoftPreset, nil
	case "tmobile1":
		return nrscope.TMobile1Preset, nil
	case "tmobile2":
		return nrscope.TMobile2Preset, nil
	default:
		return 0, fmt.Errorf("unknown cell %q", name)
	}
}
