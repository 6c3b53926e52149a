// Command nrscope runs the telemetry tool against simulated 5G SA cells
// or a recorded capture: it acquires MIB/SIB1, tracks UE associations
// through the RACH, decodes every UE's DCIs per TTI, and distributes the
// telemetry through the internal/bus fanout to any number of sinks —
// JSONL log files, TCP subscribers, remote stores, and a live SSE feed
// on the observability endpoint (the paper's §6 feedback path).
//
// Usage:
//
//	nrscope -cell amarisoft -ues 4 -duration 10s -threads 4 \
//	        -sink jsonl:telemetry.jsonl -sink tcp:127.0.0.1:9900
//	nrscope -metrics 127.0.0.1:9090 -sink sse ...   # SSE feed on /events
//	nrscope -record capture.nrsc -duration 10s      # save the air capture
//	nrscope -replay capture.nrsc -sink jsonl:t.jsonl  # post-process offline
//	nrscope -lake ./lake -lake-retention 1h ...     # spill history to disk
//	nrscope -cell amarisoft -fuse-cell mosolab ...  # multi-cell fusion
//	nrscope -shards 4 -cell amarisoft -fuse-cell mosolab ... # 4 decode shards
//
// Every run has one shape. The monitored cells (-cell plus every
// -fuse-cell, or the one cell of a -replay file) are partitioned across
// -shards supervised shards (internal/shard, default 1). Each shard
// worker blind-decodes its cells' captures with their scopes, folds the
// records into its own history partition (and, with several cells, its
// fusion aggregator), and publishes them to the sink bus. A shard is
// restarted on stall or panic with its partition intact. The capture
// loop only steps the simulated cells (appending to -record) or reads
// the -replay file, and queues each slot on its shard. At exit one
// summary reports slots, records, discovered UEs, cell acquisition,
// carrier-aggregation and handover candidates, the history top UEs and
// anomalies, and shard health.
//
// With -metrics the cross-shard rollup is served under /shards, and a
// single-shard run also serves its partition's query API under
// /history.
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
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nrscope"
	"nrscope/internal/bus"
	"nrscope/internal/capfile"
	"nrscope/internal/history"
	"nrscope/internal/lake"
	"nrscope/internal/obs"
	"nrscope/internal/phy"
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

// captureQueue bounds each shard's queue, in slot captures. A queued
// capture owns its grid (~55 KB per Amarisoft 20 MHz slot), so the
// supervisor's default 8192-slot queue could hold hundreds of MB during
// a fast -replay; under Block backpressure a short queue only paces the
// capture loop to the decoders.
const captureQueue = 8

// step is how much simulated time each live cell advances before the
// capture loop moves on to the next cell.
const step = 50 * time.Millisecond

// cellRun is one monitored cell: its scope, the testbed stepping it
// (nil when the captures come from a -replay file), and its progress.
type cellRun struct {
	name  string
	id    uint16
	scope *nrscope.Scope
	tb    *nrscope.Testbed
	mu    phy.Numerology
	slots int // captures submitted
	last  int // slot index of the newest capture
}

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args and drives one monitoring run, writing progress and
// the end-of-run summary to stderr.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("nrscope", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sinks, fuseCells stringList
	var (
		cellName = fs.String("cell", "amarisoft", "cell preset: srsran|mosolab|amarisoft|tmobile1|tmobile2")
		ues      = fs.Int("ues", 2, "number of simulated UEs per cell")
		duration = fs.Duration("duration", 5*time.Second, "capture duration")
		threads  = fs.Int("threads", 1, "DCI decoding threads per scope")
		seed     = fs.Int64("seed", 1, "random seed")
		rotateMB = fs.Int64("sink-rotate-mb", 0, "rotate jsonl sinks after this many MiB (0 = never)")
		noVerify = fs.Bool("skip-msg4-verify", false, "skip RRC Setup PDSCH verification of new UEs (paper's shortcut)")
		record   = fs.String("record", "", "save the raw capture stream of the one monitored cell to this file")
		replay   = fs.String("replay", "", "process a recorded capture file instead of live slots")
		metrics  = fs.String("metrics", "", "serve Prometheus /metrics, /debug/vars, /debug/pprof, /shards, /history and the /events SSE feed on this address (e.g. 127.0.0.1:9090)")

		shards      = fs.Int("shards", 1, "partition the monitored cells across N supervised decode shards")
		histBin     = fs.Duration("history-bin", 100*time.Millisecond, "history aggregation bin width")
		histDepth   = fs.Int("history-depth", 600, "bins of history retained per UE and per cell")
		histMaxUEs  = fs.Int("history-max-ues", 10000, "UE series cap across the history partitions (LRU eviction beyond it)")
		idleHorizon = fs.Duration("idle-horizon", 0, "evict UEs idle longer than this from the scope and the history (0 = slot-count default)")

		lakeDir       = fs.String("lake", "", "spill history bins evicted from RAM into columnar segments under this directory (queries answer across RAM + disk)")
		lakeSegMB     = fs.Int64("lake-segment-mb", 8, "seal lake segments at this many MiB")
		lakeRetention = fs.Duration("lake-retention", 0, "drop lake segments wholly older than this horizon (0 = keep everything)")
	)
	fs.Var(&sinks, "sink", "telemetry sink (repeatable): jsonl:PATH | tcp:ADDR | sse | promrw:URL | influx:URL | otlp:URL")
	fs.Var(&fuseCells, "fuse-cell", "additional cell preset to monitor and fuse with -cell (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("nrscope: -shards %d: want at least 1", *shards)
	}
	if *record != "" && *replay != "" {
		return errors.New("nrscope: -record and -replay are exclusive")
	}
	if (*record != "" || *replay != "") && len(fuseCells) > 0 {
		return errors.New("nrscope: -record and -replay take exactly one cell (no -fuse-cell)")
	}

	var metricsSrv *obs.Server
	if *metrics != "" {
		obs.PublishExpvar()
		srv, err := obs.Serve(*metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		metricsSrv = srv
		fmt.Fprintf(stderr, "nrscope: observability on http://%s/metrics\n", srv.Addr())
	}
	b, closeBus, err := setupSinks(sinks, *rotateMB, metricsSrv, stderr)
	if err != nil {
		return err
	}
	defer closeBus() // after sup.Close: drains what the shard workers published

	opts := []nrscope.Option{nrscope.WithDCIThreads(*threads)}
	if *noVerify {
		opts = append(opts, nrscope.WithVerifyMSG4(false))
	}
	if *idleHorizon > 0 {
		opts = append(opts, nrscope.WithIdleHorizon(*idleHorizon))
	}

	// The cells: the one cell of a -replay file, or one simulated
	// testbed per preset.
	var cells []*cellRun
	var rd *capfile.Reader
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		defer f.Close()
		if rd, err = capfile.NewReader(f); err != nil {
			return err
		}
		hdr := rd.Header()
		fmt.Fprintf(stderr, "nrscope: replaying cell %d (%v, %d PRBs) from %s\n",
			hdr.CellID, hdr.Mu, hdr.NumPRB, *replay)
		cells = append(cells, &cellRun{name: "replay", id: hdr.CellID,
			scope: nrscope.New(hdr.CellID, opts...), mu: hdr.Mu})
	} else {
		for i, name := range append([]string{*cellName}, fuseCells...) {
			preset, err := presetByName(name)
			if err != nil {
				return err
			}
			tb, err := nrscope.NewTestbed(preset, *seed+int64(i), opts...)
			if err != nil {
				return err
			}
			for u := 0; u < *ues; u++ {
				tb.AttachUE(nrscope.UEProfile{})
			}
			cfg := tb.GNB.Config()
			cells = append(cells, &cellRun{name: name, id: cfg.CellID, scope: tb.Scope, tb: tb, mu: cfg.Mu})
		}
	}
	if *shards > len(cells) {
		fmt.Fprintf(stderr, "nrscope: %d shards for %d cells; %d shards will idle\n",
			*shards, len(cells), *shards-len(cells))
	}

	// The UE cap is split across the partitions that own a cell; shards
	// beyond the cell count idle.
	histCfg := history.Config{
		BinWidth: *histBin, Depth: *histDepth,
		MaxUEs:      max(*histMaxUEs/min(*shards, len(cells)), 1),
		IdleHorizon: *idleHorizon,
	}
	sup := shard.New(shard.Config{
		Shards:    *shards,
		QueueSize: captureQueue,
		Policy:    shard.Block,
		History:   histCfg,
		Fusion:    len(cells) > 1,
		Bus:       b,
	})
	var lakes []*lake.Lake
	defer func() { // after sup.Close: no partition spills any more
		for _, lk := range lakes {
			closeLake(lk, stderr)
		}
	}()
	if *lakeDir != "" {
		// One lake per history partition; a single partition keeps its
		// lake at the directory itself.
		if err := sup.AttachLakes(func(i int) (history.Lake, error) {
			dir := *lakeDir
			if *shards > 1 {
				dir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
			}
			lk, err := lake.Open(dir, lake.Config{
				SegmentBytes: *lakeSegMB << 20, Retention: *lakeRetention, BinWidth: *histBin,
			})
			if err == nil {
				lakes = append(lakes, lk)
			}
			return lk, err
		}); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "nrscope: telemetry lake at %s (%d partitions)\n", *lakeDir, *shards)
	}
	defer sup.Close() // idempotent; drains the workers before the lakes and sinks close
	for _, c := range cells {
		idx, err := sup.AddCell(c.id, c.mu)
		if err != nil {
			return fmt.Errorf("nrscope: cell %q: %w", c.name, err)
		}
		if err := sup.AttachScope(c.id, c.scope); err != nil {
			return fmt.Errorf("nrscope: cell %q: %w", c.name, err)
		}
		fmt.Fprintf(stderr, "nrscope: cell %d (%s, %v) on shard %d\n", c.id, c.name, c.mu, idx)
	}
	if err := sup.Start(); err != nil {
		return err
	}
	if metricsSrv != nil {
		sup.Mount(metricsSrv)
		fmt.Fprintf(stderr, "nrscope: shard rollup API on http://%s/shards\n", metricsSrv.Addr())
		if *shards == 1 {
			sup.Store(0).Mount(metricsSrv)
			fmt.Fprintf(stderr, "nrscope: history API on http://%s/history/ues\n", metricsSrv.Addr())
		}
	}

	submit := func(c *cellRun, cap *nrscope.Capture) error {
		c.slots++
		c.last = cap.SlotIdx
		return sup.SubmitCapture(c.id, cap)
	}
	if rd != nil {
		for {
			cap, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := submit(cells[0], cap); err != nil {
				return err
			}
		}
	} else {
		var recorder *capfile.Writer
		var recFile *os.File
		if *record != "" {
			if recFile, err = os.Create(*record); err != nil {
				return err
			}
			defer recFile.Close() // error paths; the success path checks Close below
			recorder, err = capfile.NewWriter(recFile, capfile.Header{
				CellID: cells[0].id, Mu: cells[0].mu, NumPRB: cells[0].tb.GNB.Config().CarrierPRBs,
			})
			if err != nil {
				return err
			}
		}
		// Every cell advances step by step through the same simulated
		// time, each to int(duration/TTI) slots in total.
		for t := time.Duration(0); t < *duration; t += step {
			end := min(t+step, *duration)
			for _, c := range cells {
				for c.slots < int(end/c.mu.SlotDuration()) {
					cap := c.tb.StepRaw()
					if recorder != nil {
						if err := recorder.Append(cap); err != nil {
							return err
						}
					}
					if err := submit(c, cap); err != nil {
						return err
					}
				}
			}
		}
		if recorder != nil {
			if err := recorder.Close(); err != nil {
				return err
			}
			if err := recFile.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "nrscope: recorded %d slots to %s\n", recorder.Slots(), *record)
		}
	}
	sup.Flush()
	printSummary(stderr, sup, cells)
	return nil
}

// printSummary is the end-of-run report, read from the scopes' own
// state and the supervisor's rollup once every queued capture has been
// decoded.
func printSummary(w io.Writer, sup *shard.Supervisor, cells []*cellRun) {
	h := sup.Health()
	fmt.Fprintf(w, "nrscope: decoded %d slots, %d records across %d cells on %d shards (%d UEs tracked)\n",
		h.DecodedSlots, h.Records, h.Cells, h.Shards, h.TrackedUEs)
	for _, c := range cells {
		sc := c.scope
		fmt.Fprintf(w, "nrscope: cell %d (%s): %d slots, MIB %s, SIB1 %s, %d UEs discovered\n",
			c.id, c.name, c.slots, acquired(sc.MIB() != nil), acquired(sc.SIB1() != nil),
			len(sc.KnownUEs())+len(sc.DepartedUEs()))
		for _, rnti := range sc.KnownUEs() {
			fmt.Fprintf(w, "  ue 0x%04x: first seen at slot %d, DL %.2f Mbps, UL %.2f Mbps\n", rnti,
				sc.Track(rnti).FirstSeen, sc.Bitrate(rnti, true, c.last)/1e6, sc.Bitrate(rnti, false, c.last)/1e6)
		}
	}
	snap := sup.Snapshot()
	for _, cs := range snap.Cells {
		fmt.Fprintf(w, "nrscope: history cell %d: %d UEs, DL %d bits, UL %d bits, %d grants, %d retx in the last %d bins\n",
			cs.Cell, cs.UEs, cs.DLBits, cs.ULBits, cs.Grants, cs.Retx, snap.Depth)
	}
	window := time.Duration(snap.BinMs*float64(snap.Depth)) * time.Millisecond
	if ranks, err := sup.TopK("bits", window, 5); err == nil && len(ranks) > 0 {
		fmt.Fprintf(w, "nrscope: history top UEs by bits:\n")
		for _, r := range ranks {
			fmt.Fprintf(w, "  cell %d ue 0x%04x: %.0f bits\n", r.Cell, r.RNTI, r.Value)
		}
	}
	if anoms := sup.Anomalies(); len(anoms) > 0 {
		fmt.Fprintf(w, "nrscope: history flagged %d anomalies (last: %s)\n",
			len(anoms), anoms[len(anoms)-1].String())
	}
	if len(cells) > 1 {
		hos := sup.Handovers()
		for _, ho := range hos {
			fmt.Fprintf(w, "nrscope: %s\n", ho)
		}
		cas := sup.CarrierAggregation(0.7)
		for _, ca := range cas {
			fmt.Fprintf(w, "nrscope: %s\n", ca)
		}
		fmt.Fprintf(w, "nrscope: %d handover candidates, %d carrier-aggregation candidates\n", len(hos), len(cas))
	}
	for _, ps := range h.PerShard {
		state := "up"
		if ps.Dead {
			state = "dead"
		} else if !ps.Up {
			state = "down"
		}
		fmt.Fprintf(w, "nrscope: shard %d (%s): %d cells, %d decoded, %d applied, %d dropped, %d restarts, %d UEs\n",
			ps.Shard, state, ps.Cells, ps.DecodedSlots, ps.Applied, ps.Dropped, ps.Restarts, ps.TrackedUEs)
	}
}

func acquired(ok bool) string {
	if ok {
		return "acquired"
	}
	return "not acquired"
}

// closeLake drains the lake's spill queue to disk, reports its totals,
// and releases it.
func closeLake(lk *lake.Lake, w io.Writer) {
	_ = lk.Sync()
	st := lk.Stats()
	if err := lk.Close(); err != nil {
		fmt.Fprintf(w, "nrscope: lake close: %v\n", err)
	}
	fmt.Fprintf(w, "nrscope: lake: %d segments, %d KiB, %d bins + %d anomalies spilled, %d compactions\n",
		st.Segments, st.Bytes>>10, st.SpilledBins, st.SpilledAnomalies, st.Compactions)
	if st.DroppedEntries > 0 {
		fmt.Fprintf(w, "nrscope: lake dropped %d spill entries (queue overflow)\n", st.DroppedEntries)
	}
}

// setupSinks builds the telemetry bus from the -sink specs. Returns a
// nil bus when no sinks are requested. The returned closer drains the
// bus (Block sinks lose zero records), prints each subscription's
// delivery summary, and then shuts the TCP servers.
func setupSinks(specs []string, rotateMB int64, metricsSrv *obs.Server, stderr io.Writer) (*bus.Bus, func(), error) {
	if len(specs) == 0 {
		return nil, func() {}, nil
	}
	b := bus.New()
	var tcpServers []*bus.TCPServer
	var subs []*bus.Subscription
	closer := func() {
		if err := b.Close(); err != nil {
			fmt.Fprintf(stderr, "nrscope: sink drain: %v\n", err)
		}
		stats := make([]bus.SubStats, len(subs))
		for i, sub := range subs {
			stats[i] = sub.Stats()
		}
		for _, line := range formatSinkSummary(stats) {
			fmt.Fprintf(stderr, "nrscope: %s\n", line)
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
			fmt.Fprintf(stderr, "nrscope: streaming telemetry on %s\n", srv.Addr())
		case "sse":
			if metricsSrv == nil {
				return fail(fmt.Errorf("nrscope: -sink sse needs the -metrics endpoint (it serves /events on that mux)"))
			}
			metricsSrv.Handle("/events", bus.SSEHandler(b))
			fmt.Fprintf(stderr, "nrscope: SSE telemetry on http://%s/events\n", metricsSrv.Addr())
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
			fmt.Fprintf(stderr, "nrscope: pumping telemetry to %s (%s, %s)\n", snk.URL(), kind, policy)
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
