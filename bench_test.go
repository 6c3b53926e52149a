package nrscope

// Benchmark harness: one testing.B target per table/figure of the
// paper's evaluation (DESIGN.md §4 maps each to its experiment), plus
// ablation benches for the design choices DESIGN.md §5 calls out.
//
// Each figure bench runs the corresponding experiment end to end at a
// reduced (Quick) scale, so `go test -bench=.` regenerates every result
// in minutes; `cmd/experiments` runs the full-scale versions and prints
// the series. Wall-clock per op therefore means "time to reproduce the
// figure", not a micro-operation.

import (
	"testing"
	"time"

	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/eval"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/shard"
	"nrscope/internal/traffic"
)

// quick is the scale figure benches run at.
var quick = eval.Options{Quick: true, Slots: 3000}

// benchFigure runs one figure experiment per iteration and records a
// headline metric as a custom benchmark unit.
func benchFigure(b *testing.B, fn func(eval.Options) eval.Figure) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := quick
		o.Seed = int64(9000 + i)
		fig := fn(o)
		if len(fig.Series) == 0 {
			b.Fatal("figure produced no series")
		}
	}
}

func BenchmarkFig07aDCIMissRateSrsran(b *testing.B)      { benchFigure(b, eval.Fig7a) }
func BenchmarkFig07bDCIMissRateAmarisoft(b *testing.B)   { benchFigure(b, eval.Fig7b) }
func BenchmarkFig08aREGErrorSrsran(b *testing.B)         { benchFigure(b, eval.Fig8a) }
func BenchmarkFig08bREGErrorAmarisoft(b *testing.B)      { benchFigure(b, eval.Fig8b) }
func BenchmarkFig09aThroughputErrorMosolab(b *testing.B) { benchFigure(b, eval.Fig9a) }
func BenchmarkFig09bThroughputErrorAmarisoft(b *testing.B) {
	benchFigure(b, eval.Fig9b)
}
func BenchmarkFig09cThroughputErrorTMobile(b *testing.B) { benchFigure(b, eval.Fig9c) }
func BenchmarkFig10UEActiveTime(b *testing.B)            { benchFigure(b, eval.Fig10) }
func BenchmarkFig11ActiveUECounts(b *testing.B)          { benchFigure(b, eval.Fig11) }
func BenchmarkFig12ProcessingTime(b *testing.B)          { benchFigure(b, eval.Fig12) }
func BenchmarkFig13Coverage(b *testing.B)                { benchFigure(b, eval.Fig13) }
func BenchmarkFig14SpareCapacity(b *testing.B)           { benchFigure(b, eval.Fig14) }
func BenchmarkFig15MCSRetransmission(b *testing.B)       { benchFigure(b, eval.Fig15) }
func BenchmarkFig16abcScenarios(b *testing.B)            { benchFigure(b, eval.Fig16abc) }
func BenchmarkFig16dPacketAggregation(b *testing.B)      { benchFigure(b, eval.Fig16d) }
func BenchmarkExtSchedulerFingerprint(b *testing.B)      { benchFigure(b, eval.ExtSchedulers) }
func BenchmarkExtCongestionControl(b *testing.B)         { benchFigure(b, eval.ExtCongestion) }

// --- core-loop micro benches ---

// benchSlotLoop measures steady-state per-slot processing with n UEs and
// the given scope options — the primitive underlying Fig. 12.
func benchSlotLoop(b *testing.B, nUEs int, opts ...core.Option) {
	b.Helper()
	cfg := ran.AmarisoftCell()
	cfg.Seed = 77
	gnb, err := ran.NewGNB(cfg, 1<<21)
	if err != nil {
		b.Fatal(err)
	}
	factory := func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewVideo(30, 15000, 0.2, cfg.TTI(), seed),
			traffic.NewCBR(200e3, cfg.TTI()),
			channel.New(channel.Normal, cfg.BaseSNRdB, seed)
	}
	for i := 0; i < nUEs; i++ {
		gnb.AddUE(factory, -1)
	}
	rx := radio.NewReceiver(channel.Normal, 22, 5).Reuse(true)
	scope := core.New(cfg.CellID, opts...)
	for i := 0; i < 1500; i++ { // RACH + discovery settle
		out := gnb.Step()
		scope.ProcessSlot(rx.Capture(out.SlotIdx, out.Ref, out.Grid))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := gnb.Step()
		scope.ProcessSlot(rx.Capture(out.SlotIdx, out.Ref, out.Grid))
	}
}

func BenchmarkSlotLoop4UEs(b *testing.B)  { benchSlotLoop(b, 4) }
func BenchmarkSlotLoop16UEs(b *testing.B) { benchSlotLoop(b, 16) }
func BenchmarkSlotLoop64UEs(b *testing.B) { benchSlotLoop(b, 64) }
func BenchmarkSlotLoop64UEs4Threads(b *testing.B) {
	benchSlotLoop(b, 64, core.WithDCIThreads(4))
}

// BenchmarkUplinkSlotLoop16UEs measures steady-state uplink UCI
// processing — one pucch.Decode energy gate (and, for active resources,
// a full demap/descramble/Viterbi/CRC pass) per tracked RNTI per slot.
func BenchmarkUplinkSlotLoop16UEs(b *testing.B) {
	cfg := ran.AmarisoftCell()
	cfg.Seed = 79
	gnb, err := ran.NewGNB(cfg, 1<<21)
	if err != nil {
		b.Fatal(err)
	}
	factory := func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewVideo(30, 15000, 0.2, cfg.TTI(), seed),
			traffic.NewCBR(200e3, cfg.TTI()),
			channel.New(channel.Normal, cfg.BaseSNRdB, seed)
	}
	for i := 0; i < 16; i++ {
		gnb.AddUE(factory, -1)
	}
	rx := radio.NewReceiver(channel.Normal, 22, 5).Reuse(true)
	ulRX := radio.NewReceiver(channel.Normal, 22, 1301).Reuse(true)
	scope := core.New(cfg.CellID)
	for i := 0; i < 1500; i++ { // RACH + discovery settle
		out := gnb.Step()
		scope.ProcessSlot(rx.Capture(out.SlotIdx, out.Ref, out.Grid))
		scope.ProcessUplinkSlot(ulRX.Capture(out.SlotIdx, out.Ref, out.ULGrid))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := gnb.Step()
		scope.ProcessUplinkSlot(ulRX.Capture(out.SlotIdx, out.Ref, out.ULGrid))
	}
}

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationRRCSetupSkip compares admitting new UEs with full
// RRC-Setup PDSCH verification against the paper's §3.1.2 shortcut that
// only uses the DCI after the first Setup is known.
func BenchmarkAblationRRCSetupSkip(b *testing.B) {
	b.Run("verify", func(b *testing.B) { benchSlotLoop(b, 8, core.WithVerifyMSG4(true)) })
	b.Run("skip", func(b *testing.B) { benchSlotLoop(b, 8, core.WithVerifyMSG4(false)) })
}

// BenchmarkAblationDCIThreads measures the §4 DCI threads, which stripe
// the candidate-position pass.
func BenchmarkAblationDCIThreads(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "1thread", 2: "2threads", 4: "4threads"}[threads], func(b *testing.B) {
			benchSlotLoop(b, 64, core.WithDCIThreads(threads))
		})
	}
}

// BenchmarkAblationDMRSGate measures the DMRS-correlation occupancy gate
// against brute-force decoding of every candidate.
func BenchmarkAblationDMRSGate(b *testing.B) {
	b.Run("gated", func(b *testing.B) { benchSlotLoop(b, 16, core.WithDMRSGate(true)) })
	b.Run("bruteforce", func(b *testing.B) { benchSlotLoop(b, 16, core.WithDMRSGate(false)) })
}

// BenchmarkAblationWorkerPool compares decoding inline in the capture
// loop with handing captures to a one-shard supervisor whose worker
// decodes them (the -shards path), so capture synthesis and decode
// overlap on two cores.
func BenchmarkAblationWorkerPool(b *testing.B) {
	run := func(b *testing.B, sharded bool) {
		cfg := ran.AmarisoftCell()
		cfg.Seed = 78
		gnb, err := ran.NewGNB(cfg, 1<<21)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			gnb.AddUE(nil, -1)
		}
		// No buffer reuse in either arm: the shard queue holds captures.
		rx := radio.NewReceiver(channel.Normal, 22, 5)
		scope := core.New(cfg.CellID)
		process := func(c *radio.Capture) { scope.ProcessSlot(c) }
		var sup *shard.Supervisor
		if sharded {
			sup = shard.New(shard.Config{Policy: shard.Block, StallTimeout: -1})
			if _, err := sup.AddCell(cfg.CellID, cfg.Mu); err != nil {
				b.Fatal(err)
			}
			if err := sup.AttachScope(cfg.CellID, scope); err != nil {
				b.Fatal(err)
			}
			if err := sup.Start(); err != nil {
				b.Fatal(err)
			}
			defer sup.Close()
			process = func(c *radio.Capture) {
				if err := sup.SubmitCapture(cfg.CellID, c); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := gnb.Step()
			process(rx.Capture(out.SlotIdx, out.Ref, out.Grid))
		}
		if sup != nil {
			sup.Flush()
		}
	}
	b.Run("inline", func(b *testing.B) { run(b, false) })
	b.Run("shard", func(b *testing.B) { run(b, true) })
}

// BenchmarkEndToEndTestbed measures the full facade path (the number a
// downstream user sees per TTI).
func BenchmarkEndToEndTestbed(b *testing.B) {
	tb, err := NewTestbed(AmarisoftPreset, 5)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tb.AttachUE(UEProfile{})
	}
	tb.RunFor(500*time.Millisecond, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Step()
	}
}
