package shard

import (
	"flag"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/history"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/telemetry"
	"nrscope/internal/traffic"
)

// decodeTB is one simulated cell feeding the decode-in-shard path: its
// own gNB, receiver, and telemetry engine (attached to the supervisor
// with AttachScope rather than driven by the test).
type decodeTB struct {
	cfg ran.CellConfig
	gnb *ran.GNB
	rx  *radio.Receiver
	sc  *core.Scope
}

func newDecodeTB(tb testing.TB, cellID uint16, seed int64) *decodeTB {
	tb.Helper()
	cfg := ran.AmarisoftCell()
	cfg.CellID = cellID
	cfg.Seed = seed
	gnb, err := ran.NewGNB(cfg, 1<<20)
	if err != nil {
		tb.Fatal(err)
	}
	return &decodeTB{
		cfg: cfg,
		gnb: gnb,
		rx:  radio.NewReceiver(channel.Normal, 25, cfg.Seed^0xACE),
		sc:  core.New(cfg.CellID),
	}
}

func (d *decodeTB) addUE() {
	d.gnb.AddUE(func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewBulk(4000), traffic.NewCBR(200e3, d.cfg.TTI()),
			channel.New(channel.Normal, d.cfg.BaseSNRdB, seed)
	}, -1)
}

func (d *decodeTB) stepRaw() *radio.Capture {
	out := d.gnb.Step()
	return d.rx.Capture(out.SlotIdx, out.Ref, out.Grid)
}

// TestDecodeInShardEndToEnd: two cells on a two-shard supervisor, the
// raw captures ride the shard queues and the workers run the blind
// decode themselves. Both cells must complete the full acquisition
// sequence (MIB, SIB1, MSG4) inside the workers, the decoded records
// must land in the owning partitions, and the queue accounting must
// close over capture items exactly as over record items.
func TestDecodeInShardEndToEnd(t *testing.T) {
	const slots = 600
	sup := New(Config{
		Shards:       2,
		Policy:       Block,
		History:      history.Config{BinWidth: 10 * time.Millisecond},
		StallTimeout: -1,
	})
	tbs := []*decodeTB{newDecodeTB(t, 101, 11), newDecodeTB(t, 102, 12)}
	for _, d := range tbs {
		if _, err := sup.AddCell(d.cfg.CellID, d.cfg.Mu); err != nil {
			t.Fatal(err)
		}
		if err := sup.AttachScope(d.cfg.CellID, d.sc); err != nil {
			t.Fatal(err)
		}
		d.addUE()
	}
	// A capture for a cell without a scope must be refused up front.
	if err := sup.SubmitCapture(999, tbs[0].stepRaw()); err == nil {
		t.Fatal("SubmitCapture for unknown cell accepted")
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	var wg sync.WaitGroup
	for _, d := range tbs {
		wg.Add(1)
		go func(d *decodeTB) {
			defer wg.Done()
			for i := 0; i < slots; i++ {
				if err := sup.SubmitCapture(d.cfg.CellID, d.stepRaw()); err != nil {
					t.Error(err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	sup.Flush()

	h := sup.Health()
	if h.DecodedSlots != 2*slots {
		t.Fatalf("decoded %d slots, want %d", h.DecodedSlots, 2*slots)
	}
	if h.Ingested != 2*slots || h.Applied != 2*slots || h.Dropped != 0 {
		t.Fatalf("accounting: ingested=%d applied=%d dropped=%d, want %d/%d/0",
			h.Ingested, h.Applied, h.Dropped, 2*slots, 2*slots)
	}
	for _, d := range tbs {
		if !d.sc.CellAcquired() {
			t.Errorf("cell %d never acquired MIB+SIB1 in the shard worker", d.cfg.CellID)
		}
		if !d.sc.SetupKnown() {
			t.Errorf("cell %d never saw MSG4 in the shard worker", d.cfg.CellID)
		}
		ues := d.sc.KnownUEs()
		if len(ues) == 0 {
			t.Errorf("cell %d discovered no UEs", d.cfg.CellID)
			continue
		}
		// The decoded records were folded into the owning partition.
		idx, _ := sup.Partition(d.cfg.CellID)
		samples, err := sup.Store(idx).QueryWindow(d.cfg.CellID, ues[0], time.Minute, 1)
		if err != nil || len(samples) == 0 {
			t.Errorf("cell %d: no history for discovered UE %#x in shard %d (%v)",
				d.cfg.CellID, ues[0], idx, err)
		}
	}
	// Per-shard decode counters sum to the rollup.
	var perShard int64
	for _, ps := range h.PerShard {
		perShard += ps.DecodedSlots
	}
	if perShard != h.DecodedSlots {
		t.Fatalf("per-shard decode counters sum %d != rollup %d", perShard, h.DecodedSlots)
	}
}

// TestSupervisorDecodeMatchesSerial: three cells on two shards, each
// supervised scope striping its positions over two DCI threads, with
// every capture queued before the first Flush so the workers decode
// from a deep backlog. Each cell's record stream, collected through a
// per-cell bus tap, must equal a one-thread serial ProcessSlot run over
// the same captures record for record, order included, across the MIB,
// SIB1 and MSG4 transitions and UEs that attach mid-run; the discovered
// and the tracked UEs must match too.
func TestSupervisorDecodeMatchesSerial(t *testing.T) {
	const slots = 160
	sup := New(Config{Shards: 2, Policy: Block, StallTimeout: -1})

	type cell struct {
		d      *decodeTB
		serial *core.Scope
		caps   []*radio.Capture
		want   []telemetry.Record
		tap    *bus.Bus
		mu     sync.Mutex
		got    []telemetry.Record
	}
	cells := make([]*cell, 3)
	shardsUsed := make(map[int]bool)
	for i := range cells {
		c := &cell{d: newDecodeTB(t, uint16(301+i), int64(41+i)), tap: bus.New()}
		cells[i] = c
		id := c.d.cfg.CellID
		if _, err := c.tap.Subscribe("tap", bus.Block, bus.SinkFunc(func(recs []telemetry.Record) error {
			c.mu.Lock()
			c.got = append(c.got, recs...)
			c.mu.Unlock()
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		c.d.sc = core.New(id, core.WithDCIThreads(2), core.WithBus(c.tap))
		c.serial = core.New(id)
		idx, err := sup.AddCell(id, c.d.cfg.Mu)
		if err != nil {
			t.Fatal(err)
		}
		shardsUsed[idx] = true
		if err := sup.AttachScope(id, c.d.sc); err != nil {
			t.Fatal(err)
		}
		c.d.addUE()
		c.d.addUE()
		for s := 0; s < slots; s++ {
			if s == slots/2 {
				c.d.addUE()
			}
			capt := c.d.stepRaw()
			c.caps = append(c.caps, capt)
			c.want = append(c.want, c.serial.ProcessSlot(capt).Records...)
		}
	}
	if len(shardsUsed) != 2 {
		t.Fatalf("cells landed on %d shards, want 2", len(shardsUsed))
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	for s := 0; s < slots; s++ {
		for _, c := range cells {
			if err := sup.SubmitCapture(c.d.cfg.CellID, c.caps[s]); err != nil {
				t.Fatal(err)
			}
		}
	}
	sup.Flush()
	if h := sup.Health(); h.DecodedSlots != 3*slots || h.Dropped != 0 {
		t.Fatalf("decoded %d of %d captures, %d dropped", h.DecodedSlots, 3*slots, h.Dropped)
	}

	for _, c := range cells {
		id := c.d.cfg.CellID
		if err := c.tap.Close(); err != nil {
			t.Fatal(err)
		}
		if !c.serial.SetupKnown() || len(newUEs(c.want)) < 3 {
			t.Fatalf("cell %d: serial run found %d UEs (setup known: %v); the test did not reach MSG4 discovery",
				id, len(newUEs(c.want)), c.serial.SetupKnown())
		}
		if len(c.got) != len(c.want) {
			t.Errorf("cell %d: supervised run emitted %d records, serial %d", id, len(c.got), len(c.want))
		}
		for i := range c.want {
			if i >= len(c.got) {
				break
			}
			if !reflect.DeepEqual(c.got[i], c.want[i]) {
				t.Errorf("cell %d: record %d differs:\n supervised %+v\n serial     %+v", id, i, c.got[i], c.want[i])
				break
			}
		}
		if got, want := newUEs(c.got), newUEs(c.want); !reflect.DeepEqual(got, want) {
			t.Errorf("cell %d: supervised run discovered %v, serial %v", id, got, want)
		}
		if got, want := c.d.sc.KnownUEs(), c.serial.KnownUEs(); !reflect.DeepEqual(got, want) {
			t.Errorf("cell %d: supervised scope tracks %v, serial %v", id, got, want)
		}
	}
}

// newUEs lists the C-RNTIs of a record stream's MSG4 discoveries, in
// discovery order.
func newUEs(recs []telemetry.Record) []uint16 {
	var out []uint16
	for _, r := range recs {
		if r.NewUE {
			out = append(out, r.RNTI)
		}
	}
	return out
}

// TestDecodeRestartOnPanic: a panic raised while decoding a capture
// (injected through DecodeHook, the capture-side twin of ApplyHook)
// kills the shard worker; the supervisor restarts it, the dropped
// batch is counted, and decode resumes on the same scope afterwards.
func TestDecodeRestartOnPanic(t *testing.T) {
	var once sync.Once
	sup := New(Config{
		Shards:        1,
		Policy:        Block,
		CheckInterval: 2 * time.Millisecond,
		StallTimeout:  -1,
		DecodeHook: func(shard int, cell uint16, cap *radio.Capture) {
			once.Do(func() { panic("injected decode fault") })
		},
	})
	d := newDecodeTB(t, 77, 5)
	if _, err := sup.AddCell(d.cfg.CellID, d.cfg.Mu); err != nil {
		t.Fatal(err)
	}
	if err := sup.AttachScope(d.cfg.CellID, d.sc); err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	// First capture trips the fault; its batch becomes counted drops.
	if err := sup.SubmitCapture(d.cfg.CellID, d.stepRaw()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sup.Health().Restarts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never restarted after decode panic")
		}
		time.Sleep(time.Millisecond)
	}

	// The restarted worker keeps decoding the same scope.
	const more = 200
	for i := 0; i < more; i++ {
		if err := sup.SubmitCapture(d.cfg.CellID, d.stepRaw()); err != nil {
			t.Fatal(err)
		}
	}
	sup.Flush()
	h := sup.Health()
	if h.DecodedSlots == 0 {
		t.Fatal("no slots decoded after restart")
	}
	if h.Dropped == 0 {
		t.Fatal("panicked batch was not counted as dropped")
	}
	if got := h.Applied + h.Dropped; got != h.Ingested {
		t.Fatalf("accounting open after restart: applied %d + dropped %d != ingested %d",
			h.Applied, h.Dropped, h.Ingested)
	}
}

// The "metro decode" scenario: unlike BenchmarkMetroCapture (which
// replays pre-decoded records and measures ingest/apply), this one
// queues raw slot captures and measures the shard workers running the
// full blind decode. CI runs it at -shards 1 and 4 and gates the
// 4-shard run sustaining >= 2x the 1-shard decode throughput.
var metroDecodeCellsFlag = flag.Int("metro.decodecells", 8, "cells in the metro decode scenario")

func BenchmarkMetroDecode(b *testing.B) {
	cells := *metroDecodeCellsFlag
	for _, shards := range metroShardCounts(b) {
		b.Run(fmt.Sprintf("shards=%d/cells=%d", shards, cells), func(b *testing.B) {
			sup := New(Config{
				Shards:       shards,
				QueueSize:    4096,
				Policy:       Block,
				History:      history.Config{BinWidth: 50 * time.Millisecond, Depth: 8},
				StallTimeout: -1,
			})
			tbs := make([]*decodeTB, cells)
			for i := range tbs {
				tbs[i] = newDecodeTB(b, uint16(200+i), int64(31+i))
				if _, err := sup.AddCell(tbs[i].cfg.CellID, tbs[i].cfg.Mu); err != nil {
					b.Fatal(err)
				}
				if err := sup.AttachScope(tbs[i].cfg.CellID, tbs[i].sc); err != nil {
					b.Fatal(err)
				}
				tbs[i].addUE()
			}
			// Warm each scope through acquisition before the workers take
			// over (legal pre-Start: the scopes have no other driver yet),
			// then pre-generate a steady-state capture stream per cell so
			// the timed region measures decode, not RAN synthesis.
			const streamLen = 64
			streams := make([][]*radio.Capture, cells)
			for i, d := range tbs {
				for s := 0; s < 600; s++ {
					d.sc.ProcessSlot(d.stepRaw())
				}
				if !d.sc.CellAcquired() {
					b.Fatalf("cell %d failed acquisition during warm-up", d.cfg.CellID)
				}
				streams[i] = make([]*radio.Capture, streamLen)
				for s := range streams[i] {
					streams[i][s] = d.stepRaw()
				}
			}
			if err := sup.Start(); err != nil {
				b.Fatal(err)
			}
			defer sup.Close()

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			share := b.N / cells
			for i, d := range tbs {
				n := share
				if i == 0 {
					n = b.N - share*(cells-1)
				}
				wg.Add(1)
				go func(id uint16, stream []*radio.Capture, n int) {
					defer wg.Done()
					for s := 0; s < n; s++ {
						if err := sup.SubmitCapture(id, stream[s%len(stream)]); err != nil {
							b.Error(err)
							return
						}
					}
				}(d.cfg.CellID, streams[i], n)
			}
			wg.Wait()
			sup.Flush()
			b.StopTimer()

			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "slots/s")
			h := sup.Health()
			if h.Dropped != 0 {
				b.Fatalf("Block policy benchmark dropped %d captures", h.Dropped)
			}
			if h.DecodedSlots != h.Ingested {
				b.Fatalf("decoded %d of %d ingested captures", h.DecodedSlots, h.Ingested)
			}
		})
	}
}
