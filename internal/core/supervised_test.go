package core_test

// Off-loop decode equivalence: a Scope decoded inside a shard worker —
// the one runtime that moves decode off the capture loop — from a queue
// that is allowed to back up must emit exactly what the same Scope
// emits when the capture loop calls ProcessSlot inline. The scopes are
// fed pre-recorded captures so both sides see identical input.

import (
	"reflect"
	"sync"
	"testing"

	"nrscope/internal/bus"
	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/rrc"
	"nrscope/internal/shard"
	"nrscope/internal/telemetry"
	"nrscope/internal/traffic"
)

func amariCell(cellID uint16, seed int64) ran.CellConfig {
	cfg := ran.AmarisoftCell()
	cfg.CellID = cellID
	cfg.Seed = seed
	return cfg
}

func bulkUE(cfg ran.CellConfig) ran.UEFactory {
	return func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewBulk(4000), traffic.NewCBR(200e3, cfg.TTI()),
			channel.New(channel.Normal, cfg.BaseSNRdB, seed)
	}
}

// recordCaptures steps a gNB for slots TTIs and returns the scope-side
// captures. attach(slot) says how many bulk UEs join before that slot.
func recordCaptures(t *testing.T, cfg ran.CellConfig, slots int, attach func(slot int) int) []*radio.Capture {
	t.Helper()
	gnb, err := ran.NewGNB(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rx := radio.NewReceiver(channel.Normal, 25, cfg.Seed^0xACE)
	caps := make([]*radio.Capture, 0, slots)
	for i := 0; i < slots; i++ {
		for n := attach(i); n > 0; n-- {
			gnb.AddUE(bulkUE(cfg), -1)
		}
		out := gnb.Step()
		caps = append(caps, rx.Capture(out.SlotIdx, out.Ref, out.Grid))
	}
	return caps
}

// supervisedCell is one cell's input and the scope that decodes it.
type supervisedCell struct {
	cfg   ran.CellConfig
	caps  []*radio.Capture
	scope *core.Scope

	tap *bus.Bus
	mu  sync.Mutex
	got []telemetry.Record
}

// newSupervisedCell builds the supervised scope with opts plus a
// per-cell bus tap collecting everything it publishes.
func newSupervisedCell(t *testing.T, cfg ran.CellConfig, caps []*radio.Capture, opts ...core.Option) *supervisedCell {
	t.Helper()
	c := &supervisedCell{cfg: cfg, caps: caps, tap: bus.New()}
	if _, err := c.tap.Subscribe("tap", bus.Block, bus.SinkFunc(func(recs []telemetry.Record) error {
		c.mu.Lock()
		c.got = append(c.got, recs...)
		c.mu.Unlock()
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	c.scope = core.New(cfg.CellID, append(opts, core.WithBus(c.tap))...)
	return c
}

// decodeSupervised attaches every cell to a Block-policy supervisor,
// queues all captures before the first Flush (one producer goroutine
// per cell when concurrent, else interleaved from this goroutine) so
// the workers decode from a full backlog, and returns each cell's
// record stream in publication order.
func decodeSupervised(t *testing.T, shards int, concurrent bool, cells []*supervisedCell) [][]telemetry.Record {
	t.Helper()
	sup := shard.New(shard.Config{Shards: shards, Policy: shard.Block, StallTimeout: -1})
	total := 0
	for _, c := range cells {
		if _, err := sup.AddCell(c.cfg.CellID, c.cfg.Mu); err != nil {
			t.Fatal(err)
		}
		if err := sup.AttachScope(c.cfg.CellID, c.scope); err != nil {
			t.Fatal(err)
		}
		total += len(c.caps)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if concurrent {
		var wg sync.WaitGroup
		for _, c := range cells {
			wg.Add(1)
			go func(c *supervisedCell) {
				defer wg.Done()
				for _, capt := range c.caps {
					if err := sup.SubmitCapture(c.cfg.CellID, capt); err != nil {
						t.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	} else {
		for s := 0; s < len(cells[0].caps); s++ {
			for _, c := range cells {
				if err := sup.SubmitCapture(c.cfg.CellID, c.caps[s]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sup.Flush()
	if h := sup.Health(); h.DecodedSlots != int64(total) || h.Dropped != 0 {
		t.Fatalf("decoded %d of %d captures, %d dropped", h.DecodedSlots, total, h.Dropped)
	}
	out := make([][]telemetry.Record, len(cells))
	for i, c := range cells {
		if err := c.tap.Close(); err != nil {
			t.Fatal(err)
		}
		out[i] = c.got
	}
	return out
}

// decodeSerial runs the captures through ProcessSlot on the capture
// goroutine and returns the records and the scope.
func decodeSerial(sc *core.Scope, caps []*radio.Capture) ([]telemetry.Record, *core.Scope) {
	var recs []telemetry.Record
	for _, capt := range caps {
		recs = append(recs, sc.ProcessSlot(capt).Records...)
	}
	return recs, sc
}

// requireSameRecords fails unless got equals want record for record,
// order included.
func requireSameRecords(t *testing.T, cell uint16, got, want []telemetry.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("cell %d: supervised run emitted %d records, serial %d", cell, len(got), len(want))
	}
	for i := range want {
		if i >= len(got) {
			break
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("cell %d: record %d differs:\n supervised %+v\n serial     %+v", cell, i, got[i], want[i])
			return
		}
	}
}

// discovered lists the C-RNTIs a record stream reports as MSG4
// discoveries, in discovery order.
func discovered(recs []telemetry.Record) []uint16 {
	var out []uint16
	for _, r := range recs {
		if r.NewUE {
			out = append(out, r.RNTI)
		}
	}
	return out
}

// TestPipelineMatchesSynchronous: one cell with a bulk UE, decoded for
// 1000 slots in a shard worker from a full backlog, emits exactly the
// synchronous record stream — no slot decoded against stale state.
func TestPipelineMatchesSynchronous(t *testing.T) {
	cfg := amariCell(1, 99)
	caps := recordCaptures(t, cfg, 1000, func(slot int) int {
		if slot == 0 {
			return 1
		}
		return 0
	})
	want, _ := decodeSerial(core.New(cfg.CellID), caps)
	if len(want) == 0 {
		t.Fatal("no records in synchronous run")
	}
	c := newSupervisedCell(t, cfg, caps)
	got := decodeSupervised(t, 1, false, []*supervisedCell{c})[0]
	requireSameRecords(t, cfg.CellID, got, want)
}

// TestDecodePoolMatchesSerial: two cells share a two-shard decode
// runtime, each fed by its own concurrent producer as in a multi-cell
// capture loop. Each cell must match its serial run through the full
// acquisition sequence (MIB, SIB1, MSG4 discovery) and steady-state
// traffic, and track the same UEs.
func TestDecodePoolMatchesSerial(t *testing.T) {
	const slots = 600
	var cells []*supervisedCell
	var want [][]telemetry.Record
	var serial []*core.Scope
	for i := 0; i < 2; i++ {
		cfg := amariCell(uint16(100+i), int64(7+i))
		caps := recordCaptures(t, cfg, slots, func(slot int) int {
			if slot == 0 {
				return 1
			}
			return 0
		})
		recs, sc := decodeSerial(core.New(cfg.CellID), caps)
		want = append(want, recs)
		serial = append(serial, sc)
		cells = append(cells, newSupervisedCell(t, cfg, caps))
	}
	got := decodeSupervised(t, 2, true, cells)
	for i, c := range cells {
		id := c.cfg.CellID
		requireSameRecords(t, id, got[i], want[i])
		if !c.scope.CellAcquired() || !c.scope.SetupKnown() {
			t.Errorf("cell %d: supervised scope missed cell acquisition or MSG4", id)
		}
		if g, w := c.scope.KnownUEs(), serial[i].KnownUEs(); len(w) == 0 || !reflect.DeepEqual(g, w) {
			t.Errorf("cell %d: supervised scope tracks %v, serial %v", id, g, w)
		}
	}
}

// TestPipelineBacklogDiscoversSameUEs: UEs attach in bursts every 30
// slots, and all 300 captures are queued before any is decoded, so each
// MSG4 slot (6 slots after its RAR) sits in the backlog behind the RAR
// that announces its TC-RNTI. The worker decodes them in slot order on
// live scope state, so it discovers exactly the UEs the synchronous
// scope discovers — with one DCI thread and with four.
func TestPipelineBacklogDiscoversSameUEs(t *testing.T) {
	cfg := amariCell(1, 99)
	caps := recordCaptures(t, cfg, 300, func(slot int) int {
		if slot%30 == 0 {
			return 2
		}
		return 0
	})
	mib := rrc.MIB{
		SFN: 0, Mu: cfg.Mu, CellID: cfg.CellID,
		Coreset0StartPRB: cfg.Coreset0.StartPRB,
		Coreset0NumPRB:   cfg.Coreset0.NumPRB,
		Coreset0Duration: cfg.Coreset0.Duration,
	}
	manual := core.WithManualCellInfo(mib, cfg.SIB1())
	recs, _ := decodeSerial(core.New(cfg.CellID, manual), caps)
	want := discovered(recs)
	if len(want) < 8 {
		t.Fatalf("synchronous scope discovered only %d UEs", len(want))
	}
	for _, threads := range []int{1, 4} {
		c := newSupervisedCell(t, cfg, caps, manual, core.WithDCIThreads(threads))
		got := discovered(decodeSupervised(t, 1, false, []*supervisedCell{c})[0])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d DCI threads: supervised scope discovered %d UEs %v, synchronous %d %v",
				threads, len(got), got, len(want), want)
		}
	}
}

// TestDecodeSlotConcurrencyAcrossAcquisition drives two cells on two
// shard workers, each scope striping its positions over four DCI
// threads, through the MIB/SIB1/Setup transitions. Kept -short-friendly
// so the race CI exercises position goroutines inside concurrent
// workers; the result must still match the one-thread serial run.
func TestDecodeSlotConcurrencyAcrossAcquisition(t *testing.T) {
	const slots = 700
	var cells []*supervisedCell
	var want [][]telemetry.Record
	for i := 0; i < 2; i++ {
		cfg := amariCell(uint16(200+i), int64(21+i))
		caps := recordCaptures(t, cfg, slots, func(slot int) int {
			if slot == 0 {
				return 3
			}
			return 0
		})
		recs, _ := decodeSerial(core.New(cfg.CellID), caps)
		want = append(want, recs)
		cells = append(cells, newSupervisedCell(t, cfg, caps, core.WithDCIThreads(4)))
	}
	got := decodeSupervised(t, 2, true, cells)
	for i, c := range cells {
		id := c.cfg.CellID
		data := 0
		for _, r := range got[i] {
			if !r.Common {
				data++
			}
		}
		if len(discovered(got[i])) == 0 {
			t.Errorf("cell %d: no UEs discovered across acquisition under concurrency", id)
		}
		if data == 0 {
			t.Errorf("cell %d: no data DCIs decoded under concurrency", id)
		}
		requireSameRecords(t, id, got[i], want[i])
	}
}
