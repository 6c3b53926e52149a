package capfile

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/phy"
	"nrscope/internal/raceflag"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hdr := Header{CellID: 500, Mu: phy.Mu1, NumPRB: 51}
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	g := phy.NewGrid(51)
	g.Set(3, 100, complex(0.5, -0.25))
	caps := []*radio.Capture{
		{SlotIdx: 0, Ref: phy.SlotRef{SFN: 0, Slot: 0}, N0: 0.01, SNRdB: 20, Grid: g},
		{SlotIdx: 1, Ref: phy.SlotRef{SFN: 0, Slot: 1}, N0: 0.02, SNRdB: 17}, // uplink slot
		{SlotIdx: 2, Ref: phy.SlotRef{SFN: 0, Slot: 2}, N0: 0.01, SNRdB: 20, Grid: g},
	}
	for _, c := range caps {
		if err := w.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Slots() != 3 {
		t.Errorf("Slots = %d", w.Slots())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header() != hdr {
		t.Errorf("header %+v, want %+v", r.Header(), hdr)
	}
	for i, want := range caps {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.SlotIdx != want.SlotIdx || got.Ref != want.Ref || got.N0 != want.N0 || got.SNRdB != want.SNRdB {
			t.Errorf("record %d meta: %+v", i, got)
		}
		if (got.Grid == nil) != (want.Grid == nil) {
			t.Fatalf("record %d grid presence mismatch", i)
		}
		if got.Grid != nil {
			v := got.Grid.At(3, 100)
			if math.Abs(real(v)-0.5) > 1e-6 || math.Abs(imag(v)+0.25) > 1e-6 {
				t.Errorf("record %d sample %v", i, v)
			}
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestHeaderValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Header{Mu: phy.Numerology(7), NumPRB: 51}); err == nil {
		t.Error("bad numerology accepted")
	}
	if _, err := NewWriter(&buf, Header{Mu: phy.Mu1, NumPRB: 0}); err == nil {
		t.Error("zero PRBs accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("JUNKDATA???"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("NR"))); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestWriterRejectsMismatchedGrid(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{CellID: 1, Mu: phy.Mu1, NumPRB: 51})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&radio.Capture{Grid: phy.NewGrid(24)}); err == nil {
		t.Error("mismatched grid width accepted")
	}
	_ = w.Close()
	if err := w.Append(&radio.Capture{}); err == nil {
		t.Error("append after close accepted")
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{CellID: 1, Mu: phy.Mu1, NumPRB: 24})
	_ = w.Append(&radio.Capture{SlotIdx: 0, Grid: phy.NewGrid(24)})
	_ = w.Close()
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-100]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated grid read: %v", err)
	}
}

// TestOfflineReplayMatchesLive records a short session and checks the
// scope produces identical telemetry from the replay — the offline
// post-processing workflow.
func TestOfflineReplayMatchesLive(t *testing.T) {
	cfg := ran.AmarisoftCell()
	cfg.Seed = 91
	gnb, err := ran.NewGNB(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	gnb.AddUE(nil, -1)
	rx := radio.NewReceiver(channel.Normal, 25, 9)

	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{CellID: cfg.CellID, Mu: cfg.Mu, NumPRB: cfg.CarrierPRBs})
	if err != nil {
		t.Fatal(err)
	}
	live := core.New(cfg.CellID)
	liveRecords := 0
	const slots = 600
	for i := 0; i < slots; i++ {
		out := gnb.Step()
		cap := rx.Capture(out.SlotIdx, out.Ref, out.Grid)
		if err := w.Append(cap); err != nil {
			t.Fatal(err)
		}
		liveRecords += len(live.ProcessSlot(cap).Records)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if liveRecords == 0 {
		t.Fatal("live pass produced nothing")
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay := core.New(r.Header().CellID)
	replayRecords := 0
	for {
		cap, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		replayRecords += len(replay.ProcessSlot(cap).Records)
	}
	// complex64 quantisation is far below the noise floor; the decoded
	// telemetry must match exactly.
	if replayRecords != liveRecords {
		t.Errorf("replay found %d records, live %d", replayRecords, liveRecords)
	}
}

// TestReaderRejectsOversizedHeader: the header's PRB count sizes every
// grid Next allocates, so a ~40-byte file claiming 65535 PRBs must be
// rejected up front rather than allocate ~260 MB per record.
func TestReaderRejectsOversizedHeader(t *testing.T) {
	hdr := []byte("NRSC")
	hdr = binary.LittleEndian.AppendUint16(hdr, version)
	hdr = binary.LittleEndian.AppendUint16(hdr, 1) // cell id
	hdr = append(hdr, byte(phy.Mu1))
	for _, prbs := range []uint16{maxPRB + 1, 65535} {
		file := binary.LittleEndian.AppendUint16(append([]byte(nil), hdr...), prbs)
		file = append(file, 1)                   // tag: grid follows
		file = append(file, make([]byte, 28)...) // slot, ref, n0, snr
		r, err := NewReader(bytes.NewReader(file))
		if err == nil {
			_, _ = r.Next()
			t.Errorf("header with %d PRBs accepted", prbs)
		}
	}
	file := binary.LittleEndian.AppendUint16(append([]byte(nil), hdr...), maxPRB)
	if _, err := NewReader(bytes.NewReader(file)); err != nil {
		t.Errorf("widest carrier rejected: %v", err)
	}
}

// TestNextReusesReadBuffer: Next allocates only the capture and its grid
// (callers may hold both), never a per-record read buffer.
func TestNextReusesReadBuffer(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const prbs, records = 51, 110
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{CellID: 1, Mu: phy.Mu1, NumPRB: prbs})
	if err != nil {
		t.Fatal(err)
	}
	g := phy.NewGrid(prbs)
	for i := 0; i < records; i++ {
		g.Set(0, 0, complex(float64(i), 0))
		if err := w.Append(&radio.Capture{SlotIdx: i, Grid: g}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var prev *radio.Capture
	perNext := testing.AllocsPerRun(records-10, func() {
		c, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && &c.Grid.Samples()[0] == &prev.Grid.Samples()[0] {
			t.Fatal("consecutive captures share a grid")
		}
		if got := real(c.Grid.At(0, 0)); got != float64(c.SlotIdx) {
			t.Fatalf("slot %d sample %v", c.SlotIdx, got)
		}
		prev = c
	})
	perGrid := testing.AllocsPerRun(10, func() { _ = phy.NewGrid(prbs) })
	if want := perGrid + 1; perNext != want {
		t.Errorf("Next: %.1f allocs/record, want %.1f (capture + grid)", perNext, want)
	}
}

// TestNarrowGridReplayDoesNotPanic: a replay header may claim a grid
// narrower than the PBCH span. Cell search on it must fail cleanly (a
// 1-PRB file used to index out of range inside the PBCH decoder).
func TestNarrowGridReplayDoesNotPanic(t *testing.T) {
	for _, prbs := range []int{1, 19} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{CellID: 1, Mu: phy.Mu1, NumPRB: prbs})
		if err != nil {
			t.Fatal(err)
		}
		g := phy.NewGrid(prbs)
		g.Set(0, 0, complex(1, 1))
		for i := 0; i < 3; i++ {
			if err := w.Append(&radio.Capture{SlotIdx: i, N0: 0.01, Grid: g}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		scope := core.New(r.Header().CellID)
		for {
			c, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if res := scope.ProcessSlot(c); res.MIBAcquired {
				t.Errorf("%d PRBs: MIB acquired from an empty grid", prbs)
			}
		}
	}
}
