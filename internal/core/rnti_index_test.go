package core

import (
	"reflect"
	"slices"
	"testing"

	"nrscope/internal/bits"
	"nrscope/internal/channel"
	"nrscope/internal/dci"
	"nrscope/internal/phy"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
)

// exhaustiveUESpace is the reference USS sweep the RNTI index replaced:
// every tracked RNTI × every hashed candidate × one CRC hypothesis
// (bits.MatchDCICRC). It runs the same CSS pass (for the same claim
// mask) and the same position pass on private scratch, so any drift in
// the index — a skipped UE, a reordered hit, a lost overlap check —
// shows up as a difference in the found DCIs.
func exhaustiveUESpace(s *Scope, snap *snapshot, cap *radio.Capture) []foundDCI {
	if cap.Grid == nil || snap.mib == nil || snap.sib1 == nil || snap.setup == nil || len(snap.rntis) == 0 {
		return nil
	}
	sc := &slotScratch{}
	if snap.dmrsGate {
		sc.occupied = s.codec.OccupiedCCEsInto(nil, cap.Grid, snap.coreset, cap.Ref.Slot)
	} else {
		sc.occupied = boolMask(nil, snap.coreset.NumCCE(), true)
	}
	sc.claimed = boolMask(nil, len(sc.occupied), false)
	s.decodeCommon(snap, cap, &decodeResult{}, sc)
	occupied, claimed := sc.occupied, sc.claimed
	if !snap.ueCoreset.SameRegion(snap.coreset) {
		occupied = s.codec.OccupiedCCEsInto(nil, cap.Grid, snap.ueCoreset, cap.Ref.Slot)
		claimed = boolMask(nil, len(occupied), false)
	}
	sizeClass := dci.Fallback
	if snap.setup.NonFallback {
		sizeClass = dci.NonFallback
	}
	cfg := snap.dataCfg
	var ar posArena
	s.decodePositions(snap, cap, dci.ClassSize(sizeClass, cfg), occupied, claimed, &ar)

	var out []foundDCI
	for _, rnti := range snap.rntis {
		var mine []phy.Candidate
		for _, cand := range phy.AppendSlotCandidates(nil, snap.ueSS, snap.ueCoreset, rnti, cap.Ref.Slot) {
			block, ok := ar.lookup(cand.AggLevel, cand.StartCCE)
			if !ok || overlapsAny(mine, cand) || !bits.MatchDCICRC(block, rnti) {
				continue
			}
			d, err := dci.Unpack(block[:len(block)-24], sizeClass, cfg)
			if err != nil {
				continue
			}
			grant, err := dci.ToGrant(d, rnti, cfg, snap.link)
			if err != nil {
				continue
			}
			mine = append(mine, cand)
			out = append(out, foundDCI{rnti: rnti, d: d, grant: grant, cand: cand})
		}
	}
	return out
}

// lookup returns the decoded block at (al, cce), if that position was
// polar-decoded this slot, whether or not an RNTI was recovered there.
func (a *posArena) lookup(al, cce int) ([]uint8, bool) {
	idx := a.entry(al, cce)
	if idx < 0 || a.state[idx] == posEmpty {
		return nil, false
	}
	return a.block(idx), true
}

func foundRNTIs(fs []foundDCI) []uint16 {
	out := make([]uint16, len(fs))
	for i, f := range fs {
		out[i] = f.rnti
	}
	return out
}

// TestRNTIIndexMatchesExhaustiveSweep: on a 64-UE cell, the RNTI-indexed
// USS pass finds exactly the DCIs of the exhaustive per-UE sweep, in the
// same order, at a clean (22 dB) and a cell-edge (6 dB) scope SNR, with
// one and with four DCI threads.
func TestRNTIIndexMatchesExhaustiveSweep(t *testing.T) {
	slots := 1500
	if testing.Short() {
		slots = 500
	}
	for _, tc := range []struct {
		name    string
		snr     float64
		threads int
	}{
		{"22dB/serial", 22, 1},
		{"22dB/threads4", 22, 4},
		{"6dB/serial", 6, 1},
		{"6dB/threads4", 6, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := amari()
			tb := newTestbed(t, cfg, tc.snr, WithDCIThreads(tc.threads))
			for i := 0; i < 64; i++ {
				tb.gnb.AddUE(bulk(cfg), -1)
			}
			compared, found, maxUEs := 0, 0, 0
			for i := 0; i < slots; i++ {
				out := tb.gnb.Step()
				capt := tb.rx.Capture(out.SlotIdx, out.Ref, out.Grid)
				snap := tb.scope.snapshot()
				res := tb.scope.decodeSlot(snap, capt)
				if want := exhaustiveUESpace(tb.scope, snap, capt); len(want) > 0 || len(res.data) > 0 {
					if !reflect.DeepEqual(res.data, want) {
						t.Fatalf("slot %d: indexed sweep found %d DCIs (RNTIs %v), exhaustive %d (RNTIs %v)",
							out.SlotIdx, len(res.data), foundRNTIs(res.data), len(want), foundRNTIs(want))
					}
					compared++
					found += len(want)
				}
				tb.scope.merge(res)
				if n := len(tb.scope.KnownUEs()); n > maxUEs {
					maxUEs = n
				}
			}
			if compared == 0 || found == 0 {
				t.Fatalf("nothing compared (%d slots, %d DCIs)", compared, found)
			}
			if maxUEs < 32 {
				t.Errorf("only %d UEs tracked; the sweep was not exercised at scale", maxUEs)
			}
			t.Logf("%d slots compared, %d DCIs, %d UEs tracked", compared, found, maxUEs)
		})
	}
}

// TestUnannouncedMSG4CostsNoPDSCHDecode: a MSG4 whose RAR the scope never
// saw is a CSS recovery no decoded RAR announced. It must be counted and
// dropped before any PDSCH decode — the Setup is unknown here, so the old
// path would have run the Viterbi verify on it.
func TestUnannouncedMSG4CostsNoPDSCHDecode(t *testing.T) {
	cfg := amari()
	tb := newTestbed(t, cfg, 25)
	tb.scope = manualScope(cfg)
	rnti := tb.gnb.AddUE(bulk(cfg), -1)
	unannounced := met.msg4Unannounced.Value()
	pdschDecodes := met.pdschDecodes.Value()
	rars, msg4s := 0, 0
	for i := 0; i < 300; i++ {
		out := tb.gnb.Step()
		skip := false
		for _, gt := range out.GT {
			if gt.MSG4 && gt.RNTI == rnti {
				msg4s++
			} else if gt.Common && gt.RNTI == dci.RARNTI(out.SlotIdx) {
				skip = true // the scope misses this RAR
				rars++
			}
		}
		if skip {
			continue
		}
		res := tb.scope.ProcessSlot(tb.rx.Capture(out.SlotIdx, out.Ref, out.Grid))
		if len(res.NewUEs) > 0 {
			t.Fatalf("slot %d: admitted %#x without a decoded RAR", out.SlotIdx, res.NewUEs)
		}
	}
	if rars == 0 || msg4s == 0 {
		t.Fatalf("RACH did not run (%d RARs, %d MSG4s)", rars, msg4s)
	}
	if got := met.msg4Unannounced.Value() - unannounced; got < int64(msg4s) {
		t.Errorf("msg4_unannounced delta %d, want ≥ %d", got, msg4s)
	}
	if got := met.pdschDecodes.Value() - pdschDecodes; got != 0 {
		t.Errorf("%d PDSCH decodes on unannounced recoveries, want 0", got)
	}
	if tb.scope.SetupKnown() {
		t.Error("RRC Setup learned from an unannounced MSG4")
	}
}

// TestAnnouncedTCRNTIExpires: an announced TC-RNTI is eligible for MSG4
// for the 64 ms contention-resolution window after its RAR and is gone
// (and counted) the slot after; a MSG4 admission retires it at once.
func TestAnnouncedTCRNTIExpires(t *testing.T) {
	cfg := amari()
	s := manualScope(cfg)
	window := int(raContentionWindow / cfg.Mu.SlotDuration())
	if window != 128 {
		t.Fatalf("30 kHz window = %d slots, want 128", window)
	}
	const rar = 10
	s.merge(&decodeResult{slotIdx: rar, tcRNTIs: []uint16{0x4601, 0x4602}})
	expired := met.tcExpired.Value()
	for slot := rar + 1; slot <= rar+window; slot++ {
		if snap := s.snapshot(); !reflect.DeepEqual(snap.tcRNTIs, []uint16{0x4601, 0x4602}) {
			t.Fatalf("slot %d: outstanding %v, want both", slot, snap.tcRNTIs)
		}
		s.merge(&decodeResult{slotIdx: slot})
	}
	if snap := s.snapshot(); len(snap.tcRNTIs) != 0 {
		t.Fatalf("after the window: outstanding %v, want none", snap.tcRNTIs)
	}
	if got := met.tcExpired.Value() - expired; got != 2 {
		t.Errorf("tcrnti_expired delta %d, want 2", got)
	}

	s.merge(&decodeResult{slotIdx: 500, tcRNTIs: []uint16{0x4603, 0x4604}})
	s.merge(&decodeResult{slotIdx: 507, newUEs: []newUE{{rnti: 0x4603}}})
	if snap := s.snapshot(); !reflect.DeepEqual(snap.tcRNTIs, []uint16{0x4604}) {
		t.Errorf("after admission: outstanding %v, want [0x4604]", snap.tcRNTIs)
	}
	if s.Track(0x4603) == nil {
		t.Error("MSG4 admission did not track the UE")
	}
}

// TestPipelineBacklogDiscoversSameUEs: with a deep backlog, pipeline
// workers decode a MSG4 slot (6 slots after its RAR) before the RAR slot
// has merged, so the MSG4's TC-RNTI is missing from their snapshot. The
// merge-time re-check must still admit it: the pipeline discovers exactly
// the UEs the synchronous scope discovers.
func TestPipelineBacklogDiscoversSameUEs(t *testing.T) {
	cfg := amari()
	gnb, err := ran.NewGNB(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rx := radio.NewReceiver(channel.Normal, 25, cfg.Seed^0xACE)
	const slots = 300
	caps := make([]*radio.Capture, 0, slots)
	for i := 0; i < slots; i++ {
		if i%30 == 0 {
			for j := 0; j < 2; j++ {
				gnb.AddUE(bulk(cfg), -1)
			}
		}
		out := gnb.Step()
		caps = append(caps, rx.Capture(out.SlotIdx, out.Ref, out.Grid))
	}

	want := make(map[uint16]bool)
	syncScope := manualScope(cfg)
	for _, c := range caps {
		for _, r := range syncScope.ProcessSlot(c).NewUEs {
			want[r] = true
		}
	}
	if len(want) < 8 {
		t.Fatalf("synchronous scope discovered only %d UEs", len(want))
	}

	for _, workers := range []int{4, 8} {
		// Queue depth covers every slot: all captures are submitted
		// before any result is drained, so the workers run far ahead
		// of the merges.
		p := NewPipeline(manualScope(cfg), workers, slots)
		for _, c := range caps {
			p.Submit(c)
		}
		p.Close()
		got := make(map[uint16]bool)
		for res := range p.Results() {
			for _, r := range res.NewUEs {
				got[r] = true
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: pipeline discovered %d UEs %v, synchronous %d %v",
				workers, len(got), keys(got), len(want), keys(want))
		}
	}
}

func keys(m map[uint16]bool) []uint16 {
	out := make([]uint16, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
