package core

import (
	"testing"

	"nrscope/internal/dci"
	"nrscope/internal/harq"
	"nrscope/internal/pdcch"
	"nrscope/internal/phy"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/rrc"
)

// mismatchScope builds a scope whose UE CORESET covers a different
// control region than CORESET 0 — a configuration the gNB simulator
// never produces (it reuses CORESET 0's span), so the state is
// assembled by hand. Returns the scope and the dedicated UE CORESET.
func mismatchScope(t *testing.T, cfg ran.CellConfig, rnti uint16) (*Scope, phy.CORESET) {
	t.Helper()
	ueCS := phy.CORESET{ID: 1, StartPRB: 6, NumPRB: 24, Duration: 1, StartSym: 2}
	if ueCS.SameRegion(cfg.Coreset0) {
		t.Fatal("test CORESET accidentally matches CORESET 0")
	}
	mib := rrc.MIB{
		Mu: cfg.Mu, CellID: cfg.CellID,
		Coreset0StartPRB: cfg.Coreset0.StartPRB,
		Coreset0NumPRB:   cfg.Coreset0.NumPRB,
		Coreset0Duration: cfg.Coreset0.Duration,
	}
	s := New(cfg.CellID, WithManualCellInfo(mib, cfg.SIB1()), WithDCIThreads(2))
	setup := cfg.Setup
	setup.CORESET = ueCS
	s.setup = &setup
	s.ueCoreset = ueCS
	s.ueSS = phy.SearchSpace{ID: ueCS.ID, Type: phy.UESearchSpace, Candidates: setup.UECandidates}
	s.link = setup.LinkConfig()
	s.ues[rnti] = &UETrack{RNTI: rnti, DL: harq.NewTracker(), UL: harq.NewTracker()}
	s.rntis = []uint16{rnti}
	return s, ueCS
}

// TestUECoresetDistinctRegionDecodes is the regression test for the
// occupancy-mask mismatch: when the UE CORESET covers a different
// control region than CORESET 0, the USS pass must sweep the UE CORESET
// itself rather than indexing CORESET 0's occupancy mask with UE-CORESET
// CCE numbers (which gates every candidate out — CORESET 0 is silent).
func TestUECoresetDistinctRegionDecodes(t *testing.T) {
	cfg := amari()
	rnti := uint16(0x4601)
	s, ueCS := mismatchScope(t, cfg, rnti)

	ref := phy.SlotRef{SFN: 0, Slot: 1}
	g := phy.NewGrid(cfg.CarrierPRBs)
	riv, err := phy.EncodeRIV(cfg.CarrierPRBs, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := dci.DCI{
		Format: dci.Format11, FreqAlloc: riv, TimeAlloc: 0,
		MCS: 10, NDI: 1, RV: 0, HARQID: 2, DAI: 1, TPC: 1,
	}
	payload, err := dci.Pack(d, s.dataCfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := dci.ClassSize(dci.NonFallback, s.dataCfg); len(payload) != want {
		t.Fatalf("packed payload %d bits, class size %d", len(payload), want)
	}
	cands := phy.SlotCandidates(s.ueSS, ueCS, rnti, ref.Slot)
	if len(cands) == 0 {
		t.Fatal("no UE candidates in the dedicated CORESET")
	}
	cand := cands[0]
	enc := pdcch.New(cfg.CellID)
	if err := enc.Encode(g, ueCS, cand, ref.Slot, payload, rnti); err != nil {
		t.Fatal(err)
	}

	// Precondition that makes the regression meaningful: CORESET 0 is
	// silent, so its occupancy mask would gate out every UE candidate.
	for i, occ := range s.codec.OccupiedCCEs(g, s.coreset, ref.Slot) {
		if occ {
			t.Fatalf("CORESET 0 CCE %d unexpectedly occupied", i)
		}
	}

	res := s.ProcessSlot(&radio.Capture{SlotIdx: 41, Ref: ref, Grid: g, N0: 1e-4})
	found := false
	for _, rec := range res.Records {
		if !rec.Common && rec.RNTI == rnti && rec.AggLevel == cand.AggLevel && rec.StartCCE == cand.StartCCE {
			found = true
		}
	}
	if !found {
		t.Fatalf("DCI in the dedicated UE CORESET not decoded; records: %+v", res.Records)
	}
}

// TestInfeasiblePositionsCountEmptyNotFailed: candidate positions whose
// aggregation level cannot carry the payload at all are no-transmission
// positions, not decode failures.
func TestInfeasiblePositionsCountEmptyNotFailed(t *testing.T) {
	s := New(500, WithDCIThreads(2))
	cs := phy.CORESET{ID: 1, StartPRB: 0, NumPRB: 48, Duration: 1, StartSym: 0}
	s.ueCoreset = cs
	s.ueSS = phy.SearchSpace{ID: 1, Type: phy.UESearchSpace, Candidates: phy.DefaultUECandidates()}
	capt := &radio.Capture{Ref: phy.SlotRef{}, Grid: phy.NewGrid(51), N0: 1e-2}
	occupied := boolMask(nil, cs.NumCCE(), true)
	claimed := boolMask(nil, cs.NumCCE(), false)
	// 100 payload bits: K = 124 exceeds AL1's capacity (E = 108 with 20
	// punctured mother bits) but fits every higher level.
	if pdcch.PayloadFits(100, 1) || !pdcch.PayloadFits(100, 2) {
		t.Fatal("payload size does not split the aggregation levels as intended")
	}
	emptyBefore := met.positionsEmpty.Value()
	failedBefore := met.decodeFailed.Value()
	decodedBefore := met.positions.Value()

	var ar posArena
	s.decodePositions(capt, 100, occupied, claimed, &ar)

	// 8 CCEs: 8 AL1 positions are infeasible; 4 AL2 + 2 AL4 + 1 AL8
	// decode (a silent grid still polar-decodes, to garbage).
	if got := met.positionsEmpty.Value() - emptyBefore; got != 8 {
		t.Errorf("positionsEmpty delta = %d, want 8", got)
	}
	if got := met.decodeFailed.Value() - failedBefore; got != 0 {
		t.Errorf("decodeFailed delta = %d, want 0", got)
	}
	if got := met.positions.Value() - decodedBefore; got != 7 {
		t.Errorf("positions decoded delta = %d, want 7", got)
	}
	if _, ok := ar.lookup(1, 0); ok {
		t.Error("infeasible AL1 position reported as decoded")
	}
	if _, ok := ar.lookup(2, 0); !ok {
		t.Error("feasible AL2 position not decoded")
	}
}

// TestPosArenaIndexing pins the flat arena's arithmetic addressing:
// posAt and lookup must agree, blocks must be disjoint and capacity
// capped, and reset must recycle the backing arrays.
func TestPosArenaIndexing(t *testing.T) {
	ss := phy.SearchSpace{Candidates: phy.DefaultUECandidates()}
	const blockLen = 67
	var a posArena
	a.reset(ss, 8, blockLen)
	if a.n != 8+4+2+1 {
		t.Fatalf("arena entries = %d, want 15", a.n)
	}
	for idx := 0; idx < a.n; idx++ {
		al, cce := a.posAt(idx)
		if al == 0 || cce%al != 0 {
			t.Fatalf("posAt(%d) = (%d, %d)", idx, al, cce)
		}
		if _, ok := a.lookup(al, cce); ok {
			t.Fatalf("undecoded position (%d, %d) reported decoded", al, cce)
		}
		blk := a.writeBlock(idx)
		if cap(blk) != blockLen {
			t.Fatalf("writeBlock(%d) cap = %d, want %d (no spill into neighbours)", idx, cap(blk), blockLen)
		}
		a.state[idx] = 1
		got, ok := a.lookup(al, cce)
		if !ok || len(got) != blockLen || &got[0] != &a.blocks[idx*blockLen] {
			t.Fatalf("lookup(%d, %d) does not address entry %d", al, cce, idx)
		}
	}
	if _, ok := a.lookup(4, 2); ok {
		t.Error("unaligned CCE accepted")
	}
	if _, ok := a.lookup(3, 0); ok {
		t.Error("invalid aggregation level accepted")
	}
	if _, ok := a.lookup(16, 0); ok {
		t.Error("level without positions accepted")
	}
	prev := &a.blocks[0]
	a.reset(ss, 8, blockLen)
	if &a.blocks[0] != prev {
		t.Error("reset reallocated the block arena")
	}
	for idx := 0; idx < a.n; idx++ {
		if a.state[idx] != 0 {
			t.Fatal("reset did not clear decode state")
		}
	}
}

// BenchmarkDecodePositions measures the RNTI-independent half of the
// blind decode alone: one polar decode per occupied AL-aligned position
// of the UE search space (all positions forced occupied here).
func BenchmarkDecodePositions(b *testing.B) {
	cfg := amari()
	tb := newTestbed(b, cfg, 25)
	tb.gnb.AddUE(bulk(cfg), -1)
	var capt *radio.Capture
	for i := 0; i < 600; i++ {
		out := tb.gnb.Step()
		c := tb.rx.Capture(out.SlotIdx, out.Ref, out.Grid)
		tb.scope.ProcessSlot(c)
		if tb.scope.SetupKnown() && c.Grid != nil {
			capt = c
		}
	}
	if capt == nil || !tb.scope.SetupKnown() {
		b.Fatal("testbed never reached steady state")
	}
	s := tb.scope
	sizeClass := dci.Fallback
	if s.setup.NonFallback {
		sizeClass = dci.NonFallback
	}
	payloadBits := dci.ClassSize(sizeClass, s.dataCfg)
	occupied := boolMask(nil, s.ueCoreset.NumCCE(), true)
	claimed := boolMask(nil, s.ueCoreset.NumCCE(), false)
	var ar posArena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.decodePositions(capt, payloadBits, occupied, claimed, &ar)
	}
}
