package core

import (
	"sync"
	"time"

	"nrscope/internal/bits"
	"nrscope/internal/dci"
	"nrscope/internal/mcs"
	"nrscope/internal/pdcch"
	"nrscope/internal/pdsch"
	"nrscope/internal/phy"
	"nrscope/internal/radio"
	"nrscope/internal/rrc"
)

// foundDCI is one successfully decoded and translated DCI.
type foundDCI struct {
	rnti  uint16
	d     dci.DCI
	grant dci.Grant
	cand  phy.Candidate
}

// newUE is a MSG4 discovery: the RNTI recovered from the CRC XOR.
type newUE struct {
	rnti  uint16
	grant dci.Grant
	cand  phy.Candidate
}

// decodeResult is everything a decode pass found in one slot.
type decodeResult struct {
	slotIdx int
	ref     phy.SlotRef
	hadGrid bool

	mib     *rrc.MIB
	sib1    *rrc.SIB1
	setup   *rrc.Setup
	common  []foundDCI
	newUEs  []newUE
	data    []foundDCI
	tcRNTIs []uint16 // TC-RNTIs announced by RARs decoded in this slot

	elapsed time.Duration
}

// slotScratch is the reusable working memory of one decodeSlot pass:
// occupancy/claim masks for both CORESETs, the common-search-space
// candidate list, and the position arena. Each Scope owns one: only one
// goroutine drives a Scope at a time, and steady-state slots allocate
// nothing for any of it.
type slotScratch struct {
	occupied   []bool
	claimed    []bool
	ueOccupied []bool
	ueClaimed  []bool
	cssCands   []phy.Candidate
	cssBlock   []uint8
	pdschBuf   []byte // SIB1/RAR/MSG4 transport-block bytes (pdsch.DecodeInto)
	arena      posArena
	seen       rntiSet         // RNTIs the arena's positions recovered
	ueCands    []phy.Candidate // one UE's hashed candidates
	mine       []phy.Candidate // that UE's hits so far
}

// boolMask resizes buf to n entries, filled with fill.
func boolMask(buf []bool, n int, fill bool) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

// raRNTILookback is how many recent slots' RA-RNTIs are excluded from
// new-UE discovery (a RAR's CRC recovers to the RA-RNTI of its own
// slot; the window absorbs scheduling jitter).
const raRNTILookback = 5

// decodeSlot is the read-only half of the per-slot processing: the
// "SIBs thread", "RACH thread" and "DCI threads" of the paper's Fig. 4
// all run here against the scope's current state, which only merge
// changes.
func (s *Scope) decodeSlot(cap *radio.Capture) *decodeResult {
	start := time.Now()
	res := &decodeResult{slotIdx: cap.SlotIdx, ref: cap.Ref}
	met.slots.Inc()
	defer func() {
		res.elapsed = time.Since(start)
		met.decodeLatency.Observe(res.elapsed.Seconds())
	}()
	if cap.Grid == nil {
		return res
	}
	res.hadGrid = true

	// Cell search: until the MIB is in hand nothing else can run.
	if s.mib == nil {
		if data, ok := pdsch.DecodePBCH(cap.Grid, s.cellID, cap.N0); ok {
			if mib, err := rrc.DecodeMIB(data); err == nil && !mib.CellBarred {
				res.mib = &mib
			}
		}
		return res
	}

	sc := s.scratch

	// One DMRS-correlation sweep over the CORESET feeds both passes —
	// this plus the demapping is the "signal processing" term of the
	// paper's O(n log n + m) cost model. With the gate ablated, every
	// CCE is treated as potentially occupied.
	if s.dmrsGate {
		sc.occupied = s.codec.OccupiedCCEsInto(sc.occupied, cap.Grid, s.coreset, cap.Ref.Slot)
	} else {
		sc.occupied = boolMask(sc.occupied, s.coreset.NumCCE(), true)
	}
	sc.claimed = boolMask(sc.claimed, len(sc.occupied), false)

	// CSS pass: SIB decoding and RACH/new-UE tracking.
	s.decodeCommon(cap, res, sc)

	// USS pass: DCI extraction for every known UE, its position decodes
	// striped over the DCI threads (§4). It needs both
	// SIB1 (the active-BWP DCI sizes) and an RRC Setup (the UE search
	// space) — the paper's step 1 before step 2.
	if s.sib1 != nil && s.setup != nil && len(s.rntis) > 0 {
		s.decodeUESpace(cap, res, sc)
	}
	return res
}

// decodeCommon scans the common search space, filling sc.claimed with
// the CCE-claim mask so the USS pass skips already-explained CCEs.
func (s *Scope) decodeCommon(cap *radio.Capture, res *decodeResult, sc *slotScratch) {
	occupied, claimed := sc.occupied, sc.claimed
	fallbackSize := dci.ClassSize(dci.Fallback, s.commonCfg)

	sc.cssCands = phy.AppendSlotCandidates(sc.cssCands[:0], s.commonSS, s.coreset, 0, cap.Ref.Slot)
	for _, cand := range sc.cssCands {
		if !spanTrue(occupied, cand.StartCCE, cand.AggLevel) || anyTrue(claimed, cand.StartCCE, cand.AggLevel) {
			continue
		}
		met.candAttempted.Inc()
		block, err := s.codec.DecodeCandidateInto(sc.cssBlock, cap.Grid, s.coreset, cand, cap.Ref.Slot, fallbackSize, cap.N0)
		if err != nil {
			met.decodeFailed.Inc()
			continue
		}
		sc.cssBlock = block[:0]
		payload, rnti, ok := bits.RecoverRNTI(block)
		if !ok {
			met.decodeFailed.Inc()
			continue
		}
		met.crntiRecovers.Inc()
		d, err := dci.Unpack(payload, dci.Fallback, s.commonCfg)
		if err != nil {
			met.decodeFailed.Inc()
			continue
		}
		grant, err := dci.ToGrant(d, rnti, s.commonCfg, controlLink())
		if err != nil {
			met.decodeFailed.Inc()
			continue
		}
		// CCEs are claimed only for accepted finds: a RecoverRNTI false
		// positive on top of somebody's data DCI (the 8 visible CRC bits
		// pass by chance 1 in 256) must not shadow the USS pass.

		switch {
		case rnti == dci.SIRNTI:
			met.candMatched.Inc()
			if s.sib1 == nil && res.sib1 == nil {
				met.pdschDecodes.Inc()
				data, ok := pdsch.DecodeInto(sc.pdschBuf, cap.Grid, grant, s.cellID, cap.N0)
				sc.pdschBuf = data
				if ok {
					if sib1, err := rrc.DecodeSIB1(data); err == nil {
						res.sib1 = &sib1
					}
				}
			}
			res.common = append(res.common, foundDCI{rnti: rnti, d: d, grant: grant, cand: cand})
			markTrue(claimed, cand.StartCCE, cand.AggLevel)
		case isRecentRARNTI(rnti, cap.SlotIdx):
			met.candMatched.Inc()
			res.common = append(res.common, foundDCI{rnti: rnti, d: d, grant: grant, cand: cand})
			markTrue(claimed, cand.StartCCE, cand.AggLevel)
			// The RAR (MSG 2) announces the TC-RNTI its UE's MSG 4 will be
			// scrambled with: the only RNTIs worth a MSG 4 verify.
			met.pdschDecodes.Inc()
			data, ok := pdsch.DecodeInto(sc.pdschBuf, cap.Grid, grant, s.cellID, cap.N0)
			sc.pdschBuf = data
			if !ok {
				continue
			}
			if rar, err := rrc.DecodeRAR(data); err == nil {
				res.tcRNTIs = append(res.tcRNTIs, rar.TCRNTI)
			}
		default:
			// Candidate MSG 4: the recovered RNTI is a would-be C-RNTI
			// (paper §3.1.2). A recovery no decoded RAR announced is
			// almost always a chance pass of the 8 clear CRC bits (1 in
			// 256 per decode): it is counted and dropped before any PDSCH
			// decode. Otherwise verify via the RRC Setup PDSCH CRC unless
			// the shortcut is on and the Setup is already known.
			if !s.outstanding(rnti) {
				met.msg4Unannounced.Inc()
				continue
			}
			if s.setup == nil || s.verifyMSG4 {
				setup, ok := s.decodeSetup(sc, cap, grant)
				if !ok {
					continue
				}
				if s.setup == nil && res.setup == nil {
					res.setup = &setup
				}
			}
			met.candMatched.Inc()
			met.msg4Hits.Inc()
			res.newUEs = append(res.newUEs, newUE{rnti: rnti, grant: grant, cand: cand})
			markTrue(claimed, cand.StartCCE, cand.AggLevel)
		}
	}
}

// decodeSetup decodes a MSG4 candidate's PDSCH and parses the RRC Setup
// it must carry; the transport-block CRC is the verify.
func (s *Scope) decodeSetup(sc *slotScratch, cap *radio.Capture, grant dci.Grant) (rrc.Setup, bool) {
	met.pdschDecodes.Inc()
	data, ok := pdsch.DecodeInto(sc.pdschBuf, cap.Grid, grant, s.cellID, cap.N0)
	sc.pdschBuf = data
	if !ok {
		return rrc.Setup{}, false
	}
	setup, err := rrc.DecodeSetup(data)
	return setup, err == nil
}

// decodeUESpace blind-decodes every known UE's search-space candidates.
//
// The heavy half of a candidate decode — demapping, descrambling and the
// polar SC pass — does not depend on the RNTI: PDCCH payload scrambling
// uses the cell id (TS 38.211 §7.3.2.3 without a configured UE
// scrambling id), and the RNTI only appears in the CRC mask. So each
// AL-aligned candidate position is decoded once per slot (at most
// sum(NumCCE/AL) positions, independent of the UE count), sharded over
// the DCI threads (§4), and the CRC-XOR trick (§3.1.2) recovers the one
// RNTI the position can belong to. The per-UE sweep then indexes by that
// RNTI: a UE no decoded position recovered is skipped with one bitmap
// test, and only UEs with a hit hash their candidates.
func (s *Scope) decodeUESpace(cap *radio.Capture, res *decodeResult, sc *slotScratch) {
	sizeClass := dci.Fallback
	cfg := s.dataCfg
	if s.setup.NonFallback {
		sizeClass = dci.NonFallback
	}
	payloadBits := dci.ClassSize(sizeClass, cfg)

	// The occupancy mask was swept over CORESET 0, whose CCE indexing is
	// only valid for the UE CORESET when both cover the same control
	// region. A dedicated UE CORESET elsewhere gets its own sweep, and
	// the CSS claim mask (which addresses CORESET-0 CCEs) does not carry
	// over.
	ueOccupied, ueClaimed := sc.occupied, sc.claimed
	if !s.ueCoreset.SameRegion(s.coreset) {
		if s.dmrsGate {
			sc.ueOccupied = s.codec.OccupiedCCEsInto(sc.ueOccupied, cap.Grid, s.ueCoreset, cap.Ref.Slot)
		} else {
			sc.ueOccupied = boolMask(sc.ueOccupied, s.ueCoreset.NumCCE(), true)
		}
		sc.ueClaimed = boolMask(sc.ueClaimed, len(sc.ueOccupied), false)
		ueOccupied, ueClaimed = sc.ueOccupied, sc.ueClaimed
	}

	ar := &sc.arena
	s.decodePositions(cap, payloadBits, ueOccupied, ueClaimed, ar)

	seen := &sc.seen
	for _, idx := range ar.work {
		if ar.state[idx] == posRNTI {
			seen.set(ar.rnti[idx])
		}
	}
	for _, rnti := range s.rntis {
		if seen.has(rnti) {
			res.data = s.decodeOneUE(cap, rnti, sizeClass, cfg, ar, sc, res.data)
		}
	}
	for _, idx := range ar.work {
		if ar.state[idx] == posRNTI {
			seen.clear(ar.rnti[idx])
		}
	}
}

// rntiSet is a bitmap over the 16-bit RNTI space: the per-slot index of
// the RNTIs the decoded positions recovered. Cleared bit by bit after
// each slot, so it costs nothing to reuse.
type rntiSet [1 << 16 / 64]uint64

func (m *rntiSet) set(r uint16)      { m[r>>6] |= 1 << (r & 63) }
func (m *rntiSet) clear(r uint16)    { m[r>>6] &^= 1 << (r & 63) }
func (m *rntiSet) has(r uint16) bool { return m[r>>6]&(1<<(r&63)) != 0 }

// posArena is the flat, indexed store of the per-slot position cache:
// one fixed-size block slot per AL-aligned candidate position of the UE
// search space, addressed arithmetically by (aggregation level, start
// CCE). It replaces a map[posKey][]uint8 rebuilt every slot; the backing
// arrays persist in the slot scratch, so steady-state slots reuse them
// without allocating, and parallel position workers write disjoint
// entries without coordination.
type posArena struct {
	blockLen int
	counts   [len(phy.AggregationLevels)]int // positions per AL index
	base     [len(phy.AggregationLevels)]int // first entry per AL index
	n        int
	blocks   []uint8  // n * blockLen hard-decision bits
	state    []uint8  // posEmpty, posDecoded or posRNTI
	rnti     []uint16 // the RNTI recovered at a posRNTI entry
	work     []int32  // entry indices scheduled for decoding this slot
}

// Arena entry states.
const (
	posEmpty   = iota // not decoded this slot
	posDecoded        // polar-decoded, but the clear CRC bits failed
	posRNTI           // decoded and its RNTI recovered from the CRC XOR
)

// reset shapes the arena for a search space, CORESET size and block
// length, recycling the backing arrays.
func (a *posArena) reset(ss phy.SearchSpace, nCCE, blockLen int) {
	a.blockLen = blockLen
	n := 0
	for i, al := range phy.AggregationLevels {
		a.base[i] = n
		a.counts[i] = 0
		if ss.Candidates[al] == 0 || al > nCCE {
			continue
		}
		a.counts[i] = nCCE / al
		n += a.counts[i]
	}
	a.n = n
	if cap(a.blocks) < n*blockLen {
		a.blocks = make([]uint8, n*blockLen)
	}
	a.blocks = a.blocks[:n*blockLen]
	if cap(a.state) < n {
		a.state = make([]uint8, n)
	}
	a.state = a.state[:n]
	for i := range a.state {
		a.state[i] = posEmpty
	}
	if cap(a.rnti) < n {
		a.rnti = make([]uint16, n)
	}
	a.rnti = a.rnti[:n]
	a.work = a.work[:0]
}

// posAt recovers the (aggregation level, start CCE) of entry idx.
func (a *posArena) posAt(idx int) (al, cce int) {
	for i := range a.base {
		if a.counts[i] > 0 && idx >= a.base[i] && idx < a.base[i]+a.counts[i] {
			al = phy.AggregationLevels[i]
			return al, (idx - a.base[i]) * al
		}
	}
	return 0, 0
}

// writeBlock returns entry idx's block storage, capacity-capped so a
// decode into it cannot spill into the neighbouring entry.
func (a *posArena) writeBlock(idx int) []uint8 {
	return a.blocks[idx*a.blockLen : idx*a.blockLen : (idx+1)*a.blockLen]
}

// entry returns the index of position (al, cce), or -1 if the search
// space has no such position.
func (a *posArena) entry(al, cce int) int {
	i := phy.ALIndex(al)
	if i < 0 || a.counts[i] == 0 || cce%al != 0 {
		return -1
	}
	k := cce / al
	if k < 0 || k >= a.counts[i] {
		return -1
	}
	return a.base[i] + k
}

// block returns entry idx's decoded bits.
func (a *posArena) block(idx int) []uint8 {
	return a.blocks[idx*a.blockLen : (idx+1)*a.blockLen]
}

// decodePositions runs the RNTI-independent half of the blind decode for
// every occupied, unclaimed candidate position of the UE search space,
// sharding the position list across the DCI threads. Positions whose
// aggregation level cannot carry the payload at all are counted as empty
// (nothing can be transmitted there), not as decode failures.
func (s *Scope) decodePositions(cap *radio.Capture, payloadBits int, occupied, claimed []bool, ar *posArena) {
	nCCE := s.ueCoreset.NumCCE()
	ar.reset(s.ueSS, nCCE, payloadBits+24)
	for i, al := range phy.AggregationLevels {
		if ar.counts[i] == 0 {
			continue
		}
		fits := pdcch.PayloadFits(payloadBits, al)
		for cce := 0; cce+al <= nCCE; cce += al {
			if !spanTrue(occupied, cce, al) || anyTrue(claimed, cce, al) {
				continue
			}
			if !fits {
				met.positionsEmpty.Inc()
				continue
			}
			ar.work = append(ar.work, int32(ar.base[i]+cce/al))
		}
	}

	workers := s.dciThreads
	if workers > len(ar.work) {
		workers = len(ar.work)
	}
	if workers <= 1 {
		for _, idx := range ar.work {
			s.decodePosition(cap, payloadBits, ar, int(idx))
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ar.work); i += workers {
				s.decodePosition(cap, payloadBits, ar, int(ar.work[i]))
			}
		}(w)
	}
	wg.Wait()
}

// decodePosition decodes one candidate position into its arena entry and
// recovers the RNTI its CRC is scrambled with — the one CRC check the
// position gets. Entries are disjoint, so parallel workers need no
// locking; the codec's own scratch is pooled per call.
func (s *Scope) decodePosition(cap *radio.Capture, payloadBits int, ar *posArena, idx int) {
	al, cce := ar.posAt(idx)
	cand := phy.Candidate{AggLevel: al, StartCCE: cce}
	met.positions.Inc()
	block, err := s.codec.DecodeCandidateInto(ar.writeBlock(idx), cap.Grid, s.ueCoreset, cand, cap.Ref.Slot, payloadBits, cap.N0)
	if err != nil {
		met.decodeFailed.Inc()
		return
	}
	met.candAttempted.Inc()
	ar.state[idx] = posDecoded
	if _, rnti, ok := bits.RecoverRNTI(block); ok {
		ar.rnti[idx] = rnti
		ar.state[idx] = posRNTI
	}
}

// decodeOneUE sweeps one UE's candidates against the position arena,
// keeping those whose recovered RNTI is the UE's. A UE can legitimately
// receive several DCIs in one TTI (a retransmission plus new data, or a
// downlink assignment plus an uplink grant), so every matching candidate
// is kept; candidates whose CCEs were already explained by a previous
// hit of this UE are skipped.
func (s *Scope) decodeOneUE(cap *radio.Capture, rnti uint16, sizeClass dci.SizeClass, cfg dci.Config, ar *posArena, sc *slotScratch, out []foundDCI) []foundDCI {
	sc.ueCands = phy.AppendSlotCandidates(sc.ueCands[:0], s.ueSS, s.ueCoreset, rnti, cap.Ref.Slot)
	sc.mine = sc.mine[:0] // candidates already decoded for this UE
	for _, cand := range sc.ueCands {
		idx := ar.entry(cand.AggLevel, cand.StartCCE)
		if idx < 0 || ar.state[idx] != posRNTI || ar.rnti[idx] != rnti {
			continue // most candidates belong to other UEs
		}
		if overlapsAny(sc.mine, cand) {
			continue
		}
		block := ar.block(idx)
		d, err := dci.Unpack(block[:len(block)-24], sizeClass, cfg)
		if err != nil {
			met.decodeFailed.Inc()
			continue
		}
		grant, err := dci.ToGrant(d, rnti, cfg, s.link)
		if err != nil {
			met.decodeFailed.Inc()
			continue
		}
		met.candMatched.Inc()
		sc.mine = append(sc.mine, cand)
		out = append(out, foundDCI{rnti: rnti, d: d, grant: grant, cand: cand})
	}
	return out
}

// overlapsAny reports whether cand shares CCEs with any prior hit.
func overlapsAny(prev []phy.Candidate, cand phy.Candidate) bool {
	for _, p := range prev {
		if cand.StartCCE < p.StartCCE+p.AggLevel && p.StartCCE < cand.StartCCE+cand.AggLevel {
			return true
		}
	}
	return false
}

// controlLink mirrors the fallback-format link parameters (single
// layer, 64QAM table) that DCI 1_0 grants always use.
func controlLink() dci.LinkConfig {
	return dci.LinkConfig{DMRSPerPRB: 12, Overhead: 0, Layers: 1, Table: mcs.TableQAM64}
}

func isRecentRARNTI(rnti uint16, slotIdx int) bool {
	for k := 0; k < raRNTILookback; k++ {
		if slotIdx-k < 0 {
			break
		}
		if rnti == dci.RARNTI(slotIdx-k) {
			return true
		}
	}
	return false
}

func spanTrue(mask []bool, start, n int) bool {
	if start < 0 || start+n > len(mask) {
		return false
	}
	for i := start; i < start+n; i++ {
		if !mask[i] {
			return false
		}
	}
	return true
}

func anyTrue(mask []bool, start, n int) bool {
	if start < 0 || start+n > len(mask) {
		return true
	}
	for i := start; i < start+n; i++ {
		if mask[i] {
			return true
		}
	}
	return false
}

func markTrue(mask []bool, start, n int) {
	for i := start; i < start+n && i < len(mask); i++ {
		mask[i] = true
	}
}
