// Package core is NR-Scope itself — the paper's primary contribution: a
// passive 5G Standalone telemetry engine that, from received slot grids
// alone, (1) acquires the cell configuration from MIB and SIB1, (2)
// tracks UE associations by recovering C-RNTIs from MSG 4 DCIs via the
// CRC-XOR trick, and (3) blind-decodes every PDCCH candidate of every
// known UE in every TTI, translating DCIs into grants, transport block
// sizes, throughput, HARQ retransmissions and spare-capacity telemetry.
//
// Each slot runs the paper's Fig. 4 tasks in two halves: decodeSlot (the
// SIB, RACH and DCI tasks) reads the scope's state, and merge folds the
// findings back in, strictly in slot order. A Scope is driven by one
// goroutine at a time: inline through ProcessSlot, or inside a shard
// worker (internal/shard) when cells decode in parallel. WithDCIThreads
// stripes one slot's candidate positions across goroutines.
package core

import (
	"fmt"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/dci"
	"nrscope/internal/harq"
	"nrscope/internal/mcs"
	"nrscope/internal/pdcch"
	"nrscope/internal/phy"
	"nrscope/internal/radio"
	"nrscope/internal/rrc"
	"nrscope/internal/telemetry"
)

// Option configures a Scope.
type Option func(*Scope)

// WithDCIThreads sets how many goroutines stripe the UE search space's
// candidate positions during DCI extraction (the paper's "DCI threads",
// §4). The per-UE sweep that follows is a bitmap lookup per UE and runs
// on the calling goroutine. Default 1.
func WithDCIThreads(n int) Option {
	return func(s *Scope) {
		if n > 0 {
			s.dciThreads = n
		}
	}
}

// WithVerifyMSG4 controls whether a new-UE candidate's RRC Setup PDSCH
// is decoded and CRC-verified before admitting the UE. Either way a MSG4
// candidate is considered only if a decoded RAR announced its TC-RNTI
// within the contention-resolution window; every other CSS recovery is
// dropped before any PDSCH decode. The paper's shortcut (§3.1.2) skips
// the Setup decode after the first UE, saving one PDSCH decode per RACH;
// with the RAR gate in front it admits no ghost UEs. Default: verify.
func WithVerifyMSG4(v bool) Option {
	return func(s *Scope) { s.verifyMSG4 = v }
}

// WithIdleHorizon drops UEs unseen for longer than d (they left the
// RAN; their C-RNTI may be reassigned). The horizon converts to slots
// once the numerology is known, so live scope, fusion and history share
// one wall-clock eviction knob. Default 20000 slots.
func WithIdleHorizon(d time.Duration) Option {
	return func(s *Scope) {
		if d > 0 {
			s.idleHorizon = d
		}
	}
}

// WithDMRSGate toggles the DMRS-correlation occupancy gate that lets the
// blind decoder skip candidates with no transmission. On by default;
// turning it off decodes every candidate of every UE in every slot (the
// brute-force baseline the gate is measured against).
func WithDMRSGate(on bool) Option {
	return func(s *Scope) { s.dmrsGate = on }
}

// WithBus attaches a telemetry distribution bus: every record the scope
// emits is also published onto b at the merge point, fanning out to the
// bus's sinks under their own queues and backpressure policies.
func WithBus(b *bus.Bus) Option {
	return func(s *Scope) { s.bus = b }
}

// WithManualCellInfo preloads the cell configuration instead of decoding
// it off the air — the paper's §3.1.1 NSA mode, where the 5G cell's
// system information is delivered encrypted via the LTE anchor and
// NR-Scope "requires manual input of 5G cell information". The scope
// skips MIB/SIB1 acquisition and goes straight to UE tracking.
func WithManualCellInfo(mib rrc.MIB, sib1 rrc.SIB1) Option {
	return func(s *Scope) {
		m, s1 := mib, sib1
		s.mib = &m
		s.coreset = m.Coreset0()
		s.commonSS = phy.SearchSpace{ID: 0, Type: phy.CommonSearchSpace, Candidates: phy.DefaultCommonCandidates()}
		s.commonCfg = dci.Config{BWPPRBs: s.coreset.NumPRB, TimeAllocRows: len(phy.DefaultTimeAllocTable), MaxHARQ: 16}
		s.sib1 = &s1
		s.dataCfg = dci.Config{BWPPRBs: s1.CarrierPRBs, TimeAllocRows: s1.TimeAllocRows, MaxHARQ: 16}
		s.estimator = telemetry.NewWindowEstimator(throughputWindow, m.Mu.SlotDuration())
	}
}

// throughputWindow is the sliding window of the bitrate estimator
// (§3.2.2).
const throughputWindow = 100 * time.Millisecond

// raContentionWindow is how long a TC-RNTI announced by a RAR stays
// eligible for MSG4: the largest ra-ContentionResolutionTimer of
// TS 38.331 (sf64).
const raContentionWindow = 64 * time.Millisecond

// tcRNTI is a TC-RNTI a decoded RAR announced, with the slot of the RAR.
type tcRNTI struct {
	rnti uint16
	slot int
}

// UETrack is the scope's per-UE state.
type UETrack struct {
	RNTI      uint16
	FirstSeen int // slot index of the MSG4 discovery
	LastSeen  int // slot index of the last decoded DCI

	DL *harq.Tracker
	UL *harq.Tracker

	lastMCS    mcs.Entry
	haveMCS    bool
	lastLayers int
}

// UEActivity summarises a UE session after it aged out (Fig. 10 data).
type UEActivity struct {
	RNTI      uint16
	FirstSeen int
	LastSeen  int
}

// ActiveSlots returns the session length in slots.
func (a UEActivity) ActiveSlots() int { return a.LastSeen - a.FirstSeen + 1 }

// SlotResult is the outcome of processing one capture.
type SlotResult struct {
	SlotIdx int
	Ref     phy.SlotRef

	MIBAcquired  bool // MIB decoded in this slot
	SIB1Acquired bool // SIB1 decoded in this slot
	NewUEs       []uint16

	Records []telemetry.Record
	Spare   *telemetry.SpareCapacity

	// Elapsed is the signal-processing + DCI-decoding time of the slot
	// (the quantity of the paper's Fig. 12).
	Elapsed time.Duration
}

// Scope is the NR-Scope telemetry engine for one cell.
type Scope struct {
	cellID uint16
	codec  *pdcch.Codec

	dciThreads      int
	verifyMSG4      bool
	dmrsGate        bool
	inactivitySlots int
	idleHorizon     time.Duration // wall-clock form of the above

	// Acquired cell state.
	mib       *rrc.MIB
	sib1      *rrc.SIB1
	setup     *rrc.Setup
	coreset   phy.CORESET // CORESET 0, from the MIB
	ueCoreset phy.CORESET // UE CORESET, from the RRC Setup (MSG 4)
	commonSS  phy.SearchSpace
	ueSS      phy.SearchSpace
	commonCfg dci.Config
	dataCfg   dci.Config
	link      dci.LinkConfig

	ues       map[uint16]*UETrack
	rntis     []uint16 // stable order: the USS sweep and record order
	announced []tcRNTI // TC-RNTIs awaiting their MSG4
	estimator *telemetry.WindowEstimator
	departed  []UEActivity
	lastPurge int

	// Per-slot decode working memory (masks, the position arena, the
	// UE-sweep buffers), reused slot after slot.
	scratch *slotScratch

	bus *bus.Bus // optional telemetry distribution bus
}

// New creates a scope tuned to the physical cell id (obtained from the
// PSS/SSS during cell search, which the symbol-level simulation
// abstracts away — DESIGN.md §2).
func New(cellID uint16, opts ...Option) *Scope {
	s := &Scope{
		cellID:          cellID,
		codec:           pdcch.New(cellID),
		dciThreads:      1,
		verifyMSG4:      true,
		dmrsGate:        true,
		inactivitySlots: 20000,
		ues:             make(map[uint16]*UETrack),
		scratch:         &slotScratch{},
	}
	for _, o := range opts {
		o(s)
	}
	if s.mib != nil {
		s.applyIdleHorizon()
	}
	return s
}

// applyIdleHorizon converts the wall-clock eviction horizon into slots
// once the numerology (and so the TTI) is known.
func (s *Scope) applyIdleHorizon() {
	if s.idleHorizon <= 0 || s.mib == nil {
		return
	}
	if slots := int(s.idleHorizon / s.mib.Mu.SlotDuration()); slots > 0 {
		s.inactivitySlots = slots
	}
}

// CellAcquired reports whether MIB and SIB1 are both decoded.
func (s *Scope) CellAcquired() bool { return s.mib != nil && s.sib1 != nil }

// SetupKnown reports whether the UE-dedicated configuration was learned.
func (s *Scope) SetupKnown() bool { return s.setup != nil }

// MIB returns the acquired MIB (nil before acquisition).
func (s *Scope) MIB() *rrc.MIB { return s.mib }

// SIB1 returns the acquired SIB1 (nil before acquisition).
func (s *Scope) SIB1() *rrc.SIB1 { return s.sib1 }

// KnownUEs returns the currently tracked C-RNTIs.
func (s *Scope) KnownUEs() []uint16 {
	out := make([]uint16, len(s.rntis))
	copy(out, s.rntis)
	return out
}

// Track returns a UE's tracking state (nil if unknown).
func (s *Scope) Track(rnti uint16) *UETrack { return s.ues[rnti] }

// DepartedUEs returns the sessions that aged out so far (plus, for
// convenience, nothing else — live sessions are in KnownUEs).
func (s *Scope) DepartedUEs() []UEActivity {
	out := make([]UEActivity, len(s.departed))
	copy(out, s.departed)
	return out
}

// Bitrate returns the current windowed throughput estimate in bits/s for
// one direction of a UE (paper §3.2.2), evaluated at nowSlot.
func (s *Scope) Bitrate(rnti uint16, downlink bool, nowSlot int) float64 {
	if s.estimator == nil {
		return 0
	}
	return s.estimator.Bitrate(rnti, downlink, nowSlot)
}

// ProcessSlot runs the full per-TTI processing synchronously: decode
// against the current state, then merge the findings into the state.
func (s *Scope) ProcessSlot(cap *radio.Capture) *SlotResult {
	return s.merge(s.decodeSlot(cap))
}

// merge applies a decode result to the scope state, in slot order.
func (s *Scope) merge(res *decodeResult) *SlotResult {
	out := &SlotResult{SlotIdx: res.slotIdx, Ref: res.ref, Elapsed: res.elapsed}

	if res.mib != nil && s.mib == nil {
		s.mib = res.mib
		s.coreset = res.mib.Coreset0()
		s.commonSS = phy.SearchSpace{ID: 0, Type: phy.CommonSearchSpace, Candidates: phy.DefaultCommonCandidates()}
		s.commonCfg = dci.Config{BWPPRBs: s.coreset.NumPRB, TimeAllocRows: len(phy.DefaultTimeAllocTable), MaxHARQ: 16}
		out.MIBAcquired = true
		met.mibAcquired.Inc()
		s.applyIdleHorizon()
	}
	if res.sib1 != nil && s.sib1 == nil {
		s.sib1 = res.sib1
		s.dataCfg = dci.Config{BWPPRBs: res.sib1.CarrierPRBs, TimeAllocRows: res.sib1.TimeAllocRows, MaxHARQ: 16}
		s.estimator = telemetry.NewWindowEstimator(throughputWindow, s.mib.Mu.SlotDuration())
		out.SIB1Acquired = true
		met.sib1Acquired.Inc()
	}
	if res.setup != nil && s.setup == nil {
		s.setup = res.setup
		// "From MSG 4, we also get the CORESET position, DCI aggregation
		// level, and the correct format of DCI" (§3.1.2).
		s.ueCoreset = res.setup.CORESET
		s.ueSS = phy.SearchSpace{ID: res.setup.CORESET.ID, Type: phy.UESearchSpace, Candidates: res.setup.UECandidates}
		s.link = res.setup.LinkConfig()
	}

	for _, r := range res.tcRNTIs {
		s.announce(r, res.slotIdx)
	}
	for _, nu := range res.newUEs {
		s.retire(nu.rnti)
		if _, known := s.ues[nu.rnti]; known {
			continue
		}
		s.ues[nu.rnti] = &UETrack{
			RNTI: nu.rnti, FirstSeen: res.slotIdx, LastSeen: res.slotIdx,
			DL: harq.NewTracker(), UL: harq.NewTracker(),
		}
		s.rntis = append(s.rntis, nu.rnti)
		out.NewUEs = append(out.NewUEs, nu.rnti)
		rec := telemetry.FromGrant(res.slotIdx, res.ref, nu.grant, false)
		rec.NewUE = true
		rec.Common = true
		rec.AggLevel = nu.cand.AggLevel
		rec.StartCCE = nu.cand.StartCCE
		out.Records = append(out.Records, rec)
	}

	for _, f := range res.common {
		rec := telemetry.FromGrant(res.slotIdx, res.ref, f.grant, false)
		rec.Common = true
		rec.AggLevel = f.cand.AggLevel
		rec.StartCCE = f.cand.StartCCE
		out.Records = append(out.Records, rec)
	}

	usedREs := 0
	for _, f := range res.common {
		usedREs += f.grant.NRE
	}
	for _, nu := range res.newUEs {
		usedREs += nu.grant.NRE
	}
	for _, f := range res.data {
		track := s.ues[f.rnti]
		track.LastSeen = res.slotIdx
		tracker := track.UL
		if f.grant.Downlink {
			tracker = track.DL
		}
		retx := tracker.Observe(f.grant.HARQID, f.grant.NDI)
		if f.grant.Downlink {
			if e, err := f.grant.Table.Lookup(f.grant.MCSIndex); err == nil {
				track.lastMCS = e
				track.haveMCS = true
				track.lastLayers = f.grant.Layers
			}
			usedREs += f.grant.NRE
		}
		rec := telemetry.FromGrant(res.slotIdx, res.ref, f.grant, retx)
		rec.AggLevel = f.cand.AggLevel
		rec.StartCCE = f.cand.StartCCE
		if s.estimator != nil {
			s.estimator.Add(rec)
		}
		out.Records = append(out.Records, rec)
	}

	if s.sib1 != nil && res.hadGrid && s.sib1.TDD.HasDownlinkData(res.slotIdx) {
		out.Spare = s.spareCapacity(res.slotIdx, usedREs)
	}

	if s.mib != nil {
		// Stamp slot time in ms on every outgoing record, so history
		// bins and external JSON consumers share one time base.
		ttiMS := s.mib.Mu.SlotDuration().Seconds() * 1e3
		for i := range out.Records {
			out.Records[i].TMs = float64(out.Records[i].SlotIdx) * ttiMS
		}
	}
	s.expireAnnounced(res.slotIdx)
	s.purgeInactive(res.slotIdx)
	met.uesTracked.Set(int64(len(s.ues)))
	if s.bus != nil {
		for _, rec := range out.Records {
			_ = s.bus.Publish(rec) // closed bus: records still in out
		}
	}
	return out
}

// announce records a TC-RNTI announced by a RAR decoded in slot; a
// repeat announcement restarts its window.
func (s *Scope) announce(rnti uint16, slot int) {
	s.retire(rnti)
	s.announced = append(s.announced, tcRNTI{rnti: rnti, slot: slot})
}

// outstanding reports whether rnti is an announced TC-RNTI still in its
// contention-resolution window.
func (s *Scope) outstanding(rnti uint16) bool {
	for _, tc := range s.announced {
		if tc.rnti == rnti {
			return true
		}
	}
	return false
}

// retire removes an announced TC-RNTI (its MSG4 arrived).
func (s *Scope) retire(rnti uint16) {
	kept := s.announced[:0]
	for _, tc := range s.announced {
		if tc.rnti != rnti {
			kept = append(kept, tc)
		}
	}
	s.announced = kept
}

// expireAnnounced drops the TC-RNTIs whose contention-resolution window
// ends with slot: an entry announced in slot a is eligible for MSG4 in
// slots a+1 .. a+window.
func (s *Scope) expireAnnounced(slot int) {
	if len(s.announced) == 0 {
		return
	}
	window := int(raContentionWindow / s.mib.Mu.SlotDuration())
	kept := s.announced[:0]
	for _, tc := range s.announced {
		if slot-tc.slot < window {
			kept = append(kept, tc)
		} else {
			met.tcExpired.Inc()
		}
	}
	s.announced = kept
}

// spareCapacity computes the §5.4.1 fair-share split for this TTI.
func (s *Scope) spareCapacity(slotIdx, usedREs int) *telemetry.SpareCapacity {
	// Data region: symbols 2..13 across the carrier (the control region
	// and its PDSCH share were accounted as used by their own grants).
	dataSymbols := phy.DefaultTimeAllocTable[0].NumSymbols
	total := s.sib1.CarrierPRBs * phy.SubcarriersPerPRB * dataSymbols
	active := make(map[uint16]telemetry.UELinkState)
	for rnti, track := range s.ues {
		if !track.haveMCS || slotIdx-track.LastSeen > s.estimatorWindowSlots() {
			continue
		}
		active[rnti] = telemetry.UELinkState{Entry: track.lastMCS, Layers: track.lastLayers}
	}
	sc := telemetry.ComputeSpare(total, usedREs, active)
	return &sc
}

func (s *Scope) estimatorWindowSlots() int {
	if s.estimator == nil {
		return 200
	}
	return s.estimator.WindowSlots()
}

// WindowSlots reports the throughput estimator's window length in TTIs.
func (s *Scope) WindowSlots() int { return s.estimatorWindowSlots() }

// purgeInactive ages out silent UEs (they left the RAN; Fig. 10 measures
// exactly these session lengths).
func (s *Scope) purgeInactive(slotIdx int) {
	if slotIdx-s.lastPurge < 200 {
		return
	}
	s.lastPurge = slotIdx
	kept := s.rntis[:0]
	for _, rnti := range s.rntis {
		track := s.ues[rnti]
		if slotIdx-track.LastSeen > s.inactivitySlots {
			s.departed = append(s.departed, UEActivity{RNTI: rnti, FirstSeen: track.FirstSeen, LastSeen: track.LastSeen})
			delete(s.ues, rnti)
			if s.estimator != nil {
				// The C-RNTI may be reassigned; its flow windows must
				// not survive the session (unbounded growth otherwise).
				s.estimator.Remove(rnti)
			}
			continue
		}
		kept = append(kept, rnti)
	}
	s.rntis = kept
}

// String summarises scope state.
func (s *Scope) String() string {
	return fmt.Sprintf("scope{cell=%d mib=%v sib1=%v setup=%v ues=%d}",
		s.cellID, s.mib != nil, s.sib1 != nil, s.setup != nil, len(s.ues))
}
