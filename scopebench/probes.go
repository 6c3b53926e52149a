package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"nrscope/internal/capfile"
	"nrscope/internal/core"
	"nrscope/internal/dci"
	"nrscope/internal/modulation"
	"nrscope/internal/pdcch"
	"nrscope/internal/pdsch"
	"nrscope/internal/phy"
	"nrscope/internal/polar"
)

// probes are unit costs of the decode kernels, timed from outside on the
// workload's own captures. Multiplied by the scope's own obs counts they
// estimate how much of ProcessSlot each kernel explains.
type probes struct {
	occupiedUs  float64 // pdcch.Codec.OccupiedCCEsInto, per call
	candidateUs float64 // pdcch.Codec.DecodeCandidateInto, per call
	polarNs     float64 // polar.Code.DecodeInto at the DCI shape
	demapNs     float64 // modulation.DemapInto (QPSK) at the DCI shape
	pdschUs     float64 // pdsch.DecodeInto on SIB1/MSG4 grants
	cssPerSlot  float64 // occupied CSS candidates per grid slot
	gridShare   float64 // share of slots carrying a downlink grid
}

// probeKernels times the kernels on up to maxSlots captures of c, using
// CORESET 0 from the scope's acquired MIB and the DCI size its SIB1
// implies. Ground-truth SIB1/MSG4 grants of c drive the PDSCH probe.
func probeKernels(sc *core.Scope, c *chunk, maxSlots int) (*probes, error) {
	mib, sib1 := sc.MIB(), sc.SIB1()
	if mib == nil || sib1 == nil || c == nil {
		return nil, fmt.Errorf("kernel probes need an acquired cell and a recorded chunk")
	}
	rd, err := capfile.NewReader(bytes.NewReader(c.data))
	if err != nil {
		return nil, err
	}
	cellID := rd.Header().CellID
	cs := mib.Coreset0()
	codec := pdcch.New(cellID)
	payload := dci.ClassSize(dci.NonFallback, dci.Config{BWPPRBs: sib1.CarrierPRBs, TimeAllocRows: sib1.TimeAllocRows, MaxHARQ: 16})
	commonSS := phy.SearchSpace{ID: 0, Type: phy.CommonSearchSpace, Candidates: phy.DefaultCommonCandidates()}
	ctrl := make(map[int][]ctrlGrant)
	for _, g := range c.ctrl {
		ctrl[g.slot] = append(ctrl[g.slot], g)
	}

	p := &probes{}
	var occ []bool
	var blk []uint8
	var pbuf []byte
	var cands []phy.Candidate
	var alCount [len(phy.AggregationLevels)]int
	var occNs, candNs, pdschNs int64
	var occN, candN, pdschN, cssN, gridN, total int
	warmed := false
	for {
		cap, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		total++
		if cap.Grid == nil {
			continue
		}
		gridN++
		for _, g := range ctrl[cap.SlotIdx] {
			t := time.Now()
			pbuf, _ = pdsch.DecodeInto(pbuf, cap.Grid, g.grant, cellID, cap.N0)
			pdschNs += time.Since(t).Nanoseconds()
			pdschN++
		}
		if occN >= maxSlots {
			continue
		}
		if !warmed { // fill the codec caches (layouts, gold sequences, polar codes)
			occ = codec.OccupiedCCEsInto(occ, cap.Grid, cs, cap.Ref.Slot)
			for _, al := range phy.AggregationLevels {
				if pdcch.PayloadFits(payload, al) {
					blk, _ = codec.DecodeCandidateInto(blk, cap.Grid, cs, phy.Candidate{AggLevel: al}, cap.Ref.Slot, payload, cap.N0)
				}
			}
			warmed = true
		}
		t := time.Now()
		occ = codec.OccupiedCCEsInto(occ, cap.Grid, cs, cap.Ref.Slot)
		occNs += time.Since(t).Nanoseconds()
		occN++
		cands = phy.AppendSlotCandidates(cands[:0], commonSS, cs, 0, cap.Ref.Slot)
		for _, cand := range cands {
			if allTrue(occ, cand.StartCCE, cand.AggLevel) {
				cssN++
			}
		}
		for i, al := range phy.AggregationLevels {
			if !pdcch.PayloadFits(payload, al) {
				continue
			}
			for cce := 0; cce+al <= len(occ); cce += al {
				if !allTrue(occ, cce, al) {
					continue
				}
				t := time.Now()
				blk, _ = codec.DecodeCandidateInto(blk, cap.Grid, cs, phy.Candidate{AggLevel: al, StartCCE: cce}, cap.Ref.Slot, payload, cap.N0)
				candNs += time.Since(t).Nanoseconds()
				candN++
				alCount[i]++
			}
		}
	}
	if occN == 0 {
		return nil, fmt.Errorf("kernel probes: no downlink capture in the chunk")
	}
	p.occupiedUs = float64(occNs) / 1e3 / float64(occN)
	p.candidateUs = ratio(float64(candNs)/1e3, float64(candN))
	p.pdschUs = ratio(float64(pdschNs)/1e3, float64(pdschN))
	p.cssPerSlot = float64(cssN) / float64(occN)
	p.gridShare = float64(gridN) / float64(total)

	// Polar and demap at the DCI shape, weighted by how often each
	// aggregation level's positions were occupied.
	rng := rand.New(rand.NewSource(1))
	var polarNs, demapNs, weight float64
	for i, al := range phy.AggregationLevels {
		if alCount[i] == 0 {
			continue
		}
		e := al * phy.BitsPerCCE
		code, err := polar.NewCode(payload+24, e)
		if err != nil {
			return nil, err
		}
		llr := make([]float64, e)
		syms := make([]complex128, e/2)
		for j := range llr {
			llr[j] = rng.NormFloat64() * 4
		}
		for j := range syms {
			syms[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		var dst []uint8
		var lbuf []float64
		const reps = 256
		dst = code.DecodeInto(dst, llr)
		lbuf = modulation.DemapInto(lbuf, modulation.QPSK, syms, 0.1)
		t := time.Now()
		for r := 0; r < reps; r++ {
			dst = code.DecodeInto(dst, llr)
		}
		pn := float64(time.Since(t).Nanoseconds()) / reps
		t = time.Now()
		for r := 0; r < reps; r++ {
			lbuf = modulation.DemapInto(lbuf, modulation.QPSK, syms, 0.1)
		}
		dn := float64(time.Since(t).Nanoseconds()) / reps
		w := float64(alCount[i])
		polarNs += pn * w
		demapNs += dn * w
		weight += w
	}
	p.polarNs = ratio(polarNs, weight)
	p.demapNs = ratio(demapNs, weight)
	return p, nil
}

func allTrue(mask []bool, start, n int) bool {
	if start < 0 || start+n > len(mask) {
		return false
	}
	for _, v := range mask[start : start+n] {
		if !v {
			return false
		}
	}
	return true
}

// report prints the probes and the share of ProcessSlot time their
// products with the scope's obs counts leave unexplained. processUs is
// the total ProcessSlot (or, in metro, decode) time over slots slots.
func (p *probes) report(out *outcome, obsDelta map[string]float64, processUs float64, slots int64, verifies float64) {
	out.metrics["pdcch.occupied_us"] = p.occupiedUs
	out.metrics["pdcch.candidate_us"] = p.candidateUs
	out.metrics["polar.decode_ns"] = p.polarNs
	out.metrics["modulation.demap_ns"] = p.demapNs
	out.metrics["pdsch.decode_us"] = p.pdschUs
	gridSlots := float64(slots) * p.gridShare
	occ := p.occupiedUs * gridSlots
	cand := p.candidateUs * (obsDelta["nrscope_scope_blind_positions_decoded_total"] + p.cssPerSlot*gridSlots)
	pd := p.pdschUs * verifies
	explained := occ + cand + pd
	out.metrics["core.unexplained_pct"] = 100 * (1 - ratio(explained, processUs))
	out.note("kernel probes: occupancy %.0f us + candidates %.0f us + pdsch %.0f us = %.0f us of %.0f us measured",
		occ, cand, pd, explained, processUs)
}
