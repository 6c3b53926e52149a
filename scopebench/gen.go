package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"nrscope/internal/capfile"
	"nrscope/internal/channel"
	"nrscope/internal/dci"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/traffic"
)

// cellSpec is one simulated radio cell the benchmark records captures
// from. The simulator (ran/radio/channel/traffic) only produces inputs;
// none of its time counts towards a metric.
type cellSpec struct {
	cfg      ran.CellConfig
	fixedUEs int             // UEs that attach at slot 0 and never leave
	pop      *ran.Population // Poisson churn (nil = none)
	cohort   int             // churn UEs already present at slot 0
	scopeSNR float64         // the scope's own receive SNR (dB)
}

// ueFactory is the paper's typical UE: 30 fps video downlink plus a
// 200 kb/s CBR uplink on a Normal channel at the cell's base SNR.
func ueFactory(cfg ran.CellConfig) ran.UEFactory {
	return func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		tti := cfg.TTI()
		return traffic.NewVideo(30, 15000, 0.2, tti, seed),
			traffic.NewCBR(200e3, tti),
			channel.New(channel.Normal, cfg.BaseSNRdB, seed)
	}
}

// gtKey identifies one ground-truth UE DCI the way records are matched
// against it: same slot, same C-RNTI, same first CCE.
type gtKey struct {
	slot int
	rnti uint16
	cce  int
}

// ctrlGrant is a ground-truth SIB1 or MSG4 PDSCH grant, kept for the
// pdsch kernel probe.
type ctrlGrant struct {
	slot  int
	grant dci.Grant
}

// chunk is a run of consecutive slots held as encoded capfile bytes —
// never as decoded grids — plus the ground truth the gNB logged for it.
type chunk struct {
	mem   *offHeap
	data  []byte
	first int // SlotIdx of the first capture
	slots int
	gt    []gtKey
	ctrl  []ctrlGrant
}

// recorder drives one simulated cell and records its captures. Chunks
// are produced on demand and the generator state carries over, so a
// run's input is one continuous recording whatever its length.
type recorder struct {
	cfg   ran.CellConfig
	gnb   *ran.GNB
	rx    *radio.Receiver
	hdr   capfile.Header
	real  map[uint32]bool // every (cell, C-RNTI) the gNB connected
	genNs int64
}

// ledgerSlots bounds the simulator's per-UE delivery ledger.
const ledgerSlots = 1 << 12

func newRecorder(spec cellSpec, seed int64) (*recorder, error) {
	cfg := spec.cfg
	cfg.Seed = seed
	gnb, err := ran.NewGNB(cfg, ledgerSlots)
	if err != nil {
		return nil, err
	}
	factory := ueFactory(cfg)
	if spec.pop != nil {
		p := *spec.pop
		p.Factory = factory
		gnb.SetPopulation(p)
	}
	for i := 0; i < spec.fixedUEs; i++ {
		gnb.AddUE(factory, -1)
	}
	if spec.cohort > 0 {
		rng := rand.New(rand.NewSource(seed ^ 0x5CA1E))
		tti := cfg.TTI().Seconds()
		for i := 0; i < spec.cohort; i++ {
			d := spec.pop.MedianSessionSeconds * math.Exp(spec.pop.SessionSigma*rng.NormFloat64())
			gnb.AddUE(factory, 2+int(d/tti))
		}
	}
	return &recorder{
		cfg:  cfg,
		gnb:  gnb,
		rx:   radio.NewReceiver(channel.Normal, spec.scopeSNR, seed^0xACE),
		hdr:  capfile.Header{CellID: cfg.CellID, Mu: cfg.Mu, NumPRB: cfg.CarrierPRBs},
		real: make(map[uint32]bool),
	}, nil
}

// record steps the simulator n slots and returns them as a capfile
// stream of its own (header included). The capfile encoding runs on a
// second goroutine so generation overlaps the simulator's next slot.
func (r *recorder) record(n int) (*chunk, error) {
	start := time.Now()
	mem, err := newOffHeap(16 + n*(32+8*r.hdr.NumPRB*12*14))
	if err != nil {
		return nil, err
	}
	w, err := capfile.NewWriter(mem, r.hdr)
	if err != nil {
		mem.release()
		return nil, err
	}
	c := &chunk{mem: mem, first: r.gnb.SlotIdx(), slots: n}
	// A few captures of slack (about 1 MB of grids) decouple the
	// simulator from the encoder.
	caps := make(chan *radio.Capture, 8)
	done := make(chan error, 1)
	go func() {
		var err error
		for cp := range caps {
			if err == nil {
				err = w.Append(cp)
			}
		}
		if err == nil {
			err = w.Close()
		}
		done <- err
	}()
	for i := 0; i < n; i++ {
		out := r.gnb.Step()
		for _, ev := range out.Events {
			if ev.Kind == ran.EventConnected {
				r.real[ueKey(r.cfg.CellID, ev.RNTI)] = true
			}
		}
		for j := range out.GT {
			g := &out.GT[j]
			if g.Common {
				if g.MSG4 || g.RNTI == dci.SIRNTI {
					c.ctrl = append(c.ctrl, ctrlGrant{slot: g.SlotIdx, grant: g.Grant})
				}
				continue
			}
			c.gt = append(c.gt, gtKey{slot: g.SlotIdx, rnti: g.RNTI, cce: g.StartCCE})
		}
		caps <- r.rx.Capture(out.SlotIdx, out.Ref, out.Grid)
	}
	close(caps)
	if err := <-done; err != nil {
		mem.release()
		return nil, fmt.Errorf("record: %w", err)
	}
	c.data = mem.Bytes()
	r.genNs += time.Since(start).Nanoseconds()
	return c, nil
}

// release frees the chunk's capture bytes; the chunk's ground truth
// stays readable.
func (c *chunk) release() {
	if c != nil && c.mem != nil {
		_ = c.mem.release() // munmap of our own live mapping cannot fail
		c.mem, c.data = nil, nil
	}
}
