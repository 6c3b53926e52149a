package core

import (
	"nrscope/internal/mcs"
	"nrscope/internal/ran"
	"nrscope/internal/rrc"
)

// mcsTableQAM64 avoids importing mcs at every use site in the big test file.
func mcsTableQAM64() mcs.Table { return mcs.TableQAM64 }

// manualScope returns a scope with the cell configuration preloaded, so
// it tracks UEs from the first slot without acquiring MIB and SIB1.
func manualScope(cfg ran.CellConfig) *Scope {
	mib := rrc.MIB{
		SFN: 0, Mu: cfg.Mu, CellID: cfg.CellID,
		Coreset0StartPRB: cfg.Coreset0.StartPRB,
		Coreset0NumPRB:   cfg.Coreset0.NumPRB,
		Coreset0Duration: cfg.Coreset0.Duration,
	}
	return New(cfg.CellID, WithManualCellInfo(mib, cfg.SIB1()))
}
