package capfile

import (
	"bytes"
	"testing"

	"nrscope/internal/core"
	"nrscope/internal/phy"
	"nrscope/internal/radio"
)

// FuzzReplay feeds arbitrary capture-file bytes through the path
// `nrscope -replay` takes: NewReader, then Next into a scope's
// ProcessSlot. A corrupt or foreign file must fail with an error, never
// panic or allocate without bound. The seed corpus under
// testdata/fuzz/FuzzReplay holds the two earlier crashers: a header
// claiming a 1-PRB grid (cell search indexed past the grid) and one
// claiming more than 275 PRBs (a few bytes demanded ~260 MB per record).
func FuzzReplay(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{CellID: 1, Mu: phy.Mu1, NumPRB: 2})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Append(&radio.Capture{N0: 0.01, Grid: phy.NewGrid(2)}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		scope := core.New(r.Header().CellID)
		for i := 0; i < 16; i++ { // bounded work per input
			c, err := r.Next()
			if err != nil {
				return
			}
			scope.ProcessSlot(c)
		}
	})
}
