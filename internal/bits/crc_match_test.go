package bits

import (
	"math/rand"
	"testing"

	"nrscope/internal/raceflag"
)

// TestMatchDCICRCAgreesWithCheck: the allocation-free matcher must agree
// with CheckDCICRC on passing blocks, corrupted blocks and wrong RNTIs.
func TestMatchDCICRCAgreesWithCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		payload := make([]uint8, 1+rng.Intn(120))
		for i := range payload {
			payload[i] = uint8(rng.Intn(2))
		}
		rnti := uint16(rng.Intn(1 << 16))
		block := AttachDCICRC(payload, rnti)
		if !MatchDCICRC(block, rnti) {
			t.Fatalf("trial %d: fresh block rejected", trial)
		}
		if wrong := rnti ^ uint16(1+rng.Intn(1<<16-1)); MatchDCICRC(block, wrong) {
			t.Fatalf("trial %d: wrong RNTI %#x accepted", trial, wrong)
		}
		// Any single-bit corruption must flip both verifiers the same way.
		pos := rng.Intn(len(block))
		block[pos] ^= 1
		_, want := CheckDCICRC(block, rnti)
		if got := MatchDCICRC(block, rnti); got != want {
			t.Fatalf("trial %d: corrupted bit %d: Match %v, Check %v", trial, pos, got, want)
		}
	}
	if MatchDCICRC(make([]uint8, 23), 1) {
		t.Error("short block accepted")
	}
}

func TestMatchDCICRCZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	payload := make([]uint8, 67)
	block := AttachDCICRC(payload, 0x4601)
	if n := testing.AllocsPerRun(100, func() {
		if !MatchDCICRC(block, 0x4601) {
			t.Fatal("match failed")
		}
	}); n != 0 {
		t.Errorf("MatchDCICRC: %.1f allocs/op, want 0", n)
	}
}

// TestMatchDCICRCIffRecoverRNTI: the property the RNTI-indexed blind
// decoder rests on — MatchDCICRC(b, r) holds exactly when RecoverRNTI(b)
// returns (r, true) — over random blocks (which mostly fail the clear
// CRC bits), freshly attached blocks, and hypotheses that are either
// random or the recovered RNTI itself. The allocating CheckDCICRC is the
// reference for both.
func TestMatchDCICRCIffRecoverRNTI(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 5000; trial++ {
		payload := make([]uint8, 1+rng.Intn(140))
		for i := range payload {
			payload[i] = uint8(rng.Intn(2))
		}
		var block []uint8
		if trial%2 == 0 {
			block = AttachDCICRC(payload, uint16(rng.Intn(1<<16)))
			if trial%4 == 0 {
				block[rng.Intn(len(block))] ^= 1
			}
		} else {
			block = append(payload, make([]uint8, 24)...)
			for i := len(payload); i < len(block); i++ {
				block[i] = uint8(rng.Intn(2))
			}
		}
		_, rec, ok := RecoverRNTI(block)
		for _, r := range []uint16{uint16(rng.Intn(1 << 16)), rec, rec ^ 1} {
			got := MatchDCICRC(block, r)
			if want := ok && rec == r; got != want {
				t.Fatalf("trial %d rnti %#x: Match %v, RecoverRNTI (%#x, %v)", trial, r, got, rec, ok)
			}
			if _, ref := CheckDCICRC(block, r); got != ref {
				t.Fatalf("trial %d rnti %#x: Match %v, CheckDCICRC %v", trial, r, got, ref)
			}
		}
	}
}

func TestRecoverRNTIZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	block := AttachDCICRC(make([]uint8, 67), 0x4601)
	if n := testing.AllocsPerRun(100, func() {
		if _, r, ok := RecoverRNTI(block); !ok || r != 0x4601 {
			t.Fatal("recovery failed")
		}
	}); n != 0 {
		t.Errorf("RecoverRNTI: %.1f allocs/op, want 0", n)
	}
}
