package history

import (
	"testing"
	"time"

	"nrscope/internal/obs"
)

// fillBin ingests `grants` records into the UE's bin starting at
// binStart ms, of which the first `retx` are retransmissions.
func fillBin(st *Store, rnti uint16, binStart float64, grants, retx, tbs int) {
	for i := 0; i < grants; i++ {
		st.Ingest(1, msRec(binStart+float64(i), rnti, true, tbs, 10, i < retx))
	}
}

func TestRetxSpikeFlagged(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 64})
	before := obs.Snapshot()
	// Ten clean bins establish a near-zero retx baseline.
	for b := 0; b < 10; b++ {
		fillBin(st, 0xA, float64(b)*100, 10, 0, 1000)
	}
	// Spike bin: 6 of 10 grants are retransmissions.
	fillBin(st, 0xA, 1000, 10, 6, 1000)
	// A record in the next bin closes the spike bin and runs detection.
	st.Ingest(1, msRec(1150, 0xA, true, 1000, 10, false))

	anoms := st.Anomalies()
	var spike *Anomaly
	for i := range anoms {
		if anoms[i].Kind == KindRetxSpike {
			spike = &anoms[i]
		}
	}
	if spike == nil {
		t.Fatalf("no retx spike flagged; anomalies = %+v", anoms)
	}
	if spike.RNTI != 0xA || spike.Cell != 1 || spike.AtMs != 1000 {
		t.Errorf("spike = %+v", *spike)
	}
	if spike.Value != 0.6 {
		t.Errorf("spike value = %v, want 0.6", spike.Value)
	}
	d := obs.Delta(before, obs.Snapshot())
	if d["nrscope_history_anomaly_retx_spike_total"] != 1 {
		t.Errorf("spike counter = %v, want 1", d["nrscope_history_anomaly_retx_spike_total"])
	}
}

func TestCleanTrafficFlagsNothing(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 64})
	for b := 0; b < 30; b++ {
		fillBin(st, 0xB, float64(b)*100, 10, 1, 1000) // steady 10% retx
	}
	if n := len(st.Anomalies()); n != 0 {
		t.Errorf("clean traffic flagged %d anomalies: %+v", n, st.Anomalies())
	}
}

func TestThroughputCollapseLatchesOnce(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 64})
	before := obs.Snapshot()
	// Ten busy bins: ~100 kbit per bin baseline.
	for b := 0; b < 10; b++ {
		fillBin(st, 0xC, float64(b)*100, 10, 0, 10000)
	}
	// Silence until bin 20: the gap closes bins 9..19, most of them
	// empty against a high baseline -> one collapse (latched).
	st.Ingest(1, msRec(2010, 0xC, true, 100, 10, false))

	var collapses int
	for _, a := range st.Anomalies() {
		if a.Kind == KindTputCollapse {
			collapses++
			if a.RNTI != 0xC {
				t.Errorf("collapse on wrong UE: %+v", a)
			}
		}
	}
	if collapses != 1 {
		t.Errorf("collapses = %d, want exactly 1 (latched)", collapses)
	}
	d := obs.Delta(before, obs.Snapshot())
	if d["nrscope_history_anomaly_tput_collapse_total"] != 1 {
		t.Errorf("collapse counter = %v", d["nrscope_history_anomaly_tput_collapse_total"])
	}
}

func TestIdleUENeverCollapses(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 64})
	// A trickle UE: tiny bins, long gaps. Baseline stays under the
	// floor, so silence is idleness, not collapse.
	for b := 0; b < 20; b += 5 {
		st.Ingest(1, msRec(float64(b)*100, 0xD, true, 200, 4, false))
	}
	for _, a := range st.Anomalies() {
		if a.Kind == KindTputCollapse {
			t.Fatalf("idle UE flagged as collapsed: %+v", a)
		}
	}
}

func TestAnomalyRingBounded(t *testing.T) {
	r := newAnomalyRing(4)
	for i := 0; i < 10; i++ {
		r.add(Anomaly{AtMs: float64(i)})
	}
	got := r.list()
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	for i, a := range got {
		if a.AtMs != float64(6+i) {
			t.Errorf("ring[%d] = %v, want %v (oldest-first, newest retained)", i, a.AtMs, 6+i)
		}
	}
}
