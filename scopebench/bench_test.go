package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"nrscope/internal/pump"
	"nrscope/internal/telemetry"
)

// tiny shrinks a workload so a full run (setup, measured chunks, traced
// chunks, kernel probes) takes seconds.
func tiny(t *testing.T, workload string, trace bool) *options {
	t.Helper()
	return &options{
		workload: workload,
		seed:     7,
		seconds:  0.5,
		trace:    trace,
		workdir:  t.TempDir(),
		size: sizes{
			setupReps:   2,
			warmSlots:   1600,
			chunkSlots:  120,
			slotWindow:  40,
			metroCells:  4,
			metroUEs:    8,
			metroWarm:   800,
			metroChunk:  100,
			queryPeriod: 2 * time.Millisecond,
			probeSlots:  10,
		},
	}
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"cell16", "churn-edge", "metro"} {
		for _, trace := range []bool{false, true} {
			o := tiny(t, w, trace)
			res, out, err := execute(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: checks failed: %v", w, trace, out.failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, d.name, m, d.unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d", w, trace, res.Attempted, res.Failed)
			}
		}
	}
}

func TestDroppingSinkFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	o := tiny(t, "cell16", false)
	o.faults.dropEvery = 7
	res, out, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || !anyContains(out.failures, "history ingested") {
		t.Fatalf("a sink dropping records passed: correct=%v failures=%v", res.Correct, out.failures)
	}
}

func TestPerturbedRecordFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	for _, w := range []string{"cell16", "metro"} {
		o := tiny(t, w, false)
		o.faults.perturbRep = 2
		res, out, err := execute(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || !anyContains(out.failures, "digest") {
			t.Fatalf("%s: a perturbed record passed: correct=%v failures=%v", w, res.Correct, out.failures)
		}
	}
}

func TestDigestStoreCatchesDifferentRun(t *testing.T) {
	d, err := newDigestStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.compare("k", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.compare("k", 1); err != nil {
		t.Fatalf("same digest rejected: %v", err)
	}
	if err := d.compare("k", 2); err == nil {
		t.Fatal("a different digest for the same key was accepted")
	}
}

func anyContains(xs []string, sub string) bool {
	for _, x := range xs {
		if strings.Contains(x, sub) {
			return true
		}
	}
	return false
}

// TestVirtualClockHandWorked checks the FIFO virtual clock against
// queues worked by hand (TTI 500 µs, one arrival per TTI).
func TestVirtualClockHandWorked(t *testing.T) {
	// due:     0    500  1000 1500 2000
	// start:   0    500  1200 1500 2000
	// finish:  100  1200 1300 1600 2100
	// late by: 100  700  300  100  100   -> one slot over one TTI
	r := virtualClock([]float64{100, 700, 100, 100, 100}, 500)
	if r.latePct != 20 {
		t.Errorf("late = %v%%, want 20%%", r.latePct)
	}
	// p99 of {100,100,100,300,700}: rank 3.96 -> 300 + 0.96*400.
	if math.Abs(r.p99Us-684) > 1e-9 {
		t.Errorf("p99 = %v, want 684", r.p99Us)
	}
	// A 1200 µs slot backs up the next ones:
	// finish 1200, 1300, 1400, 1600 against due 0, 500, 1000, 1500.
	r = virtualClock([]float64{1200, 100, 100, 100}, 500)
	if r.latePct != 50 || r.finalLagUs != 100 {
		t.Errorf("backlog case: late %v%% final lag %v, want 50%% and 100", r.latePct, r.finalLagUs)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
}

func TestReceiverDecodesPromRW(t *testing.T) {
	enc := &pump.PromRW{}
	for i := 0; i < 37; i++ {
		enc.Append(&telemetry.Record{SlotIdx: i, RNTI: uint16(0x4601 + i%5), Downlink: i%2 == 0, TBS: 100 * i, MCS: i % 28})
	}
	raw, err := snappyDecodeInto(nil, enc.Frame())
	if err != nil {
		t.Fatal(err)
	}
	n, err := countSeries(raw, recordSeries)
	if err != nil || n != 37 {
		t.Fatalf("counted %d records (%v), want 37", n, err)
	}
	// A copy element: literal "abcd", then 4 bytes from offset 4.
	got, err := snappyDecodeInto(nil, []byte{8, 3 << 2, 'a', 'b', 'c', 'd', 0<<5 | 0<<2 | 1, 4})
	if err != nil || !bytes.Equal(got, []byte("abcdabcd")) {
		t.Fatalf("copy element decoded to %q (%v)", got, err)
	}
	if _, err := snappyDecodeInto(nil, []byte{5, 0, 'a'}); err == nil {
		t.Fatal("a short body decoded")
	}
}

func TestRecordHashCoversFields(t *testing.T) {
	base := telemetry.Record{SlotIdx: 9, RNTI: 0x4601, TBS: 1000, MCS: 10, StartCCE: 4, Format: "1_1"}
	h := recordHash(1, &base)
	for name, mut := range map[string]func(*telemetry.Record){
		"tbs":    func(r *telemetry.Record) { r.TBS++ },
		"mcs":    func(r *telemetry.Record) { r.MCS++ },
		"cce":    func(r *telemetry.Record) { r.StartCCE++ },
		"retx":   func(r *telemetry.Record) { r.IsRetx = true },
		"format": func(r *telemetry.Record) { r.Format = "0_1" },
	} {
		r := base
		mut(&r)
		if recordHash(1, &r) == h {
			t.Errorf("changing %s left the hash unchanged", name)
		}
	}
	if recordHash(2, &base) == h {
		t.Error("the cell id does not reach the hash")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the metric tables and workloads printed here.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, benchmark prints %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark prints %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %+v", i, m, d)
		}
	}
}

func TestBadArgumentsExit2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
