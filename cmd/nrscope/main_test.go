package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nrscope"
	"nrscope/internal/bus"
	"nrscope/internal/capfile"
	"nrscope/internal/telemetry"
)

func TestFormatSinkSummary(t *testing.T) {
	got := formatSinkSummary([]bus.SubStats{
		{Name: "jsonl", Delivered: 1200},
		{Name: "promrw", Delivered: 1180, Dropped: 20, Retries: 6, Failures: 2, Quarantines: 1},
		{Name: "tcp", Delivered: 7, Dropped: 0, Rejected: 3},
	})
	want := []string{
		"sink jsonl: 1200 delivered, 0 dropped",
		"sink promrw: 1180 delivered, 20 dropped, 6 retries, 2 failures, 1 quarantines",
		"sink tcp: 7 delivered, 0 dropped, 3 rejected",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("formatSinkSummary =\n%q\nwant\n%q", got, want)
	}
	if lines := formatSinkSummary(nil); len(lines) != 0 {
		t.Errorf("empty stats produced %q", lines)
	}
}

func TestSetupSinksPump(t *testing.T) {
	var got atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	b, closer, err := setupSinks([]string{"promrw:" + srv.URL + "?name=setup_sinks_test&flush=2ms"}, 64, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if b == nil {
		t.Fatal("pump spec returned a nil bus")
	}
	if err := b.Publish(telemetry.Record{RNTI: 0x4601, TBS: 1000}); err != nil {
		t.Fatal(err)
	}
	closer()
	if got.Load() == 0 {
		t.Error("pump never reached the backend")
	}
}

func TestSetupSinksErrors(t *testing.T) {
	for _, specs := range [][]string{
		{"promrw:not-a-url"},
		{"influx:http://db:8086"}, // no bucket
		{"kafka:broker:9092"},
	} {
		if _, _, err := setupSinks(specs, 64, nil, io.Discard); err == nil {
			t.Errorf("setupSinks(%q) succeeded, want error", specs)
		}
	}
	b, closer, err := setupSinks(nil, 64, nil, io.Discard)
	if err != nil || b != nil {
		t.Errorf("no specs: bus=%v err=%v, want nil/nil", b, err)
	}
	closer()
}

// equivDuration keeps the end-to-end runs short under -short (and so
// under the race detector) while still reaching UE discovery, which
// happens within the first 20 ms of a simulated cell.
func equivDuration() time.Duration {
	if testing.Short() {
		return 300 * time.Millisecond
	}
	return time.Second
}

// runCLI drives one nrscope run, failing the test on error, and
// returns what it wrote to stderr.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("nrscope %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// readLines returns a JSONL file's lines.
func readLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// jsonLines renders records the way the jsonl sink writes them.
func jsonLines(t *testing.T, recs []nrscope.Record) []string {
	t.Helper()
	out := make([]string, 0, len(recs))
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

// serialReplay runs a capture file through a fresh scope, one
// ProcessSlot at a time on the calling goroutine.
func serialReplay(t *testing.T, path string) []nrscope.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := capfile.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	scope := nrscope.New(r.Header().CellID)
	var recs []nrscope.Record
	for {
		c, err := r.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, scope.ProcessSlot(c).Records...)
	}
}

// requireUERecords fails unless the stream holds UE (not only
// broadcast) records: an equivalence over SIB1 alone shows little.
func requireUERecords(t *testing.T, recs []nrscope.Record) {
	t.Helper()
	for _, rec := range recs {
		if !rec.Common {
			return
		}
	}
	t.Fatalf("%d records, none for a UE", len(recs))
}

func equalLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, serial run %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d differs\n got  %s\n want %s", what, i, got[i], want[i])
		}
	}
}

// TestLiveAndReplayMatchSerial: a live single-cell run decodes in a
// shard worker, and a -replay of its -record file does too; both must
// write exactly the records, in order, that a serial ProcessSlot loop
// over the recorded captures produces.
func TestLiveAndReplayMatchSerial(t *testing.T) {
	dir := t.TempDir()
	capPath := filepath.Join(dir, "live.nrsc")
	live := filepath.Join(dir, "live.jsonl")
	replayed := filepath.Join(dir, "replay.jsonl")
	runCLI(t, "-ues", "3", "-duration", equivDuration().String(),
		"-record", capPath, "-sink", "jsonl:"+live)

	serial := serialReplay(t, capPath)
	requireUERecords(t, serial)
	want := jsonLines(t, serial)
	equalLines(t, "live", readLines(t, live), want)

	// The idle second shard must not take half of the UE cap: the one
	// busy partition keeps all three UEs.
	out := runCLI(t, "-replay", capPath, "-shards", "2", "-history-max-ues", "3",
		"-sink", "jsonl:"+replayed)
	equalLines(t, "replay", readLines(t, replayed), want)
	if !strings.Contains(out, ": 3 UEs, DL ") {
		t.Errorf("replay history does not hold 3 UEs:\n%s", out)
	}
}

// TestShardedFusionMatchesSerial: two cells on two shards publish
// exactly the records of each cell's own serial testbed run. Records
// carry no cell id and the shards interleave freely, so the streams are
// compared as multisets.
func TestShardedFusionMatchesSerial(t *testing.T) {
	const ues, seed = 2, 7
	d := equivDuration()
	out := filepath.Join(t.TempDir(), "fused.jsonl")
	runCLI(t, "-cell", "amarisoft", "-fuse-cell", "mosolab", "-shards", "2",
		"-ues", strconv.Itoa(ues), "-seed", strconv.Itoa(seed), "-duration", d.String(),
		"-sink", "jsonl:"+out)

	var serial []nrscope.Record
	for i, p := range []nrscope.Preset{nrscope.AmarisoftPreset, nrscope.MosolabPreset} {
		tb, err := nrscope.NewTestbed(p, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < ues; u++ {
			tb.AttachUE(nrscope.UEProfile{})
		}
		tb.RunFor(d, func(res *nrscope.SlotResult) { serial = append(serial, res.Records...) })
	}
	requireUERecords(t, serial)
	want := jsonLines(t, serial)
	got := readLines(t, out)
	sort.Strings(want)
	sort.Strings(got)
	equalLines(t, "fused multiset", got, want)
}
