// Command scopebench is the NR-Scope reproduction's benchmark: it
// replays fixed-seed recorded captures and synthetic record streams
// through the scope's public layers (capfile → core → bus → history /
// lake / pump, plus shard for the multi-cell workload), checks the
// outputs, and prints every metric by name with its unit.
//
//	scopebench --workload cell16 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 prints the
// end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
// Any failed check prints correct=false and exits with status 1. See
// README.md for the workloads and the metric map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	size     sizes
	faults   faults
}

// sizes scales a workload; the self-test shrinks them.
type sizes struct {
	setupReps   int
	warmSlots   int // radio warm-up slots replayed by every setup
	chunkSlots  int // slots generated and replayed per measured chunk
	slotWindow  int // slots per window of the per-window statistics
	metroCells  int
	metroUEs    int
	metroWarm   int // metro warm-up ticks
	metroChunk  int // metro ticks per measured chunk
	queryPeriod time.Duration
	probeSlots  int // captures the kernel probes time
}

func fullSizes() sizes {
	return sizes{
		setupReps:   5,
		warmSlots:   1600,
		chunkSlots:  1500,
		slotWindow:  250,
		metroCells:  64,
		metroUEs:    64,
		metroWarm:   800,
		metroChunk:  400,
		queryPeriod: 4 * time.Millisecond,
		probeSlots:  200,
	}
}

// faults are injected by the self-test only.
type faults struct {
	dropEvery  int // the history sink skips every n-th record
	perturbRep int // setup rep (1-based) whose first record is perturbed
}

// outcome is what a workload run produced.
type outcome struct {
	failures  []string
	attempted int64
	failed    int64
	metrics   map[string]float64
	info      []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(o *options) (*outcome, error){
	"cell16":     runCell16,
	"churn-edge": runChurnEdge,
	"metro":      runMetro,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scopebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{size: fullSizes()}
	fs.StringVar(&o.workload, "workload", "", "workload: cell16, churn-edge or metro")
	fs.Int64Var(&o.seed, "seed", 1, "input generation seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "scopebench"), "scratch directory (lake segments, traces, digests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || (*traceFlag != 0 && *traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "scopebench: need --workload {cell16,churn-edge,metro}, --trace {0,1} and --seconds > 0\n")
		return 2
	}
	res, out, err := execute(&o)
	if err != nil {
		fmt.Fprintf(stderr, "scopebench: %v\n", err)
		return 1
	}
	for _, line := range out.info {
		fmt.Fprintln(stdout, "# "+line)
	}
	for _, f := range out.failures {
		fmt.Fprintln(stdout, "# CHECK FAILED: "+f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "scopebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and shapes its result line.
func execute(o *options) (*result, *outcome, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	out, err := workloads[o.workload](o)
	if err != nil {
		return nil, nil, err
	}
	out.note("host: nproc=%d GOMAXPROCS=%d %s/%s %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	out.check(out.attempted >= 1, "no operation attempted")
	out.check(out.failed == 0, "%d operations failed", out.failed)
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		// An end-to-end metric reads > 0 on every working run.
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (!o.trace && v <= 0) {
			out.check(false, "metric %s not measured", d.name)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	keys := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.6g", k, out.metrics[k])
	}
	out.note("all measured:%s", b.String())
	res.Correct = len(out.failures) == 0
	return res, out, nil
}

// digestStore keeps the record digests of earlier runs of the same
// binary, so a later run with the same workload and seed (the traced
// run, a repeat) must reproduce them exactly.
type digestStore struct {
	dir string
}

func newDigestStore(workdir string) (*digestStore, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	dir := filepath.Join(workdir, "digests", hex.EncodeToString(h.Sum(nil))[:16])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &digestStore{dir: dir}, nil
}

// compare records digest under key, or checks it against the digest an
// earlier run recorded there.
func (d *digestStore) compare(key string, digest uint64) error {
	path := filepath.Join(d.dir, key)
	want := fmt.Sprintf("%016x", digest)
	got, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, []byte(want), 0o644)
	}
	if err != nil {
		return err
	}
	if string(got) != want {
		return fmt.Errorf("digest %s = %s, an earlier run of this binary recorded %s", key, want, got)
	}
	return nil
}

// heapLiveMB is the live heap after two full collections (the second
// also empties sync.Pool victim caches).
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
