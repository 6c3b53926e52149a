package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"nrscope/internal/telemetry"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}

// deciles returns the minimum, 10th, 25th, 50th, 75th and 90th
// percentiles and the maximum of xs.
func deciles(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	var out []float64
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		out = append(out, quantile(c, q))
	}
	return out
}

// roundAll renders per-chunk values compactly for the run report.
func roundAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 0, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Typical values (rates, medians) are taken per window and summarised by
// the median window. The shared host this benchmark was built on slows
// stretches of ~100 ms to minutes by up to 1.6x (memory contention from
// its neighbours); per-window values keep a slow stretch from weighing
// by how many slots it held.
const (
	queryWindow = int64(100 * time.Millisecond) // due-time span per query window
	minWindowN  = 10                            // samples a window needs to count
)

// slotWindows splits one chunk's per-slot service times (µs) and end
// offsets (ns since the chunk started) into windows of w slots, and
// returns each whole window's rate (slots/s) and median service time.
func slotWindows(svc []float64, ends []int64, w int) (rates, p50s []float64) {
	prev := int64(0)
	for i := 0; i+w <= len(svc); i += w {
		end := ends[i+w-1]
		rates = append(rates, float64(w)/(float64(end-prev)/1e9))
		p50s = append(p50s, quantile(append([]float64(nil), svc[i:i+w]...), 0.5))
		prev = end
	}
	return rates, p50s
}

// windowMedians groups keyed samples into windows [origin+k*width,
// origin+(k+1)*width) and returns the median of every window holding at
// least minWindowN samples. all receives every sample value.
func windowMedians(xs []sample, origin, width int64, all *[]float64) []float64 {
	groups := map[int64][]float64{}
	for _, s := range xs {
		k := (s.key - origin) / width
		groups[k] = append(groups[k], s.v)
		*all = append(*all, s.v)
	}
	keys := make([]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []float64
	for _, k := range keys {
		if g := groups[k]; len(g) >= minWindowN {
			out = append(out, quantile(g, 0.5))
		}
	}
	return out
}

// rtResult is the outcome of the real-time replay of measured service
// times through a virtual clock.
type rtResult struct {
	latePct    float64 // share of slots finishing more than one TTI after due
	p99Us      float64 // 99th percentile of completion - due time
	finalLagUs float64 // backlog left behind the last slot
}

// virtualClock replays per-slot service times (µs) through a FIFO single
// server whose arrivals come one per TTI: slot i is due at i*tti, starts
// at max(due, previous finish), and finishes service[i] later. Strict
// slot order per cell is the scope's own contract, so the server never
// reorders. Lateness is finish - due; a slot is late when that exceeds
// one TTI.
func virtualClock(service []float64, ttiUs float64) rtResult {
	if len(service) == 0 {
		return rtResult{}
	}
	lat := make([]float64, len(service))
	free := 0.0
	late := 0
	for i, s := range service {
		due := float64(i) * ttiUs
		start := due
		if free > start {
			start = free
		}
		free = start + s
		lat[i] = free - due
		if lat[i] > ttiUs {
			late++
		}
	}
	r := rtResult{latePct: 100 * float64(late) / float64(len(service)), finalLagUs: lat[len(lat)-1]}
	r.p99Us = quantile(lat, 0.99)
	return r
}

// recordHash is an order-independent digest term for one record: every
// field the scope derives is hashed, so any perturbed value changes the
// run digest (the sum of the terms).
func recordHash(cell uint16, r *telemetry.Record) uint64 {
	h := fnv.New64a()
	var b [8 * 20]byte
	put := func(i int, v uint64) { binary.LittleEndian.PutUint64(b[8*i:], v) }
	flags := uint64(0)
	for i, f := range []bool{r.Downlink, r.IsRetx, r.NewUE, r.Common} {
		if f {
			flags |= 1 << i
		}
	}
	put(0, uint64(cell))
	put(1, uint64(r.SlotIdx))
	put(2, uint64(r.SFN)<<16|uint64(r.Slot))
	put(3, uint64(r.RNTI))
	put(4, flags)
	put(5, uint64(r.TBS))
	put(6, uint64(r.NumPRB))
	put(7, uint64(r.REGs))
	put(8, uint64(r.NRE))
	put(9, uint64(r.MCS))
	put(10, uint64(r.Qm))
	put(11, math.Float64bits(r.R))
	put(12, uint64(r.AggLevel))
	put(13, uint64(r.StartCCE))
	put(14, uint64(r.HARQID))
	put(15, uint64(r.NDI))
	put(16, uint64(r.RV))
	put(17, math.Float64bits(r.TMs))
	h.Write(b[:8*18])
	h.Write([]byte(r.Format))
	return h.Sum64()
}
