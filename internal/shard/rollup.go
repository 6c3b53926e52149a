package shard

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"time"

	"nrscope/internal/fusion"
	"nrscope/internal/history"
)

// The cross-shard rollup layer: queries that span the whole deployment
// are answered by fanning out to every shard's partition and merging —
// cheap, because each partition is already bounded and internally
// indexed. The HTTP form mounts next to /metrics:
//
//	GET /shards                          per-shard health + global totals
//	GET /shards/topk?metric=&window=&k=  fused TopK across partitions
//	GET /shards/snapshot                 merged history snapshot
//	GET /shards/handovers                merged handover candidates
//
// ShardHealth is one shard's health and backpressure report.
type ShardHealth struct {
	Shard         int      `json:"shard"`
	Cells         int      `json:"cells"`
	QueueDepth    int      `json:"queue_depth"`
	QueueCapacity int      `json:"queue_capacity"`
	Ingested      int64    `json:"ingested_total"`
	Applied       int64    `json:"applied_total"`
	Dropped       int64    `json:"dropped_total"`
	Rejected      int64    `json:"rejected_total"`
	DecodedSlots  int64    `json:"decoded_slots_total"`
	Records       int64    `json:"decoded_records_total"`
	Restarts      int64    `json:"restarts_total"`
	Stalls        int64    `json:"stalls_total"`
	TrackedUEs    int      `json:"tracked_ues"`
	Up            bool     `json:"up"`
	Dead          bool     `json:"dead"`
	CellIDs       []uint16 `json:"cell_ids,omitempty"`
}

// Rollup is the deployment-wide health roll-up: global gauges plus the
// per-shard reports they sum over.
type Rollup struct {
	Shards       int           `json:"shards"`
	Cells        int           `json:"cells"`
	TrackedUEs   int           `json:"tracked_ues"`
	Ingested     int64         `json:"ingested_total"`
	Applied      int64         `json:"applied_total"`
	Dropped      int64         `json:"dropped_total"`
	DecodedSlots int64         `json:"decoded_slots_total"`
	Records      int64         `json:"decoded_records_total"`
	Restarts     int64         `json:"restarts_total"`
	PerShard     []ShardHealth `json:"per_shard"`
}

// Health reports every shard's state from its local accounting (not the
// process-global obs instruments, which aggregate across supervisors).
func (s *Supervisor) Health() Rollup {
	r := Rollup{Shards: len(s.shards), Cells: len(s.route)}
	for _, sh := range s.shards {
		sh.mu.Lock()
		depth := sh.n
		sh.mu.Unlock()
		h := ShardHealth{
			Shard:         sh.idx,
			Cells:         sh.cells,
			QueueDepth:    depth,
			QueueCapacity: len(sh.buf),
			Ingested:      sh.ingested.Load(),
			Applied:       sh.applied.Load(),
			Dropped:       sh.dropped.Load(),
			Rejected:      sh.rejected.Load(),
			DecodedSlots:  sh.decoded.Load(),
			Records:       sh.records.Load(),
			Restarts:      sh.restarts.Load(),
			Stalls:        sh.stalls.Load(),
			TrackedUEs:    sh.store.TrackedUEs(),
			Up:            sh.workerUp.Load(),
			Dead:          sh.dead.Load(),
			CellIDs:       append([]uint16(nil), sh.cellIDs...),
		}
		r.TrackedUEs += h.TrackedUEs
		r.Ingested += h.Ingested
		r.Applied += h.Applied
		r.Dropped += h.Dropped
		r.DecodedSlots += h.DecodedSlots
		r.Records += h.Records
		r.Restarts += h.Restarts
		r.PerShard = append(r.PerShard, h)
	}
	return r
}

// TopK fuses every partition's TopK into one deployment-wide ranking.
// Each partition returns its own top k (the global top k is a subset of
// the union); the merge re-sorts and truncates.
func (s *Supervisor) TopK(metric string, window time.Duration, k int) ([]history.UERank, error) {
	var all []history.UERank
	for _, sh := range s.shards {
		ranks, err := sh.store.TopK(metric, window, k)
		if err != nil {
			return nil, err
		}
		all = append(all, ranks...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Value != all[j].Value {
			return all[i].Value > all[j].Value
		}
		if all[i].Cell != all[j].Cell {
			return all[i].Cell < all[j].Cell
		}
		return all[i].RNTI < all[j].RNTI
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// Snapshot merges every partition's history snapshot: cells are
// disjoint across partitions, so the per-cell summaries concatenate and
// the totals sum.
func (s *Supervisor) Snapshot() history.Snapshot {
	var out history.Snapshot
	for i, sh := range s.shards {
		snap := sh.store.Snapshot()
		if i == 0 {
			out.BinMs, out.Depth, out.MaxUEs = snap.BinMs, snap.Depth, snap.MaxUEs
		}
		out.TrackedUEs += snap.TrackedUEs
		out.Anomalies += snap.Anomalies
		if snap.LastMs > out.LastMs {
			out.LastMs = snap.LastMs
		}
		out.Cells = append(out.Cells, snap.Cells...)
	}
	sort.Slice(out.Cells, func(i, j int) bool { return out.Cells[i].Cell < out.Cells[j].Cell })
	return out
}

// Anomalies concatenates every partition's flagged anomaly events.
func (s *Supervisor) Anomalies() []history.Anomaly {
	var out []history.Anomaly
	for _, sh := range s.shards {
		out = append(out, sh.store.Anomalies()...)
	}
	return out
}

// Handovers merges every shard's fusion handover candidates (empty
// without Fusion). Candidates are detected within a shard's cells;
// cross-shard pairs are not matched — cell partitioning trades that for
// failure isolation.
func (s *Supervisor) Handovers() []fusion.Handover {
	var out []fusion.Handover
	for _, sh := range s.shards {
		if sh.agg == nil {
			continue
		}
		sh.applyMu.Lock()
		hos := sh.agg.Handovers()
		sh.applyMu.Unlock()
		out = append(out, hos...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// CarrierAggregation correlates the retained sessions of every
// partition's cells with each other, so carrier pairs are matched
// across shards as well as within one (the partitions share one bin
// width).
func (s *Supervisor) CarrierAggregation(minOverlap float64) []fusion.CACandidate {
	var masks []history.SeriesMask
	for _, sh := range s.shards {
		for _, cell := range sh.cellIDs {
			masks = fusion.AppendMasks(masks, sh.store, cell)
		}
	}
	return fusion.MatchCarriers(masks, minOverlap)
}

// Mount registers the /shards/* rollup endpoints on a mux (obs.Server
// or http.ServeMux via the history.Mux interface).
func (s *Supervisor) Mount(m history.Mux) {
	m.Handle("/shards", http.HandlerFunc(s.serveHealth))
	m.Handle("/shards/topk", http.HandlerFunc(s.serveTopK))
	m.Handle("/shards/snapshot", http.HandlerFunc(s.serveSnapshot))
	m.Handle("/shards/handovers", http.HandlerFunc(s.serveHandovers))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Supervisor) serveHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Health())
}

func (s *Supervisor) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Snapshot())
}

func (s *Supervisor) serveHandovers(w http.ResponseWriter, r *http.Request) {
	hos := s.Handovers()
	writeJSON(w, struct {
		Count     int               `json:"count"`
		Handovers []fusion.Handover `json:"handovers"`
	}{len(hos), hos})
}

func (s *Supervisor) serveTopK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		metric = "dl_bits"
	}
	window := time.Second
	if v := q.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			http.Error(w, "bad window "+strconv.Quote(v), http.StatusBadRequest)
			return
		}
		window = d
	}
	k := 10
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "bad k "+strconv.Quote(v), http.StatusBadRequest)
			return
		}
		k = n
	}
	ranks, err := s.TopK(metric, window, k)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, struct {
		Metric string           `json:"metric"`
		Ranks  []history.UERank `json:"ranks"`
	}{metric, ranks})
}
