package core

import "nrscope/internal/obs"

// met is the core package's instrument set, resolved once from the
// Default registry: the scope records with single atomic ops on the hot
// path. Metrics follow process-wide Prometheus semantics — they
// aggregate across every Scope in the process (gauges reflect the most
// recent writer).
var met = struct {
	decodeLatency   *obs.Histogram
	slots           *obs.Counter
	positions       *obs.Counter
	positionsEmpty  *obs.Counter
	candAttempted   *obs.Counter
	candMatched     *obs.Counter
	decodeFailed    *obs.Counter
	crntiRecovers   *obs.Counter
	msg4Hits        *obs.Counter
	msg4Unannounced *obs.Counter
	tcExpired       *obs.Counter
	pdschDecodes    *obs.Counter
	mibAcquired     *obs.Counter
	sib1Acquired    *obs.Counter
	uesTracked      *obs.Gauge
}{
	decodeLatency: obs.Default.Histogram("nrscope_scope_decode_latency_seconds",
		"per-slot signal-processing + DCI-decoding time (Fig. 12)", obs.LatencyBuckets),
	slots: obs.Default.Counter("nrscope_scope_slots_processed_total",
		"slot captures run through decodeSlot"),
	positions: obs.Default.Counter("nrscope_scope_blind_positions_decoded_total",
		"RNTI-independent candidate positions polar-decoded per the position cache"),
	positionsEmpty: obs.Default.Counter("nrscope_scope_blind_positions_empty_total",
		"candidate positions skipped because no transmission is possible there (payload exceeds the aggregation level's capacity)"),
	candAttempted: obs.Default.Counter("nrscope_scope_blind_candidates_attempted_total",
		"DCI CRC checks run: one RNTI recovery per CSS candidate tried and per decoded USS position"),
	candMatched: obs.Default.Counter("nrscope_scope_blind_candidates_matched_total",
		"candidates that CRC-checked and translated into grants"),
	decodeFailed: obs.Default.Counter("nrscope_scope_decode_failures_total",
		"candidate decodes rejected (polar/CRC/unpack/grant errors)"),
	crntiRecovers: obs.Default.Counter("nrscope_scope_crnti_recoveries_total",
		"RNTIs recovered from DCI CRC XOR in the common search space"),
	msg4Hits: obs.Default.Counter("nrscope_scope_msg4_hits_total",
		"MSG4 discoveries (new-UE C-RNTI candidates accepted)"),
	msg4Unannounced: obs.Default.Counter("nrscope_scope_msg4_unannounced_total",
		"CSS RNTI recoveries dropped as MSG4 candidates because no decoded RAR announced the TC-RNTI"),
	tcExpired: obs.Default.Counter("nrscope_scope_tcrnti_expired_total",
		"announced TC-RNTIs whose contention-resolution window closed without a MSG4"),
	pdschDecodes: obs.Default.Counter("nrscope_scope_pdsch_decodes_total",
		"common-search-space PDSCH decodes (SIB1, RAR, MSG4 verify)"),
	mibAcquired: obs.Default.Counter("nrscope_scope_mib_acquired_total",
		"MIB acquisitions merged into scope state"),
	sib1Acquired: obs.Default.Counter("nrscope_scope_sib1_acquired_total",
		"SIB1 acquisitions merged into scope state"),
	uesTracked: obs.Default.Gauge("nrscope_scope_ues_tracked",
		"C-RNTIs currently tracked by the scope"),
}
