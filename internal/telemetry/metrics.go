package telemetry

import "nrscope/internal/obs"

// met is the telemetry sink instrumentation: how many samples the JSONL
// log writer appended.
var met = struct {
	recordsWritten *obs.Counter
}{
	recordsWritten: obs.Default.Counter("nrscope_telemetry_records_written_total",
		"telemetry records appended to the JSONL log writer"),
}
