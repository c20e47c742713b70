package main

import (
	"encoding/json"
	"fmt"
)

// simResult is the part of mobisim's -json output the benchmark reads.
// Only field names the CLI documents are used.
type simResult struct {
	QueriesAnswered       int64            `json:"queries_answered"`
	UplinkValidationBits  float64          `json:"uplink_validation_bits"`
	UplinkBitsPerQuery    float64          `json:"uplink_bits_per_query"`
	CacheHits             int64            `json:"cache_hits"`
	CacheMisses           int64            `json:"cache_misses"`
	HitRatio              float64          `json:"hit_ratio"`
	ReportsSent           map[string]int64 `json:"reports_sent"`
	DownReportBits        float64          `json:"down_report_bits"`
	DownUtilization       float64          `json:"down_utilization"`
	UpUtilization         float64          `json:"up_utilization"`
	ItemsFromCache        int64            `json:"items_from_cache"`
	ItemsFetched          int64            `json:"items_fetched"`
	Retries               int64            `json:"retries"`
	Disconnections        int64            `json:"disconnections"`
	QueriesIssued         int64            `json:"queries_issued"`
	QueriesTimedOut       int64            `json:"queries_timed_out"`
	QueriesShed           int64            `json:"queries_shed"`
	QueriesInFlight       int64            `json:"queries_in_flight"`
	DeliveryDelayed       int64            `json:"delivery_delayed"`
	StormDisconnects      int64            `json:"storm_disconnects"`
	SoloDisconnects       int64            `json:"solo_disconnects"`
	ClientCrashes         int64            `json:"client_crashes"`
	RestartsWarm          int64            `json:"restarts_warm"`
	RestartsCold          int64            `json:"restarts_cold"`
	SnapshotRejects       int64            `json:"snapshot_rejects"`
	CrashedAtEnd          int64            `json:"crashed_at_end"`
	Events                uint64           `json:"events"`
	PeakEventQueue        int              `json:"peak_event_queue"`
	ConsistencyViolations int64            `json:"consistency_violations"`
}

// gate decides whether one simulator run passed: it exited cleanly,
// printed parsable JSON, served no stale read and kept every accounting
// identity. It returns the parsed result when the run passed.
func gate(exitErr error, stdout []byte) (simResult, error) {
	var r simResult
	if exitErr != nil {
		return r, fmt.Errorf("simulator failed: %w", exitErr)
	}
	if err := json.Unmarshal(stdout, &r); err != nil {
		return r, fmt.Errorf("simulator output is not JSON: %w", err)
	}
	if r.ConsistencyViolations > 0 {
		return r, fmt.Errorf("%d consistency violations", r.ConsistencyViolations)
	}
	if got := r.QueriesAnswered + r.QueriesTimedOut + r.QueriesShed + r.QueriesInFlight; got != r.QueriesIssued {
		return r, fmt.Errorf("queries issued %d != answered+timed out+shed+in flight %d", r.QueriesIssued, got)
	}
	if got := r.StormDisconnects + r.SoloDisconnects; got != r.Disconnections {
		return r, fmt.Errorf("disconnections %d != storm+solo %d", r.Disconnections, got)
	}
	if got := r.RestartsWarm + r.RestartsCold + r.CrashedAtEnd; got != r.ClientCrashes {
		return r, fmt.Errorf("client crashes %d != warm+cold restarts+crashed at end %d", r.ClientCrashes, got)
	}
	return r, nil
}

// digest is what must repeat exactly across runs of one invocation with
// one seed, traced or not.
type digest struct {
	QueriesAnswered    int64
	HitRatio           float64
	UplinkBitsPerQuery float64
	Events             uint64
}

func digestOf(r simResult) digest {
	return digest{r.QueriesAnswered, r.HitRatio, r.UplinkBitsPerQuery, r.Events}
}

// digests remembers the first digest seen for each invocation key.
type digests map[string]digest

// check records d for key on first sight and reports a mismatch after.
func (ds digests) check(key string, d digest) error {
	first, ok := ds[key]
	if !ok {
		ds[key] = d
		return nil
	}
	if first != d {
		return fmt.Errorf("digest %+v differs from the first run's %+v", d, first)
	}
	return nil
}
