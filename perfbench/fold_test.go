package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
}

func testPass(wall ...float64) pass {
	p := make(pass, len(wall))
	for i, w := range wall {
		p[i] = run{wall: w, rssKB: int64(1024 * (i + 1)), res: simResult{
			QueriesAnswered:      100,
			UplinkValidationBits: 50 * float64(i),
			CacheHits:            10,
			CacheMisses:          30,
			ReportsSent:          map[string]int64{"TS": 2, "TS+w'": 1, "BS": int64(i)},
			DownUtilization:      0.2 * float64(i+1),
			Events:               1000,
			PeakEventQueue:       10 * (i + 1),
			ClientCrashes:        int64(i),
		}}
	}
	return p
}

func TestEndToEnd(t *testing.T) {
	measured := []pass{testPass(1, 2), testPass(2, 2), testPass(5, 5)}
	setup := []pass{testPass(0.1, 0.1), testPass(0.2, 0.2), testPass(0.1, 0.2)}
	tm := timingsOf(measured, setup)
	if tm.wall != 4 || math.Abs(tm.setup-0.3) > 1e-12 || tm.peakRSS != 2<<20 {
		t.Fatalf("timings %+v", tm)
	}
	got := endToEnd(tm, measured[:2])
	want := map[string]float64{
		"wall_s": 4, "setup_s": tm.setup, "peak_rss_mb": 2,
		"queries_answered": 200, "uplink_bits_per_query": 0.25,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if _, err := pick(endToEndDefs, got); err != nil {
		t.Error(err)
	}
}

func TestLayerCountsAndDerived(t *testing.T) {
	c := layerCounts([]pass{testPass(1, 1), testPass(1, 1, 1)})
	want := map[string]float64{
		"sim.events": 2500, "sim.peak_event_queue": 30,
		"core.reports_ts": 5, "core.reports_ts_w": 2.5, "core.reports_bs": 2,
		"cache.hit_ratio": 0.25, "netsim.down_utilization": 0.36,
		"churn.client_crashes": 2,
	}
	for k, v := range want {
		if c[k] != v {
			t.Errorf("%s = %g, want %g", k, c[k], v)
		}
	}
	w := workload{schemes: []string{"a", "b"}, clients: 10, horizon: 200, period: 20}
	d := derived(w, timings{wall: 3, setup: 1, peakRSS: 5000})
	if d["population.ns_per_client_tick"] != 1e7 || d["population.bytes_per_client"] != 500 {
		t.Errorf("derived %v", d)
	}
}

func TestPickReportsMissingMetric(t *testing.T) {
	if _, err := pick(endToEndDefs, map[string]float64{"wall_s": 1}); err == nil {
		t.Fatal("a missing metric was not reported")
	}
}
