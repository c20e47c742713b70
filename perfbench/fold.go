package main

import (
	"math"
	"sort"
)

// run is one simulator child: its host time, peak memory and result.
type run struct {
	wall  float64 // host seconds from start to exit
	rssKB int64   // peak resident set of the child, from its rusage
	res   simResult
}

// pass is one run of every invocation of a workload, in order.
type pass []run

func (p pass) wall() float64 {
	s := 0.0
	for _, r := range p {
		s += r.wall
	}
	return s
}

func (p pass) peakRSSKB() int64 {
	var m int64
	for _, r := range p {
		m = max(m, r.rssKB)
	}
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(ps []pass, f func(pass) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return median(v)
}

// timings are the host-side figures of a workload: medians over the
// measured and the set-up passes.
type timings struct {
	wall    float64 // s
	setup   float64 // s
	peakRSS float64 // bytes
}

func timingsOf(measured, setup []pass) timings {
	return timings{
		wall:    medianOf(measured, pass.wall),
		setup:   medianOf(setup, pass.wall),
		peakRSS: medianOf(measured, func(p pass) float64 { return float64(p.peakRSSKB()) * 1024 }),
	}
}

// endToEnd folds one workload's timings and its simulated figures into
// the end-to-end metrics. seeded holds one pass per simulation seed of the
// run: queries answered is the mean per pass, and uplink bits per query
// pools the passes.
func endToEnd(t timings, seeded []pass) map[string]float64 {
	var answered int64
	var uplink float64
	for _, p := range seeded {
		for _, r := range p {
			answered += r.res.QueriesAnswered
			uplink += r.res.UplinkValidationBits
		}
	}
	return map[string]float64{
		"wall_s":                t.wall,
		"setup_s":               t.setup,
		"peak_rss_mb":           t.peakRSS / (1 << 20),
		"queries_answered":      float64(answered) / float64(len(seeded)),
		"uplink_bits_per_query": uplink / float64(answered),
	}
}

// layerCounts folds the exact per-layer counts of the seeded passes:
// counts are summed over a pass's invocations and averaged over the
// passes, the peak queue is the maximum, the hit ratio pools every lookup,
// and utilizations are averaged over all runs (which share a horizon).
func layerCounts(seeded []pass) map[string]float64 {
	m := map[string]float64{}
	var hits, misses int64
	runs := 0
	for _, p := range seeded {
		runs += len(p)
	}
	perPass := 1 / float64(len(seeded))
	for _, p := range seeded {
		for _, r := range p {
			s := r.res
			m["sim.events"] += float64(s.Events) * perPass
			m["sim.peak_event_queue"] = max(m["sim.peak_event_queue"], float64(s.PeakEventQueue))
			m["core.reports_ts"] += float64(s.ReportsSent["TS"]) * perPass
			m["core.reports_ts_w"] += float64(s.ReportsSent["TS+w'"]) * perPass
			m["core.reports_bs"] += float64(s.ReportsSent["BS"]) * perPass
			m["report.down_bits"] += s.DownReportBits * perPass
			m["cache.items_from_cache"] += float64(s.ItemsFromCache) * perPass
			m["cache.items_fetched"] += float64(s.ItemsFetched) * perPass
			m["netsim.down_utilization"] += s.DownUtilization / float64(runs)
			m["netsim.up_utilization"] += s.UpUtilization / float64(runs)
			m["faults.retries"] += float64(s.Retries) * perPass
			m["overload.queries_timed_out"] += float64(s.QueriesTimedOut) * perPass
			m["delivery.delayed"] += float64(s.DeliveryDelayed) * perPass
			m["churn.client_crashes"] += float64(s.ClientCrashes) * perPass
			m["churn.restarts_warm"] += float64(s.RestartsWarm) * perPass
			m["churn.snapshot_rejects"] += float64(s.SnapshotRejects) * perPass
			hits += s.CacheHits
			misses += s.CacheMisses
		}
	}
	m["cache.hit_ratio"] = 0
	if hits+misses > 0 {
		m["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return m
}

// derived computes the population metrics from the untraced timings:
// host time per simulated client-tick once set-up is taken out, and peak
// memory per client.
func derived(w workload, t timings) map[string]float64 {
	return map[string]float64{
		"population.ns_per_client_tick": (t.wall - t.setup) * 1e9 / w.clientTicks(),
		"population.bytes_per_client":   t.peakRSS / float64(w.clients),
	}
}
