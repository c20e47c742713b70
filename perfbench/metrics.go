package main

import "fmt"

// metricDef describes one reported metric. moves names the end-to-end
// metric, and the workload, that a change in this per-layer metric should
// move; it is empty for end-to-end metrics.
type metricDef struct {
	name   string
	unit   string
	better string
	moves  string
}

// endToEndDefs are the metrics a user of the simulator sees, reported with
// -trace 0. The two simulated ones repeat exactly for a seed.
var endToEndDefs = []metricDef{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "queries_answered", unit: "count", better: "higher"},
	{name: "uplink_bits_per_query", unit: "bit", better: "lower"},
}

// selfShareModules are the packages whose CPU self time the traced run
// reports, each as <module>.self_share. runtime includes the garbage
// collector and the runtime's own internal packages.
var selfShareModules = []string{
	"sim", "netsim", "bitio", "report", "bitseq", "db", "core", "cache",
	"client", "population", "server", "faults", "overload", "delivery",
	"churn", "runtime",
}

// perLayerDefs are the per-layer metrics reported with -trace 1: exact
// counts read from the simulator's JSON, metrics derived from the
// untraced timings, timed probes of each layer's exported functions, and
// the traced run's CPU profile folded by package.
var perLayerDefs = append([]metricDef{
	{"sim.events", "count", "lower", "wall_s on churn-hotcold"},
	{"sim.peak_event_queue", "count", "lower", "wall_s on churn-hotcold"},
	{"core.reports_ts", "count", "higher", "which apply branch ran"},
	{"core.reports_ts_w", "count", "lower", "which apply branch ran"},
	{"core.reports_bs", "count", "lower", "which apply branch ran"},
	{"report.down_bits", "bit", "lower", "uplink_bits_per_query trade-off on every workload"},
	{"cache.hit_ratio", "ratio", "higher", "queries_answered on every workload"},
	{"cache.items_from_cache", "count", "higher", "queries_answered on every workload"},
	{"cache.items_fetched", "count", "lower", "queries_answered on every workload"},
	{"netsim.down_utilization", "ratio", "lower", "queries_answered on every workload"},
	{"netsim.up_utilization", "ratio", "lower", "queries_answered on every workload"},
	{"faults.retries", "count", "lower", "wall_s on churn-hotcold"},
	{"overload.queries_timed_out", "count", "lower", "queries_answered on churn-hotcold"},
	{"delivery.delayed", "count", "lower", "wall_s on churn-hotcold"},
	{"churn.client_crashes", "count", "lower", "wall_s on churn-hotcold"},
	{"churn.restarts_warm", "count", "higher", "wall_s on churn-hotcold"},
	{"churn.snapshot_rejects", "count", "lower", "wall_s on churn-hotcold"},
	{"population.ns_per_client_tick", "ns", "lower", "wall_s on fanout-100k"},
	{"population.bytes_per_client", "B", "lower", "peak_rss_mb on fanout-100k"},
	{"sim.event_ns", "ns", "lower", "wall_s on churn-hotcold"},
	{"netsim.send_ns", "ns", "lower", "wall_s on churn-hotcold"},
	{"bitseq.build_ns", "ns", "lower", "wall_s on table1"},
	{"core.build_report_ns", "ns", "lower", "wall_s on table1"},
	{"bitseq.locate_ns", "ns", "lower", "wall_s on churn-hotcold and table1"},
	{"core.apply_bs_ns", "ns", "lower", "wall_s on churn-hotcold and table1"},
	{"core.apply_ts_ns", "ns", "lower", "wall_s on fanout-100k"},
	{"report.encode_ts_ns", "ns", "lower", "wall_s on table1"},
	{"report.encode_bs_ns", "ns", "lower", "wall_s on table1"},
	{"report.decode_ts_ns", "ns", "lower", "wall_s on table1"},
	{"report.decode_bs_ns", "ns", "lower", "wall_s on table1"},
	{"cache.lookup_put_ns", "ns", "lower", "wall_s on table1"},
	{"trace.overhead_ratio", "ratio", "lower", "none: the cost of profiling, kept out of every end-to-end metric"},
}, selfShareDefs()...)

func selfShareDefs() []metricDef {
	defs := make([]metricDef, len(selfShareModules))
	for i, m := range selfShareModules {
		defs[i] = metricDef{m + ".self_share", "ratio", "lower", "wall_s where the module is the hot layer"}
	}
	return defs
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the values of defs, in the result-line shape; a metric the
// run did not produce is an error, so a result never silently drops one.
func pick(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
