package main

import (
	"math"
	"strconv"
)

// workload is one benchmark input set: the simulator invocations it runs
// (one per scheme, one after another) and the shape parameters the layer
// probes reuse, so probe inputs are sized like the simulation's own.
type workload struct {
	name      string
	schemes   []string
	aggregate bool
	hotCold   bool // HOTCOLD query access instead of UNIFORM
	clients   int
	n         int     // database size
	buffer    float64 // cache size as a fraction of n
	period    float64 // broadcast period L, seconds
	window    int     // invalidation window w, in periods
	downBps   float64
	upBps     float64
	think     float64 // mean think time, seconds
	update    float64 // mean update interarrival, seconds
	disc      float64 // mean disconnection time, seconds
	probDisc  float64 // disconnection probability per query gap
	itemBits  float64
	horizon   float64 // simulated seconds
	extra     []string
	// seedHot are the modules that led the CPU self time in the profile
	// taken when the benchmark was defined (two when they were within a
	// few percent); the traced run reports a hot layer outside them.
	seedHot []string
}

// The workloads and why each is in the benchmark:
//
//   - table1 is the unit of work behind every paper figure: Table 1's base
//     configuration for the four schemes of the paper's evaluation. Its
//     time goes to the per-client LRU cache and to bit-sequence build and
//     apply; with 100 clients it bypasses any broadcast fan-out optimisation.
//   - fanout-100k is a read-mostly steady state of 100000 clients on the
//     aggregate population: about 0.2 update transactions per period, so
//     the per-tick timestamp-report fan-out over the population dominates.
//     Every query gap holds a short disconnection (mean 300 s): with the
//     default rare, long ones only a few hundred feedback messages reach
//     the uplink and uplink bits per query spreads about 20% from seed to
//     seed.
//   - churn-hotcold runs the same scheme the other way round: 1000 HOTCOLD
//     clients, an update every 5 s, crash/restart churn and storms, with
//     caches written more than read and about 45% of broadcasts falling
//     back to bit sequences, under the overload guardrails and the
//     kernel's deadline and retry timers. The fault and delivery layers are
//     armed at low severity so their per-message paths run on every
//     message while their rare whole-system events (server crashes,
//     partitions) almost never fire: one such event moves a run's
//     throughput by tens of percent (a single partition can collapse it
//     for the rest of the horizon), which no bound on a seed's figures can
//     absorb.
var workloads = []workload{
	{
		name:    "table1",
		schemes: []string{"aaw", "afw", "bs", "ts-check"},
		clients: 100, n: 10000, buffer: 0.02, period: 20, window: 10,
		downBps: 10000, upBps: 10000, think: 100, update: 100, disc: 4000, probDisc: 0.1,
		itemBits: 8192, horizon: 100000,
		seedHot: []string{"bitseq"},
	},
	{
		name:      "fanout-100k",
		schemes:   []string{"aaw"},
		aggregate: true,
		clients:   100000, n: 10000, buffer: 0.02, period: 20, window: 10,
		downBps: 1e6, upBps: 1e6, think: 2000, update: 100, disc: 300, probDisc: 1,
		itemBits: 8192, horizon: 2000,
		seedHot: []string{"population", "core"},
	},
	{
		name:    "churn-hotcold",
		schemes: []string{"aaw"},
		hotCold: true,
		clients: 1000, n: 10000, buffer: 0.02, period: 20, window: 10,
		downBps: 1e5, upBps: 1e5, think: 100, update: 5, disc: 4000, probDisc: 0.1,
		itemBits: 8192, horizon: 10000,
		extra: []string{"-chaos", "0.01", "-churn", "1", "-delivery", "0.001",
			"-query-deadline", "600", "-up-queue-cap", "256",
			"-server-pending-cap", "256", "-coalesce"},
		seedHot: []string{"bitseq"},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// args is the mobisim command line for one invocation. Every shape
// parameter is passed explicitly, so a change of the CLI's defaults does
// not silently change the workload.
func (w workload) args(scheme string, horizon float64, seed uint64) []string {
	access := "uniform"
	if w.hotCold {
		access = "hotcold"
	}
	a := []string{
		"-json", "-check",
		"-scheme", scheme,
		"-workload", access,
		"-clients", strconv.Itoa(w.clients),
		"-db", strconv.Itoa(w.n),
		"-buffer", fmtFloat(w.buffer),
		"-period", fmtFloat(w.period),
		"-window", strconv.Itoa(w.window),
		"-downlink", fmtFloat(w.downBps),
		"-uplink", fmtFloat(w.upBps),
		"-think", fmtFloat(w.think),
		"-update", fmtFloat(w.update),
		"-disc", fmtFloat(w.disc),
		"-probdisc", fmtFloat(w.probDisc),
		"-itembits", fmtFloat(w.itemBits),
		"-simtime", fmtFloat(horizon),
		"-seed", strconv.FormatUint(seed, 10),
	}
	if w.aggregate {
		a = append(a, "-aggregate")
	}
	return append(a, w.extra...)
}

// setupHorizon cuts the run to just past the first broadcast, so a run
// covers process start, validation, database and population construction
// and the first tick.
func (w workload) setupHorizon() float64 { return w.period * 1.05 }

// cacheSize is the per-client cache capacity, rounded as the engine does.
func (w workload) cacheSize() int { return int(math.Round(w.buffer * float64(w.n))) }

// clientTicks is Σ clients × horizon / L over the workload's invocations.
func (w workload) clientTicks() float64 {
	return float64(len(w.schemes)) * float64(w.clients) * w.horizon / w.period
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
