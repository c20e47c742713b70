package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"mobicache/internal/engine"
)

// sweepOracle is the "sweep" section of the engine's frozen
// process-engine oracle (internal/engine/testdata/proc_oracle.json): the
// rendered figure table of the probe sweep below and every run's
// manifest digest, recorded from the serial runner of the
// goroutine-per-client engine before the population became the only
// client implementation.
type sweepOracle struct {
	Sweep struct {
		Table string `json:"table"`
		Runs  map[string]struct {
			QueriesAnswered    int64   `json:"queries_answered"`
			HitRatio           float64 `json:"hit_ratio"`
			UplinkBitsPerQuery float64 `json:"uplink_bits_per_query"`
			Events             uint64  `json:"events"`
		} `json:"runs"`
	} `json:"sweep"`
}

// TestAggregateSweepBitIdentical extends the parallel-harness contract
// to the frozen oracle: the probe sweep must reproduce the recorded
// table and every cell's manifest digest at every worker count.
func TestAggregateSweepBitIdentical(t *testing.T) {
	b, err := os.ReadFile("../engine/testdata/proc_oracle.json")
	if err != nil {
		t.Fatal(err)
	}
	var o sweepOracle
	if err := json.Unmarshal(b, &o); err != nil {
		t.Fatal(err)
	}
	if len(o.Sweep.Runs) == 0 {
		t.Fatal("oracle has no sweep runs")
	}
	for _, workers := range []int{1, 2, 8} {
		table, res := runOracleSweep(t, workers)
		if table != o.Sweep.Table {
			t.Errorf("workers=%d table differs from the oracle:\n%s\n--- want ---\n%s",
				workers, table, o.Sweep.Table)
		}
		n := 0
		for _, x := range res.Sweep.Xs {
			for _, scheme := range res.Schemes {
				for i, run := range res.Cells[x][scheme].Runs {
					key := oracleSweepKey(x, scheme, i)
					d, ok := o.Sweep.Runs[key]
					if !ok {
						t.Fatalf("run %s missing from the oracle", key)
					}
					m := &engine.Manifest{
						QueriesAnswered:    d.QueriesAnswered,
						HitRatio:           d.HitRatio,
						UplinkBitsPerQuery: d.UplinkBitsPerQuery,
						Events:             d.Events,
					}
					if err := m.VerifyReplay(run); err != nil {
						t.Errorf("workers=%d %s: digest mismatch: %v", workers, key, err)
					}
					n++
				}
			}
		}
		if n != len(o.Sweep.Runs) {
			t.Fatalf("workers=%d ran %d cells, oracle has %d", workers, n, len(o.Sweep.Runs))
		}
	}
}

// runOracleSweep runs the oracle's probe sweep at the given worker
// count, returning the rendered figure table and the sweep results.
func runOracleSweep(t *testing.T, workers int) (string, *SweepResult) {
	t.Helper()
	s := *Sweeps["uniform-probdisc"] // fresh copy: no cross-runner memoization
	s.Xs = []float64{0.05, 0.2}
	s.Schemes = []string{"aaw", "ts-check", "bs"}
	r := NewRunner(Options{SimTime: 1500, Seeds: []uint64{1, 2}, Workers: workers})
	fig := Figure{ID: "figagg", Title: "aggregate determinism probe", Sweep: &s, Metric: Throughput}
	table, err := r.RunFigure(fig)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	res, err := r.RunSweep(&s)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return table.Render(), res
}

func oracleSweepKey(x float64, scheme string, seedIdx int) string {
	return fmt.Sprintf("%v/%s/seed[%d]", x, scheme, seedIdx)
}
