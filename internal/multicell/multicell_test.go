package multicell

import (
	"strings"
	"testing"

	"mobicache/internal/churn"
	"mobicache/internal/delivery"
	"mobicache/internal/engine"
	"mobicache/internal/faults"
	"mobicache/internal/metrics"
	"mobicache/internal/overload"
)

func shortConfig() Config {
	c := DefaultConfig()
	c.Base.SimTime = 6000
	c.Base.MeanDisc = 400
	c.Base.ProbDisc = 0.4
	c.Base.ConsistencyCheck = true
	return c
}

func mustRun(t *testing.T, c Config) *Results {
	t.Helper()
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMulticellRunsAllSchemes(t *testing.T) {
	for _, scheme := range []string{"ts", "ts-check", "bs", "afw", "aaw", "sig"} {
		c := shortConfig()
		c.Base.Scheme = scheme
		r := mustRun(t, c)
		if r.QueriesAnswered == 0 {
			t.Fatalf("%s: no queries answered", scheme)
		}
		if r.Handoffs == 0 {
			t.Fatalf("%s: no handoffs despite mobility", scheme)
		}
		// The paper-level guarantee must survive mobility: no stale reads
		// even when Tlb refers to another cell's reports.
		if r.ConsistencyViolations != 0 {
			t.Fatalf("%s: %d stale reads after handoffs; first: %v",
				scheme, r.ConsistencyViolations, r.FirstViolation)
		}
	}
}

func TestMulticellDeterminism(t *testing.T) {
	c := shortConfig()
	a := mustRun(t, c)
	b := mustRun(t, c)
	if a.QueriesAnswered != b.QueriesAnswered || a.Handoffs != b.Handoffs {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d",
			a.QueriesAnswered, a.Handoffs, b.QueriesAnswered, b.Handoffs)
	}
}

func TestMulticellCapacityScales(t *testing.T) {
	// Four cells provide four downlinks: total throughput should well
	// exceed a single saturated cell with the same population.
	single := engine.Default()
	single.SimTime = 6000
	single.MeanDisc = 400
	rs, err := engine.Run(single)
	if err != nil {
		t.Fatal(err)
	}
	multi := shortConfig()
	multi.Base.MeanDisc = 400
	multi.Base.ProbDisc = 0.1
	rm := mustRun(t, multi)
	if rm.QueriesAnswered < rs.QueriesAnswered*2 {
		t.Fatalf("4 cells answered %d, single cell %d: capacity did not scale",
			rm.QueriesAnswered, rs.QueriesAnswered)
	}
	if len(rm.PerCell) != 4 {
		t.Fatalf("per-cell stats = %d", len(rm.PerCell))
	}
	for i, cs := range rm.PerCell {
		if cs.QueriesAnswered == 0 {
			t.Fatalf("cell %d answered nothing", i)
		}
	}
}

func TestMulticellNoMobility(t *testing.T) {
	c := shortConfig()
	c.MoveProb = 0
	r := mustRun(t, c)
	if r.Handoffs != 0 {
		t.Fatalf("handoffs = %d with MoveProb 0", r.Handoffs)
	}
}

func TestMulticellSingleCellDegenerate(t *testing.T) {
	c := shortConfig()
	c.Cells = 1
	c.MoveProb = 0.5 // nowhere to go
	r := mustRun(t, c)
	if r.Handoffs != 0 {
		t.Fatalf("handoffs = %d in a single cell", r.Handoffs)
	}
	if r.QueriesAnswered == 0 {
		t.Fatal("no queries")
	}
}

func TestMulticellValidation(t *testing.T) {
	c := shortConfig()
	c.Cells = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero cells accepted")
	}
	c = shortConfig()
	c.MoveProb = 2
	if err := c.Validate(); err == nil {
		t.Fatal("bad move probability accepted")
	}
	c = shortConfig()
	c.Base.Scheme = "bogus"
	if _, err := Run(c); err == nil {
		t.Fatal("bogus scheme ran")
	}
}

func TestMulticellMobilityCostsAdaptivesLittle(t *testing.T) {
	// Handoffs look like long disconnections to the schemes; the adaptive
	// methods must keep salvaging (not dropping) across them.
	c := shortConfig()
	c.Base.Scheme = "aaw"
	c.Base.MeanDisc = 1000 // well past the window
	c.MoveProb = 1         // every disconnection is a handoff
	r := mustRun(t, c)
	if r.Handoffs == 0 {
		t.Fatal("no handoffs")
	}
	if r.Salvages == 0 {
		t.Fatal("aaw never salvaged across handoffs")
	}
}

// TestMulticellValidateRejectsUnwiredLayers: Run wires none of these
// Base fields, so each must be refused by name instead of running
// without its layer. Every row keeps Base valid on its own.
func TestMulticellValidateRejectsUnwiredLayers(t *testing.T) {
	retry := faults.RetryPolicy{Timeout: 240, Backoff: 2, MaxDelay: 1920, Jitter: 0.2, MaxAttempts: 6}
	for _, row := range []struct {
		field string
		set   func(*engine.Config)
	}{
		{"Faults", func(b *engine.Config) { b.Faults.CrashMTBF, b.Faults.CrashMTTR = 2000, 100 }},
		{"Overload", func(b *engine.Config) { b.Overload = overload.Config{QueryDeadline: 80} }},
		{"Delivery", func(b *engine.Config) { b.Delivery = delivery.Severity(1); b.Overload.QueryDeadline = 80 }},
		{"Churn", func(b *engine.Config) { b.Churn = churn.Severity(1); b.Faults.Retry = retry }},
		{"Spans", func(b *engine.Config) { b.Spans = &engine.SpanOptions{} }},
		{"Metrics", func(b *engine.Config) { b.Metrics = metrics.New() }},
		{"Warmup", func(b *engine.Config) { b.Warmup = 100 }},
		{"ReportLossProb", func(b *engine.Config) { b.ReportLossProb = 0.1 }},
	} {
		t.Run(row.field, func(t *testing.T) {
			c := shortConfig()
			row.set(&c.Base)
			if err := c.Base.Validate(); err != nil {
				t.Fatalf("row's Base is invalid on its own: %v", err)
			}
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), "Base."+row.field) {
				t.Fatalf("Validate = %v, want an error naming Base.%s", err, row.field)
			}
			if _, err := Run(c); err == nil {
				t.Fatal("Run accepted the config")
			}
		})
	}
	if err := shortConfig().Validate(); err != nil {
		t.Fatalf("plain multi-cell config rejected: %v", err)
	}
}
