package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mobicache/internal/churn"
	"mobicache/internal/delivery"
	"mobicache/internal/engine"
	"mobicache/internal/faults"
	"mobicache/internal/multicell"
)

// The equivalence contract of the client population. Until the
// struct-of-arrays population became the only client implementation,
// every run below also executed on a goroutine-per-client process
// engine, and the two were proven bit-identical. The process engine's
// results were frozen into testdata/proc_oracle.json before it was
// deleted: one row per matrix cell, holding a fingerprint of every
// Results field (Config excluded), the manifest digest and the event
// calendar's high-water mark. Each test here reruns its cells and
// demands the frozen row back bit for bit, with the differing fields
// named on failure. The oracle is data, not a recording the tests can
// refresh: a mismatch means the simulator changed behaviour.

const oraclePath = "testdata/proc_oracle.json"

// oracleRow is one frozen cell.
type oracleRow struct {
	// Fields maps each Results field name to its fingerprint (see
	// fingerprint).
	Fields map[string]string `json:"fields"`
	// Digest is the cell's manifest digest.
	Digest *oracleDigest `json:"digest,omitempty"`
	// PeakEventQueue is the calendar high-water mark.
	PeakEventQueue int `json:"peak_event_queue,omitempty"`
}

// oracleDigest is the replay digest a manifest records.
type oracleDigest struct {
	QueriesAnswered    int64   `json:"queries_answered"`
	HitRatio           float64 `json:"hit_ratio"`
	UplinkBitsPerQuery float64 `json:"uplink_bits_per_query"`
	Events             uint64  `json:"events"`
	SpansEnabled       bool    `json:"spans_enabled,omitempty"`
	SpanTerminal       int64   `json:"span_terminal,omitempty"`
	AoIP95             float64 `json:"aoi_p95,omitempty"`
}

// oracleFile is the frozen table: single-cell engine rows and
// multi-cell rows, keyed by cell name. The exp package's sweep rows
// live in the same file under "sweep".
type oracleFile struct {
	Engine    map[string]oracleRow `json:"engine"`
	Multicell map[string]oracleRow `json:"multicell"`
}

func loadOracle(t *testing.T) *oracleFile {
	t.Helper()
	b, err := os.ReadFile(oraclePath)
	if err != nil {
		t.Fatal(err)
	}
	var f oracleFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("%s: %v", oraclePath, err)
	}
	return &f
}

// render writes a canonical, bit-exact text form of v: floats in the
// shortest form that round-trips, map entries sorted, pointers
// followed, and unexported struct fields included.
func render(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		render(b, v.Elem())
	case reflect.Struct:
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(v.Type().Field(i).Name)
			b.WriteByte(':')
			render(b, v.Field(i))
		}
		b.WriteByte('}')
	case reflect.Map:
		entries := make([]string, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			var e strings.Builder
			render(&e, it.Key())
			e.WriteByte(':')
			render(&e, it.Value())
			entries = append(entries, e.String())
		}
		sort.Strings(entries)
		b.WriteString("map[" + strings.Join(entries, " ") + "]")
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			render(b, v.Index(i))
		}
		b.WriteByte(']')
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	default:
		panic("oracle: cannot render " + v.Kind().String())
	}
}

// fingerprint maps every field of the struct res points to (Config
// excluded) to its rendering, replaced by a SHA-256 prefix when longer
// than a short scalar, so the table stays small while a scalar
// mismatch still prints both values.
func fingerprint(res any) map[string]string {
	v := reflect.ValueOf(res).Elem()
	out := make(map[string]string, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "Config" {
			continue
		}
		var b strings.Builder
		render(&b, v.Field(i))
		s := b.String()
		if len(s) > 32 {
			sum := sha256.Sum256([]byte(s))
			s = "sha256:" + hex.EncodeToString(sum[:12])
		}
		out[name] = s
	}
	return out
}

// diffFields lists the fields whose fingerprints differ, with both
// values.
func diffFields(want, got map[string]string) []string {
	var bad []string
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			bad = append(bad, fmt.Sprintf("%s: oracle=%s got=%s", name, w, g))
		}
	}
	for name, g := range got {
		if _, ok := want[name]; !ok {
			bad = append(bad, fmt.Sprintf("%s: not in oracle (got=%s)", name, g))
		}
	}
	sort.Strings(bad)
	return bad
}

// engineRow runs c and freezes it into an oracle row.
func engineRow(t *testing.T, c engine.Config) (*engine.Results, oracleRow) {
	t.Helper()
	r, err := engine.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	m := engine.NewManifest(r)
	return r, oracleRow{
		Fields: fingerprint(r),
		Digest: &oracleDigest{
			QueriesAnswered:    m.QueriesAnswered,
			HitRatio:           m.HitRatio,
			UplinkBitsPerQuery: m.UplinkBitsPerQuery,
			Events:             m.Events,
			SpansEnabled:       m.SpansEnabled,
			SpanTerminal:       m.SpanTerminal,
			AoIP95:             m.AoIP95,
		},
		PeakEventQueue: m.PeakEventQueue,
	}
}

// checkEngineCell runs the named cell and compares it with its frozen
// row: every Results field, the frozen manifest digest verifying the
// run as a replay, and the calendar high-water mark.
func checkEngineCell(t *testing.T, o *oracleFile, name string, c engine.Config) *engine.Results {
	t.Helper()
	want, ok := o.Engine[name]
	if !ok {
		t.Fatalf("cell %q missing from %s", name, oraclePath)
	}
	r, got := engineRow(t, c)
	if bad := diffFields(want.Fields, got.Fields); len(bad) != 0 {
		t.Fatalf("%d Results fields differ from the oracle:\n%s", len(bad), strings.Join(bad, "\n"))
	}
	d := want.Digest
	m := &engine.Manifest{
		QueriesAnswered:    d.QueriesAnswered,
		HitRatio:           d.HitRatio,
		UplinkBitsPerQuery: d.UplinkBitsPerQuery,
		Events:             d.Events,
		SpansEnabled:       d.SpansEnabled,
		SpanTerminal:       d.SpanTerminal,
		AoIP95:             d.AoIP95,
	}
	if err := m.VerifyReplay(r); err != nil {
		t.Fatalf("frozen manifest digest rejects the run: %v", err)
	}
	if got.PeakEventQueue != want.PeakEventQueue {
		t.Fatalf("peak event queue %d, oracle %d", got.PeakEventQueue, want.PeakEventQueue)
	}
	return r
}

// equivBase is the matrix's base config: small enough that the full
// scheme × layer × seed product stays fast, long enough to exercise
// disconnection/reconnection, queries, evictions and window overruns.
func equivBase(seed uint64) engine.Config {
	c := engine.Default()
	c.Clients = 48
	c.SimTime = 4000
	c.MeanDisc = 400
	c.ConsistencyCheck = true
	c.Seed = seed
	return c
}

// oracleRetry is the fault tests' timeout/backoff discipline.
func oracleRetry() faults.RetryPolicy {
	return faults.RetryPolicy{Timeout: 240, Backoff: 2, MaxDelay: 1920, Jitter: 0.2, MaxAttempts: 6}
}

var allSchemes = []string{"ts", "ts-check", "at", "bs", "afw", "aaw", "sig"}

// equivLayers is the adversarial-layer axis. Each entry arms one layer
// at the severity the layer's own property tests use.
var equivLayers = []struct {
	name  string
	apply func(*engine.Config)
}{
	{"none", func(c *engine.Config) {}},
	{"chaos", func(c *engine.Config) {
		c.Faults = faults.Config{
			DownLoss:  faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.5, CorruptBad: 0.1},
			UpLoss:    faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.3},
			CrashMTBF: 2000,
			CrashMTTR: 120,
			Retry:     oracleRetry(),
		}
	}},
	{"overload", func(c *engine.Config) {
		c.Overload.UpQueueCap = 20
		c.Overload.DownQueueCap = 20
		c.Overload.QueryDeadline = 4 * c.Period
		c.Overload.ServerPendingCap = 16
		c.Overload.Coalesce = true
	}},
	{"delivery", func(c *engine.Config) {
		c.Delivery = delivery.Severity(1)
		c.Faults.Retry = oracleRetry()
	}},
	{"churn", func(c *engine.Config) {
		c.Churn = churn.Severity(1)
		c.Faults.Retry = oracleRetry()
	}},
}

func applyLayer(c *engine.Config, layer string) {
	for _, l := range equivLayers {
		if l.name == layer {
			l.apply(c)
			return
		}
	}
	panic("oracle: unknown layer " + layer)
}

// oracleCell is one named engine cell of the frozen table.
type oracleCell struct {
	name string
	cfg  engine.Config
}

func matrixCells() []oracleCell {
	var cells []oracleCell
	for _, scheme := range allSchemes {
		for _, layer := range equivLayers {
			for _, seed := range []uint64{1, 4} {
				c := equivBase(seed)
				c.Scheme = scheme
				layer.apply(&c)
				cells = append(cells, oracleCell{fmt.Sprintf("%s/%s/seed%d", scheme, layer.name, seed), c})
			}
		}
	}
	return cells
}

func warmupCells() []oracleCell {
	var cells []oracleCell
	for _, layer := range []string{"none", "chaos", "churn"} {
		c := equivBase(9)
		c.Scheme = "aaw"
		c.Warmup = 1000
		applyLayer(&c, layer)
		cells = append(cells, oracleCell{"warmup/" + layer, c})
	}
	return cells
}

func perIntervalCells() []oracleCell {
	var cells []oracleCell
	for _, scheme := range []string{"aaw", "bs", "ts-check"} {
		c := equivBase(3)
		c.Scheme = scheme
		c.DiscPerInterval = true
		cells = append(cells, oracleCell{"per-interval/" + scheme, c})
	}
	return cells
}

func spansCell() oracleCell {
	c := equivBase(5)
	c.Scheme = "aaw"
	c.Spans = &engine.SpanOptions{}
	c.Overload.QueryDeadline = 4 * c.Period
	return oracleCell{"spans", c}
}

// multicellCells are the multi-cell rows: mobility at every
// disconnection boundary, three schemes, two seeds.
func multicellCells() []struct {
	name string
	cfg  multicell.Config
} {
	var cells []struct {
		name string
		cfg  multicell.Config
	}
	for _, scheme := range []string{"aaw", "bs", "ts-check"} {
		for _, seed := range []uint64{1, 2} {
			c := multicell.DefaultConfig()
			c.Base.SimTime = 6000
			c.Base.MeanDisc = 400
			c.Base.ProbDisc = 0.4
			c.Base.ConsistencyCheck = true
			c.Base.Scheme = scheme
			c.Base.Seed = seed
			cells = append(cells, struct {
				name string
				cfg  multicell.Config
			}{fmt.Sprintf("%s/seed%d", scheme, seed), c})
		}
	}
	return cells
}

// TestAggregateEquivalence is the core matrix: all seven schemes under
// every adversarial layer, two seeds, against the frozen process-engine
// results.
func TestAggregateEquivalence(t *testing.T) {
	o := loadOracle(t)
	for _, cell := range matrixCells() {
		t.Run(cell.name, func(t *testing.T) {
			r := checkEngineCell(t, o, cell.name, cell.cfg)
			if r.QueriesAnswered == 0 {
				t.Fatalf("matrix cell answered no queries; equivalence is vacuous")
			}
			if r.ConsistencyViolations != 0 {
				t.Fatalf("%d stale reads; first: %v", r.ConsistencyViolations, r.FirstViolation)
			}
		})
	}
}

// TestAggregateEquivalenceWarmup pins the warmup-reset path: the
// population must zero the same counters at the boundary, carrying
// in-flight queries and straddling crashes across it.
func TestAggregateEquivalenceWarmup(t *testing.T) {
	o := loadOracle(t)
	for _, cell := range warmupCells() {
		t.Run(strings.TrimPrefix(cell.name, "warmup/"), func(t *testing.T) {
			checkEngineCell(t, o, cell.name, cell.cfg)
		})
	}
}

// TestAggregateEquivalencePerInterval pins the per-broadcast-boundary
// disconnection ablation, whose think loop suspends differently.
func TestAggregateEquivalencePerInterval(t *testing.T) {
	o := loadOracle(t)
	for _, cell := range perIntervalCells() {
		t.Run(strings.TrimPrefix(cell.name, "per-interval/"), func(t *testing.T) {
			checkEngineCell(t, o, cell.name, cell.cfg)
		})
	}
}

// TestAggregateEquivalenceSpans pins the span/AoI observability layer:
// the assembler folds the trace stream, so the span digest and AoI
// percentiles must match too.
func TestAggregateEquivalenceSpans(t *testing.T) {
	cell := spansCell()
	checkEngineCell(t, loadOracle(t), cell.name, cell.cfg)
}

// TestAggregateDeterminism: same seed, same Results, twice.
func TestAggregateDeterminism(t *testing.T) {
	c := equivBase(2)
	c.Scheme = "aaw"
	_, a := engineRow(t, c)
	_, b := engineRow(t, c)
	if bad := diffFields(a.Fields, b.Fields); len(bad) != 0 {
		t.Fatalf("same seed diverged:\n%s", strings.Join(bad, "\n"))
	}
}

// TestMulticellOracle pins multi-cell mobility: clients that move
// between stations while disconnected must reproduce the frozen
// multi-cell Results.
func TestMulticellOracle(t *testing.T) {
	o := loadOracle(t)
	for _, cell := range multicellCells() {
		t.Run(cell.name, func(t *testing.T) {
			want, ok := o.Multicell[cell.name]
			if !ok {
				t.Fatalf("multicell cell %q missing from %s", cell.name, oraclePath)
			}
			r, err := multicell.Run(cell.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if bad := diffFields(want.Fields, fingerprint(r)); len(bad) != 0 {
				t.Fatalf("%d Results fields differ from the oracle:\n%s", len(bad), strings.Join(bad, "\n"))
			}
			if r.Handoffs == 0 {
				t.Fatal("no handoffs: the mobility path is untested")
			}
		})
	}
}
