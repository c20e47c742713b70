package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"mobicache/internal/bitio"
	"mobicache/internal/bitseq"
	"mobicache/internal/core"
	"mobicache/internal/db"
	"mobicache/internal/netsim"
	"mobicache/internal/report"
	"mobicache/internal/sim"
)

// The probes time single calls into each layer's exported API. Their
// inputs come from the workload's own parameters and the run's seed: a
// database aged by the workload's update process over its horizon, the
// workload's schemes, cache size, link bandwidth and item size, and the
// kernel calendar depth the simulation itself reached. Every probe also
// checks what the call produced.

// Client halves that accept each report kind (the rest panic on it).
var (
	bsClients = []string{"aaw", "afw", "bs"}
	tsClients = []string{"aaw", "afw", "ts-check"}
)

// probeBudget is the time each probe spends measuring.
const probeBudget = 150 * time.Millisecond

// nsPerOp times op, which performs n operations and returns the time they
// took (so it can leave per-operation set-up out). It calibrates n so one
// batch takes at least a millisecond, then reports the median ns per
// operation over the batches that fit in the budget.
func nsPerOp(op func(n int) time.Duration) float64 {
	n := 1
	for op(n) < time.Millisecond && n < 1<<24 {
		n *= 2
	}
	var per []float64
	for start := time.Now(); len(per) < 5 || time.Since(start) < probeBudget; {
		per = append(per, float64(op(n).Nanoseconds())/float64(n))
	}
	return median(per)
}

// probeInputs are the shared inputs: the aged database and the reports
// the workload's servers build from it at the end of the horizon.
type probeInputs struct {
	w      workload
	rng    *rand.Rand
	params core.Params
	d      *db.Database
	now    float64
	tlbOld float64 // a client Tlb outside the window that bit sequences still bound
	ts     *report.TSReport
	bs     *report.BSReport
}

func newProbeInputs(w workload, seed uint64) (*probeInputs, error) {
	p := &probeInputs{
		w:   w,
		rng: rand.New(rand.NewPCG(seed, 0x70726f6265)),
		params: core.Params{N: w.n, L: w.period, W: w.window,
			Rep: report.DefaultParams(w.n)},
		d:   db.New(w.n, false),
		now: w.horizon,
	}
	// Update transactions arrive with exponential interarrival times and
	// touch 1..9 uniformly chosen items each, as the server's update
	// process does.
	for t := p.rng.ExpFloat64() * w.update; t < p.now; t += p.rng.ExpFloat64() * w.update {
		for k := 1 + p.rng.IntN(9); k > 0; k-- {
			p.d.Update(int32(p.rng.IntN(w.n)), t)
		}
	}
	p.bs = &report.BSReport{T: p.now, S: bitseq.Build(w.n, p.d)}
	windowStart := p.now - p.params.WindowSeconds()
	p.tlbOld = p.now - 2*p.params.WindowSeconds()
	if bn := p.bs.S.Seqs[0].TS; p.tlbOld <= bn {
		p.tlbOld = (bn + windowStart) / 2
	}
	for _, name := range w.schemes {
		if !slices.Contains(tsClients, name) {
			continue
		}
		sch, err := core.Lookup(name)
		if err != nil {
			return nil, err
		}
		ts, ok := sch.NewServer(p.params).BuildReport(p.d, p.now).(*report.TSReport)
		if !ok {
			return nil, fmt.Errorf("probe: %s server did not build a TS report", name)
		}
		p.ts = ts
		break
	}
	if p.ts == nil {
		return nil, fmt.Errorf("probe: no scheme of %s builds TS reports", w.name)
	}
	return p, nil
}

// fullClient returns a client state whose cache holds ids, validated
// through tlb.
func (p *probeInputs) fullClient(ids []int32, tlb float64) *core.ClientState {
	st := core.NewClientState(0, len(ids))
	for _, id := range ids {
		st.Cache.Put(id, tlb, 0)
	}
	st.Tlb = tlb
	return st
}

// staleCached reports a cached item updated after tlb, if any.
func (p *probeInputs) staleCached(st *core.ClientState, tlb float64) error {
	var err error
	for _, id := range st.Cache.IDs(nil) {
		if p.d.LastUpdate(id) > tlb {
			err = fmt.Errorf("item %d updated at %g is still cached after a report for Tlb %g",
				id, p.d.LastUpdate(id), tlb)
		}
	}
	return err
}

// runProbes times every probe for workload w. peakQueue is the deepest
// kernel calendar the workload's simulation reached.
func runProbes(w workload, seed uint64, peakQueue int) (map[string]float64, error) {
	p, err := newProbeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	probes := []struct {
		name string
		fn   func() (float64, error)
	}{
		{"sim.event_ns", func() (float64, error) { return p.probeEvent(peakQueue) }},
		{"netsim.send_ns", p.probeSend},
		{"bitseq.build_ns", p.probeBuild},
		{"core.build_report_ns", p.probeBuildReport},
		{"bitseq.locate_ns", p.probeLocate},
		{"core.apply_bs_ns", p.probeApplyBS},
		{"core.apply_ts_ns", p.probeApplyTS},
		{"report.encode_ts_ns", func() (float64, error) { return p.probeEncode(p.ts) }},
		{"report.encode_bs_ns", func() (float64, error) { return p.probeEncode(p.bs) }},
		{"report.decode_ts_ns", func() (float64, error) { return p.probeDecode(p.ts) }},
		{"report.decode_bs_ns", func() (float64, error) { return p.probeDecode(p.bs) }},
		{"cache.lookup_put_ns", p.probeLookupPut},
	}
	for _, pr := range probes {
		v, err := pr.fn()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", pr.name, err)
		}
		out[pr.name] = v
	}
	return out, nil
}

// probeEvent times one Schedule plus one Step with the calendar held at
// depth events: every fired event schedules its successor.
func (p *probeInputs) probeEvent(depth int) (float64, error) {
	depth = max(depth, 1)
	k := sim.New()
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = p.rng.ExpFloat64() * p.w.period
	}
	j := 0
	var fire func()
	fire = func() {
		k.Schedule(delays[j&(len(delays)-1)], fire)
		j++
	}
	for i := 0; i < depth; i++ {
		k.Schedule(delays[i&(len(delays)-1)], fire)
	}
	steps := uint64(0)
	ns := nsPerOp(func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			k.Step()
		}
		steps += uint64(n)
		return time.Since(start)
	})
	if k.Pending() != depth || k.Executed() != steps {
		return 0, fmt.Errorf("calendar holds %d events after %d steps, want %d after %d",
			k.Pending(), k.Executed(), depth, steps)
	}
	return ns, nil
}

// probeSend times one item-sized data message through a channel of the
// workload's downlink bandwidth: admission, transmission and delivery,
// in bursts of 256 queued messages.
func (p *probeInputs) probeSend() (float64, error) {
	const burst = 256
	k := sim.New()
	ch := netsim.NewChannel(k, "down", p.w.downBps)
	var sent, delivered, shed int64
	onDelivered := func() { delivered++ }
	ns := nsPerOp(func(n int) time.Duration {
		start := time.Now()
		for done := 0; done < n; {
			b := min(burst, n-done)
			for i := 0; i < b; i++ {
				if !ch.Send(netsim.ClassData, p.w.itemBits, onDelivered) {
					shed++
				}
			}
			for k.Step() {
			}
			done += b
		}
		sent += int64(n)
		return time.Since(start)
	})
	if delivered != sent || ch.Delivered() != sent || shed > 0 {
		return 0, fmt.Errorf("delivered %d (channel %d) of %d messages, %d shed",
			delivered, ch.Delivered(), sent, shed)
	}
	return ns, nil
}

func (p *probeInputs) probeBuild() (float64, error) {
	var s *bitseq.Structure
	ns := nsPerOp(func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			s = bitseq.Build(p.w.n, p.d)
		}
		return time.Since(start)
	})
	if s.N != p.w.n || s.TS0 != p.d.NewestUpdateTime() {
		return 0, fmt.Errorf("structure over %d items with TS0 %g, want %d and %g",
			s.N, s.TS0, p.w.n, p.d.NewestUpdateTime())
	}
	return ns, nil
}

// probeBuildReport times BuildReport of each of the workload's schemes
// and reports the mean over them.
func (p *probeInputs) probeBuildReport() (float64, error) {
	sum := 0.0
	for _, name := range p.w.schemes {
		sch, err := core.Lookup(name)
		if err != nil {
			return 0, err
		}
		srv := sch.NewServer(p.params)
		var r report.Report
		sum += nsPerOp(func(n int) time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				r = srv.BuildReport(p.d, p.now)
			}
			return time.Since(start)
		})
		if r.Time() != p.now {
			return 0, fmt.Errorf("%s report at %g, want %g", name, r.Time(), p.now)
		}
	}
	return sum / float64(len(p.w.schemes)), nil
}

// probeLocate times the client-side bit-sequence lookup for a Tlb outside
// the window and checks that the located set covers every later update.
func (p *probeInputs) probeLocate() (float64, error) {
	var ids []int32
	var action bitseq.Action
	ns := nsPerOp(func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			action, ids = p.bs.S.Locate(p.tlbOld, ids[:0])
		}
		return time.Since(start)
	})
	updated := p.d.UpdatedSince(p.tlbOld, nil)
	switch action {
	case bitseq.AllValid:
		if len(updated) > 0 {
			return 0, fmt.Errorf("AllValid with %d updates after Tlb", len(updated))
		}
	case bitseq.InvalidateSet:
		slices.Sort(ids)
		for _, e := range updated {
			if _, found := slices.BinarySearch(ids, e.ID); !found {
				return 0, fmt.Errorf("item %d updated after Tlb is not invalidated", e.ID)
			}
		}
	default:
		return 0, fmt.Errorf("Locate answered %v for a Tlb bit sequences bound", action)
	}
	return ns, nil
}

// cachedIDs draws the distinct items a full client cache holds.
func (p *probeInputs) cachedIDs() []int32 {
	perm := p.rng.Perm(p.w.n)
	ids := make([]int32, p.w.cacheSize())
	for i := range ids {
		ids[i] = int32(perm[i])
	}
	return ids
}

// probeApply times HandleReport of r against a full cache validated
// through tlb, for each of the workload's schemes whose client accepts r,
// and reports the mean. Cache refills stay outside the timed calls.
func (p *probeInputs) probeApply(r report.Report, accepts []string, tlb float64) (float64, error) {
	ids := p.cachedIDs()
	sum, count := 0.0, 0
	for _, name := range p.w.schemes {
		if !slices.Contains(accepts, name) {
			continue
		}
		sch, err := core.Lookup(name)
		if err != nil {
			return 0, err
		}
		cl := sch.NewClient(p.params)
		var st *core.ClientState
		var out core.Outcome
		sum += nsPerOp(func(n int) time.Duration {
			var d time.Duration
			for i := 0; i < n; i++ {
				st = p.fullClient(ids, tlb)
				start := time.Now()
				out = cl.HandleReport(st, r, p.now)
				d += time.Since(start)
			}
			return d
		})
		count++
		if !out.Ready || st.Tlb != p.now {
			return 0, fmt.Errorf("%s client not validated through %g (Tlb %g)", name, p.now, st.Tlb)
		}
		if err := p.staleCached(st, tlb); err != nil {
			return 0, fmt.Errorf("%s client: %w", name, err)
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("no scheme of %s accepts %v reports", p.w.name, r.Kind())
	}
	return sum / float64(count), nil
}

func (p *probeInputs) probeApplyBS() (float64, error) {
	return p.probeApply(p.bs, bsClients, p.tlbOld)
}

// probeApplyTS applies a window report to a client that heard the
// previous broadcast, the steady state of a connected client.
func (p *probeInputs) probeApplyTS() (float64, error) {
	return p.probeApply(p.ts, tsClients, p.now-p.w.period)
}

func (p *probeInputs) probeEncode(r report.Report) (float64, error) {
	w := bitio.NewWriter()
	ns := nsPerOp(func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			w.Reset()
			report.Encode(r, p.params.Rep, w)
		}
		return time.Since(start)
	})
	got, err := report.Decode(p.params.Rep, bitio.NewReader(w.Bytes(), w.Len()))
	if err != nil {
		return 0, err
	}
	return ns, sameReport(r, got)
}

func (p *probeInputs) probeDecode(r report.Report) (float64, error) {
	w := bitio.NewWriter()
	report.Encode(r, p.params.Rep, w)
	buf, nbits := w.Bytes(), w.Len()
	var got report.Report
	var err error
	ns := nsPerOp(func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n && err == nil; i++ {
			got, err = report.Decode(p.params.Rep, bitio.NewReader(buf, nbits))
		}
		return time.Since(start)
	})
	if err != nil {
		return 0, err
	}
	return ns, sameReport(r, got)
}

// sameReport checks that a decoded report carries what was encoded.
func sameReport(want, got report.Report) error {
	if want.Kind() != got.Kind() || want.Time() != got.Time() {
		return fmt.Errorf("decoded %v report at %g, want %v at %g", got.Kind(), got.Time(), want.Kind(), want.Time())
	}
	switch w := want.(type) {
	case *report.TSReport:
		if g := got.(*report.TSReport); !slices.Equal(w.Entries, g.Entries) {
			return fmt.Errorf("decoded %d TS entries differ from the %d encoded", len(g.Entries), len(w.Entries))
		}
	case *report.BSReport:
		g := got.(*report.BSReport)
		if g.S.TS0 != w.S.TS0 || len(g.S.Seqs) != len(w.S.Seqs) {
			return fmt.Errorf("decoded bit sequences differ in TS0 or level count")
		}
		for i, s := range w.S.Seqs {
			if gs := g.S.Seqs[i]; gs.TS != s.TS || gs.Len != s.Len || !slices.Equal(gs.Bits, s.Bits) {
				return fmt.Errorf("decoded bit sequence level %d differs", i)
			}
		}
	}
	return nil
}

// probeLookupPut times one cache lookup, plus an insert on a miss, on a
// full cache of the workload's size, with ids drawn like the workload's
// queries (HOTCOLD: 80% from the 100 hot items).
func (p *probeInputs) probeLookupPut() (float64, error) {
	ids := make([]int32, 4096)
	for i := range ids {
		if p.w.hotCold && p.rng.Float64() < 0.8 {
			ids[i] = int32(p.rng.IntN(100))
		} else {
			ids[i] = int32(p.rng.IntN(p.w.n))
		}
	}
	c := p.fullClient(p.cachedIDs(), 0).Cache
	c.ResetStats()
	var ops int64
	ns := nsPerOp(func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			id := ids[i&(len(ids)-1)]
			if _, ok := c.Lookup(id); !ok {
				c.Put(id, float64(i), 0)
			}
		}
		ops += int64(n)
		return time.Since(start)
	})
	if c.Hits()+c.Misses() != ops || c.Len() != p.w.cacheSize() {
		return 0, fmt.Errorf("%d hits + %d misses for %d lookups, %d of %d slots used",
			c.Hits(), c.Misses(), ops, c.Len(), p.w.cacheSize())
	}
	return ns, nil
}
