package core_test

import (
	"slices"
	"testing"

	"mobicache/internal/bitseq"
	"mobicache/internal/cache"
	"mobicache/internal/core"
	"mobicache/internal/db"
	"mobicache/internal/population"
	"mobicache/internal/report"
	"mobicache/internal/rng"
)

// statCache is a client cache with the full accounting both
// implementations expose.
type statCache interface {
	core.Cache
	Evictions() int64
	Invalidations() int64
	Drops() int64
}

var statCaches = []struct {
	name string
	new  func(capacity, items int) statCache
}{
	{"map-lru", func(capacity, _ int) statCache { return cache.New(capacity) }},
	{"bitmap", func(capacity, items int) statCache { return population.NewBitmapCache(capacity, items) }},
}

// refApplyBS is the bit-sequences client step as it was before the
// mark-depth index: expand the located level into its id list and
// invalidate the ids one by one, in ascending id order.
func refApplyBS(st *core.ClientState, br *report.BSReport) core.Outcome {
	out := core.Outcome{Ready: true}
	action, ids := br.S.Locate(st.Tlb, nil)
	switch action {
	case bitseq.AllValid:
		st.Cache.TouchAll(br.T)
	case bitseq.DropAll:
		st.Cache.DropAll()
		st.Drops++
		out.DroppedAll = true
	default:
		had := st.Cache.Len()
		for _, id := range ids {
			st.Cache.Invalidate(id)
		}
		st.Cache.TouchAll(br.T)
		if st.Cache.Len() > 0 && had > 0 {
			st.Salvages++
		}
	}
	st.Tlb = br.T
	return out
}

// updatedDB applies ops random updates to an n-item database and
// returns it with the last update time.
func updatedDB(src *rng.Source, n, ops int) (*db.Database, float64) {
	d := db.New(n, false)
	now := 0.0
	for i := 0; i < ops; i++ {
		now += src.Exp(1)
		d.Update(int32(src.Intn(n)), now)
	}
	return d, now
}

// sameCache fails the test unless both caches hold the same entries in
// the same LRU order with the same accounting.
func sameCache(t *testing.T, when string, got, want statCache) {
	t.Helper()
	strip := func(es []cache.Entry) [][3]float64 {
		out := make([][3]float64, len(es))
		for i, e := range es {
			out[i] = [3]float64{float64(e.ID), e.TS, float64(e.Version)}
		}
		return out
	}
	g, w := strip(got.Entries(nil)), strip(want.Entries(nil))
	if !slices.Equal(g, w) {
		t.Fatalf("%s: entries %v, want %v", when, g, w)
	}
	gs := [5]int64{got.Hits(), got.Misses(), got.Evictions(), got.Invalidations(), got.Drops()}
	ws := [5]int64{want.Hits(), want.Misses(), want.Evictions(), want.Invalidations(), want.Drops()}
	if gs != ws {
		t.Fatalf("%s: hits/misses/evictions/invalidations/drops %v, want %v", when, gs, ws)
	}
}

// TestApplyBSMatchesIDListInvalidation holds the BS client step, which
// tests the client's own cached ids against the located level, to the
// original step that invalidates the level's whole id list. Both caches
// must end with the same entries, LRU order and statistics, and the
// client with the same Tlb, drops and salvages. A further run of cache
// operations shows that the changed invalidation order, which only
// renumbers free slots, stays unobservable.
func TestApplyBSMatchesIDListInvalidation(t *testing.T) {
	src := rng.New(31)
	for _, cc := range statCaches {
		t.Run(cc.name, func(t *testing.T) {
			for trial := 0; trial < 300; trial++ {
				n := 2 + src.Intn(600)
				capacity := 1 + src.Intn(min(n, 80))
				d, now := updatedDB(src, n, src.Intn(3*n))
				br := &report.BSReport{T: now + 1, S: bitseq.Build(n, d)}

				gotC, wantC := cc.new(capacity, n), cc.new(capacity, n)
				for k := 0; k < 3*capacity; k++ {
					id := int32(src.Intn(n))
					if src.Bool(0.3) {
						gotC.Lookup(id)
						wantC.Lookup(id)
						continue
					}
					ts := src.Float64() * now
					gotC.Put(id, ts, int32(k))
					wantC.Put(id, ts, int32(k))
				}
				var tlb float64
				switch s := br.S; src.Intn(4) {
				case 0:
					tlb = src.Float64() * now
				case 1:
					tlb = s.Seqs[src.Intn(len(s.Seqs))].TS
				case 2:
					tlb = s.TS0
				default:
					tlb = bitseq.Epoch - src.Float64()
				}
				got := &core.ClientState{Cache: gotC, Tlb: tlb}
				want := &core.ClientState{Cache: wantC, Tlb: tlb}

				gotOut := core.BS().NewClient(core.DefaultParams(n)).HandleReport(got, br, br.T)
				wantOut := refApplyBS(want, br)
				if gotOut != wantOut {
					t.Fatalf("trial %d: outcome %+v, want %+v", trial, gotOut, wantOut)
				}
				if got.Tlb != want.Tlb || got.Drops != want.Drops || got.Salvages != want.Salvages {
					t.Fatalf("trial %d: tlb/drops/salvages %v/%d/%d, want %v/%d/%d", trial,
						got.Tlb, got.Drops, got.Salvages, want.Tlb, want.Drops, want.Salvages)
				}
				sameCache(t, "after apply", gotC, wantC)

				for k := 0; k < 2*capacity; k++ {
					id := int32(src.Intn(n))
					switch src.Intn(3) {
					case 0:
						gotC.Put(id, now, int32(k))
						wantC.Put(id, now, int32(k))
					case 1:
						gotC.Lookup(id)
						wantC.Lookup(id)
					default:
						gotC.Invalidate(id)
						wantC.Invalidate(id)
					}
				}
				sameCache(t, "after later operations", gotC, wantC)
			}
		})
	}
}

// TestApplyBSAllocs pins the BS client step at 0 allocs/op once the
// client's id scratch has grown to the cache size: a 200-slot cache
// against a 10000-item structure, with the located level marking about
// half of the cached items, refilled before every run.
func TestApplyBSAllocs(t *testing.T) {
	const n, capacity = 10000, 200
	src := rng.New(41)
	d, now := updatedDB(src, n, n)
	br := &report.BSReport{T: now + 1, S: bitseq.Build(n, d)}
	for _, cc := range statCaches {
		t.Run(cc.name, func(t *testing.T) {
			c := cc.new(capacity, n)
			ids := src.SampleDistinct(n, capacity, nil)
			st := &core.ClientState{Cache: c}
			client := core.BS().NewClient(core.DefaultParams(n))
			run := func() {
				for _, id := range ids {
					if _, ok := c.Peek(id); !ok {
						c.Put(id, 0, 1)
					}
				}
				st.Tlb = br.S.Seqs[0].TS
				client.HandleReport(st, br, br.T)
			}
			run()
			before := c.Invalidations()
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Fatalf("BS report apply: %v allocs/op, want 0", allocs)
			}
			if c.Invalidations() == before {
				t.Fatal("the located level invalidated nothing; the test exercises no invalidation")
			}
		})
	}
}
