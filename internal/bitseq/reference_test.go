package bitseq

import (
	"math"
	"slices"
	"sort"
	"testing"

	"mobicache/internal/bitio"
	"mobicache/internal/db"
	"mobicache/internal/rng"
)

// This file keeps the original algorithms as a reference: the
// sort-based Build and the level walk that expands a level into its id
// list by scanning every top-level bit. The differential tests below hold
// the mark-depth index to them on random update histories.

// refBuild is the original Build: it sorts the marked recency ranks by
// item id and sets the bits with one pass over the sorted ranks.
func refBuild(n int, src UpdateSource) *Structure {
	type rec struct {
		id int32
		ts float64
	}
	st := &Structure{N: n}
	if t := src.NewestUpdateTime(); t >= 0 {
		st.TS0 = t
	} else {
		st.TS0 = Epoch
	}
	capTop := n / 2
	items := make([]rec, 0, capTop+1)
	src.MostRecent(capTop+1, func(id int32, ts float64) bool {
		items = append(items, rec{id, ts})
		return true
	})
	avail := len(items)
	if avail > capTop {
		avail = capTop
	}
	sizes := []int{n}
	for sz := n / 2; sz >= 2; sz /= 2 {
		sizes = append(sizes, sz)
	}
	st.Seqs = make([]Sequence, len(sizes))
	marks := make([]int, len(sizes))
	for l, size := range sizes {
		st.Seqs[l].Len = size
		st.Seqs[l].Bits = make([]uint64, (size+63)/64)
		m := size / 2
		if m > avail {
			m = avail
		}
		marks[l] = m
		if m < len(items) {
			st.Seqs[l].TS = items[m].ts
		} else {
			st.Seqs[l].TS = Epoch
		}
	}
	ranks := make([]int, 0, avail)
	for r := 0; r < avail; r++ {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return items[ranks[i]].id < items[ranks[j]].id })
	counters := make([]int, len(sizes))
	for _, r := range ranks {
		pos := int(items[r].id)
		for l := 0; l < len(sizes) && r < marks[l]; l++ {
			seq := &st.Seqs[l]
			if w, mask := pos>>6, uint64(1)<<(uint(pos)&63); seq.Bits[w]&mask == 0 {
				seq.Bits[w] |= mask
				seq.Ones++
			}
			pos = counters[l]
			counters[l]++
		}
	}
	return st
}

// refIDsAtLevel is the original IDsAtLevel: a walk over all N top-level
// bits that follows each marked item down the levels by rank.
func refIDsAtLevel(s *Structure, li int, dst []int32) []int32 {
	top := &s.Seqs[0]
	counters := make([]int, li+1)
	for id := 0; id < top.Len; id++ {
		if !top.get(id) {
			continue
		}
		marked := true
		pos := counters[0]
		counters[0]++
		for l := 1; l <= li; l++ {
			if !s.Seqs[l].get(pos) {
				marked = false
				break
			}
			next := counters[l]
			counters[l]++
			pos = next
		}
		if marked {
			dst = append(dst, int32(id))
		}
	}
	return dst
}

// refLocate is the original Locate on top of refIDsAtLevel; it also
// returns the level it picked (-1 unless the action is InvalidateSet).
func refLocate(s *Structure, tlb float64) (Action, int, []int32) {
	if s.TS0 <= tlb {
		return AllValid, -1, nil
	}
	if len(s.Seqs) == 0 || tlb < s.Seqs[0].TS {
		return DropAll, -1, nil
	}
	level := 0
	for level+1 < len(s.Seqs) && s.Seqs[level+1].TS <= tlb {
		level++
	}
	return InvalidateSet, level, refIDsAtLevel(s, level, nil)
}

// refEncode is the original Encode: one bitio call per sequence bit.
func refEncode(s *Structure, w *bitio.Writer) {
	w.WriteFloat(s.TS0)
	for i := range s.Seqs {
		seq := &s.Seqs[i]
		w.WriteFloat(seq.TS)
		for b := 0; b < seq.Len; b++ {
			w.WriteBool(seq.get(b))
		}
	}
}

// boundaryTlbs lists the client timestamps at which Locate's decision
// can change: every level timestamp and TS0, one ulp either side of each,
// and both infinities.
func boundaryTlbs(s *Structure) []float64 {
	tlbs := []float64{math.Inf(-1), math.Inf(1)}
	add := func(t float64) {
		tlbs = append(tlbs, t, math.Nextafter(t, math.Inf(-1)), math.Nextafter(t, math.Inf(1)))
	}
	add(s.TS0)
	for i := range s.Seqs {
		add(s.Seqs[i].TS)
	}
	return tlbs
}

// checkAgainstReference compares got, a structure from Build or Decode,
// with want, the reference build over the same history: the level bits,
// Ones and timestamps; IDsAtLevel and Marked at every level against the
// reference walk; and Level and Locate at every decision boundary against
// the reference Locate.
func checkAgainstReference(t *testing.T, got, want *Structure) {
	t.Helper()
	if !structsEqual(got, want) {
		t.Fatalf("structure differs from the reference build:\n got %+v\nwant %+v", got, want)
	}
	for l := range want.Seqs {
		ref := refIDsAtLevel(want, l, nil)
		ids := got.IDsAtLevel(l, nil)
		if !slices.Equal(ids, ref) {
			t.Fatalf("level %d: IDsAtLevel = %v, reference %v", l, ids, ref)
		}
		for id := 0; id < got.N; id++ {
			_, inRef := slices.BinarySearch(ref, int32(id))
			if got.Marked(int32(id), l) != inRef {
				t.Fatalf("level %d: Marked(%d) = %v, reference %v", l, id, !inRef, inRef)
			}
		}
	}
	for _, tlb := range boundaryTlbs(want) {
		refAct, refLevel, refIDs := refLocate(want, tlb)
		act, level := got.Level(tlb)
		if act != refAct || level != refLevel {
			t.Fatalf("tlb %v: Level = %v/%d, reference %v/%d", tlb, act, level, refAct, refLevel)
		}
		act, ids := got.Locate(tlb, nil)
		if act != refAct || !slices.Equal(ids, refIDs) {
			t.Fatalf("tlb %v: Locate = %v %v, reference %v %v", tlb, act, ids, refAct, refIDs)
		}
	}
}

// checkHistory builds the structure for d both ways, directly and
// through an encode-decode round trip, and checks each against the
// reference. The wire must match the reference encoder bit for bit.
func checkHistory(t *testing.T, n int, d *db.Database) {
	t.Helper()
	want := refBuild(n, d)
	got := Build(n, d)
	checkAgainstReference(t, got, want)
	w, ref := bitio.NewWriter(), bitio.NewWriter()
	got.Encode(w)
	refEncode(want, ref)
	if w.Len() != ref.Len() || !slices.Equal(w.Bytes(), ref.Bytes()) {
		t.Fatalf("wire differs from the reference encoder: %d bits %x, want %d bits %x",
			w.Len(), w.Bytes(), ref.Len(), ref.Bytes())
	}
	dec, err := Decode(n, bitio.NewReader(w.Bytes(), w.Len()))
	if err != nil {
		t.Fatalf("decode of an encoded build: %v", err)
	}
	checkAgainstReference(t, dec, want)
}

// randomHistory applies ops updates to an n-item database. Half the
// histories draw update times from a coarse integer clock, so several
// items share a timestamp; a skew concentrates updates on a few items.
func randomHistory(src *rng.Source, n, ops int) *db.Database {
	d := db.New(n, false)
	coarse := src.Bool(0.5)
	hot := 1 + src.Intn(n)
	now := 0.0
	for i := 0; i < ops; i++ {
		if coarse {
			now += float64(src.Intn(2))
		} else {
			now += src.Exp(1)
		}
		id := src.Intn(n)
		if src.Bool(0.5) {
			id = src.Intn(hot)
		}
		d.Update(int32(id), now)
	}
	return d
}

func TestBuildMatchesReference(t *testing.T) {
	src := rng.New(2024)
	for _, n := range []int{2, 3, 64, 100, 1024, 10000} {
		trials := 20
		if n == 10000 {
			trials = 3
		}
		for trial := 0; trial < trials; trial++ {
			ops := src.Intn(3 * n)
			checkHistory(t, n, randomHistory(src, n, ops))
		}
	}
}

func TestBuildMatchesReferenceEdgeHistories(t *testing.T) {
	for _, n := range []int{2, 3, 64, 100, 1024, 10000} {
		// Never updated: every level empty, TS0 and every TS the epoch.
		checkHistory(t, n, db.New(n, false))
		// A single update: marked on every level.
		single := db.New(n, false)
		single.Update(int32(n/3), 7)
		checkHistory(t, n, single)
		// Saturated: every item updated, so each level marks its full
		// capacity and carries a real timestamp.
		sat := db.New(n, false)
		for i := 0; i < n; i++ {
			sat.Update(int32((i*7)%n), float64(i+1))
		}
		checkHistory(t, n, sat)
	}
}

// FuzzBitseq builds structures from fuzzed update histories and holds
// them, directly and after an encode-decode round trip, to the reference
// algorithms. The first two bytes choose the database size; each later
// byte pair is one update (item, time step). Run as a CI smoke via
// `go test -fuzz=FuzzBitseq -fuzztime=10s ./internal/bitseq`.
func FuzzBitseq(f *testing.F) {
	f.Add([]byte{0, 2})
	f.Add([]byte{0, 16, 3, 1})
	f.Add([]byte{0, 100, 1, 1, 2, 0, 3, 5, 1, 1, 9, 0, 60, 2, 99, 3})
	f.Add([]byte{4, 0, 0, 1, 255, 1, 128, 0, 7, 9, 7, 0, 200, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + (int(data[0])<<8|int(data[1]))%2048
		d := db.New(n, false)
		now := 0.0
		for i := 2; i+1 < len(data); i += 2 {
			now += float64(data[i+1] % 4)
			d.Update(int32((int(data[i])*(int(data[i+1])+1))%n), now)
		}
		checkHistory(t, n, d)
	})
}
