package bitseq

import (
	"errors"
	"slices"
	"testing"

	"mobicache/internal/bitio"
	"mobicache/internal/db"
)

// structsEqual compares two structures field by field, including the
// packed words, so codec tests catch any bit-level drift.
func structsEqual(a, b *Structure) bool {
	if a.N != b.N || a.TS0 != b.TS0 || len(a.Seqs) != len(b.Seqs) {
		return false
	}
	for i := range a.Seqs {
		sa, sb := &a.Seqs[i], &b.Seqs[i]
		if sa.TS != sb.TS || sa.Len != sb.Len || sa.Ones != sb.Ones {
			return false
		}
		for w := range sa.Bits {
			if sa.Bits[w] != sb.Bits[w] {
				return false
			}
		}
	}
	return true
}

// TestCodecEdgeCases round-trips the structures the normal path rarely
// produces: a never-updated database (every sequence empty), a single
// updated item, a fully saturated structure, and a non-power-of-two
// database size.
func TestCodecEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		updates int
	}{
		{"empty-never-updated", 64, 0},
		{"single-item", 64, 1},
		{"saturated", 64, 64},
		{"non-power-of-two", 100, 17},
		{"minimum-database", 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := db.New(tc.n, false)
			for i := 0; i < tc.updates; i++ {
				d.Update(int32(i%tc.n), float64(i+1))
			}
			s := Build(tc.n, d)
			if tc.updates == 0 {
				if s.TS0 != Epoch {
					t.Fatalf("TS0 = %v, want epoch", s.TS0)
				}
				for i := range s.Seqs {
					if s.Seqs[i].Ones != 0 {
						t.Fatalf("level %d has %d marks in an empty structure", i, s.Seqs[i].Ones)
					}
				}
			}
			w := bitio.NewWriter()
			s.Encode(w)
			if w.Len() != s.SizeBits(64) {
				t.Fatalf("wire length %d, analytic %d", w.Len(), s.SizeBits(64))
			}
			got, err := Decode(tc.n, bitio.NewReader(w.Bytes(), w.Len()))
			if err != nil {
				t.Fatal(err)
			}
			if !structsEqual(s, got) {
				t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, s)
			}
		})
	}
}

// TestLocateBoundaryTimestamps pins the inclusive/exclusive boundaries of
// the client algorithm: a Tlb exactly equal to TS0 means the cache is
// fully valid, and a Tlb exactly equal to a level timestamp selects that
// level (TS <= Tlb, not <).
func TestLocateBoundaryTimestamps(t *testing.T) {
	// Enough distinct updates to overflow the top level's N/2 capacity, so
	// every level carries a real (non-epoch) timestamp.
	d := db.New(64, false)
	for i := 0; i < 40; i++ {
		d.Update(int32(i), float64(10*(i+1))) // updates at 10, 20, ..., 400
	}
	s := Build(64, d)

	// Tlb exactly at the most recent update: nothing changed after it.
	if a, _ := s.Locate(s.TS0, nil); a != AllValid {
		t.Fatalf("Locate(TS0) = %v, want all-valid", a)
	}
	// A hair before TS0 must not report all-valid.
	if a, _ := s.Locate(s.TS0-1e-9, nil); a == AllValid {
		t.Fatal("Locate(just below TS0) reported all-valid")
	}
	// Tlb exactly at the top level's timestamp selects it (boundary is
	// inclusive); one ulp below drops the whole cache.
	top := s.Seqs[0].TS
	if top == Epoch {
		t.Fatalf("top level timestamp is the epoch; structure %+v", s)
	}
	if a, _ := s.Locate(top, nil); a != InvalidateSet {
		t.Fatalf("Locate(top TS) = %v, want invalidate-set", a)
	}
	if a, _ := s.Locate(top-1e-9, nil); a != DropAll {
		t.Fatalf("Locate(below top TS) = %v, want drop-all", a)
	}
	// Equality at a deeper level's timestamp must pick that deeper level:
	// its set is smaller, and soundness still holds because the level
	// marks everything updated after its TS.
	if len(s.Seqs) > 1 && s.Seqs[1].TS > s.Seqs[0].TS {
		_, idsDeep := s.Locate(s.Seqs[1].TS, nil)
		_, idsTop := s.Locate(s.Seqs[1].TS-1e-9, nil)
		if len(idsDeep) > len(idsTop) {
			t.Fatalf("boundary Tlb invalidates more (%d) than the level above (%d)",
				len(idsDeep), len(idsTop))
		}
	}
}

// rawFrame encodes a bit-sequences frame for an n-item database by hand:
// TS0 = 100, then for each level a zero timestamp and the bits mark sets.
// It reaches frames Build never produces.
func rawFrame(n int, mark func(level, bit int) bool) *bitio.Reader {
	w := bitio.NewWriter()
	w.WriteFloat(100)
	for l, size := 0, n; size >= 2; l, size = l+1, size/2 {
		w.WriteFloat(0)
		for b := 0; b < size; b++ {
			w.WriteBool(mark(l, b))
		}
	}
	return bitio.NewReader(w.Bytes(), w.Len())
}

// TestDecodeRejectsLevelOverflow pins the frame check: level l may mark
// at most as many items as level l+1 has bits, because each mark owns one
// bit of the next level. An overflowing frame used to decode cleanly and
// then panic in Locate; accepted frames must locate at every level
// without panicking and agree with the reference walk.
func TestDecodeRejectsLevelOverflow(t *testing.T) {
	all := func(int, int) bool { return true }
	cases := []struct {
		name string
		n    int
		mark func(level, bit int) bool
		err  error
	}{
		{"all-ones-256", 256, all, ErrLevelOverflow},
		{"all-ones-64", 64, all, ErrLevelOverflow},
		{"top-one-over-capacity", 8, func(l, b int) bool { return l == 0 && b < 5 }, ErrLevelOverflow},
		{"inner-level-over-capacity", 16, func(l, b int) bool { return l == 1 && b < 5 }, ErrLevelOverflow},
		{"every-level-at-capacity", 16, func(l, b int) bool { return b < 16>>(l+1) || l == 3 }, nil},
		{"last-level-full", 8, func(l, b int) bool { return l == 2 }, nil},
		{"unreachable-marks", 16, func(l, b int) bool { return l == 0 && b == 3 || l > 0 && b == 2 }, nil},
		{"minimum-database", 2, all, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Decode(tc.n, rawFrame(tc.n, tc.mark))
			if tc.err != nil {
				if !errors.Is(err, tc.err) {
					t.Fatalf("Decode error = %v, want %v", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			for l := range s.Seqs {
				if got, want := s.IDsAtLevel(l, nil), refIDsAtLevel(s, l, nil); !slices.Equal(got, want) {
					t.Fatalf("level %d: IDsAtLevel = %v, reference %v", l, got, want)
				}
			}
			for _, tlb := range boundaryTlbs(s) {
				s.Locate(tlb, nil)
			}
		})
	}
	if _, err := Decode(64, bitio.NewReader([]byte{1, 2, 3}, 24)); !errors.Is(err, bitio.ErrShortBuffer) {
		t.Fatalf("truncated frame: error %v, want %v", err, bitio.ErrShortBuffer)
	}
}
