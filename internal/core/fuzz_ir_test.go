package core

import (
	"math"
	"testing"

	"mobicache/internal/bitio"
	"mobicache/internal/bitseq"
	"mobicache/internal/db"
	"mobicache/internal/report"
)

// FuzzDecodeIR feeds arbitrary byte strings to the invalidation-report
// decoder. Whatever the bytes, Decode must return cleanly (never panic or
// over-allocate), and anything it accepts must survive an
// encode-decode round trip with kind, timestamp and analytic size intact
// — the properties the wire cost model depends on. Run as a CI smoke via
// `go test -fuzz=Fuzz.*IR -fuzztime=10s ./internal/core`.
func FuzzDecodeIR(f *testing.F) {
	p := report.DefaultParams(64)

	seed := func(r report.Report) {
		w := bitio.NewWriter()
		report.Encode(r, p, w)
		f.Add(w.Bytes())
	}
	seed(&report.TSReport{T: 40, Entries: []db.UpdateEntry{{ID: 3, TS: 31}, {ID: 9, TS: 38}}})
	seed(&report.TSReport{T: 60, Entries: []db.UpdateEntry{{ID: 1, TS: 55}}, Dummy: &report.DummyRecord{Tlb: 12}})
	seed(&report.ATReport{T: 20, IDs: []int32{4, 8, 15, 16, 23, 42}})
	seed(&report.SIGReport{T: 80, Sigs: []uint64{0xdead, 0xbeef}, SigBits: 16})
	// Sequence-header edges: the wraparound value (successor is 0) and the
	// sign-flip edge of the fence's serial-number comparison.
	wrapped := &report.TSReport{T: 90, Entries: []db.UpdateEntry{{ID: 2, TS: 85}}}
	report.SetSeq(wrapped, math.MaxUint32)
	seed(wrapped)
	signEdge := &report.ATReport{T: 95, IDs: []int32{1}}
	report.SetSeq(signEdge, 1<<31)
	seed(signEdge)
	// Every bit of every level set: each level marks more items than the
	// next level has bits, so its marks address bits past the next
	// level's end. Decode must reject the frame.
	allOnes := &bitseq.Structure{N: p.N, TS0: 100}
	for size := p.N; size >= 2; size /= 2 {
		seq := bitseq.Sequence{Len: size, Ones: size, Bits: make([]uint64, (size+63)/64)}
		for b := 0; b < size; b++ {
			seq.Bits[b>>6] |= 1 << (b & 63)
		}
		allOnes.Seqs = append(allOnes.Seqs, seq)
	}
	seed(&report.BSReport{T: 100, S: allOnes})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0x80}) // header-only: kind + all-ones seq, then truncation

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bitio.NewReader(data, len(data)*8)
		rep, err := report.Decode(p, r)
		if err != nil {
			return // rejected, fine — we only demand it rejects cleanly
		}
		// An accepted bit-sequences frame must be locatable: no level
		// marks more items than the next level has bits, and a client can
		// locate at every level it might pick.
		if bs, ok := rep.(*report.BSReport); ok {
			for l := range bs.S.Seqs {
				if l+1 < len(bs.S.Seqs) && bs.S.Seqs[l].Ones > bs.S.Seqs[l+1].Len {
					t.Fatalf("accepted a frame whose level %d marks %d items for %d bits",
						l, bs.S.Seqs[l].Ones, bs.S.Seqs[l+1].Len)
				}
				bs.S.Locate(bs.S.Seqs[l].TS, nil)
			}
		}
		w := bitio.NewWriter()
		report.Encode(rep, p, w)
		rep2, err := report.Decode(p, bitio.NewReader(w.Bytes(), w.Len()))
		if err != nil {
			t.Fatalf("re-decode of re-encoded %s report failed: %v", rep.Kind(), err)
		}
		if rep2.Kind() != rep.Kind() {
			t.Fatalf("kind changed across round trip: %s -> %s", rep.Kind(), rep2.Kind())
		}
		// Bit-pattern comparison: a fuzzed timestamp may be NaN, which
		// still must round-trip exactly on the wire.
		if math.Float64bits(rep2.Time()) != math.Float64bits(rep.Time()) {
			t.Fatalf("timestamp changed across round trip: %x -> %x",
				math.Float64bits(rep.Time()), math.Float64bits(rep2.Time()))
		}
		if got, want := rep2.SizeBits(p), rep.SizeBits(p); got != want {
			t.Fatalf("analytic size changed across round trip: %d -> %d bits", want, got)
		}
		// The broadcast sequence number rides the frame header; the client
		// fence cannot tolerate it drifting across the wire, including at
		// the uint32 wraparound edge.
		if report.SeqOf(rep2) != report.SeqOf(rep) {
			t.Fatalf("sequence number changed across round trip: %d -> %d",
				report.SeqOf(rep), report.SeqOf(rep2))
		}
	})
}
