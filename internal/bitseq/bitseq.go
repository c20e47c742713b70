// Package bitseq implements the hierarchical bit-sequences invalidation
// structure of Jing et al. (paper §2.3), used both by the BS baseline and
// as the fallback report of the adaptive AFW/AAW schemes.
//
// The structure is a stack of bit sequences B_n ... B_1 plus a dummy
// timestamp TS(B_0):
//
//   - B_n has one bit per database item; its "1" bits mark the (at most
//     N/2) most recently updated items, all updated after TS(B_n).
//   - Each lower sequence B_k has one bit per "1" bit of B_{k+1}; its own
//     "1" bits mark the (at most) half of those items updated after
//     TS(B_k).
//   - TS(B_0) is the most recent update time: nothing changed after it.
//
// A client that last heard a report at time Tlb picks the deepest
// (smallest) sequence whose timestamp is <= Tlb and invalidates exactly
// the items marked in it. That set always contains every item updated
// after Tlb (soundness: clients never keep a truly stale item) and the
// halving structure bounds over-invalidation, which is what lets BS
// salvage caches after arbitrarily long disconnections without a fixed
// history window.
package bitseq

import (
	"errors"
	"fmt"
	"math/bits"

	"mobicache/internal/bitio"
)

// Sequence is one level of the structure.
type Sequence struct {
	// TS is the level timestamp: every marked item was updated after TS.
	TS float64
	// Bits holds Len bits, packed little-endian in uint64 words.
	Bits []uint64
	// Len is the number of valid bits.
	Len int
	// Ones is the number of set bits.
	Ones int
}

func (s *Sequence) get(i int) bool { return s.Bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// Get reports bit i of the sequence (exported for tests and tools).
func (s *Sequence) Get(i int) bool { return s.get(i) }

// Structure is a complete bit-sequences report payload.
//
// Build and Decode are its constructors: a Structure assembled by hand
// can be encoded, but it lacks the index that Level, Marked, Locate and
// IDsAtLevel read. A Structure is immutable once Build or Decode returns
// it. One broadcast report is shared by every client that hears it, so
// clients read it concurrently and without locks; callers must not
// modify Seqs.
type Structure struct {
	// N is the database size (bits in the top sequence).
	N int
	// Seqs holds the levels from B_n (index 0, N bits) down to the
	// smallest level with at least 2 bits.
	Seqs []Sequence
	// TS0 is the dummy B_0 timestamp: the most recent update time, or
	// negative if the database was never updated.
	TS0 float64

	// depth is the mark-depth index: depth[id] is the number of levels
	// that mark item id. The marked sets are nested, so id is marked at
	// level l exactly when depth[id] > l. Build and Decode fill it once;
	// it is what lets a client test its own cached ids against a level
	// instead of expanding the level into an id list.
	depth []uint8
}

// Levels reports the number of bit sequences (excluding the dummy B_0).
func (s *Structure) Levels() int { return len(s.Seqs) }

// Epoch is the timestamp meaning "before every update". Simulated time is
// non-negative, so -1 sorts before all real update times.
const Epoch = -1.0

// ErrLevelOverflow is returned by Decode for a frame in which some level
// marks more items than the next level has bits. Such a frame cannot come
// from Build, and its marks would address bits past the next level's end.
var ErrLevelOverflow = errors.New("bitseq: level marks more items than the next level has bits")

// UpdateSource abstracts the server database view the builder needs:
// distinct items in most-recent-update-first order.
type UpdateSource interface {
	// MostRecent visits up to max ever-updated items, most recent first.
	MostRecent(max int, fn func(id int32, ts float64) bool)
	// NewestUpdateTime reports the most recent update time, or negative
	// if nothing was ever updated.
	NewestUpdateTime() float64
}

// newLevels allocates the empty sequences of an n-item database, with
// sizes n, n/2, ..., down to 2 and epoch timestamps.
func newLevels(n int) []Sequence {
	var seqs []Sequence
	for size := n; size >= 2; size /= 2 {
		seqs = append(seqs, Sequence{TS: Epoch, Len: size, Bits: make([]uint64, (size+63)/64)})
	}
	return seqs
}

// SizeBits is the analytic size in bits of the structure for an n-item
// database with tsBits-bit timestamps: the sum of all sequence lengths
// plus one timestamp per sequence including the dummy B_0, matching the
// paper's 2N + bT*log2(N) formula.
func SizeBits(n, tsBits int) int {
	total := tsBits // TS(B0)
	for size := n; size >= 2; size /= 2 {
		total += size + tsBits
	}
	return total
}

// Build constructs the structure for an n-item database (n >= 2) from src.
func Build(n int, src UpdateSource) *Structure {
	if n < 2 {
		panic("bitseq: database too small")
	}
	st := &Structure{N: n, TS0: Epoch, Seqs: newLevels(n), depth: make([]uint8, n)}
	if t := src.NewestUpdateTime(); t >= 0 {
		st.TS0 = t
	}

	// Level l marks the min(Len/2, available) most recent items, so the
	// item of recency rank r is marked on exactly the levels whose
	// capacity Len/2 exceeds r. TS(B_l) is the update time of the item of
	// rank Len/2, the most recent one the level leaves unmarked, or the
	// epoch when fewer items were ever updated. Capacities shrink with
	// depth, so the mark depth only drops as the rank grows, and one item
	// beyond the top level's capacity is enough to stamp TS(B_n).
	d, r := len(st.Seqs), 0
	src.MostRecent(n/2+1, func(id int32, ts float64) bool {
		for d > 0 && st.Seqs[d-1].Len/2 <= r {
			d--
			st.Seqs[d].TS = ts
		}
		st.depth[id] = uint8(d)
		r++
		return true
	})

	// Set the level bits in id order. An item's bit position at level 0
	// is its id; at level l+1 it is its rank, in id order, among the items
	// marked at level l, which next[l] counts.
	var next [64]int
	for id, depth := range st.depth {
		pos := id
		for l := 0; l < int(depth); l++ {
			st.Seqs[l].Bits[pos>>6] |= 1 << (uint(pos) & 63)
			pos = next[l]
			next[l]++
		}
	}
	for l := range st.Seqs {
		st.Seqs[l].Ones = next[l]
	}
	return st
}

// Action tells a client what a Locate decision means.
type Action int

const (
	// AllValid: nothing was updated after the client's Tlb.
	AllValid Action = iota
	// DropAll: the structure cannot bound the updates since Tlb; the
	// entire cache must be discarded.
	DropAll
	// InvalidateSet: discard exactly the located items.
	InvalidateSet
)

// String names the action for traces.
func (a Action) String() string {
	switch a {
	case AllValid:
		return "all-valid"
	case DropAll:
		return "drop-all"
	case InvalidateSet:
		return "invalidate-set"
	default:
		return "action(?)"
	}
}

// Level implements the decision of the client-side BS algorithm (paper
// Figure 2) without building the id list: given the client's last-report
// timestamp tlb, it returns the action and, for InvalidateSet, the level
// whose marked items the client must discard (test them with Marked). The
// level is -1 for the other actions.
//
//hot — every client that hears a bit-sequences report calls it.
func (s *Structure) Level(tlb float64) (Action, int) {
	if s.TS0 <= tlb {
		return AllValid, -1
	}
	if len(s.Seqs) == 0 || tlb < s.Seqs[0].TS {
		return DropAll, -1
	}
	// Deepest level with TS <= tlb; timestamps are non-decreasing with
	// depth, so scan forward.
	level := 0
	for level+1 < len(s.Seqs) && s.Seqs[level+1].TS <= tlb {
		level++
	}
	return InvalidateSet, level
}

// Marked reports whether item id is marked at level (0 = the top, N-bit
// sequence), i.e. whether a client told to invalidate that level must
// discard it.
//
//hot — called once per cached item when a client applies a report.
func (s *Structure) Marked(id int32, level int) bool { return int(s.depth[id]) > level }

// Locate implements the client-side BS algorithm (paper Figure 2): given
// the client's last-report timestamp tlb, it returns the action and, for
// InvalidateSet, dst extended with the ids to invalidate.
func (s *Structure) Locate(tlb float64, dst []int32) (Action, []int32) {
	action, level := s.Level(tlb)
	if action != InvalidateSet {
		return action, dst
	}
	return action, s.IDsAtLevel(level, dst)
}

// IDsAtLevel appends the item ids marked at level li (0 = the top, N-bit
// sequence) to dst, in ascending id order.
func (s *Structure) IDsAtLevel(li int, dst []int32) []int32 {
	if li < 0 || li >= len(s.Seqs) {
		panic("bitseq: level out of range")
	}
	for id, d := range s.depth {
		if int(d) > li {
			dst = append(dst, int32(id))
		}
	}
	return dst
}

// SizeBits reports the analytic report size in bits; see the package
// function SizeBits.
func (s *Structure) SizeBits(tsBits int) int { return SizeBits(s.N, tsBits) }

// Encode serializes the structure with bit-exact field widths. The wire
// layout is TS0, then each level's timestamp followed by its raw bits in
// sequence order. N and the level count are implicit: every client knows
// the database size.
func (s *Structure) Encode(w *bitio.Writer) {
	w.WriteFloat(s.TS0)
	for i := range s.Seqs {
		seq := &s.Seqs[i]
		w.WriteFloat(seq.TS)
		// Bit b sits at bit b%64 of word b/64, and the writer emits the
		// most significant bit first: a reversed word puts bit 0 in front.
		full := seq.Len / 64
		for _, word := range seq.Bits[:full] {
			w.WriteBits(bits.Reverse64(word), 64)
		}
		if rem := seq.Len % 64; rem > 0 {
			w.WriteBits(bits.Reverse64(seq.Bits[full])>>(64-rem), rem)
		}
	}
}

// decodeBits reads the Len bits Encode wrote for seq and counts its ones.
func (seq *Sequence) decodeBits(r *bitio.Reader) error {
	full := seq.Len / 64
	for i := 0; i < full; i++ {
		v, err := r.ReadBits(64)
		if err != nil {
			return err
		}
		seq.Bits[i] = bits.Reverse64(v)
	}
	if rem := seq.Len % 64; rem > 0 {
		v, err := r.ReadBits(rem)
		if err != nil {
			return err
		}
		seq.Bits[full] = bits.Reverse64(v << (64 - rem))
	}
	for _, word := range seq.Bits {
		seq.Ones += bits.OnesCount64(word)
	}
	return nil
}

// Decode reconstructs a structure for an n-item database from r. Besides
// truncation it rejects, with ErrLevelOverflow, a frame whose level l
// marks more items than level l+1 has bits.
func Decode(n int, r *bitio.Reader) (*Structure, error) {
	ts0, err := r.ReadFloat()
	if err != nil {
		return nil, err
	}
	st := &Structure{N: n, TS0: ts0, Seqs: newLevels(n)}
	for l := range st.Seqs {
		seq := &st.Seqs[l]
		if seq.TS, err = r.ReadFloat(); err != nil {
			return nil, err
		}
		if err := seq.decodeBits(r); err != nil {
			return nil, err
		}
		if l+1 < len(st.Seqs) && seq.Ones > st.Seqs[l+1].Len {
			return nil, fmt.Errorf("%w: level %d has %d ones, level %d has %d bits",
				ErrLevelOverflow, l, seq.Ones, l+1, st.Seqs[l+1].Len)
		}
	}
	st.indexDepth()
	return st, nil
}

// indexDepth derives the mark-depth index from the level bits with one
// walk over the top level's marks: an item's position at level l+1 is its
// rank, in id order, among the items marked at level l. Bits that no
// higher-level mark reaches are ignored, as the client algorithm ignores
// them.
func (s *Structure) indexDepth() {
	s.depth = make([]uint8, max(s.N, 0))
	if len(s.Seqs) == 0 {
		return
	}
	var next [64]int
	for w, word := range s.Seqs[0].Bits {
		for ; word != 0; word &= word - 1 {
			id := w<<6 + bits.TrailingZeros64(word)
			pos, d := id, 0
			for d < len(s.Seqs) && s.Seqs[d].get(pos) {
				pos = next[d]
				next[d]++
				d++
			}
			s.depth[id] = uint8(d)
		}
	}
}
