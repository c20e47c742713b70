package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// Minimal protocol-buffer encoders for building profiles by hand.

func pbVarint(tag int, v uint64) []byte {
	b := binary.AppendUvarint(nil, uint64(tag)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(tag int, parts ...[]byte) []byte {
	body := bytes.Join(parts, nil)
	b := binary.AppendUvarint(nil, uint64(tag)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

func pbPacked(tag int, vs ...uint64) []byte {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return pbBytes(tag, body)
}

// testProfile is a CPU profile of three functions: bitseq's IDsAtLevel
// inlined into core's applyBS (10 ms of self time), the runtime's
// allocator (20 ms) and the engine (30 ms). One sample uses unpacked
// repeated fields, as the format allows.
func testProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"mobicache/internal/bitseq.(*Structure).IDsAtLevel",
		"runtime.mallocgc",
		"mobicache/internal/engine.Run",
		"mobicache/internal/core.applyBS",
	}
	var raw []byte
	raw = append(raw, pbBytes(1, pbVarint(1, 1), pbVarint(2, 2))...)
	raw = append(raw, pbBytes(1, pbVarint(1, 3), pbVarint(2, 4))...)
	raw = append(raw, pbBytes(2, pbPacked(1, 1, 3), pbPacked(2, 1, 10e6))...)
	raw = append(raw, pbBytes(2, pbPacked(1, 2, 3), pbPacked(2, 2, 20e6))...)
	raw = append(raw, pbBytes(2, pbVarint(1, 3), pbVarint(2, 3), pbVarint(2, 30e6))...)
	raw = append(raw, pbBytes(4, pbVarint(1, 1), pbVarint(3, 0x1000),
		pbBytes(4, pbVarint(1, 1), pbVarint(2, 10)),
		pbBytes(4, pbVarint(1, 4), pbVarint(2, 20)))...)
	raw = append(raw, pbBytes(4, pbVarint(1, 2), pbBytes(4, pbVarint(1, 2)))...)
	raw = append(raw, pbBytes(4, pbVarint(1, 3), pbBytes(4, pbVarint(1, 3)))...)
	for id, name := range []uint64{5, 6, 7, 8} {
		raw = append(raw, pbBytes(5, pbVarint(1, uint64(id+1)), pbVarint(2, name), pbVarint(4, 0))...)
	}
	for _, s := range strs {
		raw = append(raw, pbBytes(6, []byte(s))...)
	}
	raw = append(raw, pbVarint(9, 123456789)...) // time_nanos: skipped
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestSelfTimesAndFold(t *testing.T) {
	self, total, err := selfTimes(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if total != 60e6 {
		t.Errorf("total %d, want 60e6", total)
	}
	want := map[string]int64{
		"mobicache/internal/bitseq.(*Structure).IDsAtLevel": 10e6,
		"runtime.mallocgc":              20e6,
		"mobicache/internal/engine.Run": 30e6,
	}
	if len(self) != len(want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	for fn, v := range want {
		if self[fn] != v {
			t.Errorf("self[%s] = %d, want %d", fn, self[fn], v)
		}
	}
	modules := map[string]int64{}
	foldModules(self, modules)
	foldModules(self, modules)
	if modules["bitseq"] != 20e6 || modules["runtime"] != 40e6 || modules["core"] != 0 {
		t.Errorf("modules %v", modules)
	}
}

func TestSelfTimesRejectsDamage(t *testing.T) {
	if _, _, err := selfTimes([]byte("not gzip")); err == nil {
		t.Error("non-gzip input accepted")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(pbBytes(2, pbPacked(1, 1))[:3]); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := selfTimes(gz.Bytes()); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"mobicache/internal/bitseq.(*Structure).IDsAtLevel":             "bitseq",
		"mobicache/internal/core.applyTSEntries":                        "core",
		"mobicache/internal/population.(*BitmapCache).TouchAll":         "population",
		"mobicache/internal/sim.(*calendar[go.shape.struct {}]).push":   "sim",
		"mobicache/internal/engine.Run.func1":                           "engine",
		"runtime.mallocgc":                                              "runtime",
		"runtime/internal/atomic.Load":                                  "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                  "runtime",
		"slices.SortFunc[go.shape.[]mobicache/internal/db.UpdateEntry]": "",
		"sort.Slice":       "",
		"main.main":        "",
		"[unknown]":        "",
		"syscall.Syscall6": "",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
