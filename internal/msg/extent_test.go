package msg

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
)

func TestExtentsAppendMergesRuns(t *testing.T) {
	var m Extents
	m = m.Append(
		Extent{Disk: 1, Start: 10, Len: 4},
		Extent{Disk: 1, Start: 14, Len: 2}, // continues the run
		Extent{Disk: 2, Start: 16, Len: 1}, // another disk
		Extent{Disk: 2, Start: 18, Len: 1}, // a gap
		Extent{Disk: 2, Start: 19, Len: 0}, // empty: nothing
	)
	want := Extents{{1, 10, 6}, {2, 16, 1}, {2, 18, 1}}
	if !slices.Equal(m, want) {
		t.Fatalf("Append = %v, want %v", m, want)
	}
	// A run that would outgrow a uint32 count starts a new one.
	big := Extents{{3, 0, math.MaxUint32 - 1}}.Append(Extent{3, math.MaxUint32 - 1, 2})
	if len(big) != 2 || big.Len() != math.MaxUint32+1 {
		t.Fatalf("a run past MaxUint32 blocks merged: %v", big)
	}
}

func TestExtentsBlockAccess(t *testing.T) {
	m := Extents{{1, 10, 3}, {2, 5, 2}}
	var refs []BlockRef
	for i := 0; i < m.Len(); i++ {
		refs = append(refs, m.At(uint64(i)))
	}
	want := []BlockRef{{1, 10}, {1, 11}, {1, 12}, {2, 5}, {2, 6}}
	if m.Len() != 5 || !slices.Equal(refs, want) || !slices.Equal(m.AppendRefs(nil), want) {
		t.Fatalf("Len %d, At %v, AppendRefs %v; want 5 blocks %v", m.Len(), refs, m.AppendRefs(nil), want)
	}
	for first, tail := range []Extents{
		{{1, 10, 3}, {2, 5, 2}}, {{1, 11, 2}, {2, 5, 2}}, {{1, 12, 1}, {2, 5, 2}},
		{{2, 5, 2}}, {{2, 6, 1}}, nil,
	} {
		if got := m.Tail(first); !reflect.DeepEqual(got, tail) {
			t.Errorf("Tail(%d) = %v, want %v", first, got, tail)
		}
	}
	if got := m.Tail(1); &got[0] == &m[0] {
		t.Error("Tail shares the map's array")
	}
	for n, head := range []Extents{{}, {{1, 10, 1}}, {{1, 10, 2}}, {{1, 10, 3}}, {{1, 10, 3}, {2, 5, 1}}, m} {
		if got := slices.Clone(m).Head(n); !slices.Equal(got, head) {
			t.Errorf("Head(%d) = %v, want %v", n, got, head)
		}
	}
}

// badMaps are the three block maps a decoder refuses, by what is wrong
// with them.
var badMaps = []struct {
	name string
	m    Extents
}{
	{"empty run", Extents{{1000, 9, 4}, {1001, 9, 0}}},
	{"run past the last block", Extents{{1000, math.MaxUint64 - 2, 4}}},
	{"more blocks than a uint32 counts", Extents{{1000, 0, math.MaxUint32}, {1001, 0, 1}}},
}

// runCarriers wraps m in each message that carries a block map.
func runCarriers(m Extents) map[string]*Envelope {
	reply := func(r Result) *Envelope {
		return &Envelope{From: 1, To: 10, Payload: &Reply{Client: 10, Req: 7, Status: ACK, Err: OK, Body: r}}
	}
	attr := Attr{Ino: 2, Size: 8192, Version: 5, Nlink: 1}
	return map[string]*Envelope{
		"BlocksRes":    reply(BlocksRes{Attr: attr, Map: m}),
		"AllocRes":     reply(AllocRes{Attr: attr, First: 3, Map: m}),
		"LockRes":      reply(LockRes{Mode: LockShared, HaveMap: true, Attr: attr, Map: m}),
		"ShardMigrate": {From: 1, To: 2, Payload: &ShardMigrate{Src: 1, HID: 4, Path: "/f", Attr: attr, Map: m}},
	}
}

// TestDecodeRefusesBadRuns: a map with an empty run, a run that passes
// the last block number or more blocks in all than a uint32 counts is a
// corrupt frame in every message that carries one; the same maps at
// their limits decode.
func TestDecodeRefusesBadRuns(t *testing.T) {
	for _, bad := range badMaps {
		for kind, env := range runCarriers(bad.m) {
			if _, err := DecodeBinary(encodeFrame(t, env)); !errors.Is(err, ErrCorruptFrame) {
				t.Errorf("%s with %s: err = %v, want ErrCorruptFrame", kind, bad.name, err)
			}
		}
	}
	edge := Extents{{1000, math.MaxUint64 - 4, 4}, {1001, 0, math.MaxUint32 - 4}}
	for kind, env := range runCarriers(edge) {
		dec, err := DecodeBinary(encodeFrame(t, env))
		if err != nil || !reflect.DeepEqual(normalized(dec), normalized(env)) {
			t.Errorf("%s with a map at the limits: %v, decoded %+v", kind, err, dec)
		}
	}
}
