package msg

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden from this build's encoder")

const goldenPath = "testdata/frames.golden"

// deltaAllocRes is the one hand-written golden sample: a delta
// allocation reply with a First that is neither zero nor the block
// count, and two runs of different lengths. Two builds that disagree
// about First would each round-trip their own frames and still splice
// each other's at the wrong place.
func deltaAllocRes() *Envelope {
	return &Envelope{From: 1, To: 10, Payload: &Reply{Client: 10, Req: 7, Status: ACK, Err: OK, Body: AllocRes{
		Attr:  Attr{Ino: 2, Size: 8192, Version: 5, Nlink: 1},
		First: 3, Map: Extents{{Disk: 1000, Start: 9, Len: 64}, {Disk: 1001, Start: 9, Len: 2}}}}}
}

// bareLockRes is a LockRes without a map: every reply to a LockRelease or
// a LockDowngraded, and a grant whose acquire did not ask for one. The
// reflect-filled Reply/LockRes sample is the other shape (HaveMap set).
func bareLockRes() *Envelope {
	return &Envelope{From: 1, To: 10, Payload: &Reply{Client: 10, Req: 8, Status: ACK, Err: OK,
		Body: LockRes{Mode: LockShared}}}
}

// goldenSamples is one envelope per wire type, keyed by type name: every
// AllMessages entry and a Reply around every AllResults entry, each
// reflect-filled from its own counter so that a sample's bytes do not
// depend on its place in the registry.
func goldenSamples() map[string]*Envelope {
	samples := map[string]*Envelope{
		"Reply/AllocRes.delta": deltaAllocRes(),
		"Reply/LockRes.bare":   bareLockRes(),
	}
	for _, m := range AllMessages() {
		ctr := 0
		fill(reflect.ValueOf(m).Elem(), &ctr)
		samples[reflect.TypeOf(m).Elem().Name()] = &Envelope{From: 3, To: 9, Payload: m}
	}
	for _, res := range AllResults() {
		ctr := 0
		rv := reflect.New(reflect.TypeOf(res)).Elem()
		fill(rv, &ctr)
		samples["Reply/"+rv.Type().Name()] = &Envelope{From: 3, To: 9,
			Payload: &Reply{Client: 3, Req: 77, Status: ACK, Err: OK, Body: rv.Interface().(Result)}}
	}
	return samples
}

// countedBytes is what a byte counter adds for env: the whole frame
// body the codec writes, metadata and tail.
func countedBytes(tb testing.TB, env *Envelope) int {
	tb.Helper()
	meta, tail, err := BinarySize(env)
	if err != nil {
		tb.Fatalf("BinarySize(%T): %v", env.Payload, err)
	}
	return meta + len(tail)
}

// readGolden parses frames.golden: "name hex" per line, '#' comments.
func readGolden(tb testing.TB) map[string][]byte {
	tb.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		tb.Fatalf("%v (generate it with: go test ./internal/msg -run TestGoldenFrames -update)", err)
	}
	defer f.Close()
	frames := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexFrame, ok := strings.Cut(line, " ")
		if !ok {
			tb.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		frame, err := hex.DecodeString(hexFrame)
		if err != nil {
			tb.Fatalf("%s: %s: %v", goldenPath, name, err)
		}
		frames[name] = frame
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return frames
}

// TestGoldenFrames pins the wire layout of every message and result
// type byte for byte against frames written by the encoder the layout
// walks replaced. A layout edit that moves a byte fails here; an
// intended format change regenerates the file with -update and shows up
// in review as a diff of hex.
func TestGoldenFrames(t *testing.T) {
	samples := goldenSamples()
	if *update {
		names := make([]string, 0, len(samples))
		for name := range samples {
			names = append(names, name)
		}
		sort.Strings(names)
		var out bytes.Buffer
		out.WriteString("# One frame body per wire type: name, then from|to|type|payload in hex.\n" +
			"# Regenerate: go test ./internal/msg -run TestGoldenFrames -update\n")
		for _, name := range names {
			fmt.Fprintf(&out, "%s %x\n", name, encodeFrame(t, samples[name]))
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := readGolden(t)
	for name, env := range samples {
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s has no golden frame: regenerate with -update", name)
			continue
		}
		if got := encodeFrame(t, env); !bytes.Equal(got, want) {
			t.Errorf("%s frame moved\n got %x\nwant %x", name, got, want)
		}
		dec, err := DecodeBinary(want)
		if err != nil {
			t.Errorf("%s golden frame does not decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(normalized(dec), normalized(env)) {
			t.Errorf("%s golden frame decodes to %+v", name, dec.Payload)
		}
	}
	for name := range golden {
		if samples[name] == nil {
			t.Errorf("golden frame %s matches no registered type", name)
		}
	}
}

// TestBinaryAllocResGolden spells the one hand-written golden frame out
// field by field: header, reply fields, result tag, attr, the index the
// added blocks start at, then only those blocks, as runs.
func TestBinaryAllocResGolden(t *testing.T) {
	want, _ := hex.DecodeString("" +
		"00000001" + "0000000a" + "17" + // from, to, Reply
		"0000000a" + "0000000000000007" + "01" + "00" + // client, req, ACK, OK
		"07" + // AllocRes
		"0000000000000002" + "00" + "0000000000002000" + "0000000000000005" + "00000001" + // attr
		"00000003" + "00000002" + // First, runs
		"000003e8" + "0000000000000009" + "00000040" + "000003e9" + "0000000000000009" + "00000002")
	if got := readGolden(t)["Reply/AllocRes.delta"]; !bytes.Equal(got, want) {
		t.Errorf("delta AllocRes frame\n got %x\nwant %x", got, want)
	}
	if n := countedBytes(t, deltaAllocRes()); n != len(want) {
		t.Errorf("counted size %d, want the %d bytes spelled out above", n, len(want))
	}
}

// truncatedLockRes is a grant that announces a map and ends there.
func truncatedLockRes(tb testing.TB) []byte {
	bare := readGolden(tb)["Reply/LockRes.bare"]
	if len(bare) == 0 {
		tb.Fatal("no golden frame for Reply/LockRes.bare")
	}
	cut := append([]byte(nil), bare...)
	cut[len(cut)-1] = 1 // HaveMap
	return cut
}

// TestLockResLayout spells both shapes of a LockRes out field by field.
// The map is on the wire only behind HaveMap: a bare result is two bytes,
// whatever else the struct holds, and a frame that sets the flag and stops
// is corrupt, not a grant with an empty map.
func TestLockResLayout(t *testing.T) {
	reply := "00000001" + "0000000a" + "17" + // from, to, Reply
		"0000000a" + "0000000000000008" + "01" + "00" + // client, req, ACK, OK
		"08" // LockRes
	bare, _ := hex.DecodeString(reply + "01" + "00") // shared, no map
	if got := readGolden(t)["Reply/LockRes.bare"]; !bytes.Equal(got, bare) {
		t.Errorf("bare LockRes frame\n got %x\nwant %x", got, bare)
	}
	withMap := &Envelope{From: 1, To: 10, Payload: &Reply{Client: 10, Req: 8, Status: ACK, Err: OK, Body: LockRes{
		Mode: LockShared, HaveMap: true,
		Attr: Attr{Ino: 2, Size: 8192, Version: 5, Nlink: 1},
		Map:  Extents{{Disk: 1000, Start: 9, Len: 16}}}}}
	want, _ := hex.DecodeString(reply + "01" + "01" + // shared, map follows
		"0000000000000002" + "00" + "0000000000002000" + "0000000000000005" + "00000001" + // attr
		"00000001" + "000003e8" + "0000000000000009" + "00000010") // one run of 16 blocks
	if got := encodeFrame(t, withMap); !bytes.Equal(got, want) {
		t.Errorf("LockRes with a map\n got %x\nwant %x", got, want)
	}
	if n := countedBytes(t, withMap); n != len(want) {
		t.Errorf("counted size %d, want the %d bytes spelled out above", n, len(want))
	}
	if n := countedBytes(t, bareLockRes()); n != len(bare) {
		t.Errorf("counted size of a bare LockRes %d, want %d", n, len(bare))
	}
	// What is not behind the flag does not travel.
	hidden := bareLockRes()
	hidden.Payload.(*Reply).Body = LockRes{Mode: LockShared, Attr: Attr{Ino: 2}, Map: Extents{{Disk: 1000, Start: 9, Len: 1}}}
	if got := encodeFrame(t, hidden); !bytes.Equal(got, bare) {
		t.Errorf("LockRes without HaveMap encodes its map: %x", got)
	}
	if _, err := DecodeBinary(truncatedLockRes(t)); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("a LockRes that announces a map and ends: err = %v, want ErrCorruptFrame", err)
	}
	if _, err := DecodeBinary(append(append([]byte(nil), bare...), want[len(bare):]...)); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("a bare LockRes followed by a map: err = %v, want ErrCorruptFrame", err)
	}
}
