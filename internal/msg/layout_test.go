package msg

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestWalksAgree: for every sample, the bytes the sizing walk counts are
// the bytes the encoding walk writes and the bytes the decoding walk
// consumes. The three are one layout run in three modes; this is the
// test that would notice a primitive whose modes disagree.
func TestWalksAgree(t *testing.T) {
	for name, env := range goldenSamples() {
		size := coder{mode: sizing}
		size.envelope(env)
		if size.bad {
			t.Errorf("%s: sizing walk failed", name)
			continue
		}
		enc := coder{mode: encoding, b: make([]byte, size.off)}
		enc.envelope(env)
		if enc.bad || enc.off != size.off {
			t.Errorf("%s: sized %d bytes, encoded %d (bad=%v)", name, size.off, enc.off, enc.bad)
		}
		frame := append(enc.b, size.data...)
		dec := coder{mode: decoding, b: frame}
		var out Envelope
		dec.envelope(&out)
		if dec.bad || dec.off != len(frame) {
			t.Errorf("%s: frame is %d bytes, decode consumed %d (bad=%v)", name, len(frame), dec.off, dec.bad)
		}
	}
}

// TestRegistryMatchesLayouts: every type with a layout method has a
// registry row and every identifier has a row — so a type added on one
// side only fails here, not on a connection. (A row without a layout
// does not compile.)
func TestRegistryMatchesLayouts(t *testing.T) {
	for id := int(btInvalid) + 1; id < len(messageTypes); id++ {
		if messageTypes[id] == nil {
			t.Errorf("message identifier %d has no registry row", id)
		}
	}
	for id := int(brNil) + 1; id < len(resultTypes); id++ {
		if resultTypes[id] == nil {
			t.Errorf("result identifier %d has no registry row", id)
		}
	}
	if messageTypes[btInvalid] != nil || resultTypes[brNil] != nil {
		t.Error("identifier 0 is reserved in both tables")
	}

	registered := map[string]bool{}
	for _, m := range AllMessages() {
		registered[reflect.TypeOf(m).Elem().Name()] = true
	}
	for _, r := range AllResults() {
		registered[reflect.TypeOf(r).Name()] = true
	}
	if n := len(AllMessages()) + len(AllResults()); len(registered) != n {
		t.Errorf("%d registered types but %d rows: a type sits in two rows", len(registered), n)
	}
	// The switches encode reads the tables with must read them back.
	for id, mk := range messageTypes {
		if mk != nil && messageID(mk()) != uint8(id) {
			t.Errorf("messageID(%T) = %d, its row is %d", mk(), messageID(mk()), id)
		}
	}
	for id, r := range resultTypes {
		if r != nil && resultID(r) != uint8(id) {
			t.Errorf("resultID(%T) = %d, its row is %d", r, resultID(r), id)
		}
	}

	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	laidOut := map[string]bool{}
	for _, f := range pkgs["msg"].Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "layout" {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			laidOut[recv.(*ast.Ident).Name] = true
		}
	}
	var diff []string
	for name := range laidOut {
		if !registered[name] {
			diff = append(diff, name+" has a layout but no registry row")
		}
	}
	for name := range registered {
		if !laidOut[name] {
			diff = append(diff, name+" is registered but no layout method was found in the source")
		}
	}
	sort.Strings(diff)
	for _, d := range diff {
		t.Error(d)
	}
}

type foreignMessage struct{}

func (foreignMessage) Kind() Kind { return KindControlReq }

// TestNoLayoutIsAnError: a Message from outside the registry, and a
// destination BinarySize did not size, are ErrNoBinaryLayout — not a
// panic and not a frame. (A Result from outside the package does not
// compile: Result is sealed by its layout.)
func TestNoLayoutIsAnError(t *testing.T) {
	for _, env := range []*Envelope{
		{From: 1, To: 2},
		{From: 1, To: 2, Payload: foreignMessage{}},
	} {
		if _, _, err := BinarySize(env); !errors.Is(err, ErrNoBinaryLayout) {
			t.Errorf("BinarySize(%T): err = %v, want ErrNoBinaryLayout", env.Payload, err)
		}
		if err := EncodeBinary(make([]byte, 64), env); !errors.Is(err, ErrNoBinaryLayout) {
			t.Errorf("EncodeBinary(%T): err = %v, want ErrNoBinaryLayout", env.Payload, err)
		}
	}
	env := &Envelope{From: 1, To: 2, Payload: &GetAttr{Ino: 7}}
	meta, _, err := BinarySize(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeBinary(make([]byte, meta+1), env); !errors.Is(err, ErrNoBinaryLayout) {
		t.Errorf("oversized destination: err = %v, want ErrNoBinaryLayout", err)
	}
}

// TestEncodeOnlyReads: the layout walk takes pointers to a message's
// fields in every mode, but a retry can be encoding the same message on
// another goroutine, so only decoding may store through them. The race
// detector is the assertion.
func TestEncodeOnlyReads(t *testing.T) {
	for _, env := range goldenSamples() {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				meta, _, err := BinarySize(env)
				if err != nil {
					t.Error(err)
					return
				}
				if err := EncodeBinary(make([]byte, meta), env); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestSANReplyReq: the six disk replies, and nothing else, route by
// request ID, and each hands back its own errno.
func TestSANReplyReq(t *testing.T) {
	replies := map[string]bool{"DiskReadRes": true, "DiskWriteRes": true, "DiskReadVRes": true,
		"DiskWriteVRes": true, "FenceRes": true, "DLockRes": true}
	for name, env := range goldenSamples() {
		req, errno, ok := SANReplyReq(env.Payload)
		if ok != replies[name] {
			t.Errorf("SANReplyReq(%s) ok = %v", name, ok)
		}
		if !ok {
			continue
		}
		v := reflect.ValueOf(env.Payload).Elem()
		if req != ReqID(v.FieldByName("Req").Uint()) {
			t.Errorf("SANReplyReq(%s) = %d, not the reply's Req", name, req)
		}
		if errno != Errno(v.FieldByName("Err").Uint()) {
			t.Errorf("SANReplyReq(%s) errno = %v, not the reply's Err", name, errno)
		}
	}
}
