package msg

// The binary wire layout (DESIGN.md §12). Every frame body is
//
//	from int32 | to int32 | type uint8 | payload
//
// with all integers big-endian and every payload a fixed-layout field
// sequence: fixed-width scalars, strings and byte slices length-prefixed
// with uint32, struct vectors count-prefixed with uint32. The one
// irregularity is deliberate: the bulk Data field of the four
// page-carrying types (DiskWrite, DiskWriteV, DiskReadRes, DiskReadVRes)
// and of the two function-ship types (FuncWrite, FuncReadRes) is encoded
// LAST, so the sender can transmit it as a scatter-gather tail directly
// from the caller's page buffer — its length prefix sits in the metadata
// section, the bytes themselves never get copied into the frame.
//
// On decode the four SAN page types alias the frame (zero-copy; the
// borrow cell each of them carries governs the buffer's lifetime), while
// FuncWrite.Data and FuncReadRes.Data are copied out — their consumers
// hand the data to retry loops and user callbacks that outlive the
// handler, so an alias would dangle. Which types alias is not a list:
// it is derived from the layouts (aliasing, below), and every other
// type's decoded message shares no byte with its frame, so a receiver
// may decode it where it landed and reuse those bytes at once.
//
// A type describes its payload once, in its layout method: a walk over
// its fields in wire order, one coder primitive per field. The coder's
// mode decides what a primitive does — count the field's bytes, write
// them, or bounds-check and read them — so BinarySize, EncodeBinary and
// DecodeBinary are three runs of the same walk and cannot disagree; the
// byte counters count with the sizing run, so what they add is what the
// live transport writes. The registry (registry.go) maps wire
// identifiers to types; nothing in this file names a message.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

var (
	// ErrNoBinaryLayout reports a payload type the wire format has no
	// layout for — a Message implemented outside the registry — or a
	// destination buffer BinarySize did not size.
	ErrNoBinaryLayout = errors.New("msg: no binary layout for payload type")
	// ErrCorruptFrame reports a frame body that does not parse: truncated
	// fields, counts larger than the remaining bytes, trailing garbage, or
	// an unknown type identifier.
	ErrCorruptFrame = errors.New("msg: corrupt frame")
)

type coderMode uint8

const (
	sizing coderMode = iota
	encoding
	decoding
)

// coder is one run of a layout walk. Layouts are reached through an
// interface, and a pointer passed through an interface call escapes, so
// a coder declared in BinarySize would be a heap allocation per message
// on a path whose budget is none: a coder lives in a Coder its caller
// keeps, or in one borrowed from a pool per call.
type coder struct {
	mode coderMode
	bad  bool    // the walk failed; later decode primitives do nothing
	b    []byte  // decoding: the frame; encoding: the destination BinarySize sized
	off  int     // bytes counted, written or consumed so far
	data []byte  // sizing: the bulk Data field found by tail or tailCopy
	out  *Result // decoding a Reply body: where keep stores the result
	// aliases: sizing reached tail, whose field a decode leaves aliasing
	// the frame.
	aliases bool
}

// short reports (and records) that a decode cannot consume n more bytes.
// Every read goes through it, so a corrupt frame fails and never panics.
func (c *coder) short(n int) bool {
	if c.bad || n < 0 || len(c.b)-c.off < n {
		c.bad = true
		return true
	}
	return false
}

// The scalar primitives. An undersized encode destination panics on the
// slice index, which the round-trip tests would catch as a sizing and
// an encoding walk that disagree.

func (c *coder) u8(v *uint8) {
	switch c.mode {
	case encoding:
		c.b[c.off] = *v
	case decoding:
		if c.short(1) {
			return
		}
		*v = c.b[c.off]
	}
	c.off++
}

func (c *coder) u32(v *uint32) {
	switch c.mode {
	case encoding:
		binary.BigEndian.PutUint32(c.b[c.off:], *v)
	case decoding:
		if c.short(4) {
			return
		}
		*v = binary.BigEndian.Uint32(c.b[c.off:])
	}
	c.off += 4
}

func (c *coder) u64(v *uint64) {
	switch c.mode {
	case encoding:
		binary.BigEndian.PutUint64(c.b[c.off:], *v)
	case decoding:
		if c.short(8) {
			return
		}
		*v = binary.BigEndian.Uint64(c.b[c.off:])
	}
	c.off += 8
}

// b1, i32 and i64 go through a temporary and store only when decoding:
// an encode must never write to a message, because a retry can be
// encoding the same one on another goroutine.

func (c *coder) b1(v *bool) {
	var x uint8
	if *v {
		x = 1
	}
	c.u8(&x)
	if c.mode == decoding {
		*v = x != 0
	}
}

func (c *coder) i32(v *int32) {
	x := uint32(*v)
	c.u32(&x)
	if c.mode == decoding {
		*v = int32(x)
	}
}

func (c *coder) i64(v *int64) {
	x := uint64(*v)
	c.u64(&x)
	if c.mode == decoding {
		*v = int64(x)
	}
}

func (c *coder) node(v *NodeID) { c.i32((*int32)(v)) }

func (c *coder) req(v *ReqID) { c.u64((*uint64)(v)) }

func (c *coder) ino(v *ObjectID) { c.u64((*uint64)(v)) }

func (c *coder) errno(v *Errno) { c.u8((*uint8)(v)) }

func (c *coder) lock(v *LockMode) { c.u8((*uint8)(v)) }

func (c *coder) str(v *string) {
	n := uint32(len(*v))
	c.u32(&n)
	switch c.mode {
	case encoding:
		copy(c.b[c.off:], *v)
	case decoding:
		if c.short(int(n)) {
			return
		}
		if n > 0 {
			*v = string(c.b[c.off : c.off+int(n)])
		}
	}
	c.off += int(n)
}

// tail walks a bulk Data field, which every type that has one lays out
// LAST: its length closes the metadata section and the bytes follow it.
// Sizing reports them as the frame's tail and encoding never touches
// them — the sender transmits them from the caller's buffer. Decoding
// ALIASES the frame: the field is valid only while the envelope's borrow
// is held, so a type whose layout reaches tail carries a borrow cell.
// An empty field decodes as nil.
func (c *coder) tail(v *[]byte) {
	c.bulk(v)
	if c.mode == sizing {
		c.aliases = true
	}
}

// tailCopy is tail for fields whose consumers outlive the receive
// handler: decoding copies the bytes out of the frame.
func (c *coder) tailCopy(v *[]byte) {
	c.bulk(v)
	if c.mode == decoding && *v != nil {
		*v = append([]byte(nil), *v...)
	}
}

// bulk is what tail and tailCopy share: the length, then the bytes,
// which a decode leaves aliasing the frame.
func (c *coder) bulk(v *[]byte) {
	n := uint32(len(*v))
	c.u32(&n)
	switch c.mode {
	case sizing:
		c.data = *v
	case decoding:
		if n == 0 || c.short(int(n)) {
			return
		}
		*v = c.b[c.off : c.off+int(n) : c.off+int(n)]
		c.off += int(n)
	}
}

// vec walks a vector's count prefix and returns the elements for the
// layout to range over. Decoding validates the count against the bytes
// actually remaining (elem is an element's minimum encoded size), so a
// corrupt count can never drive an oversized allocation, and allocates
// the vector; a zero count decodes as nil.
func vec[T any](c *coder, s *[]T, elem int) []T {
	n := uint32(len(*s))
	c.u32(&n)
	if c.mode == decoding {
		if c.bad || uint64(n)*uint64(elem) > uint64(len(c.b)-c.off) {
			c.bad = true
			return nil
		}
		if n > 0 {
			*s = make([]T, n)
		}
	}
	return *s
}

func (c *coder) hdr(h *ReqHeader) {
	c.node(&h.Client)
	c.req(&h.Req)
	c.u32((*uint32)(&h.Epoch))
}

// stamp codes a SAN request's initiator and the stamp it carries
// (san.go).
func (c *coder) stamp(client, authority *NodeID, epoch *Epoch) {
	c.node(client)
	c.node(authority)
	c.u32((*uint32)(epoch))
}

func (c *coder) attr(a *Attr) {
	c.ino(&a.Ino)
	c.b1(&a.IsDir)
	c.u64(&a.Size)
	c.u64(&a.Version)
	c.u32(&a.Nlink)
}

// extents codes a block map as its runs, disk i32 | start u64 | len u32
// each. A decode refuses an empty run, a run that passes the last block
// number, and a map of more blocks than a uint32 counts — a file's block
// index travels as one (AllocRes.First, Truncate.Blocks).
func (c *coder) extents(m *Extents) {
	runs := vec(c, (*[]Extent)(m), 16)
	var total uint64
	for i := range runs {
		e := &runs[i]
		c.node(&e.Disk)
		c.u64(&e.Start)
		c.u32(&e.Len)
		if c.mode != decoding {
			continue
		}
		if total += uint64(e.Len); e.Len == 0 || e.End() < e.Start || total > math.MaxUint32 {
			c.bad = true
			return
		}
	}
}

func (c *coder) inos(s *[]ObjectID) {
	inos := vec(c, s, 8)
	for i := range inos {
		c.ino(&inos[i])
	}
}

func (c *coder) errnos(s *[]Errno) {
	errs := vec(c, s, 1)
	for i := range errs {
		c.errno(&errs[i])
	}
}

// result walks a Reply body: a result-type byte (brNil for no body),
// then the result's own layout.
func (c *coder) result(body *Result) {
	var id uint8
	r := *body
	if r != nil {
		if id = resultID(r); id == brNil {
			c.bad = true // encoding a Result the registry does not know
			return
		}
	}
	c.u8(&id)
	if c.mode != decoding {
		if r != nil {
			r.layout(c)
		}
		return
	}
	if id == brNil {
		return
	}
	if c.bad || int(id) >= len(resultTypes) || resultTypes[id] == nil {
		c.bad = true
		return
	}
	c.out = body
	resultTypes[id].layout(c)
}

// keep ends every result's layout. Results travel as values inside
// Reply.Body, so a layout walks its receiver's own copy; when decoding,
// that copy IS the result, and keep stores it in the Reply — boxing it,
// the one allocation a decoded result costs.
func keep[R Result](c *coder, r R) {
	if c.mode == decoding {
		*c.out = r
	}
}

// envelope walks a whole frame body: the header, whose type byte names
// the payload, then the payload's layout. Decoding constructs the
// payload the type byte asks for.
func (c *coder) envelope(env *Envelope) {
	var id uint8
	m, _ := env.Payload.(wireMessage)
	if c.mode != decoding {
		if id = messageID(env.Payload); m == nil || id == btInvalid {
			c.bad = true // encoding a Message the registry does not know
			return
		}
	}
	c.node(&env.From)
	c.node(&env.To)
	c.u8(&id)
	if c.mode == decoding {
		if c.bad || int(id) >= len(messageTypes) || messageTypes[id] == nil {
			c.bad = true
			return
		}
		m = messageTypes[id]()
		env.Payload = m
	}
	m.layout(c)
}

// Coder runs the layout walks — size, encode, decode — on a coder of its
// own. A caller that codes many frames in a row keeps one and pays
// neither an allocation nor a pool round trip per walk: the live codec
// keeps one for its read loop, the live transport one per peer for its
// sends, used under that peer's lock, and each byte counter one to size
// what it counts. BinarySize, EncodeBinary and
// DecodeBinary borrow one from a pool per call. A Coder is not safe for
// concurrent use; its zero value is ready.
type Coder struct{ c coder }

// walk runs one envelope walk: n is the bytes counted, written or
// consumed, and tail the bulk Data field a sizing walk found.
func (k *Coder) walk(mode coderMode, b []byte, env *Envelope) (n int, tail []byte, ok bool) {
	c := &k.c
	*c = coder{mode: mode, b: b}
	c.envelope(env)
	n, tail, ok = c.off, c.data, !c.bad
	*c = coder{} // a kept coder must not pin a frame or a message
	return n, tail, ok
}

// Size returns the metadata length of env's frame body and the
// zero-copy data tail. The full body is the metadata section followed
// immediately by the tail; Encode writes exactly meta bytes and the
// caller transmits (or appends) the tail itself.
func (k *Coder) Size(env *Envelope) (meta int, tail []byte, err error) {
	meta, tail, ok := k.walk(sizing, nil, env)
	if !ok {
		return 0, nil, ErrNoBinaryLayout
	}
	return meta, tail, nil
}

// Encode writes env's metadata section — everything except the
// zero-copy tail reported by Size — into dst, which must be exactly
// meta bytes long. Steady-state encoding performs no allocation: page
// data stays in the caller's buffers and travels as the frame tail.
func (k *Coder) Encode(dst []byte, env *Envelope) error {
	if n, _, ok := k.walk(encoding, dst, env); !ok || n != len(dst) {
		return ErrNoBinaryLayout
	}
	return nil
}

// DecodeInto parses one frame body produced by Size+Encode (metadata
// section immediately followed by the tail) into env, which it
// overwrites, allocating the message and nothing else (a Reply's result
// is boxed in it as a second). When Aliases reports the body's type, the
// message's Data aliases body — the caller owns body's lifetime and
// hands it to the message with Envelope.Borrowed; every other message
// shares no byte with body. A frame that does not parse returns
// ErrCorruptFrame and leaves env zero; corrupt input never panics.
func (k *Coder) DecodeInto(body []byte, env *Envelope) error {
	*env = Envelope{}
	if n, _, ok := k.walk(decoding, body, env); !ok || n != len(body) {
		*env = Envelope{}
		return ErrCorruptFrame
	}
	return nil
}

// Decode is DecodeInto into an envelope of its own.
func (k *Coder) Decode(body []byte) (*Envelope, error) {
	env := new(Envelope)
	if err := k.DecodeInto(body, env); err != nil {
		return nil, err
	}
	return env, nil
}

// HeaderSize is the length of a frame body's header: from, to and the
// type byte that names the payload.
const HeaderSize = 9

// Aliases reports whether a frame body that begins with head — at least
// HeaderSize bytes — decodes to a message whose Data aliases the body:
// the four SAN page types. An unknown type aliases nothing (its decode
// fails).
func Aliases(head []byte) bool { return aliasing[head[HeaderSize-1]] }

// aliasing holds, per wire identifier, whether the type's layout reaches
// tail: derived once from the layouts, by a sizing walk of each zero
// message, so a bulk field added to a type cannot slip past it. Such a
// type must carry a borrow cell (TestAliasingIsDerivedFromLayouts), and
// a result must not alias at all — a Reply's cell would have to live in
// the box keep makes.
var aliasing = func() (t [256]bool) {
	for id, mk := range messageTypes {
		if mk != nil {
			t[id] = reachesTail(mk().layout)
		}
	}
	for _, r := range resultTypes {
		if r != nil && reachesTail(r.layout) {
			panic(fmt.Sprintf("msg: result %T aliases its frame", r))
		}
	}
	return t
}()

// reachesTail runs a sizing walk of one layout and reports whether it
// reached tail.
func reachesTail(layout func(*coder)) bool {
	var c coder
	layout(&c)
	return c.aliases
}

var coders = sync.Pool{New: func() any { return new(Coder) }}

// BinarySize is Coder.Size on a pooled Coder.
func BinarySize(env *Envelope) (meta int, tail []byte, err error) {
	k := coders.Get().(*Coder)
	meta, tail, err = k.Size(env)
	coders.Put(k)
	return meta, tail, err
}

// EncodeBinary is Coder.Encode on a pooled Coder.
func EncodeBinary(dst []byte, env *Envelope) error {
	k := coders.Get().(*Coder)
	err := k.Encode(dst, env)
	coders.Put(k)
	return err
}

// DecodeBinary is Coder.Decode on a pooled Coder.
func DecodeBinary(body []byte) (*Envelope, error) {
	k := coders.Get().(*Coder)
	env, err := k.Decode(body)
	coders.Put(k)
	return env, err
}
