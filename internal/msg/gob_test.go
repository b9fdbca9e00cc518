package msg

import "encoding/gob"

// RegisterGob registers every concrete message and result type with
// encoding/gob. No connection speaks gob any more; it stays here as the
// reference the binary layouts are compared against
// (TestBinaryGobEquivalence): a second, reflection-driven reading of the
// same structs that shares no code with the layout walks. Safe to call
// more than once (gob.Register is idempotent for identical name/type
// pairs).
func RegisterGob() {
	for _, m := range AllMessages() {
		gob.Register(m)
	}
	for _, r := range AllResults() {
		gob.Register(r)
	}
}
