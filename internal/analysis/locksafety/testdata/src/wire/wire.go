// Package wire is a locksafety fixture standing in for internal/wire:
// Codec is a concrete type there, and its blocking methods are matched
// by receiver type name, pointer receiver or not.
package wire

type Codec struct{}

type Frame struct{}

func (c *Codec) Send(env *int) error             { return nil }
func (c *Codec) Recv() (*int, error)             { return nil, nil }
func (c *Codec) Serve(deliver func(*int)) error  { return nil }
func (c *Codec) SendHello(from int) error        { return nil }
func (c *Codec) TryWrite(f *Frame) (bool, error) { return false, nil }
func (c *Codec) WriteFrames(fs []Frame) error    { return nil }
func (c *Codec) Close() error                    { return nil }
