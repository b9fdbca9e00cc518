// Package blockstore is a locksafety fixture standing in for
// internal/blockstore: the media interface and its file-backed
// implementation, whose reads, writes and fences all reach the device.
package blockstore

type BlockWrite struct{}

type Media interface {
	Read(block uint64) ([]byte, uint64, bool, error)
	ReadV(blocks []uint64, dst []byte, vers []uint64) []error
	Write(block uint64, data []byte, ver uint64) error
	WriteV(batch []BlockWrite) []error
	RaiseFence(f Fence) error
	Fences() *Fences
}

type Fence struct{ Authority, Target, Below int }

type Fences struct{}

type File struct{}

func (f *File) Read(block uint64) ([]byte, uint64, bool, error)          { return nil, 0, false, nil }
func (f *File) ReadInto(block uint64, dst []byte) (uint64, bool, error)  { return 0, false, nil }
func (f *File) ReadV(blocks []uint64, dst []byte, vers []uint64) []error { return nil }
func (f *File) RaiseFence(fc Fence) error                                { return nil }
func (f *File) Fences() *Fences                                          { return nil }
