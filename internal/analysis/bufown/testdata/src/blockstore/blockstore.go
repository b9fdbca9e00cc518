// Package blockstore is the bufown fixture for the media's gather
// buffer: blocks that do not lie end to end in the caller's memory are
// gathered into a pooled buffer, which a deferred Put returns.
package blockstore

import (
	"repro/internal/analysis/bufown/testdata/src/bufpool"
)

const blockSize = 4096

func okGather(blocks [][]byte, write func([]byte) error) error {
	data := bufpool.Get(len(blocks) * blockSize)
	defer bufpool.Put(data)
	for i, b := range blocks {
		copy(data[i*blockSize:], b)
	}
	return write(data)
}

func gatherPutOnError(blocks [][]byte, write func([]byte) error) error {
	data := bufpool.Get(len(blocks) * blockSize)
	defer bufpool.Put(data)
	for i, b := range blocks {
		copy(data[i*blockSize:], b)
	}
	if err := write(data); err != nil {
		bufpool.Put(data) // want `buffer may be returned to the pool twice`
		return err
	}
	return nil
}
