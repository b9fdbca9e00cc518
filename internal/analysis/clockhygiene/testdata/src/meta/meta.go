// Package meta is a clockhygiene fixture standing in for internal/meta:
// the metadata store and its journal, whose replay must equal the live
// store, so no record may carry a reading of the ambient clock.
package meta

import "time"

type Record struct {
	Seq uint64
	At  time.Time
}

func stamp(seq uint64) Record {
	return Record{Seq: seq, At: time.Now()} // want `time.Now bypasses the injected clock`
}

func stampAt(seq uint64, at time.Time) Record {
	return Record{Seq: seq, At: at}
}
