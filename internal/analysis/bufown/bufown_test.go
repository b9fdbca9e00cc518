package bufown_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/bufown"
)

func TestBufown(t *testing.T) {
	analysistest.Run(t, bufown.Analyzer,
		"blockstore", "bufpool", "msg", "wire", "rpcnet")
}
