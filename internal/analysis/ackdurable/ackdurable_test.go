package ackdurable_test

import (
	"testing"

	"repro/internal/analysis/ackdurable"
	"repro/internal/analysis/analysistest"
)

func TestAckDurable(t *testing.T) {
	analysistest.Run(t, ackdurable.Analyzer, "msg", "blockstore", "disk", "meta", "server")
}
