package traceexhaustive_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/traceexhaustive"
)

func TestTraceExhaustive(t *testing.T) {
	analysistest.Run(t, traceexhaustive.Analyzer, "trace", "server", "disk", "core")
}
