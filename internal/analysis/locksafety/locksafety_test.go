package locksafety_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/locksafety"
)

func TestLockSafety(t *testing.T) {
	analysistest.Run(t, locksafety.Analyzer, "rpcnet", "stats", "worker", "faultnet", "trace")
}
