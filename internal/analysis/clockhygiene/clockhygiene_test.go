package clockhygiene_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/clockhygiene"
)

func TestClockHygiene(t *testing.T) {
	analysistest.Run(t, clockhygiene.Analyzer, "client", "server", "sim", "util", "replica", "meta")
}
