package statsmerge_test

import (
	"testing"

	"trajmotif/tools/internal/analysis/analysistest"
	"trajmotif/tools/internal/analysis/statsmerge"
)

func TestStatsmerge(t *testing.T) {
	analysistest.Run(t, statsmerge.Analyzer, "testdata", "core")
}
