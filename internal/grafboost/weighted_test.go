package grafboost

import (
	"testing"

	"multilogvc/internal/apps"
)

func TestGraFBoostWCC(t *testing.T) {
	edges, n := rmatEdges(t, 9, 4, 3)
	runBoth(t, edges, n, &apps.WCC{}, 100, Config{})
}

func TestGraFBoostKCore(t *testing.T) {
	edges, n := rmatEdges(t, 8, 6, 13)
	runBoth(t, edges, n, &apps.KCore{K: 3}, 200, Config{})
}
