package graphchi

import (
	"testing"

	"multilogvc/internal/apps"
)

func TestGraphChiWCC(t *testing.T) {
	edges, n := rmatEdges(t, 9, 4, 3)
	runBoth(t, edges, n, &apps.WCC{}, 100)
}

func TestGraphChiKCore(t *testing.T) {
	edges, n := rmatEdges(t, 8, 6, 13)
	runBoth(t, edges, n, &apps.KCore{K: 3}, 200)
}
