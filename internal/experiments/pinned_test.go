package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestSimulationFiguresPinned pins the rendered text of every
// simulation-backed runner at testBudget to a SHA-256 digest, so a changed
// seed, sweep point, point order, title or cell fails here even where the
// shape tests (TestFig3Shapes, TestFig4ScatterAndThresholds, ...) still
// hold. A refactor of the sweeps keeps every digest; a deliberate
// re-baseline of a figure updates its digest and says so.
func TestSimulationFiguresPinned(t *testing.T) {
	want := map[string]string{
		"fig1":      "38b6f83984830199956fd8ccb2f4a73b9e32aff5077d3649f10062a34ab21c1f",
		"fig3":      "cd41a8521c8012f6b543441a2b3ab6e55b89b4a07948475f5bc866029cce6be3",
		"fig4":      "96ce69dc488668c2243cdb30620d56c5ec7561f6705fa3d3d80ec11410420940",
		"fig10":     "16fe3f2a189ea72b07aeb1a1ff419d5dcd39bc03fdb703cce24b32f6d78f76fa",
		"fig11":     "7d5f4bf4ebe7a26ed6b210aea19077de1a678fae81faa7e6ff47e910b1f554ad",
		"fig12":     "354fa226127476108cf5c5c1af03ae3a0feae6b8a768c4a351511b704eb7367e",
		"fig13":     "942bbea2f9c87028cd1ac9db41556f9e3c940dd4500ae68b2f51a0e8297da48c",
		"xsfk":      "c1465a062862d09e8869f2abcff1d578d304cd87d30f7cc6a133960b9dbd4be7",
		"skewguard": "76b8d26000637f0d0081204c611955316ff05d0be3c6fa47a5efbd26261caec6",
		"tan":       "ccdb922f05eaccb30fa47553b2ef7316686c52f33a4e432b6084cac81d1614c4",
	}
	b := testBudget
	b.Workers = 1
	for _, id := range []string{"fig1", "fig3", "fig4", "fig10", "fig11", "fig12", "fig13", "xsfk", "skewguard", "tan"} {
		res, err := Run(id, b)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := res.WriteText(&buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[id] {
			t.Errorf("%s: text digest %s, want %s", id, got, want[id])
		}
	}
}
