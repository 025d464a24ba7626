package profiler

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/asap-project/ires/internal/engine"
)

func TestGridExceeds(t *testing.T) {
	wide := map[string][]float64{}
	for i := 0; i < 64; i++ {
		wide[fmt.Sprintf("p%d", i)] = []float64{1, 2}
	}
	two := []engine.Resources{engine.SingleNode, engine.StandardCluster}
	for _, tc := range []struct {
		name  string
		space Space
		limit int
		want  bool
	}{
		{"small", Space{Records: []int64{1, 2}, Params: map[string][]float64{"k": {4, 8}, "i": {3}}, Resources: two}, 8, false},
		{"empty param list", Space{Records: []int64{1, 2}, Params: map[string][]float64{"k": {}}, Resources: two}, 1, false},
		{"over the limit", Space{Records: []int64{1, 2, 3, 4, 5}, Resources: two}, 9, true},
		// 2^65 points: a product taken without the check would wrap to 0.
		{"would overflow", Space{Records: []int64{1, 2}, Params: wide, Resources: []engine.Resources{engine.SingleNode}}, math.MaxInt, true},
	} {
		if got := tc.space.gridExceeds(tc.limit); got != tc.want {
			t.Errorf("%s: gridExceeds(%d) = %v, want %v", tc.name, tc.limit, got, tc.want)
		}
	}
}

func TestProfileOfflineRejectsHugeGrid(t *testing.T) {
	p := newProfiler(engine.NewDefaultEnvironment(8))
	space := Space{BytesPerRecord: 1000}
	for i := 0; i < 1000; i++ {
		space.Records = append(space.Records, int64(1000+i))
	}
	for i := 0; i < 1000; i++ {
		space.Resources = append(space.Resources, engine.Resources{Nodes: 1 + i%16, CoresPerN: 2, MemMBPerN: 3456})
	}
	space.Params = map[string][]float64{"iterations": make([]float64, 1000)}
	_, err := p.ProfileOffline("huge", engine.EngineSpark, engine.AlgTFIDF, space)
	if !errors.Is(err, ErrGridTooLarge) {
		t.Fatalf("err = %v, want ErrGridTooLarge", err)
	}
	if _, ok := p.Models("huge"); ok {
		t.Fatal("a refused grid registered the operator")
	}
}
