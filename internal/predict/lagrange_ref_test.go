package predict

import (
	"fmt"
	"math"
	"testing"
)

// computeLagrangeWeights is the weight computation as it was behind the
// process-wide weight memo, kept verbatim as the reference: every node set
// the predictor uses must get its bits.
func computeLagrangeWeights(nodes []int) []float64 {
	w := make([]float64, len(nodes))
	for r, xr := range nodes {
		num, den := 1.0, 1.0
		for m, xm := range nodes {
			if m == r {
				continue
			}
			num *= float64(0 - xm)
			den *= float64(xr - xm)
		}
		w[r] = num / den
	}
	return w
}

// TestLagrangeWeightsMatchReference drives fitNodes to every node set it can
// return and checks the weights it hands back against
// computeLagrangeWeights, bit for bit. The target sits mid-way along a 1-D
// array of 2*MaxStencilReach+1 cells, so every offset within the reach is in
// bounds; masking every candidate offset but a chosen few makes those the
// usable ones. For each k = 1..3 every choice of k candidates is tried,
// which yields every nearest-fit set, the paper's set and its mirror.
func TestLagrangeWeightsMatchReference(t *testing.T) {
	const reach = MaxStencilReach
	a := fill([]int{2*reach + 1}, func(idx []int) float64 { return float64(idx[0]) })
	center := reach
	var candidates []int
	for dist := 1; dist <= reach; dist++ {
		candidates = append(candidates, -dist, dist)
	}
	seen := map[string]bool{}
	var choose func(from int, usable []int, k int)
	choose = func(from int, usable []int, k int) {
		if len(usable) < k {
			for i := from; i < len(candidates); i++ {
				choose(i+1, append(usable, candidates[i]), k)
			}
			return
		}
		in := map[int]bool{}
		for _, o := range usable {
			in[center+o] = true
		}
		env := NewEnv(a, 1)
		env.SetMaskFunc(func(off int) bool { return off != center && !in[off] })
		var w [3]float64
		nodes, got := fitNodes(env, center, 1, center, a.Dim(0), k, w[:])
		want := computeLagrangeWeights(nodes)
		if nodes == nil || len(got) != len(want) {
			t.Fatalf("k=%d usable %v: nodes %v, %d weights", k, usable, nodes, len(got))
		}
		for r := range want {
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
				t.Fatalf("k=%d nodes %v: weights %v, reference %v", k, nodes, got, want)
			}
		}
		seen[fmt.Sprint(nodes)] = true
	}
	for k := 1; k <= 3; k++ {
		choose(0, nil, k)
	}
	if !seen["[-2 -1 1]"] || !seen["[2 1 -1]"] {
		t.Errorf("paper set reached %v, mirror reached %v; want both", seen["[-2 -1 1]"], seen["[2 1 -1]"])
	}
	if want := 16 + 16*15/2 + 16*15*14/6; len(seen) != want {
		t.Errorf("%d distinct node sets, want %d", len(seen), want)
	}
}
