package autotune

import (
	"fmt"
	"slices"
	"testing"

	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/sdrbench"
)

// BenchmarkAutotuneSelect is the CI-tracked tuner benchmark: one uncached
// RECOVER_ANY search (K = 3, ten methods) at an interior site of a 1-D, 2-D
// and 3-D field, on an engine-style Env (shared statistics, the target
// quarantined behind an enumerable mask), with and without one more
// quarantined cell inside the probe neighbourhood.
func BenchmarkAutotuneSelect(b *testing.B) {
	for _, c := range []struct {
		name      string
		a         *ndarray.Array
		idx, near []int
	}{
		{"1D", sdrbench.Generate(sdrbench.HACC, "xx", sdrbench.ScaleTiny).Array, []int{2000}, []int{2002}},
		{"2D", sdrbench.Generate(sdrbench.CESM, "FLDS", sdrbench.ScaleSmall).Array, []int{45, 90}, []int{44, 92}},
		{"3D", sdrbench.Generate(sdrbench.Isabel, "Pf48", sdrbench.ScaleSmall).Array, []int{10, 25, 25}, []int{11, 24, 27}},
	} {
		for _, quarantined := range []int{0, 1} {
			b.Run(fmt.Sprintf("%s/quarantined=%d", c.name, quarantined), func(b *testing.B) {
				masked := offsetMask{c.a.Offset(c.idx...)}
				if quarantined == 1 {
					masked = append(masked, c.a.Offset(c.near...))
					slices.Sort(masked)
				}
				shared := predict.NewSharedStats(c.a)
				shared.Exclude(masked...)
				env := predict.NewEnv(c.a, 1)
				env.SetShared(shared)
				env.SetMaskSource(masked)
				if _, err := Select(env, c.idx, DefaultConfig()); err != nil { // warm scratch
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Select(env, c.idx, DefaultConfig()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
