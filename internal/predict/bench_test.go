package predict

import (
	"fmt"
	"math"
	"testing"
)

func benchEnv() (*Env, []int) {
	a := fill([]int{64, 64}, func(idx []int) float64 {
		return 30 + 5*math.Sin(float64(idx[0])/5) + 3*math.Cos(float64(idx[1])/4)
	})
	env := NewEnv(a, 1)
	maskOffsets(env, a.Offset(32, 32))
	return env, []int{32, 32}
}

func benchPredictor(b *testing.B, p Predictor) {
	env, idx := benchEnv()
	benchPredictorAt(b, p, env, idx)
}

func benchPredictorAt(b *testing.B, p Predictor, env *Env, idx []int) {
	if _, err := p.Predict(env, idx); err != nil { // warm scratch + memo
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Predict(env, idx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLorenzo1Kernel times the paper's best method on benchEnv's 2-D
// site and on kernelBenchEnv's 3-D one.
func BenchmarkLorenzo1Kernel(b *testing.B) {
	b.Run("2D", func(b *testing.B) { benchPredictor(b, Lorenzo{Layers: 1}) })
	b.Run("3D", func(b *testing.B) {
		env, idx := kernelBenchEnv()
		benchPredictorAt(b, Lorenzo{Layers: 1}, env, idx)
	})
}

func BenchmarkLorenzo3Kernel(b *testing.B) { benchPredictor(b, Lorenzo{Layers: 3}) }
func BenchmarkLagrangeKernel(b *testing.B) {
	benchPredictor(b, Lagrange{})
}

// BenchmarkLagrangeWeightsCompute times the weights of the paper's node
// set, computed as a nearest-fit node set's are.
func BenchmarkLagrangeWeightsCompute(b *testing.B) {
	nodes := []int{-2, -1, 1}
	var w [3]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lagrangeWeights(w[:], nodes)
	}
}

// kernelBenchEnv is the BenchmarkLocalRegressionKernel site: 3-D, interior,
// Radius 3, the target and one more cell of the patch quarantined, behind an
// enumerable mask as in the engine.
func kernelBenchEnv() (*Env, []int) {
	a := fill([]int{20, 50, 50}, func(idx []int) float64 {
		return 900 + 30*math.Sin(float64(idx[0])/3) + 11*math.Cos(float64(idx[1])/7) + float64(idx[2]%5)
	})
	idx := []int{10, 25, 25}
	env := NewEnv(a, 1)
	env.SetMaskSource(newSetMask(a.Offset(idx...), a.Offset(11, 24, 27)))
	return env, idx
}

// BenchmarkLocalRegressionKernel times the row-walk kernel with the closure
// kernel it replaced beside it (same site, same mask).
func BenchmarkLocalRegressionKernel(b *testing.B) {
	b.Run("RowWalk", func(b *testing.B) {
		env, idx := kernelBenchEnv()
		p := LocalRegression{Radius: 3}
		if _, err := p.Predict(env, idx); err != nil { // warm scratch
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Predict(env, idx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Reference", func(b *testing.B) {
		env, idx := kernelBenchEnv()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := localRegressionRef(env, idx, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sharedBuildBench is the BenchmarkSharedStatsBuild site: a side x side
// field with 50 cells excluded before the build.
func sharedBuildBench(side int) *SharedStats {
	a := fill([]int{side, side}, func(idx []int) float64 {
		return 280 + 35*math.Sin(float64(idx[0])/40) + 9*math.Cos(float64(idx[1])/17)
	})
	s := NewSharedStats(a)
	for off := 0; off < 50; off++ {
		s.Exclude(off * (a.Len() / 50))
	}
	return s
}

// BenchmarkSharedStatsBuild times the array-wide moment and range build that
// the first global-coupled recovery after a field upload pays.
func BenchmarkSharedStatsBuild(b *testing.B) {
	for _, side := range []int{256, 1024} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			s := sharedBuildBench(side)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.built = false
				s.build()
			}
		})
	}
}

// BenchmarkSharedBuildReference is the per-cell loop the row walk replaced,
// at the same sites. Under its own name: at ~100 ms per 1024x1024 build it
// would take CI's fixed-iteration bench job tens of minutes.
func BenchmarkSharedBuildReference(b *testing.B) {
	for _, side := range []int{256, 1024} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			s := sharedBuildBench(side)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sharedBuildRef(s.a, s.snap, s.excluded)
				sharedRangeRef(s.snap, s.excluded)
			}
		})
	}
}
