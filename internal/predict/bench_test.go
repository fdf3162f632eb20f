package predict

import (
	"math"
	"testing"
)

func benchEnv() (*Env, []int) {
	a := fill([]int{64, 64}, func(idx []int) float64 {
		return 30 + 5*math.Sin(float64(idx[0])/5) + 3*math.Cos(float64(idx[1])/4)
	})
	env := NewEnv(a, 1)
	env.Mask(a.Offset(32, 32))
	return env, []int{32, 32}
}

func benchPredictor(b *testing.B, p Predictor) {
	env, idx := benchEnv()
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

func BenchmarkLorenzo1Kernel(b *testing.B) { benchPredictor(b, Lorenzo{Layers: 1}) }
func BenchmarkLorenzo3Kernel(b *testing.B) { benchPredictor(b, Lorenzo{Layers: 3}) }
func BenchmarkLagrangeKernel(b *testing.B) {
	benchPredictor(b, Lagrange{Offsets: []int{-2, -1, 1}})
}

// BenchmarkLagrangeWeightsMemo vs ...Compute measures the memoization win
// for the weight table on the paper's node pattern.
func BenchmarkLagrangeWeightsMemo(b *testing.B) {
	nodes := []int{-2, -1, 1}
	lagrangeWeights(nodes) // populate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lagrangeWeights(nodes)
	}
}

func BenchmarkLagrangeWeightsCompute(b *testing.B) {
	nodes := []int{-2, -1, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		computeLagrangeWeights(nodes)
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
