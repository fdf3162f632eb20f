package sdrbench

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
)

// TestCalibTextureRatios is a calibration aid, not an assertion: it prints
// the mean relative error of each reconstruction method on a pure-texture
// field for a range of texture wavelengths. Run with -v.
func TestCalibTextureRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	for _, cfg := range []struct {
		tau   float64
		sharp float64
		noise float64
	}{
		{0.04, 2.5, 0}, {0.04, 2.5, 0.0015}, {0.05, 2.5, 0.0015},
		{-0.04, 2.5, 0}, {-0.04, 2.5, 0.0015}, {-0.04, 2.5, 0.003},
	} {
		rng := rand.New(rand.NewSource(7))
		var ms []mode
		if cfg.tau < 0 { // negative tau selects the isotropic texture
			cfg.tau = -cfg.tau
			ms = texture(rng, 2)
		} else {
			ms = anisoTexture(rng, 2)
		}
		a := ndarray.New(96, 96)
		a.FillFunc(func(idx []int) float64 {
			g := evalModes(ms, idx)
			if cfg.sharp > 0 {
				g = math.Tanh(cfg.sharp*g) / math.Tanh(cfg.sharp)
			}
			return 10 * (1 + cfg.tau*g)
		})
		if cfg.noise > 0 {
			addNoise(a, rng, cfg.noise)
		}
		env := predict.NewEnv(a, 1)
		line := fmt.Sprintf("tau=%.2f sharp=%.1f noise=%.4f:", cfg.tau, cfg.sharp, cfg.noise)
		for _, m := range []predict.Method{predict.MethodPreceding, predict.MethodAverage, predict.MethodLorenzo1, predict.MethodQuadratic, predict.MethodLocalLinReg, predict.MethodLagrange} {
			p := predict.New(m)
			hit1, hit5, n := 0, 0, 0
			idx := make([]int, 2)
			for trial := 0; trial < 4000; trial++ {
				off := rng.Intn(a.Len())
				a.CoordsInto(idx, off)
				got, err := p.Predict(env, idx)
				if err != nil {
					continue
				}
				re := bitflip.RelErr(a.AtOffset(off), got)
				n++
				if re < 0.01 {
					hit1++
				}
				if re < 0.05 {
					hit5++
				}
			}
			line += fmt.Sprintf("  %s=%2.0f/%2.0f", p.Name()[:4], 100*float64(hit1)/float64(n), 100*float64(hit5)/float64(n))
		}
		t.Log(line)
	}
}
