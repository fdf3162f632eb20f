package main

import (
	"hash/fnv"
	"math"
	"math/rand"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/ndarray"
)

// The event plan — which elements are lost, which bit flipped, how events
// are grouped into batches — is a pure function of the -seed flag. The
// program under test never sees the seed, only the generated events.

// subSeed derives an independent stream seed for one named purpose, so
// adding a consumer never shifts the draws of another.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64()
	// splitmix64 finalizer: neighbouring seeds give unrelated streams.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// box is a half-open index region of an array, one [lo, hi) pair per
// dimension.
type box struct{ lo, hi []int }

func wholeArray(dims []int) box {
	b := box{lo: make([]int, len(dims)), hi: append([]int(nil), dims...)}
	return b
}

// stratifiedSites scatters one site into every cell of a regular grid laid
// over region b of an array with the given dims: grid[d] cells along
// dimension d, and inside each cell a position drawn uniformly from the
// first jitter[d] indices (jitter[d] <= cell size; a smaller jitter leaves a
// guaranteed gap between neighbouring sites). Stratifying — instead of
// drawing offsets uniformly — keeps the sampled mix of smooth and rough
// regions the same for every seed, so the quality metrics measure the
// recovery code and not the luck of the draw. The result is in shuffled
// order (scattered, not a raster scan) as linear element offsets.
func stratifiedSites(rng *rand.Rand, dims []int, b box, grid, jitter []int) []int {
	nd := len(dims)
	strides := make([]int, nd)
	s := 1
	for d := nd - 1; d >= 0; d-- {
		strides[d] = s
		s *= dims[d]
	}
	total := 1
	for d := 0; d < nd; d++ {
		total *= grid[d]
	}
	sites := make([]int, 0, total)
	cell := make([]int, nd)
	for n := 0; n < total; n++ {
		off := 0
		for d := 0; d < nd; d++ {
			span := b.hi[d] - b.lo[d]
			// Cell c covers [c*span/grid, (c+1)*span/grid): remainders are
			// spread instead of piling into the last cell.
			c0 := b.lo[d] + cell[d]*span/grid[d]
			c1 := b.lo[d] + (cell[d]+1)*span/grid[d]
			w := c1 - c0
			if j := jitter[d]; j > 0 && j < w {
				w = j
			}
			off += (c0 + rng.Intn(w)) * strides[d]
		}
		sites = append(sites, off)
		for d := nd - 1; d >= 0; d-- {
			cell[d]++
			if cell[d] < grid[d] {
				break
			}
			cell[d] = 0
		}
	}
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
	return sites
}

// planFlips turns sites into single-bit-flip trials against arr (read for
// the original values, not modified): each site gets a uniformly drawn bit
// of the element's stored representation.
func planFlips(rng *rand.Rand, arr *ndarray.Array, dtype bitflip.DType, sites []int) []faultinject.Trial {
	trials := make([]faultinject.Trial, len(sites))
	for i, off := range sites {
		bit := rng.Intn(dtype.Bits())
		orig := arr.AtOffset(off)
		trials[i] = faultinject.Trial{
			Offset: off, Bit: bit, Orig: orig,
			Corrupted: bitflip.Flip(orig, dtype, bit),
		}
	}
	return trials
}

// planRowWipes plans cache-line-shaped wipes: span consecutive elements at a
// span-aligned linear offset (faultinject.ClassRow's geometry), one wipe in
// each of n strata of the aligned slots, every cell with its own flipped bit.
func planRowWipes(rng *rand.Rand, arr *ndarray.Array, dtype bitflip.DType, n, span int) []faultinject.StructuredTrial {
	slots := arr.Len() / span
	if n > slots {
		n = slots
	}
	wipes := make([]faultinject.StructuredTrial, n)
	for i := range wipes {
		s0, s1 := i*slots/n, (i+1)*slots/n
		start := span * (s0 + rng.Intn(s1-s0))
		sites := make([]int, span)
		for k := range sites {
			sites[k] = start + k
		}
		wipes[i] = faultinject.StructuredTrial{Class: faultinject.ClassRow, Cells: planFlips(rng, arr, dtype, sites)}
	}
	rng.Shuffle(len(wipes), func(i, j int) { wipes[i], wipes[j] = wipes[j], wipes[i] })
	return wipes
}

// synthField generates the rows x cols field the networked workloads upload:
// a positive base level, a handful of long- and medium-wavelength separable
// waves (the smooth structure spatial prediction feeds on) and a little
// white noise (what keeps reconstructions from being trivially exact),
// rounded to float32 like the SDRBench fields.
func synthField(seed int64, rows, cols int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	const (
		base     = 100.0
		noiseRel = 0.003
	)
	// The spectrum is fixed — wavelengths from 47 to 613 cells, shorter
	// waves weaker, as in the SDRBench climate fields — and only the phases
	// and the noise depend on the seed: every seed yields a different field
	// of the same smoothness, so the tuner's choices and the reconstruction
	// error rates do not drift from seed to seed.
	waves := [...]struct{ lamR, lamC, amp float64 }{
		{613, 389, 14}, {331, 541, 11}, {223, 151, 7}, {127, 263, 5}, {83, 97, 3}, {47, 59, 2},
	}
	const modes = len(waves)
	rowWave := make([][]float64, modes)
	colWave := make([][]float64, modes)
	for m := 0; m < modes; m++ {
		lamR, lamC, amp := waves[m].lamR, waves[m].lamC, waves[m].amp
		pr, pc := 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
		rowWave[m] = make([]float64, rows)
		for i := range rowWave[m] {
			rowWave[m][i] = amp * math.Sin(2*math.Pi*float64(i)/lamR+pr)
		}
		colWave[m] = make([]float64, cols)
		for j := range colWave[m] {
			colWave[m][j] = math.Cos(2*math.Pi*float64(j)/lamC + pc)
		}
	}
	out := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		row := out[i*cols : (i+1)*cols]
		for j := range row {
			v := base
			for m := 0; m < modes; m++ {
				v += rowWave[m][i] * colWave[m][j]
			}
			v += base * noiseRel * rng.NormFloat64()
			row[j] = float64(float32(v))
		}
	}
	return out
}
