package core

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/sdrbench"
)

func benchEngine(b *testing.B, ny, nx int) (*Engine, *ndarray.Array, *registry.Allocation) {
	b.Helper()
	eng := NewEngine(Options{Seed: 7})
	a := ndarray.New(ny, nx)
	a.FillFunc(func(idx []int) float64 {
		return 30 + 5*math.Sin(float64(idx[0])/5) + 3*math.Cos(float64(idx[1])/4)
	})
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
	return eng, a, alloc
}

// BenchmarkRecoveryHotPath is the CI-tracked recovery benchmark:
// Single is one corrupt-and-recover cycle, Batch amortizes one
// RecoverBatch call over 16 co-located members, Contended8 drives
// 8 goroutines against one array with stripe-disjoint row bands, and
// Burst16 is one 16-cell RecoverBurst: a row wipe on CESM/FLDS and a 4x4
// block in one plane of Miranda/density, both at ScaleSmall.
func BenchmarkRecoveryHotPath(b *testing.B) {
	b.Run("Single", func(b *testing.B) {
		eng, a, alloc := benchEngine(b, 256, 64)
		off := a.Offset(128, 32)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.SetOffset(off, math.NaN())
			eng.MarkCorrupt(alloc, off)
			if _, err := eng.RecoverElement(alloc, off); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("Batch16", func(b *testing.B) {
		eng, a, alloc := benchEngine(b, 256, 64)
		offs := make([]int, 16)
		for i := range offs {
			offs[i] = a.Offset(8+i*15, (i*7)%64)
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, off := range offs {
				a.SetOffset(off, math.NaN())
				eng.MarkCorrupt(alloc, off)
			}
			for _, r := range eng.RecoverBatch(ctx, alloc, offs) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(offs))/b.Elapsed().Seconds(), "recoveries/s")
	})

	b.Run("Contended8", func(b *testing.B) {
		eng, a, alloc := benchEngine(b, 256, 64)
		var gid int32
		b.ReportAllocs()
		b.SetParallelism(1) // 8-way comes from the row bands below, capped at GOMAXPROCS
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			band := int(atomic.AddInt32(&gid, 1)-1) % 8
			row := band * 32
			col := 0
			for pb.Next() {
				off := a.Offset(row+(col%30)+1, col%64)
				col++
				a.SetOffset(off, math.NaN())
				eng.MarkCorrupt(alloc, off)
				if _, err := eng.RecoverElement(alloc, off); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("Burst16", func(b *testing.B) {
		for _, c := range []struct {
			name  string
			ds    *sdrbench.Dataset
			cells func(a *ndarray.Array) []int
		}{
			{"Row", sdrbench.Generate(sdrbench.CESM, "FLDS", sdrbench.ScaleSmall), func(a *ndarray.Array) []int {
				offs := make([]int, 16)
				for i := range offs {
					offs[i] = a.Offset(45, 80+i)
				}
				return offs
			}},
			{"Block3D", sdrbench.Generate(sdrbench.Miranda, "density", sdrbench.ScaleSmall), func(a *ndarray.Array) []int {
				var offs []int
				for j := 10; j < 14; j++ {
					for k := 10; k < 14; k++ {
						offs = append(offs, a.Offset(8, j, k))
					}
				}
				return offs
			}},
		} {
			b.Run(c.name, func(b *testing.B) {
				a := c.ds.Array
				eng := NewEngine(Options{Seed: 7})
				alloc := eng.Protect(c.ds.Name, a, c.ds.DType, registry.RecoverWith(predict.MethodLorenzo1))
				cells := c.cells(a)
				orig := make([]float64, len(cells))
				for k, off := range cells {
					orig[k] = a.AtOffset(off)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, off := range cells {
						a.SetOffset(off, math.NaN())
					}
					if _, err := eng.RecoverBurst(alloc, cells); err != nil {
						b.Fatal(err)
					}
					for k, off := range cells {
						a.SetOffset(off, orig[k])
					}
				}
				b.ReportMetric(float64(b.N)*float64(len(cells))/b.Elapsed().Seconds(), "cells/s")
			})
		}
	})
}
