// Package workloads provides the benchmark programs the evaluation runs on
// the core model: BLAS kernels in VSU (vector) and MMA codings, a synthetic
// SPECint-like suite with per-benchmark branch/memory/ILP character, AI
// inference models (ResNet-50-like and BERT-Large-like instruction streams),
// and power stressmarks.
//
// Every argument-free named workload is one shared value per process: the
// ten SPECint constructors (Interp … XMLTrans), Stressmark(false),
// Stressmark(true) and ActiveIdle each build their workload on first use and
// return that same pointer on every later call; SPECintSuite and Catalog
// hold those instances. A shared workload and its Prog are read-only: a
// caller that needs different fields (a budget, a warmup) copies the
// Workload first. Sharing lets a program's Fingerprint and PC table be
// computed once per process. The size-parameterised constructors (DGEMMVSU,
// DGEMMMMA, DGEMMMMAFrom, the SGEMM and INT8 kernels, Daxpy, Conv2DMMA,
// DFTMMA, TRSVUnitLower, ResNet50, BERTLarge) build a fresh workload on
// every call, which the caller owns, and so do Catalog's kernels.
package workloads

import (
	"encoding/binary"
	"math"

	"power10sim/internal/isa"
)

// Category classifies a workload for suite-level aggregation.
type Category string

// Workload categories.
const (
	CatSPECint   Category = "specint"
	CatKernel    Category = "kernel"
	CatAI        Category = "ai"
	CatSynthetic Category = "synthetic"
)

// Workload is one runnable benchmark.
type Workload struct {
	Name     string
	Category Category
	Prog     *isa.Program
	// Weight is the workload's share when aggregating suite results.
	Weight float64
	// Budget is the suggested dynamic-instruction budget for a
	// representative measurement run.
	Budget uint64
	// Warmup is the number of instructions whose statistics a measurement
	// run should discard (caches/predictors warm during them) — the
	// region-of-interest window start.
	Warmup uint64
}

// F64Bytes serializes doubles little-endian.
func F64Bytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// F32Bytes serializes floats little-endian.
func F32Bytes(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// U64Bytes serializes uint64s little-endian.
func U64Bytes(vals []uint64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], v)
	}
	return out
}

// lcg is a deterministic pseudo-random generator for building data images.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed*2862933555777941757 + 3037000493} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 17
}

func (l *lcg) f64() float64 { return float64(l.next()%2000)/1000.0 - 1.0 }
