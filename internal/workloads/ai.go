package workloads

import (
	"fmt"

	"power10sim/internal/isa"
)

// End-to-end AI inference models (Section II-C.2 / Fig. 6). The real
// evaluation ran PyTorch ResNet-50 (ImageNet, batch 100) and BERT-Large
// (SQuAD v1.1, batch 8) linked against an MMA-enabled OpenBLAS. Here each
// model is an instruction-stream-accurate miniature: a sequence of layers
// whose SGEMM kernels use either the vector (VSU) or MMA coding, interleaved
// with the non-GEMM phases (data loading, preprocessing, activation,
// embedding gather) that bound the achievable speedup.

// aiLayer is one GEMM-bearing stage of a model.
type aiLayer struct {
	name string
	s    GEMMSize
	// weightBase places this layer's packed weights; distinct per layer so
	// weight streaming behaves like a real model rather than one hot buffer.
	weightBase uint64
}

// aiModel describes a model's layer stack and its non-GEMM phases.
type aiModel struct {
	name   string
	layers []aiLayer
	// preBytes: bytes of scalar input preprocessing per inference pass
	// (image decode / tokenization share).
	preBytes int
	// gatherCount/gatherSpan: embedding-style random loads over a large
	// table (BERT's dominant non-GEMM memory behaviour).
	gatherCount int
	gatherSpan  uint64
	// actBytes: bytes of vector activation/elementwise work after each layer.
	actBytes int
	passes   int
}

// AI memory map.
const (
	aiActA    = 0x010_0000 // activations A panel (shared)
	aiActC    = 0x080_0000 // output activations
	aiWeights = 0x100_0000 // per-layer weight panels from here
	aiInput   = 0x800_0000 // raw input buffer
	aiEmbed   = 0x900_0000 // embedding table
)

// resnet50Model returns the scaled ResNet-50 layer stack: convolution
// stages lowered (im2col) to SGEMM, mostly L2-resident weights, and a
// meaningful image-preprocessing share (batch 100).
func resnet50Model() aiModel {
	return aiModel{
		name: "resnet50",
		layers: []aiLayer{
			{"conv1", GEMMSize{M: 16, N: 64, K: 48}, aiWeights + 0x00_0000},
			{"res2", GEMMSize{M: 16, N: 64, K: 64}, aiWeights + 0x10_0000},
			{"res3", GEMMSize{M: 16, N: 128, K: 64}, aiWeights + 0x20_0000},
			{"res4", GEMMSize{M: 8, N: 128, K: 96}, aiWeights + 0x30_0000},
			{"res5", GEMMSize{M: 8, N: 128, K: 128}, aiWeights + 0x40_0000},
			{"fc", GEMMSize{M: 8, N: 64, K: 128}, aiWeights + 0x50_0000},
		},
		preBytes: 96 << 10, // image decode/normalize share
		actBytes: 8 << 10,
		passes:   1,
	}
}

// bertLargeModel returns the scaled BERT-Large stack: fewer, larger GEMMs
// (higher GEMM instruction ratio), a big embedding-gather phase and weight
// panels spread over a >10x larger parameter footprint, making the non-GEMM
// and data-loading share of time larger (the paper's explanation for
// BERT-Large's lower no-MMA speedup).
func bertLargeModel() aiModel {
	return aiModel{
		name: "bertlarge",
		layers: []aiLayer{
			{"qkv", GEMMSize{M: 16, N: 192, K: 64}, aiWeights + 0x00_0000},
			{"attn-out", GEMMSize{M: 16, N: 64, K: 64}, aiWeights + 0x60_0000},
			{"ffn-up", GEMMSize{M: 16, N: 256, K: 64}, aiWeights + 0xC0_0000},
			{"ffn-down", GEMMSize{M: 16, N: 64, K: 256}, aiWeights + 0x120_0000},
		},
		preBytes:    16 << 10, // tokenization is cheap
		gatherCount: 2600,
		gatherSpan:  6 << 20, // embedding + position tables
		actBytes:    6 << 10,
		passes:      1,
	}
}

// emitStreamPre emits a scalar preprocessing pass: sequential word loads
// with light ALU (normalize/convert), over n bytes at base.
func emitStreamPre(b *isa.Builder, base uint64, n int, prefix string) {
	rP := isa.GPR(20)
	rE := isa.GPR(21)
	rV := isa.GPR(22)
	rS := isa.GPR(23)
	b.Li(rP, int64(base))
	b.Li(rE, int64(base)+int64(n))
	b.Label(prefix + "pre")
	b.Lw(rV, rP, 0)
	b.Shr(rV, rV, 2)
	b.Add(rS, rS, rV)
	b.Lw(rV, rP, 4)
	b.Xor(rS, rS, rV)
	b.Addi(rP, rP, 8)
	b.Bc(isa.CondLT, rP, rE, prefix+"pre")
}

// emitGather emits count pseudo-random loads over span bytes at base — the
// embedding-lookup phase.
func emitGather(b *isa.Builder, base, span uint64, count int, prefix string) {
	rSt := isa.GPR(20)
	rMul := isa.GPR(21)
	rV := isa.GPR(22)
	rT := isa.GPR(23)
	rBase := isa.GPR(24)
	rMask := isa.GPR(25)
	rI := isa.GPR(26)
	rL := isa.GPR(27)
	rAcc := isa.GPR(28)
	b.Li(rSt, 55991)
	b.Li(rMul, 6364136223846793005)
	b.Li(rBase, int64(base))
	b.Li(rMask, int64(span-8)&^7)
	b.Li(rI, 0)
	b.Li(rL, int64(count))
	b.Label(prefix + "gather")
	emitLCG(b, rSt, rMul, rV)
	b.And(rT, rV, rMask)
	b.Add(rT, rT, rBase)
	b.Ld(rV, rT, 0)
	b.Add(rAcc, rAcc, rV)
	b.Addi(rI, rI, 1)
	b.Bc(isa.CondLT, rI, rL, prefix+"gather")
}

// emitActivation emits a vector elementwise pass (ReLU-ish multiply-add)
// over n bytes at base.
func emitActivation(b *isa.Builder, base uint64, n int, prefix string) {
	rP := isa.GPR(20)
	rE := isa.GPR(21)
	b.Li(rP, int64(base))
	b.Li(rE, int64(base)+int64(n))
	b.Label(prefix + "act")
	b.Lxv(isa.VSR(50), rP, 0)
	b.Lxv(isa.VSR(51), rP, 16)
	b.Xvmaddasp(isa.VSR(52), isa.VSR(50), isa.VSR(51))
	b.Xvmaddasp(isa.VSR(53), isa.VSR(51), isa.VSR(50))
	b.Stxv(isa.VSR(52), rP, 0)
	b.Stxv(isa.VSR(53), rP, 16)
	b.Addi(rP, rP, 32)
	b.Bc(isa.CondLT, rP, rE, prefix+"act")
}

// buildAI assembles an inference program from a model description.
func buildAI(m aiModel, mma bool) (*Workload, error) {
	variant, gemm := "vsu", &sgemmVSU
	if mma {
		variant, gemm = "mma", &sgemmMMA
	}
	b := isa.NewBuilder(m.name + "-" + variant)
	if mma {
		b.MMAWake()
	}
	b.Li(rPass, 0)
	b.Li(rPasses, int64(m.passes))
	b.Label("pass")
	if m.preBytes > 0 {
		emitStreamPre(b, aiInput, m.preBytes, "p")
	}
	if m.gatherCount > 0 {
		emitGather(b, aiEmbed, m.gatherSpan, m.gatherCount, "g")
	}
	for li, l := range m.layers {
		if err := l.s.Valid(); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", m.name, l.name, err)
		}
		bases := gemmBases{at: aiActA, b: l.weightBase, c: aiActC}
		prefix := fmt.Sprintf("L%d", li)
		gemm.limits(b, l.s)
		gemm.loop(b, bases, prefix)
		if m.actBytes > 0 {
			emitActivation(b, aiActC, m.actBytes, prefix)
		}
	}
	b.Addi(rPass, rPass, 1)
	b.Bc(isa.CondLT, rPass, rPasses, "pass")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Workload{
		Name:     p.Name,
		Category: CatAI,
		Prog:     p,
		Weight:   1,
		Budget:   2_000_000,
	}, nil
}

// ResNet50 builds the image-classification inference model. mma selects the
// MMA-enabled OpenBLAS-style kernels; otherwise the vector (VSU) coding.
func ResNet50(mma bool) (*Workload, error) { return buildAI(resnet50Model(), mma) }

// BERTLarge builds the question-answering inference model.
func BERTLarge(mma bool) (*Workload, error) { return buildAI(bertLargeModel(), mma) }
