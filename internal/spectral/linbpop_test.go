package spectral

import (
	"repro/internal/dense"
	"repro/internal/kernel"
	"repro/internal/sparse"
)

// LinBPOp is the implicit LinBP update operator of Lemma 8,
//
//	vec(B) ↦ (Hˆ⊗A − Hˆ²⊗D)·vec(B)  ≡  A·B·Hˆ − D·B·Hˆ²,
//
// acting on n×k matrices flattened row-major (node-major). Setting
// EchoCancellation to false yields the LinBP* operator Hˆ⊗A.
//
// The operator delegates to the fused compute engine of package
// kernel, so it applies exactly the update the iterative solver
// executes.
type LinBPOp struct {
	A                *sparse.CSR   // n×n symmetric adjacency
	D                []float64     // weighted degrees (Σ w², Section 5.2)
	H                *dense.Matrix // k×k residual coupling matrix Hˆ
	EchoCancellation bool

	eng *kernel.Engine
}

// NewLinBPOp builds the update operator for adjacency a, degrees d, and
// residual coupling h. If echo is true the −D·B·Hˆ² term is included
// (LinBP); otherwise the operator is the LinBP* one.
func NewLinBPOp(a *sparse.CSR, d []float64, h *dense.Matrix, echo bool) *LinBPOp {
	if a.Rows() != a.Cols() {
		panic("spectral: adjacency must be square")
	}
	if echo && len(d) != a.Rows() {
		panic("spectral: degree vector length mismatch")
	}
	var kd []float64
	if echo {
		kd = d
	}
	eng, err := kernel.New(kernel.Config{A: a, D: kd, H: h}, nil)
	if err != nil {
		panic("spectral: " + err.Error())
	}
	return &LinBPOp{A: a, D: d, H: h, EchoCancellation: echo, eng: eng}
}

// Dim implements Operator: n·k.
func (o *LinBPOp) Dim() int { return o.A.Rows() * o.H.Rows() }

// Apply implements Operator via the engine's fused bare-operator pass.
func (o *LinBPOp) Apply(dst, src []float64) { o.eng.ApplyInto(dst, src) }
