package difftest

import (
	"testing"

	"repro/internal/core"
)

// TestDifferentialMatrix is the canonical equivalence suite: every
// method × k ∈ {1,2,3,5} on two deterministic random instances, each
// solved under the full configuration cross product (ordering ×
// workers for the kernel-backed methods, ordering for BP/SBP) and
// pinned to the reference within 1e-12.
func TestDifferentialMatrix(t *testing.T) {
	RunMatrix(t, 350, 800, 7, core.WithMaxIter(60))
}

// TestDifferentialMatrixFixedRounds re-runs the matrix under the
// paper's timing convention (fixed rounds, no early stopping): the
// iterates after exactly 5 rounds must also agree, which catches
// divergence the converged fixpoint would mask.
func TestDifferentialMatrixFixedRounds(t *testing.T) {
	RunMatrix(t, 250, 600, 11, core.WithMaxIter(5), core.WithTol(-1))
}

// TestVariantsCoverAxes pins the harness itself: the kernel-backed
// variant set must span all three orderings and both worker settings,
// and the dynamic set must add the schedule axis.
func TestVariantsCoverAxes(t *testing.T) {
	vs := Variants(core.MethodLinBP)
	if len(vs) != 3*2 {
		t.Fatalf("kernel variant count = %d, want %d", len(vs), 3*2)
	}
	seen := map[string]bool{}
	for _, v := range vs {
		seen[v.Name] = true
	}
	for _, name := range []string{
		"order=natural/workers=0",
		"order=degree/workers=4",
		"order=rcm/workers=0",
	} {
		if !seen[name] {
			t.Fatalf("variant %q missing", name)
		}
	}
	dvs := DynamicVariants(core.MethodLinBP)
	if len(dvs) != 3*2*3 {
		t.Fatalf("dynamic kernel variant count = %d, want %d", len(dvs), 3*2*3)
	}
	seen = map[string]bool{}
	for _, v := range dvs {
		seen[v.Name] = true
	}
	for _, name := range []string{
		"order=natural/workers=0/schedule=rounds",
		"order=degree/workers=2/schedule=residual",
		"order=rcm/workers=2/schedule=auto",
	} {
		if !seen[name] {
			t.Fatalf("dynamic variant %q missing", name)
		}
	}
	if got := len(Variants(core.MethodBP)); got != 3 {
		t.Fatalf("BP variant count = %d, want 3 (ordering axis only)", got)
	}
}

// TestProblemRejectsInvalid guards the instance builder: every k ≥ 2
// axis value builds a valid instance, and k = 1 is routed to the
// kernel-level check instead.
func TestProblemRejectsInvalid(t *testing.T) {
	for _, k := range Ks {
		p, err := Problem(120, 260, k, 5)
		if k == 1 {
			if err == nil {
				t.Fatal("k=1 must be rejected by the Problem surface")
			}
			continue
		}
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.Graph.N() != 120 || p.K() != k {
			t.Fatalf("k=%d: got n=%d k=%d", k, p.Graph.N(), p.K())
		}
	}
}
