package fm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/partition"
)

func TestRefineNeverWorsensCut(t *testing.T) {
	g := gen.PaperGraph(167)
	rng := rand.New(rand.NewSource(1))
	for _, parts := range []int{2, 4, 8} {
		p := partition.RandomBalanced(g.NumNodes(), parts, rng)
		before := p.CutSize(g)
		gain := RefineEval(g, p, nil, Config{})
		after := p.CutSize(g)
		if after > before {
			t.Errorf("parts=%d: cut worsened %v -> %v", parts, before, after)
		}
		if d := (before - after) - gain; d > 1e-9 || d < -1e-9 {
			t.Errorf("parts=%d: reported gain %v != actual %v", parts, gain, before-after)
		}
	}
}

func TestRefineRespectsBalance(t *testing.T) {
	g := gen.PaperGraph(144)
	rng := rand.New(rand.NewSource(2))
	p := partition.RandomBalanced(g.NumNodes(), 4, rng)
	RefineEval(g, p, nil, Config{BalanceSlack: 2})
	sizes := p.PartSizes()
	ideal := float64(g.NumNodes()) / 4
	for q, s := range sizes {
		if float64(s) < ideal-3 || float64(s) > ideal+3 {
			t.Errorf("part %d size %d violates slack-2 balance (ideal %.1f): %v", q, s, ideal, sizes)
		}
	}
}

func TestRefineTwoCliques(t *testing.T) {
	// Two K5 cliques joined by one edge; from the worst split FM must find
	// the cut of 1. This requires escaping the local optimum via the
	// best-prefix mechanism.
	b := graph.NewBuilder(10)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j, 1)
			b.AddEdge(i+5, j+5, 1)
		}
	}
	b.AddEdge(0, 5, 1)
	g := b.Build()
	p := partition.New(10, 2)
	p.Assign = []uint16{0, 0, 1, 1, 0, 1, 1, 0, 0, 1}
	RefineEval(g, p, nil, Config{})
	if cut := p.CutSize(g); cut != 1 {
		t.Errorf("FM cut = %v, want 1 (assign %v)", cut, p.Assign)
	}
}

func TestRefineBeatsSimpleHillClimbOnAverage(t *testing.T) {
	// FM's move-ahead (best prefix) should match or beat one-move-at-a-time
	// hill climbing from identical starts, averaged over several seeds.
	g := gen.PaperGraph(213)
	var fmSum, hcSum float64
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p1 := partition.RandomBalanced(g.NumNodes(), 8, rng)
		p2 := p1.Clone()
		RefineEval(g, p1, nil, Config{})
		kl.HillClimb(g, p2, partition.TotalCut, 0)
		fmSum += p1.CutSize(g)
		hcSum += p2.CutSize(g)
	}
	if fmSum > hcSum*1.05 {
		t.Errorf("FM mean cut %v clearly worse than hill climbing %v", fmSum/5, hcSum/5)
	}
}

func TestRefineEmptyAndDegenerate(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	p := partition.New(0, 2)
	if gain := RefineEval(empty, p, nil, Config{}); gain != 0 {
		t.Errorf("empty graph gain %v", gain)
	}
	// Single part: nothing to do.
	g := gen.Mesh(20, 3)
	p1 := partition.New(20, 1)
	if gain := RefineEval(g, p1, nil, Config{}); gain != 0 {
		t.Errorf("1-part gain %v", gain)
	}
}

func TestRefineWeightedEdges(t *testing.T) {
	// Heavy edge must not be cut: path a-b-c with w(a,b)=10, w(b,c)=1;
	// 2 parts with slack 1 allows sizes {1,2}.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 10)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	p := partition.New(3, 2)
	p.Assign = []uint16{0, 1, 1} // cuts the heavy edge
	RefineEval(g, p, nil, Config{BalanceSlack: 1})
	if p.Assign[0] == p.Assign[1] {
		return // heavy edge internal: good
	}
	t.Errorf("heavy edge still cut: %v", p.Assign)
}

// Property: Refine never violates validity, never increases cut, and keeps
// sizes within the default slack.
func TestQuickRefineInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(80)
		g := gen.Mesh(n, seed)
		parts := 2 + rng.Intn(6)
		p := partition.RandomBalanced(n, parts, rng)
		before := p.CutSize(g)
		RefineEval(g, p, nil, Config{})
		if p.Validate(g) != nil || p.CutSize(g) > before {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The Workers knob must be a pure speed knob: the parallel heap seeding
// pushes the same candidates in the same order at every width, so the move
// sequence — and the final partition — is bit-identical, with and without
// boundary tracking on the Eval.
func TestRefineWorkersBitIdentical(t *testing.T) {
	g := gen.Mesh(800, 23)
	rng := rand.New(rand.NewSource(24))
	start := partition.RandomBalanced(g.NumNodes(), 4, rng)

	type variant struct {
		name    string
		tracked bool
	}
	for _, vr := range []variant{{"tracked", true}, {"untracked", false}} {
		run := func(workers int) (*partition.Partition, float64) {
			p := start.Clone()
			var ev *partition.Eval
			if vr.tracked {
				ev = partition.NewEvalBoundary(g, p)
			} else {
				ev = partition.NewEval(g, p)
			}
			gain := RefineEval(g, p, ev, Config{Workers: workers})
			return p, gain
		}
		refP, refGain := run(1)
		for _, workers := range []int{2, 4, 8, 0} {
			p, gain := run(workers)
			if gain != refGain {
				t.Fatalf("%s workers=%d: gain %v != %v", vr.name, workers, gain, refGain)
			}
			for v := range p.Assign {
				if p.Assign[v] != refP.Assign[v] {
					t.Fatalf("%s workers=%d: node %d in part %d, reference %d",
						vr.name, workers, v, p.Assign[v], refP.Assign[v])
				}
			}
		}
	}
}
