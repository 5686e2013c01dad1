package netsim

import (
	"fmt"
	"math"
	"testing"
)

func paGraph(t *testing.T, n, m int, seed int64) (*Network, *ASGraph) {
	t.Helper()
	nw := NewNetwork(seed)
	g := nw.BuildPreferentialAttachment(PreferentialAttachmentConfig{
		N: n, M: m,
		Link: LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64},
		Seed: seed,
	})
	return nw, g
}

// degreeSlope fits the log-log slope of the degree CCDF by least
// squares over the degrees ≥ m.
func degreeSlope(g *ASGraph, minDeg int) float64 {
	deg := map[NodeID]int{}
	for _, e := range g.Edges {
		deg[e.A.ID]++
		deg[e.B.ID]++
	}
	// CCDF: fraction of nodes with degree ≥ k.
	maxDeg := 0
	hist := map[int]int{}
	for _, d := range deg {
		hist[d]++
		if d > maxDeg {
			maxDeg = d
		}
	}
	n := float64(len(g.Nodes))
	var xs, ys []float64
	ge := 0.0
	for k := maxDeg; k >= minDeg; k-- {
		ge += float64(hist[k])
		if hist[k] == 0 {
			continue
		}
		xs = append(xs, math.Log(float64(k)))
		ys = append(ys, math.Log(ge/n))
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	m := float64(len(xs))
	return (m*sxy - sx*sy) / (m*sxx - sx*sx)
}

func TestPreferentialAttachmentPowerLaw(t *testing.T) {
	_, g := paGraph(t, 3000, 2, 42)
	if len(g.Nodes) != 3000 {
		t.Fatalf("node count %d", len(g.Nodes))
	}
	// 3 clique edges + 2 per arriving node.
	if want := 3 + 2*(3000-3); len(g.Edges) != want {
		t.Fatalf("edge count %d, want %d", len(g.Edges), want)
	}
	// A BA graph's degree CCDF falls as k^-(γ-1) with γ ≈ 3; accept a
	// broad band around it — the point is heavy-tailed, not Poisson (an
	// Erdős–Rényi graph at this density fits steeper than -4).
	slope := degreeSlope(g, 2)
	if slope > -1.2 || slope < -3.5 {
		t.Fatalf("degree CCDF slope %.2f outside the power-law band [-3.5, -1.2]", slope)
	}
}

func TestPreferentialAttachmentConnectivity(t *testing.T) {
	_, g := paGraph(t, 500, 1, 7) // M=1 is the sparsest, hardest case
	adj := map[NodeID][]NodeID{}
	for _, e := range g.Edges {
		adj[e.A.ID] = append(adj[e.A.ID], e.B.ID)
		adj[e.B.ID] = append(adj[e.B.ID], e.A.ID)
	}
	seen := map[NodeID]bool{g.Nodes[0].ID: true}
	queue := []NodeID{g.Nodes[0].ID}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(seen) != len(g.Nodes) {
		t.Fatalf("graph disconnected: reached %d of %d", len(seen), len(g.Nodes))
	}
}

// relationAcyclic verifies the provider→customer edges form a DAG via
// iterative DFS three-coloring.
func relationAcyclic(t *testing.T, g *ASGraph) {
	t.Helper()
	succ := map[NodeID][]NodeID{} // provider → customers
	for _, e := range g.Edges {
		if e.Rel == EdgeProviderCustomer {
			succ[e.A.ID] = append(succ[e.A.ID], e.B.ID)
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[NodeID]int{}
	for _, start := range g.Nodes {
		if color[start.ID] != white {
			continue
		}
		type frame struct {
			id NodeID
			i  int
		}
		stack := []frame{{id: start.ID}}
		color[start.ID] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(succ[f.id]) {
				nb := succ[f.id][f.i]
				f.i++
				switch color[nb] {
				case gray:
					t.Fatalf("provider–customer cycle through AS %d", nb)
				case white:
					color[nb] = gray
					stack = append(stack, frame{id: nb})
				}
				continue
			}
			color[f.id] = black
			stack = stack[:len(stack)-1]
		}
	}
}

func TestProviderCustomerAcyclicity(t *testing.T) {
	_, g := paGraph(t, 800, 2, 11)
	relationAcyclic(t, g)
}

// graphFingerprint renders the labeled edge list; two builds agree iff
// their fingerprints do.
func graphFingerprint(g *ASGraph) string {
	s := ""
	for _, e := range g.Edges {
		s += fmt.Sprintf("%d-%d:%d;", e.A.ID, e.B.ID, e.Rel)
	}
	return s
}

// TestGeneratorsSeedStable: generated topologies are pure functions of
// their configuration — identical across repeated builds (and therefore
// across -jobs values, which the generators never see; the experiment-
// level K-invariance test closes the loop end-to-end).
func TestGeneratorsSeedStable(t *testing.T) {
	_, g1 := paGraph(t, 400, 2, 13)
	_, g2 := paGraph(t, 400, 2, 13)
	if graphFingerprint(g1) != graphFingerprint(g2) {
		t.Fatal("preferential-attachment build not reproducible for a fixed seed")
	}
	_, g3 := paGraph(t, 400, 2, 14)
	if graphFingerprint(g1) == graphFingerprint(g3) {
		t.Fatal("preferential-attachment build ignored the seed")
	}
}
