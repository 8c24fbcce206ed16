package graph

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New()
	if err := g.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("a", "c"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("b", "c"); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d, want 3/3", g.NumNodes(), g.NumEdges())
	}
	a, _ := g.Index("a")
	b, _ := g.Index("b")
	if !slices.Contains(g.OutNeighbors(a), b) || slices.Contains(g.OutNeighbors(b), a) {
		t.Fatal("edge direction broken")
	}
}

func TestAddEdgeDedup(t *testing.T) {
	// §4.1.1: "we link user1 to user2 once and only once for each pair".
	g := New()
	for i := 0; i < 5; i++ {
		if err := g.AddEdge("x", "y"); err != nil {
			t.Fatal(err)
		}
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 after dedup", g.NumEdges())
	}
	idx, _ := g.Index("y")
	if g.InDegree(idx) != 1 {
		t.Fatalf("in-degree = %d, want 1", g.InDegree(idx))
	}
}

func TestSelfLoopRejected(t *testing.T) {
	g := New()
	if err := g.AddEdge("a", "a"); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("err = %v, want ErrSelfLoop", err)
	}
	if g.NumEdges() != 0 {
		t.Fatal("self-loop added an edge")
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := New()
	edges := [][2]string{{"a", "hub"}, {"b", "hub"}, {"c", "hub"}, {"hub", "a"}}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	hub, ok := g.Index("hub")
	if !ok {
		t.Fatal("hub missing")
	}
	if g.InDegree(hub) != 3 {
		t.Fatalf("hub in-degree = %d, want 3", g.InDegree(hub))
	}
	if g.OutDegree(hub) != 1 {
		t.Fatalf("hub out-degree = %d, want 1", g.OutDegree(hub))
	}
	in := g.InNeighbors(hub)
	if len(in) != 3 {
		t.Fatalf("in-neighbors = %v", in)
	}
	names := map[string]bool{}
	for _, u := range in {
		names[g.Name(u)] = true
	}
	for _, want := range []string{"a", "b", "c"} {
		if !names[want] {
			t.Errorf("missing in-neighbor %s", want)
		}
	}
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	i1 := g.AddNode("n")
	i2 := g.AddNode("n")
	if i1 != i2 || g.NumNodes() != 1 {
		t.Fatal("AddNode not idempotent")
	}
}

func TestIndexUnknown(t *testing.T) {
	g := New()
	if _, ok := g.Index("ghost"); ok {
		t.Fatal("unknown node found")
	}
}

func TestComputeStats(t *testing.T) {
	g := New()
	// Star: 10 spokes all pointing at one center.
	for i := 0; i < 10; i++ {
		if err := g.AddEdge(fmt.Sprintf("spoke%d", i), "center"); err != nil {
			t.Fatal(err)
		}
	}
	s := g.ComputeStats()
	if s.Nodes != 11 || s.Edges != 10 {
		t.Fatalf("stats %+v", s)
	}
	if s.MaxInDegree != 10 {
		t.Fatalf("max in-degree = %d, want 10", s.MaxInDegree)
	}
	if s.Dangling != 1 { // only the center has no out-edges
		t.Fatalf("dangling = %d, want 1", s.Dangling)
	}
	if s.InDegreeP50 != 0 {
		t.Fatalf("median in-degree = %d, want 0", s.InDegreeP50)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := New().ComputeStats()
	if s.Nodes != 0 || s.Edges != 0 {
		t.Fatalf("stats of empty graph: %+v", s)
	}
}

// TestComputeStatsDeterministic pins the property the closed-loop
// simulator relies on: a seeded edge stream always yields the same Stats,
// and the Stats are invariant under edge insertion order (they summarise
// the degree multiset, not the node indexing).
func TestComputeStatsDeterministic(t *testing.T) {
	edges := func(seed int64) [][2]string {
		// Small deterministic LCG so this test does not depend on randx.
		state := uint64(seed)
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(n))
		}
		var out [][2]string
		for i := 0; i < 500; i++ {
			u, v := next(60), next(60)
			if u == v {
				continue
			}
			out = append(out, [2]string{fmt.Sprintf("u%d", u), fmt.Sprintf("u%d", v)})
		}
		return out
	}
	build := func(es [][2]string) Stats {
		g := New()
		for _, e := range es {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		return g.ComputeStats()
	}
	es := edges(5)
	s1, s2 := build(es), build(es)
	if s1 != s2 {
		t.Fatalf("same edges produced different stats:\n%+v\n%+v", s1, s2)
	}
	// Reverse insertion order: node indices change, stats must not.
	rev := make([][2]string, len(es))
	for i, e := range es {
		rev[len(es)-1-i] = e
	}
	if s3 := build(rev); s1 != s3 {
		t.Fatalf("insertion order changed stats:\n%+v\n%+v", s1, s3)
	}
}
