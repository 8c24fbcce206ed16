// Package graph provides the directed user graph of Section 4.1.1: nodes
// are micro-blog users and an edge (u → v) records that u has retweeted v
// at least once. Each ordered pair is linked "once and only once" as the
// paper specifies, so the graph is simple (no duplicate edges); self-loops
// are rejected since a user quoting themselves carries no authority signal.
//
// The graph is append-only and optimized for the two consumers in this
// repository: ranking algorithms (internal/rank) that need forward and
// reverse adjacency, and corpus statistics.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is a simple directed graph over string-identified users.
type Graph struct {
	ids     map[string]int  // user → dense index
	names   []string        // dense index → user
	out     [][]int         // adjacency: out[u] lists v with edge u→v
	in      [][]int         // reverse adjacency
	edgeSet map[[2]int]bool // dedup: the paper links each pair exactly once
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		ids:     make(map[string]int),
		edgeSet: make(map[[2]int]bool),
	}
}

// ErrSelfLoop reports an attempted self-retweet edge.
var ErrSelfLoop = errors.New("graph: self-loop rejected")

// AddNode ensures user exists as a node and returns its dense index.
func (g *Graph) AddNode(user string) int {
	if idx, ok := g.ids[user]; ok {
		return idx
	}
	idx := len(g.names)
	g.ids[user] = idx
	g.names = append(g.names, user)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return idx
}

// AddEdge records that from retweeted to. Duplicate pairs are ignored
// (linked once and only once); self-loops return ErrSelfLoop.
func (g *Graph) AddEdge(from, to string) error {
	if from == to {
		return fmt.Errorf("%w: %q", ErrSelfLoop, from)
	}
	u := g.AddNode(from)
	v := g.AddNode(to)
	key := [2]int{u, v}
	if g.edgeSet[key] {
		return nil
	}
	g.edgeSet[key] = true
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	return nil
}

// NumNodes returns the number of users.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges returns the number of distinct retweet-relationship pairs.
func (g *Graph) NumEdges() int { return len(g.edgeSet) }

// Name returns the user name of a dense index.
func (g *Graph) Name(idx int) string { return g.names[idx] }

// Index returns the dense index for a user and whether it exists.
func (g *Graph) Index(user string) (int, bool) {
	idx, ok := g.ids[user]
	return idx, ok
}

// OutNeighbors returns the dense indices u links to (users u retweeted).
// The returned slice is shared; callers must not modify it.
func (g *Graph) OutNeighbors(u int) []int { return g.out[u] }

// InNeighbors returns the dense indices linking to v (users who retweeted
// v). The returned slice is shared; callers must not modify it.
func (g *Graph) InNeighbors(v int) []int { return g.in[v] }

// OutDegree returns the number of distinct users u retweeted.
func (g *Graph) OutDegree(u int) int { return len(g.out[u]) }

// InDegree returns the number of distinct users who retweeted v. High
// in-degree signals authority (§4.1.1: "the more a user's tweets are
// retweeted by other users, the more authoritative or influential the user
// is").
func (g *Graph) InDegree(v int) int { return len(g.in[v]) }

// Stats summarises graph shape; used by the experiment reports to verify
// the synthetic corpus preserves the power-law structure the paper relies
// on.
type Stats struct {
	Nodes       int
	Edges       int
	MaxInDegree int
	// InDegreeP50, InDegreeP90, InDegreeP99 are percentiles of the
	// in-degree distribution.
	InDegreeP50 int
	InDegreeP90 int
	InDegreeP99 int
	// Dangling counts nodes with no outgoing edges (PageRank sinks).
	Dangling int
}

// ComputeStats derives summary statistics for the graph.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	if s.Nodes == 0 {
		return s
	}
	degrees := make([]int, s.Nodes)
	for v := 0; v < s.Nodes; v++ {
		degrees[v] = g.InDegree(v)
		if degrees[v] > s.MaxInDegree {
			s.MaxInDegree = degrees[v]
		}
		if g.OutDegree(v) == 0 {
			s.Dangling++
		}
	}
	sort.Ints(degrees)
	pct := func(p float64) int {
		i := int(p * float64(len(degrees)-1))
		return degrees[i]
	}
	s.InDegreeP50 = pct(0.50)
	s.InDegreeP90 = pct(0.90)
	s.InDegreeP99 = pct(0.99)
	return s
}
