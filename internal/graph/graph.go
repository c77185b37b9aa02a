package graph

// Undirected is an undirected graph over the vertices 0..n-1 with explicit
// adjacency lists. Parallel edges are tolerated (they do not affect any of
// the computations here); self-loops are ignored.
type Undirected struct {
	adj [][]int
}

// NewUndirected returns an empty undirected graph on n vertices.
func NewUndirected(n int) *Undirected {
	return &Undirected{adj: make([][]int, n)}
}

// Len returns the number of vertices.
func (g *Undirected) Len() int { return len(g.adj) }

// AddEdge adds the undirected edge {u, v}. Self-loops are silently dropped.
func (g *Undirected) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// Connected reports whether the graph is connected. The empty graph and the
// single-vertex graph are connected.
func (g *Undirected) Connected() bool {
	n := len(g.adj)
	if n <= 1 {
		return true
	}
	return len(g.Component(0)) == n
}

// Component returns the vertices reachable from src (including src) in BFS
// order.
func (g *Undirected) Component(src int) []int {
	seen := make([]bool, len(g.adj))
	queue := []int{src}
	seen[src] = true
	var out []int
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		out = append(out, u)
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return out
}

// Components returns the connected components, each as a slice of vertices
// in BFS order, ordered by smallest contained vertex.
func (g *Undirected) Components() [][]int {
	seen := make([]bool, len(g.adj))
	var comps [][]int
	for s := range g.adj {
		if seen[s] {
			continue
		}
		comp := g.Component(s)
		for _, v := range comp {
			seen[v] = true
		}
		comps = append(comps, comp)
	}
	return comps
}

// Diameter returns the largest finite BFS distance between any pair of
// vertices, and whether the graph is connected. For a disconnected graph the
// returned diameter is the maximum over components.
//
// The all-pairs sweep first compacts the adjacency lists into flat CSR
// arrays and then reuses one distance array and one queue across the n BFS
// passes, so the per-source cost is a cache-friendly linear scan with no
// allocation.
func (g *Undirected) Diameter() (int, bool) {
	n := len(g.adj)
	if n == 0 {
		return 0, true
	}
	// CSR compaction of the adjacency lists.
	start := make([]int32, n+1)
	for u, nbrs := range g.adj {
		start[u+1] = start[u] + int32(len(nbrs))
	}
	flat := make([]int32, start[n])
	for u, nbrs := range g.adj {
		at := start[u]
		for i, v := range nbrs {
			flat[at+int32(i)] = int32(v)
		}
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	maxd := 0
	connected := true
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], int32(s))
		reached := 1
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			du := dist[u]
			for _, v := range flat[start[u]:start[u+1]] {
				if dist[v] < 0 {
					dist[v] = du + 1
					if int(du)+1 > maxd {
						maxd = int(du) + 1
					}
					reached++
					queue = append(queue, v)
				}
			}
		}
		if reached < n {
			connected = false
		}
	}
	return maxd, connected
}

// Path returns a shortest path from src to dst (inclusive), or nil if dst is
// unreachable.
func (g *Undirected) Path(src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	prev := make([]int, len(g.adj))
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if prev[v] >= 0 {
				continue
			}
			prev[v] = u
			if v == dst {
				var rev []int
				for w := dst; w != src; w = prev[w] {
					rev = append(rev, w)
				}
				rev = append(rev, src)
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
			queue = append(queue, v)
		}
	}
	return nil
}
