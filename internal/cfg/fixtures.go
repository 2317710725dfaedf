package cfg

// Figure1 builds the loop-free CFG of Figure 1 of the paper. The figure gives
// per-block execution-time intervals [emin,emax] (part a) and the resulting
// earliest/latest start offsets [smin,smax] (part b). The topology below was
// reconstructed so that the offset analysis reproduces every printed value:
//
//	block  exec       offsets
//	b0     [15,25]    [0,0]
//	b1     [15,35]    [15,25]
//	b2     [20,40]    [15,25]
//	b3     [20,30]    [30,65]
//	b4     [5,5]      [50,95]
//	b5     [10,10]    [55,100]
//	b6     [15,25]    [55,100]
//	b7     [40,50]    [65,125]
//	b8     [10,20]    [50,95]
//	b9     [5,5]      [60,175]
//	b10    [15,25]    [65,180]
//
// Edges: 0->{1,2}; {1,2}->3; 3->{4,8}; 4->{5,6}; {5,6}->7; {7,8}->9; 9->10.
func Figure1() *Graph {
	g := New()
	ids := make([]BlockID, 11)
	intervals := [][2]float64{
		{15, 25}, // 0
		{15, 35}, // 1
		{20, 40}, // 2
		{20, 30}, // 3
		{5, 5},   // 4
		{10, 10}, // 5
		{15, 25}, // 6
		{40, 50}, // 7
		{10, 20}, // 8
		{5, 5},   // 9
		{15, 25}, // 10
	}
	for i, iv := range intervals {
		ids[i] = g.AddSimple("", iv[0], iv[1])
	}
	edges := [][2]int{
		{0, 1}, {0, 2},
		{1, 3}, {2, 3},
		{3, 4}, {3, 8},
		{4, 5}, {4, 6},
		{5, 7}, {6, 7},
		{7, 9}, {8, 9},
		{9, 10},
	}
	for _, e := range edges {
		g.MustEdge(ids[e[0]], ids[e[1]])
	}
	return g
}

// Figure1Offsets lists the expected [smin, smax] start offsets of Figure 1,
// indexed by block, for use in tests and the demo binary.
func Figure1Offsets() [][2]float64 {
	return [][2]float64{
		{0, 0},
		{15, 25},
		{15, 25},
		{30, 65},
		{50, 95},
		{55, 100},
		{55, 100},
		{65, 125},
		{50, 95},
		{60, 175},
		{65, 180},
	}
}

// SimpleLoop builds entry -> header -> body -> header (back edge), header ->
// exit, with the given iteration bound — the smallest natural-loop fixture.
func SimpleLoop(bound Bound) *Graph {
	g := New()
	entry := g.AddSimple("entry", 1, 2)
	header := g.AddSimple("header", 1, 1)
	body := g.AddSimple("body", 3, 5)
	exit := g.AddSimple("exit", 2, 2)
	g.MustEdge(entry, header)
	g.MustEdge(header, body)
	g.MustEdge(body, header)
	g.MustEdge(header, exit)
	g.LoopBounds[header] = bound
	return g
}
