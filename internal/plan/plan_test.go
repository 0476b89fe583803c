package plan

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSequenceIsPermutation(t *testing.T) {
	s := NewSequence(42, 1000, 32, 4)
	seen := make([]bool, 1000)
	for _, i := range s.Perm() {
		if i < 0 || i >= 1000 || seen[i] {
			t.Fatalf("not a permutation at %d", i)
		}
		seen[i] = true
	}
	if s.Len() != 1000 || s.Seed() != 42 {
		t.Fatal("accessors")
	}
}

func TestSequenceDeterministicAcrossNodes(t *testing.T) {
	a := NewSequence(7, 500, 32, 8)
	b := NewSequence(7, 500, 32, 8)
	for i := range a.Perm() {
		if a.Perm()[i] != b.Perm()[i] {
			t.Fatal("same seed diverged")
		}
	}
	c := NewSequence(8, 500, 32, 8)
	same := true
	for i := range a.Perm() {
		if a.Perm()[i] != c.Perm()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestBatches(t *testing.T) {
	s := NewSequence(1, 100, 32, 1)
	if s.NumBatches() != 4 { // 32+32+32+4
		t.Fatalf("NumBatches = %d", s.NumBatches())
	}
	if len(s.Batch(0)) != 32 || len(s.Batch(3)) != 4 {
		t.Fatalf("batch sizes %d %d", len(s.Batch(0)), len(s.Batch(3)))
	}
	if s.Batch(4) != nil {
		t.Fatal("batch past end")
	}
	empty := NewSequence(1, 0, 32, 1)
	if empty.NumBatches() != 0 {
		t.Fatal("empty epoch")
	}
}

func TestNodeBatchPartitionsBatch(t *testing.T) {
	s := NewSequence(3, 640, 32, 4)
	for b := 0; b < s.NumBatches(); b++ {
		var union []int
		for node := 0; node < 4; node++ {
			union = append(union, s.NodeBatch(node, b)...)
		}
		batch := s.Batch(b)
		if len(union) != len(batch) {
			t.Fatalf("batch %d: union %d vs batch %d", b, len(union), len(batch))
		}
		for i := range batch {
			if union[i] != batch[i] {
				t.Fatalf("batch %d element %d differs", b, i)
			}
		}
	}
	if s.NodeBatch(-1, 0) != nil || s.NodeBatch(4, 0) != nil {
		t.Fatal("out-of-range node")
	}
}

func TestDefaults(t *testing.T) {
	s := NewSequence(1, 10, 0, 0)
	if s.batchSize != 32 || s.nodes != 1 {
		t.Fatal("defaults not applied")
	}
}

// Property: for any (n, batch, nodes) the node batches partition the
// permutation exactly.
func TestNodeBatchPartitionProperty(t *testing.T) {
	f := func(nRaw uint16, bRaw, nodesRaw uint8, seed int64) bool {
		n := int(nRaw % 2000)
		batch := int(bRaw%63) + 1
		nodes := int(nodesRaw%16) + 1
		s := NewSequence(seed, n, batch, nodes)
		seen := make([]bool, n)
		count := 0
		for b := 0; b < s.NumBatches(); b++ {
			for node := 0; node < nodes; node++ {
				for _, i := range s.NodeBatch(node, b) {
					if seen[i] {
						return false
					}
					seen[i] = true
					count++
				}
			}
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func makeLayout(sizes []int, nodes int, chunk int64) *Layout {
	return SequentialLayout(sizes, func(i int) int { return i % nodes }, nodes, chunk)
}

func TestSequentialLayoutValid(t *testing.T) {
	sizes := make([]int, 100)
	for i := range sizes {
		sizes[i] = 1000 + i
	}
	l := makeLayout(sizes, 4, 256<<10)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Offsets ascend contiguously per node.
	for _, ps := range l.NodeSamples {
		var off int64
		for _, p := range ps {
			if p.Offset != off {
				t.Fatalf("gap at %d vs %d", p.Offset, off)
			}
			off += int64(p.Len)
		}
	}
}

func TestValidateCatchesBadLayouts(t *testing.T) {
	l := &Layout{ChunkSize: 0, NodeSamples: [][]Placed{{}}}
	if l.Validate() == nil {
		t.Fatal("zero chunk size accepted")
	}
	l = &Layout{ChunkSize: 100, NodeSamples: [][]Placed{{{Sample: 0, Offset: 0, Len: 10}, {Sample: 1, Offset: 5, Len: 10}}}}
	if l.Validate() == nil {
		t.Fatal("overlap accepted")
	}
	l = &Layout{ChunkSize: 100, NodeSamples: [][]Placed{{{Sample: 0, Offset: 0, Len: 0}}}}
	if l.Validate() == nil {
		t.Fatal("zero length accepted")
	}
}

func TestChunkPlanCoversEverySampleOnce(t *testing.T) {
	sizes := make([]int, 500)
	rng := rand.New(rand.NewSource(5))
	for i := range sizes {
		sizes[i] = 100 + rng.Intn(5000)
	}
	l := makeLayout(sizes, 3, 8192)
	cp, err := BuildChunkPlan(l)
	if err != nil {
		t.Fatal(err)
	}
	if cp.NumSamples() != 500 {
		t.Fatalf("plan covers %d of 500", cp.NumSamples())
	}
	seen := make([]bool, 500)
	mark := func(i int) {
		if seen[i] {
			t.Fatalf("sample %d planned twice", i)
		}
		seen[i] = true
	}
	for _, c := range cp.Chunks {
		for _, p := range c.Samples {
			mark(p.Sample)
			// Fully inside the chunk.
			if p.Offset < c.Offset || p.Offset+int64(p.Len) > c.Offset+int64(c.Length) {
				t.Fatalf("sample %d not inside its chunk", p.Sample)
			}
		}
		if c.FirstSample != c.Samples[0].Sample {
			t.Fatalf("FirstSample mismatch on chunk %d", c.Index)
		}
	}
	for _, e := range cp.Edges {
		mark(e.Placed.Sample)
		// Truly straddles a boundary.
		first := e.Placed.Offset / cp.ChunkSize
		last := (e.Placed.Offset + int64(e.Placed.Len) - 1) / cp.ChunkSize
		if first == last {
			t.Fatalf("edge sample %d does not straddle", e.Placed.Sample)
		}
	}
}

func TestChunkPlanBytesFetched(t *testing.T) {
	// 4 samples of 100B in 256B chunks on one node: samples at 0,100,200
	// (200..300 straddles), 300..400 (in chunk 1).
	l := makeLayout([]int{100, 100, 100, 100}, 1, 256)
	cp, err := BuildChunkPlan(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Edges) != 1 || cp.Edges[0].Placed.Sample != 2 {
		t.Fatalf("edges: %+v", cp.Edges)
	}
	// chunk0 holds samples 0,1; chunk1 holds sample 3.
	if len(cp.Chunks) != 2 {
		t.Fatalf("chunks: %d", len(cp.Chunks))
	}
	want := int64(256 + 256 + 100)
	if cp.BytesFetched() != want {
		t.Fatalf("BytesFetched = %d, want %d", cp.BytesFetched(), want)
	}
}

func TestEmissionOrderIsPermutation(t *testing.T) {
	sizes := make([]int, 300)
	rng := rand.New(rand.NewSource(9))
	for i := range sizes {
		sizes[i] = 50 + rng.Intn(3000)
	}
	l := makeLayout(sizes, 2, 4096)
	cp, _ := BuildChunkPlan(l)
	order := cp.EmissionOrder(77)
	if len(order) != 300 {
		t.Fatalf("order len %d", len(order))
	}
	seen := make([]bool, 300)
	for _, i := range order {
		if seen[i] {
			t.Fatalf("sample %d emitted twice", i)
		}
		seen[i] = true
	}
	// Deterministic per seed, different across seeds.
	again := cp.EmissionOrder(77)
	for i := range order {
		if order[i] != again[i] {
			t.Fatal("same seed diverged")
		}
	}
	other := cp.EmissionOrder(78)
	same := true
	for i := range order {
		if order[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestEmissionOrderIsShuffled(t *testing.T) {
	// The emitted order must not be the identity (that would mean no
	// randomisation at all): count fixed points, expect few.
	sizes := make([]int, 1000)
	for i := range sizes {
		sizes[i] = 100
	}
	l := makeLayout(sizes, 4, 1000)
	cp, _ := BuildChunkPlan(l)
	order := cp.EmissionOrder(1)
	fixed := 0
	for i, s := range order {
		if i == s {
			fixed++
		}
	}
	if fixed > 100 {
		t.Fatalf("%d fixed points in 1000: insufficient shuffling", fixed)
	}
}

// Property: any layout's chunk plan covers each sample exactly once and
// the emission order is a permutation of the planned samples.
func TestChunkPlanCoverageProperty(t *testing.T) {
	f := func(sizesRaw []uint16, nodesRaw uint8, seed int64) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		nodes := int(nodesRaw%4) + 1
		sizes := make([]int, len(sizesRaw))
		for i, s := range sizesRaw {
			sizes[i] = int(s%4000) + 1
		}
		l := makeLayout(sizes, nodes, 2048)
		cp, err := BuildChunkPlan(l)
		if err != nil {
			return false
		}
		if cp.NumSamples() != len(sizes) {
			return false
		}
		order := cp.EmissionOrder(seed)
		seen := make([]bool, len(sizes))
		for _, i := range order {
			if i < 0 || i >= len(sizes) || seen[i] {
				return false
			}
			seen[i] = true
		}
		return len(order) == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: on any back-to-back layout the chunk spans plus the edge
// samples are the samples' bytes and nothing else: every sample lies in
// exactly one of them, they are pairwise disjoint, their lengths sum to
// the sample bytes, and each span stays inside its grid cell.
func TestChunkSpansCoverSampleBytesExactly(t *testing.T) {
	f := func(sizesRaw []uint16, nodesRaw uint8, chunkRaw uint8) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		nodes := int(nodesRaw%4) + 1
		chunk := int64(512) << (chunkRaw % 4) // 512 B .. 4 KiB against samples of 1 .. 4000 B
		sizes := make([]int, len(sizesRaw))
		var sampleBytes int64
		for i, s := range sizesRaw {
			sizes[i] = int(s%4000) + 1
			sampleBytes += int64(sizes[i])
		}
		cp, err := BuildChunkPlan(makeLayout(sizes, nodes, chunk))
		if err != nil {
			return false
		}
		type rng struct{ off, end int64 }
		perNode := make([][]rng, nodes)
		covered := make([]int, len(sizes))
		var total int64
		for i := range cp.Chunks {
			c := &cp.Chunks[i]
			off, n := c.Span()
			if off < c.Offset || off+int64(n) > c.Offset+int64(c.Length) {
				return false // span leaves its grid cell
			}
			for _, p := range c.Samples {
				if p.Offset < off || p.Offset+int64(p.Len) > off+int64(n) {
					return false // a complete sample outside its chunk's span
				}
				covered[p.Sample]++
			}
			perNode[c.Node] = append(perNode[c.Node], rng{off, off + int64(n)})
			total += int64(n)
		}
		for _, e := range cp.Edges {
			covered[e.Placed.Sample]++
			perNode[e.Node] = append(perNode[e.Node], rng{e.Placed.Offset, e.Placed.Offset + int64(e.Placed.Len)})
			total += int64(e.Placed.Len)
		}
		for _, n := range covered {
			if n != 1 {
				return false
			}
		}
		for _, rs := range perNode {
			sort.Slice(rs, func(i, j int) bool { return rs[i].off < rs[j].off })
			for i := 1; i < len(rs); i++ {
				if rs[i].off < rs[i-1].end {
					return false // two fetch ranges overlap
				}
			}
		}
		return total == sampleBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkCommandReduction(t *testing.T) {
	// The headline of chunk batching: the number of device commands for an
	// epoch of small samples drops by ~chunkSize/sampleSize.
	sizes := make([]int, 10000)
	for i := range sizes {
		sizes[i] = 512
	}
	l := makeLayout(sizes, 1, 256<<10)
	cp, _ := BuildChunkPlan(l)
	commands := len(cp.Chunks) + len(cp.Edges)
	if commands > 10000/400 {
		t.Fatalf("%d commands for 10000 512B samples; batching ineffective", commands)
	}
}
