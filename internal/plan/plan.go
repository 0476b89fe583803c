// Package plan holds the pure planning logic behind DLFS's opportunistic
// batching optimisations (paper §III-D), shared by the simulated and live
// file systems and by the training-accuracy experiment:
//
//   - Sample-level batching: a seeded global random sample sequence that
//     every node generates identically (no coordination traffic), cut into
//     mini-batches with a per-node slice of each batch.
//   - Chunk-level batching: the dataset, as laid out on each device, is
//     cut into fixed-size data chunks; samples that straddle a chunk
//     boundary become edge samples. A chunk access list and an edge-sample
//     access list drive the reads, and the emission order interleaves
//     random chunk cursors exactly as the paper's copy threads do.
package plan

import (
	"fmt"
	"math/rand"
)

// Sequence is the seeded global sample order for sample-level batching.
type Sequence struct {
	seed      int64
	perm      []int
	batchSize int
	nodes     int
}

// NewSequence builds the global permutation of numSamples sample indices
// for the given seed, to be consumed in mini-batches of batchSize split
// across nodes. Every node calling this with the same arguments gets the
// identical sequence — the point of dlfs_sequence.
func NewSequence(seed int64, numSamples, batchSize, nodes int) *Sequence {
	if batchSize <= 0 {
		batchSize = 32
	}
	if nodes <= 0 {
		nodes = 1
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(numSamples)
	return &Sequence{seed: seed, perm: perm, batchSize: batchSize, nodes: nodes}
}

// Seed returns the generating seed.
func (s *Sequence) Seed() int64 { return s.seed }

// Len returns the number of samples in the epoch.
func (s *Sequence) Len() int { return len(s.perm) }

// Perm returns the full global order (do not mutate).
func (s *Sequence) Perm() []int { return s.perm }

// NumBatches returns the number of mini-batches in the epoch (the final
// one may be short).
func (s *Sequence) NumBatches() int {
	if len(s.perm) == 0 {
		return 0
	}
	return (len(s.perm) + s.batchSize - 1) / s.batchSize
}

// Batch returns global mini-batch b.
func (s *Sequence) Batch(b int) []int {
	lo := b * s.batchSize
	if lo >= len(s.perm) {
		return nil
	}
	hi := lo + s.batchSize
	if hi > len(s.perm) {
		hi = len(s.perm)
	}
	return s.perm[lo:hi]
}

// NodeBatch returns the portion of mini-batch b that node reads: an equal
// contiguous slice of the batch ("every node only reads its assigned
// portion on the list for the current mini-batch").
func (s *Sequence) NodeBatch(node, b int) []int {
	batch := s.Batch(b)
	n := len(batch)
	if n == 0 || node < 0 || node >= s.nodes {
		return nil
	}
	lo := n * node / s.nodes
	hi := n * (node + 1) / s.nodes
	return batch[lo:hi]
}

// Placed records where one sample landed on a device during mount.
type Placed struct {
	Sample int   // dataset sample index
	Offset int64 // byte offset on the owning node's device
	Len    int32
}

// Layout is the physical placement of a dataset across storage nodes:
// NodeSamples[nid] lists that node's samples in ascending device offset.
type Layout struct {
	NodeSamples [][]Placed
	ChunkSize   int64
}

// Validate checks offsets are ascending and non-overlapping per node.
func (l *Layout) Validate() error {
	if l.ChunkSize <= 0 {
		return fmt.Errorf("plan: non-positive chunk size %d", l.ChunkSize)
	}
	for nid, ps := range l.NodeSamples {
		var prevEnd int64
		for i, p := range ps {
			if p.Offset < prevEnd {
				return fmt.Errorf("plan: node %d sample %d overlaps previous (off %d < end %d)", nid, i, p.Offset, prevEnd)
			}
			if p.Len <= 0 {
				return fmt.Errorf("plan: node %d sample %d has length %d", nid, i, p.Len)
			}
			prevEnd = p.Offset + int64(p.Len)
		}
	}
	return nil
}

// Chunk is one entry of the data-chunk access list: a fixed-size device
// region and the samples fully contained in it. FirstSample mirrors the
// paper's "key of the first complete sample in the chunk".
type Chunk struct {
	Node        uint16
	Index       int   // chunk number on that node's device
	Offset      int64 // == Index * ChunkSize
	Length      int32 // chunk size, possibly short for the device tail
	Samples     []Placed
	FirstSample int // dataset index of first complete sample; -1 if none
}

// Span returns the byte range of the chunk's complete samples: from the
// first one's offset to the last one's end, always inside the grid cell.
// Samples that a layout places back to back (what dlfs_mount produces)
// make the span exactly the samples' bytes, so a reader that is not
// bound to device blocks fetches it instead of the cell and leaves the
// cell's head and tail, which belong to edge samples, to the edge list.
// Offset and Length stay the cell: that is what a block-aligned device
// read moves, what the simulator costs and what BytesFetched sums.
func (c *Chunk) Span() (off int64, n int32) {
	first, last := c.Samples[0], c.Samples[len(c.Samples)-1]
	return first.Offset, int32(last.Offset + int64(last.Len) - first.Offset)
}

// Edge is one entry of the edge-sample access list: a sample crossing a
// chunk boundary, read individually.
type Edge struct {
	Node   uint16
	Placed Placed
}

// ChunkPlan is the result of cutting a layout into chunks.
type ChunkPlan struct {
	ChunkSize int64
	Chunks    []Chunk // only chunks containing at least one full sample
	Edges     []Edge
}

// NumSamples counts all samples covered (full + edge).
func (cp *ChunkPlan) NumSamples() int {
	n := len(cp.Edges)
	for _, c := range cp.Chunks {
		n += len(c.Samples)
	}
	return n
}

// BytesFetched returns the total bytes the plan reads from devices in one
// epoch: whole chunks plus edge samples — the I/O amplification the
// chunk-batching trade-off accepts in exchange for fewer commands.
func (cp *ChunkPlan) BytesFetched() int64 {
	var total int64
	for _, c := range cp.Chunks {
		total += int64(c.Length)
	}
	for _, e := range cp.Edges {
		total += int64(e.Placed.Len)
	}
	return total
}

// BuildChunkPlan cuts the layout into the chunk and edge access lists.
// A chunk's complete samples are consecutive in its node's list (only an
// edge sample can separate two chunks' runs), so Chunk.Samples is a
// sub-slice of l.NodeSamples, not a copy: the layout must not be
// modified while the plan is in use.
func BuildChunkPlan(l *Layout) (*ChunkPlan, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	cp := &ChunkPlan{ChunkSize: l.ChunkSize}
	cs := l.ChunkSize
	for nid, ps := range l.NodeSamples {
		start := -1 // ps[start:i] is the open chunk's run of complete samples; -1: none open
		var index int64
		closeChunk := func(end int) {
			if start < 0 {
				return
			}
			cp.Chunks = append(cp.Chunks, Chunk{
				Node:        uint16(nid),
				Index:       int(index),
				Offset:      index * cs,
				Length:      int32(cs),
				Samples:     ps[start:end:end],
				FirstSample: ps[start].Sample,
			})
			start = -1
		}
		for i, p := range ps {
			first := p.Offset / cs
			last := (p.Offset + int64(p.Len) - 1) / cs
			if first != last {
				closeChunk(i)
				cp.Edges = append(cp.Edges, Edge{Node: uint16(nid), Placed: p})
				continue
			}
			if index != first {
				closeChunk(i)
			}
			if start < 0 {
				start, index = i, first
			}
		}
		closeChunk(len(ps))
	}
	return cp, nil
}

// EmissionOrder reproduces the copy threads' random selection (§III-D2,
// Fig 5b): cursors over every chunk's sample list and over the edge list
// advance as a random non-empty cursor is picked each step. The result is
// a cover of every planned sample exactly once — DLFS-determined
// randomness rather than application-determined.
func (cp *ChunkPlan) EmissionOrder(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	type cursor struct {
		samples []Placed
		next    int
	}
	cursors := make([]*cursor, 0, len(cp.Chunks)+1)
	for i := range cp.Chunks {
		if len(cp.Chunks[i].Samples) > 0 {
			cursors = append(cursors, &cursor{samples: cp.Chunks[i].Samples})
		}
	}
	if len(cp.Edges) > 0 {
		es := make([]Placed, len(cp.Edges))
		for i, e := range cp.Edges {
			es[i] = e.Placed
		}
		cursors = append(cursors, &cursor{samples: es})
	}
	out := make([]int, 0, cp.NumSamples())
	live := len(cursors)
	for live > 0 {
		k := rng.Intn(live)
		c := cursors[k]
		out = append(out, c.samples[c.next].Sample)
		c.next++
		if c.next == len(c.samples) {
			cursors[k] = cursors[live-1]
			live--
		}
	}
	return out
}

// SequentialLayout places each node's samples back to back from offset 0,
// the placement dlfs_mount produces when uploading a shard; shardOf maps
// each sample index to its storage node and sizes gives sample sizes.
func SequentialLayout(sizes []int, nodeOf func(i int) int, nodes int, chunkSize int64) *Layout {
	l := &Layout{NodeSamples: make([][]Placed, nodes), ChunkSize: chunkSize}
	offs := make([]int64, nodes)
	for i, sz := range sizes {
		nid := nodeOf(i)
		l.NodeSamples[nid] = append(l.NodeSamples[nid], Placed{Sample: i, Offset: offs[nid], Len: int32(sz)})
		offs[nid] += int64(sz)
	}
	return l
}
