// Package bufpool provides pooled byte buffers for the live data path.
// The paper's pipeline never allocates per command: payloads land in
// pre-registered huge-page chunks and transient frames are recycled. This
// pool reproduces that discipline for the Go transport — buffers are
// handed out from power-of-two size classes backed by sync.Pool, so the
// steady-state hot path performs no heap allocation and generates no
// garbage.
//
// That includes the pool's own bookkeeping. A sync.Pool holds interface
// values, and putting a slice into one boxes its 24-byte header on the
// heap: an allocation per recycled buffer. A class only ever holds
// buffers of its own capacity, so the pool stores the pointer to a
// buffer's first byte, which an interface carries without boxing, and Get
// rebuilds the slice from it and the class size. The classes stay
// sync.Pools, so the GC still drains what a quiet phase leaves behind.
// (The alternative, recycling the boxes through a second sync.Pool, also
// allocates nothing but doubles the pool operations: 34 ns against 16 ns
// per Get+Put pair when the two were benchmarked side by side, DESIGN.md
// §9.)
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// minClassBits is the smallest pooled class (512 B): anything smaller
	// still rounds up to it, keeping class count low.
	minClassBits = 9
	// maxClassBits is the largest pooled class (4 MiB); larger requests
	// fall through to plain allocation.
	maxClassBits = 22
	numClasses   = maxClassBits - minClassBits + 1
)

// Pool hands out byte slices of at least the requested length from
// power-of-two size classes. The zero value is not usable; call New.
type Pool struct {
	classes [numClasses]sync.Pool
	hits    atomic.Int64
	misses  atomic.Int64
	puts    atomic.Int64
}

// New returns an empty pool. The per-class sync.Pools have no New hook:
// an empty class returns nil from Get, which is how misses are counted.
func New() *Pool {
	return &Pool{}
}

// Shared is the process-wide pool used for transport-internal scratch
// buffers (frame payloads, drain space). Data-path owners that want
// isolated hit-rate accounting create their own Pool.
var Shared = New()

// classFor returns the class index for n, or -1 when n is out of the
// pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxClassBits {
		return -1
	}
	c := bits.Len(uint(n-1)) - minClassBits
	if c < 0 {
		c = 0
	}
	return c
}

// Get returns a slice of length n. Lengths above the largest class are
// served by plain allocation and are not recycled by Put.
func (p *Pool) Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		p.misses.Add(1)
		return make([]byte, n)
	}
	if v := p.classes[c].Get(); v != nil {
		p.hits.Add(1)
		return unsafe.Slice(v.(*byte), 1<<(minClassBits+c))[:n]
	}
	p.misses.Add(1)
	return make([]byte, 1<<(minClassBits+c))[:n]
}

// Put recycles a buffer previously returned by Get. Buffers whose
// capacity is not an exact pooled class size (foreign slices, oversized
// allocations) are dropped for the GC.
func (p *Pool) Put(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 || c < 1<<minClassBits || c > 1<<maxClassBits {
		return
	}
	p.puts.Add(1)
	p.classes[classFor(c)].Put(unsafe.SliceData(b))
}

// Stats reports pool traffic: hits (Get served from the pool), misses
// (Get that allocated) and puts (buffers recycled).
func (p *Pool) Stats() (hits, misses, puts int64) {
	return p.hits.Load(), p.misses.Load(), p.puts.Load()
}

// HitRate returns hits/(hits+misses), or 0 before any traffic.
func (p *Pool) HitRate() float64 {
	h, m, _ := p.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
