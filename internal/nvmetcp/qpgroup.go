package nvmetcp

import (
	"fmt"
	"sync/atomic"

	"dlfs/internal/metrics"
)

// QPGroup drives one target through several reconnecting queue pairs —
// the per-device I/O queue pair fan-out of the paper's §III-C backend
// mapped onto TCP. Commands are striped round-robin across the pairs, so
// one slow or reconnecting connection no longer serialises the target's
// whole chunk stream; each pair recovers independently (its own backoff
// schedule, shared resilience counters). It is safe for concurrent use.
type QPGroup struct {
	forms[*RePending]
	qps  []*Reconnector
	next atomic.Uint64
}

// NewQPGroup dials n queue pairs to addr (n < 1 is treated as 1). Each
// pair gets a distinct jitter seed derived from policy.Seed so their
// backoff schedules do not synchronise. All pairs share counters.
func NewQPGroup(addr string, n int, opt Options, policy RetryPolicy, counters *metrics.Resilience) (*QPGroup, error) {
	if n < 1 {
		n = 1
	}
	g := &QPGroup{qps: make([]*Reconnector, n)}
	g.l = g
	for i := 0; i < n; i++ {
		p := policy
		p.Seed = policy.Seed*31 + int64(i)*0x9E3779B9 + 1
		rc, err := NewReconnector(addr, opt, p, counters)
		if err != nil {
			for _, prev := range g.qps[:i] {
				prev.Close() //nolint:errcheck
			}
			return nil, fmt.Errorf("nvmetcp: qp %d/%d to %s: %w", i+1, n, addr, err)
		}
		g.qps[i] = rc
	}
	return g, nil
}

// NumQPs returns the number of queue pairs in the group.
func (g *QPGroup) NumQPs() int { return len(g.qps) }

// Capacity returns the capacity negotiated at first connect.
func (g *QPGroup) Capacity() int64 { return g.qps[0].Capacity() }

// pick is the stripe: the next pair, round-robin.
func (g *QPGroup) pick() *Reconnector {
	if len(g.qps) == 1 {
		return g.qps[0]
	}
	return g.qps[g.next.Add(1)%uint64(len(g.qps))]
}

// Submit puts c in flight on the next queue pair in the stripe. (An
// OpFlush submitted here covers that one pair's writes; Do and Flush
// are the barrier over the group.)
func (g *QPGroup) Submit(c Command) (*RePending, error) { return g.pick().Submit(c) }

// Do runs c to completion on the next queue pair in the stripe; a
// barrier on all of them.
func (g *QPGroup) Do(c Command) (int, error) {
	if c.Op == OpFlush {
		return 0, g.Flush()
	}
	return g.pick().Do(c)
}

// Flush issues a durability barrier on every queue pair in the group —
// writes stripe across the pairs, so only the full fan-out covers them
// all. The first error wins but every pair is still flushed.
func (g *QPGroup) Flush() error {
	var err error
	for _, rc := range g.qps {
		if ferr := rc.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// Close tears down every queue pair, returning the first error.
func (g *QPGroup) Close() error {
	var err error
	for _, rc := range g.qps {
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
