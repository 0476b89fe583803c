package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
)

// ErrDegraded marks reads refused or skipped because a target's circuit
// breaker is open. Match with errors.Is.
var ErrDegraded = errors.New("live: target degraded")

// DegradedError reports an epoch that completed in degraded mode:
// every sample on a healthy target was delivered and verified, but the
// listed nodes were down and their samples were skipped.
type DegradedError struct {
	Samples int   // samples skipped
	Nodes   []int // target indices that were down
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("live: epoch degraded: %d samples skipped on targets %v", e.Samples, e.Nodes)
}

// Unwrap lets errors.Is(err, ErrDegraded) match.
func (e *DegradedError) Unwrap() error { return ErrDegraded }

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-target circuit breaker: after threshold consecutive
// failures it opens and refuses traffic; once the cooldown elapses it
// half-opens to let exactly one probe through, closing again on success
// and re-opening on failure.
type breaker struct {
	threshold int
	cooldown  time.Duration
	counters  *metrics.Resilience

	mu       sync.Mutex
	state    int
	fails    int // consecutive failures
	openedAt time.Time
}

func newBreaker(threshold int, cooldown time.Duration, counters *metrics.Resilience) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, counters: counters}
}

// Allow reports whether a request may proceed, transitioning open →
// half-open when the cooldown has elapsed (the caller becomes the
// probe).
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			b.counters.BreakerProbes.Add(1)
			return true
		}
		return false
	default: // half-open: one probe already in flight
		return false
	}
}

// Success records a completed request, closing the breaker.
func (b *breaker) Success() {
	b.mu.Lock()
	b.fails = 0
	b.state = breakerClosed
	b.mu.Unlock()
}

// Failure records a failed request, tripping the breaker when the
// consecutive-failure threshold is reached or a half-open probe fails.
func (b *breaker) Failure() {
	b.mu.Lock()
	b.fails++
	trip := b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= b.threshold)
	if trip {
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.counters.BreakerTrips.Add(1)
	}
	b.mu.Unlock()
}

// StateName renders the state for stats output.
func (b *breaker) StateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// target binds one storage node's queue-pair group to its health state.
type target struct {
	addr string
	qp   *nvmetcp.QPGroup
	brk  *breaker

	// noAssembly latches when the target rejects opReadSamples with
	// statusBadOp (an old-opcode build during a rolling upgrade); all
	// later fetches to this target use the vectored chunk path. It is
	// a capability fact, not a health signal — the breaker never sees
	// the downgrade.
	noAssembly atomic.Bool

	// noVec is the write side's latch of the same kind: the target
	// rejected opWriteVec, so gathered batches go to it as per-extent
	// opWrite from then on (bulkWriter.sendOnce).
	noVec atomic.Bool
}

// noteFailure feeds a fetch error into the target's circuit breaker.
// Tenant throttles are exempt: a quota rejection is backpressure from a
// healthy target — like noAssembly, a fact about policy rather than
// health — so it must never accumulate toward opening the breaker and
// cutting a quota-bound tenant off from a working node.
func (tg *target) noteFailure(err error) {
	if errors.Is(err, nvmetcp.ErrThrottled) {
		return
	}
	tg.brk.Failure()
}

// read runs one synchronous read through the breaker.
func (tg *target) read(p []byte, off int64) error {
	if !tg.brk.Allow() {
		return fmt.Errorf("%w: %s circuit open", ErrDegraded, tg.addr)
	}
	if _, err := tg.qp.ReadAt(p, off); err != nil {
		tg.noteFailure(err)
		return err
	}
	tg.brk.Success()
	return nil
}

// TargetHealth is one target's health as reported by Stats.
type TargetHealth struct {
	Addr        string
	State       string // "closed", "open", or "half-open"
	ConsecFails int
}

// Stats is a point-in-time view of the client's resilience and
// pipeline state.
type Stats struct {
	CacheHits   int64
	QueuePairs  int    // connections per target
	CacheShards int    // ReadSample cache shards (0 when disabled)
	PeerAddr    string // this rank's peer-cache service address ("" when off)
	Pipeline    metrics.PipelineSnapshot
	Resilience  metrics.ResilienceSnapshot
	Targets     []TargetHealth
}

// Stats reports resilience counters, per-stage pipeline counters, and
// per-target breaker states.
func (fs *FS) Stats() Stats {
	st := Stats{
		CacheHits:  fs.CacheHits(),
		QueuePairs: fs.cfg.QueuePairs,
		Pipeline:   fs.pipe.Snapshot(),
		Resilience: fs.counters.Snapshot(),
	}
	if fs.scache != nil {
		st.CacheShards = fs.scache.numShards()
	}
	if fs.peers != nil {
		st.PeerAddr = fs.peers.addr
	}
	st.Pipeline.PoolHits, st.Pipeline.PoolMisses, _ = fs.pool.Stats()
	for _, tg := range fs.targets {
		tg.brk.mu.Lock()
		fails := tg.brk.fails
		tg.brk.mu.Unlock()
		st.Targets = append(st.Targets, TargetHealth{
			Addr:        tg.addr,
			State:       tg.brk.StateName(),
			ConsecFails: fails,
		})
	}
	return st
}

// Counters exposes the shared resilience counter set (for wiring into
// external reporting).
func (fs *FS) Counters() *metrics.Resilience { return fs.counters }

// degradable reports whether a fetch error should downgrade to a skip in
// degraded mode: breaker-open refusals and exhausted retryable transport
// errors qualify; remote semantic errors (bad offsets, corrupt requests)
// still fail the epoch so real bugs cannot hide behind degradation.
func degradable(err error) bool {
	return errors.Is(err, ErrDegraded) || nvmetcp.IsRetryable(err)
}
