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

// target binds one storage node's queue-pair group to its health state
// and to what is known of its build.
type target struct {
	addr string
	qp   *nvmetcp.QPGroup
	brk  *breaker

	// Capability latches, one per opcode an old build does not speak
	// (opReadSamples, opWriteVec, opFlush), each set by the first command
	// of its kind the target rejects with statusBadOp (send). From then on
	// nothing of that kind is sent: fetches take the vectored chunk path,
	// gathered batches go as per-extent opWrite, and the write completions
	// the caller already waited for stand in for the barrier. These are
	// facts about the target's build, not its health.
	noAssembly, noVec, noFlush atomic.Bool
}

// latch returns the capability latch that guards op, nil when every
// build speaks it.
func (tg *target) latch(op byte) *atomic.Bool {
	switch op {
	case nvmetcp.OpReadSamples:
		return &tg.noAssembly
	case nvmetcp.OpWriteVec:
		return &tg.noVec
	case nvmetcp.OpFlush:
		return &tg.noFlush
	}
	return nil
}

// errLegacy is send's answer for a command of a kind the target's build
// does not speak: nothing failed, the caller takes the older form.
// errLatched is the same answer from the send whose command was the
// first of its kind to be turned away.
var (
	errLegacy  = errors.New("live: opcode not spoken by this target")
	errLatched = fmt.Errorf("%w (latched now)", errLegacy)
)

// send is the one way live reaches a target: every command goes out and
// every outcome is judged here. cmds are of one kind. A lone command
// runs synchronously on the next queue pair (a barrier on all of them)
// and costs no handle; several are pipelined across the pairs and waited
// for together, as is a lone one whose caller asks when it was posted.
// check, when not nil, is the caller's verdict on what landed, and a
// failure there is the target's.
//
// gate says the circuit breaker guards this traffic (reads; the write
// path never fed it): it must Allow the exchange and hears Success or
// Failure. A command turned away as an unknown opcode is no failure: the
// target answered, so it is healthy, and what was learned is its build.
// The opcode is latched and the caller gets errLegacy, as does whoever
// sends that kind again.
func (tg *target) send(gate bool, check func() error, posted *time.Time, cmds ...nvmetcp.Command) error {
	if l := tg.latch(cmds[0].Op); l != nil && l.Load() {
		return errLegacy
	}
	if gate && !tg.brk.Allow() {
		return fmt.Errorf("%w: %s circuit open", ErrDegraded, tg.addr)
	}
	var err error
	if len(cmds) == 1 && posted == nil {
		_, err = tg.qp.Do(cmds[0])
	} else {
		var few [4]*nvmetcp.RePending // a fetch's or a batch's handles without a heap slice
		pds := few[:0]
		for _, c := range cmds {
			var pd *nvmetcp.RePending
			if pd, err = tg.qp.Submit(c); err != nil {
				break
			}
			pds = append(pds, pd)
		}
		if posted != nil {
			*posted = time.Now()
		}
		// Also when posting failed: what is in flight still writes into the
		// caller's buffers.
		for _, pd := range pds {
			if _, werr := pd.Wait(); werr != nil && err == nil {
				err = werr
			}
		}
	}
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		var unsup *nvmetcp.UnsupportedOpError // errors.As moves it to the heap: declared off the success path
		if !errors.As(err, &unsup) {
			// Tenant throttles are exempt: a quota rejection is backpressure
			// from a healthy target, like a latch a fact about policy rather
			// than health, so it must never accumulate toward opening the
			// breaker and cutting a quota-bound tenant off from a working node.
			if gate && !errors.Is(err, nvmetcp.ErrThrottled) {
				tg.brk.Failure()
			}
			return err
		}
		err = errLegacy
		if tg.latch(unsup.Opcode).CompareAndSwap(false, true) {
			err = errLatched
		}
	}
	if gate {
		tg.brk.Success()
	}
	return err
}

// flush runs the durability barrier on every queue pair of the target
// and reports whether the target ran it. A target that does not speak
// opFlush (rolling upgrade) applies each write before completing it, so
// there the completions the caller already waited for are the barrier.
func (tg *target) flush() (bool, error) {
	err := tg.send(false, nil, nil, nvmetcp.Command{Op: nvmetcp.OpFlush})
	if errors.Is(err, errLegacy) {
		return false, nil
	}
	return err == nil, err
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
