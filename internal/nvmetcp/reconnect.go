package nvmetcp

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dlfs/internal/metrics"
)

// RetryPolicy bounds the Reconnector's recovery behaviour. Zero values
// take defaults.
type RetryPolicy struct {
	MaxRetries int           // retryable re-attempts beyond the first try (default 4)
	BaseDelay  time.Duration // first backoff step (default 5ms)
	MaxDelay   time.Duration // backoff cap (default 500ms)
	Seed       int64         // jitter source; a fixed seed replays the same schedule
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	return p
}

// Reconnector wraps one target address with transparent recovery: when a
// command fails with a retryable transport error (timeout, lost
// connection, dial failure) it retires the queue pair, re-dials with
// capped exponential backoff plus jitter, and re-issues the command, up
// to a bounded retry budget. Non-retryable errors (remote status errors,
// deliberate close) are returned immediately. It is safe for concurrent
// use; a single re-dial serves all waiting operations.
type Reconnector struct {
	addr     string
	opt      Options
	policy   RetryPolicy
	counters *metrics.Resilience

	mu     sync.Mutex
	in     *Initiator
	rng    *rand.Rand
	closed bool

	depth    int
	capacity int64
}

// NewReconnector dials addr eagerly (so a misconfigured address fails
// fast) and returns the wrapper. A nil counters gets a private set;
// passing a shared *metrics.Resilience aggregates stats across targets.
func NewReconnector(addr string, opt Options, policy RetryPolicy, counters *metrics.Resilience) (*Reconnector, error) {
	if counters == nil {
		counters = &metrics.Resilience{}
	}
	policy = policy.withDefaults()
	r := &Reconnector{
		addr:     addr,
		opt:      opt,
		policy:   policy,
		counters: counters,
		rng:      rand.New(rand.NewSource(policy.Seed ^ 0x5DEECE66D)),
	}
	in, err := ConnectOptions(addr, opt)
	if err != nil {
		return nil, err
	}
	r.in = in
	r.depth = in.Depth()
	r.capacity = in.Capacity()
	return r, nil
}

// Addr returns the target address.
func (r *Reconnector) Addr() string { return r.addr }

// Depth returns the queue depth negotiated at first connect.
func (r *Reconnector) Depth() int { return r.depth }

// Capacity returns the capacity negotiated at first connect.
func (r *Reconnector) Capacity() int64 { return r.capacity }

// Counters exposes the shared resilience counters.
func (r *Reconnector) Counters() *metrics.Resilience { return r.counters }

// initiator returns the live queue pair, re-dialing if the previous one
// was retired.
func (r *Reconnector) initiator() (*Initiator, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if r.in != nil {
		return r.in, nil
	}
	in, err := ConnectOptions(r.addr, r.opt)
	if err != nil {
		return nil, err
	}
	r.counters.Reconnects.Add(1)
	r.in = in
	return in, nil
}

// invalidate retires in if it is still the current queue pair. The
// failed initiator is aborted (not Closed) so concurrent waiters on it
// observe a retryable ErrConnLost rather than ErrClosed.
func (r *Reconnector) invalidate(in *Initiator) {
	if in == nil {
		return
	}
	r.mu.Lock()
	current := r.in == in
	if current {
		r.in = nil
	}
	r.mu.Unlock()
	if current {
		in.abort()
	}
}

// backoff computes the delay before retry number attempt (0-based):
// BaseDelay doubled per attempt, capped at MaxDelay, scaled by a jitter
// factor in [0.5, 1.0) drawn from the seeded source.
func (r *Reconnector) backoff(attempt int) time.Duration {
	d := r.policy.BaseDelay
	for i := 0; i < attempt && d < r.policy.MaxDelay; i++ {
		d *= 2
	}
	if d > r.policy.MaxDelay {
		d = r.policy.MaxDelay
	}
	r.mu.Lock()
	j := 0.5 + 0.5*r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d) * j)
}

// noteFailure records counters for err and retires the queue pair when
// the error indicates the connection itself is suspect — everything
// retryable except pure queue-depth pressure and tenant throttling,
// which are healthy connections saying "not now".
func (r *Reconnector) noteFailure(in *Initiator, err error) {
	if errors.Is(err, ErrTimeout) {
		r.counters.Timeouts.Add(1)
	}
	if errors.Is(err, ErrThrottled) {
		r.counters.Throttles.Add(1)
	}
	if !errors.Is(err, ErrDepthLimit) && !errors.Is(err, ErrThrottled) {
		r.invalidate(in)
	}
}

// do runs op against the current queue pair, retrying per policy. A
// throttled command waits out the larger of the backoff step and the
// target's retry-after hint, so the retry lands after the tenant's
// token bucket has refilled instead of burning attempts against it.
func (r *Reconnector) do(op func(*Initiator) error) error {
	for attempt := 0; ; attempt++ {
		in, err := r.initiator()
		if err == nil {
			err = op(in)
			if err == nil {
				return nil
			}
		}
		if !IsRetryable(err) {
			return err
		}
		if attempt >= r.policy.MaxRetries {
			return fmt.Errorf("nvmetcp: %s: %d attempts exhausted: %w", r.addr, attempt+1, err)
		}
		r.noteFailure(in, err)
		r.counters.Retries.Add(1)
		d := r.backoff(attempt)
		var te *ThrottledError
		if errors.As(err, &te) && te.RetryAfter > d {
			d = te.RetryAfter
		}
		time.Sleep(d)
	}
}

// ReadAt reads len(p) bytes at off, retrying per policy.
func (r *Reconnector) ReadAt(p []byte, off int64) (int, error) {
	var n int
	err := r.do(func(in *Initiator) error {
		var e error
		n, e = in.ReadAt(p, off)
		return e
	})
	return n, err
}

// WriteAt writes p at off, retrying per policy. Writes are idempotent at
// fixed offsets, so re-issuing after a lost connection is safe.
func (r *Reconnector) WriteAt(p []byte, off int64) (int, error) {
	var n int
	err := r.do(func(in *Initiator) error {
		var e error
		n, e = in.WriteAt(p, off)
		return e
	})
	return n, err
}

// WriteVec performs a synchronous gathered write, retrying per policy.
// Like WriteAt, every extent lands at a fixed offset, so re-issuing the
// whole vector after a lost connection is idempotent. An
// *UnsupportedOpError is not retryable and returns immediately — the
// caller's downgrade signal to per-extent WriteAt.
func (r *Reconnector) WriteVec(segs []WSeg) (int, error) {
	var n int
	err := r.do(func(in *Initiator) error {
		var e error
		n, e = in.WriteVec(segs)
		return e
	})
	return n, err
}

// Flush issues a durability barrier, retrying per policy. A barrier
// re-issued on a fresh connection still covers the caller's prior
// writes: writes that completed before Flush was called have already
// been applied by the target (their completions prove it), so the
// fresh connection's barrier — trivially past its own zero admitted
// writes — syncs the store they landed in.
func (r *Reconnector) Flush() error {
	return r.do(func(in *Initiator) error { return in.Flush() })
}

// ReadVec performs a synchronous vectored read, retrying per policy. The
// whole vector is re-issued on a fresh connection after a retryable
// failure; segment reads are stateless, so re-landing bytes in the same
// destination buffers is safe.
func (r *Reconnector) ReadVec(segs []Seg) (int, error) {
	var n int
	err := r.do(func(in *Initiator) error {
		var e error
		n, e = in.ReadVec(segs)
		return e
	})
	return n, err
}

// ReadSamples performs a synchronous server-assembled read
// (opReadSamples), retrying per policy. Record reads are stateless, so
// re-landing transformed output in the same destinations is safe. An
// *UnsupportedOpError is not retryable and returns immediately — the
// caller's downgrade signal.
func (r *Reconnector) ReadSamples(xform byte, segs []SampleSeg, lens []int) (int, error) {
	var n int
	err := r.do(func(in *Initiator) error {
		var e error
		n, e = in.ReadSamples(xform, segs, lens)
		return e
	})
	return n, err
}

// RePending is an in-flight asynchronous command through a Reconnector.
// Wait falls back to the retrying synchronous path when the pipelined
// submission failed or its completion is lost.
type RePending struct {
	r     *Reconnector
	in    *Initiator
	pd    *Pending
	off   int64       // device offset of a single write
	segs  []Seg       // non-nil for vectored reads
	smp   []SampleSeg // non-nil for server-assembled reads
	lens  []int
	xform byte
	wsrc  []byte // single writes (recovery re-sends from it)
	wsegs []WSeg // non-nil for gathered writes
}

// ReadVecAsync submits a pipelined vectored read covering every segment.
// A retryable submission failure is deferred: the returned RePending
// recovers in Wait via the reconnecting ReadVec. Non-retryable failures
// return immediately.
func (r *Reconnector) ReadVecAsync(segs []Seg) (*RePending, error) {
	rp := &RePending{r: r, segs: segs}
	return r.startAsync(rp, func(in *Initiator) (*Pending, error) { return in.ReadVecAsync(segs) })
}

// ReadSamplesAsync submits a pipelined server-assembled read. Retryable
// failures recover in Wait via the reconnecting ReadSamples.
func (r *Reconnector) ReadSamplesAsync(xform byte, segs []SampleSeg, lens []int) (*RePending, error) {
	rp := &RePending{r: r, smp: segs, lens: lens, xform: xform}
	return r.startAsync(rp, func(in *Initiator) (*Pending, error) { return in.ReadSamplesAsync(xform, segs, lens) })
}

// WriteAsync submits a pipelined write. Recovery in Wait re-sends from
// p, so the caller must keep p intact until Wait returns — the price of
// idempotent resubmission after a mid-write connection loss.
func (r *Reconnector) WriteAsync(p []byte, off int64) (*RePending, error) {
	rp := &RePending{r: r, wsrc: p, off: off}
	return r.startAsync(rp, func(in *Initiator) (*Pending, error) { return in.WriteAsync(p, off) })
}

// WriteVecAsync submits a pipelined gathered write. Recovery in Wait
// re-sends the whole vector from the segments' Src buffers, so they
// must stay intact until Wait returns.
func (r *Reconnector) WriteVecAsync(segs []WSeg) (*RePending, error) {
	rp := &RePending{r: r, wsegs: segs}
	return r.startAsync(rp, func(in *Initiator) (*Pending, error) { return in.WriteVecAsync(segs) })
}

func (r *Reconnector) startAsync(rp *RePending, start func(*Initiator) (*Pending, error)) (*RePending, error) {
	in, err := r.initiator()
	if err == nil {
		pd, aerr := start(in)
		if aerr == nil {
			rp.in, rp.pd = in, pd
			return rp, nil
		}
		err = aerr
	}
	if !IsRetryable(err) {
		return nil, err
	}
	r.noteFailure(in, err)
	return rp, nil
}

// Wait completes the command, recovering retryable failures through the
// reconnecting synchronous path.
func (rp *RePending) Wait() (int, error) {
	if rp.pd != nil {
		n, err := rp.pd.Wait()
		if err == nil {
			return n, nil
		}
		if !IsRetryable(err) {
			return 0, err
		}
		rp.r.noteFailure(rp.in, err)
		rp.pd = nil
	}
	rp.r.counters.Retries.Add(1)
	if rp.smp != nil {
		return rp.r.ReadSamples(rp.xform, rp.smp, rp.lens)
	}
	if rp.segs != nil {
		return rp.r.ReadVec(rp.segs)
	}
	if rp.wsegs != nil {
		return rp.r.WriteVec(rp.wsegs)
	}
	return rp.r.WriteAt(rp.wsrc, rp.off)
}

// Close retires the wrapper; subsequent operations fail with ErrClosed.
func (r *Reconnector) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	in := r.in
	r.in = nil
	r.mu.Unlock()
	if in != nil {
		return in.Close()
	}
	return nil
}
