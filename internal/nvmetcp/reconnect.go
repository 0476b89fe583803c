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
	orDefault(&p.MaxRetries, 4)
	orDefault(&p.BaseDelay, 5*time.Millisecond)
	orDefault(&p.MaxDelay, 500*time.Millisecond)
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
	forms[*RePending]
	addr     string
	opt      Options
	policy   RetryPolicy
	counters *metrics.Resilience

	mu     sync.Mutex
	in     *Initiator
	rng    *rand.Rand
	closed bool

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
	r.l = r
	in, err := ConnectOptions(addr, opt)
	if err != nil {
		return nil, err
	}
	r.in = in
	r.capacity = in.Capacity()
	return r, nil
}

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

// Do runs c to completion on the current queue pair, sending it again per
// policy: with Submit's handle, the one place a command is retried. The
// rule is the same for every opcode because every opcode is safe to
// repeat: reads are stateless (re-landing bytes in the same destinations
// is harmless), writes land at fixed offsets, and a barrier re-issued on
// a fresh connection still covers the caller's prior writes, whose
// completions prove the target already applied them. Remote errors,
// *UnsupportedOpError among them, are never retried. A throttled command
// waits out the larger of the backoff step and the target's retry-after
// hint, so the retry lands after the tenant's token bucket has refilled
// instead of burning attempts against it.
func (r *Reconnector) Do(c Command) (int, error) {
	for attempt := 0; ; attempt++ {
		in, err := r.initiator()
		if err == nil {
			var n int
			if n, err = in.Do(c); err == nil {
				return n, nil
			}
		}
		if !IsRetryable(err) {
			return 0, err
		}
		if attempt >= r.policy.MaxRetries {
			return 0, fmt.Errorf("nvmetcp: %s: %d attempts exhausted: %w", r.addr, attempt+1, err)
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

// RePending is an in-flight asynchronous command through a Reconnector.
// It keeps the Command: Wait replays it through Do when the pipelined
// submission failed or its completion is lost. It is the one heap object
// a pipelined command costs, and Do costs none (a Command stays on the
// caller's stack all the way down): the benchmark gates
// allocs_per_sample at 10%, and imdb-cold reads 0.056, about ten objects
// per 190-sample unit, so one more per command or per unit is a
// regression there (TestReadAtAllocsPerCommand, TestEpochSmallSamplesAllocs).
type RePending struct {
	r   *Reconnector
	in  *Initiator
	pd  *Pending // nil when the submission itself failed retryably
	cmd Command
}

// Submit puts c in flight on the current queue pair. A retryable
// submission failure is deferred to Wait; any other returns at once.
func (r *Reconnector) Submit(c Command) (*RePending, error) {
	rp := &RePending{r: r, cmd: c}
	in, err := r.initiator()
	if err == nil {
		if rp.pd, err = in.Submit(c); err == nil {
			rp.in = in
			return rp, nil
		}
	}
	if !IsRetryable(err) {
		return nil, err
	}
	r.noteFailure(in, err)
	return rp, nil
}

// Wait completes the command, recovering a retryable failure by running
// the stored Command again.
func (rp *RePending) Wait() (int, error) {
	if rp.pd != nil {
		n, err := rp.pd.Wait()
		if err == nil || !IsRetryable(err) {
			return n, err
		}
		rp.r.noteFailure(rp.in, err)
		rp.pd = nil
	}
	rp.r.counters.Retries.Add(1)
	return rp.r.Do(rp.cmd)
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
