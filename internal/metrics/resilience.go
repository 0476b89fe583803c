package metrics

import (
	"fmt"
	"sync/atomic"
)

// Resilience aggregates the failure-handling counters of the live path:
// transport retries and reconnects, command deadline expirations, circuit
// breaker transitions, and degraded-mode deliveries. One instance is
// shared by every reconnector and breaker belonging to a client, so a
// single snapshot describes the whole mount. All fields are safe for
// concurrent use.
type Resilience struct {
	Retries         atomic.Int64 // operations re-attempted after a retryable transport error
	Reconnects      atomic.Int64 // successful re-dials of a lost queue pair
	Timeouts        atomic.Int64 // commands that hit their per-command deadline
	Throttles       atomic.Int64 // commands rejected by a tenant quota (retried on a healthy connection)
	BreakerTrips    atomic.Int64 // circuit breaker transitions to open
	BreakerProbes   atomic.Int64 // half-open probe attempts after a cooldown
	DegradedBatches atomic.Int64 // batch deliveries (and the terminal epoch report) observed while degraded
	DegradedSamples atomic.Int64 // samples skipped because their target was down
}

// Snapshot returns a consistent-enough point-in-time copy for reporting.
func (r *Resilience) Snapshot() ResilienceSnapshot {
	return ResilienceSnapshot{
		Retries:         r.Retries.Load(),
		Reconnects:      r.Reconnects.Load(),
		Timeouts:        r.Timeouts.Load(),
		Throttles:       r.Throttles.Load(),
		BreakerTrips:    r.BreakerTrips.Load(),
		BreakerProbes:   r.BreakerProbes.Load(),
		DegradedBatches: r.DegradedBatches.Load(),
		DegradedSamples: r.DegradedSamples.Load(),
	}
}

// ResilienceSnapshot is a plain-value copy of Resilience counters.
//
// bench/stats.go sums it by reflection (see PipelineSnapshot): every
// int64 field, nested ones included, must stay exported.
type ResilienceSnapshot struct {
	Retries         int64
	Reconnects      int64
	Timeouts        int64
	Throttles       int64
	BreakerTrips    int64
	BreakerProbes   int64
	DegradedBatches int64
	DegradedSamples int64
}

// String renders the snapshot as a single stats line.
func (s ResilienceSnapshot) String() string {
	return fmt.Sprintf("retries=%d reconnects=%d timeouts=%d throttles=%d breaker_trips=%d breaker_probes=%d degraded_batches=%d degraded_samples=%d",
		s.Retries, s.Reconnects, s.Timeouts, s.Throttles, s.BreakerTrips, s.BreakerProbes, s.DegradedBatches, s.DegradedSamples)
}

// Healthy reports whether the snapshot shows no degradation at all.
func (s ResilienceSnapshot) Healthy() bool {
	return s == ResilienceSnapshot{}
}
