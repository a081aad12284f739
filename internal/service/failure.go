// Failure classification and retry policy: the piece of the service
// layer that decides, for every run error, whether the job dies now or
// re-enters the queue. Transient failures — recovered simulation
// panics, injected faults, deadline expiries the client budgeted
// retries for — back off exponentially (capped, with deterministic
// jitter) under a per-job attempt budget; permanent failures — a
// malformed graph, an invalid plan, a spec that never validated — fail
// fast on the first attempt, because re-running them can only waste a
// queue slot.

package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"fingers"
	"fingers/internal/datasets"
	"fingers/internal/simerr"
)

// FailureClass partitions run errors by what the service should do
// about them.
type FailureClass string

const (
	// ClassTransient failures may succeed on a retry: recovered panics
	// from the simulator, injected faults, marked-retryable errors.
	ClassTransient FailureClass = "transient"
	// ClassPermanent failures will fail identically on every attempt:
	// malformed graphs, invalid plans, unknown datasets, spec errors.
	ClassPermanent FailureClass = "permanent"
	// ClassCanceled is a client- or shutdown-initiated cancellation —
	// not a failure; never retried by the service on its own.
	ClassCanceled FailureClass = "canceled"
	// ClassDeadline is a per-job deadline expiry. Retried only when the
	// client budgeted more than one attempt (JobSpec.MaxAttempts > 1).
	ClassDeadline FailureClass = "deadline"
)

// ErrRetryable is a marker: any error wrapping it classifies as
// transient regardless of its concrete type. The fault injector and
// tests use it to force the retry path.
var ErrRetryable = errors.New("retryable")

// Failure is the typed outcome of a failed attempt: what kind of
// failure, which attempt it was, and — when the service decided to
// retry — how long the job waits before re-entering the queue.
// Terminal failed jobs carry a *Failure as their error, so callers can
// errors.As their way to the classification.
type Failure struct {
	Class FailureClass
	// Attempt is the 1-based attempt that produced the failure.
	Attempt int
	// RetryAfter is the backoff delay before the next attempt; zero
	// when the failure is terminal.
	RetryAfter time.Duration
	// Err is the underlying run error.
	Err error
}

// Error renders the classified failure.
func (f *Failure) Error() string {
	if f.RetryAfter > 0 {
		return fmt.Sprintf("%s failure on attempt %d (retrying in %s): %v", f.Class, f.Attempt, f.RetryAfter, f.Err)
	}
	return fmt.Sprintf("%s failure on attempt %d: %v", f.Class, f.Attempt, f.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (f *Failure) Unwrap() error { return f.Err }

// Retryable reports whether the class re-enters the queue, given the
// job's spec: transient always, deadline only when the client budgeted
// retries.
func (f *Failure) Retryable(spec fingers.JobSpec) bool {
	switch f.Class {
	case ClassTransient:
		return true
	case ClassDeadline:
		return spec.MaxAttempts > 1
	}
	return false
}

// Classify maps a run error to its failure class. The rules, most
// specific first:
//
//   - context cancellation → ClassCanceled; deadline → ClassDeadline
//     (checked through simerr.SimError wrapping, since the simulator
//     wraps context errors)
//   - anything marked with ErrRetryable → ClassTransient
//   - malformed graph (graph.ErrMalformed), invalid plan
//     (plan.ErrInvalid), unknown dataset (*datasets.NotFoundError) →
//     ClassPermanent
//   - a recovered panic from the simulator (*simerr.SimError that is
//     not a cancellation) → ClassTransient: panics are load- and
//     timing-dependent, and the chip state is rebuilt from scratch on
//     every attempt
//   - everything else → ClassPermanent (fail fast by default)
func Classify(err error) FailureClass {
	switch {
	case err == nil:
		return ClassPermanent
	case errors.Is(err, context.DeadlineExceeded):
		return ClassDeadline
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	case errors.Is(err, ErrRetryable):
		return ClassTransient
	case errors.Is(err, fingers.ErrMalformedGraph), errors.Is(err, fingers.ErrInvalidPlan):
		return ClassPermanent
	}
	var nf *datasets.NotFoundError
	if errors.As(err, &nf) {
		return ClassPermanent
	}
	if se, ok := simerr.As(err); ok && !se.IsCancellation() {
		return ClassTransient
	}
	return ClassPermanent
}

// RetryPolicy shapes the backoff schedule. The zero value takes the
// documented defaults.
type RetryPolicy struct {
	// MaxAttempts is the server-wide per-job attempt budget (first run
	// included). Default 3; 1 disables retries entirely. A job's own
	// MaxAttempts, when set, is honored up to this cap.
	MaxAttempts int
	// BaseDelay is the backoff before attempt 2. Default 100 ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Default 5 s.
	MaxDelay time.Duration
	// Seed drives the deterministic jitter; runs with equal seeds
	// produce identical schedules, so chaos tests replay exactly.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// Budget resolves the effective attempt budget for one spec: the
// client's max_attempts when set, clamped by the server's; otherwise
// the server default.
func (p RetryPolicy) Budget(spec fingers.JobSpec) int {
	p = p.withDefaults()
	if spec.MaxAttempts > 0 && spec.MaxAttempts < p.MaxAttempts {
		return spec.MaxAttempts
	}
	return p.MaxAttempts
}

// Backoff returns the delay before attempt failed+1, after the
// failed'th attempt (1-based) has failed: BaseDelay · 2^(failed−1),
// stretched by a deterministic jitter factor in [1, 1.5), capped at
// MaxDelay. Because the jitter factor never reaches the next step's
// 2× growth, the schedule is monotone non-decreasing in failed — the
// property the backoff tests pin.
func (p RetryPolicy) Backoff(failed int) time.Duration {
	p = p.withDefaults()
	if failed < 1 {
		failed = 1
	}
	d := p.BaseDelay
	for i := 1; i < failed; i++ {
		d *= 2
		if d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	// Deterministic jitter: a hash of (seed, attempt) spread over
	// [1.0, 1.5). No time-of-day or global RNG enters the schedule.
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(p.Seed >> (8 * i))
		buf[8+i] = byte(int64(failed) >> (8 * i))
	}
	h.Write(buf[:])
	frac := float64(h.Sum64()%1000) / 1000.0
	d = time.Duration(float64(d) * (1 + 0.5*frac))
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}
