package governor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Class is a feed's priority class, declared in its ingestion policy
// (metadata param "ingestion.priority"). Under pressure, lower classes are
// metered and shed first; ClassHigh is never gated.
type Class int32

const (
	ClassLow Class = iota
	ClassNormal
	ClassHigh
)

// ParseClass maps the policy parameter value to a Class; the empty string
// means ClassNormal.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "normal":
		return ClassNormal, nil
	case "low":
		return ClassLow, nil
	case "high":
		return ClassHigh, nil
	}
	return ClassNormal, fmt.Errorf("governor: unknown priority class %q (want low, normal, or high)", s)
}

func (c Class) String() string {
	switch c {
	case ClassLow:
		return "low"
	case ClassHigh:
		return "high"
	}
	return "normal"
}

// threshold is the pressure at which this class starts being metered.
// ClassHigh returns an unreachable threshold: high-priority feeds are never
// gated, which is what keeps their latency flat while a flood is shed.
func (c Class) threshold() float64 {
	switch c {
	case ClassLow:
		return 0.75
	case ClassHigh:
		return maxPressure
	}
	return 0.9
}

// rateFraction is the metered intake rate once over threshold, as a
// fraction of the node budget per second. Low-priority feeds are squeezed
// to a trickle; normal feeds keep a meaningful but bounded rate.
func (c Class) rateFraction() float64 {
	if c == ClassLow {
		return 1.0 / 64
	}
	return 1.0 / 4
}

// maxPressure is an effectively-infinite threshold (pressure is a ratio
// around 1.0, so this is never reached).
const maxPressure = 1 << 30

// Decision is the outcome of an admission check.
type Decision int

const (
	// Admit lets the traffic through.
	Admit Decision = iota
	// Shed tells the caller to drop (lossy policies) or divert to disk
	// (non-lossy policies) instead of growing memory.
	Shed
)

// waitPoll is the blocking-gate retry interval.
const waitPoll = time.Millisecond

// burstWindow sizes a bucket's burst as this much time worth of the
// metered rate.
const burstWindow = time.Second / 4

// Admission is one metered entry point (a feed connection's intake, or a
// collect head) into a governed node. It is a token bucket that is only
// consulted while node pressure exceeds the class threshold; below it,
// traffic passes untouched and the bucket stays full, so metering starts
// from a short burst rather than a stale surplus.
type Admission struct {
	g     *Governor
	name  string
	class atomic.Int32

	mu     sync.Mutex
	tokens float64
	full   bool
	last   time.Time

	admittedRecords atomic.Int64
	shedRecords     atomic.Int64
	delays          atomic.Int64
}

// Name returns the admission's registered name.
func (a *Admission) Name() string { return a.name }

// Class returns the current priority class.
func (a *Admission) Class() Class { return Class(a.class.Load()) }

// SetClass updates the priority class; safe to call concurrently with
// admissions in flight.
func (a *Admission) SetClass(c Class) { a.class.Store(int32(c)) }

// Admit decides whether a batch of the given size may enter the node now.
// It never blocks. On Admit the traffic is counted; on Shed the caller
// chooses the consequence (drop, spill, retry) and reports actual drops via
// CountShed.
func (a *Admission) Admit(bytes, records int64) Decision {
	cls := a.Class()
	if a.g.observe || cls == ClassHigh {
		a.countAdmit(bytes, records)
		return Admit
	}
	if a.g.Pressure() < cls.threshold() {
		a.refill(cls, true)
		a.countAdmit(bytes, records)
		return Admit
	}
	if a.take(float64(bytes), cls) {
		a.countAdmit(bytes, records)
		return Admit
	}
	return Shed
}

// Wait blocks until the batch is admitted or cancel fires; it returns
// false only on cancel. Non-lossy pipeline stages (collect heads) use it
// so that under pressure they slow down instead of dropping.
func (a *Admission) Wait(bytes, records int64, cancel <-chan struct{}) bool {
	if a.Admit(bytes, records) == Admit {
		return true
	}
	a.delays.Add(1)
	a.g.Delays.Add(1)
	for {
		select {
		case <-cancel:
			return false
		case <-time.After(waitPoll):
		}
		if a.Admit(bytes, records) == Admit {
			return true
		}
	}
}

// CountShed records that the caller actually dropped records after a Shed
// decision. Callers that convert Shed into spill or backpressure must not
// call it — the governor's shed counters mean lost records, nothing softer.
func (a *Admission) CountShed(records int64) {
	a.shedRecords.Add(records)
	a.g.ShedFrames.Add(1)
	a.g.ShedRecords.Add(records)
}

func (a *Admission) countAdmit(bytes, records int64) {
	a.admittedRecords.Add(records)
	a.g.AdmittedBytes.Add(bytes)
	a.g.AdmittedRecords.Add(records)
}

// refill advances the bucket clock. With toFull set (pressure below
// threshold) the bucket snaps to its burst size so metering always begins
// from the same small allowance.
func (a *Admission) refill(cls Class, toFull bool) {
	rate := cls.rateFraction() * float64(a.g.budget)
	burst := rate * burstWindow.Seconds()
	a.mu.Lock()
	defer a.mu.Unlock()
	now := nowFunc()
	if toFull {
		a.tokens = burst
		a.full = true
		a.last = now
		return
	}
	if a.full || a.last.IsZero() {
		// First gated refill after an ungated stretch: start from the
		// burst, don't accrue the idle time.
		a.tokens = burst
		a.full = false
	} else {
		a.tokens += rate * now.Sub(a.last).Seconds()
		if a.tokens > burst {
			a.tokens = burst
		}
	}
	a.last = now
}

// take attempts to spend cost tokens. A batch larger than the burst costs
// the whole bucket instead of never fitting, so oversized frames still make
// progress (at a slower effective rate) rather than deadlocking Wait.
func (a *Admission) take(cost float64, cls Class) bool {
	a.refill(cls, false)
	rate := cls.rateFraction() * float64(a.g.budget)
	burst := rate * burstWindow.Seconds()
	if cost > burst {
		cost = burst
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tokens >= cost {
		a.tokens -= cost
		return true
	}
	return false
}

func (a *Admission) snapshot() AdmissionSnapshot {
	return AdmissionSnapshot{
		Name:            a.name,
		Class:           a.Class().String(),
		AdmittedRecords: a.admittedRecords.Load(),
		ShedRecords:     a.shedRecords.Load(),
		Delays:          a.delays.Load(),
	}
}
