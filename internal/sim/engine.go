// Package sim provides a deterministic discrete-event simulation engine.
//
// All Sirpent performance experiments run on virtual time: events are
// scheduled at absolute virtual times and executed in order, so measured
// quantities (queueing delay, transmission time, switch decision time) are
// exact and reproducible regardless of host load. Ties are broken by
// scheduling order, making runs fully deterministic for a given seed.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds from the start of the
// simulation. It is a distinct type to prevent accidental mixing with
// wall-clock time.
type Time int64

// Common durations in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Duration converts a virtual time span to a time.Duration for display.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Seconds reports the virtual time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // FIFO tie-break for events at the same instant
	fn  func()
	// index within the heap, maintained by the heap interface; -1 once
	// popped or cancelled.
	index int
}

// eventHeap orders events by time, then by scheduling sequence.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID struct {
	e *event
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; the simulation model runs entirely within event callbacks.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	rng     *rand.Rand
	stopped bool
	// Processed counts events executed since construction.
	processed uint64
}

// NewEngine returns an engine at time zero with a deterministic RNG seeded
// by seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed reports how many events have executed.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending reports how many events are scheduled but not yet executed.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (run at the current instant, after already-queued events for this
// instant). It returns an ID usable with Cancel.
func (e *Engine) Schedule(delay Time, fn func()) EventID {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At schedules fn at absolute virtual time t. Times in the past are clamped
// to now.
func (e *Engine) At(t Time, fn func()) EventID {
	if fn == nil {
		panic("sim: nil event func")
	}
	if t < e.now {
		t = e.now
	}
	ev := &event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return EventID{e: ev}
}

// Cancel removes a scheduled event. Cancelling an already-executed or
// already-cancelled event is a no-op. It reports whether the event was
// actually cancelled.
func (e *Engine) Cancel(id EventID) bool {
	if id.e == nil || id.e.index < 0 {
		return false
	}
	heap.Remove(&e.events, id.e.index)
	id.e.index = -1
	id.e.fn = nil
	return true
}

// Stop halts Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next event, advancing virtual time to it. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %v < %v", ev.at, e.now))
	}
	e.now = ev.at
	e.processed++
	ev.fn()
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for a span of virtual time from now.
func (e *Engine) RunFor(span Time) { e.RunUntil(e.now + span) }
