package obs

import (
	"sync"
	"sync/atomic"
)

// DropPolicy decides what a Stream does when a subscriber's buffer is
// full. Either way the producer never blocks: the simulator hot loop is
// isolated from slow consumers by construction.
type DropPolicy uint8

const (
	// DropNewest discards the incoming event when the buffer is full —
	// the subscriber keeps the oldest window of the stream.
	DropNewest DropPolicy = iota
	// DropOldest evicts the oldest buffered event to admit the incoming
	// one — the subscriber keeps the freshest window of the stream.
	DropOldest
)

// String names the policy.
func (p DropPolicy) String() string {
	if p == DropOldest {
		return "drop-oldest"
	}
	return "drop-newest"
}

// DefaultSubscriberBuffer is the per-subscriber channel capacity used by
// Subscribe. A full simulation of the paper's workloads emits tens of
// thousands of events; the default absorbs bursts without forcing
// consumers to keep pace event-by-event.
const DefaultSubscriberBuffer = 4096

// Stream is a fan-out Tracer: every emitted event is forwarded to each
// subscriber's bounded channel. Enabled reports true only while at least
// one subscriber is attached, so a Stream with no subscribers keeps the
// allocation-free disabled path — emit sites never even build the Event.
//
// Delivery is non-blocking under both drop policies; a slow consumer
// loses events (counted per subscriber in drops) instead of stalling the
// producer. Safe for concurrent use by any number of producers,
// subscribers, and consumers.
type Stream struct {
	mu     sync.RWMutex
	subs   []*Subscriber
	closed bool
	// active mirrors len(subs) so Enabled is a single atomic load on the
	// hot path instead of an RLock.
	active atomic.Int32
}

// NewStream returns an empty stream with no subscribers.
func NewStream() *Stream { return &Stream{} }

// Enabled implements Tracer: true while at least one subscriber listens.
func (s *Stream) Enabled() bool { return s.active.Load() > 0 }

// Emit implements Tracer: forward ev to every subscriber, applying each
// subscriber's drop policy when its buffer is full. Never blocks.
func (s *Stream) Emit(ev Event) {
	s.mu.RLock()
	for _, sub := range s.subs {
		sub.deliver(ev)
	}
	s.mu.RUnlock()
}

// Subscribe attaches a new subscriber with the given buffer capacity
// (DefaultSubscriberBuffer when ≤ 0) and the DropNewest policy.
func (s *Stream) Subscribe(buffer int) *Subscriber {
	return s.SubscribeWith(buffer, DropNewest)
}

// SubscribeWith attaches a new subscriber with an explicit drop policy.
// Subscribing to a closed stream returns a subscriber whose channel is
// already closed.
func (s *Stream) SubscribeWith(buffer int, policy DropPolicy) *Subscriber {
	if buffer <= 0 {
		buffer = DefaultSubscriberBuffer
	}
	sub := &Subscriber{ch: make(chan Event, buffer), policy: policy, stream: s}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		close(sub.ch)
		return sub
	}
	s.subs = append(s.subs, sub)
	s.active.Store(int32(len(s.subs)))
	s.mu.Unlock()
	return sub
}

// Close detaches every subscriber and closes their channels so consumers
// ranging over Events() terminate. Further Emits are dropped silently;
// Close is idempotent.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	subs := s.subs
	s.subs = nil
	s.active.Store(0)
	s.mu.Unlock()
	for _, sub := range subs {
		close(sub.ch)
	}
}

// detach removes one subscriber (Subscriber.Close). Reports whether the
// subscriber was still attached — the caller only closes the channel when
// it was, so a racing Stream.Close never double-closes.
func (s *Stream) detach(sub *Subscriber) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, cur := range s.subs {
		if cur == sub {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			s.active.Store(int32(len(s.subs)))
			return true
		}
	}
	return false
}

// Subscriber is one bounded consumer of a Stream. Read events from
// Events(); the channel closes when either side calls Close.
type Subscriber struct {
	ch     chan Event
	policy DropPolicy
	stream *Stream
	drops  atomic.Int64
	once   sync.Once
}

// Events returns the subscriber's receive channel. It closes when the
// subscriber or its stream is closed; events buffered before the close
// are still delivered first (Go channel semantics), so closing the
// stream after a run flushes the tail of the event sequence.
func (u *Subscriber) Events() <-chan Event { return u.ch }

// Close detaches the subscriber from its stream and closes the channel.
// Idempotent; safe to call concurrently with the stream's Emit/Close.
func (u *Subscriber) Close() {
	u.once.Do(func() {
		if u.stream.detach(u) {
			close(u.ch)
		}
	})
}

// deliver enqueues one event without ever blocking the producer. Called
// only while the subscriber is attached (under the stream's read lock),
// so the channel cannot be closed concurrently.
func (u *Subscriber) deliver(ev Event) {
	select {
	case u.ch <- ev:
		return
	default:
	}
	if u.policy == DropOldest {
		// Evict one buffered event, then retry once. A concurrent producer
		// may steal the freed slot, losing both the evicted event and ours;
		// counting the eviction separately keeps the global invariant exact:
		// events consumed + drops == events emitted, under any number of
		// concurrent producers and consumers.
		evicted := false
		select {
		case <-u.ch:
			evicted = true
		default:
		}
		select {
		case u.ch <- ev:
			if evicted {
				u.drops.Add(1) // the evicted oldest event
			}
			return
		default:
		}
		if evicted {
			u.drops.Add(2) // the evicted event and ours, both lost
			return
		}
	}
	u.drops.Add(1)
}

// Tee fans events out to several tracers: Enabled when any is, Emit
// forwards to each enabled one. Nil and Nop entries are skipped; Tee of
// zero or one live tracer collapses to Nop or the tracer itself.
func Tee(tracers ...Tracer) Tracer {
	live := make([]Tracer, 0, len(tracers))
	for _, tr := range tracers {
		if tr == nil || tr == Nop {
			continue
		}
		live = append(live, tr)
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return tee(live)
}

type tee []Tracer

func (t tee) Enabled() bool {
	for _, tr := range t {
		if tr.Enabled() {
			return true
		}
	}
	return false
}

func (t tee) Emit(ev Event) {
	for _, tr := range t {
		if tr.Enabled() {
			tr.Emit(ev)
		}
	}
}
