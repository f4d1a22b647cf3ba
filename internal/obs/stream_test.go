package obs

import (
	"sync"
	"testing"
)

func TestStreamDisabledWithoutSubscribers(t *testing.T) {
	s := NewStream()
	if s.Enabled() {
		t.Error("empty stream reports enabled")
	}
	s.Emit(Event{Type: EvTaskFinish}) // must not panic or block
	sub := s.Subscribe(4)
	if !s.Enabled() {
		t.Error("stream with a subscriber reports disabled")
	}
	sub.Close()
	if s.Enabled() {
		t.Error("stream enabled after its only subscriber left")
	}
}

func TestStreamFanOut(t *testing.T) {
	s := NewStream()
	a := s.Subscribe(8)
	b := s.Subscribe(8)
	for i := 0; i < 5; i++ {
		s.Emit(Event{Type: EvTaskStart, Task: i})
	}
	s.Close()
	for name, sub := range map[string]*Subscriber{"a": a, "b": b} {
		var got []Event
		for ev := range sub.Events() {
			got = append(got, ev)
		}
		if len(got) != 5 {
			t.Errorf("%s received %d events, want 5", name, len(got))
		}
		for i, ev := range got {
			if ev.Task != i {
				t.Errorf("%s event %d out of order: %+v", name, i, ev)
			}
		}
		if sub.Drops() != 0 {
			t.Errorf("%s drops = %d, want 0", name, sub.Drops())
		}
	}
}

func TestStreamDropNewest(t *testing.T) {
	s := NewStream()
	sub := s.Subscribe(2)
	for i := 0; i < 5; i++ {
		s.Emit(Event{Seq: i})
	}
	if sub.Drops() != 3 {
		t.Errorf("drops = %d, want 3", sub.Drops())
	}
	s.Close()
	var seqs []int
	for ev := range sub.Events() {
		seqs = append(seqs, ev.Seq)
	}
	// DropNewest keeps the oldest window.
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
		t.Errorf("buffered window = %v, want [0 1]", seqs)
	}
}

func TestStreamDropOldest(t *testing.T) {
	s := NewStream()
	sub := s.SubscribeWith(2, DropOldest)
	if sub.policy != DropOldest {
		t.Fatalf("policy = %v", sub.policy)
	}
	for i := 0; i < 5; i++ {
		s.Emit(Event{Seq: i})
	}
	if sub.Drops() != 3 {
		t.Errorf("drops = %d, want 3", sub.Drops())
	}
	s.Close()
	var seqs []int
	for ev := range sub.Events() {
		seqs = append(seqs, ev.Seq)
	}
	// DropOldest keeps the freshest window.
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Errorf("buffered window = %v, want [3 4]", seqs)
	}
}

func TestStreamEmitNeverBlocks(t *testing.T) {
	s := NewStream()
	s.Subscribe(1) // nobody ever reads this subscriber
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10_000; i++ {
			s.Emit(Event{Seq: i})
		}
		close(done)
	}()
	<-done // would deadlock (and the test time out) if Emit blocked
	s.Close()
}

func TestStreamCloseTerminatesConsumers(t *testing.T) {
	s := NewStream()
	sub := s.Subscribe(16)
	var wg sync.WaitGroup
	wg.Add(1)
	received := 0
	go func() {
		defer wg.Done()
		for range sub.Events() {
			received++
		}
	}()
	s.Emit(Event{Seq: 1})
	s.Emit(Event{Seq: 2})
	s.Close()
	wg.Wait()
	if received != 2 {
		t.Errorf("consumer saw %d events before close, want 2", received)
	}
	s.Close()       // idempotent
	sub.Close()     // idempotent after stream close
	s.Emit(Event{}) // dropped silently
	if got := s.SubscribeWith(4, DropNewest); got != nil {
		if _, ok := <-got.Events(); ok {
			t.Error("subscriber on a closed stream received an event")
		}
	}
}

func TestStreamConcurrentEmitSubscribeClose(t *testing.T) {
	s := NewStream()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // producer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if s.Enabled() {
					s.Emit(Event{Seq: i})
				}
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() { // churning subscribers
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sub := s.SubscribeWith(4, DropPolicy(i%2))
				for j := 0; j < 3; j++ {
					select {
					case <-sub.Events():
					default:
					}
				}
				sub.Close()
			}
		}()
	}
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	// Let the churn run, then shut down.
	for i := 0; i < 4; i++ {
		sub := s.Subscribe(64)
		for j := 0; j < 10; j++ {
			select {
			case <-sub.Events():
			default:
			}
		}
		sub.Close()
	}
	close(stop)
	<-wgDone
	s.Close()
}

func TestTee(t *testing.T) {
	if tr := Tee(); tr != Nop {
		t.Errorf("Tee() = %v, want Nop", tr)
	}
	if tr := Tee(nil, Nop); tr != Nop {
		t.Errorf("Tee(nil, Nop) = %v, want Nop", tr)
	}
	rec := NewRecorder()
	if tr := Tee(nil, rec); tr != Tracer(rec) {
		t.Errorf("Tee of one tracer did not collapse to it")
	}

	s := NewStream()
	sub := s.Subscribe(4)
	both := Tee(rec, s)
	if !both.Enabled() {
		t.Error("tee with a recorder reports disabled")
	}
	both.Emit(Event{Type: EvStateOpen, Seq: 7})
	if n := len(rec.Events()); n != 1 {
		t.Errorf("recorder saw %d events, want 1", n)
	}
	ev := <-sub.Events()
	if ev.Seq != 7 {
		t.Errorf("stream event = %+v", ev)
	}

	// A tee over only-disabled tracers is disabled and emits nowhere.
	empty := NewStream()
	disabled := Tee(empty, NewStream())
	if disabled.Enabled() {
		t.Error("tee over subscriber-less streams reports enabled")
	}
	s.Close()
	empty.Close()
}
