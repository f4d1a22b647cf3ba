package obs

// Drops reports how many events the subscriber discarded because its
// buffer was full: the exactly-once accounting of the stream tests
// (received + dropped = emitted) reads it.
func (u *Subscriber) Drops() int64 { return u.drops.Load() }
