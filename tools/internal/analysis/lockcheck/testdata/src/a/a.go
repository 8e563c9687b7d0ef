package a

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) bumpLocked() { s.n++ }

// Calling a sibling *Locked method from a *Locked method is lock-neutral.
func (s *S) doubleLocked() { s.bumpLocked() }

// The canonical caller shape: acquire, defer release, call in.
func (s *S) Bump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bumpLocked()
}

// Acquiring inside a closure in the same function body also counts.
func (s *S) InClosure() func() {
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.bumpLocked()
	}
}

// A *Locked method must not touch its own receiver's mutex.
func (s *S) selfLockLocked() {
	s.mu.Lock() // want `selfLockLocked calls s\.mu\.Lock: \*Locked methods run with the receiver's mutex already held`
	s.n++
	s.mu.Unlock() // want `selfLockLocked calls s\.mu\.Unlock`
}

// Calling a *Locked method without the lock is the seeded violation.
func (s *S) Unheld() {
	s.bumpLocked() // want `call to bumpLocked without s\.mu held`
}

// The escape hatch suppresses with a reason.
func (s *S) Escaped() {
	//lint:ignore lockcheck construction-time call, no concurrent access yet
	s.bumpLocked()
}

// Locking one instance does not license calls on another.
func Cross(a, b *S) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.bumpLocked() // want `call to bumpLocked without b\.mu held`
}

// *Locked methods on mutex-free types are outside the convention.
type NoMu struct{ n int }

func (p *NoMu) addLocked() { p.n++ }

func UseNoMu(p *NoMu) { p.addLocked() }

// The coordinator shape: a fan-out type whose own mutex guards routing
// state while each sub-store keeps its own lock. The coordinator's *Locked methods follow the usual contract,
// and holding the coordinator's mutex licenses only them — never a
// sub-store's *Locked methods.
type Sub struct {
	mu sync.Mutex
	n  int
}

func (s *Sub) addLocked() { s.n++ }

type Coord struct {
	mu    sync.Mutex
	subs  []*Sub
	order []int
}

func (c *Coord) dropFromOrderLocked(i int) {
	c.order = append(c.order[:i], c.order[i+1:]...)
}

func (c *Coord) Remove(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropFromOrderLocked(i)
}

// The coordinator's lock is not the sub-store's lock.
func (c *Coord) BroadcastUnheld() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sub := range c.subs {
		sub.addLocked() // want `call to addLocked without sub\.mu held`
	}
}

// The correct fan-out acquires each sub-store's own mutex.
func (c *Coord) Broadcast() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sub := range c.subs {
		sub.mu.Lock()
		sub.addLocked()
		sub.mu.Unlock()
	}
}

// An RWMutex read lock also satisfies the caller-side rule.
type R struct {
	mu sync.RWMutex
	m  map[int]int
}

func (r *R) getLocked(k int) int { return r.m[k] }

func (r *R) Get(k int) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.getLocked(k)
}
