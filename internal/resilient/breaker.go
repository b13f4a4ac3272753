package resilient

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"starts/internal/obs"
)

// State is a circuit's position.
type State int

const (
	// StateClosed admits all traffic (the healthy state).
	StateClosed State = iota
	// StateOpen refuses all traffic until the cooldown elapses.
	StateOpen
	// StateHalfOpen admits one probe at a time to test recovery.
	StateHalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig configures a Breaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips
	// a closed circuit open. Default 5.
	FailureThreshold int
	// Cooldown is how long an open circuit refuses traffic before
	// admitting a probe. Default 30s.
	Cooldown time.Duration
	// Metrics, when set, counts every state change as
	// starts_breaker_transitions_total{source,to}, so a flapping source
	// is visible on /metrics without any logging.
	Metrics *obs.Registry
	// Now overrides the clock, for tests.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown == 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a per-source circuit breaker: consecutive failures open a
// source's circuit, an open circuit sheds all traffic for a cooldown,
// and one successful half-open probe query confirms recovery and closes
// the circuit again. It satisfies core.BreakerGate.
type Breaker struct {
	cfg BreakerConfig

	mu      sync.Mutex
	sources map[string]*circuit
}

// circuit is one source's breaker state.
type circuit struct {
	state    State
	failures int // consecutive failures while closed
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewBreaker returns a breaker; zero config fields take the defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), sources: map[string]*circuit{}}
}

func (b *Breaker) circuitFor(id string) *circuit {
	c := b.sources[id]
	if c == nil {
		c = &circuit{}
		b.sources[id] = c
	}
	return c
}

// moved counts the source's circuit entering state to.
func (b *Breaker) moved(id string, to State) {
	b.cfg.Metrics.Counter(obs.L("starts_breaker_transitions_total", "source", id, "to", to.String())).Inc()
}

// Allow reports whether a call to the source may proceed. An open
// circuit whose cooldown has elapsed transitions to half-open and admits
// the caller as its probe; a half-open circuit admits one probe at a
// time.
func (b *Breaker) Allow(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.circuitFor(id)
	switch c.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.cfg.Now().Sub(c.openedAt) < b.cfg.Cooldown {
			return false
		}
		c.state = StateHalfOpen
		c.probing = true
		b.moved(id, StateHalfOpen)
		return true
	default: // StateHalfOpen
		if c.probing {
			return false
		}
		c.probing = true
		return true
	}
}

// Record feeds a call's outcome back. A nil err is a success; context
// cancellation is ignored (the caller gave up — that says nothing about
// the source), though it still releases a half-open probe slot the call
// may hold; any other error counts against the source.
func (b *Breaker) Record(id string, err error) {
	if err != nil && errors.Is(err, context.Canceled) {
		b.Release(id)
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.circuitFor(id)
	if err == nil {
		switch c.state {
		case StateClosed:
			c.failures = 0
		case StateHalfOpen:
			*c = circuit{state: StateClosed}
			b.moved(id, StateClosed)
		}
		return
	}
	switch c.state {
	case StateClosed:
		c.failures++
		if c.failures >= b.cfg.FailureThreshold {
			*c = circuit{state: StateOpen, openedAt: b.cfg.Now()}
			b.moved(id, StateOpen)
		}
	case StateHalfOpen:
		// The probe failed: back to open, restarting the cooldown.
		*c = circuit{state: StateOpen, openedAt: b.cfg.Now()}
		b.moved(id, StateOpen)
	}
}

// Release frees a half-open probe slot without judging the source, for
// an admitted call that produced no wire outcome to Record: it was shed
// at the dispatch layer, coalesced onto another call's batch, or its
// caller gave up. The circuit stays half-open and the next Allow admits
// a fresh probe, instead of refusing all traffic forever waiting on a
// Record that will never come. Releasing with no probe in flight is a
// no-op.
func (b *Breaker) Release(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.sources[id]; c != nil && c.state == StateHalfOpen {
		c.probing = false
	}
}

// State reports a source's current circuit position without transitioning
// it (unlike Allow, an elapsed cooldown still reads as open here).
func (b *Breaker) State(id string) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.sources[id]
	if c == nil {
		return StateClosed
	}
	return c.state
}

// Open reports whether the source's circuit is in the open state right
// now — the read-only fast-drain signal for the dispatch layer's Refuse
// hook. It admits half-open (the probe in flight must be allowed to
// run), and unlike Allow it never transitions the circuit, so
// checking it cannot consume a probe slot.
func (b *Breaker) Open(id string) bool {
	return b.State(id) == StateOpen
}

// Snapshot lists every tracked source and its state, sorted by ID.
func (b *Breaker) Snapshot() []SourceState {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]SourceState, 0, len(b.sources))
	for id, c := range b.sources {
		out = append(out, SourceState{ID: id, State: c.state, Failures: c.failures})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SourceState is one source's entry in a Snapshot.
type SourceState struct {
	ID       string
	State    State
	Failures int
}
