// Package faulty injects deterministic, seedable faults into STARTS
// connections and servers, so every failure mode of an unreliable
// Internet source — outright errors, added latency, hangs, truncated or
// garbage SOIF bodies, flapping availability — is reproducible in tests
// and soak runs. The paper's premise (§3) is that sources are autonomous
// and unreliable; this package makes that unreliability a first-class,
// scriptable test fixture.
//
// Two injection points cover both layers of the system: WrapConn
// decorates a client.Conn (faults seen by the metasearch core) and
// Middleware decorates an http.Handler (faults seen on the wire,
// including malformed bodies the SOIF parser must survive).
package faulty

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"starts/internal/client"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// ErrInjected marks every failure this package fabricates, so tests can
// tell injected faults from real bugs with errors.Is.
var ErrInjected = errors.New("injected failure")

// Config selects which faults to inject and how often. The zero value
// injects nothing. All rates are probabilities in [0, 1]; the random
// sequence is fully determined by Seed, so a given (Config, call
// sequence) always produces the same faults.
type Config struct {
	// Seed determines the fault sequence.
	Seed int64
	// ErrorRate is the probability a call fails outright (a Conn error,
	// or a 503 from the middleware).
	ErrorRate float64
	// HangRate is the probability a call blocks until its context ends.
	HangRate float64
	// TruncateRate is the probability a response body is cut short
	// mid-object (middleware; the Conn wrapper surfaces it as an error,
	// as its caller would after a failed parse).
	TruncateRate float64
	// GarbageRate is like TruncateRate but replaces the body with bytes
	// that are not SOIF at all.
	GarbageRate float64
	// Latency is added to every call; Jitter adds a uniform random extra
	// in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// FlapUp/FlapDown, when both positive, cycle availability by call
	// count: FlapUp healthy calls, then FlapDown failing calls, repeat.
	FlapUp   int
	FlapDown int
}

// fault is one call's injected behavior.
type fault int

const (
	faultNone fault = iota
	faultError
	faultHang
	faultTruncate
	faultGarbage
)

// injector draws the deterministic fault sequence. Each call consumes a
// fixed number of random draws regardless of outcome, so fault decisions
// stay aligned across runs even when earlier faults change control flow.
type injector struct {
	cfg Config

	mu     sync.Mutex
	rnd    *rand.Rand
	calls  int
	down   bool // manual override: SetFailing
	forced bool
}

func newInjector(cfg Config) *injector {
	return &injector{cfg: cfg, rnd: rand.New(rand.NewSource(cfg.Seed))}
}

// next decides one call's fate.
func (in *injector) next() (fault, time.Duration, int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls++
	call := in.calls
	uErr, uHang := in.rnd.Float64(), in.rnd.Float64()
	uTrunc, uGarb := in.rnd.Float64(), in.rnd.Float64()
	uLat := in.rnd.Float64()

	lat := in.cfg.Latency
	if in.cfg.Jitter > 0 {
		lat += time.Duration(uLat * float64(in.cfg.Jitter))
	}
	if in.forced {
		if in.down {
			return faultError, lat, call
		}
		return faultNone, lat, call
	}
	if in.cfg.FlapUp > 0 && in.cfg.FlapDown > 0 {
		if phase := (call - 1) % (in.cfg.FlapUp + in.cfg.FlapDown); phase >= in.cfg.FlapUp {
			return faultError, lat, call
		}
	}
	switch {
	case uHang < in.cfg.HangRate:
		return faultHang, lat, call
	case uErr < in.cfg.ErrorRate:
		return faultError, lat, call
	case uTrunc < in.cfg.TruncateRate:
		return faultTruncate, lat, call
	case uGarb < in.cfg.GarbageRate:
		return faultGarbage, lat, call
	}
	return faultNone, lat, call
}

// setFailing forces the injector down (or back up), overriding the
// probabilistic and flap-cycle behavior — a scripted outage.
func (in *injector) setFailing(down bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.forced = true
	in.down = down
}

// setLatency rewrites the base added latency for all subsequent calls —
// a scripted slowdown (or recovery) mid-run.
func (in *injector) setLatency(d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cfg.Latency = d
}

// calls reports how many calls the injector has decided.
func (in *injector) count() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls
}

// sleep waits d or until ctx ends, whichever is first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Conn wraps a client.Conn with fault injection. The injector gates
// once per call, so fault sequences stay aligned with the number of
// round trips actually attempted.
type Conn struct {
	inner client.Conn
	in    *injector
}

var _ client.Conn = (*Conn)(nil)

// WrapConn returns a fault-injecting wrapper around inner.
func WrapConn(inner client.Conn, cfg Config) *Conn {
	return &Conn{inner: inner, in: newInjector(cfg)}
}

// SetFailing scripts an outage: true fails every call until SetFailing
// (false) restores service. It overrides ErrorRate and the flap cycle.
func (c *Conn) SetFailing(down bool) { c.in.setFailing(down) }

// SetLatency changes the base latency added to every subsequent call,
// overriding the construction-time Config.Latency — a scripted slowdown
// for overload drills; pass the old value back to script recovery.
func (c *Conn) SetLatency(d time.Duration) { c.in.setLatency(d) }

// Calls reports how many calls reached the wrapper.
func (c *Conn) Calls() int { return c.in.count() }

// gate applies one call's injected latency and fault; a nil return means
// the call may proceed to the real Conn.
func (c *Conn) gate(ctx context.Context, what string) error {
	f, lat, call := c.in.next()
	if err := sleep(ctx, lat); err != nil {
		return err
	}
	switch f {
	case faultHang:
		<-ctx.Done()
		return ctx.Err()
	case faultError:
		return fmt.Errorf("faulty: %s of %s, call %d: %w", what, c.inner.SourceID(), call, ErrInjected)
	case faultTruncate:
		return fmt.Errorf("faulty: %s of %s, call %d: truncated SOIF body: %w", what, c.inner.SourceID(), call, ErrInjected)
	case faultGarbage:
		return fmt.Errorf("faulty: %s of %s, call %d: garbage SOIF body: %w", what, c.inner.SourceID(), call, ErrInjected)
	}
	return nil
}

// SourceID implements client.Conn.
func (c *Conn) SourceID() string { return c.inner.SourceID() }

// Metadata implements client.Conn.
func (c *Conn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	if err := c.gate(ctx, "metadata"); err != nil {
		return nil, err
	}
	return c.inner.Metadata(ctx)
}

// Summary implements client.Conn.
func (c *Conn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	if err := c.gate(ctx, "summary"); err != nil {
		return nil, err
	}
	return c.inner.Summary(ctx)
}

// Sample implements client.Conn.
func (c *Conn) Sample(ctx context.Context) ([]*source.SampleEntry, error) {
	if err := c.gate(ctx, "sample"); err != nil {
		return nil, err
	}
	return c.inner.Sample(ctx)
}

// Query implements client.Conn.
func (c *Conn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	if err := c.gate(ctx, "query"); err != nil {
		return nil, err
	}
	return c.inner.Query(ctx, q)
}

// garbage is what a source that has lost its mind serves: bytes that are
// not SOIF framing at all.
var garbage = []byte("@GARBAGE{ <<<this is not SOIF>>> \x00\xff\xfe lengths lie here }")

// Middleware wraps an HTTP handler (typically a server.Server) with
// fault injection: injected errors become 503s, truncation cuts the
// response mid-body, garbage replaces it wholesale, and hangs hold the
// request until the client gives up.
func Middleware(cfg Config, next http.Handler) http.Handler {
	in := newInjector(cfg)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, lat, call := in.next()
		if err := sleep(r.Context(), lat); err != nil {
			return
		}
		switch f {
		case faultHang:
			<-r.Context().Done()
		case faultError:
			http.Error(w, fmt.Sprintf("faulty: injected failure (call %d)", call), http.StatusServiceUnavailable)
		case faultGarbage:
			w.Header().Set("Content-Type", "application/x-soif")
			_, _ = w.Write(garbage)
		case faultTruncate:
			rec := &recorder{header: http.Header{}, status: http.StatusOK}
			next.ServeHTTP(rec, r)
			for k, v := range rec.header {
				w.Header()[k] = v
			}
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.status)
			_, _ = w.Write(rec.body[:len(rec.body)/2])
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// recorder captures a response so the middleware can mangle it.
type recorder struct {
	header http.Header
	status int
	body   []byte
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(status int) { r.status = status }

func (r *recorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}
