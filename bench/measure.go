package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"starts/internal/core"
	"starts/internal/dispatch"
	"starts/internal/query"
)

// windowLen is the length of the windows a measured phase is cut into for
// the quiet-window estimator. It spans several collector cycles on every
// workload (they run every 80-300 ms): with shorter windows the quietest
// ones are simply those the collector did not run in, and its cost — a
// third of the CPU on the allocation-heavy workloads — drops out.
const windowLen = 500 * time.Millisecond

// phaseResult is everything one timed phase produced. Latencies are the
// raw samples, sorted; nothing is bucketed or interpolated.
type phaseResult struct {
	wall      time.Duration
	lat, ttfr []int64 // ns, ascending
	lag       []int64 // open loop: dispatch time - due time, ns, ascending
	attempted int
	failed    int
	windows   []window
	mallocs   uint64 // deltas over the phase
	allocated uint64
	cpu       time.Duration // process user+sys over the phase
}

// utilisation is the share of the process's two cores the phase used.
func (p *phaseResult) utilisation() float64 {
	return ratio(p.cpu.Seconds(), p.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
}

// window is one sampling interval of a phase.
type window struct {
	queries int64
	svcNS   float64 // mean search latency of the queries completed in it
	cpuNS   float64 // process CPU per completed query
}

// progress is what the sampler reads at every window boundary. Each
// closed-loop client owns one, padded apart, so the timed path never
// contends.
type progress struct {
	done  atomic.Int64
	latNS atomic.Int64
	_     [48]byte
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampler cuts the phase into windows: at every tick it reads the CPU
// clock and the clients' progress at the same instant, so each window's
// queries, latency and CPU refer to the same interval.
type sampler struct {
	prog []*progress
	stop chan struct{}
	done chan struct{}
	at   []sample
}

type sample struct {
	cpu         time.Duration
	done, latNS int64
}

func startSampler(prog []*progress, phase time.Duration) *sampler {
	s := &sampler{
		prog: prog,
		stop: make(chan struct{}), done: make(chan struct{}),
		at: make([]sample, 0, phase/windowLen+8),
	}
	s.read()
	go func() {
		defer close(s.done)
		t := time.NewTicker(windowLen)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if len(s.at) < cap(s.at) {
					s.read()
				}
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *sampler) read() {
	sm := sample{cpu: cpuTime()}
	for _, p := range s.prog {
		sm.done += p.done.Load()
		sm.latNS += p.latNS.Load()
	}
	s.at = append(s.at, sm)
}

// finish stops sampling and returns the full windows that completed a
// query, and the CPU time of the whole phase.
func (s *sampler) finish() (ws []window, cpu time.Duration) {
	close(s.stop)
	<-s.done
	cpu = cpuTime() - s.at[0].cpu
	for i := 1; i < len(s.at); i++ {
		a, b := s.at[i-1], s.at[i]
		if n := b.done - a.done; n > 0 {
			ws = append(ws, window{
				queries: n,
				svcNS:   float64(b.latNS-a.latNS) / float64(n),
				cpuNS:   float64(b.cpu-a.cpu) / float64(n),
			})
		}
	}
	return ws, cpu
}

// traffic is the generator's state: the query pool and where each client
// (or the arrival schedule) is in its seeded order. It persists across a
// run's phases, so the measured phase continues the stream the warm-up
// began instead of replaying it.
type traffic struct {
	pool   []*query.Query
	orders [][]int32 // per closed-loop client; one for the open loop
	next   []int
	rng    *rand.Rand // open loop: arrival gaps
}

func newTraffic(w *workload, pool []*query.Query, seed int64) *traffic {
	tf := &traffic{pool: pool, rng: newRand(seed, 7)}
	clients := max(w.Clients, 1)
	for i := 0; i < clients; i++ {
		tf.orders = append(tf.orders, w.drawOrder(newRand(seed, 10+int64(i)), i, clients))
	}
	tf.next = make([]int, clients)
	return tf
}

// newRand returns the seed's generator for one independent stream of
// the benchmark's inputs.
func newRand(seed, stream int64) *rand.Rand { return rand.New(rand.NewSource(seed*1000 + stream)) }

// isShed reports a per-source failure decided by the dispatch layer
// rather than by the source.
func isShed(err error) bool {
	return errors.Is(err, dispatch.ErrQueueFull) || errors.Is(err, dispatch.ErrDeadline) ||
		errors.Is(err, dispatch.ErrRefused)
}

// failedAnswer is the benchmark's definition of a failed query: the
// search failed, or any contacted source failed, was shed or timed out.
func failedAnswer(ans *core.Answer, err error) bool {
	return err != nil || ans == nil || len(ans.Degraded.Failed) > 0
}

// runPhase drives the workload's traffic against the rig for dur and
// returns what it measured. samples is how many latency samples each
// closed-loop client has room for (the warm-up's rate sizes it, so the
// timed loop never grows a slice). A non-nil tracer observes every query.
func runPhase(w *workload, r *rig, tf *traffic, dur time.Duration, samples int, tr *tracer) *phaseResult {
	runtime.GC()
	var before, after runtime.MemStats
	var res *phaseResult
	runtime.ReadMemStats(&before)
	if w.wan() {
		res = openLoop(w, r, tf, dur, tr)
	} else {
		res = closedLoop(w, r, tf, dur, samples, tr)
	}
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocated = after.TotalAlloc - before.TotalAlloc
	slices.Sort(res.lat)
	if !w.wan() {
		// Nothing streams in-process: the first result arrives with the last.
		res.ttfr = res.lat
	}
	slices.Sort(res.ttfr)
	slices.Sort(res.lag)
	return res
}

// closedLoop runs w.Clients callers, each sending its next query when the
// previous one returned.
func closedLoop(w *workload, r *rig, tf *traffic, dur time.Duration, samples int, tr *tracer) *phaseResult {
	type client struct {
		order  []int32
		next   *int
		lat    []int64
		failed int
	}
	clients := make([]*client, w.Clients)
	prog := make([]*progress, w.Clients)
	for i := range clients {
		clients[i] = &client{order: tf.orders[i], next: &tf.next[i], lat: make([]int64, 0, samples)}
		prog[i] = &progress{}
	}
	pool := tf.pool
	ctx := context.Background()
	var wg sync.WaitGroup
	smp := startSampler(prog, dur)
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, p *progress) {
			defer wg.Done()
			for ; ; *c.next++ {
				q := pool[c.order[*c.next%len(c.order)]]
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				ans, err := r.ms.Search(ctx, q)
				d := time.Since(t0)
				if len(c.lat) < cap(c.lat) {
					c.lat = append(c.lat, int64(d))
				}
				p.done.Add(1)
				p.latNS.Add(int64(d))
				if failedAnswer(ans, err) {
					c.failed++
				}
				if tr != nil {
					var order []string
					if ans != nil {
						order = ans.Contacted
					}
					tr.observe(q, t0, d, ans, order, 0)
				}
			}
		}(c, prog[i])
	}
	wg.Wait()
	res := &phaseResult{wall: time.Since(start)}
	res.windows, res.cpu = smp.finish()
	for i, c := range clients {
		res.attempted += int(prog[i].done.Load())
		res.failed += c.failed
		res.lat = append(res.lat, c.lat...)
	}
	return res
}

// spinAhead is how long before an arrival is due the generator stops
// sleeping and spins: wake-ups on the reference host overshoot by
// 0.2-0.7 ms, which would otherwise be the lag.
const spinAhead = 1500 * time.Microsecond

// openLoopWorkers bounds concurrent searches in the open loop; arrivals
// beyond it wait in the hand-off channel and the wait counts as latency.
const openLoopWorkers = 256

// openLoop offers queries on a fixed seeded Poisson schedule, whether or
// not earlier ones have finished, and times each from the instant it was
// due. No arrival is skipped: a late generator shows as lag, a slow
// broker as latency.
func openLoop(w *workload, r *rig, tf *traffic, dur time.Duration, tr *tracer) *phaseResult {
	pool, order := tf.pool, tf.orders[0]
	var due []time.Duration
	var pick []int32
	for at := time.Duration(0); ; tf.next[0]++ {
		at += time.Duration(tf.rng.ExpFloat64() / w.RateQPS * float64(time.Second))
		if at >= dur {
			break
		}
		due = append(due, at)
		pick = append(pick, order[tf.next[0]%len(order)])
	}
	n := len(due)
	lat, ttfr, lag := make([]int64, n), make([]int64, n), make([]int64, n)
	failed := make([]bool, n)
	prog := &progress{}
	hand := make(chan int, n) // holds every arrival, so the generator never blocks
	ctx := context.Background()
	var wg sync.WaitGroup
	smp := startSampler([]*progress{prog}, dur)
	start := time.Now()
	for i := 0; i < openLoopWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range hand {
				q := pool[pick[i]]
				dueAt := start.Add(due[i])
				var first time.Time
				var order []string
				early := 0
				ans, err := r.ms.SearchStream(ctx, q, func(ev core.StreamEvent) error {
					if len(ev.Docs) > 0 && first.IsZero() {
						first = time.Now()
					}
					if ev.Final == nil {
						early += len(ev.Docs)
						if tr != nil && ev.SourceID != "" {
							order = append(order, ev.SourceID)
						}
					}
					return nil
				})
				end := time.Now()
				if first.IsZero() {
					first = end
				}
				lat[i], ttfr[i] = int64(end.Sub(dueAt)), int64(first.Sub(dueAt))
				failed[i] = failedAnswer(ans, err)
				prog.done.Add(1)
				prog.latNS.Add(lat[i])
				if tr != nil {
					tr.observe(q, dueAt, end.Sub(dueAt), ans, order, early)
				}
			}
		}()
	}
	for i := range due {
		if wait := time.Until(start.Add(due[i])) - spinAhead; wait > 0 {
			// A raw nanosleep, not time.Sleep: a Go timer parked on a P
			// that is running collector work waits until that work
			// yields, which made the lag's p99 20 ms instead of 6. An
			// interrupted sleep only means a longer spin.
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil)
		}
		for time.Since(start) < due[i] {
		}
		lag[i] = int64(time.Since(start) - due[i])
		hand <- i
	}
	close(hand)
	wg.Wait()
	res := &phaseResult{wall: time.Since(start), lat: lat, ttfr: ttfr, lag: lag, attempted: n}
	res.windows, res.cpu = smp.finish()
	for _, f := range failed {
		if f {
			res.failed++
		}
	}
	return res
}

// quantile returns the q-quantile of ascending samples by nearest rank.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)])
}

func mean(v []int64) float64 {
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return ratio(sum, float64(len(v)))
}

// quietDecile is the quiet-window estimator: the lower decile of a
// per-window value over the phase's windows. Interference from other
// tenants of the host only ever adds time, so the quietest windows are
// the ones that repeat best.
func quietDecile(ws []window, of func(window) float64) float64 {
	return windowQuantile(ws, of, 0.10)
}

func windowQuantile(ws []window, of func(window) float64, q float64) float64 {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = of(w)
	}
	slices.Sort(vals)
	return quantile(vals, q)
}

func svcOf(w window) float64 { return w.svcNS }
func cpuOf(w window) float64 { return w.cpuNS }
