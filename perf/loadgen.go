package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The pacer must release each request within microseconds of its due
// time, or its own lateness buries a ~40 µs cache hit. Go's timers
// cannot: the netpoller rounds a sub-millisecond wait up to a whole
// millisecond, so time.Sleep runs ~0.5 ms late at the median. Spinning
// is worse: a goroutine that yields in a loop is always runnable, so the
// scheduler stops polling the network and responses wait for sysmon's
// 10 ms poll, and a spin that does not yield takes one of the two CPUs
// from the server. Instead the pacer pins itself to an OS thread, sets
// that thread's timer slack to 1 µs (the kernel default is 50 µs) and
// sleeps in nanosleep(2).
const (
	prSetTimerslack = 29 // PR_SET_TIMERSLACK, linux/prctl.h
	pacerSlackNs    = 1000
)

// pinPacer locks the calling goroutine to its thread and tightens the
// thread's timer slack; unpin restores both.
func pinPacer() (unpin func(), err error) {
	runtime.LockOSThread()
	if _, _, e := syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, pacerSlackNs, 0); e != 0 {
		runtime.UnlockOSThread()
		return nil, fmt.Errorf("prctl(PR_SET_TIMERSLACK): %w", e)
	}
	return func() {
		// 0 restores the thread's default slack; the call cannot fail
		// once the set above has succeeded.
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 0, 0)
		runtime.UnlockOSThread()
	}, nil
}

// waitUntil returns at (or just after) due.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// An EINTR (the runtime preempts with signals) just sleeps again.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// outcome is how one sent request ended.
type outcome uint8

const (
	answered outcome = iota // a 200 whose body passed the checks
	refused                 // a transport error or a status other than 200
	wrong                   // a 200 whose body failed a check
)

// sendFunc performs request i, due at due, on connection lane. It
// returns when the response was complete, so checks it runs afterwards
// stay out of the latency, how the request ended, and whether the
// response cache answered it. It runs on the lane's sender goroutine.
type sendFunc func(ctx context.Context, lane, i int, due time.Time) (done time.Time, out outcome, hit bool)

// stepStats is one step of traffic as measured from the client side.
type stepStats struct {
	// Rate is the offered rate of an open-loop step, in requests per
	// second; 0 marks a closed-loop step.
	Rate    float64 `json:"rate"`
	Seconds float64 `json:"seconds"`
	Offered int     `json:"offered"` // a closed-loop step offers what it sends
	Sent    int     `json:"sent"`
	Failed  int     `json:"failed"` // refused, wrong or never sent
	Unsent  int     `json:"unsent"`
	Hits    int     `json:"hits"` // answers the response cache served
	// Achieved is the rate of answers within latencyLimitMs, per second.
	Achieved float64 `json:"achieved_rps"`
	// Latency is in ms, measured from each request's due time (open
	// loop) or send time (closed loop). A failed request counts as
	// taking at least until the step's deadline (open loop) or the
	// latency limit (closed loop).
	Latency dist `json:"latency_ms"`
	// LateP99 is the pacer's p99 lateness against the schedule, in ms.
	LateP99 float64 `json:"late_p99_ms"`
}

// hitRatio is the share of answers the response cache served.
func (s stepStats) hitRatio() float64 {
	if n := s.Offered - s.Failed; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// stepGrace is how long after a step's last due time queued requests
// may still be sent; whatever is still queued then was never sent.
const stepGrace = 100 * time.Millisecond

// record is one request as the step saw it.
type record struct {
	sent bool
	out  outcome
	hit  bool
	ms   float64
}

// runStep offers n requests at a constant rate, open loop: request i is
// due at start + i/rate whether or not earlier ones have finished. lanes
// sender goroutines (one per client connection) take requests from the
// queue in due order. It returns once every sent request has completed.
func runStep(ctx context.Context, rate float64, n, lanes int, send sendFunc) stepStats {
	type item struct {
		i   int
		due time.Time
	}
	interval := time.Duration(float64(time.Second) / rate)
	// Sized to the whole step so the pacer never blocks on a backlog.
	queue := make(chan item, n)
	res := make([]record, n)
	late := make([]float64, n)
	start := time.Now().Add(time.Millisecond)
	end := start.Add(time.Duration(n) * interval)
	deadline := end.Add(stepGrace)

	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for it := range queue {
				if ctx.Err() != nil || time.Now().After(deadline) {
					continue // never sent
				}
				done, out, hit := send(ctx, lane, it.i, it.due)
				res[it.i] = record{sent: true, out: out, hit: hit, ms: msSince(it.due, done)}
			}
		}(lane)
	}
	if unpin, err := pinPacer(); err != nil {
		fmt.Fprintf(os.Stderr, "perf: pacer keeps the default timer slack: %v\n", err)
	} else {
		defer unpin()
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		late[i] = msSince(due, time.Now())
		queue <- item{i, due}
	}
	close(queue)
	wg.Wait()

	st := tallyStep(res, end.Sub(start), func(i int) float64 {
		return msSince(start.Add(time.Duration(i)*interval), deadline)
	})
	st.Rate = rate
	st.LateP99 = summarize(late).P99
	return st
}

// runClosed keeps one request in flight on each of lanes connections
// for dur, closed loop: a lane sends its next request as soon as the
// answer to the last one arrives, so the server is never idle and its
// queue never grows beyond one request per lane. Request numbers are
// handed out in the order lanes ask for them.
func runClosed(ctx context.Context, dur time.Duration, lanes int, send sendFunc) stepStats {
	var next atomic.Int64
	recs := make([][]record, lanes)
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for ctx.Err() == nil {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				done, out, hit := send(ctx, lane, int(next.Add(1)-1), t0)
				recs[lane] = append(recs[lane], record{sent: true, out: out, hit: hit, ms: msSince(t0, done)})
			}
		}(lane)
	}
	wg.Wait()
	var res []record
	for _, r := range recs {
		res = append(res, r...)
	}
	// Requests sent before the end and answered after it count over the
	// time they took; a failed request counts as missing the limit.
	return tallyStep(res, time.Since(start), func(int) float64 { return latencyLimitMs })
}

// tallyStep counts a step's records. failedMs gives the latency a failed
// request i counts with, unless it took longer.
func tallyStep(res []record, took time.Duration, failedMs func(i int) float64) stepStats {
	st := stepStats{Seconds: took.Seconds(), Offered: len(res)}
	lat := make([]float64, len(res))
	good := 0
	for i, r := range res {
		if r.sent {
			st.Sent++
		} else {
			st.Unsent++
		}
		if r.sent && r.out == answered {
			lat[i] = r.ms
			if r.hit {
				st.Hits++
			}
			if r.ms <= latencyLimitMs {
				good++
			}
			continue
		}
		st.Failed++
		lat[i] = failedMs(i)
		if r.ms > lat[i] {
			lat[i] = r.ms
		}
	}
	if st.Seconds > 0 {
		st.Achieved = float64(good) / st.Seconds
	}
	st.Latency = summarize(lat)
	return st
}

// combineRounds merges one step's rounds: counts add up, while the
// rates and percentiles are medians over rounds, so one round hit by a
// burst of outside load does not set the result.
func combineRounds(rounds []stepStats) stepStats {
	out := stepStats{Rate: rounds[0].Rate, Latency: dist{Supported: 100}}
	var achieved, p50, p99, late []float64
	for _, r := range rounds {
		out.Seconds += r.Seconds
		out.Offered += r.Offered
		out.Sent += r.Sent
		out.Failed += r.Failed
		out.Unsent += r.Unsent
		out.Hits += r.Hits
		out.Latency.N += r.Latency.N
		out.Latency.Supported = math.Min(out.Latency.Supported, r.Latency.Supported)
		achieved = append(achieved, r.Achieved)
		p50 = append(p50, r.Latency.P50)
		p99 = append(p99, r.Latency.P99)
		late = append(late, r.LateP99)
	}
	out.Achieved, out.LateP99 = median(achieved), median(late)
	out.Latency.P50, out.Latency.P99 = median(p50), median(p99)
	return out
}

// msSince returns t - from in milliseconds.
func msSince(from, t time.Time) float64 { return float64(t.Sub(from)) / float64(time.Millisecond) }
