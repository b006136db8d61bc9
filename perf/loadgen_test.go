package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestPacerLateness: at 5k req/s, with senders that answer at once, the
// pacer releases requests within 0.1 ms of their due times at the p99.
// A burst of outside load can stall any half-second on a shared
// machine, so the best of three tries counts.
func TestPacerLateness(t *testing.T) {
	var st stepStats
	for try := 0; try < 3; try++ {
		st = runStep(context.Background(), 5000, 2500, 2, func(context.Context, int, int, time.Time) (time.Time, outcome, bool) {
			return time.Now(), answered, false
		})
		if st.LateP99 < 0.1 {
			break
		}
	}
	if st.LateP99 >= 0.1 {
		t.Errorf("gen.late_p99_ms = %.4f at 5k req/s, want < 0.1", st.LateP99)
	}
	if st.Sent != 2500 || st.Failed != 0 {
		t.Errorf("sent %d, failed %d; want 2500 sent, none failed", st.Sent, st.Failed)
	}
}

// TestRunStepAccounting offers five times what one lane can serve: the
// queue backs up, whatever is still queued at the deadline is never
// sent, and refusals, wrong answers and unsent requests all fail.
func TestRunStepAccounting(t *testing.T) {
	var refusedN, wrongN int // one lane, so one goroutine writes these
	st := runStep(context.Background(), 1000, 200, 1, func(_ context.Context, _, i int, _ time.Time) (time.Time, outcome, bool) {
		time.Sleep(5 * time.Millisecond)
		switch i % 3 {
		case 1:
			refusedN++
			return time.Now(), refused, false
		case 2:
			wrongN++
			return time.Now(), wrong, false
		}
		return time.Now(), answered, true
	})
	if st.Offered != 200 || st.Sent+st.Unsent != 200 || st.Unsent == 0 {
		t.Fatalf("offered %d, sent %d, unsent %d: want 200 offered and a backlog left unsent", st.Offered, st.Sent, st.Unsent)
	}
	if st.Failed != st.Unsent+refusedN+wrongN {
		t.Errorf("failed %d, want %d unsent + %d refused + %d wrong", st.Failed, st.Unsent, refusedN, wrongN)
	}
	if st.Hits != st.Sent-refusedN-wrongN {
		t.Errorf("hits %d, want every one of the %d answers", st.Hits, st.Sent-refusedN-wrongN)
	}
	// Every answer waited in the backlog past the latency limit, so none
	// is good.
	if st.Achieved != 0 {
		t.Errorf("achieved %.0f req/s within the limit, want 0", st.Achieved)
	}
	// A failed request counts as lasting at least until the step's
	// deadline, which is stepGrace past the last due time; most of this
	// step failed, so its median does.
	if grace := float64(stepGrace / time.Millisecond); st.Latency.P50 < grace {
		t.Errorf("p50 %.1f ms: failed requests should count as lasting past the %v grace", st.Latency.P50, stepGrace)
	}
}

// TestRunClosed: two lanes whose answers take 1 ms each keep one
// request in flight apiece, so 100 ms answers about 200 requests; the
// ones slower than the latency limit count as answered but not as good.
func TestRunClosed(t *testing.T) {
	var slow atomic.Int64
	st := runClosed(context.Background(), 100*time.Millisecond, 2, func(_ context.Context, _, i int, _ time.Time) (time.Time, outcome, bool) {
		d := time.Millisecond
		if i%10 == 0 {
			d = 2 * latencyLimitMs * time.Millisecond
			slow.Add(1)
		}
		time.Sleep(d)
		return time.Now(), answered, i%2 == 0
	})
	if st.Rate != 0 || st.Offered != st.Sent || st.Failed != 0 || st.Unsent != 0 {
		t.Errorf("closed-loop step %+v: want rate 0, every request sent, none failed", st)
	}
	if st.Sent < 20 || st.Sent > 200 {
		t.Errorf("sent %d in 100 ms on two 1 ms lanes, want between 20 and 200", st.Sent)
	}
	if good := st.Achieved * st.Seconds; int(good+0.5) != st.Sent-int(slow.Load()) {
		t.Errorf("%.0f good answers, want %d sent less %d slow ones", good, st.Sent, slow.Load())
	}
	if st.Hits < st.Sent/2-1 || st.Hits > st.Sent/2+1 {
		t.Errorf("hits %d of %d, want half", st.Hits, st.Sent)
	}
}
