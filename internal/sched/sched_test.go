package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func withPool(t *testing.T, n int, fn func(p *Pool)) {
	t.Helper()
	p := NewPool(n)
	defer p.Close()
	fn(p)
}

// coverageCheck runs a parallel loop and verifies every index is
// executed exactly once.
func coverageCheck(t *testing.T, p *Pool, n, grain int, part Partitioner) {
	t.Helper()
	counts := make([]int32, n)
	p.ParallelFor(n, grain, part, func(_ *Worker, lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad leaf range [%d, %d) for n=%d", lo, hi, n)
			return
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("part=%v n=%d grain=%d: index %d executed %d times", part, n, grain, i, c)
		}
	}
}

func TestParallelForCoverage(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		for _, part := range []Partitioner{Auto, Simple, Static} {
			for _, n := range []int{1, 2, 3, 7, 64, 1000, 4096} {
				for _, grain := range []int{1, 2, 16, 1000, 100000} {
					coverageCheck(t, p, n, grain, part)
				}
			}
		}
	})
}

func TestParallelForZeroAndNegative(t *testing.T) {
	withPool(t, 2, func(p *Pool) {
		ran := false
		p.ParallelFor(0, 1, Auto, func(_ *Worker, _, _ int) { ran = true })
		p.ParallelFor(-5, 1, Simple, func(_ *Worker, _, _ int) { ran = true })
		if ran {
			t.Fatal("body ran for empty range")
		}
	})
}

func TestGrainBoundsLeafSize(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		const n, grain = 1000, 8
		var maxLeaf int64
		p.ParallelFor(n, grain, Simple, func(_ *Worker, lo, hi int) {
			for {
				cur := atomic.LoadInt64(&maxLeaf)
				if int64(hi-lo) <= cur || atomic.CompareAndSwapInt64(&maxLeaf, cur, int64(hi-lo)) {
					break
				}
			}
		})
		if maxLeaf > grain {
			t.Fatalf("simple partitioner produced leaf of %d > grain %d", maxLeaf, grain)
		}
	})
}

func TestStaticLeavesRespectGrainCalls(t *testing.T) {
	withPool(t, 3, func(p *Pool) {
		const n, grain = 100, 7
		var leaves int64
		p.ParallelFor(n, grain, Static, func(_ *Worker, lo, hi int) {
			if hi-lo > grain {
				t.Errorf("static leaf [%d,%d) exceeds grain %d", lo, hi, grain)
			}
			atomic.AddInt64(&leaves, 1)
		})
		if leaves == 0 {
			t.Fatal("no leaves executed")
		}
	})
}

func TestSingleWorkerPool(t *testing.T) {
	withPool(t, 1, func(p *Pool) {
		for _, part := range []Partitioner{Auto, Simple, Static} {
			coverageCheck(t, p, 257, 4, part)
		}
	})
}

func TestNestedParallelFor(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		const outer, inner = 20, 100
		counts := make([][]int32, outer)
		for i := range counts {
			counts[i] = make([]int32, inner)
		}
		p.ParallelFor(outer, 1, Auto, func(w *Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				i := i
				w.ParallelFor(inner, 8, Auto, func(_ *Worker, jlo, jhi int) {
					for j := jlo; j < jhi; j++ {
						atomic.AddInt32(&counts[i][j], 1)
					}
				})
			}
		})
		for i := range counts {
			for j, c := range counts[i] {
				if c != 1 {
					t.Fatalf("nested index (%d, %d) executed %d times", i, j, c)
				}
			}
		}
	})
}

func TestDeeplyNested(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		var total int64
		p.ParallelFor(4, 1, Simple, func(w *Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				w.ParallelFor(4, 1, Simple, func(w2 *Worker, lo2, hi2 int) {
					for j := lo2; j < hi2; j++ {
						w2.ParallelFor(4, 1, Simple, func(_ *Worker, lo3, hi3 int) {
							atomic.AddInt64(&total, int64(hi3-lo3))
						})
					}
				})
			}
		})
		if total != 64 {
			t.Fatalf("3-deep nest executed %d leaves, want 64", total)
		}
	})
}

func TestNestedMixedPartitioners(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		var total int64
		p.ParallelFor(8, 1, Static, func(w *Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				w.ParallelFor(50, 5, Simple, func(_ *Worker, jlo, jhi int) {
					atomic.AddInt64(&total, int64(jhi-jlo))
				})
			}
		})
		if total != 400 {
			t.Fatalf("total = %d, want 400", total)
		}
	})
}

func TestConcurrentExternalLoops(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		var wg sync.WaitGroup
		var total int64
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.ParallelFor(500, 10, Auto, func(_ *Worker, lo, hi int) {
					atomic.AddInt64(&total, int64(hi-lo))
				})
			}()
		}
		wg.Wait()
		if total != 8*500 {
			t.Fatalf("total = %d, want %d", total, 8*500)
		}
	})
}

func TestWorkIsActuallyParallel(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		var concurrent, peak int32
		p.ParallelFor(64, 1, Simple, func(_ *Worker, lo, hi int) {
			c := atomic.AddInt32(&concurrent, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if c <= old || atomic.CompareAndSwapInt32(&peak, old, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt32(&concurrent, -1)
		})
		if peak < 2 {
			t.Fatalf("peak concurrency %d; work did not run in parallel", peak)
		}
	})
}

func TestImbalancedLoadIsStolen(t *testing.T) {
	// One heavy index among many light ones: with stealing, the wall
	// time should be near the heavy index cost, not heavy+light serial.
	withPool(t, 4, func(p *Pool) {
		workerSet := make(map[int]bool)
		var mu sync.Mutex
		p.ParallelFor(256, 1, Auto, func(w *Worker, lo, hi int) {
			mu.Lock()
			workerSet[w.ID()] = true
			mu.Unlock()
			if lo == 0 {
				time.Sleep(20 * time.Millisecond)
			}
		})
		if len(workerSet) < 2 {
			t.Fatalf("only %d workers participated; stealing broken", len(workerSet))
		}
	})
}

func TestWorkerIDsInRange(t *testing.T) {
	withPool(t, 3, func(p *Pool) {
		if p.NumWorkers() != 3 {
			t.Fatalf("NumWorkers = %d", p.NumWorkers())
		}
		p.ParallelFor(100, 1, Simple, func(w *Worker, _, _ int) {
			if w.ID() < 0 || w.ID() >= 3 {
				t.Errorf("worker id %d out of range", w.ID())
			}
			if w.Pool() != p {
				t.Error("worker reports wrong pool")
			}
		})
	})
}

func TestRunExecutesOnWorker(t *testing.T) {
	withPool(t, 2, func(p *Pool) {
		var ran int64
		p.Run(func(w *Worker) {
			w.ParallelFor(10, 1, Auto, func(_ *Worker, lo, hi int) {
				atomic.AddInt64(&ran, int64(hi-lo))
			})
		})
		if ran != 10 {
			t.Fatalf("nested loop from Run executed %d, want 10", ran)
		}
	})
}

func TestDefaultPoolSize(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.NumWorkers() < 1 {
		t.Fatalf("NumWorkers = %d", p.NumWorkers())
	}
}

func TestCoverageQuick(t *testing.T) {
	withPool(t, 4, func(p *Pool) {
		f := func(nRaw uint16, grainRaw uint8, partRaw uint8) bool {
			n := int(nRaw%2000) + 1
			grain := int(grainRaw%64) + 1
			part := Partitioner(partRaw % 3)
			counts := make([]int32, n)
			p.ParallelFor(n, grain, part, func(_ *Worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for _, c := range counts {
				if c != 1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCloseStopsWorkers(t *testing.T) {
	p := NewPool(2)
	p.ParallelFor(10, 1, Auto, func(_ *Worker, _, _ int) {})
	p.Close()
	// Closing twice must not panic or hang.
	p.Close()
}

func TestPartitionerString(t *testing.T) {
	if Auto.String() != "auto" || Simple.String() != "simple" || Static.String() != "static" {
		t.Fatal("partitioner names wrong")
	}
	if Partitioner(9).String() == "" {
		t.Fatal("unknown partitioner should still format")
	}
}

func TestStaticSeedNoLostWakeup(t *testing.T) {
	// Regression: static seeding used to broadcast without holding the
	// pool mutex, losing the wakeup when a worker sat between its last
	// failed work search and cond.Wait — deadlocking 1-worker pools.
	withPool(t, 1, func(p *Pool) {
		for i := 0; i < 5000; i++ {
			var n int64
			p.ParallelFor(3, 1, Static, func(_ *Worker, lo, hi int) {
				atomic.AddInt64(&n, int64(hi-lo))
			})
			if n != 3 {
				t.Fatalf("iteration %d: covered %d of 3", i, n)
			}
		}
	})
}

func TestStaticSeedStressMultiWorker(t *testing.T) {
	withPool(t, 3, func(p *Pool) {
		for i := 0; i < 2000; i++ {
			var n int64
			p.ParallelFor(17, 2, Static, func(_ *Worker, lo, hi int) {
				atomic.AddInt64(&n, int64(hi-lo))
			})
			if n != 17 {
				t.Fatalf("iteration %d: covered %d of 17", i, n)
			}
		}
	})
}

func TestStaticPartitionerNeverSteals(t *testing.T) {
	// With the static partitioner, the worker executing an index is a
	// pure function of the block layout: runs must be identical across
	// repetitions even under load.
	withPool(t, 3, func(p *Pool) {
		const n, grain = 90, 5
		record := func() []int {
			owner := make([]int, n)
			p.ParallelFor(n, grain, Static, func(w *Worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					owner[i] = w.ID()
				}
			})
			return owner
		}
		first := record()
		for rep := 0; rep < 20; rep++ {
			got := record()
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("rep %d: index %d moved from worker %d to %d (static must not steal)",
						rep, i, first[i], got[i])
				}
			}
		}
	})
}

func TestAutoCoarsensWithLargeGrain(t *testing.T) {
	// A grain covering the whole range must produce a single leaf call.
	withPool(t, 4, func(p *Pool) {
		var leaves int64
		p.ParallelFor(1000, 1<<20, Auto, func(_ *Worker, lo, hi int) {
			atomic.AddInt64(&leaves, 1)
			if lo != 0 || hi != 1000 {
				t.Errorf("leaf [%d,%d), want whole range", lo, hi)
			}
		})
		if leaves != 1 {
			t.Fatalf("got %d leaves, want 1", leaves)
		}
	})
}

func TestStaticSeedConcurrentStress(t *testing.T) {
	// Regression for the static seeding race: spans used to be pushed
	// before the span count was added to pending, so a worker that
	// popped and finished an early span could drive pending negative
	// and the later bulk increment could return 0 without closing the
	// job — a ParallelFor that hangs or returns with leaves unexecuted.
	// Many small static loops submitted from several goroutines at once
	// maximize the window; run under -race in CI.
	withPool(t, 4, func(p *Pool) {
		const submitters = 8
		const rounds = 400
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					n := 1 + (g+i)%9
					var covered int64
					p.ParallelFor(n, 1, Static, func(_ *Worker, lo, hi int) {
						atomic.AddInt64(&covered, int64(hi-lo))
					})
					if got := atomic.LoadInt64(&covered); got != int64(n) {
						t.Errorf("goroutine %d round %d: covered %d of %d", g, i, got, n)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

func TestStaticSeedNestedStress(t *testing.T) {
	// The same race, exercised through the nested path: workers inside a
	// body fork small static loops while helping, so early finishes race
	// the seeding worker's remaining pushes.
	withPool(t, 4, func(p *Pool) {
		for i := 0; i < 200; i++ {
			var covered int64
			p.ParallelFor(8, 1, Auto, func(w *Worker, lo, hi int) {
				for j := lo; j < hi; j++ {
					w.ParallelFor(5, 1, Static, func(_ *Worker, slo, shi int) {
						atomic.AddInt64(&covered, int64(shi-slo))
					})
				}
			})
			if got := atomic.LoadInt64(&covered); got != 8*5 {
				t.Fatalf("round %d: covered %d of %d", i, got, 8*5)
			}
		}
	})
}

func TestNestedParallelForDoesNotAllocate(t *testing.T) {
	// Nested loops run on pooled job descriptors with a flag-based
	// completion signal; after warm-up the steady state must not
	// allocate at all on the submitting worker.
	withPool(t, 2, func(p *Pool) {
		var sink int64
		p.Run(func(w *Worker) {
			inner := func(_ *Worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&sink, 1)
				}
			}
			for i := 0; i < 10; i++ { // warm the job pool and deques
				w.ParallelFor(64, 8, Auto, inner)
			}
			allocs := testing.AllocsPerRun(100, func() {
				w.ParallelFor(64, 8, Auto, inner)
			})
			if allocs != 0 {
				t.Errorf("nested ParallelFor allocates %.1f objects/op, want 0", allocs)
			}
		})
	})
}

// TestInitialSpan pins the Auto partitioner's always-split threshold:
// a quarter of each worker's even share of n, never below the grain.
func TestInitialSpan(t *testing.T) {
	for _, c := range []struct{ n, workers, grain, want int }{
		{2600, 2, 2, 325},
		{633, 2, 2, 79},
		{40, 2, 2, 5},
		{10, 2, 2, 2},
		{10, 4, 1, 1},
		{0, 1, 1, 1},
	} {
		if got := InitialSpan(c.n, c.workers, c.grain); got != c.want {
			t.Errorf("InitialSpan(%d, %d, %d) = %d, want %d", c.n, c.workers, c.grain, got, c.want)
		}
	}
}
