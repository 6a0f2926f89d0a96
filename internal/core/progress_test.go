package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestProgressOutOfOrder marks rows in a scrambled order and checks the
// waiter sees each row only once every row before it is marked.
func TestProgressOutOfOrder(t *testing.T) {
	t.Parallel()
	const n = 64
	p := NewProgress(n)
	var marked [n]atomic.Bool
	order := make([]int, n)
	for i := range order {
		order[i] = (i*37 + 11) % n // a permutation: 37 is coprime to 64
	}
	go func() {
		for _, i := range order {
			marked[i].Store(true)
			p.Mark(i)
		}
		p.End()
	}()
	for i := 0; i < n; i++ {
		if !p.Wait(i) {
			t.Fatalf("Wait(%d) = false, want every row written", i)
		}
		for j := 0; j <= i; j++ {
			if !marked[j].Load() {
				t.Fatalf("Wait(%d) returned before row %d was marked", i, j)
			}
		}
	}
}

// TestProgressEnd checks that ending a batch releases the waiter for the
// rows never written, and only for those.
func TestProgressEnd(t *testing.T) {
	t.Parallel()
	p := NewProgress(4)
	p.Mark(0)
	p.Mark(2) // row 1 never comes
	go p.End()
	if !p.Wait(0) {
		t.Fatal("Wait(0) = false after Mark(0)")
	}
	for _, i := range []int{1, 2, 3} {
		if p.Wait(i) {
			t.Fatalf("Wait(%d) = true, but row 1 was never written", i)
		}
	}
}

// TestFanOutStreamsInOrder is the ordered-emission contract: row 0 is
// emitted while the last row is still being computed — it blocks until
// row 0's emission releases it — and every row is emitted exactly once,
// in ascending order, for every worker count. A design that matches the
// whole batch before emitting never releases the last row.
func TestFanOutStreamsInOrder(t *testing.T) {
	t.Parallel()
	const n = 40
	for workers := 1; workers <= 4; workers++ {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			var pool = sync.Pool{New: func() any { return new(MatchScratch) }}
			released := make(chan struct{})
			var rows [n]int
			var stuck atomic.Bool
			var emitted []int
			fanOut(&pool, nil, n, workers, func(_ *MatchScratch, i int) {
				if i == n-1 {
					select {
					case <-released:
					case <-time.After(10 * time.Second):
						stuck.Store(true) // row 0 never emitted while this row ran
					}
				}
				rows[i] = i + 1
			}, func(i int) {
				if rows[i] != i+1 {
					t.Errorf("row %d emitted before it was written", i)
				}
				if i == 0 {
					close(released)
				}
				emitted = append(emitted, i)
			})
			if stuck.Load() {
				t.Fatal("row 0 was not emitted while the last row was still blocked")
			}
			if len(emitted) != n {
				t.Fatalf("emitted %d rows, want %d", len(emitted), n)
			}
			for i, got := range emitted {
				if got != i {
					t.Fatalf("emission %d was row %d, want ascending order", i, got)
				}
			}
		})
	}
}

// TestFanOutWorkerPanic checks that a panic in one worker's row reaches
// the caller's recover, that the rows before it are still emitted in
// order and none after it, and that no worker goroutine outlives the
// call.
func TestFanOutWorkerPanic(t *testing.T) {
	const n, bad = 200, 57
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			var pool = sync.Pool{New: func() any { return new(MatchScratch) }}
			var calls atomic.Int64
			var emitted []int
			got := func() (r any) {
				defer func() { r = recover() }()
				fanOut(&pool, nil, n, workers, func(_ *MatchScratch, i int) {
					calls.Add(1)
					if i == bad {
						panic("row fault")
					}
				}, func(i int) { emitted = append(emitted, i) })
				return nil
			}()
			if got != "row fault" {
				t.Fatalf("recovered %v, want the worker's panic value", got)
			}
			if len(emitted) != bad {
				t.Fatalf("emitted %d rows, want the %d before the faulting row", len(emitted), bad)
			}
			for i, e := range emitted {
				if e != i {
					t.Fatalf("emission %d was row %d, want ascending order", i, e)
				}
			}
			// The call has returned: every worker has stopped claiming rows.
			settled := calls.Load()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > before {
				t.Fatalf("%d goroutines after the call, %d before: a worker is still running", g, before)
			}
			if calls.Load() != settled {
				t.Fatal("rows were still being computed after the panic reached the caller")
			}
		})
	}
}

// TestFanOutEmitPanic checks that a panic raised by emit stops the
// workers and propagates to the caller once they have returned.
func TestFanOutEmitPanic(t *testing.T) {
	var pool = sync.Pool{New: func() any { return new(MatchScratch) }}
	const n, workers = 1000, 3
	var calls atomic.Int64
	got := func() (r any) {
		defer func() { r = recover() }()
		fanOut(&pool, nil, n, workers, func(_ *MatchScratch, i int) {
			calls.Add(1)
			if i >= 10 {
				time.Sleep(time.Millisecond) // the batch would take ~⅓ s
			}
		}, func(i int) {
			if i == 5 {
				panic("sink fault")
			}
		})
		return nil
	}()
	if got != "sink fault" {
		t.Fatalf("recovered %v, want the emit panic", got)
	}
	settled := calls.Load()
	if settled >= n/2 {
		t.Fatalf("%d of %d rows computed: the emit panic did not stop the workers", settled, n)
	}
	time.Sleep(5 * time.Millisecond)
	if calls.Load() != settled {
		t.Fatal("workers kept computing rows after the emit panic returned")
	}
}

// TestForEachIndexWorkerPanic is the exported fan-out's form of the
// worker-panic contract: the panic reaches the caller.
func TestForEachIndexWorkerPanic(t *testing.T) {
	got := func() (r any) {
		defer func() { r = recover() }()
		ForEachIndex(64, 4, func(_ *MatchScratch, i int) {
			if i == 9 {
				panic(fmt.Errorf("index %d", i))
			}
		})
		return nil
	}()
	if err, ok := got.(error); !ok || err.Error() != "index 9" {
		t.Fatalf("recovered %v, want the worker's error", got)
	}
}
