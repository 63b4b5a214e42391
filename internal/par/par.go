// Package par provides the concurrency primitives the probing engine
// needs: an order-preserving indexed worker pool (Do) and its streaming
// variant (Ordered), which hands each result to a collector in index
// order the moment its prefix is complete, with OrderedErr as the form
// that stops at the first error. Callers partition work by
// index (one trace per pair, one result slot per prober), so the output
// of a parallel run is identical to a serial walk by construction.
//
// In the layering, par is a thin leaf utility with no dependencies
// inside the module; the survey engine and the atlas merge build their
// parallelism on it rather than hand-rolling goroutine pools.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs fn(i) for every i in [0, n) using the given number of workers.
// Zero or negative workers selects GOMAXPROCS; one runs serially on the
// calling goroutine. fn must be safe to call concurrently for distinct
// indices.
func Do(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	feed := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		feed <- i
	}
	close(feed)
	wg.Wait()
}

// Ordered runs work(i) for every i in [0, n) on a Do worker pool and
// calls emit(i, v) for each result strictly in index order, on the
// calling goroutine, as soon as all earlier indices have been emitted.
// Workers run ahead of the collector: a slow index buffers later results
// until it completes. With one worker the whole pipeline degenerates to
// a serial work/emit loop. emit needs no synchronization of its own.
func Ordered[T any](n, workers int, work func(i int) T, emit func(i int, v T)) {
	if n <= 0 {
		return
	}
	// Normalize exactly as Do does, and before sizing the results
	// channel: the default workers=0 must buffer GOMAXPROCS results (an
	// unbuffered channel would serialize every worker-to-collector
	// handoff behind the emit path), and negative values select
	// GOMAXPROCS rather than panicking in make(chan).
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			emit(i, work(i))
		}
		return
	}
	type item struct {
		i int
		v T
	}
	results := make(chan item, workers)
	go func() {
		Do(n, workers, func(i int) {
			results <- item{i, work(i)}
		})
		close(results)
	}()
	pending := make(map[int]T)
	next := 0
	for it := range results {
		pending[it.i] = it.v
		for {
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			emit(next, v)
			next++
		}
	}
}

// OrderedErr is Ordered for steps that can fail. The first error in
// index order, from work(i) or from emit(i, v), stops the run: every
// index before it is still worked and emitted, no index after it is
// emitted, indices after it that have not started are skipped instead of
// worked, and the error is returned. Like Ordered, emit runs on the
// calling goroutine in index order and needs no synchronization.
func OrderedErr[T any](n, workers int, work func(i int) (T, error), emit func(i int, v T) error) error {
	type result struct {
		v   T
		err error
	}
	// stopAt is the lowest index known to have failed, n while none has.
	var stopAt atomic.Int64
	stopAt.Store(int64(n))
	fail := func(i int) {
		for cur := stopAt.Load(); int64(i) < cur; cur = stopAt.Load() {
			if stopAt.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}
	var first error
	Ordered(n, workers, func(i int) result {
		if int64(i) > stopAt.Load() {
			// Never emitted: the failed index before it ends the run.
			return result{}
		}
		v, err := work(i)
		if err != nil {
			fail(i)
		}
		return result{v, err}
	}, func(i int, r result) {
		if first != nil {
			return
		}
		err := r.err
		if err == nil {
			err = emit(i, r.v)
		}
		if err != nil {
			first = err
			fail(i)
		}
	})
	return first
}
