package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestDoCoversAllIndices(t *testing.T) {
	t.Parallel()
	var hits [100]int32
	Do(len(hits), 7, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

// TestOrderedEmitsInIndexOrder: regardless of worker interleaving, the
// collector must observe every result exactly once, in index order.
func TestOrderedEmitsInIndexOrder(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{-1, 0, 1, 2, 8, 64} {
		const n = 200
		var got []int
		Ordered(n, workers, func(i int) int { return i * i }, func(i, v int) {
			if v != i*i {
				t.Fatalf("workers=%d: emit(%d) got value %d", workers, i, v)
			}
			got = append(got, i)
		})
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d of %d results", workers, len(got), n)
		}
		for i, g := range got {
			if g != i {
				t.Fatalf("workers=%d: emission %d was index %d", workers, i, g)
			}
		}
	}
}

// TestOrderedWorkersRunAhead: workers must not be gated on the collector
// consuming earlier indices — index 0 finishing last still lets every
// other index complete its work first.
func TestOrderedWorkersRunAhead(t *testing.T) {
	t.Parallel()
	const n = 16
	release := make(chan struct{})
	var completed atomic.Int32
	Ordered(n, n, func(i int) int {
		if i == 0 {
			// Index 0 waits until every other worker has finished.
			<-release
			return 0
		}
		if completed.Add(1) == n-1 {
			close(release)
		}
		return i
	}, func(i, v int) {
		if i != v {
			t.Fatalf("emit(%d) = %d", i, v)
		}
	})
}

func TestOrderedZeroAndNegative(t *testing.T) {
	t.Parallel()
	called := false
	Ordered(0, 4, func(i int) int { return i }, func(i, v int) { called = true })
	Ordered(-3, 4, func(i int) int { return i }, func(i, v int) { called = true })
	if called {
		t.Fatal("emit called for empty input")
	}
}

// TestOrderedErrAborts: the first work or emit error is returned, nothing
// after the failing index is emitted, and a serial run traces nothing
// after it either.
func TestOrderedErrAborts(t *testing.T) {
	t.Parallel()
	const n, bad = 50, 17
	boom := errors.New("boom")
	for _, failIn := range []string{"work", "emit"} {
		for _, workers := range []int{1, 2, 8} {
			var worked atomic.Int32
			var emitted []int
			err := OrderedErr(n, workers, func(i int) (int, error) {
				worked.Add(1)
				if failIn == "work" && i == bad {
					return 0, boom
				}
				return i, nil
			}, func(i, v int) error {
				if v != i {
					t.Errorf("emit(%d) got %d", i, v)
				}
				emitted = append(emitted, i)
				if failIn == "emit" && i == bad {
					return boom
				}
				return nil
			})
			if err != boom {
				t.Fatalf("%s error, workers=%d: got %v, want %v", failIn, workers, err, boom)
			}
			last := bad - 1
			if failIn == "emit" {
				last = bad
			}
			if len(emitted) != last+1 || emitted[last] != last {
				t.Fatalf("%s error, workers=%d: emitted %v, want 0..%d", failIn, workers, emitted, last)
			}
			if workers == 1 && worked.Load() != bad+1 {
				t.Fatalf("%s error, serial: worked %d indices, want %d", failIn, worked.Load(), bad+1)
			}
		}
	}
}
