package progress

import (
	"strings"
	"sync"
	"testing"
)

func TestProgressCountsUnderConcurrency(t *testing.T) {
	t.Parallel()
	p := NewSurvey()
	p.Begin(200)
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				p.PairDone(7)
			}
		}()
	}
	wg.Wait()
	s := p.Snapshot()
	if s.Done != 150 || s.Total != 200 {
		t.Fatalf("done/total = %d/%d, want 150/200", s.Done, s.Total)
	}
	if s.Probes != 150*7 {
		t.Fatalf("probes = %d", s.Probes)
	}
	if s.PairsPerSec <= 0 || s.ProbesPerSec <= 0 {
		t.Fatalf("rates not positive: %+v", s)
	}
}

func TestProgressSnapshotString(t *testing.T) {
	t.Parallel()
	p := NewSurvey()
	p.Begin(10)
	p.PairDone(100)
	line := p.Snapshot().String()
	if !strings.Contains(line, "1/10 pairs (10.0%), 100 probes") {
		t.Fatalf("unexpected status line %q", line)
	}
}
