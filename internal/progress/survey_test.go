package progress

import (
	"strings"
	"sync"
	"testing"
)

func TestProgressCountsUnderConcurrency(t *testing.T) {
	t.Parallel()
	p := NewSurvey()
	p.Begin(200, 50)
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				p.PairDone(7)
				p.RecordEmitted()
			}
		}()
	}
	wg.Wait()
	s := p.Snapshot()
	if s.Done != 50+150 {
		t.Fatalf("done = %d, want 200", s.Done)
	}
	if s.Total != 200 || s.Skipped != 50 {
		t.Fatalf("total/skipped = %d/%d", s.Total, s.Skipped)
	}
	if s.Probes != 150*7 {
		t.Fatalf("probes = %d", s.Probes)
	}
	if s.Records != 150 {
		t.Fatalf("records = %d", s.Records)
	}
	if s.PairsPerSec <= 0 || s.ProbesPerSec <= 0 {
		t.Fatalf("rates not positive: %+v", s)
	}
}

func TestProgressSnapshotString(t *testing.T) {
	t.Parallel()
	p := NewSurvey()
	p.Begin(10, 4)
	p.PairDone(100)
	line := p.Snapshot().String()
	if !strings.Contains(line, "5/10 pairs") {
		t.Fatalf("unexpected status line %q", line)
	}
	if !strings.Contains(line, "resumed from checkpoint") {
		t.Fatalf("status line %q does not mention resumed pairs", line)
	}
}
