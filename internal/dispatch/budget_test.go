package dispatch

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mmlpt/internal/httpx"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
)

// TestBudgetSlidingWindowCeiling simulates a 3-runner fleet hammering
// one destination prefix through the coordinator's budget on a fake
// clock: the total granted inside ANY sliding one-second window must
// never exceed rate + burst, no matter how the runners' requests
// interleave. This is the fleet-level guarantee — N runners together
// never probe a prefix faster than the configured ceiling.
func TestBudgetSlidingWindowCeiling(t *testing.T) {
	t.Parallel()
	const (
		rate  = 50.0
		burst = 10.0
	)
	b := NewBudget(rate, burst)
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }

	prefix := Prefix24(packet.Addr(0x0a000017)) // 10.0.0.0/24

	type grant struct {
		at time.Time
		n  int
	}
	var grants []grant
	total := 0
	// Three runners take turns every 5ms of simulated time for 4s,
	// asking for staggered amounts so partial grants happen too.
	for step := 0; step < 800; step++ {
		clock = clock.Add(5 * time.Millisecond)
		for r := 0; r < 3; r++ {
			want := 1 + (step+r*3)%5
			g, _ := b.Take(prefix, want)
			if g > want {
				t.Fatalf("granted %d for want %d", g, want)
			}
			if g > 0 {
				grants = append(grants, grant{clock, g})
				total += g
			}
		}
	}

	for i := range grants {
		sum := 0
		for j := i; j < len(grants) && grants[j].at.Sub(grants[i].at) < time.Second; j++ {
			sum += grants[j].n
		}
		if float64(sum) > rate+burst {
			t.Fatalf("window starting at %v granted %d probes, ceiling is %v", grants[i].at, sum, rate+burst)
		}
	}
	// The ceiling must not starve the fleet either: 4 simulated seconds
	// at 50 pps should hand out roughly 200 tokens.
	if total < 150 {
		t.Fatalf("fleet got only %d probes over 4s at rate %v", total, rate)
	}
}

// TestBudgetPrefixesIndependent: exhausting one /24's bucket must not
// affect another's.
func TestBudgetPrefixesIndependent(t *testing.T) {
	t.Parallel()
	b := NewBudget(1, 4)
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }

	a := Prefix24(packet.Addr(0x0a000001))
	c := Prefix24(packet.Addr(0x0a000101))
	if a == c {
		t.Fatal("test prefixes collide")
	}
	if g, _ := b.Take(a, 10); g != 4 {
		t.Fatalf("fresh bucket granted %d, want burst 4", g)
	}
	if g, _ := b.Take(a, 1); g != 0 {
		t.Fatalf("drained bucket granted %d, want 0", g)
	}
	if g, _ := b.Take(c, 4); g != 4 {
		t.Fatalf("independent prefix granted %d, want 4", g)
	}
}

// TestBudgetWaitHint: a short grant names a wait after which at least
// one token has accrued.
func TestBudgetWaitHint(t *testing.T) {
	t.Parallel()
	b := NewBudget(10, 2)
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }

	prefix := Prefix24(packet.Addr(0x0a000001))
	g, _ := b.Take(prefix, 5)
	if g != 2 {
		t.Fatalf("granted %d, want burst 2", g)
	}
	_, wait := b.Take(prefix, 1)
	if wait <= 0 {
		t.Fatalf("empty bucket gave no wait hint")
	}
	clock = clock.Add(wait)
	if g, _ := b.Take(prefix, 1); g != 1 {
		t.Fatalf("after waiting %v the bucket granted %d, want 1", wait, g)
	}
}

// TestBudgetBurstFloor: a burst below one whole token would deadlock
// its prefix; NewBudget raises it.
func TestBudgetBurstFloor(t *testing.T) {
	t.Parallel()
	b := NewBudget(100, 0.25)
	prefix := Prefix24(packet.Addr(0x0a000001))
	if g, _ := b.Take(prefix, 1); g != 1 {
		t.Fatalf("burst floor: granted %d, want 1", g)
	}
}

// echoStub answers echo batches with no replies; nothing else is called.
type echoStub struct{ probe.Prober }

func (echoStub) EchoBatch(specs []probe.EchoSpec) []*packet.Reply {
	return make([]*packet.Reply, len(specs))
}

// TestEchoBatchChargesInOrder: a metered echo batch asks the budget for
// each /24 it touches once, in order of the prefix's first probe, for
// all of that prefix's probes — the same requests in the same order on
// every run.
func TestEchoBatchChargesInOrder(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req budgetRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		mu.Lock()
		got = append(got, fmt.Sprintf("%s:%d", req.Prefix, req.Want))
		mu.Unlock()
		httpx.WriteJSON(w, http.StatusOK, budgetResponse{Granted: req.Want})
	}))
	defer srv.Close()

	var specs []probe.EchoSpec
	for _, a := range []string{"10.0.3.1", "10.0.1.1", "10.0.3.2", "10.0.2.1", "10.0.1.9"} {
		specs = append(specs, probe.EchoSpec{Addr: packet.MustParseAddr(a)})
	}
	for i := 0; i < 70; i++ {
		specs = append(specs, probe.EchoSpec{Addr: packet.MustParseAddr("10.0.2.7")})
	}
	want := "10.0.3.0:64 10.0.1.0:64 10.0.2.0:71" // at least one 64-token chunk
	for run := 0; run < 20; run++ {
		got = nil
		r := &runner{cfg: RunnerConfig{ID: "r"}, base: srv.URL, client: srv.Client(), logf: t.Logf}
		m := &meteredProber{Prober: echoStub{}, budget: &budgetClient{r: r, avail: make(map[packet.Addr]int)}}
		m.EchoBatch(specs)
		if s := strings.Join(got, " "); s != want {
			t.Fatalf("run %d: budget requests %q, want %q", run, s, want)
		}
	}
}
