package survey

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/prior"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// Content pins: what a record log means, independent of its bytes. The
// rendering lists each record's scalar fields, its decoded graph as
// hop-major address lists plus successor indices in hop-major numbering,
// its alias sets sorted, and the JSON of each SurveyDiamond. The digests
// were recorded at commit b6ec1af, rendering the parent's record layout
// (vertex and edge objects, decoded by the graph decoder of that
// commit); the records of the flat layout must render to the same text.

// recordContent decodes a JSONL record log and renders what it means.
func recordContent(t *testing.T, jsonl []byte) string {
	t.Helper()
	var b strings.Builder
	err := traceio.DecodeSurveyRecords(bytes.NewReader(jsonl), func(r *traceio.SurveyRecord) error {
		fmt.Fprintf(&b, "record pair=%d has_lb=%t src=%s dst=%s algorithm=%s probes=%d reached=%t switched=%t alias_probes=%d prior_hops=%d prior_stale=%t\n",
			r.PairIndex, r.HasLB, r.Src, r.Dst, r.Algorithm, r.Probes, r.Reached, r.Switched, r.AliasProbes, r.PriorHops, r.PriorStale)
		g, err := r.Graph()
		if err != nil {
			return err
		}
		renderGraph(&b, g)
		var routers []string
		for _, set := range r.Routers {
			s := append([]packet.Addr(nil), set...)
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			line := "router:"
			for _, a := range s {
				line += " " + a.String()
			}
			routers = append(routers, line)
		}
		sort.Strings(routers)
		for _, line := range routers {
			fmt.Fprintln(&b, line)
		}
		for _, d := range r.Diamonds {
			j, err := json.Marshal(d)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "diamond %s\n", j)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// renderGraph writes g hop by hop, then each vertex's successors, both
// by hop-major vertex index.
func renderGraph(b *strings.Builder, g *topo.Graph) {
	index := map[topo.VertexID]int{}
	var order []topo.VertexID
	for h := 0; h < g.NumHops(); h++ {
		fmt.Fprintf(b, "hop %d:", h)
		for _, id := range g.Hop(h) {
			index[id] = len(order)
			order = append(order, id)
			if a := g.V(id).Addr; a == topo.StarAddr {
				b.WriteString(" *")
			} else {
				fmt.Fprintf(b, " %s", a)
			}
		}
		b.WriteByte('\n')
	}
	for k, id := range order {
		fmt.Fprintf(b, "succ %d:", k)
		for _, w := range g.Succ(id) {
			fmt.Fprintf(b, " %d", index[w])
		}
		b.WriteByte('\n')
	}
}

func contentDigest(t *testing.T, jsonl []byte) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256([]byte(recordContent(t, jsonl))))
}

// TestIPRecordContentPinned pins the content of an IP-level universe with
// stars (an MDA pass) and of its MDA-Lite re-trace seeded from that
// pass's atlas over partly churned routes, so prior_hops and prior_stale
// are both exercised.
func TestIPRecordContentPinned(t *testing.T) {
	t.Parallel()
	gen := GenConfig{Seed: 4, Pairs: 40, starHopProb: 0.05}
	var first bytes.Buffer
	as := NewAtlasSink(atlas.Options{})
	if _, err := Run(Generate(gen), RunConfig{
		Algo: AlgoMDA, Retries: 1, Trace: mda.Config{Seed: 4},
		Sinks: []Sink{lineSink{&first}, as},
	}); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "first.atlas")
	if err := as.Atlas.Save(snap); err != nil {
		t.Fatal(err)
	}
	svc, err := serve.Open(snap, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := prior.FromService(svc)
	svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	ru := Generate(gen)
	churnRoutes(t, ru)
	var retrace bytes.Buffer
	if _, err := Run(ru, RunConfig{
		Algo: AlgoMDALite, Retries: 1, Trace: mda.Config{Seed: 4}, Prior: ix,
		Sinks: []Sink{lineSink{&retrace}},
	}); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name  string
		jsonl []byte
		want  string
		prior bool
	}{
		{"mda", first.Bytes(), "87fcc881e5eb949ce46cb68165df76e29854dd923bf89d684030f9567df3ac7d", false},
		{"mda-lite prior re-trace", retrace.Bytes(), "418346e96be5e54e3d37f77314cf9a574ac5fdedccb6a151299f7ba97d99d6b3", true},
	} {
		text := recordContent(t, c.jsonl)
		if !strings.Contains(text, " *") {
			t.Errorf("%s: no record holds a star; the pin would not cover them", c.name)
		}
		if c.prior && (!strings.Contains(text, "prior_stale=true") ||
			strings.Count(text, "prior_hops=0 ") == strings.Count(text, "record ")) {
			t.Errorf("%s: the prior's confirmations or its stale fallback went unexercised", c.name)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != c.want {
			t.Errorf("%s: record content digest %s, pinned %s", c.name, got, c.want)
		}
	}
}

// parentFingerprint is Fingerprint(Generate(GenConfig{Seed: 3, Pairs:
// 12}), RunConfig{Algo: AlgoMDALite, Retries: 1, Trace: mda.Config{Seed:
// 3}}) at commit b6ec1af, the last commit writing the nested record
// layout.
const parentFingerprint = 0x8ecdec2d03fa8740

// TestRecordSchemaRefusesOlderLogs: the record layout is part of the
// options hash, so a checkpoint written for a log of the older layout —
// whose records this decoder would read as empty ones — is refused, and
// the log is left as it was.
func TestRecordSchemaRefusesOlderLogs(t *testing.T) {
	t.Parallel()
	u := Generate(GenConfig{Seed: 3, Pairs: 12})
	cfg := RunConfig{Algo: AlgoMDALite, Retries: 1, Trace: mda.Config{Seed: 3}}
	if Fingerprint(u, cfg) == parentFingerprint {
		t.Fatal("the options hash does not change with the record layout")
	}

	dir := t.TempDir()
	logPath, ckPath := filepath.Join(dir, "old.jsonl"), filepath.Join(dir, "old.ckpt")
	old := []byte(`{"pair_index":0,"has_lb":false,"trace":{"src":"192.0.2.1","dst":"203.0.113.9","algorithm":"mda-lite",` +
		`"probes":40,"reached":true,"vertices":[{"addr":"10.0.0.1","hop":0}],"edges":[]}}` + "\n")
	if err := os.WriteFile(logPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	ck := &traceio.Checkpoint{
		Kind: checkpointKind, OptionsHash: parentFingerprint, Seed: 3,
		Total: JobCount(u, cfg), Done: 1, Offset: int64(len(old)),
	}
	if err := ck.WriteAtomic(ckPath); err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint, cfg.Resume = ckPath, true
	cfg.Sinks = []Sink{NewJSONLSink(logPath), NewAggregateSink()}
	if _, err := Run(u, cfg); err == nil || !strings.Contains(err.Error(), "different options") {
		t.Fatalf("resume onto an older-layout log: err = %v, want an options mismatch", err)
	}
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, old) {
		t.Fatal("the refused resume modified the older-layout log")
	}
}
