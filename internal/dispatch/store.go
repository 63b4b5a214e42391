package dispatch

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mmlpt/internal/atlas"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// manifestName is the manifest file inside a survey's work dir.
const manifestName = "manifest.json"

// store is a survey's durable progress in one work directory: the unit
// rows that partition its job list, one shard file of JSONL records per
// durable unit, and the manifest naming them. A fleet Coordinator and a
// single-machine RunLocal both keep their progress through it, so a
// survey resumes from one format whichever way it runs.
type store struct {
	dir      string
	hash     uint64
	seed     uint64
	unitSize int
	// jobPairs maps job list position to universe pair index, for
	// checking a shard against its span.
	jobPairs []int
	units    []*unit
	logf     func(string, ...any)
}

// openStore cuts the job list of the planned survey (u, rc) into units
// of unitSize jobs kept in dir, restores the units dir's manifest holds
// durable when resume is set (a missing manifest is a fresh survey), and
// persists the manifest.
func openStore(dir string, u *survey.Universe, rc survey.RunConfig, unitSize int, resume bool, logf func(string, ...any)) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &store{
		dir: dir, hash: survey.Fingerprint(u, rc), seed: rc.Trace.Seed,
		unitSize: unitSize, jobPairs: survey.JobPairs(u, rc), logf: logf,
	}
	for start := 0; start < len(s.jobPairs); start += unitSize {
		s.units = append(s.units, &unit{FleetUnit: traceio.FleetUnit{
			ID: len(s.units), Start: start, Count: min(unitSize, len(s.jobPairs)-start),
			State: traceio.UnitUnclaimed,
		}})
	}
	if resume {
		if err := s.restore(); err != nil {
			return nil, err
		}
	}
	return s, s.persist()
}

// restore loads the manifest and marks the units whose shards are on
// disk and hold their span's records as shipped. A unit whose shard is
// missing or fails checkShard stays unclaimed, to be traced again; so do
// leased units, whose leases died with the previous process.
func (s *store) restore() error {
	path := filepath.Join(s.dir, manifestName)
	m, err := traceio.ReadFleetManifest(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := m.Matches(s.hash, len(s.jobPairs), s.unitSize); err != nil {
		return err
	}
	if len(m.Units) != len(s.units) {
		return fmt.Errorf("dispatch: manifest lists %d units, this plan shards into %d", len(m.Units), len(s.units))
	}
	restored, records := 0, 0
	for i, mu := range m.Units {
		u := s.units[i]
		if mu.Start != u.Start || mu.Count != u.Count {
			return fmt.Errorf("dispatch: manifest unit %d spans jobs [%d,%d), this plan cuts [%d,%d)",
				i, mu.Start, mu.Start+mu.Count, u.Start, u.Start+u.Count)
		}
		u.Attempts = mu.Attempts
		if mu.State != traceio.UnitShipped && mu.State != traceio.UnitMerged {
			continue
		}
		f, err := os.Open(filepath.Join(s.dir, mu.Shard))
		if err == nil {
			err = s.checkShard(mu.Start, mu.Count, f)
			f.Close()
		}
		if err != nil {
			s.logf("dispatch: unit %d was shipped but shard %s is unusable (%v); re-tracing", i, mu.Shard, err)
			continue
		}
		// Merged demotes to shipped: the merge re-runs over all shards
		// and rewrites its outputs atomically, so repeating it is safe
		// and simpler than proving the previous outputs complete.
		u.FleetUnit = mu
		u.State = traceio.UnitShipped
		restored++
		records += mu.Records
	}
	if restored > 0 {
		s.logf("dispatch: resumed %d shipped units (%d records) from %s", restored, records, path)
	}
	return nil
}

// checkShard decodes the records of the unit spanning jobs
// [start, start+count) and checks them against that span: exactly one
// record per job, in job order, each carrying the pair index its
// position demands and passing the record check. A shipment and a
// restored shard are checked alike.
func (s *store) checkShard(start, count int, r io.Reader) error {
	n := 0
	err := traceio.DecodeSurveyRecords(r, func(sr *traceio.SurveyRecord) error {
		if n >= count {
			return fmt.Errorf("more than %d records", count)
		}
		if want := s.jobPairs[start+n]; sr.PairIndex != want {
			return fmt.Errorf("record %d is pair %d, span expects pair %d", n, sr.PairIndex, want)
		}
		n++
		return nil
	})
	if err == nil && n != count {
		err = fmt.Errorf("%d records, span holds %d jobs", n, count)
	}
	return err
}

// durable counts the units whose shards are on disk: the shipped and
// merged rows.
func (s *store) durable() int {
	n := 0
	for _, u := range s.units {
		if u.State == traceio.UnitShipped || u.State == traceio.UnitMerged {
			n++
		}
	}
	return n
}

// persist writes the manifest atomically.
func (s *store) persist() error {
	m := &traceio.FleetManifest{
		OptionsHash: s.hash, Seed: s.seed,
		Total: len(s.jobPairs), UnitSize: s.unitSize,
	}
	for _, u := range s.units {
		m.Units = append(m.Units, u.FleetUnit)
	}
	return m.WriteAtomic(filepath.Join(s.dir, manifestName))
}

// storeShard makes unit u durable: body, its checked records, becomes
// the unit's shard file, then the manifest names it. When the manifest
// cannot be written the row is left as it was, so storing the unit
// again is safe.
func (s *store) storeShard(u *unit, body []byte) error {
	shard := fmt.Sprintf("unit-%06d.jsonl", u.ID)
	if err := traceio.WriteFileAtomic(filepath.Join(s.dir, shard), body, 0o644); err != nil {
		return fmt.Errorf("persisting shard: %w", err)
	}
	prev := *u
	u.State, u.Shard, u.Records, u.leaseID = traceio.UnitShipped, shard, u.Count, 0
	if err := s.persist(); err != nil {
		*u = prev
		return fmt.Errorf("persisting manifest: %w", err)
	}
	return nil
}

// merge folds every shard, in unit (= span = pair) order, into the
// survey's outputs: the concatenated record log at out (byte-identical
// to a single-machine -out file), the atlas snapshot at atlasPath
// through the streaming canonical merge (byte-identical to a
// single-machine -atlas snapshot), and the returned aggregate of every
// record. Either path may be empty. Call it once every unit is durable;
// it reads the rows, which no longer change.
func (s *store) merge(out, atlasPath string, opt atlas.Options) (*survey.RecordAggregate, error) {
	agg := survey.NewRecordAggregate()
	var a *atlas.Atlas
	if atlasPath != "" {
		a = atlas.New(opt)
	}
	// One decode per shard: its bytes concatenate into the record log
	// while every record feeds the aggregate and, when wanted, the atlas.
	fold := func(w io.Writer) error {
		for _, u := range s.units {
			path := filepath.Join(s.dir, u.Shard)
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			var src io.Reader = f
			if w != nil {
				src = io.TeeReader(f, w)
			}
			err = traceio.DecodeSurveyRecords(src, func(sr *traceio.SurveyRecord) error {
				if err := agg.Add(sr); err != nil {
					return err
				}
				if a != nil {
					return a.AddRecord(sr)
				}
				return nil
			})
			f.Close()
			if err != nil {
				return fmt.Errorf("merging %s: %w", path, err)
			}
		}
		return nil
	}
	var err error
	if out != "" {
		err = traceio.WriteFileAtomicStream(out, 0o644, fold)
	} else {
		err = fold(nil)
	}
	if err == nil && a != nil {
		err = a.Save(atlasPath)
	}
	if err != nil {
		return nil, err
	}
	return agg, nil
}

// markMerged records in the manifest that every unit has been merged.
func (s *store) markMerged() error {
	for _, u := range s.units {
		u.State = traceio.UnitMerged
	}
	return s.persist()
}

// RunLocal runs the planned survey (u, rc) on this machine and keeps its
// progress as a coordinator keeps a fleet's: cfg.Dir holds the manifest
// and one shard per unit of cfg.UnitSize jobs (default DefaultUnitSize),
// each stored the moment its last record is traced. With cfg.Resume the
// units cfg.Dir holds durable are kept and tracing restarts at the first
// unit that is not. Once every unit is durable the shards are merged into
// cfg.OutJSONL and cfg.AtlasPath (each when non-empty) and the aggregate
// of every record is returned. cfg.Spec and cfg.LeaseTTL are not read:
// the plan is (u, rc), which may carry a prior, and one process holds no
// leases.
func RunLocal(u *survey.Universe, rc survey.RunConfig, cfg CoordinatorConfig) (*survey.RecordAggregate, error) {
	if cfg.UnitSize <= 0 {
		cfg.UnitSize = DefaultUnitSize
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s, err := openStore(cfg.Dir, u, rc, cfg.UnitSize, cfg.Resume, logf)
	if err != nil {
		return nil, err
	}
	next := 0
	for next < len(s.units) && s.units[next].State == traceio.UnitShipped {
		next++
	}
	if next < len(s.units) {
		// One Run over every job left, so workers never idle at a unit
		// boundary; the sink cuts its ordered records into units.
		rc.SpanStart, rc.SpanCount = s.units[next].Start, 0
		rc.Sinks = append([]survey.Sink{&unitSink{s: s, next: next}}, rc.Sinks...)
		if _, err := survey.Run(u, rc); err != nil {
			return nil, err
		}
	}
	agg, err := s.merge(cfg.OutJSONL, cfg.AtlasPath, cfg.AtlasOptions)
	if err != nil {
		return nil, err
	}
	return agg, s.markMerged()
}

// unitSink cuts a Run's ordered record stream into the store's units,
// from unit next on, storing each the moment its last record arrives.
type unitSink struct {
	s    *store
	next int
	buf  bytes.Buffer
	n    int
}

func (k *unitSink) Emit(rec *traceio.SurveyRecord) error {
	if err := rec.WriteJSONL(&k.buf); err != nil {
		return err
	}
	k.n++
	if u := k.s.units[k.next]; k.n == u.Count {
		if err := k.s.storeShard(u, k.buf.Bytes()); err != nil {
			return err
		}
		k.buf.Reset()
		k.n = 0
		k.next++
	}
	return nil
}

func (k *unitSink) Close() error { return nil }
