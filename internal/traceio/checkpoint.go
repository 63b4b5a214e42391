package traceio

import (
	"encoding/json"
	"fmt"
	"os"
)

// Checkpoint format.
//
// A checkpoint is a compact JSON progress file a long survey writes
// atomically at a configurable interval. Together with the JSONL record
// log it makes a run resumable after a kill: the checkpoint names how
// many work items are durably complete and the byte offset of the record
// log covering exactly those items. Because a run emits records in
// deterministic item order, the completed item *count* fully identifies
// the completed item *set* — the file stays a few hundred bytes no
// matter how large the survey is.
//
// Two invariants make this crash-safe:
//
//  1. The record log is fsynced before the checkpoint referencing it is
//     written (so Offset never points past durable bytes).
//  2. The checkpoint itself is replaced via WriteFileAtomic (so a crash
//     never leaves a truncated checkpoint).
//
// On resume the log is truncated back to Offset, discarding any records
// (possibly torn) written after the last checkpoint; the resumed run
// re-traces those items under the same derived seeds and re-emits the
// discarded records byte-identically.

// CheckpointVersion is the current file format version.
const CheckpointVersion = 1

// Checkpoint records resumable survey progress.
type Checkpoint struct {
	Version int `json:"version"`
	// Kind names the writer ("survey", the only one), so a resume
	// refuses a JSON file that is not a survey checkpoint.
	Kind string `json:"kind"`
	// OptionsHash fingerprints every option that affects which items are
	// traced and what their records contain. A resumed run with a
	// different hash must be rejected: it would splice records from two
	// different experiments into one file.
	OptionsHash uint64 `json:"options_hash"`
	// Seed is the run's base seed (redundant with OptionsHash, kept
	// readable for humans inspecting the file).
	Seed uint64 `json:"seed"`
	// Total is the number of work items the run will trace.
	Total int `json:"total"`
	// Done is the number of items durably emitted, in item order: items
	// [0, Done) are complete, [Done, Total) remain.
	Done int `json:"done"`
	// Offset is the durable byte length of the JSONL record log covering
	// exactly the Done items. Zero when the run has no record log.
	Offset int64 `json:"offset"`
}

// WriteAtomic persists the checkpoint with a temp-file + rename, fsync
// included. Callers must Sync the record log first (invariant 1).
func (c *Checkpoint) WriteAtomic(path string) error {
	c.Version = CheckpointVersion
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// Matches validates a checkpoint against the run that wants to resume
// from it: same tool kind, same options fingerprint, same item count.
// Any mismatch means the checkpoint belongs to a different experiment
// and resuming would splice two experiments' records into one file.
func (c *Checkpoint) Matches(kind string, optionsHash uint64, total int) error {
	if c.Kind != kind {
		return fmt.Errorf("traceio: checkpoint belongs to %q, not %q", c.Kind, kind)
	}
	if c.OptionsHash != optionsHash {
		return fmt.Errorf("traceio: checkpoint was written under different options (hash %#x, want %#x)", c.OptionsHash, optionsHash)
	}
	if c.Total != total {
		return fmt.Errorf("traceio: checkpoint covers %d items, this run selects %d", c.Total, total)
	}
	return nil
}

// ReadCheckpoint loads and validates a checkpoint file. A missing file
// surfaces as an error satisfying os.IsNotExist / errors.Is(fs.ErrNotExist).
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := new(Checkpoint)
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("traceio: corrupt checkpoint %s: %v", path, err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("traceio: checkpoint %s has version %d, want %d", path, c.Version, CheckpointVersion)
	}
	if c.Done < 0 || c.Total < 0 || c.Done > c.Total || c.Offset < 0 {
		return nil, fmt.Errorf("traceio: checkpoint %s is inconsistent (done=%d total=%d offset=%d)", path, c.Done, c.Total, c.Offset)
	}
	return c, nil
}
