package grid

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Directory layout of one grid run:
//
//	state.json   coordinator checkpoint (atomic tmp+rename rewrites)
//	results.log  append-only checksummed JSONL of finished cells
//	report.json  merged report, written atomically on completion
const (
	stateFile  = "state.json"
	logFile    = "results.log"
	reportFile = "report.json"
)

// State is the coordinator checkpoint: the resolved spec (so `resume`
// needs only the directory), its hash (so a resumed spec mismatch is an
// error, not a silent merge of two grids), and a progress summary. The
// results log — not the progress counters — is the source of truth for
// which cells are finished; the counters exist for `status` and for
// humans tailing the directory.
type State struct {
	Version  int    `json:"version"`
	SpecHash string `json:"specHash"`
	Spec     Spec   `json:"spec"`
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
}

// stateVersion changes whenever the canonical Spec or CellSpec encoding
// does, because cell IDs and the spec hash are taken over that encoding.
// LoadState checks it before the hash, so a checkpoint from an older
// encoding is refused as an old version, not reported as tampered.
const stateVersion = 2

// SaveState checkpoints the state with the classic atomic sequence: write
// to a temp file in the same directory, fsync, rename over state.json. A
// SIGKILL at any instant leaves either the old or the new checkpoint,
// never a torn one.
func SaveState(dir string, st *State) error {
	payload, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return fmt.Errorf("grid: marshal state: %w", err)
	}
	payload = append(payload, '\n')
	tmp, err := os.CreateTemp(dir, stateFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("grid: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return fmt.Errorf("grid: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("grid: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("grid: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, stateFile)); err != nil {
		return fmt.Errorf("grid: checkpoint rename: %w", err)
	}
	return nil
}

// LoadState reads and cross-checks a checkpoint: the version must be
// known, and the recorded spec hash must match the hash re-derived from
// the recorded spec — a hand-edited or half-migrated checkpoint fails
// loudly instead of resuming the wrong grid.
func LoadState(dir string) (*State, error) {
	data, err := os.ReadFile(filepath.Join(dir, stateFile))
	if err != nil {
		return nil, fmt.Errorf("grid: no checkpoint in %s (run `lelantus-grid run` first): %w", dir, err)
	}
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("grid: corrupt checkpoint %s: %w", filepath.Join(dir, stateFile), err)
	}
	if st.Version != stateVersion {
		return nil, fmt.Errorf("grid: checkpoint version %d (this build understands %d): rerun the grid in a fresh directory", st.Version, stateVersion)
	}
	if got := st.Spec.Hash(); got != st.SpecHash {
		return nil, fmt.Errorf("grid: checkpoint spec hash %s does not match its spec (%s): refusing to resume a tampered grid", st.SpecHash, got)
	}
	return &st, nil
}
