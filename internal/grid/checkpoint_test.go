package grid

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testState() *State {
	spec := Spec{Name: "t", Workloads: []string{"forkbench"}, Schemes: []string{"lelantus"}, RegionKB: 64}.withDefaults()
	return &State{Version: stateVersion, SpecHash: spec.Hash(), Spec: spec, Total: len(spec.Cells())}
}

func TestStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := testState()
	if err := SaveState(dir, st); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	got, err := LoadState(dir)
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, st)
	}
	// A second save atomically replaces the first.
	st.Done = 1
	if err := SaveState(dir, st); err != nil {
		t.Fatalf("second SaveState: %v", err)
	}
	if got, err = LoadState(dir); err != nil || got.Done != 1 {
		t.Fatalf("after rewrite: state %+v, err %v", got, err)
	}
	// No temp files may survive a successful save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestLoadStateRejectsMissingAndCorrupt(t *testing.T) {
	if _, err := LoadState(t.TempDir()); err == nil {
		t.Fatal("LoadState on an empty directory succeeded")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(dir); err == nil {
		t.Fatal("LoadState accepted corrupt JSON")
	}

	dir = t.TempDir()
	st := testState()
	st.Version = stateVersion + 1
	if err := SaveState(dir, st); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version: err = %v, want a version error", err)
	}
}

// stateV1Quick is the quick preset's checkpoint exactly as a version-1
// build wrote it. Its spec carries the since-removed prefetch axis, so
// its recorded hash no longer matches the spec this build decodes.
const stateV1Quick = `{
 "version": 1,
 "specHash": "b5046f603e0f06c7",
 "spec": {
  "name": "quick",
  "workloads": [
   "forkbench"
  ],
  "huge": [
   false
  ],
  "seeds": [
   1
  ],
  "schemes": [
   "baseline",
   "silent-shredder",
   "lelantus",
   "lelantus-cow"
  ],
  "fidelity": "timing",
  "persist": [
   "strict"
  ],
  "mlp": [
   "off"
  ],
  "prefetch": [
   "off"
  ],
  "faultSeeds": [
   1
  ],
  "crashPoints": [
   0
  ],
  "quick": true
 },
 "total": 4,
 "done": 4,
 "failed": 0
}
`

// TestLoadStateRejectsVersion1 pins that a pre-version-2 checkpoint fails
// with the version error, not with the spec-hash (tamper) error its
// dropped prefetch key would otherwise trigger.
func TestLoadStateRejectsVersion1(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, stateFile), []byte(stateV1Quick), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadState(dir)
	if err == nil || !strings.Contains(err.Error(), "checkpoint version 1 ") || strings.Contains(err.Error(), "tampered") {
		t.Fatalf("version-1 checkpoint: err = %v, want the version error", err)
	}
}

func TestLoadStateRejectsTamperedSpec(t *testing.T) {
	dir := t.TempDir()
	st := testState()
	if err := SaveState(dir, st); err != nil {
		t.Fatal(err)
	}
	// Edit the spec but keep the recorded hash: resume must refuse.
	st.Spec.RegionKB = 128
	if err := SaveState(dir, st); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(dir); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("tampered checkpoint: err = %v, want a spec-hash error", err)
	}
}
