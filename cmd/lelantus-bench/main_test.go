package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestBadFlagValuesExitTwo pins the CLI's flag-hardening contract: an
// invalid enum value produces exactly one actionable stderr line naming the
// bad value and exits 2 — before any experiment starts.
func TestBadFlagValuesExitTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad fidelity", []string{"-fidelity", "fast"}, "fast"},
		{"bad persist", []string{"-persist", "nope"}, "nope"},
		{"bad mlp", []string{"-mlp", "maybe"}, "maybe"},
		{"bad experiment id", []string{"-exp", "fig99"}, "fig99"},
		{"mem overflows bytes", []string{"-mem", "17592186044416"}, "17592186044416"},
		{"negative mshrs", []string{"-mshrs", "-2"}, "-mshrs -2"},
		{"negative mlp workers", []string{"-mlp-workers", "-3"}, "-mlp-workers -3"},
		{"negative ranks", []string{"-ranks", "-4"}, "-ranks -4"},
		{"negative banks", []string{"-banks", "-5"}, "-banks -5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			msg := strings.TrimRight(stderr.String(), "\n")
			if strings.Contains(msg, "\n") {
				t.Fatalf("diagnosis is not one line:\n%s", msg)
			}
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("diagnosis %q does not name the bad value %q", msg, tc.want)
			}
			if !strings.HasPrefix(msg, "lelantus-bench: ") {
				t.Fatalf("diagnosis %q does not identify the program", msg)
			}
			if stdout.Len() != 0 {
				t.Fatalf("bad flag value produced stdout output: %q", stdout.String())
			}
		})
	}
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "no-such-flag") {
		t.Fatalf("stderr %q does not name the unknown flag", stderr.String())
	}
}

func TestListExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "persist-matrix") {
		t.Fatalf("-list output %q does not mention persist-matrix", stdout.String())
	}
}

// TestBadProfilePathFailsFirst pins the shared profile contract: an
// unwritable -memprofile path exits 1 before any experiment runs.
func TestBadProfilePathFailsFirst(t *testing.T) {
	var stdout, stderr bytes.Buffer
	bad := filepath.Join(t.TempDir(), "no-such-dir", "mem.out")
	if code := run([]string{"-exp", "tableIII", "-memprofile", bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "memprofile") || stdout.Len() != 0 {
		t.Fatalf("stderr %q, stdout %q: want the cause and no report", stderr.String(), stdout.String())
	}
}

// TestFlagSurface pins every flag name, type and default as they stood
// before the machine flags moved into internal/knobs.
func TestFlagSurface(t *testing.T) {
	want := []string{
		`-banks int`,
		`-cpuprofile string`,
		`-exp string (default "all")`,
		`-fidelity string (default "auto")`,
		`-json`,
		`-list`,
		`-markdown`,
		`-mem uint (default 512)`,
		`-memprofile string`,
		`-mlp string (default "off")`,
		`-mlp-workers int`,
		`-mshrs int`,
		`-parallel int`,
		`-persist string (default "strict")`,
		`-quick`,
		`-ranks int`,
		`-seed int (default 1)`,
	}
	var stdout, stderr bytes.Buffer
	run([]string{"-h"}, &stdout, &stderr)
	if got := flagSurface(stderr.String()); !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}

// flagSurface reduces -h output to one "-name type (default v)" entry per
// flag, dropping the help prose.
func flagSurface(help string) []string {
	var out []string
	for _, line := range strings.Split(help, "\n") {
		if strings.HasPrefix(line, "  -") {
			out = append(out, strings.TrimSpace(line))
		} else if i := strings.LastIndex(line, "(default "); i >= 0 && len(out) > 0 {
			out[len(out)-1] += " " + line[i:]
		}
	}
	return out
}
