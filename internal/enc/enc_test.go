package enc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestKeyValidation(t *testing.T) {
	if _, err := New([]byte("short")); err == nil {
		t.Fatal("short key must be rejected")
	}
	if _, err := New(make([]byte, 32)); err == nil {
		t.Fatal("non-16-byte key must be rejected")
	}
}

func TestRoundTrip(t *testing.T) {
	e := newEngine(t)
	var plain [LineBytes]byte
	for i := range plain {
		plain[i] = byte(i * 3)
	}
	ciph := e.Encrypt(&plain, 42, 7, 3)
	if ciph == plain {
		t.Fatal("ciphertext equals plaintext")
	}
	got := e.Decrypt(&ciph, 42, 7, 3)
	if got != plain {
		t.Fatal("decrypt(encrypt(p)) != p")
	}
}

func TestWrongCounterFailsToDecrypt(t *testing.T) {
	e := newEngine(t)
	var plain [LineBytes]byte
	plain[0] = 0xAB
	ciph := e.Encrypt(&plain, 1, 1, 1)
	for _, tc := range []struct {
		name        string
		line, major uint64
		minor       uint8
	}{
		{"wrong line", 2, 1, 1},
		{"wrong major", 1, 2, 1},
		{"wrong minor", 1, 1, 2},
	} {
		if got := e.Decrypt(&ciph, tc.line, tc.major, tc.minor); got == plain {
			t.Errorf("%s: decryption succeeded with wrong parameters", tc.name)
		}
	}
}

// TestSpatialUniqueness: the same plaintext at two addresses yields two
// ciphertexts (the address is part of the IV).
func TestSpatialUniqueness(t *testing.T) {
	e := newEngine(t)
	var plain [LineBytes]byte
	c1 := e.Encrypt(&plain, 100, 5, 5)
	c2 := e.Encrypt(&plain, 101, 5, 5)
	if c1 == c2 {
		t.Fatal("same pad for two line addresses")
	}
}

// TestTemporalUniqueness: the same plaintext at the same address under two
// counter values yields two ciphertexts.
func TestTemporalUniqueness(t *testing.T) {
	e := newEngine(t)
	var plain [LineBytes]byte
	c1 := e.Encrypt(&plain, 100, 5, 5)
	c2 := e.Encrypt(&plain, 100, 5, 6)
	c3 := e.Encrypt(&plain, 100, 6, 5)
	if c1 == c2 || c1 == c3 || c2 == c3 {
		t.Fatal("pads repeated across counter values")
	}
}

// TestQuickPadUniqueness: distinct (line, major, minor) tuples produce
// distinct pads — the security invariant counter-mode depends on.
func TestQuickPadUniqueness(t *testing.T) {
	e := newEngine(t)
	seen := make(map[[LineBytes]byte][3]uint64)
	rng := rand.New(rand.NewSource(11))
	f := func(line, major uint64, minor uint8) bool {
		minor &= 0x7F
		pad := e.Pad(line, major, minor)
		key := [3]uint64{line, major, uint64(minor)}
		if prev, ok := seen[pad]; ok {
			return prev == key
		}
		seen[pad] = key
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRoundTripRandom: decrypt inverts encrypt for random payloads.
func TestQuickRoundTripRandom(t *testing.T) {
	e := newEngine(t)
	f := func(seed int64, line, major uint64, minor uint8) bool {
		var plain [LineBytes]byte
		rand.New(rand.NewSource(seed)).Read(plain[:])
		ciph := e.Encrypt(&plain, line, major, minor&0x7F)
		got := e.Decrypt(&ciph, line, major, minor&0x7F)
		return got == plain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPadCounter(t *testing.T) {
	e := newEngine(t)
	before := e.Pads
	var p [LineBytes]byte
	e.Encrypt(&p, 1, 1, 1)
	e.Decrypt(&p, 1, 1, 1)
	if e.Pads != before+2 {
		t.Fatalf("Pads = %d, want %d", e.Pads, before+2)
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	e1, _ := New(bytes.Repeat([]byte{1}, 16))
	e2, _ := New(bytes.Repeat([]byte{2}, 16))
	p1 := e1.Pad(9, 9, 9)
	p2 := e2.Pad(9, 9, 9)
	if p1 == p2 {
		t.Fatal("two keys produced the same pad")
	}
}

// TestTweakCacheDifferential: an engine whose tweak cache is exercised
// hard (same-line repeats, slot-colliding lines, major-epoch changes) must
// produce exactly the pads of a fresh engine computing each tweak cold.
func TestTweakCacheDifferential(t *testing.T) {
	warm := newEngine(t)
	rng := rand.New(rand.NewSource(23))
	// Lines 5, 5+tweakSlots, 5+2*tweakSlots all collide on one slot.
	lines := []uint64{5, 5 + tweakSlots, 5 + 2*tweakSlots, 77, 1 << 30}
	for i := 0; i < 3000; i++ {
		line := lines[rng.Intn(len(lines))]
		major := uint64(rng.Intn(3))
		minor := uint8(rng.Intn(128))
		got := warm.Pad(line, major, minor)
		want := newEngine(t).Pad(line, major, minor)
		if got != want {
			t.Fatalf("iteration %d: cached pad differs for (line=%d major=%d minor=%d)",
				i, line, major, minor)
		}
	}
}

// TestPadAllocFree: steady-state pad generation and line crypts must not
// allocate (the scratch blocks live in the engine).
func TestPadAllocFree(t *testing.T) {
	e := newEngine(t)
	var plain, out [LineBytes]byte
	e.Crypt(&out, &plain, 3, 1, 1)
	avg := testing.AllocsPerRun(500, func() {
		e.Crypt(&out, &plain, 3, 1, 1)
		e.Crypt(&out, &plain, 4, 1, 2) // tweak-cache miss path too
	})
	if avg != 0 {
		t.Fatalf("Crypt allocates %.2f allocs/op, want 0", avg)
	}
}

// katTuples is the fixed (lineNo, major, minor) list behind the pad
// known-answer test: same-line repeats under a changing minor, three lines
// that collide on one tweak slot, a major-epoch change and back, a line
// beyond 2^30, and the extreme counter values.
var katTuples = []struct {
	line, major uint64
	minor       uint8
}{
	{0, 0, 0}, {0, 0, 1}, {0, 0, 127},
	{5, 1, 3}, {5 + tweakSlots, 1, 3}, {5 + 2*tweakSlots, 1, 3}, {5, 1, 4},
	{5, 2, 4}, {5, 1, 4},
	{77, 9, 0}, {78, 9, 0},
	{1 << 30, 7, 7}, {1<<30 + tweakSlots, 7, 7}, {1 << 30, 8, 0},
	{^uint64(0) >> 6, ^uint64(0), 127},
}

// katPadSHA256 is the SHA-256 of the katTuples pads, concatenated in order
// from one engine. It pins the pad bytes themselves: a change to the PRF,
// the tweak cache or the block layout moves it.
const katPadSHA256 = "a9ca1355287ef5c5dfc51f48e304ebd50131f458264b846cfd1e0c180ac4d1d8"

func TestPadKnownAnswer(t *testing.T) {
	e := newEngine(t)
	h := sha256.New()
	for _, tc := range katTuples {
		pad := e.Pad(tc.line, tc.major, tc.minor)
		h.Write(pad[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != katPadSHA256 {
		t.Fatalf("pad known-answer digest = %s, want %s", got, katPadSHA256)
	}
}

// TestWorkerCryptMatchesEngine: a worker's pads are the engine's pads, so
// the batched page engines encrypt exactly what the serial path would.
func TestWorkerCryptMatchesEngine(t *testing.T) {
	e := newEngine(t)
	w := e.NewWorker()
	var plain [LineBytes]byte
	for i := range plain {
		plain[i] = byte(i*7 + 1)
	}
	for _, tc := range katTuples {
		var want, got [LineBytes]byte
		e.Crypt(&want, &plain, tc.line, tc.major, tc.minor)
		w.Crypt(&got, &plain, tc.line, tc.major, tc.minor)
		if got != want {
			t.Fatalf("(line=%d major=%d minor=%d): worker crypt differs from engine", tc.line, tc.major, tc.minor)
		}
	}
}

// TestWorkerAllocFree: a worker's steady-state crypt must not allocate.
func TestWorkerAllocFree(t *testing.T) {
	w := newEngine(t).NewWorker()
	var plain, out [LineBytes]byte
	w.Crypt(&out, &plain, 3, 1, 1)
	avg := testing.AllocsPerRun(500, func() {
		w.Crypt(&out, &plain, 3, 1, 1)
		w.Crypt(&out, &plain, 4, 1, 2)
	})
	if avg != 0 {
		t.Fatalf("Worker.Crypt allocates %.2f allocs/op, want 0", avg)
	}
}

// TestWorkersConcurrent runs several workers over one engine at once, as
// the issue-window pools do: each goroutine owns its worker and only reads
// the engine. Run it under -race.
func TestWorkersConcurrent(t *testing.T) {
	e := newEngine(t)
	want := make([][LineBytes]byte, len(katTuples))
	for i, tc := range katTuples {
		want[i] = e.Pad(tc.line, tc.major, tc.minor)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := e.NewWorker()
			var zero, out [LineBytes]byte
			for rep := 0; rep < 50; rep++ {
				for k := range katTuples {
					i := (k + g) % len(katTuples)
					tc := katTuples[i]
					w.Crypt(&out, &zero, tc.line, tc.major, tc.minor)
					if out != want[i] {
						errs <- fmt.Errorf("worker %d: pad %d differs", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
