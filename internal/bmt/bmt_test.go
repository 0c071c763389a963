package bmt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newTree() *Tree {
	return New([]byte("test-key"), 1<<20)
}

func blockBytes(seed byte) []byte {
	raw := make([]byte, 64)
	for i := range raw {
		raw[i] = seed + byte(i)
	}
	return raw
}

func TestUpdateVerify(t *testing.T) {
	tr := newTree()
	raw := blockBytes(1)
	tr.Update(7, raw)
	if err := tr.Verify(7, raw); err != nil {
		t.Fatalf("verify after update: %v", err)
	}
}

func TestTamperDetected(t *testing.T) {
	tr := newTree()
	raw := blockBytes(2)
	tr.Update(100, raw)
	for bit := 0; bit < len(raw)*8; bit += 37 {
		mut := append([]byte(nil), raw...)
		mut[bit/8] ^= 1 << (bit % 8)
		if err := tr.Verify(100, mut); err == nil {
			t.Fatalf("bit flip at %d not detected", bit)
		}
	}
}

func TestReplayDetected(t *testing.T) {
	tr := newTree()
	old := blockBytes(3)
	tr.Update(5, old)
	newer := blockBytes(4)
	tr.Update(5, newer)
	if err := tr.Verify(5, old); err == nil {
		t.Fatal("replaying a stale counter block must fail verification")
	}
	if err := tr.Verify(5, newer); err != nil {
		t.Fatalf("fresh block must verify: %v", err)
	}
}

func TestCrossSlotMove(t *testing.T) {
	tr := newTree()
	raw := blockBytes(5)
	tr.Update(10, raw)
	if err := tr.Verify(11, raw); err == nil {
		t.Fatal("a block moved to another index must fail verification")
	}
}

func TestManyBlocksIndependent(t *testing.T) {
	tr := newTree()
	const n = 300
	raws := make([][]byte, n)
	for i := 0; i < n; i++ {
		raws[i] = blockBytes(byte(i))
		tr.Update(uint64(i*17), raws[i])
	}
	for i := 0; i < n; i++ {
		if err := tr.Verify(uint64(i*17), raws[i]); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
}

func TestRootChangesOnUpdate(t *testing.T) {
	tr := newTree()
	r0 := tr.Root()
	tr.Update(1, blockBytes(9))
	r1 := tr.Root()
	if r0 == r1 {
		t.Fatal("root unchanged by update")
	}
	tr.Update(1, blockBytes(10))
	if r1 == tr.Root() {
		t.Fatal("root unchanged by second update")
	}
}

func TestVerifyCounts(t *testing.T) {
	tr := newTree()
	tr.Update(1, blockBytes(1))
	_ = tr.Verify(1, blockBytes(1))
	_ = tr.Verify(1, blockBytes(1))
	if tr.Verifies() != 2 {
		t.Fatalf("Verifies = %d, want 2", tr.Verifies())
	}
	if tr.Updates != 1 {
		t.Fatalf("Updates = %d, want 1", tr.Updates)
	}
}

// TestQuickUpdateVerify: random (index, content) updates always verify,
// and a random single-byte corruption never does.
func TestQuickUpdateVerify(t *testing.T) {
	tr := newTree()
	rng := rand.New(rand.NewSource(3))
	f := func(idx uint64, seed int64, corruptAt uint16, delta byte) bool {
		idx %= 1 << 20
		raw := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(raw)
		tr.Update(idx, raw)
		if tr.Verify(idx, raw) != nil {
			return false
		}
		if delta == 0 {
			delta = 1
		}
		mut := append([]byte(nil), raw...)
		mut[int(corruptAt)%len(mut)] ^= delta
		return tr.Verify(idx, mut) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMACStore(t *testing.T) {
	s := NewMACStore([]byte("mac-key"))
	ciph := blockBytes(6)
	s.Update(99, ciph, 4, 2)
	if err := s.Verify(99, ciph, 4, 2); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Wrong counter: replayed data under a stale counter must fail.
	if err := s.Verify(99, ciph, 4, 1); err == nil {
		t.Fatal("stale minor accepted")
	}
	if err := s.Verify(99, ciph, 3, 2); err == nil {
		t.Fatal("stale major accepted")
	}
	// Tampered data.
	mut := append([]byte(nil), ciph...)
	mut[0] ^= 1
	if err := s.Verify(99, mut, 4, 2); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
	// Unknown lines verify trivially (never written).
	if err := s.Verify(1234, ciph, 0, 0); err != nil {
		t.Fatalf("unknown line must verify: %v", err)
	}
	// Dropped MACs forget the line.
	s.Drop(99)
	if err := s.Verify(99, mut, 4, 2); err != nil {
		t.Fatalf("dropped line must verify trivially: %v", err)
	}
}

// TestSumStoreSumMatchesUpdate: the batched page_phyc commit path — a
// verifier's Sum computed off to the side, installed with StoreSum — must
// leave the store exactly as Update would.
func TestSumStoreSumMatchesUpdate(t *testing.T) {
	key := []byte("sum-store-key")
	direct, batched := NewMACStore(key), NewMACStore(key)
	v := batched.NewVerifier()
	for i := 0; i < 200; i++ {
		line := uint64(i*37) % 5000
		ciph := blockBytes(byte(i))
		major, minor := uint64(i/3), uint8(i%128)
		direct.Update(line, ciph, major, minor)
		batched.StoreSum(line, v.Sum(line, ciph, major, minor))
		slot := line % macPageLines
		if direct.page(line, false).sums[slot] != batched.page(line, false).sums[slot] {
			t.Fatalf("line %d: StoreSum(Sum(...)) stored a different MAC than Update", line)
		}
		if err := batched.Verify(line, ciph, major, minor); err != nil {
			t.Fatalf("line %d: batched MAC does not verify: %v", line, err)
		}
		if err := direct.NewVerifier().Verify(line, ciph, major, minor); err != nil {
			t.Fatalf("line %d: Update's MAC fails a verifier: %v", line, err)
		}
	}
}

// TestQuickMACBindsLineAndCounter: after Update, flipping any one
// ciphertext bit fails Verify, and so does presenting the line (with its
// stored MAC) under another line number, major or minor counter.
func TestQuickMACBindsLineAndCounter(t *testing.T) {
	s := NewMACStore([]byte("quick-mac-key"))
	rng := rand.New(rand.NewSource(17))
	f := func(line, major uint64, minor uint8, seed int64, bit uint16, otherBit uint8) bool {
		line %= 1 << 20
		ciph := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(ciph)
		s.Update(line, ciph, major, minor)
		if s.Verify(line, ciph, major, minor) != nil {
			return false
		}
		mut := append([]byte(nil), ciph...)
		mut[int(bit)%512/8] ^= 1 << (bit % 8)
		if s.Verify(line, mut, major, minor) == nil {
			return false
		}
		if s.Verify(line, ciph, major^(1<<(otherBit%64)), minor) == nil {
			return false
		}
		if s.Verify(line, ciph, major, minor^(1<<(otherBit%8))) == nil {
			return false
		}
		// Relocate the ciphertext together with its MAC.
		moved := line ^ (1 << (otherBit % 20))
		slot := line % macPageLines
		s.StoreSum(moved, s.page(line, false).sums[slot])
		return s.Verify(moved, ciph, major, minor) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestMACVerifierAllocFree: a verifier's steady-state Sum and Verify must
// not allocate.
func TestMACVerifierAllocFree(t *testing.T) {
	s := NewMACStore([]byte("alloc-mac-key"))
	ciph := make([]byte, 64)
	s.Update(42, ciph, 3, 1)
	v := s.NewVerifier()
	avg := testing.AllocsPerRun(500, func() {
		_ = v.Sum(43, ciph, 3, 1)
		if err := v.Verify(42, ciph, 3, 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state MACVerifier Sum+Verify allocates %.2f allocs/op, want 0", avg)
	}
}

// TestVerifiersConcurrent runs several MAC and leaf verifiers over one
// store and one tree at once, as the recovery scrub and the batched page
// engines do: each goroutine owns its verifier and only reads the shared
// state. Run it under -race.
func TestVerifiersConcurrent(t *testing.T) {
	s := NewMACStore([]byte("concurrent-mac-key"))
	tr := New([]byte("concurrent-tree-key"), 1<<12)
	const n = 128
	want := make([]Digest, n)
	for i := 0; i < n; i++ {
		s.Update(uint64(i), blockBytes(byte(i)), uint64(i), uint8(i%128))
		tr.Update(uint64(i*5), blockBytes(byte(i)))
		want[i] = s.NewVerifier().Sum(uint64(i), blockBytes(byte(i)), uint64(i), uint8(i%128))
	}
	tr.Root()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, lv := s.NewVerifier(), tr.NewLeafVerifier()
			for rep := 0; rep < 20; rep++ {
				for k := 0; k < n; k++ {
					i := (k + g*31) % n
					ciph := blockBytes(byte(i))
					if got := v.Sum(uint64(i), ciph, uint64(i), uint8(i%128)); got != want[i] {
						errs <- fmt.Errorf("goroutine %d: Sum of line %d differs", g, i)
						return
					}
					if err := v.Verify(uint64(i), ciph, uint64(i), uint8(i%128)); err != nil {
						errs <- fmt.Errorf("goroutine %d: %v", g, err)
						return
					}
					if err := lv.Verify(uint64(i*5), ciph); err != nil {
						errs <- fmt.Errorf("goroutine %d: %v", g, err)
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
