package bmt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// macPageLines groups per-line MACs into fixed 64-line pages (one 4 KB data
// page's worth), so the store is a dense two-level table instead of a map:
// page lookup is an array index, presence is one bit, and the Drop-heavy
// CoW command stream (64 drops per page_copy/free/init) never churns hash
// buckets.
const macPageLines = 64

// macPage holds one data page's MACs plus a presence bitmask.
type macPage struct {
	present uint64
	sums    [macPageLines]Digest
}

// macSize is the width of a line MAC: one GMAC tag.
const macSize = 16

// Digest is one line MAC (a 16-byte GMAC tag), exported so batch paths can
// carry MACs computed by a parallel worker into a serial StoreSum commit.
type Digest [macSize]byte

// lineMAC computes per-line data MACs with AES-GMAC: GCM sealing an empty
// plaintext, with the 17-byte header lineNo ‖ major ‖ minor as the nonce
// and the ciphertext as additional data. The nonce is the counter-mode
// pad's own input, fresh on every write, which is exactly GMAC's nonce
// requirement. The AEAD is stateless and shared read-only by a store and
// its verifiers; each lineMAC owns its scratch, so the caller's buffers
// never escape through the interface and nothing allocates per line.
type lineMAC struct {
	gcm  cipher.AEAD
	err  error // construction failure (GCM refused), reported by Verify
	hdr  [17]byte
	sum  Digest
	ciph []byte
}

// newLineMAC keys AES-GMAC with sha256(key)[:16]. The key must differ from
// the pad key: GCM's hash key is AES_k(0), which under the pad key would
// be the tweak of line 0, major 0.
func newLineMAC(key []byte) lineMAC {
	k := sha256.Sum256(key)
	b, err := aes.NewCipher(k[:aes.BlockSize])
	if err != nil {
		return lineMAC{err: err}
	}
	gcm, err := cipher.NewGCMWithNonceSize(b, len(lineMAC{}.hdr))
	if err != nil {
		return lineMAC{err: fmt.Errorf("bmt: line MAC: %w", err)}
	}
	return lineMAC{gcm: gcm}
}

func (m *lineMAC) compute(lineNo uint64, ciph []byte, major uint64, minor uint8) Digest {
	if m.gcm == nil {
		return Digest{}
	}
	binary.LittleEndian.PutUint64(m.hdr[0:8], lineNo)
	binary.LittleEndian.PutUint64(m.hdr[8:16], major)
	m.hdr[16] = minor
	m.ciph = append(m.ciph[:0], ciph...)
	m.gcm.Seal(m.sum[:0], m.hdr[:], nil, m.ciph)
	return m.sum
}

// verify checks ciph against the MAC stored for lineNo in its page p (nil
// if the page was never written). Lines never written (e.g. demand-zero
// content) have no MAC yet and verify trivially.
func (m *lineMAC) verify(p *macPage, lineNo uint64, ciph []byte, major uint64, minor uint8) error {
	if m.err != nil {
		return m.err
	}
	slot := lineNo % macPageLines
	if p == nil || p.present&(1<<slot) == 0 {
		return nil
	}
	if m.compute(lineNo, ciph, major, minor) != p.sums[slot] {
		return fmt.Errorf("bmt: data MAC mismatch at line %#x", lineNo)
	}
	return nil
}

// MACStore holds the per-line data MACs. A line's MAC binds the ciphertext
// to its address and encryption counter, so stale or relocated ciphertext
// fails verification. Not safe for concurrent use (single scratch state,
// like Tree); NewVerifier derives per-goroutine checkers.
type MACStore struct {
	mac   lineMAC
	pages []*macPage
}

// NewMACStore creates an empty MAC store with the given key.
func NewMACStore(key []byte) *MACStore {
	return &MACStore{mac: newLineMAC(key)}
}

// page returns the MAC page for a line number, materialising it if create
// is set; otherwise absent pages return nil.
func (s *MACStore) page(lineNo uint64, create bool) *macPage {
	idx := lineNo / macPageLines
	if idx >= uint64(len(s.pages)) {
		if !create {
			return nil
		}
		grown := make([]*macPage, idx+1+idx/2)
		copy(grown, s.pages)
		s.pages = grown
	}
	p := s.pages[idx]
	if p == nil && create {
		p = new(macPage)
		s.pages[idx] = p
	}
	return p
}

// Update records the MAC for a freshly written line.
func (s *MACStore) Update(lineNo uint64, ciph []byte, major uint64, minor uint8) {
	s.StoreSum(lineNo, s.mac.compute(lineNo, ciph, major, minor))
}

// Verify checks a line read from NVM. Lines never written (e.g. demand-zero
// content) have no MAC yet and verify trivially.
func (s *MACStore) Verify(lineNo uint64, ciph []byte, major uint64, minor uint8) error {
	return s.mac.verify(s.page(lineNo, false), lineNo, ciph, major, minor)
}

// StoreSum installs a precomputed MAC (a MACVerifier.Sum produced by a
// parallel worker) for a line: the serial-commit half of the batched
// update path, equivalent to Update with the MAC work already done.
func (s *MACStore) StoreSum(lineNo uint64, sum Digest) {
	p := s.page(lineNo, true)
	slot := lineNo % macPageLines
	p.sums[slot] = sum
	p.present |= 1 << slot
}

// Drop removes the MAC of a line (page freed and its metadata reset).
func (s *MACStore) Drop(lineNo uint64) {
	if p := s.page(lineNo, false); p != nil {
		p.present &^= 1 << (lineNo % macPageLines)
	}
}

// MACVerifier computes and checks per-line data MACs with private scratch:
// pool workers in the recovery MAC scrub and the batched page-engine paths
// each own one. Verify/Sum only read the store's pages; concurrent
// Update/StoreSum/Drop calls are the caller's bug.
type MACVerifier struct {
	s   *MACStore
	mac lineMAC
}

// NewVerifier derives an independent MAC verifier/computer from the store.
func (s *MACStore) NewVerifier() *MACVerifier {
	return &MACVerifier{s: s, mac: lineMAC{gcm: s.mac.gcm, err: s.mac.err}}
}

// Sum returns the MAC binding (ciphertext, address, counter) — the value
// Update would store — computed with the verifier's private state.
func (v *MACVerifier) Sum(lineNo uint64, ciph []byte, major uint64, minor uint8) Digest {
	return v.mac.compute(lineNo, ciph, major, minor)
}

// Verify is MACStore.Verify with the verifier's own scratch state.
func (v *MACVerifier) Verify(lineNo uint64, ciph []byte, major uint64, minor uint8) error {
	return v.mac.verify(v.s.page(lineNo, false), lineNo, ciph, major, minor)
}
