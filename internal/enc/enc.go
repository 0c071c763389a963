// Package enc implements the counter-mode memory encryption engine of a
// secure NVM controller (paper Fig. 1). Each 64-byte cacheline is encrypted
// by XOR with a one-time pad (OTP). The OTP is derived from an
// initialisation vector that concatenates padding, the line's physical
// address, and the line's encryption counter (major ‖ minor), so that pads
// are spatially unique (address) and temporally unique (counter increments
// on every write).
//
// The pad for a 64-byte line is produced by four AES-128 invocations in a
// CBC-MAC-style PRF: first the (line address ‖ major counter) tuple is
// encrypted into a tweak, then each 16-byte pad block i is
// AES(tweak XOR (minor ‖ i ‖ padding)). This keeps the construction a
// permutation-based PRF over the full (address, major, minor, i) tuple, so
// distinct tuples yield independent pads, which is the property
// counter-mode encryption needs.
package enc

import (
	"crypto/aes"
	"fmt"
)

// LineBytes is the encryption granularity: one cacheline.
const LineBytes = 64

// padBlocks is the number of 16-byte AES blocks per line pad.
const padBlocks = LineBytes / aes.BlockSize

// tweakSlots sizes the direct-mapped tweak cache (a power of two, indexed
// by the line number's low bits). 256 entries cover the simulator's working
// sets well while costing ~10 KB per pad generator.
const tweakSlots = 256

// tweakEntry caches the first-stage AES output for one (lineNo, major)
// pair. The tweak is a pure function of that pair, so entries never need
// invalidation — a new major for the same line simply overwrites the slot.
type tweakEntry struct {
	lineNo uint64
	major  uint64
	valid  bool
	tweak  [aes.BlockSize]byte
}

// Engine generates one-time pads and applies them to cachelines through
// its embedded Worker, and counts every pad it generates. Not safe for
// concurrent use: the worker's tweak cache and scratch blocks are
// single-threaded state (each simulated machine owns its engine).
type Engine struct {
	Worker
	// Pads counts pad generations (one per line encryption/decryption),
	// used by the timing model (24-cycle AES latency, overlapped with the
	// data fetch). It counts logical pad generations: a tweak-cache hit
	// still increments it, the timing model is unchanged.
	Pads uint64
}

// New creates an engine keyed with the given 16-byte AES-128 key.
func New(key []byte) (*Engine, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("enc: key must be 16 bytes, got %d", len(key))
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &Engine{Worker: Worker{block: b}}, nil
}

// Pad computes the 64-byte one-time pad for the line identified by its
// physical line number (byte address >> 6) and its encryption counter.
func (e *Engine) Pad(lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	e.Pads++
	e.padFor(lineNo, major, minor)
	return e.pad
}

// NotePad records a logical pad generation without computing it. The
// timing-only fidelity (core.FidelityTiming) calls it at every site where
// the full data plane would generate a pad, so the Pads counter — and any
// model built on it — is identical across fidelities.
func (e *Engine) NotePad() { e.Pads++ }

// Crypt XORs src with the pad for (lineNo, major, minor) into dst.
// Counter-mode encryption and decryption are the same operation.
func (e *Engine) Crypt(dst, src *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) {
	e.Pads++
	e.Worker.Crypt(dst, src, lineNo, major, minor)
}

// Encrypt is Crypt with naming that reads well at write sites.
func (e *Engine) Encrypt(plain *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	var out [LineBytes]byte
	e.Crypt(&out, plain, lineNo, major, minor)
	return out
}

// Decrypt is Crypt with naming that reads well at read sites.
func (e *Engine) Decrypt(ciph *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	var out [LineBytes]byte
	e.Crypt(&out, ciph, lineNo, major, minor)
	return out
}
