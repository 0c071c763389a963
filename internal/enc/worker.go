package enc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
)

// Worker is the one pad generator: an AES key schedule plus a private
// tweak cache and scratch blocks. The Engine embeds one; NewWorker derives
// more that share the engine's key schedule, so a goroutine pool can
// encrypt/decrypt independent lines concurrently (cipher.Block's Encrypt is
// safe for concurrent use; a worker's scratch is not). Workers do not
// touch the engine's Pads counter — the serial commit phase of a batch
// accounts pads via NotePads, keeping the counter single-writer.
type Worker struct {
	block  cipher.Block
	tweaks [tweakSlots]tweakEntry
	in     [aes.BlockSize]byte
	pad    [LineBytes]byte
}

// NewWorker derives an independent pad generator from the engine.
func (e *Engine) NewWorker() *Worker {
	return &Worker{block: e.block}
}

// NotePads records n logical pad generations at once — the serial-commit
// accounting for pads a batch's parallel workers generated (or, under
// timing fidelity, would have generated).
func (e *Engine) NotePads(n uint64) { e.Pads += n }

// padFor writes the pad for (lineNo, major, minor) into w.pad.
func (w *Worker) padFor(lineNo uint64, major uint64, minor uint8) {
	slot := &w.tweaks[lineNo%tweakSlots]
	if !slot.valid || slot.lineNo != lineNo || slot.major != major {
		w.in = [aes.BlockSize]byte{}
		binary.LittleEndian.PutUint64(w.in[0:8], lineNo)
		binary.LittleEndian.PutUint64(w.in[8:16], major)
		w.block.Encrypt(slot.tweak[:], w.in[:])
		slot.lineNo, slot.major, slot.valid = lineNo, major, true
	}
	for i := 0; i < padBlocks; i++ {
		w.in = slot.tweak
		w.in[0] ^= minor
		w.in[1] ^= byte(i)
		w.block.Encrypt(w.pad[i*aes.BlockSize:(i+1)*aes.BlockSize], w.in[:])
	}
}

// Crypt XORs src with the pad for (lineNo, major, minor) into dst, like
// Engine.Crypt but with worker-private state and no pad accounting.
func (w *Worker) Crypt(dst, src *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) {
	w.padFor(lineNo, major, minor)
	subtle.XORBytes(dst[:], src[:], w.pad[:])
}

// Encrypt is Crypt with naming that reads well at write sites.
func (w *Worker) Encrypt(plain *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	var out [LineBytes]byte
	w.Crypt(&out, plain, lineNo, major, minor)
	return out
}

// Decrypt is Crypt with naming that reads well at read sites.
func (w *Worker) Decrypt(ciph *[LineBytes]byte, lineNo uint64, major uint64, minor uint8) [LineBytes]byte {
	var out [LineBytes]byte
	w.Crypt(&out, ciph, lineNo, major, minor)
	return out
}
