package main

import (
	"fmt"
	"time"

	"lelantus/internal/bmt"
	"lelantus/internal/cache"
	"lelantus/internal/core"
	"lelantus/internal/ctr"
	"lelantus/internal/ctrcache"
	"lelantus/internal/enc"
	"lelantus/internal/kernel"
	"lelantus/internal/memctrl"
	"lelantus/internal/nvm"
	"lelantus/internal/tlb"
)

// microReps is how many times each substrate loop is timed; the median
// repetition is reported.
const microReps = 5

// sink keeps loop results live so the compiler cannot drop the calls.
var sink uint64

// perOp times n calls of fn, microReps times, and returns the median
// nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	samples := make([]float64, 0, microReps)
	for r := 0; r < microReps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(samples)
}

// microMetrics runs a short loop over each substrate module's public calls
// and returns host nanoseconds per call, keyed by per-layer metric name.
// scale divides the loop lengths (quick mode).
func microMetrics(tr *tracer, scale int) (map[string]float64, error) {
	out := map[string]float64{}
	n := func(base int) int { return max(base/scale, 64) }
	timed := func(name string, f func() float64) {
		id := tr.begin("micro."+name, "", 0)
		out[name] = f()
		tr.finish(id)
	}

	// cache: a sweep over 16 MB of lines, twice the L3, so the hierarchy
	// sees hits and misses at every level; misses are filled as the
	// controller does.
	h := cache.NewHierarchy(cache.DefaultConfig())
	timed("cache.access_ns", func() float64 {
		return perOp(n(1<<18), func(i int) {
			line := uint64(i*7919) % (1 << 18) * 64
			lat, miss := h.Access(line, i&3 == 0)
			if miss {
				h.Fill(line, i&3 == 0, nil)
			}
			sink += lat
		})
	})

	// ctrcache: 8192 pages of counter blocks against a 256 KB cache.
	cc := ctrcache.New(256<<10, 16, ctrcache.WriteBack, 2)
	timed("ctrcache.get_ns", func() float64 {
		return perOp(n(1<<18), func(i int) {
			page := uint64(i*31) % 8192
			if cc.Get(page) == nil {
				cc.Put(page, ctr.Block{Format: ctr.Resized, Major: page})
			}
		})
	})

	blk := ctr.Block{Format: ctr.Resized, CoW: true, Major: 12345, Src: 777}
	for i := range blk.Minor {
		blk.Minor[i] = uint8(i % ctr.MinorMaxCoW)
	}
	var raw [ctr.BlockBytes]byte
	var packErr error
	timed("ctr.pack_ns", func() float64 {
		return perOp(n(1<<18), func(i int) {
			blk.Major = uint64(i)
			if err := blk.PackInto(&raw); err != nil {
				packErr = err
			}
		})
	})
	var back ctr.Block
	timed("ctr.unpack_ns", func() float64 {
		return perOp(n(1<<18), func(int) {
			if err := ctr.UnpackInto(&raw, ctr.Resized, &back); err != nil {
				packErr = err
			}
		})
	})
	if packErr != nil {
		return nil, fmt.Errorf("micro: counter codec: %w", packErr)
	}

	dev := nvm.New(nvm.DefaultConfig())
	var now uint64
	timed("nvm.access_ns", func() float64 {
		return perOp(n(1<<18), func(i int) {
			addr := uint64(i*4099) % (1 << 26) * 64
			if i&1 == 0 {
				now = dev.Read(now, addr)
			} else {
				now = dev.Write(now, addr)
			}
		})
	})

	tl := tlb.New(tlb.DefaultConfig())
	timed("tlb.translate_ns", func() float64 {
		return perOp(n(1<<18), func(i int) {
			sink += tl.Translate(uint64(i*13)%4096, false)
		})
	})

	var cowErr error
	timed("kernel.cow_fault_ns", func() float64 {
		ns, err := cowFaultNs(n(512))
		cowErr = err
		return ns
	})
	if cowErr != nil {
		return nil, cowErr
	}

	key := []byte("perfbench-key-16")
	e, err := enc.New(key)
	if err != nil {
		return nil, fmt.Errorf("micro: %w", err)
	}
	timed("enc.pad_ns", func() float64 {
		return perOp(n(1<<18), func(i int) {
			p := e.Pad(uint64(i), 7, uint8(i))
			sink += uint64(p[0])
		})
	})

	var line [64]byte
	macs := bmt.NewMACStore(key)
	lines := n(1 << 14)
	timed("bmt.mac_update_ns", func() float64 {
		return perOp(lines, func(i int) {
			line[0] = byte(i)
			macs.Update(uint64(i), line[:], 3, 1)
		})
	})
	var macErr error
	timed("bmt.mac_verify_ns", func() float64 {
		return perOp(lines, func(i int) {
			line[0] = byte(i)
			if err := macs.Verify(uint64(i), line[:], 3, 1); err != nil {
				macErr = err
			}
		})
	})
	if macErr != nil {
		return nil, fmt.Errorf("micro: MAC verify: %w", macErr)
	}

	// The tree defers propagation to the next verify or root read, so the
	// update loop ends by reading the root: the timed cost is the whole
	// update, leaf to root. Stride 17 is odd, so every update in a loop
	// hits a distinct leaf and the verify loop can re-derive its content.
	const blocks = 1 << 16
	tree := bmt.New(key, blocks)
	updates := n(1 << 13)
	timed("bmt.tree_update_ns", func() float64 {
		return perOp(1, func(int) {
			for i := 0; i < updates; i++ {
				line[0] = byte(i)
				tree.Update(uint64(i*17)%blocks, line[:])
			}
			sink += uint64(tree.Root()[0])
		}) / float64(updates)
	})
	var treeErr error
	timed("bmt.tree_verify_ns", func() float64 {
		return perOp(updates, func(i int) {
			line[0] = byte(i)
			if err := tree.Verify(uint64(i*17)%blocks, line[:]); err != nil {
				treeErr = err
			}
		})
	})
	if treeErr != nil {
		return nil, fmt.Errorf("micro: tree verify: %w", treeErr)
	}
	return out, nil
}

// cowFaultNs times a forked child's first write to each of `pages` pages
// (Lelantus scheme, timing fidelity): every such write takes the kernel's
// copy-on-write fault. The fork and the parent's writes are set-up and
// stay outside the timed loop.
func cowFaultNs(pages int) (float64, error) {
	samples := make([]float64, 0, microReps)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for r := 0; r < microReps; r++ {
		cfg := memctrl.DefaultConfig(core.Lelantus)
		cfg.MemBytes = 64 << 20
		cfg.Core.Fidelity = core.FidelityTiming
		ctl, err := memctrl.New(cfg)
		if err != nil {
			return 0, fmt.Errorf("micro: %w", err)
		}
		k, err := kernel.New(kernel.DefaultConfig(), ctl)
		if err != nil {
			return 0, fmt.Errorf("micro: %w", err)
		}
		parent := k.Spawn()
		va, now, err := k.Mmap(0, parent, uint64(pages)*4096, false)
		if err != nil {
			return 0, fmt.Errorf("micro: mmap: %w", err)
		}
		for p := 0; p < pages; p++ {
			if now, err = k.Write(now, parent, va+uint64(p)*4096, data); err != nil {
				return 0, fmt.Errorf("micro: parent write: %w", err)
			}
		}
		child, now, err := k.Fork(now, parent)
		if err != nil {
			return 0, fmt.Errorf("micro: fork: %w", err)
		}
		before := k.Stats.CoWFaults
		t0 := time.Now()
		for p := 0; p < pages; p++ {
			if now, err = k.Write(now, child, va+uint64(p)*4096, data); err != nil {
				return 0, fmt.Errorf("micro: child write: %w", err)
			}
		}
		el := time.Since(t0)
		if got := k.Stats.CoWFaults - before; got != uint64(pages) {
			return 0, fmt.Errorf("micro: %d child writes took %d CoW faults", pages, got)
		}
		samples = append(samples, float64(el.Nanoseconds())/float64(pages))
	}
	return median(samples), nil
}
