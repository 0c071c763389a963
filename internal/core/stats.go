package core

// Sub returns the field-wise difference s - prev, used to isolate the
// measured phase of a run. Every numeric field must appear here — a newly
// added counter that is not differenced silently vanishes from
// phase-isolated diffs; TestStatsSubCoversAllFields enforces the coverage
// by reflection.
//
// MaxChain is intentionally NOT differenced: it is a running maximum, not a
// monotone counter, so "s - prev" has no meaning for it. The diff keeps the
// whole-run maximum, which upper-bounds the phase's maximum (the hop that
// set it may have happened in either phase; the simulator does not record
// when).
func (s Stats) Sub(prev Stats) Stats {
	d := Stats{
		LogicalReads:      s.LogicalReads - prev.LogicalReads,
		LogicalWrites:     s.LogicalWrites - prev.LogicalWrites,
		DataReads:         s.DataReads - prev.DataReads,
		DataWrites:        s.DataWrites - prev.DataWrites,
		CtrReads:          s.CtrReads - prev.CtrReads,
		CtrWrites:         s.CtrWrites - prev.CtrWrites,
		CoWMetaReads:      s.CoWMetaReads - prev.CoWMetaReads,
		CoWMetaWrite:      s.CoWMetaWrite - prev.CoWMetaWrite,
		TreePersistWrites: s.TreePersistWrites - prev.TreePersistWrites,
		ZeroWriteElisions: s.ZeroWriteElisions - prev.ZeroWriteElisions,
		Redirects:         s.Redirects - prev.Redirects,
		ChainHops:         s.ChainHops - prev.ChainHops,
		MaxChain:          s.MaxChain,
		ZeroReads:         s.ZeroReads - prev.ZeroReads,
		MinorIncrements:   s.MinorIncrements - prev.MinorIncrements,
		Overflows:         s.Overflows - prev.Overflows,
		ReencryptedLines:  s.ReencryptedLines - prev.ReencryptedLines,
		CopiedOnDemand:    s.CopiedOnDemand - prev.CopiedOnDemand,
		PhycLines:         s.PhycLines - prev.PhycLines,
		ElidedLines:       s.ElidedLines - prev.ElidedLines,
		PageCopies:        s.PageCopies - prev.PageCopies,
		PagePhycs:         s.PagePhycs - prev.PagePhycs,
		PageFrees:         s.PageFrees - prev.PageFrees,
		PageInits:         s.PageInits - prev.PageInits,

		Recoveries:            s.Recoveries - prev.Recoveries,
		RecoveryBlocksScanned: s.RecoveryBlocksScanned - prev.RecoveryBlocksScanned,
		RecoveryTornBlocks:    s.RecoveryTornBlocks - prev.RecoveryTornBlocks,
		RecoveryNodesRebuilt:  s.RecoveryNodesRebuilt - prev.RecoveryNodesRebuilt,
		RecoveryLinesScrubbed: s.RecoveryLinesScrubbed - prev.RecoveryLinesScrubbed,
		RecoveryMACMismatches: s.RecoveryMACMismatches - prev.RecoveryMACMismatches,
		RecoveryNs:            s.RecoveryNs - prev.RecoveryNs,
	}
	return d
}
