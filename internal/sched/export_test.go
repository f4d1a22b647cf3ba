package sched

// The scan oracles, exported to the external test package so the
// seeded property suite and the fuzz target can compare against them.
var (
	DRFScan  = drfScan
	FairScan = fairScan
)
