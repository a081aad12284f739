package setops

// PipelineStats summarizes one segmented set operation: how much work the
// task divider and the intersect units performed. The accelerator timing
// model consumes these numbers; software callers may ignore them.
type PipelineStats struct {
	// Workloads is the number of IU work units the operation divided into,
	// i.e. the available segment-level parallelism.
	Workloads int
	// CompareCycles is the total comparator cycles across all workloads
	// (one element streamed per cycle).
	CompareCycles int
	// SearchSteps is the binary-search work of segment pairing.
	SearchSteps int
	// WorkloadCycles lists the comparator cycles of each workload, in
	// emission order, for list-scheduling onto concrete IUs.
	WorkloadCycles []int
}

// SegmentedApply runs a full set operation through the FINGERS segment
// pipeline — segmentation, head-list pairing, load balancing, per-workload
// compare units, and bitvector aggregation — and returns the result list.
//
// For intersection and subtraction, s is the (short) partial candidate set
// and n the (long) neighbor list; for anti-subtraction the result is n − s.
// The output always equals Apply(op, s, n). This is the executable model
// of the IU datapath that the segment tests check against Apply; the
// simulator does not run it. Its timing comes from the FINGERS PE's
// chargeOp, which derives the same segment and workload geometry without
// materializing results, and its results from mine.Engine.
func SegmentedApply(op Op, s, n []uint32, longSegLen, shortSegLen, maxLoad int) ([]uint32, PipelineStats) {
	long := Segment(n, longSegLen)
	short := Segment(s, shortSegLen)
	pairing := Pair(long, short)
	workloads := Balance(pairing, op, maxLoad)
	stats := PipelineStats{
		Workloads:      len(workloads),
		SearchSteps:    pairing.SearchSteps,
		WorkloadCycles: make([]int, 0, len(workloads)),
	}
	collector := NewCollector(op)
	for _, w := range workloads {
		results, cycles := CompareSegments(op, pairing, w)
		stats.CompareCycles += cycles
		stats.WorkloadCycles = append(stats.WorkloadCycles, cycles)
		for _, r := range results {
			collector.Add(r)
		}
	}
	return collector.Finish(), stats
}
