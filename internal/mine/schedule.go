package mine

import (
	"fmt"
	"slices"

	"fingers/internal/plan"
)

// step is one grouped set operation of a level's schedule: identical
// updates compute once (the common-subexpression sharing of paper §3.3),
// resolved ahead of time so neither walker groups actions per task.
type step struct {
	// op is plan.OpInit, plan.OpIntersect or plan.OpSubtract.
	op plan.OpKind
	// pending lists the postponed disconnected-ancestor levels whose
	// neighbor lists are anti-subtracted after an init (only for OpInit).
	pending []int
	// src is the slot whose parent-level set the update reads (only for
	// OpIntersect/OpSubtract; it equals targets[0]).
	src int
	// targets are the levels whose candidate slots receive the result.
	targets []int
}

// buildSchedule resolves the per-level operation groups statically.
// Grouping depends only on the identity structure of the candidate slots
// — which operation produced each slot's set — and that structure
// evolves identically down every root-to-leaf path (levels are always
// visited 0, 1, 2, …). Propagating set IDs symbolically once therefore
// yields the exact groups a per-node grouping would form at every node:
// initializations keyed by their pending-ancestor list, updates keyed by
// (source set identity, op kind).
func buildSchedule(pl *plan.Plan) [][]step {
	k := pl.K()
	// producer[j] identifies the operation that wrote slot j's set; 0 is
	// the empty initial set.
	producer := make([]int32, k)
	var nextID int32
	out := make([][]step, k-1)
	for level := 0; level < k-1; level++ {
		var steps []step
		var srcIDs []int32 // srcIDs[i] is steps[i]'s source set for updates
		group := func(act plan.Action) *step {
			for i := range steps {
				st := &steps[i]
				if st.op != act.Op {
					continue
				}
				if act.Op == plan.OpInit && slices.Equal(st.pending, act.Pending) ||
					act.Op != plan.OpInit && srcIDs[i] == producer[act.Target] {
					return st
				}
			}
			st := step{op: act.Op, pending: act.Pending}
			if act.Op != plan.OpInit {
				st.src = act.Target
			}
			steps = append(steps, st)
			srcIDs = append(srcIDs, producer[act.Target])
			return &steps[len(steps)-1]
		}
		for _, act := range pl.Levels[level].Actions {
			switch act.Op {
			case plan.OpInit, plan.OpIntersect, plan.OpSubtract:
				st := group(act)
				st.targets = append(st.targets, act.Target)
			default:
				panic(fmt.Sprintf("mine: unexpected op kind %v in schedule", act.Op))
			}
		}
		seen := make(map[int]bool, k)
		for _, st := range steps {
			nextID++
			for _, t := range st.targets {
				// The counter reads update sources from the current frame
				// after copying the parent's slots, which is only the
				// parent's value while each slot is written at most once
				// per level — the invariant the plan compiler maintains.
				if seen[t] {
					panic(fmt.Sprintf("mine: slot %d written twice at level %d", t, level))
				}
				seen[t] = true
				producer[t] = nextID
			}
		}
		out[level] = steps
	}
	return out
}
