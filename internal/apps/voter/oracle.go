package voter

import (
	"sort"

	"repro/internal/workload"
)

// Oracle is the sequential reference implementation of the §3.1 semantics:
// process votes strictly in arrival order, validate each against the state
// produced by all earlier votes, and eliminate the lowest-vote candidate
// the instant the 100th (200th, ...) vote commits — before any later vote
// is examined. A correct engine must match the oracle exactly; every
// H-Store anomaly in the paper is a divergence from it.
type Oracle struct {
	// Alive maps live candidate ids to true.
	Alive map[int64]bool
	// VoteOf maps a phone to its live vote's candidate.
	VoteOf map[int64]int64
	// Counts holds per-candidate live vote counts.
	Counts map[int64]int64
	// Total counts every accepted vote (never decremented).
	Total int64
	// Eliminations lists eliminated candidates in order.
	Eliminations []int64
	// EliminationTotals records the Total at each elimination.
	EliminationTotals []int64
	// Winner is the last candidate standing (0 while undecided).
	Winner int64
	// Accepted / Rejected count vote dispositions.
	Accepted, Rejected int
	// accepted lists the contestant of every accepted vote in order: the
	// trending window's input, for tests that check the leaderboard too.
	accepted []int64
}

// RunOracle executes the reference semantics over the vote feed.
func RunOracle(votes []workload.Vote, contestants int, eliminateEvery int) *Oracle {
	o := &Oracle{
		Alive:  make(map[int64]bool, contestants),
		VoteOf: make(map[int64]int64),
		Counts: make(map[int64]int64, contestants),
	}
	for i := 1; i <= contestants; i++ {
		o.Alive[int64(i)] = true
		o.Counts[int64(i)] = 0
	}
	for _, v := range votes {
		if o.Winner != 0 {
			o.Rejected++
			continue // voting closed
		}
		if !o.Alive[v.Contestant] {
			o.Rejected++
			continue
		}
		if _, voted := o.VoteOf[v.Phone]; voted {
			o.Rejected++
			continue
		}
		o.VoteOf[v.Phone] = v.Contestant
		o.Counts[v.Contestant]++
		o.Total++
		o.Accepted++
		o.accepted = append(o.accepted, v.Contestant)
		if o.Total%int64(eliminateEvery) == 0 && len(o.Alive) > 1 {
			o.eliminateLowest()
		}
	}
	return o
}

func (o *Oracle) eliminateLowest() {
	ids := make([]int64, 0, len(o.Alive))
	for id := range o.Alive {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ci, cj := o.Counts[ids[i]], o.Counts[ids[j]]
		if ci != cj {
			return ci < cj
		}
		return ids[i] < ids[j]
	})
	loser := ids[0]
	delete(o.Alive, loser)
	delete(o.Counts, loser)
	for phone, cand := range o.VoteOf {
		if cand == loser {
			delete(o.VoteOf, phone) // the vote returns to its caster
		}
	}
	o.Eliminations = append(o.Eliminations, loser)
	o.EliminationTotals = append(o.EliminationTotals, o.Total)
	if len(o.Alive) == 1 {
		for id := range o.Alive {
			o.Winner = id
		}
	}
}

// AliveSorted returns the live candidate ids in ascending order.
func (o *Oracle) AliveSorted() []int64 {
	out := make([]int64, 0, len(o.Alive))
	for id := range o.Alive {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
