package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/benchmark/sut"
	"repro/internal/apps/voter"
	"repro/internal/pe"
	"repro/internal/types"
	"repro/internal/wire"
)

// voterW drives voter-stream: the paper's §3.1 workflow, unchanged.
//
// Connection 0 pushes the feed as Ingest messages of 32 votes and calls
// Flush after every 8; connection 1 is the leaderboard display, running
// the Fig. 2 top-3 query every 20 ms against the saturated worker.
//
// The feed is generated with the sequential oracle in the loop: a valid
// vote always names a contestant alive at that point of the sequence, 2 %
// of votes name an id that never existed and 5 % reuse an earlier phone.
// A uniform feed over the initial ids would speed up as eliminated
// contestants' votes take the cheap reject path.
//
// Every segment starts from the same state: before it, untimed, the
// previous segment's result is checked against the oracle and a logged
// voter_reset empties the contest and seats a full pool of fresh
// contestants. Left alone, `votes` grows by a row per accepted vote (the
// engine's version sweep and the Go collector walk all of it) and the
// pool shrinks by one per hundred votes, and no two segments cost the
// same. Phones restart with each segment, so the `votes` index sees the
// same keys every time; contestant ids are never reused, so that votes
// still expiring from the trending window cannot touch a newcomer's row.
type voterW struct {
	spec sut.Spec
	rng  *rand.Rand
	// o is the oracle of the segment in flight (nil before the first).
	o *voterOracle
	// nextID is the next fresh contestant id; nextPhone the segment's next
	// fresh phone.
	nextID, nextPhone int64
	ts                int64
}

const (
	voterIngestRows = 32
	voterFlushMsgs  = 8
	voterGroup      = voterIngestRows * voterFlushMsgs
	voterInvalidPct = 2
	voterDupPct     = 5
	voterReadEvery  = 20 * time.Millisecond
	voterFirstPhone = 1_000_000_0000
	voterTop3       = `SELECT c.name, vc.n FROM vote_counts vc
		JOIN contestants c ON c.id = vc.contestant
		ORDER BY vc.n DESC, c.id ASC LIMIT 3`
)

func newVoter(spec sut.Spec, seed int64) *voterW {
	// The SUT seeds ids 1..pool at start-up; the first reset replaces them.
	return &voterW{spec: spec, rng: rand.New(rand.NewSource(seed)),
		nextID: int64(spec.Contestants()) + 1, ts: 1_700_000_000_000_000}
}

func (w *voterW) conns() int { return 2 }

// load is empty: the SUT seeds the contestants at start-up.
func (w *voterW) load([]Conn) error { return nil }

// nextVote draws a vote and applies it to the oracle.
func (w *voterW) nextVote() types.Row {
	w.ts += int64(w.rng.Intn(2000)) + 1
	var phone, cand int64
	if len(w.o.phones) > 0 && w.rng.Intn(100) < voterDupPct {
		phone = w.o.phones[w.rng.Intn(len(w.o.phones))]
	} else {
		phone = w.nextPhone
		w.nextPhone++
	}
	if w.rng.Intn(100) < voterInvalidPct {
		cand = -1 - w.rng.Int63n(100) // no contestant has a negative id
	} else {
		cand = w.o.alive[w.rng.Intn(len(w.o.alive))]
	}
	w.o.vote(phone, cand)
	return types.Row{types.NewInt(phone), types.NewInt(cand), types.NewInt(w.ts)}
}

// seat starts a segment on the harness side: a fresh oracle over a full
// pool of fresh contestants, whose ids it returns.
func (w *voterW) seat() []types.Value {
	w.o = newVoterOracle()
	w.nextPhone = voterFirstPhone
	ids := make([]types.Value, w.spec.Contestants())
	for i := range ids {
		ids[i] = types.NewInt(w.nextID)
		w.o.add(w.nextID)
		w.nextID++
	}
	return ids
}

func (w *voterW) prepare(cs []Conn, seg, ops int) (func([]*recorder) (int, error), error) {
	if w.o != nil {
		if err := w.check(cs[0]); err != nil { // the previous segment's result
			return nil, err
		}
	}
	if _, err := cs[0].Call("voter_reset", w.seat()...); err != nil {
		return nil, fmt.Errorf("voter_reset: %w", err)
	}
	groups := max(ops/voterGroup, 1)
	msgs := make([][]types.Row, groups*voterFlushMsgs)
	for i := range msgs {
		msgs[i] = make([]types.Row, voterIngestRows)
		for j := range msgs[i] {
			msgs[i][j] = w.nextVote()
		}
	}
	return func(recs []*recorder) (int, error) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var readFailed int
		wg.Add(1)
		go func() { // the display
			defer wg.Done()
			tick := time.NewTicker(voterReadEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				t0 := time.Now()
				resp, err := cs[1].Query(voterTop3)
				d := float64(time.Since(t0))
				recs[1].all = append(recs[1].all, d)
				recs[1].read = append(recs[1].read, d)
				if err != nil || len(resp.Rows) != 3 || resp.Rows[0][1].Int() < resp.Rows[2][1].Int() {
					readFailed++
				}
			}
		}()
		failed := 0
		rec := recs[0]
		for g := 0; g < groups; g++ {
			g0 := time.Now()
			for _, rows := range msgs[g*voterFlushMsgs : (g+1)*voterFlushMsgs] {
				t0 := time.Now()
				if err := cs[0].Ingest("votes_in", rows...); err != nil {
					failed++
				}
				d := float64(time.Since(t0))
				rec.all = append(rec.all, d)
				rec.primary = append(rec.primary, d)
			}
			t0 := time.Now()
			if err := cs[0].Flush(); err != nil {
				failed++
			}
			now := time.Now()
			rec.all = append(rec.all, float64(now.Sub(t0)))
			rec.write = append(rec.write, float64(now.Sub(g0)))
		}
		close(stop)
		wg.Wait()
		return failed + readFailed, nil
	}, nil
}

func (w *voterW) sample() []*wire.Request {
	if w.o == nil {
		w.seat()
	}
	reqs := make([]*wire.Request, 0, 2*(voterFlushMsgs+1))
	for len(reqs) < cap(reqs) {
		for i := 0; i < voterFlushMsgs; i++ {
			rows := make([]types.Row, voterIngestRows)
			for j := range rows {
				rows[j] = w.nextVote()
			}
			reqs = append(reqs, &wire.Request{Kind: wire.MsgIngest, Target: "votes_in", Rows: rows})
		}
		reqs = append(reqs, &wire.Request{Kind: wire.MsgFlush})
	}
	return reqs
}

func (w *voterW) profile() profile {
	phones := make([]int64, 0, 512)
	for ph := range w.o.voteOf {
		if phones = append(phones, ph); len(phones) == cap(phones) {
			break
		}
	}
	alive := func(i int) types.Value { return types.NewInt(w.o.alive[i%len(w.o.alive)]) }
	next := 0
	return profile{
		primary:  "Ingest:",
		table:    "votes",
		existing: func(i int) types.Value { return types.NewInt(phones[i%len(phones)]) },
		fresh: func(i int) types.Row {
			return types.Row{types.NewInt(9_000_000_0000 + int64(i)), alive(i), types.NewInt(w.ts)}
		},
		pointSQL:  "SELECT phone FROM votes WHERE phone = ?",
		insertSQL: "INSERT INTO votes VALUES (?, ?, ?)",
		updateSQL: "UPDATE vote_counts SET n = n + 1 WHERE contestant = ?",
		updateParams: func(types.Value) []types.Value {
			next++
			return []types.Value{alive(next)}
		},
		scanSQL:    "SELECT contestant FROM vote_counts ORDER BY n ASC, contestant ASC LIMIT 1",
		scanRows:   len(w.o.alive),
		callProc:   "voter_sync",
		callParams: func(int) []types.Value { return nil },
		window:     "validated",
		windowRow: func(i int) types.Row {
			return types.Row{types.NewInt(9_500_000_0000 + int64(i)), alive(i), types.NewInt(w.ts)}
		},
		votes: w.nextVote,
		record: &pe.LogRecord{Kind: pe.RecBorder, Proc: "sp1_validate", InputStream: "votes_in", BatchID: 1,
			Batch: []types.Row{{types.NewInt(1_000_000_0000), types.NewInt(1), types.NewInt(w.ts)}}},
		statements: []string{
			"SELECT contestant FROM winner WHERE id = 0",
			"SELECT id FROM contestants WHERE id = ?",
			"SELECT phone FROM votes WHERE phone = ?",
			"INSERT INTO votes VALUES (?, ?, ?)",
			"UPDATE vote_counts SET n = n + 1 WHERE contestant = ?",
			"UPDATE vote_totals SET n = n + 1 WHERE id = 0",
			"SELECT n FROM vote_totals WHERE id = 0",
			voterTop3,
		},
	}
}

// check demands the engine equal the sequential oracle exactly: accepted
// total, every live contestant's count, every elimination in order with
// the total it happened at, the number of live votes, and no winner.
func (w *voterW) check(c Conn) error {
	// A logged no-op: its ack means every border batch before it is
	// durable, so the SIGKILL that follows tests recovery, not luck.
	if _, err := c.Call("voter_sync"); err != nil {
		return err
	}
	one := func(q string) (int64, error) {
		resp, err := c.Query(q)
		if err != nil {
			return 0, err
		}
		if len(resp.Rows) != 1 {
			return 0, fmt.Errorf("voter: %q returned %d rows", q, len(resp.Rows))
		}
		return resp.Rows[0][0].Int(), nil
	}
	if got, err := one("SELECT n FROM vote_totals WHERE id = 0"); err != nil || got != w.o.total {
		return fmt.Errorf("voter: accepted total %d, oracle %d (err %v)", got, w.o.total, err)
	}
	if got, err := one("SELECT COUNT(*) FROM votes"); err != nil || got != int64(len(w.o.voteOf)) {
		return fmt.Errorf("voter: %d live votes, oracle %d (err %v)", got, len(w.o.voteOf), err)
	}
	if got, err := one("SELECT COUNT(*) FROM winner"); err != nil || got != 0 {
		return fmt.Errorf("voter: %d winners declared, want none (err %v)", got, err)
	}
	resp, err := c.Query("SELECT ord, contestant, at_total FROM eliminations ORDER BY ord")
	if err != nil {
		return err
	}
	if len(resp.Rows) != len(w.o.eliminated) {
		return fmt.Errorf("voter: %d eliminations, oracle %d", len(resp.Rows), len(w.o.eliminated))
	}
	for i, r := range resp.Rows {
		if e := w.o.eliminated[i]; r[0].Int() != int64(i+1) || r[1].Int() != e.id || r[2].Int() != e.atTotal {
			return fmt.Errorf("voter: elimination %d is contestant %d at %d, oracle says %d at %d",
				r[0].Int(), r[1].Int(), r[2].Int(), e.id, e.atTotal)
		}
	}
	if resp, err = c.Query("SELECT contestant, n FROM vote_counts ORDER BY contestant"); err != nil {
		return err
	}
	if len(resp.Rows) != len(w.o.alive) {
		return fmt.Errorf("voter: %d live contestants, oracle %d", len(resp.Rows), len(w.o.alive))
	}
	for _, r := range resp.Rows {
		if n, ok := w.o.counts[r[0].Int()]; !ok || n != r[1].Int() {
			return fmt.Errorf("voter: contestant %d has %d votes, oracle %d (alive %v)", r[0].Int(), r[1].Int(), n, ok)
		}
	}
	return nil
}

// voterOracle is voter.RunOracle's semantics, incremental: the repo's
// oracle rescans every live vote at each elimination, which is quadratic
// over a feed this long.
type voterOracle struct {
	alive      []int64         // live contestant ids, unordered
	pos        map[int64]int   // id → index in alive
	counts     map[int64]int64 // live votes per live contestant
	votesFor   map[int64][]int64
	voteOf     map[int64]int64 // phone → contestant of its live vote
	phones     []int64         // every phone ever used (for duplicates)
	total      int64
	eliminated []elimination
}

type elimination struct{ id, atTotal int64 }

func newVoterOracle() *voterOracle {
	return &voterOracle{pos: map[int64]int{}, counts: map[int64]int64{},
		votesFor: map[int64][]int64{}, voteOf: map[int64]int64{}}
}

func (o *voterOracle) add(id int64) {
	o.pos[id] = len(o.alive)
	o.alive = append(o.alive, id)
	o.counts[id] = 0
}

func (o *voterOracle) vote(phone, cand int64) {
	if _, ok := o.pos[cand]; !ok {
		return // no such contestant
	}
	if _, voted := o.voteOf[phone]; voted {
		return // one live vote per phone
	}
	o.voteOf[phone] = cand
	o.votesFor[cand] = append(o.votesFor[cand], phone)
	o.phones = append(o.phones, phone)
	o.counts[cand]++
	o.total++
	if o.total%voter.EliminateEvery == 0 && len(o.alive) > 1 {
		o.eliminateLowest()
	}
}

func (o *voterOracle) eliminateLowest() {
	loser := o.alive[0]
	for _, id := range o.alive[1:] {
		if n, m := o.counts[id], o.counts[loser]; n < m || n == m && id < loser {
			loser = id
		}
	}
	i, last := o.pos[loser], len(o.alive)-1
	o.alive[i] = o.alive[last]
	o.pos[o.alive[i]] = i
	o.alive = o.alive[:last]
	delete(o.pos, loser)
	delete(o.counts, loser)
	for _, phone := range o.votesFor[loser] {
		delete(o.voteOf, phone) // the vote returns to its caster
	}
	delete(o.votesFor, loser)
	o.eliminated = append(o.eliminated, elimination{loser, o.total})
}
