package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/wal"
)

// The two directions of a proxied connection.
const (
	toServer = iota // requests
	toClient        // responses
)

// cutSpec places one cut in the byte stream of a proxied connection: in
// direction dir, at byte at of wire frame frame (4 header bytes, then the
// payload); at < 0 is the middle of the frame's payload.
type cutSpec struct{ dir, frame, at int }

func (c cutSpec) String() string {
	where := fmt.Sprintf("byte %d", c.at)
	if c.at < 0 {
		where = "mid-payload"
	}
	return fmt.Sprintf("%s/frame%d/%s", [2]string{"request", "response"}[c.dir], c.frame, where)
}

// offset is where c lands in stream b, a direction's bytes from the start
// of its connection, or -1 while b is too short to tell.
func (c cutSpec) offset(b []byte) int {
	o := 0
	for i := 0; ; i++ {
		if i == c.frame && c.at >= 0 {
			return o + c.at
		}
		if len(b) < o+4 {
			return -1
		}
		n := int(binary.LittleEndian.Uint32(b[o:]))
		if i == c.frame {
			return o + 4 + n/2
		}
		o += 4 + n
	}
}

// proxy forwards every connection it accepts to target, byte for byte. It
// can cut its first connection once (both sides closed where cut lands),
// and it can become a black hole: from then on it forwards nothing and
// answers nothing, and holds every connection open.
type proxy struct {
	ln     net.Listener
	target string
	cut    *cutSpec
	didCut chan struct{} // closed at the cut
	hole   atomic.Bool

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	cutOne bool // the connection to cut was accepted
	wg     sync.WaitGroup
}

func newProxy(t *testing.T, target string, cut *cutSpec) *proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{ln: ln, target: target, cut: cut, didCut: make(chan struct{})}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(p.close)
	return p
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

// track registers conns for close; once the proxy is closed it closes
// them and returns false.
func (p *proxy) track(conns ...net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		for _, c := range conns {
			c.Close()
		}
		return false
	}
	p.conns = append(p.conns, conns...)
	return true
}

func (p *proxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		if !p.track(c) {
			return
		}
		if p.hole.Load() {
			p.wg.Add(1)
			go p.pipe(c, nil, toServer, nil)
			continue
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		if !p.track(s) {
			return
		}
		cut := p.cut
		if p.cutOne {
			cut = nil
		}
		p.cutOne = true
		p.wg.Add(2)
		go p.pipe(c, s, toServer, cut)
		go p.pipe(s, c, toClient, cut)
	}
}

// pipe copies src to dst (one direction dir of a connection) until either
// fails, then closes both; a black hole drops what it reads instead.
func (p *proxy) pipe(src, dst net.Conn, dir int, cut *cutSpec) {
	defer p.wg.Done()
	defer src.Close()
	if dst != nil {
		defer dst.Close()
	}
	var seen []byte // this direction's bytes so far, while a cut may land in it
	if cut != nil && cut.dir != dir {
		cut = nil
	}
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 && dst != nil && !p.hole.Load() {
			chunk := buf[:n]
			if cut != nil {
				seen = append(seen, chunk...)
				if at := cut.offset(seen); at >= 0 && at <= len(seen) {
					dst.Write(chunk[:len(chunk)-(len(seen)-at)])
					close(p.didCut)
					return
				}
			}
			if _, err := dst.Write(chunk); err != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// blackHole makes the proxy forward nothing more, on old connections and
// new ones alike.
func (p *proxy) blackHole() { p.hole.Store(true) }

func (p *proxy) close() {
	p.ln.Close()
	p.mu.Lock()
	p.closed = true
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// primaryOverWire starts a durable primary of the replication fixture
// behind a server and returns it with a client of its own.
func primaryOverWire(t *testing.T, parts int) (*core.Store, *Server, *client.TCP) {
	t.Helper()
	st := durableKV(t, t.TempDir(), parts)
	if err := st.Start(); err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	listen(t, srv)
	pc, err := client.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close(); srv.Close(); st.Stop() })
	return st, srv, pc
}

// followOverWire runs a volatile follower whose source dials addr.
func followOverWire(t *testing.T, addr string, parts int) *core.Follower {
	t.Helper()
	src, err := client.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFollower(durableKV(t, "", parts), src)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Stop(); src.Close() })
	return f
}

// TestFollowerSurvivesEveryCut cuts a follower's fetch session once, at
// every frame boundary and in the middle of every frame header and payload
// of its first three exchanges, in each direction: the first exchange
// carries the primary's log, the others come back empty. After every cut
// the follower counts a failed fetch, re-dials, checks the frame at its
// position, reaches a write made after the cut, and does not promote.
func TestFollowerSurvivesEveryCut(t *testing.T) {
	const parts = 2
	st, srv, pc := primaryOverWire(t, parts)
	var specs []cutSpec
	for dir := range 2 {
		for frame := range 3 {
			for _, at := range []int{0, 2, 4, -1} {
				specs = append(specs, cutSpec{dir, frame, at})
			}
		}
		specs = append(specs, cutSpec{dir, 3, 0})
	}
	next := int64(0)
	put := func(n int) {
		for range n {
			if _, err := pc.Call("put", types.NewInt(next), types.NewInt(next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	put(10)
	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) {
			p := newProxy(t, srv.Addr(), &spec)
			f := followOverWire(t, p.addr(), parts)
			select {
			case <-p.didCut:
			case <-time.After(10 * time.Second):
				t.Fatal("the session was never cut")
			}
			for deadline := time.Now().Add(10 * time.Second); statValue(t, f.Store(), "repl_fetch_errors") < 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the cut failed no fetch")
				}
			}
			put(1)
			waitApplied(t, f, st.LSN())
			res, err := f.Query("SELECT COUNT(*), SUM(v) FROM kv")
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows[0][0].Int() != next || res.Rows[0][1].Int() != next*(next-1)/2 {
				t.Fatalf("follower holds %v, want [%d %d]", res.Rows, next, next*(next-1)/2)
			}
		})
	}
}

// TestPromoteAgainstBlackHoledPrimary points a caught-up follower at a
// primary that accepts and never answers: its fetch in flight and the
// re-dial of its final drain are bounded, so Promote returns, with the
// state it had applied.
func TestPromoteAgainstBlackHoledPrimary(t *testing.T) {
	const parts = 2
	st, srv, pc := primaryOverWire(t, parts)
	for k := int64(0); k < 20; k++ {
		if _, err := pc.Call("put", types.NewInt(k), types.NewInt(k)); err != nil {
			t.Fatal(err)
		}
	}
	p := newProxy(t, srv.Addr(), nil)
	f := followOverWire(t, p.addr(), parts)
	waitApplied(t, f, st.LSN())
	p.blackHole()
	done := make(chan error, 1)
	go func() {
		_, err := f.Promote()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Promote never returned against a black-holed primary")
	}
	defer f.Store().Stop()
	res, err := f.Store().Query("SELECT COUNT(*), SUM(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 20 || res.Rows[0][1].Int() != 19*20/2 {
		t.Fatalf("promoted follower holds %v, want [20 %d]", res.Rows, 19*20/2)
	}
}

// TestFollowerRedialsIntoAnotherLog replaces a follower's primary by
// another one, with a longer log of other writes, on the same address: the
// follower re-dials, the frame at its position does not match its own, and
// it stops with a sticky divergence, never applying the other log.
func TestFollowerRedialsIntoAnotherLog(t *testing.T) {
	const parts = 2
	stA := durableKV(t, t.TempDir(), parts)
	if err := stA.Start(); err != nil {
		t.Fatal(err)
	}
	srvA := New(stA)
	listen(t, srvA)
	addr := srvA.Addr()
	// put writes n rows of its own values straight into a primary's store.
	put := func(st *core.Store, n, v int64) {
		for k := int64(0); k < n; k++ {
			if _, err := st.Call("put", types.NewInt(k), types.NewInt(k+v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(stA, 20, 0)
	f := followOverWire(t, addr, parts)
	lsnA := stA.LSN()
	waitApplied(t, f, lsnA)
	srvA.Close()
	if err := stA.Stop(); err != nil {
		t.Fatal(err)
	}

	// The other primary holds its whole, longer log before it listens.
	stB := durableKV(t, t.TempDir(), parts)
	if err := stB.Start(); err != nil {
		t.Fatal(err)
	}
	defer stB.Stop()
	put(stB, 40, 1000)
	srvB := New(stB)
	srvB.Logf = t.Logf
	if err := srvB.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	err := waitErr(t, f)
	if !strings.Contains(err.Error(), "diverges") || errors.Is(err, wal.ErrShipGap) {
		t.Fatalf("follower re-dialed into another log: err %v, want a divergence", err)
	}
	if _, err := f.Promote(); err == nil || f.Promoted() {
		t.Fatalf("a diverged follower promoted: err %v", err)
	}
	if _, err := f.Query("SELECT COUNT(*) FROM kv"); err == nil {
		t.Fatal("a diverged follower answered a read")
	}
	if f.Applied() != lsnA {
		t.Fatalf("diverged follower applied up to LSN %d, its first primary's log ends at %d", f.Applied(), lsnA)
	}
}
