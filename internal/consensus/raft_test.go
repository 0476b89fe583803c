package consensus

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// localNet is an in-memory Transport fabric with per-edge fault
// switches, so election behaviour can be tested deterministically —
// including asymmetric partitions (A can send to B while B's messages
// to A vanish), the scenario the chaos proxy's one-directional
// blackhole mode reproduces over real sockets.
type localNet struct {
	mu      sync.Mutex
	nodes   map[string]*Node
	dropped map[[2]string]bool // [from,to] edges that blackhole
}

func newLocalNet() *localNet {
	return &localNet{nodes: make(map[string]*Node), dropped: make(map[[2]string]bool)}
}

func (ln *localNet) add(n *Node) {
	ln.mu.Lock()
	ln.nodes[n.ID()] = n
	ln.mu.Unlock()
}

// dropDirection blackholes messages sent from -> to (one direction).
func (ln *localNet) dropDirection(from, to string, v bool) {
	ln.mu.Lock()
	ln.dropped[[2]string{from, to}] = v
	ln.mu.Unlock()
}

// isolate drops every edge touching id, in the given directions.
func (ln *localNet) isolate(id string, outbound, inbound bool) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	for other := range ln.nodes {
		if other == id {
			continue
		}
		if outbound {
			ln.dropped[[2]string{id, other}] = true
		}
		if inbound {
			ln.dropped[[2]string{other, id}] = true
		}
	}
}

func (ln *localNet) heal() {
	ln.mu.Lock()
	ln.dropped = make(map[[2]string]bool)
	ln.mu.Unlock()
}

// transport returns the Transport view for one node.
func (ln *localNet) transport(id string) Transport {
	return &localTransport{net: ln, id: id}
}

type localTransport struct {
	net *localNet
	id  string
}

func (t *localTransport) Call(to string, req *Message) (*Message, error) {
	t.net.mu.Lock()
	// The request travels id->to; the response travels to->id. Either
	// direction being blackholed loses the RPC.
	if t.net.dropped[[2]string{t.id, to}] || t.net.dropped[[2]string{to, t.id}] {
		t.net.mu.Unlock()
		return nil, fmt.Errorf("localnet: %s -> %s partitioned", t.id, to)
	}
	n := t.net.nodes[to]
	t.net.mu.Unlock()
	if n == nil {
		return nil, fmt.Errorf("localnet: no node %s", to)
	}
	return n.HandleRPC(req), nil
}

// recorder is a test FSM collecting applied entries.
type recorder struct {
	mu      sync.Mutex
	applied []Entry
	cond    *sync.Cond
}

func newRecorder() *recorder {
	r := &recorder{}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *recorder) Apply(e Entry) {
	r.mu.Lock()
	r.applied = append(r.applied, e)
	r.cond.Broadcast()
	r.mu.Unlock()
}

func (r *recorder) Snapshot() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(len(r.applied)))
	return out
}

func (r *recorder) Restore([]byte) {}

// waitApplied blocks until n entries have been applied or the deadline
// passes.
func (r *recorder) waitApplied(t *testing.T, n int, d time.Duration) []Entry {
	t.Helper()
	deadline := time.Now().Add(d)
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.applied) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d of %d entries applied", len(r.applied), n)
		}
		remaining := time.Until(deadline)
		timer := time.AfterFunc(remaining, func() { r.cond.Broadcast() })
		r.cond.Wait()
		timer.Stop()
	}
	out := make([]Entry, n)
	copy(out, r.applied[:n])
	return out
}

// cluster stands up n nodes over a localNet.
type cluster struct {
	net   *localNet
	nodes []*Node
	fsms  []*recorder
}

func startCluster(t *testing.T, n int, snapThreshold int) *cluster {
	t.Helper()
	ln := newLocalNet()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i)
	}
	c := &cluster{net: ln}
	for i := 0; i < n; i++ {
		fsm := newRecorder()
		node := NewNode(Config{
			ID: ids[i], Peers: ids,
			ElectionTimeout:   60 * time.Millisecond,
			SnapshotThreshold: snapThreshold,
			Seed:              int64(i + 1),
		}, fsm, ln.transport(ids[i]))
		ln.add(node)
		c.nodes = append(c.nodes, node)
		c.fsms = append(c.fsms, fsm)
	}
	for _, node := range c.nodes {
		node.Start()
	}
	t.Cleanup(func() {
		for _, node := range c.nodes {
			node.Stop()
		}
	})
	return c
}

// waitLeader polls until exactly one node leads (among live) and a
// majority agrees on it.
func (c *cluster) waitLeader(t *testing.T, exclude map[string]bool) *Node {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		votes := make(map[string]int)
		for _, n := range c.nodes {
			if exclude[n.ID()] {
				continue
			}
			if l, _ := n.Leader(); l != "" {
				votes[l]++
			}
		}
		for id, v := range votes {
			if exclude[id] || v <= len(c.nodes)/2 {
				continue
			}
			for _, n := range c.nodes {
				if n.ID() == id {
					if st := n.Status(); st.IsLeader {
						return n
					}
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader elected")
	return nil
}

// propose retries until the entry lands through the current leader.
func (c *cluster) propose(t *testing.T, data []byte, exclude map[string]bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		l := c.waitLeader(t, exclude)
		if _, _, err := l.Propose(data); err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("proposal never accepted")
}

func TestElectionAndReplication(t *testing.T) {
	c := startCluster(t, 3, 0)
	c.waitLeader(t, nil)
	for i := 0; i < 5; i++ {
		c.propose(t, []byte{byte(i)}, nil)
	}
	for i, fsm := range c.fsms {
		got := fsm.waitApplied(t, 5, 5*time.Second)
		for j, e := range got {
			if len(e.Data) != 1 || e.Data[0] != byte(j) {
				t.Fatalf("node %d applied entry %d = %v", i, j, e.Data)
			}
		}
	}
	// All replicas applied the same sequence at the same indexes.
	ref := c.fsms[0].waitApplied(t, 5, time.Second)
	for i := 1; i < 3; i++ {
		got := c.fsms[i].waitApplied(t, 5, time.Second)
		for j := range ref {
			if got[j].Index != ref[j].Index || got[j].Term != ref[j].Term {
				t.Fatalf("node %d entry %d at (%d,%d), node 0 at (%d,%d)",
					i, j, got[j].Index, got[j].Term, ref[j].Index, ref[j].Term)
			}
		}
	}
}

// TestSingleReplicaElectsAndCommits: a one-voter group is its own
// majority. It must elect itself at the first election timeout without
// waiting for votes nobody will cast, and commit and apply its proposals
// without a replication ack nobody will send.
func TestSingleReplicaElectsAndCommits(t *testing.T) {
	c := startCluster(t, 1, 0)
	leader := c.waitLeader(t, nil)
	if st := leader.Status(); !st.IsLeader || st.Term == 0 {
		t.Fatalf("lone node status %+v", st)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := leader.Propose([]byte{byte(i)}); err != nil {
			t.Fatalf("proposal %d on a lone leader: %v", i, err)
		}
	}
	for j, e := range c.fsms[0].waitApplied(t, 5, 5*time.Second) {
		if len(e.Data) != 1 || e.Data[0] != byte(j) {
			t.Fatalf("applied entry %d = %v", j, e.Data)
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	c := startCluster(t, 3, 0)
	first := c.waitLeader(t, nil)
	c.propose(t, []byte("a"), nil)
	for _, fsm := range c.fsms {
		fsm.waitApplied(t, 1, 5*time.Second)
	}
	_, termBefore := first.Leader()

	// Kill the leader outright: survivors must elect a replacement and
	// keep committing.
	first.Stop()
	c.net.isolate(first.ID(), true, true)
	dead := map[string]bool{first.ID(): true}
	second := c.waitLeader(t, dead)
	if second.ID() == first.ID() {
		t.Fatal("dead leader re-elected")
	}
	if _, term := second.Leader(); term <= termBefore {
		t.Fatalf("new term %d not past old term %d", term, termBefore)
	}
	c.propose(t, []byte("b"), dead)
	for i, fsm := range c.fsms {
		if c.nodes[i].ID() == first.ID() {
			continue
		}
		got := fsm.waitApplied(t, 2, 5*time.Second)
		if string(got[1].Data) != "b" {
			t.Fatalf("survivor %d applied %q after failover", i, got[1].Data)
		}
	}
}

// TestAsymmetricPartitionElectsNewLeader is the one-directional fault
// the chaos proxy's partition mode models: the leader can still send
// but hears nothing back. Its AppendEntries responses are lost, no
// majority can commit through it, and the followers — whose own
// timeouts keep firing unanswered... — actually: followers still
// receive heartbeats, so the interesting direction is the opposite.
// Here the leader's *outbound* direction is cut: followers lose
// contact, elect a replacement among themselves, and the old leader
// abdicates the moment the partition heals and a higher term reaches
// it.
func TestAsymmetricPartitionElectsNewLeader(t *testing.T) {
	c := startCluster(t, 3, 0)
	old := c.waitLeader(t, nil)
	c.propose(t, []byte("pre"), nil)
	for _, fsm := range c.fsms {
		fsm.waitApplied(t, 1, 5*time.Second)
	}

	// Cut only the old leader's outbound edges: it can receive, not send.
	c.net.isolate(old.ID(), true, false)
	dead := map[string]bool{old.ID(): true}
	replacement := c.waitLeader(t, dead)
	if replacement.ID() == old.ID() {
		t.Fatal("partitioned leader still counted as leader by a majority")
	}
	// The majority side commits without the old leader.
	c.propose(t, []byte("post"), dead)
	for i, fsm := range c.fsms {
		if c.nodes[i].ID() == old.ID() {
			continue
		}
		fsm.waitApplied(t, 2, 5*time.Second)
	}

	// Heal: the old leader hears the higher term and steps down; the log
	// converges everywhere, exactly once.
	c.net.heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := old.Status(); !st.IsLeader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale leader never stepped down after heal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, fsm := range c.fsms {
		got := fsm.waitApplied(t, 2, 5*time.Second)
		if string(got[0].Data) != "pre" || string(got[1].Data) != "post" {
			t.Fatalf("node %d applied %q,%q", i, got[0].Data, got[1].Data)
		}
	}
}

func TestSnapshotCompactionCatchesUpSlowFollower(t *testing.T) {
	c := startCluster(t, 3, 8)
	c.waitLeader(t, nil)

	// Partition node2 entirely, then commit enough entries to force the
	// leader past the snapshot threshold.
	straggler := c.nodes[2]
	c.net.isolate(straggler.ID(), true, true)
	dead := map[string]bool{straggler.ID(): true}
	const total = 40
	for i := 0; i < total; i++ {
		c.propose(t, []byte{byte(i)}, dead)
	}
	for i := 0; i < 2; i++ {
		c.fsms[i].waitApplied(t, total, 10*time.Second)
	}
	leader := c.waitLeader(t, dead)
	if st := leader.Status(); st.Applied < total {
		t.Fatalf("leader applied %d of %d", st.Applied, total)
	}
	// The leader must have compacted: 40 entries >> threshold 8.
	leader.mu.Lock()
	snapIndex := leader.snapIndex
	leader.mu.Unlock()
	if snapIndex == 0 {
		t.Fatal("leader never compacted its log")
	}

	// Heal: the straggler is behind the compaction point and must be
	// caught up via InstallSnapshot + entries. Its FSM missed the
	// compacted prefix (Restore is a no-op in this test FSM), but its
	// log position must converge with the leader's.
	c.net.heal()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := straggler.Status()
		lst := leader.Status()
		if st.Applied >= lst.CommitIndex && lst.CommitIndex > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("straggler applied=%d, leader commit=%d: never converged", st.Applied, lst.CommitIndex)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestProposeOnFollowerRedirects(t *testing.T) {
	c := startCluster(t, 3, 0)
	leader := c.waitLeader(t, nil)
	for _, n := range c.nodes {
		if n.ID() == leader.ID() {
			continue
		}
		// A follower learns the leader from the first heartbeat after the
		// election; poll briefly so the hint has had a chance to arrive.
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, _, err := n.Propose([]byte("x"))
			var nle *NotLeaderError
			if !errorsAs(err, &nle) {
				t.Fatalf("follower Propose error = %v, want *NotLeaderError", err)
			}
			if nle.Leader == leader.ID() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("redirect hint %q, want %q", nle.Leader, leader.ID())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// errorsAs avoids importing errors twice across files in this package.
func errorsAs(err error, target any) bool {
	if err == nil {
		return false
	}
	if nle, ok := target.(**NotLeaderError); ok {
		for e := err; e != nil; {
			if v, ok := e.(*NotLeaderError); ok {
				*nle = v
				return true
			}
			u, ok := e.(interface{ Unwrap() error })
			if !ok {
				return false
			}
			e = u.Unwrap()
		}
	}
	return false
}

// TestTCPTransportRoundTrip exercises the real wire path: two nodes'
// transports over real listeners with the magic handshake.
func TestTCPTransportRoundTrip(t *testing.T) {
	handler := func(req *Message) *Message {
		return &Message{Kind: MsgAppResp, Term: req.Term + 1, From: "b", Success: true}
	}
	tr := NewTCPTransport(handler, time.Second, 2*time.Second)
	defer tr.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var magic [4]byte
			if _, err := conn.Read(magic[:]); err != nil || binary.LittleEndian.Uint32(magic[:]) != Magic {
				conn.Close() //nolint:errcheck
				continue
			}
			go tr.ServeConn(conn)
		}
	}()

	client := NewTCPTransport(nil, time.Second, 2*time.Second)
	defer client.Close()
	for i := 0; i < 3; i++ {
		resp, err := client.Call(ln.Addr().String(), &Message{Kind: MsgApp, Term: uint64(i), From: "a"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Term != uint64(i+1) || !resp.Success {
			t.Fatalf("resp = %+v", resp)
		}
	}
}
