// Package consensus is a minimal pure-Go Raft implementation — the
// replicated log underneath the DLFS control plane. It exists so the
// mount coordinator can run as a replica set: the assembled directory
// blobs, the placement epoch, and the job membership view are proposed
// as log entries, replicated to a majority, and applied to a
// deterministic state machine on every replica, so any replica can take
// over as coordinator when the leader dies.
//
// The implementation covers the Raft core needed here and nothing more:
//
//   - leader election with randomized timeouts (term, votes, majority);
//   - log replication with per-follower nextIndex/matchIndex, conflict
//     back-off, and commit on majority match in the leader's term;
//   - snapshot/compaction: once the in-memory log passes a threshold the
//     FSM is snapshotted, the applied prefix truncated, and lagging
//     followers caught up with InstallSnapshot.
//
// State is in-memory only. A replica that restarts rejoins with an
// empty log and is caught up by the leader via snapshot + entries; the
// availability model is "a majority of replicas stays up", which is the
// same model the directory itself already assumes (it is rebuilt from
// rank memory on a full-cluster restart). Cluster membership of the
// replica set is static (the -coord-peers list); the *job's* elastic
// rank membership is ordinary replicated state, not Raft membership.
package consensus

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dlfs/internal/metrics"
)

// Errors.
var (
	// ErrNotLeader reports a proposal sent to a non-leader replica. The
	// concrete error is a *NotLeaderError carrying the leader hint.
	ErrNotLeader = errors.New("consensus: not the leader")
	// ErrStopped reports use of a stopped node.
	ErrStopped = errors.New("consensus: node stopped")
)

// NotLeaderError redirects a proposal to the current leader, when known.
type NotLeaderError struct {
	Leader string // leader ID ("" when unknown, e.g. mid-election)
}

func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "consensus: not the leader (no leader known)"
	}
	return fmt.Sprintf("consensus: not the leader (leader is %s)", e.Leader)
}

// Unwrap lets errors.Is(err, ErrNotLeader) match.
func (e *NotLeaderError) Unwrap() error { return ErrNotLeader }

// Entry is one replicated log record. Index and Term place it in the
// log; Data is the opaque FSM command (nil for the no-op a new leader
// appends to commit its term).
type Entry struct {
	Index uint64
	Term  uint64
	Data  []byte
}

// FSM is the deterministic state machine the log drives. Apply is
// called exactly once per committed entry, in index order, from a
// single goroutine. Snapshot captures the full state at the moment of
// the call (same goroutine as Apply); Restore replaces the state with a
// snapshot (only before any Apply, or on a follower installing a leader
// snapshot).
type FSM interface {
	Apply(e Entry)
	Snapshot() []byte
	Restore(data []byte)
}

// Message kinds.
const (
	MsgVote uint8 = iota + 1
	MsgVoteResp
	MsgApp
	MsgAppResp
	MsgSnap
	MsgSnapResp
)

// Message is the single RPC envelope for all Raft traffic; Kind selects
// which fields are meaningful. One struct keeps the gob stream simple.
type Message struct {
	Kind uint8
	Term uint64
	From string

	// MsgVote.
	LastLogIndex uint64
	LastLogTerm  uint64
	// MsgVoteResp.
	Granted bool

	// MsgApp.
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	LeaderCommit uint64
	// MsgAppResp.
	Success    bool
	MatchIndex uint64 // on success: highest replicated index
	Conflict   uint64 // on failure: next index the leader should try

	// MsgSnap.
	SnapIndex uint64
	SnapTerm  uint64
	SnapData  []byte
}

// Transport carries RPCs between replicas. Call sends req to the peer
// with the given ID and returns its response (synchronous, at-most-once;
// errors are treated as a lost message). Implementations must be safe
// for concurrent Calls.
type Transport interface {
	Call(to string, req *Message) (*Message, error)
}

// Roles.
const (
	roleFollower = iota
	roleCandidate
	roleLeader
)

// Config tunes a Node. Zero values take defaults.
type Config struct {
	ID    string   // this replica's identity (its address)
	Peers []string // all replicas, including self

	ElectionTimeout   time.Duration // base election timeout, randomized to [1x, 2x) (default 300ms)
	HeartbeatInterval time.Duration // leader heartbeat period (default ElectionTimeout/5)
	SnapshotThreshold int           // log entries retained before compaction (default 1024)
	Seed              int64         // election-jitter seed (0 takes a per-ID default)

	Metrics *metrics.Consensus // optional counters (nil allocates private ones)
	Logf    func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 300 * time.Millisecond
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = c.ElectionTimeout / 5
	}
	if c.SnapshotThreshold <= 0 {
		c.SnapshotThreshold = 1024
	}
	if c.Seed == 0 {
		for _, b := range []byte(c.ID) {
			c.Seed = c.Seed*131 + int64(b)
		}
		c.Seed++
	}
	if c.Metrics == nil {
		c.Metrics = &metrics.Consensus{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Node is one Raft replica.
type Node struct {
	cfg  Config
	fsm  FSM
	tr   Transport
	mets *metrics.Consensus

	mu       sync.Mutex
	role     int
	term     uint64
	votedFor string
	leader   string // last known leader ID ("" when unknown)

	// Log: entries snapIndex+1 .. snapIndex+len(log). snapIndex/snapTerm
	// describe the compacted prefix (0/0 before any snapshot).
	log       []Entry
	snapIndex uint64
	snapTerm  uint64
	snapData  []byte

	commitIndex uint64
	applied     uint64

	// Leader volatile state.
	nextIndex  map[string]uint64
	matchIndex map[string]uint64

	rng          *rand.Rand
	lastContact  time.Time // last valid leader contact or vote grant
	applyCond    *sync.Cond
	stopped      bool
	wg           sync.WaitGroup
	replTrigger  map[string]chan struct{} // per-peer replication kick
	stopCh       chan struct{}
	leaderChange chan struct{} // closed and replaced on every leader/term change
}

// NewNode builds a replica over fsm and tr. Call Start to run it.
func NewNode(cfg Config, fsm FSM, tr Transport) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:          cfg,
		fsm:          fsm,
		tr:           tr,
		mets:         cfg.Metrics,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		nextIndex:    make(map[string]uint64),
		matchIndex:   make(map[string]uint64),
		replTrigger:  make(map[string]chan struct{}),
		stopCh:       make(chan struct{}),
		leaderChange: make(chan struct{}),
	}
	n.applyCond = sync.NewCond(&n.mu)
	for _, p := range cfg.Peers {
		if p != cfg.ID {
			n.replTrigger[p] = make(chan struct{}, 1)
		}
	}
	return n
}

// ID reports this replica's identity.
func (n *Node) ID() string { return n.cfg.ID }

// Start launches the ticker, apply, and per-peer replication loops.
func (n *Node) Start() {
	n.mu.Lock()
	n.lastContact = time.Now()
	n.mu.Unlock()
	n.wg.Add(2)
	go n.tickLoop()
	go n.applyLoop()
	for p, ch := range n.replTrigger {
		n.wg.Add(1)
		go n.replicateLoop(p, ch)
	}
}

// Stop halts the node. In-flight RPCs finish; no further state changes.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	close(n.stopCh)
	n.applyCond.Broadcast()
	n.mu.Unlock()
	n.wg.Wait()
}

// Status is a point-in-time role/progress view.
type Status struct {
	ID          string
	Term        uint64
	Leader      string
	IsLeader    bool
	CommitIndex uint64
	Applied     uint64
	LastIndex   uint64
}

// Status reports the node's current term, role and log progress.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Status{
		ID:          n.cfg.ID,
		Term:        n.term,
		Leader:      n.leader,
		IsLeader:    n.role == roleLeader,
		CommitIndex: n.commitIndex,
		Applied:     n.applied,
		LastIndex:   n.lastIndexLocked(),
	}
}

// Leader returns the last known leader ID ("" when unknown) and term.
func (n *Node) Leader() (string, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader, n.term
}

// LeaderChanged returns a channel closed on the next leader or term
// change, for callers that wait out elections instead of polling.
func (n *Node) LeaderChanged() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderChange
}

// Propose appends data to the replicated log if this node leads. It
// returns the entry's index and term; commitment is observed through
// the FSM's Apply. Non-leaders fail with a *NotLeaderError hint.
func (n *Node) Propose(data []byte) (index, term uint64, err error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return 0, 0, ErrStopped
	}
	if n.role != roleLeader {
		leader := n.leader
		n.mu.Unlock()
		return 0, 0, &NotLeaderError{Leader: leader}
	}
	e := Entry{Index: n.lastIndexLocked() + 1, Term: n.term, Data: data}
	n.log = append(n.log, e)
	n.mets.LastIndex.Store(int64(e.Index))
	n.mets.Proposals.Add(1)
	n.matchIndex[n.cfg.ID] = e.Index
	n.advanceCommitLocked()
	n.mu.Unlock()
	n.kickReplication()
	return e.Index, e.Term, nil
}

// lastIndexLocked is the index of the newest log entry (or snapshot).
func (n *Node) lastIndexLocked() uint64 {
	return n.snapIndex + uint64(len(n.log))
}

// termAtLocked returns the term of the entry at index (0 for index 0).
// ok is false when the index is compacted away or beyond the log.
func (n *Node) termAtLocked(index uint64) (uint64, bool) {
	if index == n.snapIndex {
		return n.snapTerm, true
	}
	if index < n.snapIndex || index > n.lastIndexLocked() {
		return 0, false
	}
	return n.log[index-n.snapIndex-1].Term, true
}

// entriesFromLocked copies entries from index (exclusive of compaction).
func (n *Node) entriesFromLocked(index uint64) []Entry {
	if index > n.lastIndexLocked() {
		return nil
	}
	src := n.log[index-n.snapIndex-1:]
	out := make([]Entry, len(src))
	copy(out, src)
	return out
}

// becomeFollowerLocked adopts term and drops to follower.
func (n *Node) becomeFollowerLocked(term uint64, leader string) {
	if n.role == roleLeader {
		n.mets.LeaderLost.Add(1)
		n.mets.IsLeader.Store(0)
	}
	changed := term != n.term || leader != n.leader
	if term != n.term {
		n.votedFor = ""
	}
	n.role = roleFollower
	n.term = term
	n.leader = leader
	n.mets.Term.Store(int64(term))
	if changed {
		close(n.leaderChange)
		n.leaderChange = make(chan struct{})
	}
}

// tickLoop drives election timeouts (follower/candidate) and heartbeats
// (leader).
func (n *Node) tickLoop() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			return
		}
		role := n.role
		// One randomized timeout per wait cycle: the same value decides
		// both how long to sleep and whether contact lapsed.
		timeout := n.cfg.ElectionTimeout + time.Duration(n.rng.Int63n(int64(n.cfg.ElectionTimeout)))
		var wait time.Duration
		if role == roleLeader {
			wait = n.cfg.HeartbeatInterval
		} else {
			wait = timeout - time.Since(n.lastContact)
		}
		n.mu.Unlock()
		if wait > 0 {
			select {
			case <-time.After(wait):
			case <-n.stopCh:
				return
			}
		}
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			return
		}
		if n.role == roleLeader {
			n.mu.Unlock()
			n.kickReplication()
			continue
		}
		// Election timeout: stand for election unless the leader (or a
		// candidate we voted for) made contact while we slept.
		if time.Since(n.lastContact) < timeout {
			n.mu.Unlock()
			continue
		}
		n.startElectionLocked() // unlocks
	}
}

// startElectionLocked runs one candidacy. Called with the lock held;
// returns with it released.
func (n *Node) startElectionLocked() {
	n.role = roleCandidate
	n.term++
	n.votedFor = n.cfg.ID
	n.leader = ""
	n.lastContact = time.Now()
	n.mets.Term.Store(int64(n.term))
	n.mets.Elections.Add(1)
	close(n.leaderChange)
	n.leaderChange = make(chan struct{})
	term := n.term
	lastIndex := n.lastIndexLocked()
	lastTerm, _ := n.termAtLocked(lastIndex)
	peers := make([]string, 0, len(n.cfg.Peers)-1)
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			peers = append(peers, p)
		}
	}
	n.cfg.Logf("consensus %s: standing for election, term %d", n.cfg.ID, term)
	n.mu.Unlock()

	req := &Message{Kind: MsgVote, Term: term, From: n.cfg.ID, LastLogIndex: lastIndex, LastLogTerm: lastTerm}
	votes := make(chan bool, len(peers))
	for _, p := range peers {
		go func(p string) {
			resp, err := n.tr.Call(p, req)
			if err != nil || resp == nil {
				votes <- false
				return
			}
			n.mu.Lock()
			if resp.Term > n.term {
				n.becomeFollowerLocked(resp.Term, "")
				n.lastContact = time.Now()
			}
			n.mu.Unlock()
			votes <- resp.Kind == MsgVoteResp && resp.Term == term && resp.Granted
		}(p)
	}

	// The quorum is checked before each wait, not after each vote: a lone
	// voter has it with its own vote and must not wait for peers it does
	// not have.
	granted := 1 // own vote
	needed := len(n.cfg.Peers)/2 + 1
	for answered := 0; granted < needed; answered++ {
		if answered == len(peers) {
			return // lost; the next election timeout stands again
		}
		select {
		case ok := <-votes:
			if ok {
				granted++
			}
		case <-n.stopCh:
			return
		}
	}
	n.mu.Lock()
	if n.role != roleCandidate || n.term != term {
		n.mu.Unlock()
		return
	}
	n.becomeLeaderLocked()
	n.mu.Unlock()
	n.kickReplication()
}

// becomeLeaderLocked installs leader state and appends the term no-op
// (committing it commits everything earlier — the Raft §5.4.2 guard).
func (n *Node) becomeLeaderLocked() {
	n.role = roleLeader
	n.leader = n.cfg.ID
	n.mets.LeaderWins.Add(1)
	n.mets.IsLeader.Store(1)
	close(n.leaderChange)
	n.leaderChange = make(chan struct{})
	next := n.lastIndexLocked() + 1
	for _, p := range n.cfg.Peers {
		n.nextIndex[p] = next
		n.matchIndex[p] = 0
	}
	noop := Entry{Index: next, Term: n.term}
	n.log = append(n.log, noop)
	n.mets.LastIndex.Store(int64(noop.Index))
	n.matchIndex[n.cfg.ID] = noop.Index
	n.advanceCommitLocked() // a lone voter is its own majority: no ack will come to commit the no-op
	n.cfg.Logf("consensus %s: elected leader, term %d", n.cfg.ID, n.term)
}

// kickReplication nudges every peer's replication loop.
func (n *Node) kickReplication() {
	for _, ch := range n.replTrigger {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// replicateLoop serializes AppendEntries/InstallSnapshot traffic to one
// peer: one RPC in flight, re-kicked by proposals and heartbeat ticks.
func (n *Node) replicateLoop(peer string, kick <-chan struct{}) {
	defer n.wg.Done()
	for {
		select {
		case <-kick:
		case <-n.stopCh:
			return
		}
		n.replicateOnce(peer)
	}
}

// replicateOnce sends one AppendEntries (or InstallSnapshot) to peer
// and processes the response.
func (n *Node) replicateOnce(peer string) {
	n.mu.Lock()
	if n.stopped || n.role != roleLeader {
		n.mu.Unlock()
		return
	}
	term := n.term
	next := n.nextIndex[peer]
	if next == 0 {
		next = 1
	}
	if next <= n.snapIndex {
		// The peer is behind the compaction point: ship the snapshot.
		req := &Message{
			Kind: MsgSnap, Term: term, From: n.cfg.ID,
			SnapIndex: n.snapIndex, SnapTerm: n.snapTerm, SnapData: n.snapData,
		}
		snapIndex := n.snapIndex
		n.mu.Unlock()
		resp, err := n.tr.Call(peer, req)
		if err != nil || resp == nil {
			return
		}
		n.mu.Lock()
		if resp.Term > n.term {
			n.becomeFollowerLocked(resp.Term, "")
			n.lastContact = time.Now()
		} else if n.role == roleLeader && n.term == term {
			n.nextIndex[peer] = snapIndex + 1
			if n.matchIndex[peer] < snapIndex {
				n.matchIndex[peer] = snapIndex
			}
		}
		more := n.role == roleLeader && n.nextIndex[peer] <= n.lastIndexLocked()
		n.mu.Unlock()
		if more {
			n.kickPeer(peer)
		}
		return
	}
	prev := next - 1
	prevTerm, ok := n.termAtLocked(prev)
	if !ok {
		// Compacted while deciding; retry as snapshot on the next kick.
		n.mu.Unlock()
		n.kickPeer(peer)
		return
	}
	req := &Message{
		Kind: MsgApp, Term: term, From: n.cfg.ID,
		PrevLogIndex: prev, PrevLogTerm: prevTerm,
		Entries: n.entriesFromLocked(next), LeaderCommit: n.commitIndex,
	}
	n.mu.Unlock()

	resp, err := n.tr.Call(peer, req)
	if err != nil || resp == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if resp.Term > n.term {
		n.becomeFollowerLocked(resp.Term, "")
		n.lastContact = time.Now()
		return
	}
	if n.role != roleLeader || n.term != term {
		return
	}
	if resp.Success {
		if resp.MatchIndex > n.matchIndex[peer] {
			n.matchIndex[peer] = resp.MatchIndex
		}
		n.nextIndex[peer] = n.matchIndex[peer] + 1
		n.advanceCommitLocked()
		return
	}
	// Log mismatch: back off to the follower's conflict hint.
	ni := resp.Conflict
	if ni == 0 || ni >= next {
		ni = next - 1
	}
	if ni < 1 {
		ni = 1
	}
	n.nextIndex[peer] = ni
	n.kickPeer(peer) // non-blocking send; safe under the lock
}

func (n *Node) kickPeer(peer string) {
	if ch, ok := n.replTrigger[peer]; ok {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// advanceCommitLocked commits the highest index replicated on a
// majority whose entry is from the current term.
func (n *Node) advanceCommitLocked() {
	matches := make([]uint64, 0, len(n.cfg.Peers))
	for _, p := range n.cfg.Peers {
		matches = append(matches, n.matchIndex[p])
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	candidate := matches[len(n.cfg.Peers)/2]
	if candidate <= n.commitIndex {
		return
	}
	if t, ok := n.termAtLocked(candidate); !ok || t != n.term {
		return
	}
	n.commitIndex = candidate
	n.mets.CommitIndex.Store(int64(candidate))
	n.applyCond.Broadcast()
}

// applyLoop feeds committed entries to the FSM in order and takes
// snapshots when the log passes the compaction threshold.
func (n *Node) applyLoop() {
	defer n.wg.Done()
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		for !n.stopped && n.applied >= n.commitIndex {
			n.applyCond.Wait()
		}
		if n.stopped {
			return
		}
		for n.applied < n.commitIndex {
			idx := n.applied + 1
			if idx <= n.snapIndex {
				// Compacted under us (snapshot install); skip forward.
				n.applied = n.snapIndex
				continue
			}
			if idx > n.lastIndexLocked() {
				break
			}
			entry := n.log[idx-n.snapIndex-1]
			n.mu.Unlock()
			if entry.Data != nil {
				n.fsm.Apply(entry)
			}
			n.mu.Lock()
			if n.applied < entry.Index {
				n.applied = entry.Index
			}
			n.mets.AppliedIndex.Store(int64(n.applied))
		}
		n.maybeSnapshotLocked()
	}
}

// maybeSnapshotLocked compacts the applied prefix once the retained log
// exceeds the threshold.
func (n *Node) maybeSnapshotLocked() {
	if len(n.log) <= n.cfg.SnapshotThreshold || n.applied <= n.snapIndex {
		return
	}
	cut := n.applied
	cutTerm, ok := n.termAtLocked(cut)
	if !ok {
		return
	}
	n.mu.Unlock()
	data := n.fsm.Snapshot()
	n.mu.Lock()
	if cut <= n.snapIndex {
		return // a snapshot install moved past us meanwhile
	}
	n.log = append([]Entry(nil), n.log[cut-n.snapIndex:]...)
	n.snapIndex = cut
	n.snapTerm = cutTerm
	n.snapData = data
	n.mets.Snapshots.Add(1)
	n.cfg.Logf("consensus %s: compacted log through %d (%d entries retained)", n.cfg.ID, cut, len(n.log))
}

// HandleRPC processes one inbound RPC and returns the response. It is
// the Transport server side's entry point.
func (n *Node) HandleRPC(req *Message) *Message {
	switch req.Kind {
	case MsgVote:
		return n.handleVote(req)
	case MsgApp:
		return n.handleAppend(req)
	case MsgSnap:
		return n.handleSnapshot(req)
	default:
		return &Message{Kind: req.Kind, From: n.cfg.ID}
	}
}

func (n *Node) handleVote(req *Message) *Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := &Message{Kind: MsgVoteResp, From: n.cfg.ID}
	if req.Term > n.term {
		n.becomeFollowerLocked(req.Term, "")
	}
	resp.Term = n.term
	if req.Term < n.term {
		return resp
	}
	// Grant iff we have not voted for someone else this term and the
	// candidate's log is at least as up to date as ours.
	lastIndex := n.lastIndexLocked()
	lastTerm, _ := n.termAtLocked(lastIndex)
	upToDate := req.LastLogTerm > lastTerm ||
		(req.LastLogTerm == lastTerm && req.LastLogIndex >= lastIndex)
	if (n.votedFor == "" || n.votedFor == req.From) && upToDate {
		n.votedFor = req.From
		n.lastContact = time.Now()
		resp.Granted = true
	}
	return resp
}

func (n *Node) handleAppend(req *Message) *Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := &Message{Kind: MsgAppResp, From: n.cfg.ID}
	if req.Term > n.term || (req.Term == n.term && n.role != roleFollower) {
		n.becomeFollowerLocked(req.Term, req.From)
	}
	resp.Term = n.term
	if req.Term < n.term {
		return resp
	}
	if n.leader != req.From {
		n.becomeFollowerLocked(req.Term, req.From)
	}
	n.lastContact = time.Now()

	// Consistency check at PrevLogIndex. A prev index inside our
	// compacted prefix is committed state and matches by definition; the
	// append loop below skips the covered entries.
	if req.PrevLogIndex > n.snapIndex {
		t, ok := n.termAtLocked(req.PrevLogIndex)
		if !ok {
			resp.Conflict = n.lastIndexLocked() + 1
			return resp
		} else if t != req.PrevLogTerm {
			// Back off past the whole conflicting term.
			ci := req.PrevLogIndex
			for ci > n.snapIndex+1 {
				ct, _ := n.termAtLocked(ci - 1)
				if ct != t {
					break
				}
				ci--
			}
			resp.Conflict = ci
			return resp
		}
	}
	// Append, truncating on the first conflict.
	for _, e := range req.Entries {
		if e.Index <= n.snapIndex {
			continue
		}
		if t, ok := n.termAtLocked(e.Index); ok {
			if t == e.Term {
				continue
			}
			n.log = n.log[:e.Index-n.snapIndex-1]
		}
		n.log = append(n.log, e)
	}
	n.mets.LastIndex.Store(int64(n.lastIndexLocked()))
	if req.LeaderCommit > n.commitIndex {
		ci := req.LeaderCommit
		if li := n.lastIndexLocked(); ci > li {
			ci = li
		}
		n.commitIndex = ci
		n.mets.CommitIndex.Store(int64(ci))
		n.applyCond.Broadcast()
	}
	resp.Success = true
	resp.MatchIndex = req.PrevLogIndex + uint64(len(req.Entries))
	if resp.MatchIndex > n.lastIndexLocked() {
		resp.MatchIndex = n.lastIndexLocked()
	}
	return resp
}

func (n *Node) handleSnapshot(req *Message) *Message {
	n.mu.Lock()
	resp := &Message{Kind: MsgSnapResp, From: n.cfg.ID}
	if req.Term > n.term || (req.Term == n.term && n.role != roleFollower) {
		n.becomeFollowerLocked(req.Term, req.From)
	}
	resp.Term = n.term
	if req.Term < n.term {
		n.mu.Unlock()
		return resp
	}
	n.lastContact = time.Now()
	if req.SnapIndex <= n.snapIndex || req.SnapIndex <= n.applied {
		n.mu.Unlock()
		return resp // stale snapshot; nothing to do
	}
	// Install: replace state through SnapIndex, keep any newer suffix
	// that matches, else clear.
	if t, ok := n.termAtLocked(req.SnapIndex); ok && t == req.SnapTerm {
		n.log = append([]Entry(nil), n.log[req.SnapIndex-n.snapIndex:]...)
	} else {
		n.log = nil
	}
	n.snapIndex = req.SnapIndex
	n.snapTerm = req.SnapTerm
	n.snapData = req.SnapData
	n.applied = req.SnapIndex
	if n.commitIndex < req.SnapIndex {
		n.commitIndex = req.SnapIndex
	}
	n.mets.SnapshotsRx.Add(1)
	n.mets.AppliedIndex.Store(int64(n.applied))
	n.mets.CommitIndex.Store(int64(n.commitIndex))
	n.mets.LastIndex.Store(int64(n.lastIndexLocked()))
	n.mu.Unlock()
	n.fsm.Restore(req.SnapData)
	return resp
}
