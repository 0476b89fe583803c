package coord

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dlfs/internal/consensus"
	"dlfs/internal/metrics"
	"dlfs/internal/wire"
)

// This file is the coordinator: the collective protocol backed by a
// Raft log, so a 3-replica set survives the death of its leader and a
// 1-replica set is the plain single coordinator (DESIGN.md §11). Every
// state transition that must be agreed on — barrier arrivals, allgather
// contributions, rank loss, and elastic membership changes — is a
// command in the log; the leader's client handlers merely propose
// commands and wait for the replicated state machine to show the
// result. Completed collectives stay in the FSM, so a client that
// resubmits after a failover gets the stored answer instead of wedging
// the survivors (commands are idempotent).
//
// Replica traffic shares the client listener: the accept loop peeks the
// first four bytes and routes Raft's "DLRF" magic to the consensus
// transport and the coordinator's "DLCO" magic to the client protocol.

// Command kinds in the Raft log.
const (
	cmdBarrier byte = iota + 1
	cmdGather
	cmdRankLost
	cmdJoin
	cmdDepart
)

// raftCmd is one replicated coordinator command (gob-encoded).
type raftCmd struct {
	Kind   byte
	Name   string
	Rank   int
	Blob   []byte
	Cut    uint64
	Reason string
}

func encodeCmd(c raftCmd) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		panic("coord: encode command: " + err.Error())
	}
	return buf.Bytes()
}

// rankBlob tags an allgather contribution with its rank, so a completed
// gather stays well-defined when membership is not 0..world-1.
type rankBlob struct {
	Rank int
	Blob []byte
}

// lostState records the poison after a rank is declared lost.
type lostState struct {
	Lost   bool
	Rank   int
	Reason string
}

// fsmState is the replicated coordinator state. All fields are exported
// for gob snapshots; every mutation happens in Apply, deterministically
// from the log, so all replicas agree on it.
type fsmState struct {
	World        int          // initial world size (blob-set sizing floor)
	Epoch        uint64       // placement epoch, bumped on membership change
	Members      map[int]bool // ranks currently in the job
	Barriers     map[string]map[int]bool
	DoneBarriers map[string]bool
	Gathers      map[string]map[int][]byte
	DoneGathers  map[string][]rankBlob
	Failed       lostState
	DepartRank   int // last departed rank, -1 when none
	DepartCut    uint64
}

func newFSMState(world int) fsmState {
	members := make(map[int]bool, world)
	for r := 0; r < world; r++ {
		members[r] = true
	}
	return fsmState{
		World:        world,
		Epoch:        1,
		Members:      members,
		Barriers:     make(map[string]map[int]bool),
		DoneBarriers: make(map[string]bool),
		Gathers:      make(map[string]map[int][]byte),
		DoneGathers:  make(map[string][]rankBlob),
		DepartRank:   -1,
	}
}

// coordFSM wraps fsmState with the notification machinery waiters use.
type coordFSM struct {
	mu     sync.Mutex
	st     fsmState
	notify chan struct{} // closed and replaced after every apply
}

func newCoordFSM(world int) *coordFSM {
	return &coordFSM{st: newFSMState(world), notify: make(chan struct{})}
}

// waitCh returns a channel closed at the next state change.
func (f *coordFSM) waitCh() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.notify
}

func (f *coordFSM) bumpLocked() {
	close(f.notify)
	f.notify = make(chan struct{})
}

// Apply is the deterministic state transition for one committed command.
func (f *coordFSM) Apply(e consensus.Entry) {
	if len(e.Data) == 0 {
		return // leader no-op entry
	}
	var c raftCmd
	if err := gob.NewDecoder(bytes.NewReader(e.Data)).Decode(&c); err != nil {
		return // never committed by our own code; ignore rather than diverge
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	defer f.bumpLocked()
	switch c.Kind {
	case cmdBarrier:
		if f.st.Failed.Lost || f.st.DoneBarriers[c.Name] {
			return
		}
		b := f.st.Barriers[c.Name]
		if b == nil {
			b = make(map[int]bool)
			f.st.Barriers[c.Name] = b
		}
		b[c.Rank] = true
		f.completeLocked(c.Name)
	case cmdGather:
		if f.st.Failed.Lost || f.st.DoneGathers[c.Name] != nil {
			return
		}
		g := f.st.Gathers[c.Name]
		if g == nil {
			g = make(map[int][]byte)
			f.st.Gathers[c.Name] = g
		}
		if _, dup := g[c.Rank]; !dup { // resubmission after failover keeps the first blob
			g[c.Rank] = append([]byte(nil), c.Blob...)
		}
		f.completeLocked(c.Name)
	case cmdRankLost:
		if f.st.Failed.Lost {
			return
		}
		f.st.Failed = lostState{Lost: true, Rank: c.Rank, Reason: c.Reason}
		delete(f.st.Members, c.Rank)
		f.st.Barriers = make(map[string]map[int]bool)
		f.st.Gathers = make(map[string]map[int][]byte)
	case cmdJoin:
		if f.st.Failed.Lost || f.st.Members[c.Rank] {
			return
		}
		f.st.Members[c.Rank] = true
		f.st.Epoch++
	case cmdDepart:
		if f.st.Failed.Lost || !f.st.Members[c.Rank] {
			return
		}
		delete(f.st.Members, c.Rank)
		f.st.Epoch++
		f.st.DepartRank = c.Rank
		f.st.DepartCut = c.Cut
		// The departed rank may have been the only missing arrival.
		for name := range f.st.Barriers {
			f.completeLocked(name)
		}
		for name := range f.st.Gathers {
			f.completeLocked(name)
		}
	}
}

// completeLocked promotes a pending collective to done once every
// current member has arrived/contributed.
func (f *coordFSM) completeLocked(name string) {
	if b, ok := f.st.Barriers[name]; ok {
		for r := range f.st.Members {
			if !b[r] {
				return
			}
		}
		delete(f.st.Barriers, name)
		f.st.DoneBarriers[name] = true
		return
	}
	if g, ok := f.st.Gathers[name]; ok {
		for r := range f.st.Members {
			if _, has := g[r]; !has {
				return
			}
		}
		delete(f.st.Gathers, name)
		ranks := make([]int, 0, len(g))
		for r := range g {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		done := make([]rankBlob, 0, len(ranks))
		for _, r := range ranks {
			done = append(done, rankBlob{Rank: r, Blob: g[r]})
		}
		f.st.DoneGathers[name] = done
	}
}

// Snapshot serializes the whole replicated state for log compaction.
func (f *coordFSM) Snapshot() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&f.st); err != nil {
		panic("coord: snapshot: " + err.Error())
	}
	return buf.Bytes()
}

// Restore replaces the state from a leader-installed snapshot.
func (f *coordFSM) Restore(data []byte) {
	var st fsmState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return
	}
	f.mu.Lock()
	f.st = st
	f.bumpLocked()
	f.mu.Unlock()
}

// ClusterStatus is what a replica reports about the control plane:
// who leads, which term, the placement epoch, and the membership view.
type ClusterStatus struct {
	Leader     string
	Term       uint64
	Epoch      uint64
	World      int   // current member count
	Members    []int // sorted
	DepartRank int   // last departed rank, -1 when none
	DepartCut  uint64
	Failed     string // poison reason, "" while healthy
}

// ReplicatedOptions tunes one coordinator replica.
type ReplicatedOptions struct {
	// WriteTimeout bounds response writes and leader-side waits for a
	// proposed membership change to apply (default 30s).
	WriteTimeout time.Duration
	// RankGrace is how long the leader waits after losing a member
	// connection before declaring the rank dead. It must comfortably
	// cover a client's reconnect after a leader failover (default 2s).
	RankGrace time.Duration
	// ElectionTimeout/HeartbeatInterval/SnapshotThreshold/Seed tune the
	// Raft node (zero values take the consensus package defaults).
	ElectionTimeout   time.Duration
	HeartbeatInterval time.Duration
	SnapshotThreshold int
	Seed              int64
	// Metrics, when set, receives the replica's consensus counters.
	Metrics *metrics.Consensus
	Logf    func(string, ...any)
}

func (o ReplicatedOptions) withDefaults() ReplicatedOptions {
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.RankGrace <= 0 {
		o.RankGrace = 2 * time.Second
	}
	return o
}

// ReplicatedServer is one replica of the coordinator set. All replicas
// host the same listener protocol; only the current Raft leader admits
// ranks and drives collectives, the rest redirect.
type ReplicatedServer struct {
	world int
	self  string
	opt   ReplicatedOptions
	fsm   *coordFSM
	node  *consensus.Node
	tr    *consensus.TCPTransport

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]bool
	clients map[int]net.Conn // live member conns on this (leader) replica
	grace   map[int]*time.Timer
	closed  bool
	wg      sync.WaitGroup
}

// NewReplicatedServer builds a replica identified by self (its
// advertised listen address, which must appear in peers) for a job of
// world ranks. Call Serve with a listener bound to self to start it.
func NewReplicatedServer(world int, self string, peers []string, opt ReplicatedOptions) *ReplicatedServer {
	if world <= 0 {
		panic("coord: non-positive world size")
	}
	opt = opt.withDefaults()
	s := &ReplicatedServer{
		world:   world,
		self:    self,
		opt:     opt,
		fsm:     newCoordFSM(world),
		conns:   make(map[net.Conn]bool),
		clients: make(map[int]net.Conn),
		grace:   make(map[int]*time.Timer),
	}
	var node *consensus.Node
	s.tr = consensus.NewTCPTransport(func(m *consensus.Message) *consensus.Message {
		return node.HandleRPC(m)
	}, 0, 0)
	node = consensus.NewNode(consensus.Config{
		ID:                self,
		Peers:             peers,
		ElectionTimeout:   opt.ElectionTimeout,
		HeartbeatInterval: opt.HeartbeatInterval,
		SnapshotThreshold: opt.SnapshotThreshold,
		Seed:              opt.Seed,
		Metrics:           opt.Metrics,
		Logf:              opt.Logf,
	}, s.fsm, s.tr)
	s.node = node
	return s
}

// ListenReplicated is the one-call constructor dlfsd uses: listen on
// self and start serving both protocols.
func ListenReplicated(world int, self string, peers []string, opt ReplicatedOptions) (*ReplicatedServer, error) {
	ln, err := net.Listen("tcp", self)
	if err != nil {
		return nil, err
	}
	s := NewReplicatedServer(world, self, peers, opt)
	s.Serve(ln)
	return s, nil
}

// StartReplicaSet stands up n replicas on ephemeral loopback ports —
// the listeners are bound first so every replica knows the full peer
// list — and returns them with their addresses: the in-process
// coordinator of the benchmark, the dlfsctl smoke and the tests.
func StartReplicaSet(n, world int, opt ReplicatedOptions) ([]*ReplicatedServer, []string, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close() //nolint:errcheck
			}
			return nil, nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	srvs := make([]*ReplicatedServer, n)
	for i := 0; i < n; i++ {
		o := opt
		if o.Seed == 0 {
			o.Seed = int64(i + 1)
		} else {
			o.Seed += int64(i)
		}
		srvs[i] = NewReplicatedServer(world, addrs[i], addrs, o)
		srvs[i].Serve(lns[i])
	}
	return srvs, addrs, nil
}

// Serve starts the Raft node and the demuxing accept loop on ln.
func (s *ReplicatedServer) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.node.Start()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if !s.track(c) {
				c.Close() //nolint:errcheck
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer s.untrack(c)
				s.demux(c)
			}()
		}
	}()
}

func (s *ReplicatedServer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = true
	return true
}

func (s *ReplicatedServer) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Addr reports the advertised address of this replica.
func (s *ReplicatedServer) Addr() string { return s.self }

// World reports the initial job size the replica set was built for.
func (s *ReplicatedServer) World() int { return s.world }

// Leader reports the current leader address and term as this replica
// sees them.
func (s *ReplicatedServer) Leader() (string, uint64) { return s.node.Leader() }

// Status assembles this replica's view of the control plane.
func (s *ReplicatedServer) Status() ClusterStatus {
	leader, term := s.node.Leader()
	s.fsm.mu.Lock()
	st := ClusterStatus{
		Leader:     leader,
		Term:       term,
		Epoch:      s.fsm.st.Epoch,
		World:      len(s.fsm.st.Members),
		DepartRank: s.fsm.st.DepartRank,
		DepartCut:  s.fsm.st.DepartCut,
	}
	for r := range s.fsm.st.Members {
		st.Members = append(st.Members, r)
	}
	if s.fsm.st.Failed.Lost {
		st.Failed = (&PeerLostError{Rank: s.fsm.st.Failed.Rank, Reason: s.fsm.st.Failed.Reason}).Error()
	}
	s.fsm.mu.Unlock()
	sort.Ints(st.Members)
	return st
}

// Close stops the replica: Raft node, transport, listener, and every
// tracked connection.
func (s *ReplicatedServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	for _, t := range s.grace {
		t.Stop()
	}
	s.mu.Unlock()
	s.node.Stop()
	s.tr.Close()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close() //nolint:errcheck
	}
	s.wg.Wait()
	return err
}

// bufferedConn lets the demuxed reader hand already-buffered bytes to
// whichever protocol handler wins the peek.
type bufferedConn struct {
	net.Conn
	r   *bufio.Reader
	hdr *wire.Header // a client connection's frame-header scratch; serveClient's goroutine reads and writes every frame
}

func (c bufferedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// demux peeks the first four bytes of a fresh connection and routes it:
// Raft replica traffic to the consensus transport, everything else to
// the coordinator client protocol.
func (s *ReplicatedServer) demux(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(conn)
	magic, err := br.Peek(4)
	if err != nil {
		conn.Close() //nolint:errcheck
		return
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	switch binary.LittleEndian.Uint32(magic) {
	case consensus.Magic:
		br.Discard(4) //nolint:errcheck
		s.tr.ServeConn(bufferedConn{Conn: conn, r: br})
	case Magic:
		s.serveClient(bufferedConn{Conn: conn, r: br, hdr: new(wire.Header)})
	default:
		conn.Close() //nolint:errcheck
	}
}

// isLeader reports whether this replica currently leads.
func (s *ReplicatedServer) isLeader() bool {
	leader, _ := s.node.Leader()
	return leader == s.self
}

// send writes one frame to a client under the write deadline.
func (s *ReplicatedServer) send(conn bufferedConn, f *frame) error {
	conn.SetWriteDeadline(time.Now().Add(s.opt.WriteTimeout)) //nolint:errcheck
	defer conn.SetWriteDeadline(time.Time{})                  //nolint:errcheck
	return proto.Write(conn, conn.hdr, f)
}

func (s *ReplicatedServer) sendStatus(conn bufferedConn) error {
	var buf bytes.Buffer
	st := s.Status()
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return err
	}
	return s.send(conn, &frame{Op: opStatusOK, Payload: buf.Bytes()})
}

func (s *ReplicatedServer) sendRedirect(conn bufferedConn) {
	leader, _ := s.node.Leader()
	s.send(conn, &frame{Op: opRedirect, Payload: []byte(leader)}) //nolint:errcheck
}

func (s *ReplicatedServer) sendAbortFrame(conn bufferedConn, rank uint32, reason string) {
	s.send(conn, &frame{Op: opAbort, Payload: abortPayload(rank, reason)}) //nolint:errcheck
}

// serveClient speaks the coordinator client protocol on one connection.
func (s *ReplicatedServer) serveClient(conn bufferedConn) {
	defer conn.Close() //nolint:errcheck
	rank := -1         // joined rank, -1 until opJoin succeeds
	for {
		f, err := proto.Read(conn, conn.hdr, nil)
		if err != nil {
			if rank >= 0 {
				s.clientGone(rank, conn)
			}
			return
		}
		switch f.Op {
		case opStatus:
			if err := s.sendStatus(conn); err != nil {
				if rank >= 0 {
					s.clientGone(rank, conn)
				}
				return
			}
		case opJoin:
			r, ok := s.handleJoin(conn, f)
			if !ok {
				return
			}
			rank = r
		case opBarrier, opGather:
			if rank < 0 {
				s.sendAbortFrame(conn, noRank, "collective before join")
				return
			}
			if !s.runCollective(conn, rank, f) {
				s.forgetClient(rank, conn)
				return
			}
		case opDepart:
			if rank < 0 || len(f.Payload) != 8 {
				s.sendAbortFrame(conn, noRank, "bad depart")
				return
			}
			s.handleDepart(conn, rank, binary.LittleEndian.Uint64(f.Payload))
			s.forgetClient(rank, conn)
			return
		case opLeave:
			if rank >= 0 {
				s.clientLeave(rank, conn)
			}
			return
		default:
			s.sendAbortFrame(conn, noRank, fmt.Sprintf("unexpected opcode %d", f.Op))
			if rank >= 0 {
				s.clientGone(rank, conn)
			}
			return
		}
	}
}

// handleJoin admits a rank on the leader (proposing a membership entry
// when the rank is new) or redirects to the leader.
func (s *ReplicatedServer) handleJoin(conn bufferedConn, f *frame) (int, bool) {
	rank := int(f.Tag)
	if !s.isLeader() {
		s.sendRedirect(conn)
		return -1, false
	}
	if len(f.Payload) != 4 {
		s.sendAbortFrame(conn, noRank, "bad join")
		return -1, false
	}
	if world := int(binary.LittleEndian.Uint32(f.Payload)); world != s.world {
		s.sendAbortFrame(conn, noRank, fmt.Sprintf("world mismatch: rank %d joined with world %d, coordinator has %d", rank, world, s.world))
		return -1, false
	}
	if rank < 0 || rank >= s.world {
		s.sendAbortFrame(conn, noRank, fmt.Sprintf("rank %d out of range for world %d", rank, s.world))
		return -1, false
	}
	s.fsm.mu.Lock()
	failed := s.fsm.st.Failed
	isMember := s.fsm.st.Members[rank]
	s.fsm.mu.Unlock()
	if failed.Lost {
		s.sendAbortFrame(conn, uint32(failed.Rank), failed.Reason)
		return -1, false
	}
	if !isMember {
		// Elastic join: replicate the membership change (bumps the epoch).
		err := s.proposeWait(raftCmd{Kind: cmdJoin, Rank: rank}, func(st *fsmState) bool {
			return st.Members[rank] || st.Failed.Lost
		})
		if err != nil {
			s.sendRedirect(conn)
			return -1, false
		}
	}
	s.mu.Lock()
	if prev, dup := s.clients[rank]; dup && prev != conn {
		s.mu.Unlock()
		s.sendAbortFrame(conn, noRank, fmt.Sprintf("rank %d already joined", rank))
		return -1, false
	}
	s.clients[rank] = conn
	if t := s.grace[rank]; t != nil {
		t.Stop()
		delete(s.grace, rank)
	}
	s.mu.Unlock()
	if err := s.send(conn, &frame{Op: opJoinOK, Tag: uint32(rank)}); err != nil {
		s.clientGone(rank, conn)
		return -1, false
	}
	return rank, true
}

// proposeWait proposes cmd and blocks until pred holds on the local FSM
// (i.e. the entry — or an equivalent one — committed and applied).
func (s *ReplicatedServer) proposeWait(cmd raftCmd, pred func(*fsmState) bool) error {
	check := func() bool {
		s.fsm.mu.Lock()
		defer s.fsm.mu.Unlock()
		return pred(&s.fsm.st)
	}
	if check() {
		return nil
	}
	if _, _, err := s.node.Propose(encodeCmd(cmd)); err != nil {
		return err
	}
	deadline := time.Now().Add(s.opt.WriteTimeout)
	for {
		ch := s.fsm.waitCh()
		if check() {
			return nil
		}
		if s.isClosed() {
			return ErrClosed
		}
		if !s.isLeader() {
			return consensus.ErrNotLeader
		}
		if time.Now().After(deadline) {
			return ErrWaitTimeout
		}
		select {
		case <-ch:
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// isClosed reports whether the replica is shutting down; long waiter
// loops must exit so Close's wg.Wait can finish.
func (s *ReplicatedServer) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// runCollective proposes a barrier arrival or gather contribution and
// waits for the replicated FSM to complete (or poison) it. The return
// value reports whether the connection is still usable.
func (s *ReplicatedServer) runCollective(conn bufferedConn, rank int, f *frame) bool {
	var cmd raftCmd
	var name string
	switch f.Op {
	case opBarrier:
		n, _, err := unpackName(f.Payload)
		if err != nil {
			s.sendAbortFrame(conn, noRank, err.Error())
			return false
		}
		name = n
		cmd = raftCmd{Kind: cmdBarrier, Name: n, Rank: rank}
	case opGather:
		n, blob, err := unpackName(f.Payload)
		if err != nil {
			s.sendAbortFrame(conn, noRank, err.Error())
			return false
		}
		name = n
		cmd = raftCmd{Kind: cmdGather, Name: n, Rank: rank, Blob: blob}
	}
	// Skip the proposal when the collective already completed (this is a
	// resubmission after a failover) or the job is poisoned.
	done, failed := s.collectiveState(name, f.Op)
	if !done && !failed.Lost {
		if _, _, err := s.node.Propose(encodeCmd(cmd)); err != nil {
			s.sendRedirect(conn)
			return false
		}
	}
	for {
		ch := s.fsm.waitCh()
		done, failed = s.collectiveState(name, f.Op)
		if failed.Lost {
			s.sendAbortFrame(conn, uint32(failed.Rank), failed.Reason)
			return true
		}
		if done {
			return s.replyCollective(conn, name, f.Op)
		}
		if s.isClosed() {
			return false
		}
		if !s.isLeader() {
			// The proposal may or may not survive the term change; the
			// client re-resolves and resubmits (idempotent either way).
			s.sendRedirect(conn)
			return false
		}
		select {
		case <-ch:
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// collectiveState reports (done, poison) for one named collective.
func (s *ReplicatedServer) collectiveState(name string, op byte) (bool, lostState) {
	s.fsm.mu.Lock()
	defer s.fsm.mu.Unlock()
	if op == opBarrier {
		return s.fsm.st.DoneBarriers[name], s.fsm.st.Failed
	}
	return s.fsm.st.DoneGathers[name] != nil, s.fsm.st.Failed
}

// replyCollective sends the stored completion for name.
func (s *ReplicatedServer) replyCollective(conn bufferedConn, name string, op byte) bool {
	var out *frame
	if op == opBarrier {
		out = &frame{Op: opRelease, Payload: packName(name, nil)}
	} else {
		s.fsm.mu.Lock()
		blobs := s.fsm.st.DoneGathers[name]
		s.fsm.mu.Unlock()
		// name | u32 count | count × (u32 rank | u32 len | blob)
		size := 4
		for _, rb := range blobs {
			size += 8 + len(rb.Blob)
		}
		body := make([]byte, 0, size)
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], uint32(len(blobs)))
		body = append(body, w[:]...)
		for _, rb := range blobs {
			binary.LittleEndian.PutUint32(w[:], uint32(rb.Rank))
			body = append(body, w[:]...)
			binary.LittleEndian.PutUint32(w[:], uint32(len(rb.Blob)))
			body = append(body, w[:]...)
			body = append(body, rb.Blob...)
		}
		out = &frame{Op: opBlobs, Payload: packName(name, body)}
	}
	return s.send(conn, out) == nil
}

// handleDepart replicates an orderly mid-training departure: the rank
// leaves the membership view, the epoch bumps, and survivors reshard
// from the declared cut.
func (s *ReplicatedServer) handleDepart(conn bufferedConn, rank int, cut uint64) {
	if !s.isLeader() {
		s.sendRedirect(conn)
		return
	}
	err := s.proposeWait(raftCmd{Kind: cmdDepart, Rank: rank, Cut: cut}, func(st *fsmState) bool {
		return !st.Members[rank] || st.Failed.Lost
	})
	if err != nil {
		s.sendRedirect(conn)
		return
	}
	s.sendStatus(conn) //nolint:errcheck
}

// forgetClient deregisters a conn without starting a grace timer (the
// rank departed or the conn is being redirected, not lost).
func (s *ReplicatedServer) forgetClient(rank int, conn net.Conn) {
	s.mu.Lock()
	if s.clients[rank] == conn {
		delete(s.clients, rank)
	}
	s.mu.Unlock()
}

// clientLeave handles an orderly opLeave. Leaving while collectives are
// pending is a deliberate walk-out, not an ambiguous drop: the rank is
// declared lost immediately, without the grace window, so waiters fail
// fast.
func (s *ReplicatedServer) clientLeave(rank int, conn net.Conn) {
	s.forgetClient(rank, conn)
	s.fsm.mu.Lock()
	pending := len(s.fsm.st.Barriers) > 0 || len(s.fsm.st.Gathers) > 0
	failed := s.fsm.st.Failed.Lost
	member := s.fsm.st.Members[rank]
	s.fsm.mu.Unlock()
	if pending && !failed && member && s.isLeader() {
		s.node.Propose(encodeCmd(raftCmd{ //nolint:errcheck
			Kind: cmdRankLost, Rank: rank, Reason: "left during a collective",
		}))
	}
}

// clientGone handles a lost member connection. The drop is ambiguous —
// the rank may be dead, or it may be reconnecting to a new leader — so
// the leader arms a grace timer and only proposes the rank-lost poison
// if the rank has not re-joined when it fires.
func (s *ReplicatedServer) clientGone(rank int, conn net.Conn) {
	s.mu.Lock()
	if s.closed || s.clients[rank] != conn {
		s.mu.Unlock()
		return
	}
	delete(s.clients, rank)
	if s.grace[rank] == nil {
		s.grace[rank] = time.AfterFunc(s.opt.RankGrace, func() { s.graceExpired(rank) })
	}
	s.mu.Unlock()
}

// graceExpired fires when a dropped rank stayed away for the whole
// grace window: if this replica still leads and the rank is still a
// member, it proposes the poison.
func (s *ReplicatedServer) graceExpired(rank int) {
	s.mu.Lock()
	delete(s.grace, rank)
	_, rejoined := s.clients[rank]
	closed := s.closed
	s.mu.Unlock()
	if closed || rejoined || !s.isLeader() {
		return
	}
	s.fsm.mu.Lock()
	member := s.fsm.st.Members[rank]
	failed := s.fsm.st.Failed.Lost
	s.fsm.mu.Unlock()
	if !member || failed {
		return
	}
	s.node.Propose(encodeCmd(raftCmd{ //nolint:errcheck
		Kind: cmdRankLost, Rank: rank, Reason: "connection lost (grace expired)",
	}))
}
