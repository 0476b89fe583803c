package coord

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dlfs/internal/wire"
)

// ClusterClient is one rank's failover-aware connection to a
// coordinator replica set. It discovers the Raft leader by following
// redirects, and when the leader dies mid-collective it re-resolves
// with backoff and resubmits — the replicated FSM makes resubmission
// idempotent, so a collective survives any failover that finishes
// inside Options.WaitTimeout.
type ClusterClient struct {
	peers []string
	rank  int
	world int
	opt   Options

	mu     sync.Mutex // one collective in flight at a time
	conn   net.Conn
	leader string // last known leader address
	closed bool
	hdr    wire.Header // scratch for the one frame in flight, under mu
}

// JoinCluster resolves the replica set's leader and registers as rank
// of world. peers lists every replica address; order does not matter.
func JoinCluster(peers []string, rank, world int, opt Options) (*ClusterClient, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("%w: empty peer list", ErrNoLeader)
	}
	opt = opt.withDefaults()
	c := &ClusterClient{peers: append([]string(nil), peers...), rank: rank, world: world, opt: opt}
	if err := c.rejoin(time.Now().Add(opt.ResolveTimeout)); err != nil {
		return nil, err
	}
	return c, nil
}

// Rank reports the client's rank.
func (c *ClusterClient) Rank() int { return c.rank }

// World reports the job size the client joined with.
func (c *ClusterClient) World() int { return c.world }

// Leader reports the last leader address this client joined through.
func (c *ClusterClient) Leader() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leader
}

// rejoin (re)establishes a joined connection to the current leader,
// following redirects and sweeping the peer list with backoff until
// deadline. Callers hold no lock or c.mu; it touches conn/leader only
// through the pointer fields, so callers must hold c.mu.
func (c *ClusterClient) rejoin(deadline time.Time) error {
	if c.conn != nil {
		c.conn.Close() //nolint:errcheck
		c.conn = nil
	}
	backoff := 50 * time.Millisecond
	var lastErr error
	for {
		// Try the last known leader first, then sweep the peer list.
		candidates := make([]string, 0, len(c.peers)+1)
		if c.leader != "" {
			candidates = append(candidates, c.leader)
		}
		for _, p := range c.peers {
			if p != c.leader {
				candidates = append(candidates, p)
			}
		}
		for _, addr := range candidates {
			conn, err := c.tryJoin(addr)
			if err == nil {
				c.conn = conn
				c.leader = addr
				return nil
			}
			lastErr = err
			var pl *PeerLostError
			if errors.As(err, &pl) {
				return err // poison is permanent; no point retrying
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%w: %v", ErrNoLeader, lastErr)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %v", ErrNoLeader, lastErr)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

// tryJoin attempts the join handshake against one replica, following a
// single redirect hop (the next sweep retries from the hinted leader).
func (c *ClusterClient) tryJoin(addr string) (net.Conn, error) {
	for hop := 0; hop < 2; hop++ {
		conn, err := net.DialTimeout("tcp", addr, c.opt.DialTimeout)
		if err != nil {
			return nil, err
		}
		var worldw [4]byte
		binary.LittleEndian.PutUint32(worldw[:], uint32(c.world))
		conn.SetDeadline(time.Now().Add(c.opt.DialTimeout)) //nolint:errcheck
		if err := proto.Write(conn, &c.hdr, &frame{Op: opJoin, Tag: uint32(c.rank), Payload: worldw[:]}); err != nil {
			conn.Close() //nolint:errcheck
			return nil, err
		}
		f, err := proto.Read(conn, &c.hdr, nil)
		if err != nil {
			conn.Close() //nolint:errcheck
			return nil, err
		}
		switch f.Op {
		case opJoinOK:
			conn.SetDeadline(time.Time{}) //nolint:errcheck
			return conn, nil
		case opRedirect:
			conn.Close() //nolint:errcheck
			hint := string(f.Payload)
			if hint == "" || hint == addr {
				return nil, fmt.Errorf("%w: %s is not the leader", ErrNoLeader, addr)
			}
			c.leader = hint
			addr = hint
		case opAbort:
			conn.Close() //nolint:errcheck
			return nil, abortError(f.Payload)
		default:
			conn.Close() //nolint:errcheck
			return nil, fmt.Errorf("%w: unexpected join reply opcode %d", ErrProtocol, f.Op)
		}
	}
	return nil, fmt.Errorf("%w: redirect loop", ErrNoLeader)
}

// Barrier blocks until every current member has called Barrier with the
// same name, surviving coordinator failovers inside WaitTimeout.
func (c *ClusterClient) Barrier(name string) error {
	_, err := c.collective(opBarrier, name, nil)
	return err
}

// Allgather contributes blob under name and blocks until every current
// member has contributed. The result is indexed by rank; ranks that are
// no longer members have nil entries.
func (c *ClusterClient) Allgather(name string, blob []byte) ([][]byte, error) {
	return c.collective(opGather, name, blob)
}

// collective submits one collective and waits it out, re-resolving the
// leader and resubmitting on redirect or connection loss.
func (c *ClusterClient) collective(op byte, name string, blob []byte) ([][]byte, error) {
	if len(name) == 0 || len(name) > maxName {
		return nil, fmt.Errorf("%w: bad collective name %q", ErrProtocol, name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	deadline := time.Now().Add(c.opt.WaitTimeout)
	noDeadline := c.opt.WaitTimeout <= 0
	for {
		if c.conn == nil {
			d := deadline
			if noDeadline {
				d = time.Now().Add(c.opt.ResolveTimeout)
			}
			if err := c.rejoin(d); err != nil {
				return nil, err
			}
		}
		blobs, retry, err := c.attempt(op, name, blob, deadline, noDeadline)
		if !retry {
			return blobs, err
		}
		c.conn.Close() //nolint:errcheck
		c.conn = nil
		if !noDeadline && time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: %q after %v", ErrWaitTimeout, name, c.opt.WaitTimeout)
		}
	}
}

// attempt runs one submit/wait round trip on the current connection.
// retry=true means the connection is no longer usable but the
// collective may still succeed elsewhere.
func (c *ClusterClient) attempt(op byte, name string, blob []byte, deadline time.Time, noDeadline bool) (blobs [][]byte, retry bool, err error) {
	if err := proto.Write(c.conn, &c.hdr, &frame{Op: op, Tag: uint32(c.rank), Payload: packName(name, blob)}); err != nil {
		return nil, true, nil
	}
	if !noDeadline {
		c.conn.SetReadDeadline(deadline)          //nolint:errcheck
		defer c.conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	}
	f, err := proto.Read(c.conn, &c.hdr, nil)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, false, fmt.Errorf("%w: %q after %v", ErrWaitTimeout, name, c.opt.WaitTimeout)
		}
		return nil, true, nil // conn lost; re-resolve and resubmit
	}
	switch f.Op {
	case opAbort:
		return nil, false, abortError(f.Payload)
	case opRedirect:
		if hint := string(f.Payload); hint != "" {
			c.leader = hint
		} else {
			c.leader = ""
		}
		return nil, true, nil
	case opRelease:
		got, _, err := unpackName(f.Payload)
		if err != nil {
			return nil, false, err
		}
		if op != opBarrier || got != name {
			return nil, false, fmt.Errorf("%w: release for %q while waiting on %q", ErrProtocol, got, name)
		}
		return nil, false, nil
	case opBlobs:
		got, body, err := unpackName(f.Payload)
		if err != nil {
			return nil, false, err
		}
		if op != opGather || got != name {
			return nil, false, fmt.Errorf("%w: blobs for %q while waiting on %q", ErrProtocol, got, name)
		}
		out, err := unpackRankBlobs(body, c.world)
		return out, false, err
	default:
		return nil, false, fmt.Errorf("%w: unexpected opcode %d", ErrProtocol, f.Op)
	}
}

// unpackRankBlobs decodes the replicated blob set
// (u32 count | count × (u32 rank | u32 len | blob)) into a slice of
// world entries indexed by rank.
func unpackRankBlobs(body []byte, world int) ([][]byte, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: truncated blob set", ErrProtocol)
	}
	count := int(binary.LittleEndian.Uint32(body[0:4]))
	body = body[4:]
	out := make([][]byte, world)
	for i := 0; i < count; i++ {
		if len(body) < 8 {
			return nil, fmt.Errorf("%w: truncated blob entry %d", ErrProtocol, i)
		}
		rank := int(binary.LittleEndian.Uint32(body[0:4]))
		n := int(binary.LittleEndian.Uint32(body[4:8]))
		body = body[8:]
		if rank >= world {
			return nil, fmt.Errorf("%w: blob from rank %d in a world of %d", ErrProtocol, rank, world)
		}
		if len(body) < n {
			return nil, fmt.Errorf("%w: truncated blob for rank %d", ErrProtocol, rank)
		}
		out[rank] = body[:n:n]
		body = body[n:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after blob set", ErrProtocol, len(body))
	}
	return out, nil
}

// Status asks a replica (the known leader first, then any reachable
// peer) for the control-plane view: leader, term, placement epoch, and
// membership.
func (c *ClusterClient) Status() (ClusterStatus, error) {
	c.mu.Lock()
	leader := c.leader
	c.mu.Unlock()
	candidates := make([]string, 0, len(c.peers)+1)
	if leader != "" {
		candidates = append(candidates, leader)
	}
	for _, p := range c.peers {
		if p != leader {
			candidates = append(candidates, p)
		}
	}
	var lastErr error
	for _, addr := range candidates {
		st, err := FetchStatus(addr, c.opt.DialTimeout)
		if err == nil {
			return st, nil
		}
		lastErr = err
	}
	return ClusterStatus{}, fmt.Errorf("coord: status: %w", lastErr)
}

// FetchStatus asks one replica for its control-plane view over a
// short-lived connection.
func FetchStatus(addr string, timeout time.Duration) (ClusterStatus, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return ClusterStatus{}, err
	}
	defer conn.Close()                        //nolint:errcheck
	conn.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck
	var hdr wire.Header
	if err := proto.Write(conn, &hdr, &frame{Op: opStatus, Tag: noRank}); err != nil {
		return ClusterStatus{}, err
	}
	f, err := proto.Read(conn, &hdr, nil)
	if err != nil {
		return ClusterStatus{}, err
	}
	if f.Op != opStatusOK {
		return ClusterStatus{}, fmt.Errorf("%w: unexpected status reply opcode %d", ErrProtocol, f.Op)
	}
	var st ClusterStatus
	if err := gob.NewDecoder(bytes.NewReader(f.Payload)).Decode(&st); err != nil {
		return ClusterStatus{}, fmt.Errorf("%w: bad status payload: %v", ErrProtocol, err)
	}
	return st, nil
}

// Depart leaves the job mid-training at the declared cut: the leader
// replicates a membership change, bumps the placement epoch, and the
// survivors reshard the unconsumed suffix from cut. The returned status
// reflects the post-departure membership. The client is closed either
// way.
func (c *ClusterClient) Depart(cut uint64) (ClusterStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ClusterStatus{}, ErrClosed
	}
	c.closed = true
	defer func() {
		if c.conn != nil {
			c.conn.Close() //nolint:errcheck
			c.conn = nil
		}
	}()
	deadline := time.Now().Add(c.opt.ResolveTimeout)
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], cut)
	for {
		if c.conn == nil {
			if err := c.rejoin(deadline); err != nil {
				return ClusterStatus{}, err
			}
		}
		c.conn.SetDeadline(time.Now().Add(c.opt.DialTimeout)) //nolint:errcheck
		werr := proto.Write(c.conn, &c.hdr, &frame{Op: opDepart, Tag: uint32(c.rank), Payload: payload[:]})
		var f *frame
		var rerr error
		if werr == nil {
			f, rerr = proto.Read(c.conn, &c.hdr, nil)
		}
		if werr != nil || rerr != nil {
			c.conn.Close() //nolint:errcheck
			c.conn = nil
			if time.Now().After(deadline) {
				return ClusterStatus{}, fmt.Errorf("%w: depart", ErrWaitTimeout)
			}
			continue
		}
		switch f.Op {
		case opStatusOK:
			var st ClusterStatus
			if err := gob.NewDecoder(bytes.NewReader(f.Payload)).Decode(&st); err != nil {
				return ClusterStatus{}, fmt.Errorf("%w: bad depart ack: %v", ErrProtocol, err)
			}
			return st, nil
		case opRedirect:
			c.leader = string(f.Payload)
			c.conn.Close() //nolint:errcheck
			c.conn = nil
		case opAbort:
			return ClusterStatus{}, abortError(f.Payload)
		default:
			return ClusterStatus{}, fmt.Errorf("%w: unexpected depart reply opcode %d", ErrProtocol, f.Op)
		}
		if time.Now().After(deadline) {
			return ClusterStatus{}, fmt.Errorf("%w: depart", ErrWaitTimeout)
		}
	}
}

// Close departs the connection (not the membership): an orderly leave
// with no pending collectives keeps the rank a member so it can rejoin
// after a process restart. Use Depart to shrink the job.
func (c *ClusterClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	c.conn.SetWriteDeadline(time.Now().Add(time.Second))                  //nolint:errcheck
	proto.Write(c.conn, &c.hdr, &frame{Op: opLeave, Tag: uint32(c.rank)}) //nolint:errcheck
	err := c.conn.Close()
	c.conn = nil
	return err
}
