package live

import (
	"fmt"

	"dlfs/internal/coord"
	"dlfs/internal/peercache"
)

// Cooperative peer sample cache (Config.PeerCache, cluster mounts only).
//
// Every rank hosts a peercache.Server answering samples out of its own
// V-bit read cache (or, on a serve-side miss, its own local target).
// Ownership is consistent and coordination-free: the owner of sample i
// is rank nodeOf[i] — the same HomeNode placement that decided which
// target stores the bytes — so the owner's "origin" read is a local
// fetch and every rank independently agrees whom to ask. A ReadSample
// miss on a non-owner first asks the owner peer; only if the peer is
// dead, slow, or declines does the read fall back to the origin target
// directly. The effect is FanStore's: a sample crosses the storage wire
// once per cluster (the owner pulls it), then fans out over the cheap
// peer fabric instead of once per rank over the target wire.
//
// Degradation, never stalls: all peer failures are typed
// (peercache.ErrUnavailable / ErrMiss), counted as PeerFallbacks, and
// bounded by PeerFetchTimeout — a chaos-killed peer costs one deadline,
// after which the read completes from origin exactly as if the peer
// cache were off.

// peerSet is one rank's view of the cooperative cache: its own server
// plus a client per peer rank (nil at the self slot).
type peerSet struct {
	self    int
	addr    string // this rank's bound service address
	srv     *peercache.Server
	clients []*peercache.Client
}

func (ps *peerSet) close() {
	if ps.srv != nil {
		ps.srv.Close() //nolint:errcheck
	}
	for _, cl := range ps.clients {
		if cl != nil {
			cl.Close() //nolint:errcheck
		}
	}
}

// startPeerCache hosts this rank's share of the cooperative cache and
// exchanges service addresses with the other ranks (one extra allgather
// on the mount path). Called by mountWithSession after the FS is built.
func (fs *FS) startPeerCache(cl *coord.ClusterClient) error {
	opt := peercache.Options{
		DialTimeout:    fs.cfg.PeerFetchTimeout,
		RequestTimeout: fs.cfg.PeerFetchTimeout,
		Release:        fs.Recycle,
	}
	srv := peercache.NewServer(fs.servePeer, opt)
	addr, err := srv.Listen(fs.cfg.PeerCacheListen)
	if err != nil {
		return err
	}
	addrs, err := cl.Allgather(gatherPeers, []byte(addr))
	if err != nil {
		srv.Close() //nolint:errcheck
		return err
	}
	ps := &peerSet{self: fs.rank, addr: addr, srv: srv, clients: make([]*peercache.Client, len(addrs))}
	for r, a := range addrs {
		if r == fs.rank {
			continue
		}
		ps.clients[r] = peercache.NewClient(string(a), opt)
	}
	fs.peers = ps
	return nil
}

// PeerAddr reports this rank's peer-cache service address ("" when the
// peer cache is off).
func (fs *FS) PeerAddr() string {
	if fs.peers == nil {
		return ""
	}
	return fs.peers.addr
}

// servePeer answers one peer request: this rank's read cache first,
// then this rank's own target. It never consults other peers — the
// requester already resolved ownership, so recursing would only add a
// hop (or a cycle). Returned buffers are pooled; the server recycles
// them after the write via Options.Release.
func (fs *FS) servePeer(idx int) ([]byte, error) {
	if fs.closed.Load() {
		return nil, ErrClosed
	}
	if idx < 0 || idx >= fs.ds.Len() {
		return nil, fmt.Errorf("%w: index %d", ErrNotFound, idx)
	}
	if fs.scache != nil {
		if hit := fs.scache.get(idx); hit != nil {
			fs.pipe.PeerServed.Add(1)
			return hit, nil
		}
	}
	buf, err := fs.readOrigin(idx)
	if err == nil {
		fs.pipe.PeerServed.Add(1)
	}
	return buf, err
}

// peerFetch tries the owning peer for sample idx. nil means the caller
// must read from origin; every failure is counted as a fallback and the
// sample's correctness never depends on the peer answering.
func (fs *FS) peerFetch(owner, idx, size int) []byte {
	cl := fs.peers.clients[owner]
	if cl == nil {
		return nil
	}
	data, err := cl.Fetch(idx, fs.alloc)
	if err != nil {
		fs.pipe.PeerFallbacks.Add(1)
		return nil
	}
	if len(data) != size {
		fs.Recycle(data)
		fs.pipe.PeerFallbacks.Add(1)
		return nil
	}
	fs.pipe.PeerHits.Add(1)
	fs.pipe.PeerBytes.Add(int64(len(data)))
	return data
}
