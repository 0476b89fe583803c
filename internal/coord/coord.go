// Package coord is the live-path control plane for multi-node DLFS
// mounts: a TCP coordinator giving N ranks the two collectives the
// paper's mount needs — a barrier and the allgather that replicates
// every node's serialized AVL directory partition to all nodes
// (§III-B2). It is the real-socket counterpart of the simulated
// cluster.Job collectives.
//
// There is one coordinator, ReplicatedServer: a Raft replica set sized
// for the job's world, of which a single-coordinator deployment is the
// one-replica case (it elects itself and commits alone). Every rank
// dials the set with JoinCluster and gets a ClusterClient. Collectives
// are named, so a program can run several independent barriers and
// gathers over one connection. The client is synchronous: one collective
// in flight per rank, which matches mount's phase structure.
//
// Failure model: the leader watches every member connection. A dropped
// connection is ambiguous — the rank may be dead, or reconnecting after
// a leader failover — so the leader waits ReplicatedOptions.RankGrace
// for a rejoin before it replicates the loss; every surviving rank's
// pending (and future) collective then fails with a *PeerLostError
// naming the lost rank instead of wedging the job. A rank that leaves
// in an orderly way while a collective is pending is declared lost at
// once. Clients bound each wait with Options.WaitTimeout and each
// leader search with Options.ResolveTimeout, so a dead coordinator
// cannot wedge them either, and a rank may start before its
// coordinator does.
//
// Framing is internal/wire's, with the sender's rank as the frame's tag
// (all integers little-endian):
//
//	frame := magic(u32) | opcode(u8) | rank(u32) | length(u32) | payload
//
// Join carries the world size; Barrier and Gather carry a 16-bit
// name-length-prefixed collective name (Gather followed by the blob);
// the Blobs response carries the name, a u32 count, then count
// rank-tagged length-prefixed blobs; Abort carries the lost rank
// (0xFFFFFFFF when the fault is not attributable) and a reason string.
package coord

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dlfs/internal/wire"
)

// Magic guards against cross-protocol connections ("DLCO").
const Magic = 0x444C434F

// Opcodes.
const (
	opJoin byte = iota + 1
	opJoinOK
	opBarrier
	opRelease
	opGather
	opBlobs
	opLeave
	opAbort
	opDepart   // client → leader: leave the job at a declared cut
	opRedirect // server → client: not the leader; payload is the leader addr
	opStatus   // client → any replica: report leader/term/epoch/members
	opStatusOK // server → client: gob-encoded ClusterStatus
)

// Limits: a directory partition blob is 16 B per sample, so 1 GiB covers
// 67 M samples per node — far past the paper's 50 M-sample budget. Every
// other opcode is a small control frame (names are ≤255 B, status is a
// gob struct with one entry per rank), so those get a much tighter cap:
// a corrupt length prefix on a control frame must not be able to demand
// a gigabyte.
const (
	maxPayload        = 1 << 30
	maxControlPayload = 64 << 10
	maxName           = 255
)

// payloadLimit returns the largest payload an opcode may carry. Only the
// two blob-bearing opcodes get the big cap; unknown opcodes are treated
// as control frames (they will be rejected by the dispatcher anyway, but
// must not be able to trigger a huge allocation first).
func payloadLimit(op byte) uint32 {
	switch op {
	case opGather, opBlobs:
		return maxPayload
	default:
		return maxControlPayload
	}
}

// noRank is the abort payload's rank when the fault is not attributable
// to a specific member.
const noRank = ^uint32(0)

// Errors.
var (
	// ErrPeerLost marks a collective aborted because a member rank died.
	// Match with errors.Is; the concrete error is a *PeerLostError.
	ErrPeerLost = errors.New("coord: peer lost")
	// ErrWaitTimeout marks a collective that outlived Options.WaitTimeout.
	ErrWaitTimeout = errors.New("coord: collective wait timed out")
	// ErrClosed reports use of a closed client or server.
	ErrClosed = errors.New("coord: closed")
	// ErrProtocol reports a malformed or unexpected frame.
	ErrProtocol = errors.New("coord: protocol error")
	// ErrFrameTooLarge marks a frame whose length prefix exceeds the
	// opcode's payload cap. Match with errors.Is; the concrete error is a
	// *FrameSizeError.
	ErrFrameTooLarge = errors.New("coord: frame exceeds size limit")
	// ErrNoLeader reports that no coordinator replica could be resolved
	// to a leader within the client's budget.
	ErrNoLeader = errors.New("coord: no leader")
)

// FrameSizeError reports an oversized frame: which opcode, the claimed
// payload length, and the cap it broke. It unwraps to both
// ErrFrameTooLarge and ErrProtocol.
type FrameSizeError = wire.FrameSizeError

// proto is DLCO over the shared frame codec; a frame's tag is the
// sender's rank.
var proto = wire.Proto{Magic: Magic, Limit: payloadLimit, Malformed: ErrProtocol, TooLarge: ErrFrameTooLarge}

// frame is one wire message in either direction.
type frame = wire.Frame

// PeerLostError reports which rank died and what the survivors were
// waiting on. It unwraps to ErrPeerLost.
type PeerLostError struct {
	Rank   int    // lost rank, -1 when not attributable
	Reason string // coordinator-side detail
}

func (e *PeerLostError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("coord: peer lost (%s)", e.Reason)
	}
	return fmt.Sprintf("coord: rank %d lost (%s)", e.Rank, e.Reason)
}

// Unwrap lets errors.Is(err, ErrPeerLost) match.
func (e *PeerLostError) Unwrap() error { return ErrPeerLost }

// packName prefixes name with its 16-bit length.
func packName(name string, rest []byte) []byte {
	out := make([]byte, 2+len(name)+len(rest))
	binary.LittleEndian.PutUint16(out[0:2], uint16(len(name)))
	copy(out[2:], name)
	copy(out[2+len(name):], rest)
	return out
}

// unpackName splits a 16-bit length-prefixed name from its payload.
func unpackName(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, fmt.Errorf("%w: short name", ErrProtocol)
	}
	n := int(binary.LittleEndian.Uint16(p[0:2]))
	if n > maxName || len(p) < 2+n {
		return "", nil, fmt.Errorf("%w: bad name length", ErrProtocol)
	}
	return string(p[2 : 2+n]), p[2+n:], nil
}

// abortPayload packs the lost rank and reason for an opAbort frame.
func abortPayload(rank uint32, reason string) []byte {
	out := make([]byte, 4+len(reason))
	binary.LittleEndian.PutUint32(out[0:4], rank)
	copy(out[4:], reason)
	return out
}

// abortError decodes an opAbort payload into the typed error.
func abortError(p []byte) error {
	if len(p) < 4 {
		return &PeerLostError{Rank: -1, Reason: "unspecified"}
	}
	r := binary.LittleEndian.Uint32(p[0:4])
	e := &PeerLostError{Rank: -1, Reason: string(p[4:])}
	if r != noRank {
		e.Rank = int(r)
	}
	return e
}

// Options tunes a client.
type Options struct {
	DialTimeout time.Duration // dial + join handshake bound (default 10s)
	// WaitTimeout bounds each collective wait, failovers included
	// (default 60s; <0 disables). It is the client-side backstop for a
	// dead coordinator; a dead peer is reported by the leader once the
	// peer has stayed away for ReplicatedOptions.RankGrace.
	WaitTimeout time.Duration
	// ResolveTimeout bounds a leader search — the total budget for
	// sweeping the replica set with backoff until one answers as leader
	// (default 30s). It is also how long a rank that starts before its
	// coordinator keeps trying before JoinCluster returns ErrNoLeader.
	ResolveTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.WaitTimeout == 0 {
		o.WaitTimeout = 60 * time.Second
	}
	if o.ResolveTimeout <= 0 {
		o.ResolveTimeout = 30 * time.Second
	}
	return o
}
