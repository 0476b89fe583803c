// Package chaos provides seeded, deterministic fault injection for the
// live NVMe-oF TCP path. It wraps net.Conn and net.Listener with
// configurable faults — injected delay, connection kills, bandwidth
// throttling, byte corruption, and mid-capsule disconnects — and offers
// a man-in-the-middle Proxy that sits between initiators and a real
// target so tests can prove every recovery path without touching the
// production transport code.
//
// All randomness derives from Config.Seed plus a per-connection
// sequence number, so a given seed and traffic pattern replays the same
// fault schedule.
package chaos

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes the injected faults. The zero value forwards traffic
// untouched. Probabilities are evaluated once per forwarded segment
// (one Read call's worth of bytes).
type Config struct {
	Seed        int64
	DropProb    float64       // probability of killing the connection
	DelayProb   float64       // probability of inserting Delay
	Delay       time.Duration // how long a delay fault stalls the segment
	CorruptProb float64       // probability of flipping one byte in the segment
	// ThrottleBytesPerSec caps forwarded bandwidth (0 = unlimited).
	ThrottleBytesPerSec int64
	// MaxConnBytes kills a connection after it has carried this many
	// bytes (0 = never): the disconnect lands mid-capsule by design.
	MaxConnBytes int64
}

// Stats counts the faults a Proxy or Listener actually injected.
type Stats struct {
	Conns          int64 // connections opened
	Kills          int64 // connections killed by a fault
	Delays         int64 // delay faults fired
	Corruptions    int64 // corruption faults fired
	Masked         int64 // request capsules whose opcode a MaskOps proxy hid
	BytesForwarded int64
}

// counters is the shared mutable backing for Stats.
type counters struct {
	conns, kills, delays, corruptions, masked, bytes atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Conns:          c.conns.Load(),
		Kills:          c.kills.Load(),
		Delays:         c.delays.Load(),
		Corruptions:    c.corruptions.Load(),
		Masked:         c.masked.Load(),
		BytesForwarded: c.bytes.Load(),
	}
}

// Conn wraps a net.Conn with fault injection on both Read and Write.
// Faults are drawn from a per-connection seeded source, so two runs with
// the same seed and traffic see the same schedule.
type Conn struct {
	net.Conn
	cfg  Config
	st   *counters
	mu   sync.Mutex // guards rng (Read and Write may race)
	rng  *rand.Rand
	left *int64 // remaining MaxConnBytes budget, shared across directions

	killOnce sync.Once
	killed   atomic.Bool
}

// Wrap returns a fault-injecting view of c. seq distinguishes
// connections sharing a Config (each gets an independent deterministic
// schedule).
func Wrap(c net.Conn, cfg Config, seq int64) *Conn {
	left := cfg.MaxConnBytes
	return &Conn{
		Conn: c,
		cfg:  cfg,
		st:   &counters{},
		rng:  rand.New(rand.NewSource(cfg.Seed*0x9E3779B9 + seq)),
		left: &left,
	}
}

// Stats reports the faults this connection injected.
func (c *Conn) Stats() Stats { return c.st.snapshot() }

// Killed reports whether a fault terminated the connection.
func (c *Conn) Killed() bool { return c.killed.Load() }

func (c *Conn) kill() {
	c.killOnce.Do(func() {
		c.killed.Store(true)
		c.st.kills.Add(1)
		c.Conn.Close() //nolint:errcheck
	})
}

// decide draws this segment's fault actions under the rng lock.
func (c *Conn) decide(n int) (delay bool, drop bool, corrupt int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.DelayProb > 0 && c.rng.Float64() < c.cfg.DelayProb {
		delay = true
	}
	if c.cfg.DropProb > 0 && c.rng.Float64() < c.cfg.DropProb {
		drop = true
	}
	corrupt = -1
	if c.cfg.CorruptProb > 0 && n > 0 && c.rng.Float64() < c.cfg.CorruptProb {
		corrupt = c.rng.Intn(n)
	}
	return delay, drop, corrupt
}

// apply runs the fault schedule for a segment of n bytes whose data
// lives in buf[:n] (buf may be nil when the data is not mutable).
// It reports whether the connection survives the segment.
func (c *Conn) apply(buf []byte, n int) bool {
	delay, drop, corrupt := c.decide(n)
	if delay {
		c.st.delays.Add(1)
		time.Sleep(c.cfg.Delay)
	}
	if drop {
		c.kill()
		return false
	}
	if corrupt >= 0 && buf != nil {
		buf[corrupt] ^= 0x80
		c.st.corruptions.Add(1)
	}
	if c.cfg.ThrottleBytesPerSec > 0 && n > 0 {
		time.Sleep(time.Duration(float64(n) / float64(c.cfg.ThrottleBytesPerSec) * float64(time.Second)))
	}
	if c.cfg.MaxConnBytes > 0 {
		if atomic.AddInt64(c.left, -int64(n)) < 0 {
			c.kill()
			return false
		}
	}
	c.st.bytes.Add(int64(n))
	return true
}

// Read reads from the underlying connection, then applies the fault
// schedule to the received segment.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.apply(p[:n], n) {
		return 0, net.ErrClosed
	}
	return n, err
}

// Write applies the fault schedule to the outgoing segment, then writes
// it. A corruption fault mutates the caller's buffer in place (the
// wrapped transport would have put those bytes on the wire anyway).
func (c *Conn) Write(p []byte) (int, error) {
	if !c.apply(p, len(p)) {
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// Listener wraps a net.Listener so every accepted connection carries the
// fault config, each with its own deterministic schedule.
type Listener struct {
	net.Listener
	cfg Config
	seq atomic.Int64
	st  *counters
}

// WrapListener returns a fault-injecting view of ln.
func WrapListener(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, cfg: cfg, st: &counters{}}
}

// Accept wraps the next connection with a per-connection schedule.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	wc := Wrap(c, l.cfg, l.seq.Add(1))
	wc.st = l.st
	l.st.conns.Add(1)
	return wc, nil
}

// Stats aggregates fault counts across accepted connections.
func (l *Listener) Stats() Stats { return l.st.snapshot() }
