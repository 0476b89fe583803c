package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// The box this benchmark runs on is a shared two-core VM whose loopback
// TCP throughput drifts by a quarter over a few seconds, and the live
// path, which is mostly loopback TCP, drifts with it: the medians of
// back-to-back 6 s windows of one imagenet-cold process ranged from
// 1.47 to 2.06 GiB/s, and ten runs on ten seeds spread 14.5% between
// their quartiles. No window that fits the run budget averages that
// out. So every gated time-based metric is a ratio to what the kernel's
// loopback path moves, and what it costs in CPU, at that moment: a
// short burst through plain loopback sockets runs in the gaps between
// units, and each unit is divided by the mean of the bursts either side
// of it. The same ten runs then spread 3.6%. It is also the paper's own
// kind of headline (Fig 11: a fraction of what the device and NIC
// deliver). The absolute numbers are still printed by every run, and
// reported, ungated, from the traced run.

const (
	burstLength = 30 * time.Millisecond
	burstEvery  = 150 * time.Millisecond // at most one burst per this much measuring
)

// reference is one burst's result.
type reference struct {
	gibPerS   float64 // payload through raw loopback sockets, one stream per core
	cpuPerGiB float64 // process CPU seconds per GiB of that payload
}

// calibrator owns one loopback stream per core. A stream is driven from
// one goroutine that writes a block into one end and then reads it back
// out of the other, so a burst measures the kernel's loopback path (the
// copies in and out, the softirq in between) and not how the scheduler
// happens to place a writer and a reader.
type calibrator struct {
	streams []stream
	block   []byte
}

type stream struct {
	w, r *net.TCPConn
	in   []byte
}

// burstBlock is small enough to sit whole in the stream's socket
// buffers, which are pinned at burstBuffer so autotuning cannot move
// them between runs.
const (
	burstBlock  = 256 << 10
	burstBuffer = 1 << 20
)

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close() //nolint:errcheck // loopback listener
	c := &calibrator{block: make([]byte, burstBlock)}
	for s := 0; s < runtime.NumCPU(); s++ {
		w, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			c.close()
			return nil, err
		}
		r, err := ln.Accept()
		if err != nil {
			w.Close() //nolint:errcheck // loopback conn
			c.close()
			return nil, err
		}
		st := stream{w: w.(*net.TCPConn), r: r.(*net.TCPConn), in: make([]byte, burstBlock)}
		c.streams = append(c.streams, st)
		if err := errors.Join(st.w.SetWriteBuffer(burstBuffer), st.r.SetReadBuffer(burstBuffer)); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// burst moves blocks through every stream for burstLength.
func (c *calibrator) burst() (reference, error) {
	var wg sync.WaitGroup
	moved := make([]int64, len(c.streams))
	errs := make([]error, len(c.streams))
	cpu0, _ := rusage()
	t0 := time.Now()
	for i, st := range c.streams {
		wg.Add(1)
		go func(i int, st stream) {
			defer wg.Done()
			for time.Since(t0) < burstLength && errs[i] == nil {
				if _, errs[i] = st.w.Write(c.block); errs[i] == nil {
					_, errs[i] = io.ReadFull(st.r, st.in)
					moved[i] += burstBlock
				}
			}
		}(i, st)
	}
	wg.Wait()
	el := time.Since(t0)
	cpu1, _ := rusage()
	if err := errors.Join(errs...); err != nil {
		return reference{}, fmt.Errorf("reference burst: %w", err)
	}
	var total int64
	for _, n := range moved {
		total += n
	}
	g := float64(total) / gib
	return reference{gibPerS: g / el.Seconds(), cpuPerGiB: (cpu1 - cpu0) / g}, nil
}

func (c *calibrator) close() {
	for _, st := range c.streams {
		st.w.Close() //nolint:errcheck // loopback conn
		st.r.Close() //nolint:errcheck // loopback conn
	}
}
