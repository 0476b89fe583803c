package main

import (
	"reflect"
	"sort"
	"syscall"
	"time"
)

const gib = float64(1 << 30)

// stat is one reported metric: the median of its samples in this run,
// their quartiles and how many there were. A metric measured once in a
// run (a counter ratio, peak RSS) has N = 1 and Q1 = Q3 = Value.
type stat struct {
	Value float64
	Q1    float64
	Q3    float64
	N     int
}

func scalar(v float64) stat { return stat{Value: v, Q1: v, Q3: v, N: 1} }

func statOf(v []float64) stat {
	if len(v) == 0 {
		return stat{}
	}
	q1, med, q3 := quartiles(v)
	return stat{Value: med, Q1: q1, Q3: q3, N: len(v)}
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the "exclusive" method), so spreads computed here match the
// ones the benchmark's bounds are judged by.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := i * (len(s) + 1)
		j := m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 { return statOf(v).Value }

// quantileNs returns the q-th quantile (nearest rank) of sorted
// nanosecond latencies, in microseconds.
func quantileUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// div is a/b, and 0 when the denominator is 0: a layer the workload
// never exercised reports 0, not NaN.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// rusage reports the process's user+system CPU seconds and its peak
// resident set in MiB (ru_maxrss is KiB on Linux).
func rusage() (cpuSeconds, peakRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// addInts adds sign x every int64 field of src into the matching field
// of dst, recursing into nested structs; dst and src point to the same
// struct type. The metrics snapshots are flat structs of int64
// counters, so this sums them across targets and ranks and takes the
// delta of two snapshots without naming fifty fields.
func addInts(dst, src any, sign int64) {
	addValue(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem(), sign)
}

func addValue(d, s reflect.Value, sign int64) {
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(f.Int() + sign*s.Field(i).Int())
		case reflect.Struct:
			addValue(f, s.Field(i), sign)
		}
	}
}
