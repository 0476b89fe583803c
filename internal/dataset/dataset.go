// Package dataset generates and describes the synthetic training datasets
// the benchmarks read. The paper measures a "dummy dataset with random
// values as the sample content" for all throughput figures and uses the
// ImageNet and IMDB size distributions for Fig 1; both are reproduced here.
//
// Every sample has deterministic pseudo-random content derived from the
// dataset seed and the sample index, so any reader — DLFS through its SPDK
// path, the Ext4 model through the kernel path, a remote client through the
// TCP target — can verify end-to-end that the bytes it got are the bytes
// the generator produced, without storing a golden copy.
package dataset

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"

	"dlfs/internal/sample"
)

// SizeDist generates sample sizes. Implementations must be deterministic
// for a given source.
type SizeDist interface {
	// SampleSize returns the size in bytes of the next sample.
	SampleSize(rng *rand.Rand) int
	// Name identifies the distribution in tables.
	Name() string
}

// Fixed is a distribution where every sample has the same size, as the
// paper's micro-benchmarks use (512 B .. 1 MB).
type Fixed int

// SampleSize returns the fixed size.
func (f Fixed) SampleSize(*rand.Rand) int { return int(f) }

// Name implements SizeDist.
func (f Fixed) Name() string { return fmt.Sprintf("fixed-%dB", int(f)) }

// LogNormal is a lognormal size distribution clamped to [Min, Max].
type LogNormal struct {
	Mu, Sigma float64 // of the underlying normal, size in bytes = e^N(mu, sigma)
	Min, Max  int
	Label     string
}

// SampleSize draws from the distribution.
func (l LogNormal) SampleSize(rng *rand.Rand) int {
	v := math.Exp(rng.NormFloat64()*l.Sigma + l.Mu)
	n := int(v)
	if n < l.Min {
		n = l.Min
	}
	if l.Max > 0 && n > l.Max {
		n = l.Max
	}
	return n
}

// Name implements SizeDist.
func (l LogNormal) Name() string { return l.Label }

// ImageNetDist models the ImageNet JPEG size distribution: the paper
// reports ~75% of samples below 147 KB (Fig 1). A lognormal with median
// ~100 KB and sigma 0.57 puts the 75th percentile at ~147 KB.
func ImageNetDist() LogNormal {
	return LogNormal{Mu: math.Log(100 << 10), Sigma: 0.57, Min: 2 << 10, Max: 1 << 22, Label: "imagenet"}
}

// IMDBDist models the IMDB text-sample distribution: ~75% of samples below
// 1.6 KB. Median ~1.1 KB, sigma 0.55 → p75 ≈ 1.6 KB.
func IMDBDist() LogNormal {
	return LogNormal{Mu: math.Log(1100), Sigma: 0.55, Min: 64, Max: 64 << 10, Label: "imdb"}
}

// Sample describes one training sample in a dataset manifest.
type Sample struct {
	Index int    // position in the dataset
	Name  string // file/sample name, e.g. "train/000000042"
	Size  int    // bytes
	Class int    // label, for class-attributed keys
}

// Key returns the 48-bit directory key for the sample.
func (s Sample) Key() uint64 {
	return sample.KeyOf(s.Name, fmt.Sprintf("class%d", s.Class))
}

// Dataset is a manifest of samples plus the generator parameters needed to
// materialise their contents deterministically.
type Dataset struct {
	Label      string
	Seed       int64
	NumClasses int
	Samples    []Sample

	totalBytes int64
}

// Config parameterises Generate.
type Config struct {
	Label      string
	Seed       int64
	NumSamples int
	NumClasses int // default 10
	Dist       SizeDist
}

// Generate builds a dataset manifest. Contents are not materialised here;
// use Content/FillContent per sample.
func Generate(cfg Config) *Dataset {
	if cfg.NumClasses <= 0 {
		cfg.NumClasses = 10
	}
	if cfg.Dist == nil {
		cfg.Dist = Fixed(128 << 10)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{Label: cfg.Label, Seed: cfg.Seed, NumClasses: cfg.NumClasses}
	ds.Samples = make([]Sample, cfg.NumSamples)
	for i := range ds.Samples {
		size := cfg.Dist.SampleSize(rng)
		ds.Samples[i] = Sample{
			Index: i,
			Name:  fmt.Sprintf("%s/train/%08d", cfg.Label, i),
			Size:  size,
			Class: rng.Intn(cfg.NumClasses),
		}
		ds.totalBytes += int64(size)
	}
	return ds
}

// Len reports the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// TotalBytes reports the sum of all sample sizes.
func (d *Dataset) TotalBytes() int64 { return d.totalBytes }

// MeanSize reports the average sample size in bytes.
func (d *Dataset) MeanSize() float64 {
	if len(d.Samples) == 0 {
		return 0
	}
	return float64(d.totalBytes) / float64(len(d.Samples))
}

// FillContent writes the deterministic content of sample i into buf, which
// must be at least Samples[i].Size long. The content is a keyed xorshift
// stream: cheap, deterministic, and unique per (dataset seed, index).
func (d *Dataset) FillContent(i int, buf []byte) {
	s := d.Samples[i]
	if len(buf) < s.Size {
		panic("dataset: FillContent buffer too small")
	}
	fillDeterministic(d.Seed, int64(i), buf[:s.Size])
}

// Content allocates and returns the content of sample i.
func (d *Dataset) Content(i int) []byte {
	buf := make([]byte, d.Samples[i].Size)
	d.FillContent(i, buf)
	return buf
}

// Checksum returns the CRC32 (Castagnoli) of sample i's content without
// allocating the whole sample when it is large.
func (d *Dataset) Checksum(i int) uint32 {
	return crc32.Checksum(d.Content(i), castagnoli)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumBytes hashes arbitrary bytes with the same table, for verifying
// data read back through a file system.
func ChecksumBytes(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// fillDeterministic generates a reproducible byte stream for (seed, idx):
// the little-endian words of an xorshift64* sequence, the last one cut
// to fit.
func fillDeterministic(seed, idx int64, buf []byte) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(idx)*0xBF58476D1CE4E5B9
	if x == 0 {
		x = 0x2545F4914F6CDD1D
	}
	for len(buf) > 0 {
		// xorshift64*
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		w := x * 0x2545F4914F6CDD1D
		if len(buf) < 8 {
			var word [8]byte
			binary.LittleEndian.PutUint64(word[:], w)
			copy(buf, word[:])
			return
		}
		binary.LittleEndian.PutUint64(buf, w)
		buf = buf[8:]
	}
}

// Shard returns the sample indices assigned to node nid of n nodes under
// the block partitioning DLFS mount uses: contiguous ranges so each node
// uploads a contiguous region of the dataset to its device.
func (d *Dataset) Shard(nid, n int) []int {
	if n <= 0 || nid < 0 || nid >= n {
		return nil
	}
	total := len(d.Samples)
	lo := total * nid / n
	hi := total * (nid + 1) / n
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// SizeCDF returns (sizes, cumulative fraction) pairs at the given
// percentile probes, for regenerating Fig 1.
func (d *Dataset) SizeCDF(percentiles []float64) []CDFPoint {
	sizes := make([]int, len(d.Samples))
	for i, s := range d.Samples {
		sizes[i] = s.Size
	}
	sort.Ints(sizes)
	out := make([]CDFPoint, 0, len(percentiles))
	for _, p := range percentiles {
		if len(sizes) == 0 {
			out = append(out, CDFPoint{Percentile: p})
			continue
		}
		idx := int(p / 100 * float64(len(sizes)-1))
		out = append(out, CDFPoint{Percentile: p, SizeBytes: sizes[idx]})
	}
	return out
}

// CDFPoint is one point of a size CDF.
type CDFPoint struct {
	Percentile float64
	SizeBytes  int
}
