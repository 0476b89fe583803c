package bufpool

import (
	"sync"
	"testing"
)

func TestClassRounding(t *testing.T) {
	p := New()
	for _, n := range []int{1, 511, 512, 513, 4096, (4 << 20)} {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) len = %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 {
			t.Fatalf("Get(%d) cap %d not a power of two", n, c)
		}
		p.Put(b)
	}
}

func TestRecycleHit(t *testing.T) {
	p := New()
	a := p.Get(1000)
	p.Put(a)
	b := p.Get(900)
	if &a[0] != &b[0] {
		// sync.Pool may drop buffers under GC pressure, but in a quiet
		// unit test the buffer must come back.
		t.Fatal("recycled buffer not reused")
	}
	hits, misses, puts := p.Stats()
	if hits != 1 || misses != 1 || puts != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", hits, misses, puts)
	}
	if r := p.HitRate(); r != 0.5 {
		t.Fatalf("hit rate = %v", r)
	}
}

// TestGetPutDoesNotAllocate pins the package comment's promise for every
// class: once a class holds a buffer, a Get+Put pair allocates nothing,
// not even the box a slice in a sync.Pool would cost.
func TestGetPutDoesNotAllocate(t *testing.T) {
	p := New()
	for bits := minClassBits; bits <= maxClassBits; bits++ {
		n := 1<<bits - 1
		p.Put(p.Get(n))
		if allocs := testing.AllocsPerRun(100, func() { p.Put(p.Get(n)) }); allocs != 0 {
			t.Errorf("class %d B: %.0f allocs per Get+Put, want 0", 1<<bits, allocs)
		}
	}
	if hits, _, _ := p.Stats(); hits == 0 {
		t.Fatal("steady state never hit the pool")
	}
}

func TestOversizedFallsThrough(t *testing.T) {
	p := New()
	n := (4 << 20) + 1
	b := p.Get(n)
	if len(b) != n {
		t.Fatalf("len %d", len(b))
	}
	p.Put(b) // must be a silent drop
	if _, _, puts := p.Stats(); puts != 0 {
		t.Fatal("oversized buffer was pooled")
	}
}

func TestForeignPutIgnored(t *testing.T) {
	p := New()
	p.Put(make([]byte, 700)) // cap 700 is not a class size
	if _, _, puts := p.Stats(); puts != 0 {
		t.Fatal("foreign slice was pooled")
	}
	if b := p.Get(700); len(b) != 700 {
		t.Fatal("Get after foreign Put broken")
	}
}

func TestConcurrentGetPut(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := p.Get(512 + (g+i)%4096)
				b[0] = byte(i)
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkGetPut is one buffer out and back, and the shape NextBatch and
// RecycleItems give the pool: a batch of 32 out, then 32 back. Run with
// -benchmem: both read 0 B/op.
func BenchmarkGetPut(b *testing.B) {
	b.Run("pair", func(b *testing.B) {
		p := New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Put(p.Get(1300))
		}
	})
	b.Run("batch32", func(b *testing.B) {
		p := New()
		var held [32][]byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range held {
				held[j] = p.Get(1300)
			}
			for _, buf := range held {
				p.Put(buf)
			}
		}
	})
}
