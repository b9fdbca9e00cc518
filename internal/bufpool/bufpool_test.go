package bufpool

import "testing"

func TestGetLengthAndClass(t *testing.T) {
	for _, n := range []int{0, 1, MinClass - 1, MinClass, MinClass + 1, 4096, MaxClass} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len %d", n, len(b))
		}
		if c := cap(b); c < MinClass || c&(c-1) != 0 {
			t.Fatalf("Get(%d): cap %d is not a pool class", n, c)
		}
		Put(b)
	}
}

func TestOversizedFallsThrough(t *testing.T) {
	b := Get(MaxClass + 1)
	if len(b) != MaxClass+1 {
		t.Fatalf("len %d", len(b))
	}
	Put(b) // dropped: not a class size — must not panic or poison a pool
}

func TestPutForeignBufferDropped(t *testing.T) {
	// A buffer not carved to a class capacity (e.g. sliced from a larger
	// one) must be rejected, or a later Get would return a short class.
	raw := make([]byte, MinClass*3)
	Put(raw[:MinClass*3]) // cap 1536: not a power of two
	b := Get(MinClass * 2)
	if c := cap(b); c&(c-1) != 0 {
		t.Fatalf("pool served non-class cap %d", c)
	}
}

func TestRecycles(t *testing.T) {
	b := Get(4096)
	b[0] = 0xaa
	Put(b)
	// Contents are undefined but the buffer should (usually) come back;
	// assert only that a recycled buffer has the requested length.
	b2 := Get(4096)
	if len(b2) != 4096 {
		t.Fatalf("len %d", len(b2))
	}
}

// TestSteadyStateAllocFree is the property the pool exists for: once
// warm, a Get/Put cycle performs zero heap allocations — including the
// *[]byte box Put parks the slice header in, which is itself recycled.
func TestSteadyStateAllocFree(t *testing.T) {
	if Debug {
		t.Skip("tankdebug hooks allocate (first-Put stacks) by design")
	}
	// Warm the class and the box pool.
	for i := 0; i < 8; i++ {
		Put(Get(4096))
	}
	avg := testing.AllocsPerRun(100, func() {
		b := Get(4096)
		Put(b)
	})
	// sync.Pool may occasionally miss across GC cycles; anything near
	// one alloc per cycle means the box recycling is broken.
	if avg > 0.5 {
		t.Fatalf("steady-state Get/Put allocates %.2f times per cycle", avg)
	}
}
