package kernel

import (
	"testing"
	"unsafe"
)

// TestShardStateCacheLineAligned: the state a shard writes on every
// event — its Kernel (clock, heap header, argument buffer), its event
// heap's backing array, and each hook site's fire counter — starts on a
// 128-byte boundary and fills whole 128-byte blocks, so no two shards
// of a Pool write to the same cache line pair.
func TestShardStateCacheLineAligned(t *testing.T) {
	if s := unsafe.Sizeof(Kernel{}); s%cacheLine != 0 {
		t.Errorf("Kernel is %d bytes, want a multiple of %d", s, cacheLine)
	}
	if s := unsafe.Sizeof(hookSite{}); s != cacheLine {
		t.Errorf("hookSite is %d bytes, want %d", s, cacheLine)
	}
	if s := uintptr(initialQueueCap) * unsafe.Sizeof(event{}); s%cacheLine != 0 {
		t.Errorf("initial event heap is %d bytes, want a multiple of %d", s, cacheLine)
	}
	p := NewPool(4, 0)
	for i, k := range p.Shards() {
		k.Attach("io_done", func(*Kernel, string, []float64) {})
		k.Every(0, Microsecond, 0, func(Time) {})
		addrs := []struct {
			what string
			p    unsafe.Pointer
		}{
			{"kernel", unsafe.Pointer(k)},
			{"event heap", unsafe.Pointer(unsafe.SliceData(k.queue))},
			{"hook site", unsafe.Pointer(k.lookup("io_done"))},
		}
		for _, a := range addrs {
			if uintptr(a.p)%cacheLine != 0 {
				t.Errorf("shard %d: %s at %#x is not %d-byte aligned", i, a.what, uintptr(a.p), cacheLine)
			}
		}
	}
}
