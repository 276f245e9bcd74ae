package featurestore

import (
	"testing"
	"unsafe"
)

// TestCellCacheLineAligned: every cell, written on each SAVE, owns a
// whole 128-byte block, so shards interning keys side by side never
// write to one cache line pair.
func TestCellCacheLineAligned(t *testing.T) {
	if s := unsafe.Sizeof(cell{}); s != 128 {
		t.Fatalf("cell is %d bytes, want 128", s)
	}
	s := NewSharded(4)
	s.RegisterAggregate("lat_ma", AggMean)
	for i, sh := range s.Shards() {
		sh.Intern("err_rate")
		for id, c := range *sh.cells.Load() {
			if uintptr(unsafe.Pointer(c))%128 != 0 {
				t.Errorf("shard %d: cell %q at %#x is not 128-byte aligned", i, sh.Name(ID(id)), uintptr(unsafe.Pointer(c)))
			}
		}
	}
}
