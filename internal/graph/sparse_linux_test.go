package graph

import (
	"syscall"
	"testing"
	"unsafe"
)

// sparseFloats returns n zero float64s that take memory only where they are
// written: a private anonymous mapping reserved without swap, unmapped when
// the test ends. It lets a gather read columns near 2^31 with a handful of
// resident pages.
func sparseFloats(t *testing.T, n int) []float64 {
	t.Helper()
	b, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		t.Fatalf("mapping %d sparse float64s: %v", n, err)
	}
	t.Cleanup(func() { syscall.Munmap(b) })
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}
