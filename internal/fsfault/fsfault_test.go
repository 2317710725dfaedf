package fsfault

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// write opens path through fs (append+create) and writes each payload as one
// Write call, returning the per-call errors.
func write(t *testing.T, fs FS, path string, payloads ...string) []error {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	errs := make([]error, len(payloads))
	for i, p := range payloads {
		_, errs[i] = io.WriteString(f, p)
	}
	return errs
}

func readAll(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestFailWriteOrdinal pins the ENOSPC fault: exactly the targeted write
// fails, nothing of it reaches the file, and writes before/after pass.
func TestFailWriteOrdinal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	in := NewInjector(nil, Plan{FailWrite: 2})
	errs := write(t, in, path, "one\n", "two\n", "three\n")
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("untargeted writes failed: %v", errs)
	}
	if !errors.Is(errs[1], syscall.ENOSPC) {
		t.Fatalf("write 2: err %v, want ENOSPC", errs[1])
	}
	if got := readAll(t, path); got != "one\nthree\n" {
		t.Fatalf("file %q; the failed write must persist nothing", got)
	}
	if in.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", in.Fired())
	}
}

// TestShortWriteTearsPayload pins the torn-write fault: half the payload
// persists and io.ErrShortWrite is reported — the shape of a power loss
// mid-append.
func TestShortWriteTearsPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	in := NewInjector(nil, Plan{ShortWrite: 2})
	errs := write(t, in, path, "intact-1\n", "torn-record\n")
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !errors.Is(errs[1], io.ErrShortWrite) {
		t.Fatalf("torn write: err %v, want ErrShortWrite", errs[1])
	}
	if got := readAll(t, path); got != "intact-1\ntorn-r" {
		t.Fatalf("file %q; want the first half of the torn payload persisted", got)
	}
}

// TestFlipBitIsSilent pins the silent-corruption fault: the write reports
// full success while one chosen bit is inverted on disk — only a checksum
// can see it.
func TestFlipBitIsSilent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	in := NewInjector(nil, Plan{FlipBit: 1, FlipBitIndex: 0})
	errs := write(t, in, path, "abc")
	if errs[0] != nil {
		t.Fatalf("flipped write must report success, got %v", errs[0])
	}
	want := string([]byte{'a' ^ 1, 'b', 'c'})
	if got := readAll(t, path); got != want {
		t.Fatalf("file %q, want %q (bit 0 flipped)", got, want)
	}
	// Out-of-range indices clamp into the payload instead of panicking.
	path2 := filepath.Join(t.TempDir(), "g")
	in2 := NewInjector(nil, Plan{FlipBit: 1, FlipBitIndex: 9999})
	write(t, in2, path2, "xy")
	if got := readAll(t, path2); got == "xy" {
		t.Fatal("clamped flip did not corrupt the payload")
	}
}

// TestFailSyncLeavesDataIntact pins the fsync fault: Sync reports EIO, the
// bytes already written stay untouched, and the next Sync succeeds.
func TestFailSyncLeavesDataIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	in := NewInjector(nil, Plan{FailSync: 1})
	f, err := in.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := io.WriteString(f, "data\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync 1: err %v, want EIO", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 2 (untargeted): %v", err)
	}
	if got := readAll(t, path); got != "data\n" {
		t.Fatalf("file %q changed by a failed fsync", got)
	}
}

// TestCustomErrorsAndTempFiles pins that plans can override the fault errors
// and that CreateTemp handles route through the same counters (the journal's
// salvage rewrite writes through a temp file).
func TestCustomErrorsAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	custom := errors.New("custom disk error")
	in := NewInjector(nil, Plan{FailWrite: 1, WriteErr: custom})
	f, err := in.CreateTemp(dir, "tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := io.WriteString(f, "x"); !errors.Is(err, custom) {
		t.Fatalf("temp write: err %v, want custom error", err)
	}
	if in.writes != 1 {
		t.Fatalf("writes = %d, want 1", in.writes)
	}
}

// TestZeroPlanPassesThrough: an injector with an empty plan behaves exactly
// like the real filesystem.
func TestZeroPlanPassesThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	in := NewInjector(osFS{}, Plan{})
	for _, err := range write(t, in, path, "a\n", "b\n") {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := readAll(t, path); got != "a\nb\n" {
		t.Fatalf("file %q", got)
	}
	if in.Fired() != 0 {
		t.Fatalf("Fired = %d on an empty plan", in.Fired())
	}
}
