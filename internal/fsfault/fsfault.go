// Package fsfault is the disk-fault injection seam of the durable-storage
// stack: a narrow filesystem interface (FS) the journal and the server's job
// store write through, a pass-through implementation backed by package os,
// and a deterministic Injector that makes precisely chosen operations fail
// the way real disks fail — a write refused with ENOSPC, a write torn short,
// an fsync reporting EIO, a bit silently flipped inside the payload.
//
// Faults are targeted by operation count (the Nth write, the Nth sync across
// the injector), so a test drives the exact same fault at the exact same
// byte every run — the same philosophy as internal/chaos, one layer down the
// stack. The injected failures mirror the OS contract: a failed or short
// write still persists its prefix (that is what makes torn tails), a failed
// fsync leaves the file contents untouched, and a bit flip succeeds silently
// (the whole point: only checksums can catch it).
//
// Crash-safety tests assert the end-to-end property the durability layer
// promises: every injected fault is either fully recovered (torn/corrupt
// tails truncated at the next open, valid prefix replayed byte-identically)
// or surfaced as a typed guard.ErrStorage error — never silent corruption.
package fsfault

import (
	"io"
	"os"
	"sync"
	"syscall"

	"fnpr/internal/obs"
)

// File is the write-side file handle the durability layer uses. *os.File
// implements it.
type File interface {
	io.Writer
	// Sync flushes written data to stable storage (fsync).
	Sync() error
	io.Closer
	// Name returns the file's path as opened.
	Name() string
}

// FS is the filesystem surface the journal and job store touch. OS is the
// real implementation; Injector wraps any FS with deterministic faults.
type FS interface {
	// OpenFile opens name like os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a temp file like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads name like os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// Rename renames like os.Rename (the atomic-install step).
	Rename(oldpath, newpath string) error
	// Remove removes like os.Remove.
	Remove(name string) error
	// MkdirAll creates a directory tree like os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
}

// Real normalizes an FS handle: nil selects the pass-through OS
// implementation, anything else is returned as-is.
func Real(fs FS) FS {
	if fs == nil {
		return osFS{}
	}
	return fs
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Plan selects which faults an Injector fires, each targeted at one
// operation ordinal (1-based, counted across every file the injector opened;
// zero disables the fault). The counters advance deterministically with the
// write/sync sequence, so a fixed plan reproduces the same fault at the same
// byte on every run.
type Plan struct {
	// FailWrite makes the Nth write fail with WriteErr (default ENOSPC)
	// before any byte reaches the file — the disk-full refusal.
	FailWrite int64
	// WriteErr is the error FailWrite returns; nil selects syscall.ENOSPC.
	WriteErr error

	// ShortWrite tears the Nth write: only the first half of the payload
	// (at least one byte) is persisted and io.ErrShortWrite is reported —
	// the torn tail a power loss leaves behind.
	ShortWrite int64

	// FlipBit corrupts the Nth write silently: the write succeeds in full,
	// reports success, but bit FlipBitIndex of the payload is inverted on
	// its way to the device — detectable only by checksum.
	FlipBit int64
	// FlipBitIndex is the bit to invert, counted from the start of the
	// write's payload (bit k of byte k/8). It is clamped into the payload.
	FlipBitIndex int

	// FailSync makes the Nth Sync fail with SyncErr (default EIO). The
	// file's contents are untouched — the data simply is not known durable.
	FailSync int64
	// SyncErr is the error FailSync returns; nil selects syscall.EIO.
	SyncErr error
}

// Injector is a deterministic fault-injecting FS. Safe for concurrent use;
// operation ordinals are assigned in the order writes and syncs reach it.
type Injector struct {
	inner FS
	plan  Plan

	mu     sync.Mutex
	writes int64
	syncs  int64
	fired  int64
}

// NewInjector wraps inner (nil = the real OS) with the faults plan selects.
func NewInjector(inner FS, plan Plan) *Injector {
	if plan.WriteErr == nil {
		plan.WriteErr = syscall.ENOSPC
	}
	if plan.SyncErr == nil {
		plan.SyncErr = syscall.EIO
	}
	return &Injector{inner: Real(inner), plan: plan}
}

// Fired returns how many faults the injector has injected so far.
func (in *Injector) Fired() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// writeAction decides what happens to the next write.
type writeAction int

const (
	writePass writeAction = iota
	writeFail
	writeShort
	writeFlip
)

func (in *Injector) nextWrite() writeAction {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.writes++
	switch in.writes {
	case in.plan.FailWrite:
		in.fired++
		mWriteErrors.In(obs.Default()).Inc()
		return writeFail
	case in.plan.ShortWrite:
		in.fired++
		mShortWrites.In(obs.Default()).Inc()
		return writeShort
	case in.plan.FlipBit:
		in.fired++
		mBitFlips.In(obs.Default()).Inc()
		return writeFlip
	}
	return writePass
}

func (in *Injector) nextSync() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.syncs++
	if in.syncs == in.plan.FailSync {
		in.fired++
		mSyncErrors.In(obs.Default()).Inc()
		return true
	}
	return false
}

// OpenFile implements FS; the returned handle routes writes and syncs
// through the fault plan.
func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, in: in}, nil
}

// CreateTemp implements FS; temp files get the same fault treatment (the
// journal's recovery rewrite goes through one).
func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	f, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, in: in}, nil
}

// ReadFile implements FS (reads are never faulted — corruption is injected
// on the write side, where real disks corrupt).
func (in *Injector) ReadFile(name string) ([]byte, error) { return in.inner.ReadFile(name) }

// Rename implements FS.
func (in *Injector) Rename(oldpath, newpath string) error { return in.inner.Rename(oldpath, newpath) }

// Remove implements FS.
func (in *Injector) Remove(name string) error { return in.inner.Remove(name) }

// MkdirAll implements FS.
func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	return in.inner.MkdirAll(path, perm)
}

// faultFile applies the injector's plan to one open file.
type faultFile struct {
	File
	in *Injector
}

func (f *faultFile) Write(p []byte) (int, error) {
	switch f.in.nextWrite() {
	case writeFail:
		return 0, f.in.plan.WriteErr
	case writeShort:
		n := len(p) / 2
		if n == 0 && len(p) > 0 {
			n = 1
		}
		wrote, err := f.File.Write(p[:n])
		if err != nil {
			return wrote, err
		}
		return wrote, io.ErrShortWrite
	case writeFlip:
		q := make([]byte, len(p))
		copy(q, p)
		if len(q) > 0 {
			idx := f.in.plan.FlipBitIndex
			if idx < 0 {
				idx = 0
			}
			if idx/8 >= len(q) {
				idx = (len(q) - 1) * 8
			}
			q[idx/8] ^= 1 << (idx % 8)
		}
		return f.File.Write(q)
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.in.nextSync() {
		return f.in.plan.SyncErr
	}
	return f.File.Sync()
}
