package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// The WAL talks to storage through a narrow file-system interface so crash
// safety is provable: production runs on OSFS (real files, real fsync),
// tests run on MemFS, and the recovery invariants are swept under FaultFS —
// a seeded fault plan that cuts writes short, fails fsyncs, and "crashes
// the machine" after a chosen number of durable bytes. Every fault decision
// is a pure function of the plan, so a failing seed replays exactly.

// File is the writable handle the WAL appends through.
type File interface {
	io.Writer
	// Sync flushes the file's written bytes to durable storage.
	Sync() error
	Close() error
}

// FS is the file-system surface the WAL needs. Paths are plain strings;
// implementations may interpret them relative to any root.
type FS interface {
	MkdirAll(dir string) error
	// ReadFile returns the file's full contents; a missing file surfaces
	// fs.ErrNotExist.
	ReadFile(name string) ([]byte, error)
	// OpenAppend opens name for appending, creating it when absent.
	OpenAppend(name string) (File, error)
	Truncate(name string, size int64) error
	// Create opens name truncated to empty, creating it when absent, and
	// SyncDir flushes directory metadata. The WAL calls neither: tests plant
	// files with Create, and benchmark/_tracer's counting FS forwards both.
	Create(name string) (File, error)
	SyncDir(dir string) error
}

// --- OSFS -------------------------------------------------------------------

// OSFS is the production file system.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	// Best effort: some filesystems refuse directory fsync.
	_ = d.Sync()
	return d.Close()
}

// --- MemFS ------------------------------------------------------------------

// MemFS is an in-memory FS for deterministic tests. It models the page
// cache / durable-storage split: Write lands in the file's data, Sync marks
// it durable, and DurableImage returns what a crash would preserve.
type MemFS struct {
	mu sync.Mutex
	//itm:guardedby mu
	files map[string]*memFile
}

type memFile struct {
	data    []byte
	durable int // prefix of data known flushed (advanced by Sync)
}

// NewMemFS returns an empty in-memory file system.
//
//itmlint:allow deadexport test support: the in-memory FS mapstore's recovery, crash and fuzz tests journal through
func NewMemFS() *MemFS { return &MemFS{files: map[string]*memFile{}} }

func (m *MemFS) MkdirAll(string) error { return nil }

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return nil, fmt.Errorf("memfs: %s: %w", name, fs.ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

// file returns (creating on demand) the named file's record.
//
//itm:locked mu
func (m *MemFS) file(name string, truncate bool) *memFile {
	f := m.files[name]
	if f == nil {
		f = &memFile{}
		m.files[name] = f
	}
	if truncate {
		f.data = f.data[:0]
		f.durable = 0
	}
	return f
}

func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &memHandle{fs: m, name: name}, nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.file(name, true)
	return &memHandle{fs: m, name: name}, nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return fmt.Errorf("memfs: %s: %w", name, fs.ErrNotExist)
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("memfs: truncate %s to %d (have %d)", name, size, len(f.data))
	}
	f.data = f.data[:size]
	if f.durable > int(size) {
		f.durable = int(size)
	}
	return nil
}

func (m *MemFS) SyncDir(string) error { return nil }

type memHandle struct {
	fs   *MemFS
	name string
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f := h.fs.file(h.name, false)
	f.data = append(f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f := h.fs.file(h.name, false)
	f.durable = len(f.data)
	return nil
}

func (h *memHandle) Close() error { return nil }

// --- FaultFS ----------------------------------------------------------------

// Injected fault errors. ErrCrash poisons the FS: once a crash fires, every
// later operation fails with it, like a process whose machine went down.
var (
	ErrCrash      = errors.New("walfs: simulated crash")
	ErrShortWrite = errors.New("walfs: injected short write")
	ErrSyncFailed = errors.New("walfs: injected fsync failure")
)

// FaultPlan is a deterministic fault schedule for one FaultFS. The zero
// plan injects nothing.
type FaultPlan struct {
	// CrashAfterBytes crashes the FS once this many total bytes have been
	// written across all files; the write that crosses the boundary lands
	// only its prefix (the torn tail a real power cut leaves). 0 = never.
	CrashAfterBytes int64
	// ShortWriteEvery cuts every Nth write in half, landing the prefix and
	// returning ErrShortWrite. 0 = never.
	ShortWriteEvery int
	// FailSyncEvery fails every Nth Sync with ErrSyncFailed (the bytes stay
	// in the "page cache", not durable). 0 = never.
	FailSyncEvery int
}

// FaultFS wraps a MemFS with a FaultPlan. All fault decisions are counts
// against the plan — no randomness inside the FS, so a scenario replays
// identically; tests derive the plan itself from a seed.
type FaultFS struct {
	mem  *MemFS
	plan FaultPlan

	mu sync.Mutex
	//itm:guardedby mu
	written int64
	//itm:guardedby mu
	writes int
	//itm:guardedby mu
	syncs int
	//itm:guardedby mu
	crashed bool
}

// NewFaultFS wraps mem with plan.
//
//itmlint:allow deadexport test support: mapstore's crash sweep cuts the journal at every byte through it
func NewFaultFS(mem *MemFS, plan FaultPlan) *FaultFS {
	return &FaultFS{mem: mem, plan: plan}
}

// Crashed reports whether the simulated crash has fired.
//
//itmlint:allow deadexport test support: tells a crash sweep whether its byte budget was reached
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// CrashImage returns the file system a reboot would find: everything
// written up to the crash (fsynced bytes are durable for sure; the torn
// in-flight write survives as the partial tail it left on the device).
//
//itmlint:allow deadexport test support: the file system a reboot would find, which mapstore's crash sweep recovers from
func (f *FaultFS) CrashImage() *MemFS {
	f.mem.mu.Lock()
	defer f.mem.mu.Unlock()
	files := make(map[string]*memFile, len(f.mem.files))
	for name, file := range f.mem.files {
		files[name] = &memFile{data: append([]byte(nil), file.data...), durable: len(file.data)}
	}
	return &MemFS{files: files}
}

func (f *FaultFS) check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrash
	}
	return nil
}

func (f *FaultFS) MkdirAll(dir string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.mem.MkdirAll(dir)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.mem.ReadFile(name)
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	h, err := f.mem.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{fs: f, inner: h}, nil
}

func (f *FaultFS) Create(name string) (File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	h, err := f.mem.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{fs: f, inner: h}, nil
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.mem.Truncate(name, size)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.mem.SyncDir(dir)
}

type faultHandle struct {
	fs    *FaultFS
	inner File
}

func (h *faultHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	if h.fs.crashed {
		h.fs.mu.Unlock()
		return 0, ErrCrash
	}
	h.fs.writes++
	// Crash boundary: land only the prefix that fit before the power cut.
	if c := h.fs.plan.CrashAfterBytes; c > 0 && h.fs.written+int64(len(p)) > c {
		keep := int(c - h.fs.written)
		if keep < 0 {
			keep = 0
		}
		h.fs.written = c
		h.fs.crashed = true
		h.fs.mu.Unlock()
		if keep > 0 {
			_, _ = h.inner.Write(p[:keep])
		}
		return keep, ErrCrash
	}
	if n := h.fs.plan.ShortWriteEvery; n > 0 && h.fs.writes%n == 0 && len(p) > 1 {
		keep := len(p) / 2
		h.fs.written += int64(keep)
		h.fs.mu.Unlock()
		_, _ = h.inner.Write(p[:keep])
		return keep, ErrShortWrite
	}
	h.fs.written += int64(len(p))
	h.fs.mu.Unlock()
	return h.inner.Write(p)
}

func (h *faultHandle) Sync() error {
	h.fs.mu.Lock()
	if h.fs.crashed {
		h.fs.mu.Unlock()
		return ErrCrash
	}
	h.fs.syncs++
	if n := h.fs.plan.FailSyncEvery; n > 0 && h.fs.syncs%n == 0 {
		h.fs.mu.Unlock()
		return ErrSyncFailed
	}
	h.fs.mu.Unlock()
	return h.inner.Sync()
}

func (h *faultHandle) Close() error {
	if err := h.fs.check(); err != nil {
		return err
	}
	return h.inner.Close()
}
