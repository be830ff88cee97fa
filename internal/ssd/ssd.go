// Package ssd simulates a page-granular flash storage device.
//
// The simulator models the two properties of SSDs that MultiLogVC's design
// reasons about: page-granular access (the minimum read/write unit is one
// page, typically 16KB) and multi-channel parallelism (pages are striped
// across independent channels; a batch of page requests completes when the
// busiest channel drains its queue).
//
// A Device hosts named Files. All engines in this repository perform their
// storage IO through a shared Device, which counts pages and bytes moved
// and accumulates a virtual storage clock. Because every engine pays the
// same per-page cost on the same device model, relative performance between
// engines depends only on how many pages they touch and how well they batch
// — exactly the quantities the paper's evaluation varies.
//
// Files may be backed by RAM (fast, for tests and benchmarks) or by real
// files in a directory (for the CLI tools). The accounting is identical for
// both backings.
package ssd

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
)

// DefaultPageSize is the SSD page size used throughout the paper (16KB).
const DefaultPageSize = 16 * 1024

// Config describes a simulated device.
type Config struct {
	// PageSize is the read/write granularity in bytes. Defaults to 16KB.
	PageSize int
	// Channels is the number of independent flash channels pages are
	// striped across. Defaults to 8.
	Channels int
	// PageReadLatency is the service time for one page read on one
	// channel. Defaults to 50µs (≈ 16KB at ~320MB/s per channel).
	PageReadLatency time.Duration
	// PageWriteLatency is the service time for one page program on one
	// channel. Defaults to 70µs.
	PageWriteLatency time.Duration
	// Dir, if non-empty, backs files with real files in this directory.
	// Otherwise files live in RAM.
	Dir string
	// Capacity, when positive, is the device byte quota: a write that
	// would grow total allocated pages past Capacity runs the registered
	// space reclaimers (see AddReclaimer), retries once, and then fails
	// with ErrNoSpace. 0 models an infinite device (the pre-governance
	// default).
	Capacity int64
	// Retry is the transient-fault retry policy applied on every page
	// operation. The zero value selects the default of 3 retries; set
	// Retry.MaxRetries to -1 to disable retrying.
	Retry RetryPolicy
}

// RetryPolicy bounds how the device retries operations that fail with a
// transient error (ErrTransient). Backoff is exponential with jitter and
// is charged to the *virtual* storage clock (Stats.RetryBackoff), never to
// host time, so retried runs stay fast and deterministic in tests.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first failed
	// attempt. 0 selects the default (3); negative disables retrying.
	MaxRetries int
}

// The retry backoff schedule: the first retry waits up to retryBaseBackoff,
// each later one doubles the window up to retryMaxBackoff, and the jitter
// inside each window comes from a PRNG seeded with retryJitterSeed.
const (
	retryBaseBackoff = 100 * time.Microsecond
	retryMaxBackoff  = 10 * time.Millisecond
	retryJitterSeed  = 1
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0 // normalized: no re-attempts
	}
	return p
}

func (c Config) withDefaults() Config {
	if c.PageSize <= 0 {
		c.PageSize = DefaultPageSize
	}
	if c.Channels <= 0 {
		c.Channels = 8
	}
	if c.PageReadLatency <= 0 {
		c.PageReadLatency = 50 * time.Microsecond
	}
	if c.PageWriteLatency <= 0 {
		c.PageWriteLatency = 70 * time.Microsecond
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// Stats is a snapshot of the device counters.
//
// Beyond the flat totals, the device keeps power-of-two distributions of
// how well callers batch: pages per request (the quantity FlashGraph and
// BigSparse attribute their wins to), the busiest channel's excess queue
// depth over a perfectly striped batch (0 = no imbalance), and the virtual
// service latency per batch. Engines surface per-superstep deltas of these
// in metrics.SuperstepStats.
type Stats struct {
	PagesRead     uint64
	PagesWritten  uint64
	BytesRead     uint64
	BytesWritten  uint64
	BatchReads    uint64 // number of read batch submissions
	BatchWrites   uint64
	ReadTime      time.Duration // virtual time spent reading
	WriteTime     time.Duration // virtual time spent writing
	FilesCreated  uint64
	FilesRemoved  uint64
	FileTruncates uint64

	// Transient-fault accounting: attempts that failed with ErrTransient,
	// the retries issued against them, retry budgets that ran dry, and the
	// virtual backoff time charged while waiting to retry.
	TransientFaults  uint64
	Retries          uint64
	RetriesExhausted uint64
	RetryBackoff     time.Duration

	// Integrity accounting: pages whose checksum verification failed on a
	// read path, and stored pages the injection machinery damaged.
	CorruptPages        uint64
	CorruptionsInjected uint64

	// Capacity accounting: growth attempts denied for lack of space (real
	// quota or injected), reclamation sweeps run in response, and the bytes
	// those sweeps freed.
	NoSpaceFaults  uint64
	Reclaims       uint64
	ReclaimedBytes uint64

	ReadBatchPages  obsv.Hist // pages per read batch
	WriteBatchPages obsv.Hist // pages per write batch
	ReadImbalance   obsv.Hist // busiest-channel depth minus ceil(pages/channels), per read batch
	WriteImbalance  obsv.Hist // same for write batches
	ReadLatencyUS   obsv.Hist // virtual service time per read batch, µs
	WriteLatencyUS  obsv.Hist // virtual service time per write batch, µs

	// Stages attributes the same traffic to the pipeline stage that issued
	// it (see IOScope.SetStage; unscoped IO is StageOther). Every charge
	// lands in exactly one stage, so for any snapshot delta the per-stage
	// counters sum to the global ones:
	// Σ Stages[i].PagesRead == PagesRead, Σ Stages[i].Time == StorageTime().
	Stages [obsv.NumStages]StageStats
}

// StageStats is the per-stage slice of the device counters: pages moved,
// the virtual time they cost (service latency plus retry backoff charged
// while the stage was active), and how the attached page cache treated the
// stage's reads (both zero on uncached devices).
type StageStats struct {
	PagesRead    uint64
	PagesWritten uint64
	Time         time.Duration
	CacheHits    uint64 // cached pages the stage's reads found resident
	CacheMisses  uint64 // pages the stage's reads had to fetch
}

// Sub returns s - t, counter-wise (same contract as Stats.Sub).
func (s StageStats) Sub(t StageStats) StageStats {
	return StageStats{
		PagesRead:    s.PagesRead - t.PagesRead,
		PagesWritten: s.PagesWritten - t.PagesWritten,
		Time:         s.Time - t.Time,
		CacheHits:    s.CacheHits - t.CacheHits,
		CacheMisses:  s.CacheMisses - t.CacheMisses,
	}
}

// StorageTime returns the total virtual time charged to the device,
// including backoff stalls spent waiting out transient faults.
func (s Stats) StorageTime() time.Duration { return s.ReadTime + s.WriteTime + s.RetryBackoff }

// Sub returns s - t, counter-wise. Useful for measuring a phase:
// take a snapshot before and after, then Sub.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		PagesRead:     s.PagesRead - t.PagesRead,
		PagesWritten:  s.PagesWritten - t.PagesWritten,
		BytesRead:     s.BytesRead - t.BytesRead,
		BytesWritten:  s.BytesWritten - t.BytesWritten,
		BatchReads:    s.BatchReads - t.BatchReads,
		BatchWrites:   s.BatchWrites - t.BatchWrites,
		ReadTime:      s.ReadTime - t.ReadTime,
		WriteTime:     s.WriteTime - t.WriteTime,
		FilesCreated:  s.FilesCreated - t.FilesCreated,
		FilesRemoved:  s.FilesRemoved - t.FilesRemoved,
		FileTruncates: s.FileTruncates - t.FileTruncates,

		TransientFaults:  s.TransientFaults - t.TransientFaults,
		Retries:          s.Retries - t.Retries,
		RetriesExhausted: s.RetriesExhausted - t.RetriesExhausted,
		RetryBackoff:     s.RetryBackoff - t.RetryBackoff,

		CorruptPages:        s.CorruptPages - t.CorruptPages,
		CorruptionsInjected: s.CorruptionsInjected - t.CorruptionsInjected,

		NoSpaceFaults:  s.NoSpaceFaults - t.NoSpaceFaults,
		Reclaims:       s.Reclaims - t.Reclaims,
		ReclaimedBytes: s.ReclaimedBytes - t.ReclaimedBytes,

		ReadBatchPages:  s.ReadBatchPages.Sub(t.ReadBatchPages),
		WriteBatchPages: s.WriteBatchPages.Sub(t.WriteBatchPages),
		ReadImbalance:   s.ReadImbalance.Sub(t.ReadImbalance),
		WriteImbalance:  s.WriteImbalance.Sub(t.WriteImbalance),
		ReadLatencyUS:   s.ReadLatencyUS.Sub(t.ReadLatencyUS),
		WriteLatencyUS:  s.WriteLatencyUS.Sub(t.WriteLatencyUS),

		Stages: s.subStages(t),
	}
}

func (s Stats) subStages(t Stats) [obsv.NumStages]StageStats {
	var out [obsv.NumStages]StageStats
	for i := range out {
		out[i] = s.Stages[i].Sub(t.Stages[i])
	}
	return out
}

// Device is a simulated multi-channel SSD hosting named files. A *Device
// is a handle: every handle of one device shares its files, counters and
// faults, and differs only in the IOScope it attributes IO to (see
// Scoped). Open returns the unscoped handle.
type Device struct {
	*device
	scope *IOScope // stamped on every file opened through this handle
}

// device is the state every handle of one Device shares.
type device struct {
	cfg   Config
	cache *pagecache.Cache // optional buffer pool; see AttachCache
	pool  pagePool         // free RAM pages of truncated and removed files (no Dir)

	mu         sync.Mutex
	files      map[string]*File
	nextFileID uint32
	stats      Stats

	// Fault injection (see fault.go): the armed FaultPlan, compiled by
	// SetFaults. Each *Armed flag caches "this gate has work to do" so a
	// healthy device pays one atomic load per gate; noSpaceArmed also
	// covers the Capacity quota.
	crashArmed   bool
	crashLeft    int64 // page operations left before every one fails
	transient    injector
	corrupt      injector
	noSpace      injector
	corruptOnly  string
	faultArmed   atomic.Bool
	corruptArmed atomic.Bool
	noSpaceArmed atomic.Bool

	retryRNG  uint64 // jitter PRNG state, distinct from fault injection
	usedPages int64  // allocated pages across live files (see capacity.go)

	reclaimMu     sync.Mutex
	reclaimers    map[int]func()
	nextReclaimID int
}

// AttachCache installs a page cache in front of the device. Cached reads
// are served from memory and charge nothing to the virtual storage clock —
// that is the point. Must be called while no IO is in flight, with an empty
// cache: from then on write-through keeps it coherent. A nil cache leaves
// the device uncached (the default, matching the paper's model). The engines
// take the cache from the device (Cache) for their per-superstep counters.
func (d *Device) AttachCache(c *pagecache.Cache) { d.cache = c }

// Cache returns the attached page cache, or nil.
func (d *Device) Cache() *pagecache.Cache { return d.cache }

// ErrInjected is the error a crashed device returns (FaultPlan.Crash). It
// models a permanent fault: once the crash depth is reached every
// subsequent operation fails and no amount of retrying helps.
var ErrInjected = errors.New("ssd: injected device failure")

// ErrTransient is the error produced by transient fault injection
// (FaultPlan.Transient). It models the recoverable
// read/write errors real flash arrays return under load: a retry of the
// same operation is a fresh attempt and may succeed. The device's retry
// policy absorbs transient faults invisibly unless the budget runs out.
var ErrTransient = errors.New("ssd: transient device error")

// ErrRetriesExhausted wraps ErrTransient when an operation kept failing
// transiently past the retry budget. errors.Is reports true for both
// ErrRetriesExhausted and ErrTransient on such errors.
var ErrRetriesExhausted = errors.New("ssd: transient-retry budget exhausted")

// splitmix64 advances the PRNG state and returns the next draw.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// opCheck is the fault gate on every page operation: it consumes attempt
// credits and absorbs transient faults by retrying with exponential
// backoff and jitter, charging the waits to the virtual storage clock.
// Permanent faults and exhausted budgets surface to the caller. The
// issuing scope's run context aborts the retry schedule, and its counters
// see the retry costs.
func (d *Device) opCheck(sc *IOScope) error {
	err := d.faultCheck(sc)
	if err == nil || !errors.Is(err, ErrTransient) {
		return err
	}
	backoff := retryBaseBackoff
	for attempt := 1; attempt <= d.cfg.Retry.MaxRetries; attempt++ {
		// A canceled run context aborts the schedule instead of burning the
		// remaining budget, so deadlines are not overshot by retries.
		if cerr := sc.runContextErr(); cerr != nil {
			return fmt.Errorf("ssd: retry abandoned after %d attempts: %w", attempt, cerr)
		}
		// Jittered delay in [backoff/2, backoff), deterministic per device.
		d.sleepRetry(backoff, sc)

		err = d.faultCheck(sc)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrTransient) {
			return err
		}
		backoff = min(2*backoff, retryMaxBackoff)
	}
	d.account(sc, 0, func(s *Stats, _ *StageStats) { s.RetriesExhausted++ })
	return fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, 1+d.cfg.Retry.MaxRetries, err)
}

// ErrNotExist is returned when opening or removing a file that does not
// exist on the device.
var ErrNotExist = errors.New("ssd: file does not exist")

// ErrExist is returned when creating a file that already exists.
var ErrExist = errors.New("ssd: file already exists")

// Open creates a Device with the given configuration. A disk-backed
// device (Dir set) adopts the files already present in the directory, so
// graphs built by an earlier process can be reopened (see csr.Open).
func Open(cfg Config) (*Device, error) {
	cfg = cfg.withDefaults()
	d := &Device{device: &device{cfg: cfg, files: make(map[string]*File), retryRNG: retryJitterSeed}}
	d.noSpaceArmed.Store(cfg.Capacity > 0)
	d.pool.max = poolMaxBytes / cfg.PageSize
	if cfg.Dir != "" {
		if err := d.adoptDir(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// adoptDir registers every regular file under the backing directory.
func (d *Device) adoptDir() error {
	root := d.cfg.Dir
	if _, err := os.Stat(root); os.IsNotExist(err) {
		return nil
	}
	return filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		if isSidecar(name) {
			return nil // checksum sidecars are store metadata, not device files
		}
		st, err := newDiskStore(root, name, d.cfg.PageSize)
		if err != nil {
			return err
		}
		d.nextFileID++
		f := &File{dev: d, id: d.nextFileID, name: name, chanBase: nameHash(name), s: &fileState{store: st}}
		// Without external metadata the best logical-size guess is the
		// allocated extent; csr.Open overrides it from its meta file.
		f.s.size = int64(st.numPages()) * int64(d.cfg.PageSize)
		d.usedPages += int64(st.numPages())
		d.files[name] = f
		return nil
	})
}

// MustOpen is Open that panics on error; convenient in tests and examples.
func MustOpen(cfg Config) *Device {
	d, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// PageSize returns the device page size in bytes.
func (d *Device) PageSize() int { return d.cfg.PageSize }

// Channels returns the number of flash channels.
func (d *Device) Channels() int { return d.cfg.Channels }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes all device counters, including the per-stage rows.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// Scoped returns a handle of the same device whose files — every one
// created or opened through it — charge their IO to sc as well as to the
// device totals. A run opens everything it touches through its scoped
// handle, so its scope sees exactly its own IO. A nil scope returns the
// unscoped handle, whose IO lands in the device totals under StageOther.
func (d *Device) Scoped(sc *IOScope) *Device {
	return &Device{device: d.device, scope: sc}
}

// Scope returns the scope this handle attributes IO to, nil for none.
func (d *Device) Scope() *IOScope { return d.scope }

// Create creates a new empty file. It fails if the name is taken.
func (d *Device) Create(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExist, name)
	}
	st, err := d.newStore(name)
	if err != nil {
		return nil, err
	}
	d.nextFileID++
	f := &File{dev: d, id: d.nextFileID, name: name, chanBase: nameHash(name), s: &fileState{store: st}}
	d.files[name] = f
	d.stats.FilesCreated++
	return f.Scoped(d.scope), nil
}

// OpenFile returns an existing file by name.
func (d *Device) OpenFile(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	return f.Scoped(d.scope), nil
}

// OpenOrCreate returns the named file, creating it if necessary.
func (d *Device) OpenOrCreate(name string) (*File, error) {
	d.mu.Lock()
	if f, ok := d.files[name]; ok {
		d.mu.Unlock()
		return f.Scoped(d.scope), nil
	}
	d.mu.Unlock()
	return d.Create(name)
}

// Remove deletes a file and releases its pages; on a disk-backed device
// the backing file and its checksum sidecar are unlinked, so a later Open
// of the directory does not adopt it. The store is released outside the
// device lock (file locks are never acquired under it), so a reclaimer
// invoked mid-write can remove stale files without deadlocking.
func (d *Device) Remove(name string) error {
	d.mu.Lock()
	f, ok := d.files[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	delete(d.files, name)
	d.stats.FilesRemoved++
	d.mu.Unlock()
	f.s.mu.Lock()
	np := f.s.store.numPages()
	err := f.s.store.remove()
	f.s.mu.Unlock()
	if c := f.cache(); c != nil {
		c.InvalidateFile(f.id, np)
	}
	d.freePages(np)
	return err
}

// Close closes every disk-backed file's data and checksum descriptors and
// flushes nothing: disk stores write through, so the files are left
// exactly as a killed process leaves them, and a later Open of the
// directory adopts them. A RAM device holds no descriptors. Close the
// device once, when it is done with; no file of it may be used after.
func (d *Device) Close() error {
	d.mu.Lock()
	files := make([]*File, 0, len(d.files))
	for _, f := range d.files {
		files = append(files, f)
	}
	d.mu.Unlock()
	var errs []error
	for _, f := range files { // file locks are never taken under d.mu
		f.s.mu.Lock()
		errs = append(errs, f.s.store.close())
		f.s.mu.Unlock()
	}
	return errors.Join(errs...)
}

// RemovePrefix removes every file whose name starts with prefix and
// returns the number removed. Serving runs namespace their scratch files
// under a per-query prefix and sweep them with one call when the query
// finishes or is shed; removal errors after the first are dropped in
// favor of removing as much as possible.
func (d *Device) RemovePrefix(prefix string) (int, error) {
	var firstErr error
	n := 0
	for _, name := range d.ListFiles() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if err := d.Remove(name); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n++
	}
	return n, firstErr
}

// Exists reports whether a file with the given name exists.
func (d *Device) Exists(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.files[name]
	return ok
}

// ListFiles returns the names of all files on the device, sorted.
func (d *Device) ListFiles() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (d *Device) newStore(name string) (store, error) {
	if d.cfg.Dir != "" {
		return newDiskStore(d.cfg.Dir, name, d.cfg.PageSize)
	}
	return newMemStore(d.cfg.PageSize, &d.pool), nil
}

// FileStats is the per-file IO counter set.
type FileStats struct {
	PagesRead    uint64
	PagesWritten uint64
	CorruptPages uint64 // checksum failures attributed to this file
}

// StatsByFile returns per-file page counters, keyed by file name. Useful
// for attributing traffic to graph data versus logs versus values, and
// corruption to the file it struck.
func (d *Device) StatsByFile() map[string]FileStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]FileStats, len(d.files))
	for name, f := range d.files {
		out[name] = FileStats{
			PagesRead:    f.s.pagesRead.Load(),
			PagesWritten: f.s.pagesWritten.Load(),
			CorruptPages: f.s.corrupt.Load(),
		}
	}
	return out
}

// account applies one counter update to the device totals and, for IO
// issued through a scope, to the scope's counters too, with st the row of
// the stage the scope is tagged with (StageOther for unscoped IO); moved
// pages also count toward the scope's tagged interval. Every charge the
// device makes goes through here, so a scope and the device cannot
// disagree about what a charge was.
func (d *Device) account(sc *IOScope, pages int, add func(s *Stats, st *StageStats)) {
	stage, iv := sc.stage()
	d.mu.Lock()
	add(&d.stats, &d.stats.Stages[stage])
	d.mu.Unlock()
	if sc == nil {
		return
	}
	sc.mu.Lock()
	add(&sc.stats, &sc.stats.Stages[stage])
	if iv >= 0 && pages > 0 {
		if sc.ivPages == nil {
			sc.ivPages = make(map[int]uint64)
		}
		sc.ivPages[iv] += uint64(pages)
	}
	sc.mu.Unlock()
}

// chargeRead charges a batch of page reads to the virtual clock: the batch
// completes when the busiest channel drains its queue of maxOnChan pages.
func (d *Device) chargeRead(npages int, maxOnChan int, sc *IOScope) {
	lat := time.Duration(maxOnChan) * d.cfg.PageReadLatency
	imbalance := uint64(maxOnChan - idealDepth(npages, d.cfg.Channels))
	d.account(sc, npages, func(s *Stats, st *StageStats) {
		s.PagesRead += uint64(npages)
		s.BytesRead += uint64(npages) * uint64(d.cfg.PageSize)
		s.BatchReads++
		s.ReadTime += lat
		s.ReadBatchPages.Observe(uint64(npages))
		s.ReadImbalance.Observe(imbalance)
		s.ReadLatencyUS.Observe(uint64(lat / time.Microsecond))
		st.PagesRead += uint64(npages)
		st.Time += lat
	})
}

func (d *Device) chargeWrite(npages int, maxOnChan int, sc *IOScope) {
	lat := time.Duration(maxOnChan) * d.cfg.PageWriteLatency
	imbalance := uint64(maxOnChan - idealDepth(npages, d.cfg.Channels))
	d.account(sc, npages, func(s *Stats, st *StageStats) {
		s.PagesWritten += uint64(npages)
		s.BytesWritten += uint64(npages) * uint64(d.cfg.PageSize)
		s.BatchWrites++
		s.WriteTime += lat
		s.WriteBatchPages.Observe(uint64(npages))
		s.WriteImbalance.Observe(imbalance)
		s.WriteLatencyUS.Observe(uint64(lat / time.Microsecond))
		st.PagesWritten += uint64(npages)
		st.Time += lat
	})
}

// noteCache attributes page-cache consult outcomes to the issuing scope's
// stage. Called at the device's cache consult points so per-stage hit/miss
// counts line up with the cache's own counters (see pagecache.Stats).
func (d *Device) noteCache(hits, misses int, sc *IOScope) {
	if hits == 0 && misses == 0 {
		return
	}
	d.account(sc, 0, func(_ *Stats, st *StageStats) {
		st.CacheHits += uint64(hits)
		st.CacheMisses += uint64(misses)
	})
}

// idealDepth is the busiest-channel depth of a perfectly striped batch:
// ceil(npages/channels). The imbalance histograms record how far the
// actual placement falls short of that bound.
func idealDepth(npages, channels int) int {
	return (npages + channels - 1) / channels
}

// maxPerChannel computes the depth of the busiest channel for a set of
// page indices belonging to a file whose stripe base is chanBase.
func maxPerChannel(chanBase uint32, channels int, pages []int) int {
	if len(pages) == 0 {
		return 0
	}
	if len(pages) == 1 {
		return 1
	}
	// On the stack for any realistic channel count: this runs once per batched
	// device read.
	var few [64]int
	counts := few[:]
	if channels > len(few) {
		counts = make([]int, channels)
	}
	maxc := 0
	for _, p := range pages {
		c := int((chanBase + uint32(p)) % uint32(channels))
		counts[c]++
		if counts[c] > maxc {
			maxc = counts[c]
		}
	}
	return maxc
}

func nameHash(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()
}
