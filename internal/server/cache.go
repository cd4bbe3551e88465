package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"sptrsv/internal/core"
	"sptrsv/internal/sparse"
)

// Handle is one uploaded (or generated) factored matrix: the upload-once
// half of the upload-once/solve-many API. It owns everything keyed by the
// matrix — the factored System, its default configuration, and a
// per-configuration cache of built solvers (plan, cached level schedule,
// and coalescer) — so every symbolic and scheduling cost is paid once per
// (matrix fingerprint × machine × grid × algorithm), shared by every
// request that names the handle, and dropped with it.
type Handle struct {
	ID          string // HandleID of the content hash and resolved factor options
	Fingerprint string // core fingerprint: n, nnz(LU), supernodes, depth
	Name        string // matrix name for generated analogs, "upload" else
	N, NNZ      int

	sys     *core.System
	lastUse time.Time // guarded by the owning handleCache's mu

	// def is the configuration solves use when they name none, resolved
	// once by Server.defaultConfig.
	def struct {
		once sync.Once
		cfg  core.Config
		err  error
	}

	mu    sync.Mutex
	slots map[string]*solverSlot
}

// solverSlot is the build-once cell for one configuration of a handle.
type solverSlot struct {
	once    sync.Once
	config  core.Config
	solver  *core.Solver
	coal    *coalescer // written once, under the owning Handle's mu
	err     error
	lastUse time.Time // guarded by the owning Handle's mu
}

// System exposes the factored system (read-only) for verification paths.
func (h *Handle) System() *core.System { return h.sys }

// Configs returns the cache keys of the solver configurations built so far.
func (h *Handle) Configs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	keys := make([]string, 0, len(h.slots))
	for k := range h.slots {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// maxSlotsPerHandle bounds the per-handle solver-slot map. Each slot holds
// a built plan and schedule (O(nnz) memory), so a client streaming distinct
// configurations must displace old slots rather than grow the map without
// bound. In-flight solves holding an evicted slot finish normally — the
// eviction unlinks it from the map and flushes its pending batch, which
// Shutdown's drain pass could no longer reach.
const maxSlotsPerHandle = 32

// slot returns the (possibly new, not yet built) solver slot for key,
// refreshing its LRU position. When creating the slot would exceed
// maxSlotsPerHandle, the least-recently-used slot is evicted first.
func (h *Handle) slot(key string, now time.Time) (sl *solverSlot, evicted bool) {
	var victim *coalescer
	h.mu.Lock()
	sl, ok := h.slots[key]
	if !ok {
		if len(h.slots) >= maxSlotsPerHandle {
			victim = h.evictSlotLocked()
			evicted = true
		}
		sl = &solverSlot{}
		h.slots[key] = sl
	}
	sl.lastUse = now
	h.mu.Unlock()
	if victim != nil {
		victim.drain()
	}
	return sl, evicted
}

// evictSlotLocked removes the least-recently-used slot and returns its
// coalescer (nil while the slot is still being built), which the caller
// drains once it has released h.mu. Caller holds h.mu.
func (h *Handle) evictSlotLocked() *coalescer {
	var victimKey string
	var victim *solverSlot
	for k, sl := range h.slots {
		if victim == nil || sl.lastUse.Before(victim.lastUse) {
			victimKey, victim = k, sl
		}
	}
	delete(h.slots, victimKey)
	return victim.coal
}

// ContentHash digests a matrix's full content — dimension, nonzero
// pattern, and numeric values — into a hex SHA-256. This (with the factor
// options, see HandleID), not the structural fingerprint, is what
// identifies a handle: two matrices with the same sparsity aggregates (or
// even the same pattern) but different values must not alias, or a solve
// against one would silently return the other's solution. The lossy core fingerprint stays the key of the
// plan/tune caches, where only structure matters.
func ContentHash(a *sparse.CSR) string {
	d := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.Write(buf[:])
	}
	word(uint64(a.N))
	for _, p := range a.RowPtr {
		word(uint64(p))
	}
	for _, c := range a.ColInd {
		word(uint64(c))
	}
	for _, v := range a.Val {
		word(math.Float64bits(v))
	}
	return hex.EncodeToString(d.Sum(nil))
}

// HandleID derives the public handle identifier from a matrix content
// hash and the factor options it is factored with, already resolved
// (core.FactorOptions.Resolve): a short digest, so the same matrix
// uploaded twice (by anyone) with options that factor alike lands on one
// handle, any other option set gets its own, and the server never stores
// the matrix bytes.
func HandleID(contentHash string, opt core.FactorOptions) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%s|depth=%d|maxsn=%d", contentHash, opt.TreeDepth, opt.MaxSupernode))
	return "m-" + hex.EncodeToString(sum[:])[:12]
}

// handleCache is the bounded handle store: one mutex over one map, with
// least-recently-used eviction beyond max handles.
type handleCache struct {
	max     int
	mu      sync.Mutex
	handles map[string]*Handle
}

func newHandleCache(max int) *handleCache {
	if max < 1 {
		max = 1
	}
	return &handleCache{max: max, handles: map[string]*Handle{}}
}

// get looks up a handle, refreshing its LRU position.
func (c *handleCache) get(id string, now time.Time) (*Handle, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.handles[id]
	if ok {
		h.lastUse = now
	}
	return h, ok
}

// add inserts a factored system under id (its HandleID). If the store
// already holds id — a concurrent upload of the same content and options
// won the race — it returns that handle with reused=true. Inserting beyond
// capacity evicts the least-recently-used handle, whose pending batches
// are drained once the lock is released.
func (c *handleCache) add(id string, sys *core.System, name string, now time.Time) (h *Handle, reused, evicted bool) {
	c.mu.Lock()
	if h, ok := c.handles[id]; ok {
		h.lastUse = now
		c.mu.Unlock()
		return h, true, false
	}
	h = &Handle{
		ID: id, Fingerprint: sys.Fingerprint(), Name: name,
		N: sys.A.N, NNZ: sys.A.NNZ(),
		sys: sys, slots: map[string]*solverSlot{}, lastUse: now,
	}
	c.handles[id] = h
	var victim *Handle
	if len(c.handles) > c.max {
		for _, o := range c.handles {
			if o != h && (victim == nil || o.lastUse.Before(victim.lastUse)) {
				victim = o
			}
		}
		delete(c.handles, victim.ID)
	}
	c.mu.Unlock()
	if victim != nil {
		victim.drainAll()
	}
	return h, false, victim != nil
}

// remove deletes a handle by id. In-flight solves holding the handle
// finish normally — removal unlinks it from the store and flushes its
// pending batches, which Shutdown's drain pass could no longer reach.
func (c *handleCache) remove(id string) bool {
	c.mu.Lock()
	h, ok := c.handles[id]
	delete(c.handles, id)
	c.mu.Unlock()
	if ok {
		h.drainAll()
	}
	return ok
}

// list snapshots all handles, sorted by ID for a stable exposition.
func (c *handleCache) list() []*Handle {
	c.mu.Lock()
	hs := make([]*Handle, 0, len(c.handles))
	for _, h := range c.handles {
		hs = append(hs, h)
	}
	c.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].ID < hs[j].ID })
	return hs
}

// len returns the current handle count.
func (c *handleCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.handles)
}

// configKey names one solver configuration the way the cache is keyed:
// matrix fingerprint is the handle; this adds machine × grid × algorithm.
// The last segment keeps strict and elastic requests on separate slots —
// and therefore separate coalescers, so an elastic opt-in can never be
// batched into (or force staleness onto) a strict tenant's panel.
func configKey(cfg core.Config) string {
	mode := "strict"
	if cfg.Staleness > 0 {
		mode = fmt.Sprintf("elastic:S=%d:tol=%g:max=%d", cfg.Staleness, cfg.RefineTol, cfg.RefineMax)
	}
	return fmt.Sprintf("%s|%dx%dx%d|%s|%s|%s",
		cfg.Algorithm, cfg.Layout.Px, cfg.Layout.Py, cfg.Layout.Pz,
		cfg.Trees, cfg.Machine.Name, mode)
}
