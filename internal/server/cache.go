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
	"sptrsv/internal/trsv"
)

// handleShards is the shard count of the handle cache. Shards cut lock
// contention between concurrent uploads, solves, and scrapes; the count is
// a power of two so the shard index is a mask.
const handleShards = 16

// Handle is one uploaded (or generated) factored matrix: the upload-once
// half of the upload-once/solve-many API. It owns the factored System and
// a per-configuration cache of built solvers — plan, cached level
// schedule, and coalescer — so every symbolic and scheduling cost is paid
// once per (matrix fingerprint × machine × grid × algorithm) and then
// shared by every request that names the handle.
type Handle struct {
	ID          string // "m-" + content-hash digest; stable across uploads
	Fingerprint string // core fingerprint: n, nnz(LU), supernodes, depth
	Name        string // matrix name for generated analogs, "upload" else
	N, NNZ      int

	sys *core.System

	mu      sync.Mutex
	slots   map[string]*solverSlot
	lastUse time.Time
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

// touch refreshes the handle's LRU clock.
func (h *Handle) touch(now time.Time) {
	h.mu.Lock()
	h.lastUse = now
	h.mu.Unlock()
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
// pattern, and numeric values — into a hex SHA-256. This, not the
// structural fingerprint, is what identifies a handle: two matrices with
// the same sparsity aggregates (or even the same pattern) but different
// values must not alias, or a solve against one would silently return the
// other's solution. The lossy core fingerprint stays the key of the
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
// hash: a short digest, so the same matrix uploaded twice (by anyone)
// lands on the same handle without the server storing the matrix bytes.
func HandleID(contentHash string) string {
	sum := sha256.Sum256([]byte(contentHash))
	return "m-" + hex.EncodeToString(sum[:])[:12]
}

// handleCache is the sharded, bounded handle store. Lookups touch only one
// shard; the LRU eviction scan (rare: only on insert beyond capacity)
// walks all shards.
type handleCache struct {
	max    int
	shards [handleShards]struct {
		sync.Mutex
		handles map[string]*Handle
	}

	mu    sync.Mutex // guards count across insert/evict/remove
	count int
}

func newHandleCache(max int) *handleCache {
	if max < 1 {
		max = 1
	}
	c := &handleCache{max: max}
	for i := range c.shards {
		c.shards[i].handles = map[string]*Handle{}
	}
	return c
}

// shardOf picks the shard for an id (FNV-1a over the id bytes).
func (c *handleCache) shardOf(id string) *struct {
	sync.Mutex
	handles map[string]*Handle
} {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return &c.shards[h&(handleShards-1)]
}

// get looks up a handle, refreshing its LRU position.
func (c *handleCache) get(id string, now time.Time) (*Handle, bool) {
	sh := c.shardOf(id)
	sh.Lock()
	h, ok := sh.handles[id]
	sh.Unlock()
	if ok {
		h.touch(now)
	}
	return h, ok
}

// put inserts a factored system, deduplicating by content hash: a
// re-upload of a matrix the cache already holds (same pattern AND same
// values) returns the existing handle with reused=true and costs nothing
// beyond the factorization the caller already did. Inserting beyond
// capacity evicts the least-recently-used handle (evicted reports how
// many, for the metrics).
func (c *handleCache) put(sys *core.System, name string, now time.Time) (h *Handle, reused bool, evicted int) {
	id := HandleID(ContentHash(sys.A))
	sh := c.shardOf(id)
	sh.Lock()
	if h, ok := sh.handles[id]; ok {
		sh.Unlock()
		h.touch(now)
		return h, true, 0
	}
	h = &Handle{
		ID: id, Fingerprint: sys.Fingerprint(), Name: name,
		N: sys.A.N, NNZ: sys.A.NNZ(),
		sys: sys, slots: map[string]*solverSlot{}, lastUse: now,
	}
	sh.handles[id] = h
	sh.Unlock()

	c.mu.Lock()
	c.count++
	over := c.count - c.max
	c.mu.Unlock()
	for ; over > 0; over-- {
		if !c.evictLRU(id) {
			break
		}
		evicted++
	}
	return h, false, evicted
}

// evictLRU removes the least-recently-used handle, never the one named
// keep (the insert that triggered the eviction).
func (c *handleCache) evictLRU(keep string) bool {
	var victim *Handle
	for i := range c.shards {
		sh := &c.shards[i]
		sh.Lock()
		for _, h := range sh.handles {
			if h.ID == keep {
				continue
			}
			h.mu.Lock()
			use := h.lastUse
			h.mu.Unlock()
			if victim == nil || use.Before(victimUse(victim)) {
				victim = h
			}
		}
		sh.Unlock()
	}
	if victim == nil {
		return false
	}
	return c.remove(victim.ID)
}

func victimUse(h *Handle) time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastUse
}

// remove deletes a handle by id. In-flight solves holding the handle
// finish normally — removal unlinks it from the cache and flushes its
// pending batches, which Shutdown's drain pass could no longer reach.
func (c *handleCache) remove(id string) bool {
	sh := c.shardOf(id)
	sh.Lock()
	h, ok := sh.handles[id]
	delete(sh.handles, id)
	sh.Unlock()
	if ok {
		c.mu.Lock()
		c.count--
		c.mu.Unlock()
		h.drainAll()
	}
	return ok
}

// list snapshots all handles, sorted by ID for a stable exposition.
func (c *handleCache) list() []*Handle {
	var hs []*Handle
	for i := range c.shards {
		sh := &c.shards[i]
		sh.Lock()
		for _, h := range sh.handles {
			hs = append(hs, h)
		}
		sh.Unlock()
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].ID < hs[j].ID })
	return hs
}

// len returns the current handle count.
func (c *handleCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// configKey names one solver configuration the way the cache is keyed:
// matrix fingerprint is the handle; this adds machine × grid × algorithm.
// The solve-mode segment keeps strict and elastic requests on separate
// slots — and therefore separate coalescers, so an elastic opt-in can never
// be batched into (or force staleness onto) a strict tenant's panel.
func configKey(cfg core.Config) string {
	mode := cfg.Mode.Resolve().String()
	if cfg.Mode.Resolve() == trsv.ModeElastic {
		mode = fmt.Sprintf("elastic:S=%d:tol=%g:max=%d", cfg.Staleness, cfg.RefineTol, cfg.RefineMax)
	}
	return fmt.Sprintf("%s|%dx%dx%d|%s|%s|%s",
		cfg.Algorithm, cfg.Layout.Px, cfg.Layout.Py, cfg.Layout.Pz,
		cfg.Trees, cfg.Machine.Name, mode)
}
