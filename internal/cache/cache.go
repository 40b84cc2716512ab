// Package cache is the client-side object cache the access manager serves
// imports from.
//
// "A mobile host imports objects into its local cache and exports updated
// objects back to their home servers." The cache distinguishes committed
// data (what the home server confirmed) from tentative data (local method
// invocations not yet exported or not yet committed). Applications decide
// whether tentative data is acceptable per import — the paper:
// "Applications can specify whether they will accept tentative data when
// importing an object."
//
// Eviction is LRU by byte budget and never evicts tentative entries:
// uncommitted work must survive until its export commits.
package cache

import (
	"container/list"
	"sync"

	"rover/internal/rdo"
	"rover/internal/urn"
	"rover/internal/vtime"
)

// Entry is one cached object with its consistency bookkeeping.
type Entry struct {
	// Obj is the local working copy, including tentative mutations.
	Obj *rdo.Object
	// Env is the execution environment bound to Obj, built by the access
	// manager on the first local invocation (nil until then). It lives on
	// the entry so that it dies with it: eviction or Remove drops the only
	// reference, and Put clears it together with the Obj it was bound to.
	Env *rdo.Env
	// Committed is the pristine committed copy, materialized lazily the
	// first time a local invocation is about to mutate Obj (copy-on-first-
	// write). nil means Obj itself is clean. The access manager rebuilds
	// the working copy from Committed + PendingOps when a method fails
	// partway, so failed invocations cannot leave phantom state behind.
	Committed *rdo.Object
	// CommittedVersion is the latest server version reflected in Obj's
	// committed prefix (Obj.Version equals it right after import).
	CommittedVersion uint64
	// Tentative is true while Obj carries local uncommitted operations.
	Tentative bool
	// PendingOps are local invocations not yet committed at the server.
	PendingOps []rdo.Invocation
	// ExportInFlight marks ops currently riding an export QRPC.
	ExportInFlight bool
	// InFlightCount is how many of PendingOps are in the in-flight export.
	InFlightCount int
	// ExportBase and ExportCheck are what the in-flight export told the
	// server to expect: the committed version it was based on and the
	// checksum of the working copy encoded at ExportBase+1. A reply that
	// confirms them carries no object. ExportBase 0 (no object has version
	// 0) means there is nothing to confirm — no export in flight, or a new
	// committed copy was adopted underneath it.
	ExportBase  uint64
	ExportCheck uint32
	// ImportedAt is when the committed copy was fetched.
	ImportedAt vtime.Time

	lruElem *list.Element
	bytes   int
}

// Stats counts cache activity.
type Stats struct {
	Hits, Misses   int64
	Inserts        int64
	Evictions      int64
	TentativeCount int64 // current, not cumulative
	Bytes          int64
}

// Cache is a byte-budgeted LRU object cache. All methods are safe for
// concurrent use. Entries returned by Get are live: the access manager
// mutates them under its own per-object discipline; the cache only tracks
// presence, recency, and size.
type Cache struct {
	mu       sync.Mutex
	entries  map[urn.URN]*Entry
	lru      *list.List // front = most recent
	maxBytes int
	curBytes int
	stats    Stats
}

// New builds a cache. maxBytes <= 0 means unbounded.
func New(maxBytes int) *Cache {
	return &Cache{
		entries:  make(map[urn.URN]*Entry),
		lru:      list.New(),
		maxBytes: maxBytes,
	}
}

// Get returns the entry for u, marking it recently used.
func (c *Cache) Get(u urn.URN) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[u]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(e.lruElem)
	return e, true
}

// Peek returns the entry without touching recency or hit counters.
func (c *Cache) Peek(u urn.URN) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[u]
	return e, ok
}

// Put inserts or replaces the committed copy for u and returns its entry.
// Replacing drops what was tied to the old copy: its Env, and what an
// in-flight export expected the server to produce from it.
func (c *Cache) Put(obj *rdo.Object, now vtime.Time) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[obj.URN]; ok {
		c.curBytes -= old.bytes
		old.Obj = obj
		old.Env = nil
		old.ExportBase = 0
		old.CommittedVersion = obj.Version
		old.ImportedAt = now
		old.bytes = obj.SizeEstimate()
		c.curBytes += old.bytes
		c.lru.MoveToFront(old.lruElem)
		c.evictLocked()
		return old
	}
	e := &Entry{
		Obj:              obj,
		CommittedVersion: obj.Version,
		ImportedAt:       now,
		bytes:            obj.SizeEstimate(),
	}
	e.lruElem = c.lru.PushFront(obj.URN)
	c.entries[obj.URN] = e
	c.curBytes += e.bytes
	c.stats.Inserts++
	c.evictLocked()
	return e
}

// Touch re-accounts an entry's size after the access manager mutated its
// object, and refreshes recency.
func (c *Cache) Touch(u urn.URN) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[u]
	if !ok {
		return
	}
	c.curBytes -= e.bytes
	e.bytes = e.Obj.SizeEstimate()
	c.curBytes += e.bytes
	c.lru.MoveToFront(e.lruElem)
	c.evictLocked()
}

// Remove drops an entry regardless of state. It reports whether it existed.
func (c *Cache) Remove(u urn.URN) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[u]
	if !ok {
		return false
	}
	c.lru.Remove(e.lruElem)
	delete(c.entries, u)
	c.curBytes -= e.bytes
	return true
}

// evictLocked drops least-recently-used non-tentative entries until the
// budget holds. Tentative entries are pinned.
func (c *Cache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	elem := c.lru.Back()
	for c.curBytes > c.maxBytes && elem != nil {
		prev := elem.Prev()
		u := elem.Value.(urn.URN)
		e := c.entries[u]
		if !e.Tentative && !e.ExportInFlight {
			c.lru.Remove(elem)
			delete(c.entries, u)
			c.curBytes -= e.bytes
			c.stats.Evictions++
		}
		elem = prev
	}
}

// Len returns the number of cached objects.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the current byte accounting.
func (c *Cache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}

// TentativeURNs lists objects with uncommitted local operations — the
// user-notification surface ("N tentative updates pending").
func (c *Cache) TentativeURNs() []urn.URN {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []urn.URN
	for u, e := range c.entries {
		if e.Tentative {
			out = append(out, u)
		}
	}
	return out
}

// Stats returns a snapshot, including the live tentative count.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Bytes = int64(c.curBytes)
	for _, e := range c.entries {
		if e.Tentative {
			st.TentativeCount++
		}
	}
	return st
}

// URNs lists all cached object names (diagnostics, prefetch planning).
func (c *Cache) URNs() []urn.URN {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]urn.URN, 0, len(c.entries))
	for u := range c.entries {
		out = append(out, u)
	}
	return out
}
