package disk

import (
	"container/list"
	"sync"

	"rover/internal/rdo"
	"rover/internal/store"
	"rover/internal/urn"
)

// lruCache is the byte-bounded cache of hot decoded objects. Cached objects
// are immutable by convention: the store inserts private clones and Get
// hands out clones of them, so a cached object is never written after
// insertion. An object an ops commit wrote is cached with that commit, so
// the commonest delta (one version behind) and redelivery check (of the
// latest export) read no record. The cache has its own lock — Get promotes
// recency, which is a write even on the read path, and serializing that
// under the store's RWMutex would defeat concurrent reads.
type lruCache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	ll    *list.List // front = most recent; values are *lruEnt
	m     map[urn.URN]*list.Element
	hits  int64
}

type lruEnt struct {
	u    urn.URN
	obj  *rdo.Object
	ops  store.OpsRec // the ops commit that wrote obj; Ver 0 if none did
	size int64
}

func newLRU(max int64) *lruCache {
	return &lruCache{max: max, ll: list.New(), m: make(map[urn.URN]*list.Element)}
}

// get returns a clone of the cached object iff it is present at exactly
// version ver (a stale cached version is treated as a miss; the caller's
// fault-in will overwrite it).
func (c *lruCache) get(u urn.URN, ver uint64) *rdo.Object {
	c.mu.Lock()
	el, ok := c.m[u]
	if !ok || el.Value.(*lruEnt).obj.Version != ver {
		c.mu.Unlock()
		return nil
	}
	c.ll.MoveToFront(el)
	obj := el.Value.(*lruEnt).obj
	c.hits++
	c.mu.Unlock()
	// Clone outside the lock: cached objects are immutable, so concurrent
	// clones of the same entry are safe.
	return obj.Clone()
}

// put admits obj with the ops commit that wrote it, which the caller must
// never mutate again, counting opsBytes (their encoded size), and evicts
// from the cold end until the bound holds. An object that would never fit
// is not admitted. A racing put of an older version than the resident one
// is dropped — fault-ins publish concurrently with commits, and the cache
// must never regress an object.
func (c *lruCache) put(obj *rdo.Object, ops store.OpsRec, opsBytes int) {
	size := int64(obj.SizeEstimate() + opsBytes)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max <= 0 || size > c.max {
		return
	}
	if el, ok := c.m[obj.URN]; ok {
		ent := el.Value.(*lruEnt)
		if obj.Version < ent.obj.Version {
			return
		}
		c.bytes += size - ent.size
		ent.obj, ent.ops, ent.size = obj, ops, size
		c.ll.MoveToFront(el)
	} else {
		c.m[obj.URN] = c.ll.PushFront(&lruEnt{u: obj.URN, obj: obj, ops: ops, size: size})
		c.bytes += size
	}
	for c.bytes > c.max {
		el := c.ll.Back()
		ent := el.Value.(*lruEnt)
		c.ll.Remove(el)
		delete(c.m, ent.u)
		c.bytes -= ent.size
	}
}

// peek returns the cached object and the ops commit that wrote it without
// promoting it — a history question or a snapshot must not churn the
// recency order.
func (c *lruCache) peek(u urn.URN) (*rdo.Object, store.OpsRec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[u]; ok {
		return el.Value.(*lruEnt).obj, el.Value.(*lruEnt).ops
	}
	return nil, store.OpsRec{}
}

func (c *lruCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.m = make(map[urn.URN]*list.Element)
	c.bytes = 0
}

func (c *lruCache) stats() (objects int, bytes, hits int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.bytes, c.hits
}
